//! Awerbuch–Shiloach connected components (evaluated in the paper's
//! Figures 10–12) — the *arbitrary* concurrent-write benchmark.
//!
//! Each iteration runs star-based hooking twice (conditional, then
//! unconditional) followed by one pointer-jumping shortcut:
//!
//! 1. **Star detection** (3 passes): mark which vertices belong to depth-≤1
//!    trees, using common concurrent writes of `false`.
//! 2. **Conditional hooking**: for every directed edge `(u, v)` with `u` in
//!    a star and `D[v] < D[u]`, hook `u`'s root onto `D[v]`. Many edges
//!    target the same root with *different* values — a true arbitrary
//!    concurrent write. The winner updates **two** arrays (`D[root]` and
//!    `hook_edge[root]`), which is why the paper implements no naive CC:
//!    torn two-array writes are unsound (§7.3).
//! 3. **Unconditional hooking**: surviving stars hook onto any differing
//!    neighbor component (safe: after conditional hooking, no two adjacent
//!    stars survive, so targets are non-hooking trees — no cycles).
//! 4. **Shortcut**: `D[v] = D[D[v]]`.
//!
//! ## Reads-before-writes, made explicit
//!
//! PRAM semantics read all operands before any same-step write commits. A
//! threaded hooking pass has no such guarantee: a hooked root's new pointer
//! could be read mid-pass as if it were a root, directing a *second* hook
//! at a non-root cell and splitting a component. We restore the PRAM
//! read/write separation by snapshotting `D` before each hooking pass
//! (`D_snap`) and hooking from the snapshot — an O(n) pass per phase,
//! identical across methods, that stands in for the lock-step semantics
//! OpenMP's fork-join also only approximates. DESIGN.md discusses the
//! substitution.

use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};

use pram_core::{Round, SliceArbiter};
use pram_exec::{FrontierBuffer, LocalBuffer, Schedule, ThreadPool, WorkerCtx};
use pram_graph::CsrGraph;

use crate::method::{dispatch_method, CwMethod};

/// Sentinel for "this root was never hooked".
pub const NO_HOOK: usize = usize::MAX;

/// Output of [`connected_components`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcResult {
    /// Canonical component labels: the smallest vertex id in each
    /// component.
    pub labels: Vec<u32>,
    /// For each vertex that served as a hooked root: the directed-edge
    /// index (into the CSR target array) whose hook won; [`NO_HOOK`]
    /// otherwise. Winner-consistent with the hook that set the parent —
    /// the two-array write the arbitration protects.
    pub hook_edge: Vec<usize>,
    /// Outer iterations executed.
    pub iterations: u32,
    /// Whether the algorithm reached its fixed point within the iteration
    /// cap (always true for single-winner methods; naive runs may produce
    /// pointer cycles and hit the cap).
    pub converged: bool,
}

/// Awerbuch–Shiloach connected components under the given concurrent-write
/// method.
///
/// The paper implements gatekeeper and CAS-LT variants only; passing
/// [`CwMethod::Naive`] is permitted for demonstration but the result may be
/// arbitrarily wrong (torn two-array hooks) — exactly the §7.3 argument.
///
/// ```
/// use pram_algos::{connected_components, CwMethod};
/// use pram_exec::ThreadPool;
/// use pram_graph::{CsrGraph, GraphGen};
///
/// let g = CsrGraph::from_edges(8, &GraphGen::disjoint_cliques(2, 4), true);
/// let pool = ThreadPool::new(2);
/// let r = connected_components(&g, CwMethod::CasLt, &pool);
/// assert_eq!(r.labels, vec![0, 0, 0, 0, 4, 4, 4, 4]);
/// ```
pub fn connected_components(g: &CsrGraph, method: CwMethod, pool: &ThreadPool) -> CcResult {
    dispatch_method!(method, g.num_vertices(), |arb| cc_with_arbiter(
        g, &arb, pool
    ))
}

/// The kernel against an explicit arbiter (one cell per vertex, freshly
/// armed).
pub fn cc_with_arbiter<A: SliceArbiter>(g: &CsrGraph, arb: &A, pool: &ThreadPool) -> CcResult {
    let n = g.num_vertices();
    assert_eq!(arb.len(), n, "arbiter must span one cell per vertex");
    let edges: Vec<(u32, u32)> = g.directed_edges().collect();
    let m = edges.len();

    let d: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(v as u32)).collect();
    let d_snap: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let star: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(1)).collect();
    let hook_edge: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(NO_HOOK)).collect();

    // Awerbuch–Shiloach converges in O(log n) iterations; naive runs can
    // cycle, so cap generously and report.
    let max_iters = 4 * (usize::BITS - n.max(2).leading_zeros()) + 16;

    let iterations = AtomicU32::new(0);
    let converged = AtomicU8::new(0);

    pool.run(|ctx| {
        let sched = Schedule::default();

        // Star detection: JaJa's three-pass formulation; passes 2 and 3 use
        // common concurrent writes / race-benign in-place propagation.
        let star_pass = |ctx: &WorkerCtx<'_>| {
            ctx.for_each(0..n, sched, |v| star[v].store(1, Ordering::Relaxed));
            ctx.for_each(0..n, sched, |v| {
                let dv = d[v].load(Ordering::Relaxed) as usize;
                let ddv = d[dv].load(Ordering::Relaxed) as usize;
                if dv != ddv {
                    // Common CW of `false` — naive stores are sound here.
                    star[v].store(0, Ordering::Relaxed);
                    star[ddv].store(0, Ordering::Relaxed);
                }
            });
            ctx.for_each(0..n, sched, |v| {
                let dv = d[v].load(Ordering::Relaxed) as usize;
                let ddv = d[dv].load(Ordering::Relaxed) as usize;
                // In-place is race-benign: any cell both read and written
                // in this pass provably keeps its value (module docs).
                star[v].store(star[ddv].load(Ordering::Relaxed), Ordering::Relaxed);
            });
        };

        // Snapshot D — the explicit reads-before-writes separation.
        let snapshot = |ctx: &WorkerCtx<'_>| {
            ctx.for_each(0..n, sched, |v| {
                d_snap[v].store(d[v].load(Ordering::Relaxed), Ordering::Relaxed)
            });
        };

        let c = ctx.converge_rounds(max_iters, |iter_round, flag| {
            ctx.annotate_round("hook");
            let i = iter_round.get() - 1;
            // Two distinct CW rounds per iteration (one per hooking phase).
            let hook_rounds = [
                Round::from_iteration(2 * i),
                Round::from_iteration(2 * i + 1),
            ];

            for (phase, &round) in hook_rounds.iter().enumerate() {
                let conditional = phase == 0;
                star_pass(ctx);
                snapshot(ctx);
                ctx.for_each(0..m, sched, |e| {
                    let (u, v) = edges[e];
                    if star[u as usize].load(Ordering::Relaxed) == 0 {
                        return;
                    }
                    let du = d_snap[u as usize].load(Ordering::Relaxed);
                    let dv = d_snap[v as usize].load(Ordering::Relaxed);
                    let should = if conditional { dv < du } else { dv != du };
                    if should && arb.try_claim(du as usize, round) {
                        // The guarded two-array arbitrary write.
                        d[du as usize].store(dv, Ordering::Relaxed);
                        hook_edge[du as usize].store(e, Ordering::Relaxed);
                        flag.set();
                    }
                });
                if !arb.rearms_on_new_round() {
                    // Gatekeeper methods: re-zero before the next CW round.
                    ctx.for_each(0..n, sched, |v| arb.reset_range(v..v + 1));
                }
            }

            // Shortcut: pointer jumping (exclusive write per vertex).
            ctx.for_each(0..n, sched, |v| {
                let dv = d[v].load(Ordering::Relaxed);
                let ddv = d[dv as usize].load(Ordering::Relaxed);
                if ddv != dv {
                    d[v].store(ddv, Ordering::Relaxed);
                    flag.set();
                }
            });
        });
        iterations.store(c.rounds, Ordering::Relaxed);
        converged.store(u8::from(c.converged), Ordering::Relaxed);
    });

    let d: Vec<u32> = d.into_iter().map(AtomicU32::into_inner).collect();
    let labels = pram_graph::serial::canonical_labels_from(|v| d[d[v as usize] as usize], n);
    CcResult {
        labels,
        hook_edge: hook_edge.into_iter().map(AtomicUsize::into_inner).collect(),
        iterations: iterations.into_inner(),
        converged: converged.into_inner() != 0,
    }
}

/// Awerbuch–Shiloach with an **active-edge worklist**: like
/// [`connected_components`], but each iteration ends by compacting the edge
/// list, permanently dropping every edge whose endpoints already share a
/// parent (`D[u] == D[v]`).
///
/// The drop is safe because trees only ever merge: once two endpoints are
/// in the same tree they remain in the same component forever, so the edge
/// can never again hook two *distinct* trees. As components coalesce, the
/// per-iteration hooking work shrinks from `O(m)` towards zero while the
/// fixed `O(n)` star/snapshot/shortcut passes are untouched — the same
/// frontier-centric trade the sparse BFS strategies make.
///
/// The compacted list lives in a double-buffered
/// [`pram_exec::FrontierBuffer`] of edge indices, rebuilt with per-worker
/// [`pram_exec::LocalBuffer`]s. Arbitration is byte-for-byte the kernel of
/// [`cc_with_arbiter`]: the same `try_claim(root, round)` guards the same
/// two-array hook write, so every concurrent-write method dispatches
/// unchanged.
pub fn connected_components_worklist(
    g: &CsrGraph,
    method: CwMethod,
    pool: &ThreadPool,
) -> CcResult {
    dispatch_method!(method, g.num_vertices(), |arb| cc_worklist_with_arbiter(
        g, &arb, pool
    ))
}

/// The worklist kernel against an explicit arbiter (one cell per vertex,
/// freshly armed).
pub fn cc_worklist_with_arbiter<A: SliceArbiter>(
    g: &CsrGraph,
    arb: &A,
    pool: &ThreadPool,
) -> CcResult {
    let n = g.num_vertices();
    assert_eq!(arb.len(), n, "arbiter must span one cell per vertex");
    let edges: Vec<(u32, u32)> = g.directed_edges().collect();
    let m = edges.len();

    let d: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(v as u32)).collect();
    let d_snap: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let star: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(1)).collect();
    let hook_edge: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(NO_HOOK)).collect();

    // Double-buffered active-edge list, initially every directed edge.
    let work = [
        FrontierBuffer::with_capacity(m),
        FrontierBuffer::with_capacity(m),
    ];
    let all: Vec<u64> = (0..m as u64).collect();
    work[0].publish(&all);
    drop(all);

    let max_iters = 4 * (usize::BITS - n.max(2).leading_zeros()) + 16;
    let iterations = AtomicU32::new(0);
    let converged = AtomicU8::new(0);

    pool.run(|ctx| {
        let sched = Schedule::default();
        let mut wi = 0usize; // work[wi] is the current active-edge list

        let star_pass = |ctx: &WorkerCtx<'_>| {
            ctx.for_each(0..n, sched, |v| star[v].store(1, Ordering::Relaxed));
            ctx.for_each(0..n, sched, |v| {
                let dv = d[v].load(Ordering::Relaxed) as usize;
                let ddv = d[dv].load(Ordering::Relaxed) as usize;
                if dv != ddv {
                    star[v].store(0, Ordering::Relaxed);
                    star[ddv].store(0, Ordering::Relaxed);
                }
            });
            ctx.for_each(0..n, sched, |v| {
                let dv = d[v].load(Ordering::Relaxed) as usize;
                let ddv = d[dv].load(Ordering::Relaxed) as usize;
                star[v].store(star[ddv].load(Ordering::Relaxed), Ordering::Relaxed);
            });
        };
        let snapshot = |ctx: &WorkerCtx<'_>| {
            ctx.for_each(0..n, sched, |v| {
                d_snap[v].store(d[v].load(Ordering::Relaxed), Ordering::Relaxed)
            });
        };

        let c = ctx.converge_rounds(max_iters, |iter_round, flag| {
            ctx.annotate_round("hook");
            let i = iter_round.get() - 1;
            let hook_rounds = [
                Round::from_iteration(2 * i),
                Round::from_iteration(2 * i + 1),
            ];
            let cur = &work[wi];
            let wlen = cur.len();

            for (phase, &round) in hook_rounds.iter().enumerate() {
                let conditional = phase == 0;
                star_pass(ctx);
                snapshot(ctx);
                // Hooking now walks only the active edges.
                ctx.for_each(0..wlen, sched, |k| {
                    let e = cur.get(k) as usize;
                    let (u, v) = edges[e];
                    if star[u as usize].load(Ordering::Relaxed) == 0 {
                        return;
                    }
                    let du = d_snap[u as usize].load(Ordering::Relaxed);
                    let dv = d_snap[v as usize].load(Ordering::Relaxed);
                    let should = if conditional { dv < du } else { dv != du };
                    if should && arb.try_claim(du as usize, round) {
                        d[du as usize].store(dv, Ordering::Relaxed);
                        hook_edge[du as usize].store(e, Ordering::Relaxed);
                        flag.set();
                    }
                });
                if !arb.rearms_on_new_round() {
                    ctx.for_each(0..n, sched, |v| arb.reset_range(v..v + 1));
                }
            }

            ctx.for_each(0..n, sched, |v| {
                let dv = d[v].load(Ordering::Relaxed);
                let ddv = d[dv as usize].load(Ordering::Relaxed);
                if ddv != dv {
                    d[v].store(ddv, Ordering::Relaxed);
                    flag.set();
                }
            });

            // Compact: keep only edges whose endpoints still have distinct
            // parents. `D[u] == D[v]` ⇒ same tree ⇒ same component forever,
            // so dropped edges can never hook again.
            let next = &work[1 - wi];
            ctx.barrier_with(|| next.clear());
            let mut local = LocalBuffer::new();
            ctx.for_each_nowait(0..wlen, sched, |k| {
                let e = cur.get(k) as usize;
                let (u, v) = edges[e];
                if d[u as usize].load(Ordering::Relaxed) != d[v as usize].load(Ordering::Relaxed) {
                    local.push(e as u64, next);
                }
            });
            local.flush(next);
            ctx.barrier();
            wi = 1 - wi;
        });
        ctx.master(|| {
            iterations.store(c.rounds, Ordering::Relaxed);
            converged.store(u8::from(c.converged), Ordering::Relaxed);
        });
    });

    let d: Vec<u32> = d.into_iter().map(AtomicU32::into_inner).collect();
    let labels = pram_graph::serial::canonical_labels_from(|v| d[d[v as usize] as usize], n);
    CcResult {
        labels,
        hook_edge: hook_edge.into_iter().map(AtomicUsize::into_inner).collect(),
        iterations: iterations.into_inner(),
        converged: converged.into_inner() != 0,
    }
}

/// Verify a [`CcResult`] against union–find ground truth, including the
/// hook-edge cross-array consistency that arbitration protects.
pub fn verify_cc(g: &CsrGraph, r: &CcResult) -> Result<(), String> {
    let n = g.num_vertices();
    let edges: Vec<(u32, u32)> = g.directed_edges().collect();
    let expect = pram_graph::serial::cc_labels(n, &edges);
    if r.labels != expect {
        let v = (0..n).find(|&v| expect[v] != r.labels[v]).unwrap();
        return Err(format!(
            "labels[{v}] = {} but union-find says {}",
            r.labels[v], expect[v]
        ));
    }
    if !r.converged {
        return Err("did not converge within the iteration cap".into());
    }
    // Each recorded hook edge must connect vertices of the component whose
    // root it hooked — the two-array consistency check.
    for (root, &e) in r.hook_edge.iter().enumerate() {
        if e == NO_HOOK {
            continue;
        }
        let Some(&(u, v)) = edges.get(e) else {
            return Err(format!("hook_edge[{root}] = {e} is not an edge index"));
        };
        if r.labels[u as usize] != r.labels[root] || r.labels[v as usize] != r.labels[root] {
            return Err(format!(
                "hook_edge[{root}] = {e} = ({u}, {v}) crosses components \
                 ({}, {} vs root's {})",
                r.labels[u as usize], r.labels[v as usize], r.labels[root]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram_graph::GraphGen;

    fn graph(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        CsrGraph::from_edges(n, edges, true)
    }

    fn single_winner_methods() -> impl Iterator<Item = CwMethod> {
        CwMethod::ALL.into_iter().filter(|m| m.single_winner())
    }

    #[test]
    fn structured_graphs_all_methods() {
        let pool = ThreadPool::new(4);
        let cases = vec![
            graph(1, &[]),
            graph(5, &[]),
            graph(5, &GraphGen::path(5)),
            graph(8, &GraphGen::star(8)),
            graph(6, &GraphGen::cycle(6)),
            graph(12, &GraphGen::disjoint_cliques(3, 4)),
            graph(9, &GraphGen::grid(3, 3)),
            graph(4, &GraphGen::complete(4)),
        ];
        for g in &cases {
            for m in single_winner_methods() {
                let r = connected_components(g, m, &pool);
                verify_cc(g, &r).unwrap_or_else(|e| panic!("{m}: {e}"));
            }
        }
    }

    #[test]
    fn random_multigraphs() {
        let pool = ThreadPool::new(4);
        for seed in 0..4 {
            let edges = GraphGen::new(seed).gnm(120, 200);
            let g = graph(120, &edges);
            for m in [CwMethod::CasLt, CwMethod::Gatekeeper] {
                let r = connected_components(&g, m, &pool);
                verify_cc(&g, &r).unwrap_or_else(|e| panic!("seed {seed} {m}: {e}"));
            }
        }
    }

    #[test]
    fn random_forests_preserve_component_structure() {
        let pool = ThreadPool::new(4);
        let edges = GraphGen::new(3).random_forest(300, 0.7);
        let g = graph(300, &edges);
        let r = connected_components(&g, CwMethod::CasLt, &pool);
        verify_cc(&g, &r).unwrap();
    }

    #[test]
    fn rmat_skewed_graph() {
        let pool = ThreadPool::new(4);
        let edges = GraphGen::new(1).rmat_standard(8, 600);
        let g = graph(256, &edges);
        for m in [CwMethod::CasLt, CwMethod::GatekeeperSkip, CwMethod::Lock] {
            let r = connected_components(&g, m, &pool);
            verify_cc(&g, &r).unwrap_or_else(|e| panic!("{m}: {e}"));
        }
    }

    #[test]
    fn iteration_count_is_logarithmic_on_paths() {
        let pool = ThreadPool::new(2);
        let g = graph(256, &GraphGen::path(256));
        let r = connected_components(&g, CwMethod::CasLt, &pool);
        assert!(r.converged);
        assert!(
            r.iterations <= 20,
            "path of 256 took {} iterations",
            r.iterations
        );
        assert!(r.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn hook_edges_recorded_for_merged_components() {
        let pool = ThreadPool::new(2);
        let g = graph(4, &GraphGen::path(4));
        let r = connected_components(&g, CwMethod::CasLt, &pool);
        // One component; at least one root must have been hooked.
        assert!(r.hook_edge.iter().any(|&e| e != NO_HOOK));
        verify_cc(&g, &r).unwrap();
    }

    #[test]
    fn worklist_matches_reference_on_structured_graphs() {
        let pool = ThreadPool::new(4);
        let cases = vec![
            graph(1, &[]),
            graph(5, &[]),
            graph(5, &GraphGen::path(5)),
            graph(8, &GraphGen::star(8)),
            graph(12, &GraphGen::disjoint_cliques(3, 4)),
            graph(9, &GraphGen::grid(3, 3)),
        ];
        for g in &cases {
            for m in single_winner_methods() {
                let r = connected_components_worklist(g, m, &pool);
                verify_cc(g, &r).unwrap_or_else(|e| panic!("{m}: {e}"));
            }
        }
    }

    #[test]
    fn worklist_agrees_with_dense_labels_on_random_graphs() {
        let pool = ThreadPool::new(4);
        for seed in 0..4 {
            let edges = GraphGen::new(seed).gnm(150, 350);
            let g = graph(150, &edges);
            let dense = connected_components(&g, CwMethod::CasLt, &pool);
            let sparse = connected_components_worklist(&g, CwMethod::CasLt, &pool);
            assert_eq!(sparse.labels, dense.labels, "seed {seed}");
            verify_cc(&g, &sparse).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn singleton_components_never_hook() {
        let pool = ThreadPool::new(2);
        let g = graph(5, &[]);
        let r = connected_components(&g, CwMethod::CasLt, &pool);
        assert_eq!(r.labels, vec![0, 1, 2, 3, 4]);
        assert!(r.hook_edge.iter().all(|&e| e == NO_HOOK));
        assert_eq!(r.iterations, 1);
    }
}
