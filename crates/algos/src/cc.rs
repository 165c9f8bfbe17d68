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
//! ## The hooking pass walks vertices, one attempt each
//!
//! Hooking loops over source vertices `u` and walks `u`'s CSR adjacency
//! in place; a vertex outside a star skips its whole adjacency. Every edge
//! of `u` targets the same root `D[u]`, and a `(cell, round)` pair has a
//! single winner, so once `u` has tried to claim `D[u]` — won or lost —
//! no later edge of `u` can win this round: `u` stops at its first
//! qualifying edge. A root is still hooked exactly when one of its star's
//! members has a qualifying edge, as in the edge-parallel formulation,
//! but a phase makes at most one claim attempt per vertex instead of one
//! per edge. This is CAS-LT's "claimed cells are skipped" idea applied at
//! the loop level. Members take contiguous vertex blocks holding equal
//! numbers of edges (binary search on the CSR offsets), so a skewed
//! graph's heavy low ids do not all land on one member.
//!
//! ## Reads-before-writes, made explicit
//!
//! PRAM semantics read all operands before any same-step write commits. A
//! threaded hooking pass has no such guarantee: a hooked root's new pointer
//! could be read mid-pass as if it were a root, directing a *second* hook
//! at a non-root cell and splitting a component. We restore the PRAM
//! read/write separation by hooking from a snapshot `D_snap` of `D`. `D`
//! does not change during star detection, so the snapshot is copied in
//! star detection's first pass, beside the reset of `star` (and the re-arm
//! of gatekeeper cells) — no pass or rendezvous of its own. It stands in
//! for the lock-step semantics OpenMP's fork-join also only approximates;
//! DESIGN.md discusses the substitution.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};

use pram_core::{Round, SliceArbiter};
use pram_exec::{Schedule, ThreadPool};
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
    let (offsets, targets) = (g.offsets(), g.targets());
    let rearm = !arb.rearms_on_new_round();

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
        let my_vertices = edge_balanced_block(offsets, ctx.num_threads(), ctx.thread_id());

        let c = ctx.converge_rounds(max_iters, |iter_round, flag| {
            ctx.annotate_round("hook");
            let i = iter_round.get() - 1;
            // Progress is member-local until the end of the round, so the
            // shared flag's line is stored to at most once per member.
            let mut changed = false;
            // Two distinct CW rounds per iteration (one per hooking phase).
            let hook_rounds = [
                Round::from_iteration(2 * i),
                Round::from_iteration(2 * i + 1),
            ];

            for (phase, round) in hook_rounds.into_iter().enumerate() {
                let conditional = phase == 0;
                // Star detection: JaJa's three-pass formulation. The first
                // pass also snapshots D (the explicit reads-before-writes
                // separation) and re-arms gatekeeper cells.
                ctx.for_each(0..n, sched, |v| {
                    star[v].store(1, Ordering::Relaxed);
                    d_snap[v].store(d[v].load(Ordering::Relaxed), Ordering::Relaxed);
                    if rearm {
                        arb.reset_range(v..v + 1);
                    }
                });
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

                // Hooking: one claim attempt per star vertex (module docs).
                for u in my_vertices.clone() {
                    if star[u].load(Ordering::Relaxed) == 0 {
                        continue;
                    }
                    let du = d_snap[u].load(Ordering::Relaxed);
                    for e in offsets[u]..offsets[u + 1] {
                        let dv = d_snap[targets[e] as usize].load(Ordering::Relaxed);
                        let should = if conditional { dv < du } else { dv != du };
                        if should {
                            if arb.try_claim(du as usize, round) {
                                // The guarded two-array arbitrary write.
                                d[du as usize].store(dv, Ordering::Relaxed);
                                hook_edge[du as usize].store(e, Ordering::Relaxed);
                                changed = true;
                            }
                            break;
                        }
                    }
                }
                ctx.barrier();
            }

            // Shortcut: pointer jumping (exclusive write per vertex). No
            // ending barrier: the round's closing rendezvous is the sync point.
            ctx.for_each_nowait(0..n, |v| {
                let dv = d[v].load(Ordering::Relaxed);
                let ddv = d[dv as usize].load(Ordering::Relaxed);
                if ddv != dv {
                    d[v].store(ddv, Ordering::Relaxed);
                    changed = true;
                }
            });
            if changed {
                flag.set();
            }
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

/// Member `id`'s contiguous block of the vertices `0..n` when they are
/// split across `threads` members so that each block holds about `m /
/// threads` edges, found by binary search on the CSR `offsets` (the
/// out-degree prefix sum). The blocks are disjoint and cover `0..n`.
fn edge_balanced_block(offsets: &[usize], threads: usize, id: usize) -> Range<usize> {
    let n = offsets.len() - 1;
    let m = offsets[n];
    let bound = |k: usize| {
        if k == threads {
            n
        } else {
            offsets.partition_point(|&o| o < k * m / threads)
        }
    };
    bound(id)..bound(id + 1)
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
    use pram_exec::PoolConfig;
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
    fn one_claim_attempt_per_star_vertex_per_phase() {
        let pool = ThreadPool::with_config(PoolConfig::new(3).telemetry(true));
        for (name, g) in [
            ("complete(64)", graph(64, &GraphGen::complete(64))),
            ("star(2000)", graph(2000, &GraphGen::star(2000))),
        ] {
            let n = g.num_vertices() as u64;
            for m in single_winner_methods() {
                let before = pool.take_round_report().totals_cw;
                let r = connected_components(&g, m, &pool);
                verify_cc(&g, &r).unwrap_or_else(|e| panic!("{name} {m}: {e}"));
                let claims = pool
                    .take_round_report()
                    .totals_cw
                    .delta_since(&before)
                    .resolutions();
                let bound = 2 * n * u64::from(r.iterations);
                assert!(
                    claims <= bound,
                    "{name} {m}: {claims} claim resolutions > 2·n·iterations = {bound}"
                );
            }
        }
    }

    #[test]
    fn edge_balanced_blocks_cover_all_vertices_in_order() {
        // Degrees 9, 0, 1, 1, 1, 0: one heavy vertex, more members than it.
        let offsets = [0, 9, 9, 10, 11, 12, 12];
        for threads in 1..6 {
            let blocks: Vec<_> = (0..threads)
                .map(|id| edge_balanced_block(&offsets, threads, id))
                .collect();
            assert_eq!(blocks[0].start, 0);
            assert_eq!(blocks[threads - 1].end, 6);
            for w in blocks.windows(2) {
                assert_eq!(w[0].end, w[1].start, "{threads} members: {blocks:?}");
            }
        }
        assert_eq!(edge_balanced_block(&offsets, 2, 0), 0..1);
        assert_eq!(edge_balanced_block(&offsets, 2, 1), 1..6);
        assert_eq!(edge_balanced_block(&[0, 0, 0], 3, 2), 0..2);
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
