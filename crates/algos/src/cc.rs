//! Connected components by star hooking under arbitrary concurrent writes:
//! Awerbuch–Shiloach (evaluated in the paper's Figures 10–12, its
//! *arbitrary* concurrent-write benchmark) and, as an extension beyond the
//! paper's three kernels, the simplified Shiloach–Vishkin rule that hooks
//! conditionally only.
//!
//! The forest lives in two parent arrays, `D` and `S`. Iteration `i` owns
//! two hook rounds, `r0 = Round::from_iteration(2i)` and `r1 =
//! Round::from_iteration(2i + 1)`, and makes two hooking passes and one
//! compress pass:
//!
//! 1. **Conditional hooking** (round `r0`, reads `S`, writes `D`): every
//!    vertex's parent `S[u]` is a root (the star invariant below), so no
//!    star test is needed. For a vertex `u` with an edge `(u, v)` and `S[v]
//!    < S[u]`, hook `u`'s root onto `S[v]`. Many edges target the same root
//!    with *different* values — a true arbitrary concurrent write. The
//!    winner updates **two** arrays (`D[root]` and `hook_edge[root]`),
//!    which is why the paper implements no naive CC: torn two-array writes
//!    are unsound (§7.3). The winner then stamps both roots it joined with
//!    `r1`: a star that hooked or was hooked onto changed.
//! 2. **Unconditional hooking** (round `r1`, reads `D`, writes `S`): the
//!    *stagnant* stars — those no conditional hook changed — hook onto any
//!    differing neighbor. `u` is in a stagnant star iff `stamp[D[u]] !=
//!    r1`: a member of a changed star still points at its stamped root,
//!    and a hooked root points at the stamped root it joined. Safe: two
//!    adjacent stars cannot both be stagnant, since the larger root would
//!    have hooked conditionally, so targets never hook in this phase and
//!    no cycle forms.
//! 3. **Compress** (nowait): over the merged parent `P(w) = S[w]` if `D[w]
//!    == w`, else `D[w]`, each `v` walks `x = P(v)` until `P(x) == x` and
//!    stores that root into both `D[v]` and `S[v]`. Phase 0 moved only `D`,
//!    and phase 1 only roots of `D` in `S`, so `P` holds every hook of the
//!    iteration. Gatekeeper cells are re-armed in the same pass.
//!
//! ## Two rules, one kernel
//!
//! [`connected_components`] runs all three passes. [`sv_components`] runs
//! Shiloach–Vishkin's rule on the same kernel: phase 1 and its barrier are
//! skipped, and everything else is shared. Liu and Tarjan's
//! connect/shortcut family holds both; they differ only in whether stagnant
//! stars hook. Without phase 1, `S` keeps the iteration's starting forest,
//! so the merged parent is `D` and the compress is unchanged; the stamps
//! phase 0 writes are never read.
//!
//! A root hooks onto one of its star's smaller neighboring parent values,
//! and which one wins is arbitrary. Hooks only ever point at smaller roots,
//! so a component's minimum is never hooked and the fixed point labels
//! every vertex with it. Conditional-only hooking has no O(log n)
//! iteration bound, which AS's unconditional phase supplies, so each rule
//! has its own iteration cap: `4·bits + 16` for AS and `(bits + 2)² + 16`
//! for SV, where `bits` is the bit length of `n`. The SV cap is not a
//! bound either: on a star centred on its largest id, whose centre lists
//! its leaves from the largest down, only the centre's star can hook, and
//! its root drops by one leaf per iteration. From about 100 vertices that
//! shape ends at the cap with `converged == false`, which [`verify_cc`]
//! rejects.
//!
//! ## The star invariant
//!
//! At the start of every iteration `D == S` and every vertex's parent is a
//! root, so every tree is a star. The identity forest satisfies it, and
//! every compress restores it; phase 0 checks it with `debug_assert!`.
//! Star detection therefore costs nothing: JaJa's reset, mark and
//! propagate passes, and the "outside a star" tests, are gone.
//!
//! **Why the compress walk ends at a root.** Each member writes only its
//! own vertices, while other members read them mid-walk. Every value that
//! can be read is an ancestor. A non-root `w` with `D[w] != w` reads
//! `D[w]` as its parent or, once its owner has stored, as its root. A root
//! that phase 1 hooked may still read `D[w] == w`, but then reads on to
//! `S[w]`, its hook target or its root. So a non-root never reads as `P(w)
//! == w`, each jump climbs strictly, and the walk stops only at a root,
//! after at most the tree's depth in jumps. The walk is capped at `n`
//! jumps anyway: a forest is never that deep, so the cap binds only on a
//! pointer cycle, which the single-winner argument above does not rule
//! out for [`CwMethod::Naive`]. A capped run then ends at the iteration
//! cap instead of spinning.
//!
//! ## Stamps and the fixed-point exit
//!
//! `stamp[v]` is the last hook round in which `v` was a root that phase 0
//! changed. Stamps are never reset: advancing the round invalidates every
//! old mark for free, which is CAS-LT's own idea applied to the kernel's
//! state.
//!
//! Phase 0 ends in a team sum of its hooks. When it is 0, no edge joins
//! two trees (every tree is a star, and an edge between two stars would
//! have hooked the larger root), so the iteration returns at once: the
//! last iteration skips phase 1 and the compress. An AS iteration costs
//! three rendezvous (its opening, phase 0's sum and phase 1's barrier), the
//! last one two; an SV iteration always costs two.
//!
//! ## The hooking pass walks vertices, one claim per hooked root
//!
//! Hooking loops over source vertices `u` and walks `u`'s CSR adjacency
//! in place. Every edge of `u` targets the same root `du`, and a `(cell,
//! round)` pair has a single winner, so once `u` has tried to claim `du` —
//! won or lost — no later edge of `u` can win this round: `u` stops at its
//! first qualifying edge. Before it walks at all, `u` reads `du`'s entry in
//! the array its phase writes and skips the walk when `du` is already
//! hooked there:
//!
//! - **Phase 0** skips when `D[du] != du`.
//! - **Phase 1** skips when `S[du] != du`, besides a vertex of a changed
//!   star (`stamp[du] == r1`).
//!
//! The test races only with `du`'s single winner. `D == S` at the start of
//! the iteration, every parent is then a root, and phase 1 claims only
//! roots of `D` that phase 0 left unstamped, which are roots of `S` too. So
//! `du` reads as hooked only once its own winner in this phase has stored,
//! and from then on every claim on `du` must lose. A stale read costs one
//! losing claim, never a hook. A root is still hooked exactly when one of
//! its star's members has a qualifying edge, as in the edge-parallel
//! formulation. At T = 1, every root's first claim stores before any
//! other vertex of its star reads it, so every claim left wins: a run
//! makes one claim per hooked root, n − components in all, and losing
//! claims come only from real races between members. This is CAS-LT's
//! read-before-RMW fast path applied at the loop level. Members take
//! contiguous vertex blocks holding equal numbers of edges (binary search
//! on the CSR offsets), so a skewed graph's heavy low ids do not all land
//! on one member.
//!
//! ## Reads-before-writes: alternating parent arrays
//!
//! PRAM semantics read all operands before any same-step write commits. A
//! threaded hooking pass has no such guarantee: a hooked root's new pointer
//! could be read mid-pass as if it were a root, directing a *second* hook
//! at a non-root cell and splitting a component. Each hooking phase
//! therefore reads one parent array and writes the other, and the compress
//! makes them equal again, so no copy pass is needed. The protocol rests on
//! these invariants; the first two hold by construction and the next three
//! are checked with `debug_assert!`:
//!
//! - Phase 0 never stores to `S`, and phase 1 never stores to `D`.
//! - A root's cell in the array a phase writes changes in that phase only
//!   through its one winner, so the skip tests above never drop a hook.
//! - Every iteration starts from stars: `S[S[u]] == S[u]`.
//! - Stamps only rise.
//! - Every winner's root is a root of the array its phase reads.
//! - A gatekeeper cell touched in phase 0 belongs to a root that phase 0
//!   hooked (every attempt on a cell elects a winner), which phase 1 never
//!   claims: phase 1 claims only roots of `D`. A hooked root never becomes
//!   a root again, so each cell is claimed in one phase of the whole run,
//!   and the one re-arm per compress is the gatekeeper method's own cost
//!   (the paper's reset pass), not a condition of correctness.
//!
//! The alternating arrays stand in for the lock-step reads-before-writes
//! that OpenMP's fork-join also only approximates (DESIGN.md §1: a
//! barrier still separates a CW from any dependent read).

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};

use pram_core::{Round, SliceArbiter};
use pram_exec::ThreadPool;
use pram_graph::CsrGraph;

use crate::method::{dispatch_method, CwMethod};

/// Sentinel for "this root was never hooked".
pub const NO_HOOK: usize = usize::MAX;

/// Output of [`connected_components`] and [`sv_components`].
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

/// Simplified Shiloach–Vishkin connected components under the given
/// concurrent-write method: the Awerbuch–Shiloach kernel without its
/// unconditional hooking phase (module docs). The result is checked by
/// [`verify_cc`] like AS's, and [`CwMethod::Naive`] carries the same caveat.
pub fn sv_components(g: &CsrGraph, method: CwMethod, pool: &ThreadPool) -> CcResult {
    dispatch_method!(
        method,
        g.num_vertices(),
        |arb| hook_and_compress::<_, false>(g, &arb, pool)
    )
}

/// The Awerbuch–Shiloach kernel against an explicit arbiter (one cell per
/// vertex, freshly armed).
pub fn cc_with_arbiter<A: SliceArbiter>(g: &CsrGraph, arb: &A, pool: &ThreadPool) -> CcResult {
    hook_and_compress::<A, true>(g, arb, pool)
}

/// The one kernel behind both rules: `UNCONDITIONAL` runs phase 1 (AS) or
/// skips it (SV).
fn hook_and_compress<A: SliceArbiter, const UNCONDITIONAL: bool>(
    g: &CsrGraph,
    arb: &A,
    pool: &ThreadPool,
) -> CcResult {
    let n = g.num_vertices();
    assert_eq!(arb.len(), n, "arbiter must span one cell per vertex");
    let (offsets, targets) = (g.offsets(), g.targets());
    let rearm = !arb.rearms_on_new_round();

    // The alternating parent arrays and the stamps (module docs).
    let d: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(v as u32)).collect();
    let s: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(v as u32)).collect();
    let stamp: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let hook_edge: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(NO_HOOK)).collect();

    // Awerbuch–Shiloach converges in O(log n) iterations, conditional-only
    // hooking has no such bound, and naive runs can cycle: cap each rule
    // generously and report.
    let bits = usize::BITS - n.max(2).leading_zeros();
    let max_iters = if UNCONDITIONAL {
        4 * bits + 16
    } else {
        (bits + 2) * (bits + 2) + 16
    };

    let iterations = AtomicU32::new(0);
    let converged = AtomicU8::new(0);

    // Every access is Relaxed: a pass's stores reach the next pass through
    // the rendezvous between them (the barrier's release and acquire), and
    // the races inside a pass are between values that are all correct.
    let at = |a: &[AtomicU32], v: usize| a[v].load(Ordering::Relaxed) as usize;
    let stamp_of = |v: usize| stamp[v].load(Ordering::Relaxed);
    let raise = |v: usize, t: u32| {
        debug_assert!(stamp_of(v) <= t, "stamps only rise");
        stamp[v].store(t, Ordering::Relaxed);
    };

    pool.run(|ctx| {
        let my_vertices = edge_balanced_block(offsets, ctx.num_threads(), ctx.thread_id());

        let c = ctx.converge_rounds(max_iters, [0, 0], |iter_round, _| {
            ctx.annotate_round("hook");
            let i = iter_round.get() - 1;
            // Two distinct CW rounds per iteration (one per hooking phase);
            // the second doubles as the "changed in phase 0" stamp.
            let (r0, r1) = (
                Round::from_iteration(2 * i),
                Round::from_iteration(2 * i + 1),
            );
            let t1 = r1.get();

            // Phase 0, conditional hooking: reads S, writes D. Every parent
            // is a root, so there is no star test (module docs).
            let mut hooks = 0;
            for u in my_vertices.clone() {
                let du = at(&s, u);
                debug_assert_eq!(at(&s, du), du, "every iteration starts from stars");
                // Once du's one winner has stored, a claim could only lose:
                // walk no edge. An empty range rather than a `continue`,
                // which made the walk about 10 % slower on R-MAT graphs,
                // where this skip rarely fires.
                let start = offsets[u];
                let end = if at(&d, du) != du {
                    start
                } else {
                    offsets[u + 1]
                };
                let edges = start..end;
                for (e, &v) in edges.clone().zip(&targets[edges]) {
                    let dv = at(&s, v as usize);
                    if dv < du {
                        if arb.try_claim(du, r0) {
                            // The guarded two-array arbitrary write.
                            d[du].store(dv as u32, Ordering::Relaxed);
                            hook_edge[du].store(e, Ordering::Relaxed);
                            // Both stars changed, so neither is stagnant.
                            raise(du, t1);
                            raise(dv, t1);
                            hooks += 1;
                        }
                        break;
                    }
                }
            }
            let [hooked, _] = ctx.team_sum([hooks, 0]);
            if hooked == 0 {
                // Fixed point: every tree is a star and no edge joins two.
                return [0, 0];
            }

            // Phase 1, unconditional hooking of stagnant stars: reads D,
            // writes S. The SV rule skips it and its barrier.
            if UNCONDITIONAL {
                for u in my_vertices.clone() {
                    let du = at(&d, u);
                    if stamp_of(du) == t1 || at(&s, du) != du {
                        // A changed star, or du's one winner has stored.
                        continue;
                    }
                    let edges = offsets[u]..offsets[u + 1];
                    for (e, &v) in edges.clone().zip(&targets[edges]) {
                        let dv = at(&d, v as usize);
                        if dv != du {
                            if arb.try_claim(du, r1) {
                                // A root of D was not hooked in phase 0, so its
                                // gatekeeper cell is still armed.
                                debug_assert_eq!(at(&d, du), du, "phase 1 hooks a root of D");
                                s[du].store(dv as u32, Ordering::Relaxed);
                                hook_edge[du].store(e, Ordering::Relaxed);
                            }
                            break;
                        }
                    }
                }
                ctx.barrier();
            }

            // Compress over the merged parent (exclusive write per vertex):
            // a phase-1 hook lands only on a root of D. Every value a walk
            // can read is an ancestor, so it stops only at a root; the cap
            // binds only on a pointer cycle (module docs). Both stores are
            // unconditional: skipping unchanged cells mispredicts on about
            // half the vertices. No ending barrier: the round's closing
            // rendezvous is the sync point.
            let parent = |w: usize| {
                let (dw, sw) = (at(&d, w), at(&s, w));
                if dw == w {
                    sw
                } else {
                    dw
                }
            };
            ctx.for_each_nowait(0..n, |v| {
                if rearm {
                    arb.reset_range(v..v + 1);
                }
                let mut x = parent(v);
                for _ in 1..n {
                    let px = parent(x);
                    if px == x {
                        break;
                    }
                    x = px;
                }
                d[v].store(x as u32, Ordering::Relaxed);
                s[v].store(x as u32, Ordering::Relaxed);
            });
            // Nonzero on some member: phase 0 hooked.
            [hooks, 0]
        });
        iterations.store(c.rounds, Ordering::Relaxed);
        converged.store(u8::from(c.converged), Ordering::Relaxed);
    });

    let d: Vec<u32> = d.into_iter().map(AtomicU32::into_inner).collect();
    // Every parent is a root once a compress has run (module docs).
    let labels = pram_graph::serial::canonical_labels_from(|v| d[v as usize], n);
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
    // Every merge of two trees hooks one root, and a hooked root is never
    // a root again, so exactly n − components roots record a hook: a lost
    // `hook_edge` store fails here even when the edge left behind is valid.
    let components = (0..n).filter(|&v| expect[v] as usize == v).count();
    let hooked = r.hook_edge.iter().filter(|&&e| e != NO_HOOK).count();
    if hooked != n - components {
        return Err(format!(
            "{hooked} roots record a hook edge, but {n} vertices in \
             {components} components take {} merges",
            n - components
        ));
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

    type Rule = fn(&CsrGraph, CwMethod, &ThreadPool) -> CcResult;

    /// Both rules' entry points, named for failure messages.
    const RULES: [(&str, Rule); 2] = [("AS", connected_components), ("SV", sv_components)];

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
            graph(12, &GraphGen::disjoint_cliques(4, 3)),
            graph(9, &GraphGen::grid(3, 3)),
            graph(16, &GraphGen::grid(4, 4)),
            graph(4, &GraphGen::complete(4)),
        ];
        for g in &cases {
            for (rule, cc) in RULES {
                for m in single_winner_methods() {
                    let r = cc(g, m, &pool);
                    verify_cc(g, &r).unwrap_or_else(|e| panic!("{rule} {m}: {e}"));
                }
            }
        }
    }

    #[test]
    fn random_multigraphs() {
        let pool = ThreadPool::new(4);
        for seed in 0..4 {
            let edges = GraphGen::new(seed).gnm(120, 200);
            let g = graph(120, &edges);
            for (rule, cc) in RULES {
                for m in [CwMethod::CasLt, CwMethod::Gatekeeper] {
                    let r = cc(&g, m, &pool);
                    verify_cc(&g, &r).unwrap_or_else(|e| panic!("seed {seed} {rule} {m}: {e}"));
                }
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
        for m in [CwMethod::CasLt, CwMethod::Gatekeeper, CwMethod::Lock] {
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

        // Randomly relabelled, a path hooks into deep chains that only the
        // compress walk flattens in one pass.
        let n = 4096;
        let g = graph(n, &GraphGen::new(9).relabel(n, &GraphGen::path(n)));
        for t in 1..=4 {
            let pool = ThreadPool::new(t);
            let r = connected_components(&g, CwMethod::CasLt, &pool);
            verify_cc(&g, &r).unwrap_or_else(|e| panic!("T = {t}: {e}"));
            assert!(
                r.iterations <= 24,
                "relabelled path of {n} took {} iterations at T = {t}",
                r.iterations
            );
        }
    }

    #[test]
    fn naive_runs_terminate() {
        // Naive hooks may tear or leave a pointer cycle; the capped
        // compress walk and the iteration cap still end the call. Only
        // termination is checked.
        let pool = ThreadPool::new(4);
        for seed in 0..8 {
            let g = graph(200, &GraphGen::new(seed).gnm(200, 300));
            for (_, cc) in RULES {
                let r = cc(&g, CwMethod::Naive, &pool);
                assert_eq!(r.labels.len(), 200);
            }
        }
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
            for (rule, cc) in RULES {
                for m in single_winner_methods() {
                    let before = pool.take_round_report().totals_cw;
                    let r = cc(&g, m, &pool);
                    verify_cc(&g, &r).unwrap_or_else(|e| panic!("{name} {rule} {m}: {e}"));
                    let claims = pool
                        .take_round_report()
                        .totals_cw
                        .delta_since(&before)
                        .resolutions();
                    let bound = 2 * n * u64::from(r.iterations);
                    assert!(
                        claims <= bound,
                        "{name} {rule} {m}: {claims} claim resolutions > 2·n·iterations = {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_claim_hooks_at_one_thread() {
        // At T = 1 a root's first claim wins and stores before any other
        // member of its star reads it, so both skips leave exactly one
        // claim per hooked root under either rule: n − components, one per
        // merge.
        let pool = ThreadPool::with_config(PoolConfig::new(1).telemetry(true));
        // Iteration 1 builds the stars {0, 3}, {1, 4} and {2, 5}; in
        // iteration 2, phase 0 hooks 2 onto 1, so {0, 3} is stagnant and
        // both its members have an edge to 5 for phase 1.
        let stagnant = [(3, 0), (4, 1), (5, 2), (0, 5), (3, 5), (2, 4)];
        for (name, g) in [
            (
                "gnm(2000, 4000)",
                graph(2000, &GraphGen::new(2).gnm(2000, 4000)),
            ),
            (
                "relabelled path(1000)",
                graph(1000, &GraphGen::new(4).relabel(1000, &GraphGen::path(1000))),
            ),
            (
                "disjoint_cliques(8, 16)",
                graph(128, &GraphGen::disjoint_cliques(8, 16)),
            ),
            ("star(500)", graph(500, &GraphGen::star(500))),
            ("stagnant two-member star", graph(6, &stagnant)),
        ] {
            let n = g.num_vertices();
            let edges: Vec<_> = g.directed_edges().collect();
            let merges = (n - pram_graph::serial::num_components(n, &edges)) as u64;
            for (rule, cc) in RULES {
                for m in single_winner_methods() {
                    let before = pool.take_round_report().totals_cw;
                    let r = cc(&g, m, &pool);
                    verify_cc(&g, &r).unwrap_or_else(|e| panic!("{name} {rule} {m}: {e}"));
                    let claims = pool
                        .take_round_report()
                        .totals_cw
                        .delta_since(&before)
                        .resolutions();
                    assert_eq!(
                        claims, merges,
                        "{name} {rule} {m}: claim resolutions vs n − components"
                    );
                }
            }
        }
    }

    #[test]
    fn gatekeeper_rearms_every_cell_once_per_iteration() {
        // The gatekeeper method pays one reset pass per iteration, in the
        // compress, which the exit iteration skips. Each cell is claimed in
        // one phase of one iteration at most (its root is hooked for good),
        // so a result check cannot see a dropped re-arm; the counter can.
        let pool = ThreadPool::with_config(PoolConfig::new(3).telemetry(true));
        let g = graph(300, &GraphGen::new(5).gnm(300, 600));
        for (rule, cc) in RULES {
            let before = pool.take_round_report().totals_cw;
            let r = cc(&g, CwMethod::Gatekeeper, &pool);
            verify_cc(&g, &r).unwrap_or_else(|e| panic!("{rule}: {e}"));
            let resets = pool
                .take_round_report()
                .totals_cw
                .delta_since(&before)
                .rearm_resets;
            assert!(r.iterations >= 2, "{rule}");
            assert_eq!(resets, 300 * u64::from(r.iterations - 1), "{rule}");
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

    #[test]
    fn labels_are_component_minima() {
        let pool = ThreadPool::new(2);
        // Components {1, 3, 5}, {0, 2} and {4}; labels are the minima.
        let g = graph(6, &[(1, 3), (3, 5), (0, 2)]);
        for (rule, cc) in RULES {
            let r = cc(&g, CwMethod::CasLt, &pool);
            assert_eq!(r.labels, vec![0, 1, 0, 1, 4, 1], "{rule}");
        }
    }

    #[test]
    fn converges_quickly_on_path() {
        let pool = ThreadPool::new(2);
        let g = graph(512, &GraphGen::path(512));
        let r = sv_components(&g, CwMethod::CasLt, &pool);
        verify_cc(&g, &r).unwrap();
        assert!(
            r.iterations <= 30,
            "path of 512 took {} iterations",
            r.iterations
        );
    }

    #[test]
    fn sv_converges_on_star_centred_on_largest_id() {
        // Conditional-only hooking's slow shape: a leaf's one neighbour, the
        // centre, never holds a smaller parent value than the leaf's own, so
        // only the centre's star hooks. With the centre's edges listed from
        // the largest leaf down, its first qualifying edge lowers its root
        // by one leaf per iteration: 64 iterations here, against AS's 2 and
        // SV's cap of (7 + 2)² + 16 = 97.
        let n = 64;
        let centre = n as u32 - 1;
        let edges: Vec<(u32, u32)> = (0..centre).rev().map(|v| (centre, v)).collect();
        let g = graph(n, &edges);
        for t in 1..=3 {
            let pool = ThreadPool::new(t);
            let r = sv_components(&g, CwMethod::CasLt, &pool);
            verify_cc(&g, &r).unwrap_or_else(|e| panic!("T = {t}: {e}"));
        }
    }
}
