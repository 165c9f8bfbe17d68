//! Awerbuch–Shiloach connected components (evaluated in the paper's
//! Figures 10–12) — the *arbitrary* concurrent-write benchmark.
//!
//! The forest lives in two parent arrays, `D` and `S`, equal at the start
//! of every iteration. Iteration `i` owns two hook rounds, `r0 =
//! Round::from_iteration(2i)` and `r1 = Round::from_iteration(2i + 1)`,
//! and makes one star-marking pass, two hooking passes and one shortcut:
//!
//! 1. **Mark** (the only star-detection pass): every `v` with `D[v] !=
//!    D[D[v]]` stamps `v` and `D[D[v]]` with `r0`, a common concurrent
//!    write. Gatekeeper cells are re-armed in the same pass.
//! 2. **Conditional hooking** (round `r0`, reads `S`, writes `D`): `u` is
//!    in a star iff `stamp[u] != r0` and `stamp[S[u]] != r0`. For a star
//!    vertex `u` with an edge `(u, v)` and `S[v] < S[u]`, hook `u`'s root
//!    onto `S[v]`. Many edges target the same root with *different* values
//!    — a true arbitrary concurrent write. The winner updates **two** arrays
//!    (`D[root]` and `hook_edge[root]`), which is why the paper implements
//!    no naive CC: torn two-array writes are unsound (§7.3). The winner
//!    then raises the stamps of both roots it joined from below `r0` to
//!    `r1`: a star that hooked or was hooked onto changed.
//! 3. **Unconditional hooking** (round `r1`, reads `D`, writes `S`): the
//!    *stagnant* stars — those no conditional hook changed, `stamp < r0` on
//!    `u` and on `D[u]` — hook onto any differing neighbor. Safe: two
//!    adjacent stars cannot both be stagnant, since the larger root would
//!    have hooked conditionally, so targets never hook in this phase and
//!    no cycle forms.
//! 4. **Shortcut** (nowait): over the merged parent `P(w) = S[w]` if
//!    `D[w] == w`, else `D[w]`, each `v` stores `P(P(v))` into both `D[v]`
//!    and `S[v]`. Phase 0 moved only `D`, and phase 1 only roots of `D`
//!    in `S`, so `P` holds every hook of the iteration. Its reads race
//!    with other members' stores, but any mix of old and new values of
//!    `D[w]` and `S[w]` yields an ancestor of `w`, so every store is one.
//!
//! ## Round stamps: no reset pass
//!
//! `stamp[v]` holds the last hook round in which `v` was found outside a
//! star (0 = never), so "in a star for `r0`" needs no cleared flag array:
//! advancing the round invalidates every old mark for free, which is
//! CAS-LT's own idea applied to the kernel's state. Phase 0 tests `!= r0`
//! and so cannot be fooled by a concurrent raise to `r1`; phase 1 tests
//! `< r0` and so also sees the raises. Testing `u` and its parent is
//! JaJa's propagate step folded into the hooking loop: a vertex at depth
//! ≥ 2 is stamped itself, and a depth-1 vertex of a deeper tree has that
//! tree's stamped root as its parent. A star member's parent is its root,
//! and a hooked root keeps its members pointing at it until the shortcut,
//! so phase 1 sees every raise through `D[u]`. This folds JaJa's three
//! star passes (reset, mark, propagate) per phase into one mark pass per
//! iteration.
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
//! ## Reads-before-writes: alternating parent arrays
//!
//! PRAM semantics read all operands before any same-step write commits. A
//! threaded hooking pass has no such guarantee: a hooked root's new pointer
//! could be read mid-pass as if it were a root, directing a *second* hook
//! at a non-root cell and splitting a component. Each hooking phase
//! therefore reads one parent array and writes the other, and the
//! shortcut makes them equal again, so no copy pass is needed. The
//! protocol rests on these invariants; the first holds by construction
//! and the next two are checked with `debug_assert!`:
//!
//! - Phase 0 never stores to `S`, and phase 1 never stores to `D`.
//! - Stamps only rise.
//! - Every winner's root is a root of the array its phase reads.
//! - A gatekeeper cell touched in phase 0 belongs to a root that phase 0
//!   hooked (every attempt on a cell elects a winner), which phase 1 never
//!   claims: phase 1 claims only roots of `D`. A hooked root never becomes
//!   a root again, so each cell is claimed in one phase of the whole run,
//!   and the one re-arm per iteration is the gatekeeper method's own cost
//!   (the paper's reset pass), not a condition of correctness.
//!
//! ## Fixed-point exit
//!
//! Phase 0 ends in a team sum of its hooks and of the vertices found
//! outside a star. When both are 0, every tree is a star and no edge joins
//! two of them (an edge between stars would have hooked the larger root),
//! so the iteration returns at once: the last iteration skips phase 1 and
//! the shortcut. An iteration costs four rendezvous (its opening, the
//! mark pass, phase 0's sum and phase 1's barrier), the last one three.
//! The alternating arrays stand in for the lock-step reads-before-writes
//! that OpenMP's fork-join also only approximates (DESIGN.md §1: a
//! barrier still separates a CW from any dependent read).

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

    // The alternating parent arrays and the round stamps (module docs).
    let d: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(v as u32)).collect();
    let s: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(v as u32)).collect();
    let stamp: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let hook_edge: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(NO_HOOK)).collect();

    // Awerbuch–Shiloach converges in O(log n) iterations; naive runs can
    // cycle, so cap generously and report.
    let max_iters = 4 * (usize::BITS - n.max(2).leading_zeros()) + 16;

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
        let sched = Schedule::default();
        let my_vertices = edge_balanced_block(offsets, ctx.num_threads(), ctx.thread_id());

        let c = ctx.converge_rounds(max_iters, [0, 0], |iter_round, _| {
            ctx.annotate_round("hook");
            let i = iter_round.get() - 1;
            // Two distinct CW rounds per iteration (one per hooking phase),
            // whose values double as star stamps.
            let (r0, r1) = (
                Round::from_iteration(2 * i),
                Round::from_iteration(2 * i + 1),
            );
            let (t0, t1) = (r0.get(), r1.get());

            // Mark: the iteration's only star-detection pass. Common CW of
            // `t0`, so naive stores are sound here.
            ctx.for_each(0..n, sched, |v| {
                if rearm {
                    arb.reset_range(v..v + 1);
                }
                let dv = at(&d, v);
                let ddv = at(&d, dv);
                if dv != ddv {
                    raise(v, t0);
                    raise(ddv, t0);
                }
            });

            // Phase 0, conditional hooking: reads S, writes D. One claim
            // attempt per star vertex (module docs).
            let (mut hooks, mut outside) = (0, 0);
            for u in my_vertices.clone() {
                let du = at(&s, u);
                if stamp_of(u) == t0 || stamp_of(du) == t0 {
                    outside += 1;
                    continue;
                }
                let edges = offsets[u]..offsets[u + 1];
                for (e, &v) in edges.clone().zip(&targets[edges]) {
                    let dv = at(&s, v as usize);
                    if dv < du {
                        if arb.try_claim(du, r0) {
                            debug_assert_eq!(at(&s, du), du, "phase 0 hooks a root of S");
                            // The guarded two-array arbitrary write.
                            d[du].store(dv as u32, Ordering::Relaxed);
                            hook_edge[du].store(e, Ordering::Relaxed);
                            // Both trees changed, so neither is stagnant.
                            for root in [du, dv] {
                                if stamp_of(root) < t0 {
                                    raise(root, t1);
                                }
                            }
                            hooks += 1;
                        }
                        break;
                    }
                }
            }
            let [hooked, outside_total] = ctx.team_sum([hooks, outside]);
            if hooked == 0 && outside_total == 0 {
                // Fixed point: every tree is a star and no edge joins two.
                return [0, 0];
            }

            // Phase 1, unconditional hooking of stagnant stars: reads D,
            // writes S.
            for u in my_vertices.clone() {
                let du = at(&d, u);
                if stamp_of(u) >= t0 || stamp_of(du) >= t0 {
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

            // Shortcut over the merged parent (exclusive write per vertex):
            // a phase-1 hook lands only on a root of D. Both loads and both
            // stores are unconditional: skipping unchanged cells mispredicts
            // on about half the vertices and made the pass three times
            // slower. No ending barrier: the round's closing rendezvous is
            // the sync point.
            let parent = |w: usize| {
                let (dw, sw) = (at(&d, w), at(&s, w));
                if dw == w {
                    sw
                } else {
                    dw
                }
            };
            ctx.for_each_nowait(0..n, |v| {
                let grand = parent(parent(v)) as u32;
                d[v].store(grand, Ordering::Relaxed);
                s[v].store(grand, Ordering::Relaxed);
            });
            // Nonzero on some member: phase 0's totals were not both 0.
            [hooks + outside, 0]
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
    fn gatekeeper_rearms_every_cell_once_per_iteration() {
        // The gatekeeper method pays one reset pass per iteration, in the
        // mark pass. Each cell is claimed in one phase of one iteration at
        // most (its root is hooked for good), so a result check cannot see
        // a dropped re-arm; the counter can.
        let pool = ThreadPool::with_config(PoolConfig::new(3).telemetry(true));
        let g = graph(300, &GraphGen::new(5).gnm(300, 600));
        let before = pool.take_round_report().totals_cw;
        let r = connected_components(&g, CwMethod::Gatekeeper, &pool);
        verify_cc(&g, &r).unwrap();
        let resets = pool
            .take_round_report()
            .totals_cw
            .delta_since(&before)
            .rearm_resets;
        assert!(r.iterations >= 2);
        assert_eq!(resets, 300 * u64::from(r.iterations));
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
