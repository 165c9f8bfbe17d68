//! Awerbuch–Shiloach connected components by star hooking under arbitrary
//! concurrent writes, the paper's *arbitrary* concurrent-write benchmark
//! (its Figures 10–12).
//!
//! The forest lives in two parent arrays, `D` and `S`. Iteration `i` owns
//! two hook rounds, `r0 = Round::from_iteration(2i)` and `r1 =
//! Round::from_iteration(2i + 1)`, and makes two hooking passes and one
//! compress pass:
//!
//! 1. **Conditional hooking** (round `r0`, reads `S`, writes `D`): every
//!    vertex's parent `S[u]` is a root (the star invariant below), so no
//!    star test is needed. For a vertex `u` with an edge `(u, v)` whose
//!    root `S[v]` ranks below `S[u]` (the giant root `g` below every id,
//!    the rest by id; see below), hook `u`'s root onto `S[v]`. Many edges
//!    target the same root with *different* values — a true arbitrary
//!    concurrent write. The winner updates **two** arrays (`D[root]` and
//!    `hook_edge[root]`), which is why the paper implements no naive CC:
//!    torn two-array writes are unsound (§7.3). The winner then stamps
//!    both roots it joined with `r1`: a star that hooked or was hooked
//!    onto changed.
//! 2. **Unconditional hooking** (round `r1`, reads `D`, writes `S`): the
//!    *stagnant* stars — those no conditional hook changed — hook onto any
//!    differing neighbor. `u` is in a stagnant star iff `stamp[D[u]] !=
//!    r1`: a member of a changed star still points at its stamped root,
//!    and a hooked root points at the stamped root it joined. Safe: two
//!    adjacent stars cannot both be stagnant, since the higher-ranked root
//!    would have hooked conditionally, so targets never hook in this phase
//!    and no cycle forms. `g`'s star sits this phase out.
//! 3. **Compress** (nowait): over the merged parent `P(w) = S[w]` if `D[w]
//!    == w`, else `D[w]`, each `v` walks `x = P(v)` until `P(x) == x` and
//!    stores that root into both `D[v]` and `S[v]`. Phase 0 moved only `D`,
//!    and phase 1 only roots of `D` in `S`, so `P` holds every hook of the
//!    iteration. Before it, each member re-arms the gatekeeper cells of the
//!    same block of vertices.
//!
//! Which of a root's candidate targets wins is arbitrary. Conditional
//! hooking alone has no O(log n) iteration bound: on a star centred on its
//! largest id, whose centre lists its leaves from the largest down, its
//! root drops by one leaf per iteration. The unconditional phase supplies
//! the bound (below), and the iteration cap is `4·bits + 16`, where `bits`
//! is the bit length of `n`. Both phases may hook a root onto a larger
//! one, so the labels are normalised to each component's smallest id.
//!
//! ## The giant root ranks first
//!
//! Once one star holds most vertices, its members have nothing to hook
//! onto: its root is usually the smallest id of its component, so under
//! the plain id order they walk every edge to prove that none qualifies,
//! and in the exit iteration so does everyone. The kernel therefore ranks
//! one root `g` below every id in each iteration. At the top of the
//! iteration every member reads `S` at the same fixed positions, at most
//! 1,024 of them, and takes the most frequent root, the smallest on ties
//! (`giant_root`). The opening rendezvous has settled `S`, so every
//! member reads the same values and picks the same `g` with no extra
//! rendezvous; phase 0's team sum carries `g` in its spare lane, and a
//! `debug_assert!` checks that the members agree. This is Afforest's
//! largest-component skip (Sutton, Ben-Nun and Barak, IPDPS 2018) recast
//! as a rank order, which Liu and Tarjan's connect/shortcut framework
//! allows as long as the forest stays acyclic:
//!
//! - **No cycle.** Phase 0 qualifies an edge when `S[v] == g || S[v] <
//!   S[u]`, and `g`'s members walk no edge, since nothing ranks below
//!   `g`. Every hook goes from a root to a strictly lower-ranked root
//!   under one total order, fixed for the iteration, so no cycle forms.
//! - **`hooks == 0` still proves the fixed point.** An edge between `g`'s
//!   star and another star qualifies from the other side, where `S[v] ==
//!   g`, so that star hooks.
//! - **The order may change between iterations.** Each iteration starts
//!   from stars, and the argument above asks only that one iteration's
//!   hooks follow one order.
//! - **Phase 1 and the iteration bound.** `g`'s star skips phase 1. Every
//!   other star of a component with `k ≥ 2` stars still merges in the
//!   iteration: it hooks or is hooked onto in phase 0, or it is stagnant,
//!   and then phase 1 hooks it onto a neighbour, since stagnant stars are
//!   never adjacent. Only `g`'s star can stay alone, so the component ends
//!   the iteration with at most `1 + (k − 1)/2`, that is `⌈k/2⌉`, stars.
//!   Single-winner runs thus take at most `⌈log₂ n⌉ + 1` iterations, the
//!   last one finding no hook, the same bound as without `g`, and tests
//!   pin it. The cap `4·bits + 16` stays far above that; it binds only on
//!   the pointer cycles of [`CwMethod::Naive`]. What the skip saves is a
//!   finished giant's phase-1 walk, which visits every one of its edges
//!   looking for a neighbour outside it.
//! - **The compress does not skip `g`'s members**, although their walk is
//!   one jump. Phase 1 can hook a stagnant root `r` straight onto `g` in
//!   `S` while `D[r] == r` still says that `r` is a root, so a skip that
//!   tests only `S[v] == g` would leave `D[r] == r`: the next iteration
//!   would start with `D != S`, and the component would split.
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
//! have hooked the higher-ranked root), so the iteration returns at once:
//! the last iteration skips phase 1 and the compress. An iteration costs
//! three rendezvous (its opening, phase 0's sum and phase 1's barrier),
//! the last one two.
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
//! - **Phase 0** skips when `D[du] != du`, besides a member of `g`'s star
//!   (`du == g`), which can never hook.
//! - **Phase 1** skips when `S[du] != du`, besides a vertex of a changed
//!   star (`stamp[du] == r1`) or of `g`'s star.
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

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use pram_core::{Round, SliceArbiter};
use pram_exec::ThreadPool;
use pram_graph::csr::edge_balanced_block;
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

/// The Awerbuch–Shiloach kernel against an explicit arbiter (one cell per
/// vertex, freshly armed).
pub fn cc_with_arbiter<A: SliceArbiter>(g: &CsrGraph, arb: &A, pool: &ThreadPool) -> CcResult {
    let n = g.num_vertices();
    assert_eq!(arb.len(), n, "arbiter must span one cell per vertex");
    let (offsets, targets) = (g.offsets(), g.targets());

    // The alternating parent arrays and the stamps (module docs).
    let d: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(v as u32)).collect();
    let s: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(v as u32)).collect();
    let stamp: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let hook_edge: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(NO_HOOK)).collect();

    // Awerbuch–Shiloach converges in O(log n) iterations, but naive runs
    // can cycle: cap generously and report.
    let bits = usize::BITS - n.max(2).leading_zeros();
    let max_iters = 4 * bits + 16;

    // Every access is Relaxed: a pass's stores reach the next pass through
    // the rendezvous between them (the barrier's release and acquire), and
    // the races inside a pass are between values that are all correct.
    let at = |a: &[AtomicU32], v: usize| a[v].load(Ordering::Relaxed) as usize;
    let stamp_of = |v: usize| stamp[v].load(Ordering::Relaxed);
    let raise = |v: usize, t: u32| {
        debug_assert!(stamp_of(v) <= t, "stamps only rise");
        stamp[v].store(t, Ordering::Relaxed);
    };

    let c = pool.run(|ctx| {
        let my_vertices = edge_balanced_block(offsets, ctx.num_threads(), ctx.thread_id());

        ctx.converge_rounds(max_iters, [0, 0], |iter_round, _| {
            ctx.annotate_round("hook");
            let i = iter_round.get() - 1;
            // Two distinct CW rounds per iteration (one per hooking phase);
            // the second doubles as the "changed in phase 0" stamp.
            let (r0, r1) = (
                Round::from_iteration(2 * i),
                Round::from_iteration(2 * i + 1),
            );
            let t1 = r1.get();
            // The root that ranks below every id this iteration. S is
            // settled since the opening rendezvous, so every member reads
            // the same samples and picks the same g (module docs).
            let g = giant_root(n, |v| at(&s, v));

            // Phase 0, conditional hooking: reads S, writes D. Every parent
            // is a root, so there is no star test (module docs).
            let mut hooks = 0;
            for u in my_vertices.clone() {
                let du = at(&s, u);
                debug_assert_eq!(at(&s, du), du, "every iteration starts from stars");
                // Nothing ranks below g, and once du's one winner has
                // stored, a claim could only lose: either way walk no edge.
                // An empty range rather than a `continue`, which made the
                // walk about 10 % slower on R-MAT graphs.
                let start = offsets[u];
                let end = if du == g || at(&d, du) != du {
                    start
                } else {
                    offsets[u + 1]
                };
                let edges = start..end;
                for (e, &v) in edges.clone().zip(&targets[edges]) {
                    let dv = at(&s, v as usize);
                    if dv == g || dv < du {
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
            // Lane 1 carries g for free: members that read different
            // samples would disagree on the order and could form a cycle.
            let [hooked, g_sum] = ctx.team_sum([hooks, g as u64]);
            debug_assert_eq!(
                g_sum,
                g as u64 * ctx.num_threads() as u64,
                "every member ranks the same root first"
            );
            if hooked == 0 {
                // Fixed point: every tree is a star and no edge joins two.
                return [0, 0];
            }

            // Phase 1, unconditional hooking of stagnant stars: reads D,
            // writes S. g's star sits it out: the iteration bound holds
            // without it, and a finished giant would walk all its edges.
            for u in my_vertices.clone() {
                let du = at(&d, u);
                if du == g || stamp_of(du) == t1 || at(&s, du) != du {
                    // g's star, a changed star, or du's one winner has
                    // stored.
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
            // Phase 1's claims have ended: re-arm this member's block of
            // gatekeeper cells, the block the compress below walks.
            ctx.rearm(arb, false);

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
        })
    });

    let d: Vec<u32> = d.into_iter().map(AtomicU32::into_inner).collect();
    // Every parent is a root once a compress has run (module docs).
    let labels = pram_graph::serial::canonical_labels_from(|v| d[v as usize], n);
    CcResult {
        labels,
        hook_edge: hook_edge.into_iter().map(AtomicUsize::into_inner).collect(),
        iterations: c.rounds,
        converged: c.converged,
    }
}

/// Samples [`giant_root`] reads, at most: few enough for the stack.
const SAMPLES: usize = 1024;

/// The most frequent of `parent(v)` over at most [`SAMPLES`] fixed, evenly
/// spaced `v` in `0..n`, the smallest on ties; 0 when `n == 0`.
fn giant_root(n: usize, parent: impl Fn(usize) -> usize) -> usize {
    let k = n.min(SAMPLES);
    let mut buf = [0u32; SAMPLES];
    let sample = &mut buf[..k];
    for (j, x) in sample.iter_mut().enumerate() {
        *x = parent(j * n / k) as u32;
    }
    sample.sort_unstable();
    let (mut best, mut count) = (0, 0);
    for run in sample.chunk_by(|a, b| a == b) {
        if run.len() > count {
            (best, count) = (run[0], run.len());
        }
    }
    best as usize
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
            let r = connected_components(&g, CwMethod::Naive, &pool);
            assert_eq!(r.labels.len(), 200);
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
    fn every_claim_hooks_at_one_thread() {
        // At T = 1 a root's first claim wins and stores before any other
        // member of its star reads it, so both skips leave exactly one
        // claim per hooked root: n − components, one per merge.
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
            for m in single_winner_methods() {
                let before = pool.take_round_report().totals_cw;
                let r = connected_components(&g, m, &pool);
                verify_cc(&g, &r).unwrap_or_else(|e| panic!("{name} {m}: {e}"));
                let claims = pool
                    .take_round_report()
                    .totals_cw
                    .delta_since(&before)
                    .resolutions();
                assert_eq!(
                    claims, merges,
                    "{name} {m}: claim resolutions vs n − components"
                );
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
        let before = pool.take_round_report().totals_cw;
        let r = connected_components(&g, CwMethod::Gatekeeper, &pool);
        verify_cc(&g, &r).unwrap();
        let resets = pool
            .take_round_report()
            .totals_cw
            .delta_since(&before)
            .rearm_resets;
        assert!(r.iterations >= 2);
        assert_eq!(resets, 300 * u64::from(r.iterations - 1));
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
        let r = connected_components(&g, CwMethod::CasLt, &pool);
        assert_eq!(r.labels, vec![0, 1, 0, 1, 4, 1]);
    }

    #[test]
    fn converges_quickly_on_star_centred_on_largest_id() {
        // Conditional hooking's slow shape: a leaf's one neighbour, the
        // centre, never holds a smaller parent value than the leaf's own, so
        // only the centre's star hooks in phase 0. With the centre's edges
        // listed from the largest leaf down, its first qualifying edge would
        // lower its root by one leaf per iteration. The unconditional phase
        // hooks every other leaf onto the centre's new root in the first
        // iteration instead, except leaf 0: it is `g` in the identity
        // forest and sits phase 1 out. In the second iteration the centre's
        // root is `g`, so leaf 0 hooks onto it in phase 0, and the third
        // finds no hook.
        for n in [64, 100, 1 << 16] {
            let centre = n as u32 - 1;
            let edges: Vec<(u32, u32)> = (0..centre).rev().map(|v| (centre, v)).collect();
            let g = graph(n, &edges);
            for t in 1..=3 {
                let pool = ThreadPool::new(t);
                let r = connected_components(&g, CwMethod::CasLt, &pool);
                verify_cc(&g, &r).unwrap_or_else(|e| panic!("n = {n}, T = {t}: {e}"));
                assert!(
                    r.iterations <= 3,
                    "n = {n}, T = {t}: {} iterations",
                    r.iterations
                );
            }
        }
    }

    #[test]
    fn giant_root_takes_the_most_frequent_sample_smallest_on_ties() {
        let of = |parents: &[usize]| giant_root(parents.len(), |v| parents[v]);
        assert_eq!(of(&[4, 1, 4, 1, 4]), 4);
        // Ties go to the smallest root, wherever it sits.
        assert_eq!(of(&[5, 5, 3, 3, 2, 2]), 2);
        assert_eq!(of(&[7, 6, 6, 7]), 6);
        assert_eq!(of(&[0]), 0);
        assert_eq!(of(&[]), 0);
        // An identity S, as in the first iteration, picks 0: every sample
        // counts once and the first sample position is 0.
        for n in [1, 2, 1000, 1024, 1025, 1 << 20] {
            assert_eq!(giant_root(n, |v| v), 0, "identity S, n = {n}");
        }
    }

    #[test]
    fn giant_root_reads_every_vertex_below_the_sample_size() {
        use std::cell::RefCell;
        for n in [1, 2, 17, 1000, SAMPLES, SAMPLES + 1, 1 << 20] {
            let read = RefCell::new(Vec::new());
            giant_root(n, |v| {
                read.borrow_mut().push(v);
                v
            });
            let read = read.into_inner();
            assert_eq!(read.len(), n.min(SAMPLES), "n = {n}");
            assert!(read.windows(2).all(|w| w[0] < w[1]), "n = {n}: distinct");
            assert!(read.iter().all(|&v| v < n), "n = {n}: in range");
            if n <= SAMPLES {
                assert!(read.iter().copied().eq(0..n), "n = {n}: every vertex");
            }
        }
        // Above the sample size the mode is the sampled one: a root over
        // three quarters of the vertices wins against the rest.
        let n = 1 << 16;
        assert_eq!(giant_root(n, |v| if v < n / 4 { v } else { 9 }), 9);
    }

    #[test]
    fn single_winner_runs_halve_the_stars_every_iteration() {
        // Every star but g's merges in each iteration, so a component of
        // k stars keeps at most ⌈k/2⌉: ⌈log₂ n⌉ iterations leave one star
        // per component and one more finds no hook (module docs).
        let star_centred_on_largest: Vec<_> = (0..999u32).rev().map(|v| (999, v)).collect();
        let cases = [
            (
                "gnm(3000, 4000)",
                graph(3000, &GraphGen::new(6).gnm(3000, 4000)),
            ),
            (
                "rmat(10)",
                graph(1024, &GraphGen::new(7).rmat_standard(10, 4000)),
            ),
            (
                "relabelled path(4096)",
                graph(4096, &GraphGen::new(8).relabel(4096, &GraphGen::path(4096))),
            ),
            ("path(1000)", graph(1000, &GraphGen::path(1000))),
            ("star centred on 999", graph(1000, &star_centred_on_largest)),
            ("grid(40, 40)", graph(1600, &GraphGen::grid(40, 40))),
        ];
        for t in 1..=3 {
            let pool = ThreadPool::new(t);
            for (name, g) in &cases {
                let n = g.num_vertices();
                let bound = n.next_power_of_two().trailing_zeros() + 1;
                for m in single_winner_methods() {
                    let r = connected_components(g, m, &pool);
                    verify_cc(g, &r).unwrap_or_else(|e| panic!("{name} {m} T = {t}: {e}"));
                    assert!(
                        r.iterations <= bound,
                        "{name} {m} T = {t}: {} iterations > ⌈log₂ n⌉ + 1 = {bound}",
                        r.iterations
                    );
                }
            }
        }
    }
}
