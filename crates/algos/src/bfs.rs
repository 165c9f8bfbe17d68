//! Breadth-first search under pluggable concurrent-write methods and
//! pluggable *frontier strategies*.
//!
//! The paper's BFS (Figure 3, evaluated in Figures 7–9) is the
//! Rodinia-style **dense scan**: each level-`L` iteration scans all `n`
//! vertices, expands the frontier (`level[v] == L`), and tries to *claim*
//! every unvisited neighbor `u`. The claim guards a four-word write —
//! `parent[u]`, `sel_edge[u]`, `visited[u]`, `level[u]` — which is exactly
//! why the method matters:
//!
//! * under **naive** writes (Rodinia's original), several expanders write
//!   `u` concurrently; `level`/`visited` are *common* writes (all agree) so
//!   distances stay correct, but `parent[u]` and `sel_edge[u]` are
//!   *different* values from different writers and can commit as a mixture
//!   that names an edge `parent[u]` does not own (the paper's §4 torn-write
//!   hazard, demonstrated in this workspace's `torn_writes` test);
//! * under any single-winner method the four words are written by one
//!   thread and are mutually consistent.
//!
//! This module adds two frontier-centric strategies on the same claim
//! substrate, selected by [`BfsStrategy`]:
//!
//! * [`BfsStrategy::TopDown`] — the frontier is an explicit sparse queue
//!   ([`pram_exec::FrontierBuffer`]); workers append discoveries to
//!   per-worker [`pram_exec::LocalBuffer`]s and the per-level work is
//!   `O(frontier edges)`, not `O(n + frontier edges)`.
//! * [`BfsStrategy::DirectionOptimizing`] — Beamer's push/pull switch: run
//!   top-down while the frontier is small; when its out-edge count exceeds
//!   `m / α` switch to a **bottom-up pull** over a dense
//!   [`pram_core::AtomicBitmap`] frontier (each unvisited vertex scans its
//!   in-edges and stops at the first frontier neighbor), and drop back to
//!   top-down when the frontier shrinks below `n / β`.
//!
//! Push (top-down) and dense-scan rounds are concurrent writes: several
//! expanders can reach the same unvisited `u`, so the winner claim
//! `arb.try_claim(u, round)` is their single point of frontier insertion,
//! every concurrent-write method dispatches unchanged, and the four-word
//! write keeps its single-winner consistency guarantee. Pull rounds are
//! not: each worker owns whole 64-vertex words of the next-frontier
//! bitmap, and only the owner of `v`'s word ever writes `v`. That write is
//! *exclusive*, and by the paper's own argument an exclusive write needs
//! no arbitration — the owner commits the four words with plain stores
//! and publishes the word with one [`pram_core::AtomicBitmap::store_word`].
//! The bottom-up sweep records `sel_edge` through
//! [`pram_graph::ReverseCsr`]'s edge provenance, so the discovered edge is
//! still an index owned by the parent — the same invariant
//! [`verify_bfs_tree`] checks for every strategy.
//!
//! Every strategy records progress in a member-local `bool` and sets the
//! shared [`pram_exec::ChangedFlag`] at most once per member per round, so
//! discoveries never store to the flag's shared line.
//!
//! The per-level round ID is the level itself — the paper's "round could be
//! substituted by the loop iteration" remark — supplied here by
//! [`pram_exec::WorkerCtx::converge_rounds`].

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};

use pram_core::{AtomicBitmap, SliceArbiter};
use pram_exec::{
    FrontierBuffer, LocalBuffer, Schedule, ThreadPool, WorkerCtx, FRONTIER_GRAIN_EDGES,
};
use pram_graph::{CsrGraph, ReverseCsr};

use crate::method::{dispatch_method, CwMethod};

/// Sentinel level for unreachable vertices.
pub const UNREACHED: u32 = u32::MAX;
/// Sentinel parent for the source and unreachable vertices.
pub const NO_PARENT: u32 = u32::MAX;
/// Sentinel edge index for the source and unreachable vertices.
pub const NO_EDGE: usize = usize::MAX;

/// Direction-optimizing switch numerator (Beamer's α): switch push → pull
/// when the frontier's out-edge count exceeds `m / α`.
pub const DIRECTION_ALPHA: usize = 14;
/// Direction-optimizing switch denominator (Beamer's β): switch pull →
/// push when the frontier size drops below `n / β`.
pub const DIRECTION_BETA: usize = 24;

/// Next-frontier bitmap words a pull round hands out per shared-cursor
/// grab: 512 vertices, one cache line of the bitmap.
const PULL_CHUNK_WORDS: usize = 8;

/// How BFS represents and expands its frontier. Orthogonal to the
/// concurrent-write method: push and dense-scan discovery goes through
/// the same `try_claim` arbitration, and pull discovery needs none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BfsStrategy {
    /// The paper's Figure 3 kernel: scan all `n` vertices every level.
    DenseScan,
    /// Sparse frontier queue with per-worker buffers; work per level is
    /// proportional to the frontier's out-edges.
    TopDown,
    /// Beamer-style push/pull: top-down while the frontier is sparse,
    /// bottom-up over a dense bitmap when it is not
    /// ([`DIRECTION_ALPHA`] / [`DIRECTION_BETA`] thresholds).
    ///
    /// The bottom-up sweep scans *in*-edges, so on a directed graph the
    /// strategy is only equivalent to the others if the graph stores both
    /// directions (as every undirected [`CsrGraph`] here does).
    #[default]
    DirectionOptimizing,
}

impl BfsStrategy {
    /// All strategies, for tests and benches.
    pub const ALL: [BfsStrategy; 3] = [
        BfsStrategy::DenseScan,
        BfsStrategy::TopDown,
        BfsStrategy::DirectionOptimizing,
    ];
}

impl fmt::Display for BfsStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BfsStrategy::DenseScan => "dense-scan",
            BfsStrategy::TopDown => "top-down",
            BfsStrategy::DirectionOptimizing => "direction-optimizing",
        })
    }
}

/// Output of [`bfs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Hop count from the source ([`UNREACHED`] if unreachable).
    pub level: Vec<u32>,
    /// BFS-tree parent ([`NO_PARENT`] for source/unreachable).
    pub parent: Vec<u32>,
    /// Index into the CSR target array of the tree edge that discovered
    /// each vertex (the paper's `Sel_edge`; [`NO_EDGE`] for
    /// source/unreachable).
    pub sel_edge: Vec<usize>,
    /// Level iterations executed (eccentricity of the source + 1).
    pub rounds: u32,
}

/// Level-synchronous BFS from `source` under the given concurrent-write
/// method, using the paper-faithful [`BfsStrategy::DenseScan`].
///
/// ```
/// use pram_algos::{bfs, CwMethod};
/// use pram_exec::ThreadPool;
/// use pram_graph::{CsrGraph, GraphGen};
///
/// let g = CsrGraph::from_edges(5, &GraphGen::path(5), true);
/// let pool = ThreadPool::new(2);
/// let r = bfs(&g, 0, CwMethod::CasLt, &pool);
/// assert_eq!(r.level, vec![0, 1, 2, 3, 4]);
/// assert_eq!(r.parent[4], 3);
/// ```
pub fn bfs(g: &CsrGraph, source: u32, method: CwMethod, pool: &ThreadPool) -> BfsResult {
    bfs_with_strategy(g, source, method, BfsStrategy::DenseScan, pool)
}

/// BFS from `source` under the given concurrent-write method and frontier
/// strategy.
///
/// ```
/// use pram_algos::{bfs_with_strategy, BfsStrategy, CwMethod};
/// use pram_exec::ThreadPool;
/// use pram_graph::{CsrGraph, GraphGen};
///
/// let g = CsrGraph::from_edges(7, &GraphGen::star(7), true);
/// let pool = ThreadPool::new(2);
/// let r = bfs_with_strategy(&g, 0, CwMethod::CasLt, BfsStrategy::DirectionOptimizing, &pool);
/// assert!(r.level[1..].iter().all(|&l| l == 1));
/// ```
pub fn bfs_with_strategy(
    g: &CsrGraph,
    source: u32,
    method: CwMethod,
    strategy: BfsStrategy,
    pool: &ThreadPool,
) -> BfsResult {
    dispatch_method!(method, g.num_vertices(), |arb| bfs_core(
        g, None, source, &arb, strategy, pool
    ))
}

/// [`bfs_with_strategy`] with a caller-supplied in-edge view, so repeated
/// traversals (benchmarks, multi-source sweeps) don't rebuild the
/// `O(n + m)` [`ReverseCsr`] per call. `rev` must be `g.reverse()` (checked
/// by size only).
pub fn bfs_with_strategy_rev(
    g: &CsrGraph,
    rev: &ReverseCsr,
    source: u32,
    method: CwMethod,
    strategy: BfsStrategy,
    pool: &ThreadPool,
) -> BfsResult {
    dispatch_method!(method, g.num_vertices(), |arb| bfs_core(
        g,
        Some(rev),
        source,
        &arb,
        strategy,
        pool
    ))
}

/// Dense-scan BFS against an explicit arbiter (one cell per vertex,
/// freshly armed).
pub fn bfs_with_arbiter<A: SliceArbiter>(
    g: &CsrGraph,
    source: u32,
    arb: &A,
    pool: &ThreadPool,
) -> BfsResult {
    bfs_core(g, None, source, arb, BfsStrategy::DenseScan, pool)
}

fn bfs_core<A: SliceArbiter>(
    g: &CsrGraph,
    rev: Option<&ReverseCsr>,
    source: u32,
    arb: &A,
    strategy: BfsStrategy,
    pool: &ThreadPool,
) -> BfsResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    assert_eq!(arb.len(), n, "arbiter must span one cell per vertex");
    if let Some(rev) = rev {
        assert_eq!(rev.num_vertices(), n, "reverse view is for another graph");
    }
    match strategy {
        BfsStrategy::DenseScan => bfs_dense(g, source, arb, pool),
        BfsStrategy::TopDown => bfs_frontier(g, rev, source, arb, pool, false),
        BfsStrategy::DirectionOptimizing => bfs_frontier(g, rev, source, arb, pool, true),
    }
}

/// The four per-vertex output arrays, shared across strategies.
struct BfsState {
    level: Vec<AtomicU32>,
    visited: Vec<AtomicU8>,
    parent: Vec<AtomicU32>,
    sel_edge: Vec<AtomicUsize>,
}

impl BfsState {
    fn new(n: usize, source: u32) -> BfsState {
        let s = BfsState {
            level: (0..n).map(|_| AtomicU32::new(UNREACHED)).collect(),
            visited: (0..n).map(|_| AtomicU8::new(0)).collect(),
            parent: (0..n).map(|_| AtomicU32::new(NO_PARENT)).collect(),
            sel_edge: (0..n).map(|_| AtomicUsize::new(NO_EDGE)).collect(),
        };
        s.level[source as usize].store(0, Ordering::Relaxed);
        s.visited[source as usize].store(1, Ordering::Relaxed);
        s
    }

    fn into_result(self, rounds: u32) -> BfsResult {
        BfsResult {
            level: self.level.into_iter().map(AtomicU32::into_inner).collect(),
            parent: self.parent.into_iter().map(AtomicU32::into_inner).collect(),
            sel_edge: self
                .sel_edge
                .into_iter()
                .map(AtomicUsize::into_inner)
                .collect(),
            rounds,
        }
    }

    /// The guarded four-word write. Call only as the claim winner, or as
    /// the exclusive writer of `u` (a pull round's word owner).
    #[inline]
    fn commit(&self, u: usize, parent: u32, edge: usize, level: u32) {
        self.parent[u].store(parent, Ordering::Relaxed);
        self.sel_edge[u].store(edge, Ordering::Relaxed);
        self.visited[u].store(1, Ordering::Relaxed);
        self.level[u].store(level, Ordering::Relaxed);
    }
}

/// Gatekeeper methods need their cells re-zeroed before the next round:
/// a barrier after the claims, then a reset pass that the round's closing
/// rendezvous orders before the next claims. Round-rearming methods need
/// nothing. Call at the end of every round that claimed (a pull round
/// claims nothing).
fn rearm<A: SliceArbiter>(ctx: &WorkerCtx<'_>, arb: &A, n: usize) {
    if !arb.rearms_on_new_round() {
        ctx.barrier();
        ctx.for_each_nowait(0..n, |i| arb.reset_range(i..i + 1));
    }
}

fn bfs_dense<A: SliceArbiter>(g: &CsrGraph, source: u32, arb: &A, pool: &ThreadPool) -> BfsResult {
    let n = g.num_vertices();
    let st = BfsState::new(n, source);
    let offsets = g.offsets();
    let targets = g.targets();
    // Eccentricity < n, plus the final no-change round.
    let max_rounds = n as u32 + 1;

    let rounds = AtomicU32::new(0);
    pool.run(|ctx| {
        let c = ctx.converge_rounds(max_rounds, |round, flag| {
            ctx.annotate_round("expand");
            let l = round.get() - 1; // the level being expanded
            let mut changed = false;
            ctx.for_each_nowait(0..n, |v| {
                if st.level[v].load(Ordering::Relaxed) != l {
                    return;
                }
                #[allow(clippy::needless_range_loop)] // j is the edge id recorded in sel_edge
                for j in offsets[v]..offsets[v + 1] {
                    let u = targets[j] as usize;
                    if st.visited[u].load(Ordering::Relaxed) == 0 {
                        // The concurrent write: claim vertex u for this
                        // level, then perform the four-word update.
                        if arb.try_claim(u, round) {
                            st.commit(u, v as u32, j, l + 1);
                            changed = true;
                        }
                    }
                }
            });
            if changed {
                flag.set(); // the paper's `done = false`
            }
            rearm(ctx, arb, n);
        });
        // Every member observed the same convergence result.
        rounds.store(c.rounds, Ordering::Relaxed);
    });

    st.into_result(rounds.into_inner())
}

/// Frontier-centric BFS: top-down sparse queue, optionally switching to a
/// bottom-up bitmap pull (`allow_pull` = direction-optimizing).
fn bfs_frontier<A: SliceArbiter>(
    g: &CsrGraph,
    rev: Option<&ReverseCsr>,
    source: u32,
    arb: &A,
    pool: &ThreadPool,
    allow_pull: bool,
) -> BfsResult {
    let n = g.num_vertices();
    let m = g.num_directed_edges();
    let st = BfsState::new(n, source);
    let offsets = g.offsets();
    let targets = g.targets();
    // The in-edge view (with edge provenance for sel_edge) is only needed
    // if a pull round can happen; build it unless the caller already did.
    let rev_owned;
    let rev = if allow_pull && rev.is_none() {
        rev_owned = g.reverse();
        Some(&rev_owned)
    } else {
        rev
    };

    // Double-buffered frontier in both representations; which pair member
    // is "current" is tracked per worker and advances in lockstep because
    // every direction decision is derived from one team-wide sum.
    let queues = [
        FrontierBuffer::with_capacity(n),
        FrontierBuffer::with_capacity(n),
    ];
    let bitmaps = [AtomicBitmap::new(n.max(1)), AtomicBitmap::new(n.max(1))];
    queues[0].publish(&[source as u64]);

    let max_rounds = n as u32 + 1;
    let rounds = AtomicU32::new(0);

    pool.run(|ctx| {
        let mut qi = 0usize; // queues[qi] holds the current frontier...
        let mut bi = 0usize; // ...or bitmaps[bi] does, when cur_is_bits
        let mut cur_is_bits = false;

        let c = ctx.converge_rounds(max_rounds, |round, flag| {
            let l = round.get() - 1;
            let mut changed = false;

            // Member 0 empties every queue this round may fill: the spare
            // one, and both when the frontier is a bitmap. The stats sum's
            // rendezvous orders that before any publication.
            ctx.master(|| {
                for (k, q) in queues.iter().enumerate() {
                    if cur_is_bits || k != qi {
                        q.clear();
                    }
                }
            });

            // Frontier stats (size, out-edges) — O(1) per vertex thanks to
            // the CSR degree prefix sum; team-combined by one sum.
            let (mut s, mut e) = (0, 0);
            let mut count = |v: usize| {
                s += 1;
                e += (offsets[v + 1] - offsets[v]) as u64;
            };
            if cur_is_bits {
                let bits = &bitmaps[bi];
                let words = 0..bits.num_words();
                ctx.for_each_nowait(words, |w| bits.for_each_set_in_word(w, &mut count));
            } else {
                let q = &queues[qi];
                ctx.for_each_nowait(0..q.len(), |i| count(q.get(i) as usize));
            }
            let [fsize, fedges] = ctx.team_sum([s, e]).map(|x| x as usize);

            // Direction heuristic (Beamer): identical on every member.
            let pull = allow_pull
                && if cur_is_bits {
                    fsize >= n / DIRECTION_BETA
                } else {
                    fedges > m / DIRECTION_ALPHA
                };

            // Representation conversion when the direction flips.
            if pull && !cur_is_bits {
                let bits = &bitmaps[bi];
                let q = &queues[qi];
                ctx.for_each(0..bits.num_words(), Schedule::default(), |w| {
                    bits.store_word(w, 0);
                });
                ctx.for_each(0..q.len(), Schedule::default(), |i| {
                    bits.insert(q.get(i) as usize);
                });
                cur_is_bits = true;
            } else if !pull && cur_is_bits {
                let bits = &bitmaps[bi];
                let q = &queues[qi];
                let mut local = LocalBuffer::new();
                ctx.for_each_nowait(0..bits.num_words(), |w| {
                    bits.for_each_set_in_word(w, |v| local.push(v as u64, q));
                });
                local.flush(q);
                ctx.barrier();
                cur_is_bits = false;
            }

            if pull {
                // Bottom-up: each member owns whole words of the next
                // frontier. For every unvisited vertex of a word it owns
                // it scans the in-edges and stops at the first frontier
                // neighbor. Nobody else can discover that vertex this
                // round, so the four-word write is exclusive and needs no
                // claim; the word's bits gather in a register and go out
                // in one store, which also overwrites the stale frontier
                // two rounds old (no clear pass).
                ctx.annotate_round("pull");
                let rev = rev.expect("pull implies reverse view");
                let cur = &bitmaps[bi];
                let next = &bitmaps[1 - bi];
                let by_words = Schedule::Dynamic {
                    chunk: PULL_CHUNK_WORDS,
                };
                ctx.for_each(0..next.num_words(), by_words, |w| {
                    let mut bits = 0u64;
                    for v in 64 * w..(64 * w + 64).min(n) {
                        if st.visited[v].load(Ordering::Relaxed) != 0 {
                            continue;
                        }
                        for (p, e) in rev.in_edges(v as u32) {
                            if cur.contains(p as usize) {
                                st.commit(v, p, e, l + 1);
                                bits |= 1 << (v % 64);
                                break;
                            }
                        }
                    }
                    next.store_word(w, bits);
                    changed |= bits != 0;
                });
                // Nothing was claimed, so gatekeeper cells are still armed.
                bi = 1 - bi;
                cur_is_bits = true;
            } else {
                // Top-down: expand the queue with degree-weighted chunks,
                // staging discoveries in per-worker buffers.
                ctx.annotate_round("push");
                let cur = &queues[qi];
                let next = &queues[1 - qi];
                let mut local = LocalBuffer::new();
                ctx.for_each_frontier(cur, fedges, FRONTIER_GRAIN_EDGES, |vu| {
                    let v = vu as usize;
                    #[allow(clippy::needless_range_loop)] // j is the edge id in sel_edge
                    for j in offsets[v]..offsets[v + 1] {
                        let u = targets[j] as usize;
                        if st.visited[u].load(Ordering::Relaxed) == 0 && arb.try_claim(u, round) {
                            st.commit(u, v as u32, j, l + 1);
                            local.push(u as u64, next);
                            changed = true;
                        }
                    }
                });
                // Publication is ordered before the next round's reads by
                // the round's closing rendezvous.
                local.flush(next);
                rearm(ctx, arb, n);
                qi = 1 - qi;
                cur_is_bits = false;
            }
            if changed {
                flag.set();
            }
        });
        ctx.master(|| rounds.store(c.rounds, Ordering::Relaxed));
    });

    st.into_result(rounds.into_inner())
}

/// Check a [`BfsResult`]'s distances against the serial reference.
///
/// Holds for **every** method, including naive (levels are common writes).
pub fn verify_bfs_levels(g: &CsrGraph, source: u32, r: &BfsResult) -> Result<(), String> {
    let expect = pram_graph::serial::bfs_levels(g, source);
    if r.level == expect {
        Ok(())
    } else {
        let v = (0..expect.len())
            .find(|&v| expect[v] != r.level[v])
            .unwrap();
        Err(format!(
            "level[{v}] = {} but serial BFS says {}",
            r.level[v], expect[v]
        ))
    }
}

/// Full structural verification: distances plus parent/sel_edge mutual
/// consistency.
///
/// Guaranteed only for single-winner methods
/// ([`CwMethod::single_winner`]); the naive method can fail the
/// parent/edge cross-check, which is the paper's argument against it.
pub fn verify_bfs_tree(g: &CsrGraph, source: u32, r: &BfsResult) -> Result<(), String> {
    verify_bfs_levels(g, source, r)?;
    let n = g.num_vertices();
    for v in 0..n {
        let (lv, p, e) = (r.level[v], r.parent[v], r.sel_edge[v]);
        if v as u32 == source {
            if p != NO_PARENT || e != NO_EDGE {
                return Err(format!("source has parent {p} / edge {e}"));
            }
            continue;
        }
        if lv == UNREACHED {
            if p != NO_PARENT || e != NO_EDGE {
                return Err(format!("unreachable {v} has parent {p} / edge {e}"));
            }
            continue;
        }
        if p == NO_PARENT || e == NO_EDGE {
            return Err(format!("reached {v} missing parent or edge"));
        }
        if r.level[p as usize] + 1 != lv {
            return Err(format!(
                "parent level mismatch at {v}: level[{p}] = {} vs level[{v}] = {lv}",
                r.level[p as usize]
            ));
        }
        // sel_edge must be an edge *owned by the parent* that targets v —
        // the cross-array consistency naive writes can tear.
        let (lo, hi) = (g.offsets()[p as usize], g.offsets()[p as usize + 1]);
        if !(lo..hi).contains(&e) {
            return Err(format!(
                "sel_edge[{v}] = {e} is not an edge of parent {p} (range {lo}..{hi})"
            ));
        }
        if g.targets()[e] as usize != v {
            return Err(format!(
                "sel_edge[{v}] = {e} targets {} instead of {v}",
                g.targets()[e]
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

    #[test]
    fn all_single_winner_methods_build_valid_trees() {
        let pool = ThreadPool::new(4);
        let cases = vec![
            graph(5, &GraphGen::path(5)),
            graph(7, &GraphGen::star(7)),
            graph(6, &GraphGen::cycle(6)),
            graph(12, &GraphGen::grid(3, 4)),
            graph(1, &[]),
            graph(4, &[(0, 1)]), // disconnected
        ];
        for g in &cases {
            for m in CwMethod::ALL.into_iter().filter(|m| m.single_winner()) {
                for s in BfsStrategy::ALL {
                    let r = bfs_with_strategy(g, 0, m, s, &pool);
                    verify_bfs_tree(g, 0, &r).unwrap_or_else(|e| panic!("{m}/{s}: {e}"));
                }
            }
        }
    }

    #[test]
    fn naive_gets_levels_right() {
        let pool = ThreadPool::new(4);
        let mut gen = GraphGen::new(9);
        let edges = gen.gnm(200, 800);
        let g = graph(200, &edges);
        let r = bfs(&g, 0, CwMethod::Naive, &pool);
        verify_bfs_levels(&g, 0, &r).unwrap();
    }

    #[test]
    fn random_graphs_match_serial_levels_for_all_methods() {
        let pool = ThreadPool::new(4);
        for seed in 0..3 {
            let edges = GraphGen::new(seed).gnm(100, 300);
            let g = graph(100, &edges);
            for m in CwMethod::ALL {
                let r = bfs(&g, 5, m, &pool);
                verify_bfs_levels(&g, 5, &r).unwrap_or_else(|e| panic!("seed {seed} {m}: {e}"));
            }
        }
    }

    #[test]
    fn strategies_agree_on_levels_and_round_counts() {
        let pool = ThreadPool::new(4);
        for seed in 0..3 {
            let edges = GraphGen::new(seed).gnm(150, 400);
            let g = graph(150, &edges);
            let dense = bfs_with_strategy(&g, 3, CwMethod::CasLt, BfsStrategy::DenseScan, &pool);
            for s in [BfsStrategy::TopDown, BfsStrategy::DirectionOptimizing] {
                let r = bfs_with_strategy(&g, 3, CwMethod::CasLt, s, &pool);
                assert_eq!(r.level, dense.level, "seed {seed} {s}");
                assert_eq!(r.rounds, dense.rounds, "seed {seed} {s}");
                verify_bfs_tree(&g, 3, &r).unwrap_or_else(|e| panic!("seed {seed} {s}: {e}"));
            }
        }
    }

    #[test]
    fn direction_optimizing_pulls_on_dense_frontiers() {
        // A star forces an immediate huge frontier: round 2 must pull.
        let pool = ThreadPool::new(4);
        let g = graph(2000, &GraphGen::star(2000));
        for m in [CwMethod::CasLt, CwMethod::Gatekeeper] {
            let r = bfs_with_strategy(&g, 0, m, BfsStrategy::DirectionOptimizing, &pool);
            verify_bfs_tree(&g, 0, &r).unwrap_or_else(|e| panic!("{m}: {e}"));
            assert!(r.level[1..].iter().all(|&l| l == 1));
        }
    }

    #[test]
    fn pull_rounds_are_exclusive_writes_without_claims() {
        // Stars whose leaves end one short of, exactly on, and one past a
        // bitmap word, a multi-word star, and a skewed graph whose hub
        // levels pull. Pull rounds must build valid trees without one
        // claim resolution, under every single-winner method.
        let mut cases: Vec<(String, CsrGraph)> = [63, 64, 65, 2000]
            .into_iter()
            .map(|n| (format!("star{n}"), graph(n, &GraphGen::star(n))))
            .collect();
        cases.push((
            "rmat10".to_string(),
            graph(1024, &GraphGen::new(5).rmat_standard(10, 8000)),
        ));
        for t in 1..=3 {
            let pool = ThreadPool::with_config(PoolConfig::new(t).telemetry(true));
            for (name, g) in &cases {
                for m in CwMethod::ALL.into_iter().filter(|m| m.single_winner()) {
                    let r = bfs_with_strategy(g, 0, m, BfsStrategy::DirectionOptimizing, &pool);
                    verify_bfs_tree(g, 0, &r).unwrap_or_else(|e| panic!("{name}/{m}/T={t}: {e}"));
                    let report = pool.take_round_report();
                    let pulls: Vec<_> =
                        report.rounds.iter().filter(|r| r.label == "pull").collect();
                    assert!(!pulls.is_empty(), "{name}/{m}/T={t}: no pull round");
                    for p in pulls {
                        assert_eq!(
                            p.cw.resolutions(),
                            0,
                            "{name}/{m}/T={t}: pull round {} arbitrated",
                            p.round
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn top_down_on_long_paths() {
        let pool = ThreadPool::new(4);
        let g = graph(512, &GraphGen::path(512));
        let r = bfs_with_strategy(&g, 0, CwMethod::CasLt, BfsStrategy::TopDown, &pool);
        verify_bfs_tree(&g, 0, &r).unwrap();
        assert_eq!(r.rounds, 512);
    }

    #[test]
    fn rounds_equal_eccentricity_plus_one() {
        let pool = ThreadPool::new(2);
        let g = graph(6, &GraphGen::path(6));
        for s in BfsStrategy::ALL {
            let r = bfs_with_strategy(&g, 0, CwMethod::CasLt, s, &pool);
            // Levels 0..=4 expand something; the 6th round finds no change.
            assert_eq!(r.rounds, 6, "{s}");
        }
    }

    #[test]
    fn isolated_source_terminates_immediately() {
        let pool = ThreadPool::new(2);
        let g = graph(3, &[(1, 2)]);
        for s in BfsStrategy::ALL {
            let r = bfs_with_strategy(&g, 0, CwMethod::CasLt, s, &pool);
            assert_eq!(r.level, vec![0, UNREACHED, UNREACHED], "{s}");
            assert_eq!(r.rounds, 1, "{s}");
        }
    }

    #[test]
    fn sel_edge_points_to_discovering_edge() {
        let pool = ThreadPool::new(2);
        // Multigraph: duplicate edges mean several candidate sel_edges; any
        // one of them is valid, and verify checks the chosen one is real.
        let g = graph(3, &[(0, 1), (0, 1), (1, 2)]);
        for s in BfsStrategy::ALL {
            let r = bfs_with_strategy(&g, 0, CwMethod::CasLt, s, &pool);
            verify_bfs_tree(&g, 0, &r).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn self_loops_are_harmless() {
        let pool = ThreadPool::new(2);
        let g = graph(3, &[(0, 0), (0, 1), (1, 2)]);
        for s in BfsStrategy::ALL {
            let r = bfs_with_strategy(&g, 0, CwMethod::Gatekeeper, s, &pool);
            verify_bfs_tree(&g, 0, &r).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_rejected() {
        let pool = ThreadPool::new(1);
        let g = graph(2, &[(0, 1)]);
        let _ = bfs(&g, 9, CwMethod::CasLt, &pool);
    }
}
