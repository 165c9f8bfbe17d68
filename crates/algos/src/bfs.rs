//! Breadth-first search under pluggable concurrent-write methods and two
//! *frontier strategies*.
//!
//! The paper's BFS (Figure 3, evaluated in Figures 7–9) is the
//! Rodinia-style **dense scan**: each level-`L` iteration scans all `n`
//! vertices, expands the frontier (`level[v] == L`), and tries to *claim*
//! every unvisited neighbor `u`. The claim guards a three-word write —
//! `parent[u]`, `sel_edge[u]`, `level[u]` — which is exactly why the
//! method matters (`level[u] != UNREACHED` is the visited test, so there is
//! no separate visited array to write):
//!
//! * under **naive** writes (Rodinia's original), several expanders write
//!   `u` concurrently; `level` is a *common* write (all agree) so distances
//!   stay correct, but `parent[u]` and `sel_edge[u]` are *different*
//!   values from different writers and can commit as a mixture that names
//!   an edge `parent[u]` does not own (the paper's §4 torn-write hazard,
//!   demonstrated in this workspace's `torn_writes` test);
//! * under any single-winner method the three words are written by one
//!   thread and are mutually consistent.
//!
//! [`BfsStrategy::DirectionOptimizing`] runs Beamer's push/pull switch on
//! the same claim substrate. It pushes top-down while the frontier is
//! small: the frontier is an explicit sparse queue
//! ([`pram_exec::FrontierBuffer`]), workers append discoveries to
//! per-worker [`pram_exec::LocalBuffer`]s, and a level costs
//! `O(frontier edges)`, not `O(n + frontier edges)`. A push round is
//! handed out in edge pieces
//! ([`pram_exec::WorkerCtx::for_each_frontier`]), so a hub's edges spread
//! over several grabs and members. When the frontier's out-edge count
//! exceeds `m / α` it switches to a **bottom-up pull** over
//! a dense [`pram_core::AtomicBitmap`] frontier (each unvisited vertex
//! scans its in-edges and stops at the first frontier neighbor), and it
//! drops back to push when the frontier shrinks below `n / β`. On a graph
//! whose frontiers stay sparse, such as a path, every round is a push.
//!
//! Push and dense-scan rounds are concurrent writes: several expanders
//! can reach the same unvisited `u`, so the winner claim
//! `arb.try_claim(u, round)` is their single point of frontier insertion,
//! every concurrent-write method dispatches unchanged, and the three-word
//! write keeps its single-winner consistency guarantee. Pull rounds are
//! not: each worker owns whole 64-vertex words of the next-frontier
//! bitmap, and only the owner of `v`'s word ever writes `v`. That write is
//! *exclusive*, and by the paper's own argument an exclusive write needs
//! no arbitration — the owner commits the three words with plain stores
//! and publishes the word with one [`pram_core::AtomicBitmap::store_word`].
//! The bottom-up sweep records `sel_edge` through
//! [`pram_graph::ReverseCsr`]'s edge provenance, so the discovered edge is
//! still an index owned by the parent — the same invariant
//! [`verify_bfs_tree`] checks for both strategies.
//!
//! A pull round reads only what can still change. For each vertex it
//! probes, it first tests the head, the vertex's first in-edge, which
//! [`pram_graph::ReverseCsr::first_in_edge`] keeps in a dense array, so the
//! probes of a word read one stream; only when the head's source is not in
//! the frontier does it read the rest of the in-list
//! ([`pram_graph::ReverseCsr::in_edges_after_first`]). A call's first pull
//! probes every unvisited vertex and stores, per bitmap word, a *pending*
//! mask: the word's vertices that are still unvisited and have an in-edge.
//! Every later pull walks only its word's pending bits, skips the ones a
//! push round has visited since, and stores the bits of the vertices it
//! probed and did not discover. Vertices are only ever added to the
//! visited set, and a bit is dropped only for a visited vertex, so the mask
//! stays a superset of the undiscovered vertices that have an in-edge —
//! the only vertices a pull can discover — however many push rounds run
//! between two pulls. A pending word is owned like the `next` bitmap word:
//! one member reads and stores it within a round, and the round's closing
//! rendezvous orders that store (and every push discovery) before the next
//! pull reads it, whichever member owns the word then.
//!
//! Both strategies count their discoveries member-locally and hand the
//! count to the round's closing team sum, which decides convergence, so
//! discoveries never store to a shared progress line. Direction-optimizing
//! BFS also sums the discoveries' degrees there: the next frontier's size
//! and out-edge count arrive with the round's one rendezvous, not from a
//! pass over the frontier.
//!
//! The per-level round ID is the level itself — the paper's "round could be
//! substituted by the loop iteration" remark — supplied here by
//! [`pram_exec::WorkerCtx::converge_rounds`].
//!
//! The team fills the per-call state. Its arrays come zeroed and untouched
//! from [`pram_exec::zeroed_atomics`]; at the top of the region every
//! member writes the sentinels of its own static block (and the source's
//! level 0, if the source is in that block), so the pages are first
//! touched in parallel rather than on the caller's thread.
//! `converge_rounds`' opening rendezvous, which the call pays anyway,
//! orders those writes before round 1 reads them.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use pram_core::{AtomicBitmap, SliceArbiter};
use pram_exec::schedule::static_block;
use pram_exec::{
    zeroed_atomics, FrontierBuffer, LocalBuffer, Schedule, ThreadPool, WorkerCtx,
    FRONTIER_GRAIN_EDGES,
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
    /// Beamer-style push/pull: top-down over a sparse queue while the
    /// frontier is sparse, bottom-up over a dense bitmap when it is not
    /// ([`DIRECTION_ALPHA`] / [`DIRECTION_BETA`] thresholds).
    ///
    /// The bottom-up sweep scans *in*-edges, so on a directed graph the
    /// strategy is only equivalent to the dense scan if the graph stores
    /// both directions (as every undirected [`CsrGraph`] here does).
    #[default]
    DirectionOptimizing,
}

impl BfsStrategy {
    /// All strategies, for tests and benches.
    pub const ALL: [BfsStrategy; 2] = [BfsStrategy::DenseScan, BfsStrategy::DirectionOptimizing];
}

impl fmt::Display for BfsStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BfsStrategy::DenseScan => "dense-scan",
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
/// by vertex and edge count only).
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
        assert_eq!(
            rev.offsets()[n],
            g.num_directed_edges(),
            "reverse view is for another graph"
        );
    }
    match (strategy, rev) {
        (BfsStrategy::DenseScan, _) => bfs_dense(g, source, arb, pool),
        (BfsStrategy::DirectionOptimizing, Some(rev)) => {
            bfs_direction_optimizing(g, rev, source, arb, pool)
        }
        // The pull rounds read the in-edge view (with edge provenance for
        // sel_edge); build it unless the caller already did.
        (BfsStrategy::DirectionOptimizing, None) => {
            bfs_direction_optimizing(g, &g.reverse(), source, arb, pool)
        }
    }
}

/// The three per-vertex output arrays, shared across strategies.
/// `level[u] != UNREACHED` is also the visited test.
struct BfsState {
    level: Box<[AtomicU32]>,
    parent: Box<[AtomicU32]>,
    sel_edge: Box<[AtomicUsize]>,
    source: u32,
}

impl BfsState {
    /// Zeroed, untouched arrays: the team writes the sentinels
    /// ([`BfsState::fill`]) before the first round reads them.
    fn new(n: usize, source: u32) -> BfsState {
        BfsState {
            level: zeroed_atomics(n),
            parent: zeroed_atomics(n),
            sel_edge: zeroed_atomics(n),
            source,
        }
    }

    /// This member's share of the sentinel fill: its static block of every
    /// array, and the source's level 0 if the source is in the block. Every
    /// member calls it at the top of the region, so each first-touches the
    /// pages of its own block; `converge_rounds`' opening rendezvous orders
    /// the writes before round 1 reads any of them.
    fn fill(&self, ctx: &WorkerCtx<'_>) {
        let block = static_block(self.level.len(), ctx.num_threads(), ctx.thread_id());
        for l in &self.level[block.clone()] {
            l.store(UNREACHED, Ordering::Relaxed);
        }
        for p in &self.parent[block.clone()] {
            p.store(NO_PARENT, Ordering::Relaxed);
        }
        for e in &self.sel_edge[block.clone()] {
            e.store(NO_EDGE, Ordering::Relaxed);
        }
        if block.contains(&(self.source as usize)) {
            self.level[self.source as usize].store(0, Ordering::Relaxed);
        }
    }

    /// Whether `u` has a level yet (the source, or discovered).
    #[inline]
    fn visited(&self, u: usize) -> bool {
        self.level[u].load(Ordering::Relaxed) != UNREACHED
    }

    fn into_result(self, rounds: u32) -> BfsResult {
        // Each collect reuses its array's allocation in place.
        BfsResult {
            level: self
                .level
                .into_vec()
                .into_iter()
                .map(AtomicU32::into_inner)
                .collect(),
            parent: self
                .parent
                .into_vec()
                .into_iter()
                .map(AtomicU32::into_inner)
                .collect(),
            sel_edge: self
                .sel_edge
                .into_vec()
                .into_iter()
                .map(AtomicUsize::into_inner)
                .collect(),
            rounds,
        }
    }

    /// The guarded three-word write. Call only as the claim winner, or as
    /// the exclusive writer of `u` (a pull round's word owner).
    #[inline]
    fn commit(&self, u: usize, parent: u32, edge: usize, level: u32) {
        self.parent[u].store(parent, Ordering::Relaxed);
        self.sel_edge[u].store(edge, Ordering::Relaxed);
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
        st.fill(ctx);
        let c = ctx.converge_rounds(max_rounds, [0, 0], |round, _| {
            ctx.annotate_round("expand");
            let l = round.get() - 1; // the level being expanded
            let mut found = 0;
            ctx.for_each_nowait(0..n, |v| {
                if st.level[v].load(Ordering::Relaxed) != l {
                    return;
                }
                #[allow(clippy::needless_range_loop)] // j is the edge id recorded in sel_edge
                for j in offsets[v]..offsets[v + 1] {
                    let u = targets[j] as usize;
                    if !st.visited(u) {
                        // The concurrent write: claim vertex u for this
                        // level, then perform the three-word update.
                        if arb.try_claim(u, round) {
                            st.commit(u, v as u32, j, l + 1);
                            found += 1;
                        }
                    }
                }
            });
            rearm(ctx, arb, n);
            // A nonzero team total is the paper's `done = false`.
            [found, 0]
        });
        // Every member observed the same convergence result.
        rounds.store(c.rounds, Ordering::Relaxed);
    });

    st.into_result(rounds.into_inner())
}

/// Direction-optimizing BFS: a top-down sparse queue that switches to a
/// bottom-up bitmap pull over `rev` while the frontier is dense.
fn bfs_direction_optimizing<A: SliceArbiter>(
    g: &CsrGraph,
    rev: &ReverseCsr,
    source: u32,
    arb: &A,
    pool: &ThreadPool,
) -> BfsResult {
    let n = g.num_vertices();
    let m = g.num_directed_edges();
    let st = BfsState::new(n, source);
    let offsets = g.offsets();
    let targets = g.targets();

    // Double-buffered frontier in both representations; which pair member
    // is "current" is tracked per worker and advances in lockstep because
    // every direction decision is derived from one team-wide sum.
    let queues = [
        FrontierBuffer::with_capacity(n),
        FrontierBuffer::with_capacity(n),
    ];
    let bitmaps = [AtomicBitmap::new(n.max(1)), AtomicBitmap::new(n.max(1))];
    // Per bitmap word, the vertices a pull round may still discover: the
    // first pull stores the word's unvisited vertices that have an in-edge,
    // and each later pull walks only those and stores what is left.
    let pending: Box<[AtomicU64]> = zeroed_atomics(bitmaps[0].num_words());
    queues[0].publish(&[source as u64]);

    let max_rounds = n as u32 + 1;
    let rounds = AtomicU32::new(0);

    pool.run(|ctx| {
        st.fill(ctx);
        let mut qi = 0usize; // queues[qi] holds the current frontier...
        let mut bi = 0usize; // ...or bitmaps[bi] does, when cur_is_bits
        let mut cur_is_bits = false;
        let mut pulled = false; // whether `pending` holds a pull's masks

        let degree = |v: usize| (offsets[v + 1] - offsets[v]) as u64;

        // Each round sums its discoveries and their degrees: the next
        // frontier's size and out-edge count.
        let first = [1, degree(source as usize)];
        let c = ctx.converge_rounds(max_rounds, first, |round, [fsize, fedges]| {
            let (fsize, fedges) = (fsize as usize, fedges as usize);
            let l = round.get() - 1;
            let (mut found, mut found_edges) = (0, 0);

            // Direction heuristic (Beamer): identical on every member.
            let pull = if cur_is_bits {
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
                // That loop's ending rendezvous ends the queue's last read,
                // so both queues are empty in bitmap mode.
                ctx.master(|| q.clear());
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
                // frontier. For every undiscovered vertex of a word it
                // owns it probes the in-edges, head first, and stops at
                // the first frontier neighbor. Nobody else can discover
                // that vertex this round, so the three-word write is
                // exclusive and needs no claim; the word's bits gather in
                // a register and go out in one store, which also
                // overwrites the stale frontier two rounds old (no clear
                // pass). The word's pending mask is owned the same way.
                ctx.annotate_round("pull");
                let cur = &bitmaps[bi];
                let next = &bitmaps[1 - bi];
                let by_words = Schedule::Dynamic {
                    chunk: PULL_CHUNK_WORDS,
                };
                // Discovers `v` if one of its in-edges, `head` first, leaves
                // the current frontier.
                let mut probe = |v: usize, (p, e): (u32, usize)| {
                    let hit = if cur.contains(p as usize) {
                        Some((p, e))
                    } else {
                        rev.in_edges_after_first(v as u32)
                            .find(|&(p, _)| cur.contains(p as usize))
                    };
                    if let Some((p, e)) = hit {
                        st.commit(v, p, e, l + 1);
                        found_edges += degree(v);
                    }
                    hit.is_some()
                };
                ctx.for_each(0..next.num_words(), by_words, |w| {
                    // The word's candidates: all its vertices on a call's
                    // first pull, and only the pending ones after it, some
                    // of which a push round since may have visited.
                    let mut walk = if pulled {
                        pending[w].load(Ordering::Relaxed)
                    } else {
                        u64::MAX >> (64 * w + 64).saturating_sub(n)
                    };
                    let (mut bits, mut left) = (0u64, 0u64);
                    while walk != 0 {
                        let bit = walk & walk.wrapping_neg();
                        walk ^= bit;
                        let v = 64 * w + bit.trailing_zeros() as usize;
                        if st.visited(v) {
                            continue;
                        }
                        let head = match rev.first_in_edge(v as u32) {
                            Some(head) => head,
                            None if !pulled => continue,
                            None => unreachable!("pending vertex {v} has no in-edge"),
                        };
                        if probe(v, head) {
                            bits |= bit;
                        } else {
                            left |= bit;
                        }
                    }
                    next.store_word(w, bits);
                    pending[w].store(left, Ordering::Relaxed);
                    found += u64::from(bits.count_ones());
                });
                // Nothing was claimed, so gatekeeper cells are still armed.
                bi = 1 - bi;
                cur_is_bits = true;
                pulled = true;
            } else {
                // Top-down: expand the queue in edge pieces, so a hub
                // spans several grabs, staging discoveries in per-worker
                // buffers.
                ctx.annotate_round("push");
                let cur = &queues[qi];
                let next = &queues[1 - qi];
                let mut local = LocalBuffer::new();
                let queued_degree = |v: u64| degree(v as usize) as usize;
                ctx.for_each_frontier(
                    cur,
                    fedges,
                    FRONTIER_GRAIN_EDGES,
                    queued_degree,
                    |vu, piece| {
                        let v = vu as usize;
                        #[allow(clippy::needless_range_loop)] // j is the edge id in sel_edge
                        for j in offsets[v] + piece.start..offsets[v] + piece.end {
                            let u = targets[j] as usize;
                            if !st.visited(u) && arb.try_claim(u, round) {
                                st.commit(u, v as u32, j, l + 1);
                                local.push(u as u64, next);
                                found += 1;
                                found_edges += degree(u);
                            }
                        }
                    },
                );
                // The loop's ending rendezvous ends every read of `cur`:
                // member 0 empties it for its turn as the spare queue
                // while the team publishes into `next`. The round's
                // closing rendezvous orders both before the next round.
                ctx.master(|| cur.clear());
                local.flush(next);
                rearm(ctx, arb, n);
                qi = 1 - qi;
                cur_is_bits = false;
            }
            [found, found_edges]
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
            let s = BfsStrategy::DirectionOptimizing;
            let r = bfs_with_strategy(&g, 3, CwMethod::CasLt, s, &pool);
            assert_eq!(r.level, dense.level, "seed {seed}");
            assert_eq!(r.rounds, dense.rounds, "seed {seed}");
            verify_bfs_tree(&g, 3, &r).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
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
    fn direction_optimizing_only_pushes_on_long_paths() {
        // One-vertex frontiers never cross the pull threshold, so every
        // round is a push and no representation conversion runs.
        let g = graph(512, &GraphGen::path(512));
        for t in 1..=3 {
            let pool = ThreadPool::with_config(PoolConfig::new(t).telemetry(true));
            let strategy = BfsStrategy::DirectionOptimizing;
            let r = bfs_with_strategy(&g, 0, CwMethod::CasLt, strategy, &pool);
            verify_bfs_tree(&g, 0, &r).unwrap_or_else(|e| panic!("T={t}: {e}"));
            assert_eq!(r.rounds, 512, "T={t}");
            let report = pool.take_round_report();
            assert_eq!(report.rounds.len(), 512, "T={t}");
            for round in &report.rounds {
                assert_eq!(round.label, "push", "T={t}: round {}", round.round);
            }
        }
    }

    #[test]
    fn the_hub_push_spans_several_grabs() {
        // star(2000) from its centre, beside a disjoint cycle: alone, the
        // star's 1999 hub edges exceed m / α and round 0 would pull; the
        // cycle raises m so the hub round is a push, which must be split.
        let (star, ring) = (2000u32, 16_000u32);
        let mut edges = GraphGen::star(star as usize);
        edges.extend((0..ring).map(|i| (star + i, star + (i + 1) % ring)));
        let g = graph((star + ring) as usize, &edges);
        for t in [2, 3] {
            let pool = ThreadPool::with_config(PoolConfig::new(t).telemetry(true));
            let strategy = BfsStrategy::DirectionOptimizing;
            let r = bfs_with_strategy(&g, 0, CwMethod::CasLt, strategy, &pool);
            verify_bfs_tree(&g, 0, &r).unwrap_or_else(|e| panic!("T={t}: {e}"));
            let round0 = &pool.take_round_report().rounds[0];
            assert_eq!(round0.label, "push", "T={t}");
            assert!(
                round0.exec.grabs > 1,
                "T={t}: {} grab(s)",
                round0.exec.grabs
            );
        }
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
    #[should_panic(expected = "reverse view is for another graph")]
    fn in_edge_view_with_the_same_n_but_another_m_rejected() {
        let pool = ThreadPool::new(1);
        let g = graph(5, &GraphGen::path(5));
        let other = graph(5, &[(0, 1)]).reverse();
        let strategy = BfsStrategy::DirectionOptimizing;
        let _ = bfs_with_strategy_rev(&g, &other, 0, CwMethod::CasLt, strategy, &pool);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_rejected() {
        let pool = ThreadPool::new(1);
        let g = graph(2, &[(0, 1)]);
        let _ = bfs(&g, 9, CwMethod::CasLt, &pool);
    }
}
