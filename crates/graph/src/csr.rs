//! Compressed sparse row adjacency — the Rodinia BFS memory layout.
//!
//! The paper's Figure 3 declares `unsigned V[N]` (index of each vertex's
//! first edge) and `unsigned E[M]` (destination vertex ids); [`CsrGraph`]
//! is exactly that pair, with the conventional `N + 1` offsets so
//! `neighbors(v)` is a single slice.
//!
//! Both builds, [`CsrGraph::from_edges`] and [`CsrGraph::reverse`], are
//! member-parallel counting sorts, the GAP benchmark suite's CSR
//! construction. Each member counts a contiguous chunk of the input into its
//! own degree histogram; one prefix pass turns the histograms into the
//! offsets and into per-member cursors, member k's slots for a vertex
//! following member k − 1's; then each member scatters its chunk in input
//! order. The output is therefore byte-identical to the serial counting
//! sort at every member count. Small inputs build on the caller's thread.

use std::marker::PhantomData;
use std::ops::Range;
use std::thread;

/// Fewest input items a build hands each member; smaller inputs build on
/// the caller's thread. On a 2-vCPU Xeon a 2^18-edge G(n, m) build takes
/// about 9 ms with one member or two, so a split must carry more than that.
const MEMBER_GRAIN: usize = 1 << 20;

/// Members for a build over `items` input items: at most one per core, each
/// with at least [`MEMBER_GRAIN`] items.
fn members_for(items: usize) -> usize {
    match items / MEMBER_GRAIN {
        0 | 1 => 1,
        most => most.min(thread::available_parallelism().map_or(1, |p| p.get())),
    }
}

/// A graph in CSR form. Vertex ids are `u32`; an undirected graph stores
/// both directions of every edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for vertex `v`.
    offsets: Box<[usize]>,
    /// Flat destination array (the paper's `E`).
    targets: Box<[u32]>,
}

impl CsrGraph {
    /// Build from an edge list by counting sort — O(n + m), no comparison
    /// sort.
    ///
    /// With `undirected = true` each input pair `(u, v)` is inserted in
    /// both directions (self-loops once). Duplicate edges are kept: the
    /// uniform generator produces multigraphs, as random-graph benchmark
    /// generators conventionally do. Each vertex's neighbors appear in
    /// input order.
    ///
    /// Large inputs are split over one member per core (see the module
    /// docs); the result is byte-identical to the serial build.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`, or if the graph would store more
    /// than `u32::MAX` directed edges (the paper's `V` is `unsigned`).
    pub fn from_edges(n: usize, edges: &[(u32, u32)], undirected: bool) -> CsrGraph {
        Self::from_edges_on(n, edges, undirected, members_for(edges.len()))
    }

    /// [`CsrGraph::from_edges`] over `members` contiguous chunks of `edges`.
    fn from_edges_on(n: usize, edges: &[(u32, u32)], undirected: bool, members: usize) -> CsrGraph {
        assert!(n <= u32::MAX as usize, "vertex ids are u32");
        let chunk = |k: usize| &edges[k * edges.len() / members..(k + 1) * edges.len() / members];
        let (offsets, targets) = counting_sort(
            n,
            members,
            |k, degree| {
                for &(u, v) in chunk(k) {
                    // Checked while counting, on whichever member holds the
                    // edge; counting_sort hands the caller the first bad
                    // edge's panic. A separate serial pass over the input
                    // made cc-gnm's setup about 16 % slower.
                    assert!(
                        (u.max(v) as usize) < n,
                        "edge ({u}, {v}) out of range for n = {n}"
                    );
                    tally(degree, u);
                    if undirected && u != v {
                        tally(degree, v);
                    }
                }
            },
            |k, cursor, _, slots| {
                for &(u, v) in chunk(k) {
                    // SAFETY: this pass visits member k's chunk exactly as
                    // its count did, so it takes only member k's slots.
                    unsafe { slots.write(take(cursor, u), v) };
                    if undirected && u != v {
                        // SAFETY: as above.
                        unsafe { slots.write(take(cursor, v), u) };
                    }
                }
            },
        );
        CsrGraph { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored directed edges (2× the undirected edge count,
    /// except self-loops which are stored once).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// The neighbors of `v` (with multiplicity).
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// The raw offsets array (`n + 1` entries) — the paper's `V`.
    ///
    /// This array *is* the out-degree prefix sum
    /// (`offsets[v] = Σ_{u < v} degree(u)`), so the total out-degree of a
    /// vertex range `lo..hi` is `offsets[hi] - offsets[lo]` — which makes
    /// degree-weighted chunking and the push/pull direction heuristic O(1)
    /// per query.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw targets array — the paper's `E`.
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Iterate all stored directed edges as `(src, dst)`.
    pub fn directed_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices())
            .flat_map(move |u| self.neighbors(u as u32).iter().map(move |&v| (u as u32, v)))
    }

    /// Build the in-edge view: for every vertex `v`, the sources `u` of
    /// edges `u → v` together with each edge's index in this graph's
    /// target array, sorted by source, and each vertex's first in-edge
    /// again in a dense array. O(n + m) counting sort.
    ///
    /// This is what a bottom-up ("pull") BFS sweep needs: scanning `v`'s
    /// in-edges while keeping the discovered tree edge expressed as an
    /// index *owned by the parent*, so the `sel_edge` invariant is the
    /// same in both directions. For an undirected [`CsrGraph`] (both
    /// directions stored) the in- and out-neighbor multisets coincide, but
    /// the edge ids do not — the reverse view records the id of the
    /// `u → v` copy.
    ///
    /// Large graphs are split over one member per core, each taking an
    /// edge-balanced block of source vertices; the result is
    /// byte-identical to the serial build. The member that places an
    /// in-edge at the first slot of `v`'s list also writes it to the head
    /// array, inside the same scatter, so the heads cost no pass of their
    /// own.
    ///
    /// # Panics
    /// Panics if the graph stores more than `u32::MAX` directed edges.
    pub fn reverse(&self) -> ReverseCsr {
        self.reverse_on(members_for(self.targets.len()))
    }

    /// [`CsrGraph::reverse`] over `members` edge-balanced blocks of source
    /// vertices.
    fn reverse_on(&self, members: usize) -> ReverseCsr {
        let n = self.num_vertices();
        let sources_of = |k: usize| edge_balanced_block(&self.offsets, members, k);
        let mut heads = vec![NO_IN_EDGE; n];
        let head_slots = Slots::new(&mut heads);
        let (offsets, in_edges) = counting_sort(
            n,
            members,
            |k, in_degree| {
                let block = sources_of(k);
                for &v in &self.targets[self.offsets[block.start]..self.offsets[block.end]] {
                    tally(in_degree, v);
                }
            },
            |k, cursor, in_offsets, slots| {
                // Bit v: no lower member holds an in-edge of v, so this
                // member's first in-edge of v, if it has one, is v's head.
                // A 1-bit-per-vertex mask stays in L1 where `in_offsets`
                // would not; each bit is cleared at its first use.
                let mut heads_left = vec![0u64; n.div_ceil(64)];
                for (v, (&c, &o)) in cursor.iter().zip(in_offsets).enumerate() {
                    heads_left[v / 64] |= u64::from(c as usize == o) << (v % 64);
                }
                for u in sources_of(k) {
                    for e in self.offsets[u]..self.offsets[u + 1] {
                        let v = self.targets[e];
                        let slot = take(cursor, v);
                        let edge = (u as u32, e as u32);
                        // SAFETY: this pass visits member k's edges exactly
                        // as its count did, so it takes only member k's
                        // slots. `e < m <= u32::MAX`, which counting_sort
                        // checked before placing.
                        unsafe { slots.write(slot, edge) };
                        let (w, bit) = (v as usize / 64, 1u64 << (v % 64));
                        if heads_left[w] & bit != 0 {
                            heads_left[w] &= !bit;
                            // SAFETY: the edge went to slot `in_offsets[v]`,
                            // which one member takes, so one member writes
                            // head `v`.
                            unsafe { head_slots.write(v as usize, edge) };
                        }
                    }
                }
            },
        );
        ReverseCsr {
            offsets,
            in_edges,
            heads: heads.into_boxed_slice(),
        }
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_directed_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as u32))
            .max()
            .unwrap_or(0)
    }
}

/// Block `k` of the vertices when they are split into `parts` contiguous
/// blocks holding about `m / parts` edges each, found by binary search on
/// CSR `offsets` (the out-degree prefix sum, `n + 1` entries). The blocks
/// are disjoint and cover `0..n` in order, so a skewed graph's heavy
/// vertices do not all land in one block.
pub fn edge_balanced_block(offsets: &[usize], parts: usize, k: usize) -> Range<usize> {
    let n = offsets.len() - 1;
    let m = offsets[n];
    let bound = |j: usize| {
        if j == parts {
            n
        } else {
            offsets.partition_point(|&o| o < j * m / parts)
        }
    };
    bound(k)..bound(k + 1)
}

/// Member-parallel counting sort of at most `u32::MAX` items into `n`
/// buckets; returns the bucket offsets (`n + 1` entries) and the sorted
/// items.
///
/// `count(k, hist)` [`tally`]s member k's items into its zeroed histogram.
/// One prefix pass turns the histograms into the offsets and into
/// per-member cursors, member k's slots in each bucket following member
/// k − 1's. Then `place(k, cursor, offsets, slots)` writes member k's
/// items, in the order it counted them, each at the slot [`take`] returns
/// for its bucket; a bucket's first item is the one placed at its offset.
/// Histograms and cursors are `u32`, half the cache a `usize` array takes.
/// Member 0 runs on the caller's thread, the others on scoped threads; one
/// member spawns nothing. A panicking member's payload reaches the caller
/// unchanged, the lowest member's first.
fn counting_sort<T: Copy + Default + Send>(
    n: usize,
    members: usize,
    count: impl Fn(usize, &mut [u32]) + Sync,
    place: impl Fn(usize, &mut [u32], &[usize], &Slots<'_, T>) + Sync,
) -> (Box<[usize]>, Box<[T]>) {
    let mut cursors = on_members(vec![(); members], |k, ()| {
        let mut hist = vec![0u32; n];
        count(k, &mut hist);
        hist
    });
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for v in 0..n {
        for cursor in &mut cursors {
            let d = cursor[v] as usize;
            cursor[v] = acc as u32;
            acc += d;
        }
        offsets.push(acc);
    }
    // With no histogram entry wrapped (`tally`) and this bound, no cursor
    // wraps either, so the members' slot ranges are disjoint.
    assert!(acc <= u32::MAX as usize, "at most u32::MAX items");
    let mut items = vec![T::default(); acc];
    let slots = Slots::new(&mut items);
    on_members(cursors, |k, mut cursor| {
        place(k, &mut cursor, &offsets, &slots)
    });
    (offsets.into_boxed_slice(), items.into_boxed_slice())
}

/// `f(k, per_member[k])` for every member k, results in member order.
fn on_members<T: Send, R: Send>(per_member: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    let mut jobs = per_member.into_iter().enumerate();
    let Some((_, own)) = jobs.next() else {
        return Vec::new();
    };
    if jobs.len() == 0 {
        return vec![f(0, own)];
    }
    let f = &f;
    thread::scope(|s| {
        let spawned: Vec<_> = jobs.map(|(k, t)| s.spawn(move || f(k, t))).collect();
        let mut results = vec![f(0, own)];
        for handle in spawned {
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        results
    })
}

/// Count one item into `bucket`.
#[inline]
fn tally(hist: &mut [u32], bucket: u32) {
    let count = &mut hist[bucket as usize];
    *count = count.checked_add(1).expect("at most u32::MAX items");
}

/// The slot for the next item in `bucket`, advancing its cursor.
#[inline]
fn take(cursor: &mut [u32], bucket: u32) -> usize {
    let slot = cursor[bucket as usize];
    cursor[bucket as usize] = slot + 1;
    slot as usize
}

/// A slice that several members write at once, each slot owned by one
/// member: [`counting_sort`]'s prefix pass hands member k a disjoint range
/// of slots in every bucket.
struct Slots<'a, T> {
    ptr: *mut T,
    len: usize,
    _slice: PhantomData<&'a mut [T]>,
}

// SAFETY: `Slots` only moves `T` values into the slice it exclusively
// borrows, and `write`'s contract gives every slot a single writer, so
// threads may share it whenever `T` may move between threads.
unsafe impl<T: Send> Sync for Slots<'_, T> {}

impl<'a, T: Copy> Slots<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        Slots {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _slice: PhantomData,
        }
    }

    /// Store `value` in slot `i`.
    ///
    /// # Safety
    /// No other thread reads or writes slot `i` while this `Slots` lives.
    #[inline]
    unsafe fn write(&self, i: usize, value: T) {
        assert!(i < self.len, "slot {i} out of range for {}", self.len);
        // SAFETY: `i` is in bounds of the borrowed slice, and the caller
        // guarantees no other thread touches slot `i`.
        unsafe { self.ptr.add(i).write(value) }
    }
}

/// Head entry of a vertex with no in-edge. Vertex ids are below
/// `n <= u32::MAX`, so no in-edge has this source.
const NO_IN_EDGE: (u32, u32) = (u32::MAX, u32::MAX);

/// The in-edge view of a [`CsrGraph`], with edge provenance.
///
/// `offsets[v]..offsets[v + 1]` indexes `in_edges`: for each in-edge its
/// source and its index in the original graph's target array, side by side
/// as `u32`s, so the build writes one slot per edge and a pull scan reads
/// one stream. `heads[v]` repeats `v`'s first in-edge (a no-in-edge
/// sentinel for a vertex that has none) in a dense `n`-entry array: a pull
/// round probes it in vertex order, one stream instead of one line of
/// `in_edges` per vertex, and reads the rest of the list only when the
/// head misses. Built by [`CsrGraph::reverse`], whose scatter writes each
/// head with the in-edge it duplicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReverseCsr {
    offsets: Box<[usize]>,
    in_edges: Box<[(u32, u32)]>,
    heads: Box<[(u32, u32)]>,
}

impl ReverseCsr {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The raw in-offsets array (`n + 1` entries) — the in-degree prefix
    /// sum, the pull-side counterpart of [`CsrGraph::offsets`].
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The in-edges of `v` as `(source, original_edge_id)` pairs, sorted by
    /// source.
    #[inline]
    pub fn in_edges(&self, v: u32) -> impl Iterator<Item = (u32, usize)> + '_ {
        let v = v as usize;
        let range = self.offsets[v]..self.offsets[v + 1];
        self.in_edges[range].iter().map(|&(u, e)| (u, e as usize))
    }

    /// The first of [`ReverseCsr::in_edges`]`(v)`, read from the dense
    /// head array, or `None` if `v` has no in-edge.
    #[inline]
    pub fn first_in_edge(&self, v: u32) -> Option<(u32, usize)> {
        let (u, e) = self.heads[v as usize];
        (u != NO_IN_EDGE.0).then_some((u, e as usize))
    }

    /// The in-edges of `v` after its first: [`ReverseCsr::in_edges`]`(v)`
    /// without the entry [`ReverseCsr::first_in_edge`] returns.
    #[inline]
    pub fn in_edges_after_first(&self, v: u32) -> impl Iterator<Item = (u32, usize)> + '_ {
        let v = v as usize;
        let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
        self.in_edges[(lo + 1).min(hi)..hi]
            .iter()
            .map(|&(u, e)| (u, e as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphGen;

    /// The serial counting sort the member-parallel builds must reproduce
    /// byte for byte.
    fn serial_from_edges(n: usize, edges: &[(u32, u32)], undirected: bool) -> CsrGraph {
        let mut degree = vec![0usize; n];
        for &(u, v) in edges {
            degree[u as usize] += 1;
            if undirected && u != v {
                degree[v as usize] += 1;
            }
        }
        let offsets = prefix_sum(&degree);
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n]];
        for &(u, v) in edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            if undirected && u != v {
                targets[cursor[v as usize]] = u;
                cursor[v as usize] += 1;
            }
        }
        CsrGraph {
            offsets,
            targets: targets.into(),
        }
    }

    /// Serial reference for [`CsrGraph::reverse`].
    fn serial_reverse(g: &CsrGraph) -> ReverseCsr {
        let n = g.num_vertices();
        let mut in_degree = vec![0usize; n];
        for &t in g.targets() {
            in_degree[t as usize] += 1;
        }
        let offsets = prefix_sum(&in_degree);
        let mut cursor = offsets[..n].to_vec();
        let mut in_edges = vec![(0u32, 0u32); g.num_directed_edges()];
        for u in 0..n {
            for e in g.offsets()[u]..g.offsets()[u + 1] {
                let v = g.targets()[e] as usize;
                in_edges[cursor[v]] = (u as u32, e as u32);
                cursor[v] += 1;
            }
        }
        let heads = (0..n)
            .map(|v| {
                let first = offsets[v];
                if first < offsets[v + 1] {
                    in_edges[first]
                } else {
                    NO_IN_EDGE
                }
            })
            .collect();
        ReverseCsr {
            offsets,
            in_edges: in_edges.into(),
            heads,
        }
    }

    fn prefix_sum(counts: &[usize]) -> Box<[usize]> {
        std::iter::once(0)
            .chain(counts.iter().scan(0, |acc, &d| {
                *acc += d;
                Some(*acc)
            }))
            .collect()
    }

    /// Both builds, at every member count and in both directions, equal the
    /// serial reference, and every vertex's head is the first of its
    /// in-edges (`None` for a vertex with none).
    fn assert_builds_match_serial(n: usize, edges: &[(u32, u32)]) {
        for undirected in [false, true] {
            let expect = serial_from_edges(n, edges, undirected);
            let expect_rev = serial_reverse(&expect);
            for members in 1..=4 {
                let g = CsrGraph::from_edges_on(n, edges, undirected, members);
                assert_eq!(
                    g, expect,
                    "from_edges, {members} members, undirected {undirected}"
                );
                let rev = g.reverse_on(members);
                assert_eq!(
                    rev, expect_rev,
                    "reverse, {members} members, undirected {undirected}"
                );
                for v in 0..n as u32 {
                    let mut all = rev.in_edges(v);
                    assert_eq!(
                        rev.first_in_edge(v),
                        all.next(),
                        "head of {v}, {members} members, undirected {undirected}"
                    );
                    assert!(
                        rev.in_edges_after_first(v).eq(all),
                        "tail of {v}, {members} members, undirected {undirected}"
                    );
                }
            }
            assert_eq!(CsrGraph::from_edges(n, edges, undirected), expect);
            assert_eq!(expect.reverse(), expect_rev);
        }
    }

    #[test]
    fn member_builds_match_serial_on_random_graphs() {
        let (scale, m) = if cfg!(miri) { (4, 40) } else { (10, 8_000) };
        let n = 1usize << scale;
        assert_builds_match_serial(n, &GraphGen::new(7).gnm(n, m));
        // Skewed, with duplicates and self-loops.
        assert_builds_match_serial(n, &GraphGen::new(8).rmat_standard(scale, m));
    }

    #[test]
    fn member_builds_match_serial_on_edge_cases() {
        // Empty edge list, and no vertices at all.
        assert_builds_match_serial(0, &[]);
        assert_builds_match_serial(5, &[]);
        // Duplicates, self-loops, and isolated vertices 4 and 6.
        assert_builds_match_serial(
            7,
            &[
                (0, 1),
                (0, 1),
                (2, 2),
                (1, 0),
                (3, 5),
                (5, 5),
                (2, 2),
                (0, 3),
            ],
        );
        // Fewer edges than members: some chunks are empty. Directed, vertex
        // 2 has an out-edge but no in-edge, so its head is the sentinel.
        assert_builds_match_serial(3, &[(2, 0)]);
        // One vertex's run of edges crosses every chunk boundary, so each
        // member owns part of it (out-edges) and, reversed, part of every
        // in-list of the hub; the hub's head comes from a member other
        // than member 0.
        let star: Vec<(u32, u32)> = (1..12)
            .map(|v| (0, v))
            .chain((1..12).map(|v| (v, 0)))
            .collect();
        assert_builds_match_serial(12, &star);
    }

    #[test]
    fn builds_undirected_with_both_directions() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 3)], true);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_directed_edges(), 6);
        let mut n0: Vec<u32> = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 3]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn builds_directed_when_requested() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], false);
        assert_eq!(g.num_directed_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert!(g.neighbors(1).contains(&2));
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn self_loops_stored_once_even_undirected() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)], true);
        assert_eq!(g.neighbors(0).iter().filter(|&&t| t == 0).count(), 1);
        assert_eq!(g.num_directed_edges(), 3);
    }

    #[test]
    fn duplicate_edges_kept() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 1), (1, 2)], true);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 0, 2]);
    }

    #[test]
    fn directed_edges_iterator_roundtrips() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0)];
        let g = CsrGraph::from_edges(3, &edges, true);
        let all: Vec<(u32, u32)> = g.directed_edges().collect();
        assert_eq!(all.len(), 6);
        for &(u, v) in &edges {
            assert!(all.contains(&(u, v)));
            assert!(all.contains(&(v, u)));
        }
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_edges(0, &[], true);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);

        let g = CsrGraph::from_edges(5, &[], true);
        assert_eq!(g.num_directed_edges(), 0);
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn degree_stats() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)], true);
        assert_eq!(g.max_degree(), 3);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_endpoint() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)], true);
    }

    #[test]
    #[should_panic(expected = "edge (3, 9) out of range for n = 4")]
    fn rejects_out_of_range_endpoint_in_last_chunk() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (3, 9)];
        let _ = CsrGraph::from_edges_on(4, &edges, true, 3);
    }

    #[test]
    #[should_panic(expected = "edge (7, 2) out of range for n = 4")]
    fn reports_the_first_out_of_range_edge_across_members() {
        // Bad edges in chunks 1 and 2 of 3: chunk 1's reaches the caller.
        let edges = [(0, 1), (1, 2), (7, 2), (3, 0), (1, 3), (3, 9)];
        let _ = CsrGraph::from_edges_on(4, &edges, true, 3);
    }

    #[test]
    fn offsets_are_the_degree_prefix_sum() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (3, 4)], true);
        for lo in 0..=5 {
            for hi in lo..=5 {
                let expect: usize = (lo..hi).map(|v| g.degree(v as u32)).sum();
                assert_eq!(g.offsets()[hi] - g.offsets()[lo], expect, "{lo}..{hi}");
            }
        }
    }

    #[test]
    fn edge_balanced_blocks_cover_all_vertices_in_order() {
        // Degrees 9, 0, 1, 1, 1, 0: one heavy vertex, more blocks than it.
        let offsets = [0, 9, 9, 10, 11, 12, 12];
        for parts in 1..6 {
            let blocks: Vec<_> = (0..parts)
                .map(|k| edge_balanced_block(&offsets, parts, k))
                .collect();
            assert_eq!(blocks[0].start, 0);
            assert_eq!(blocks[parts - 1].end, 6);
            for w in blocks.windows(2) {
                assert_eq!(w[0].end, w[1].start, "{parts} blocks: {blocks:?}");
            }
        }
        assert_eq!(edge_balanced_block(&offsets, 2, 0), 0..1);
        assert_eq!(edge_balanced_block(&offsets, 2, 1), 1..6);
        assert_eq!(edge_balanced_block(&[0, 0, 0], 3, 2), 0..2);
    }

    #[test]
    fn reverse_records_in_edges_with_provenance() {
        // Directed, so in- and out-views genuinely differ.
        let g = CsrGraph::from_edges(4, &[(0, 2), (1, 2), (2, 3), (3, 2)], false);
        let r = g.reverse();
        assert_eq!(r.num_vertices(), 4);
        assert_eq!(r.in_edges(2).count(), 3);
        assert_eq!(r.in_edges(0).count(), 0);
        for v in 0..4u32 {
            for (u, e) in r.in_edges(v) {
                // Provenance: edge e really is u → v in the original CSR.
                assert!((g.offsets()[u as usize]..g.offsets()[u as usize + 1]).contains(&e));
                assert_eq!(g.targets()[e], v);
            }
        }
        // Every directed edge appears in exactly one in-list.
        let total: usize = (0..4u32).map(|v| r.in_edges(v).count()).sum();
        assert_eq!(total, g.num_directed_edges());
        // In-offsets are the in-degree prefix sum.
        assert_eq!(r.offsets()[4], g.num_directed_edges());
    }

    #[test]
    fn reverse_of_undirected_preserves_neighbor_multisets() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 1), (1, 2), (2, 0)], true);
        let r = g.reverse();
        for v in 0..4u32 {
            let mut out: Vec<u32> = g.neighbors(v).to_vec();
            let inc: Vec<u32> = r.in_edges(v).map(|(u, _)| u).collect();
            out.sort_unstable();
            assert_eq!(out, inc, "vertex {v}: in-list sorted by source");
        }
    }
}
