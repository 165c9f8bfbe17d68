//! Maximal matching by arbitrary concurrent writes — an extension kernel
//! in the lineage of the paper's citation \[23\] (randomized parallel
//! maximal matching).
//!
//! Each round, every edge whose endpoints are both free tries to **claim
//! both endpoint cells** for the round (lower vertex first); the edge that
//! wins both commits the match — a two-cell, two-array arbitrary
//! concurrent write. A half-claimed vertex (its edge won one endpoint but
//! lost the other) is simply stuck *for this round*: advancing the round
//! re-arms it at zero cost, which is exactly the CAS-LT property the paper
//! contributes — a lock-based design would need rollback, and the
//! gatekeeper design pays a full reset pass per round.
//!
//! **Progress:** every round in which a free edge exists commits at least
//! one match. (Suppose not: then every edge that won its lower endpoint
//! lost its higher one to an edge that won it as *its* lower endpoint —
//! following those losses visits strictly increasing vertex ids, so the
//! chain ends at an edge whose higher claim cannot have been lost. ∎)
//! Hence at most ⌊n/2⌋ + 1 rounds.

use std::sync::atomic::{AtomicU32, Ordering};

use pram_core::SliceArbiter;
use pram_exec::ThreadPool;
use pram_graph::CsrGraph;

use crate::method::{dispatch_method, CwMethod};

/// Sentinel: vertex not matched.
pub const UNMATCHED: u32 = u32::MAX;

/// Output of [`maximal_matching`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchingResult {
    /// `partner[v]` = matched neighbor, or [`UNMATCHED`].
    pub partner: Vec<u32>,
    /// Rounds executed.
    pub rounds: u32,
    /// Matched pairs.
    pub pairs: usize,
}

/// Compute a maximal matching under the given concurrent-write method.
///
/// Requires a single-winner method: the two-cell claim protocol is unsound
/// under [`CwMethod::Naive`] (two "winners" of one vertex commit
/// conflicting partners), so naive is rejected.
///
/// # Panics
/// Panics if `method == CwMethod::Naive`.
pub fn maximal_matching(g: &CsrGraph, method: CwMethod, pool: &ThreadPool) -> MatchingResult {
    assert!(
        method.single_winner(),
        "maximal matching performs multi-cell arbitrary writes; the naive method is unsound here"
    );
    dispatch_method!(method, g.num_vertices(), |arb| matching_with_arbiter(
        g, &arb, pool
    ))
}

/// The kernel against an explicit arbiter (one cell per vertex).
fn matching_with_arbiter<A: SliceArbiter>(
    g: &CsrGraph,
    arb: &A,
    pool: &ThreadPool,
) -> MatchingResult {
    let n = g.num_vertices();
    assert_eq!(arb.len(), n, "arbiter must span one cell per vertex");
    // Each undirected edge once: keep the (u < v) direction.
    let edges: Vec<(u32, u32)> = g.directed_edges().filter(|&(u, v)| u < v).collect();
    let m = edges.len();

    let partner: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNMATCHED)).collect();

    let max_rounds = (n as u32) / 2 + 2;
    let c = pool.run(|ctx| {
        ctx.converge_rounds(max_rounds.max(1), [0, 0], |round, _| {
            let mut matched = 0;
            ctx.for_each_nowait(0..m, |e| {
                let (u, v) = edges[e];
                if partner[u as usize].load(Ordering::Relaxed) != UNMATCHED
                    || partner[v as usize].load(Ordering::Relaxed) != UNMATCHED
                {
                    return;
                }
                // Two-cell claim, lower id first. Losing the second claim
                // wastes the first for this round only — the round advance
                // re-arms it for free.
                if pram_core::try_claim_all(arb, &[u as usize, v as usize], round) {
                    partner[u as usize].store(v, Ordering::Relaxed);
                    partner[v as usize].store(u, Ordering::Relaxed);
                    matched += 1;
                }
            });
            ctx.rearm(arb, true);
            [matched, 0]
        })
    });
    debug_assert!(c.converged, "progress bound violated");

    let partner: Vec<u32> = partner.into_iter().map(AtomicU32::into_inner).collect();
    let pairs = partner.iter().filter(|&&p| p != UNMATCHED).count() / 2;
    MatchingResult {
        partner,
        rounds: c.rounds,
        pairs,
    }
}

/// Verify validity (partners are symmetric, adjacent, exclusive) and
/// maximality (no edge has two free endpoints).
pub fn verify_matching(g: &CsrGraph, r: &MatchingResult) -> Result<(), String> {
    let n = g.num_vertices();
    if r.partner.len() != n {
        return Err("partner array length mismatch".into());
    }
    for v in 0..n {
        let p = r.partner[v];
        if p == UNMATCHED {
            continue;
        }
        if p as usize >= n {
            return Err(format!("partner[{v}] = {p} out of range"));
        }
        if r.partner[p as usize] != v as u32 {
            return Err(format!(
                "asymmetric match: partner[{v}] = {p} but partner[{p}] = {}",
                r.partner[p as usize]
            ));
        }
        if !g.neighbors(v as u32).contains(&p) {
            return Err(format!("matched pair ({v}, {p}) is not an edge"));
        }
    }
    for (u, v) in g.directed_edges() {
        if r.partner[u as usize] == UNMATCHED && r.partner[v as usize] == UNMATCHED {
            return Err(format!(
                "not maximal: edge ({u}, {v}) has two free endpoints"
            ));
        }
    }
    let matched = r.partner.iter().filter(|&&p| p != UNMATCHED).count();
    if matched / 2 != r.pairs {
        return Err(format!(
            "pair count {} disagrees with array ({matched} matched)",
            r.pairs
        ));
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

    fn single_winner() -> impl Iterator<Item = CwMethod> {
        CwMethod::ALL.into_iter().filter(|m| m.single_winner())
    }

    #[test]
    fn structured_graphs_all_methods() {
        let pool = ThreadPool::new(4);
        let cases = vec![
            graph(2, &[(0, 1)]),
            graph(6, &GraphGen::path(6)),
            graph(7, &GraphGen::path(7)),
            graph(8, &GraphGen::star(8)),
            graph(6, &GraphGen::cycle(6)),
            graph(5, &GraphGen::complete(5)),
            graph(12, &GraphGen::grid(3, 4)),
            graph(4, &[]),
        ];
        for g in &cases {
            for m in single_winner() {
                let r = maximal_matching(g, m, &pool);
                verify_matching(g, &r).unwrap_or_else(|e| panic!("{m}: {e}"));
            }
        }
    }

    #[test]
    fn star_matches_exactly_one_pair() {
        let pool = ThreadPool::new(4);
        let g = graph(10, &GraphGen::star(10));
        let r = maximal_matching(&g, CwMethod::CasLt, &pool);
        assert_eq!(r.pairs, 1, "a star's maximal matching is a single edge");
        verify_matching(&g, &r).unwrap();
    }

    #[test]
    fn even_path_matches_perfectly_or_maximally() {
        let pool = ThreadPool::new(2);
        let g = graph(8, &GraphGen::path(8));
        let r = maximal_matching(&g, CwMethod::CasLt, &pool);
        verify_matching(&g, &r).unwrap();
        // A maximal matching on P8 has 2..=4 pairs; never fewer than
        // ceil(maximum/2) = 2.
        assert!((2..=4).contains(&r.pairs), "pairs = {}", r.pairs);
    }

    #[test]
    fn random_graphs_and_pools() {
        for seed in 0..4u64 {
            let edges = GraphGen::new(seed).gnm(100, 250);
            let g = graph(100, &edges);
            for threads in [1, 4] {
                let pool = ThreadPool::new(threads);
                for m in [CwMethod::CasLt, CwMethod::Gatekeeper, CwMethod::Lock] {
                    let r = maximal_matching(&g, m, &pool);
                    verify_matching(&g, &r)
                        .unwrap_or_else(|e| panic!("seed {seed} {m} t{threads}: {e}"));
                }
            }
        }
    }

    #[test]
    fn rounds_respect_progress_bound() {
        let pool = ThreadPool::new(4);
        let g = graph(64, &GraphGen::complete(64));
        let r = maximal_matching(&g, CwMethod::CasLt, &pool);
        verify_matching(&g, &r).unwrap();
        assert!(r.rounds <= 64 / 2 + 2);
        assert_eq!(r.pairs, 32, "complete K64 matches perfectly");
    }

    #[test]
    #[should_panic(expected = "unsound")]
    fn naive_is_rejected() {
        let pool = ThreadPool::new(1);
        let g = graph(2, &[(0, 1)]);
        let _ = maximal_matching(&g, CwMethod::Naive, &pool);
    }
}
