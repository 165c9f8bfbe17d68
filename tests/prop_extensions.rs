//! Property tests for the extension kernels: tournament reduction and
//! maximal matching, plus the agreement between the CRCW and EREW maximum
//! implementations.

use pram_algos::matching::{maximal_matching, verify_matching};
use pram_algos::reduce::max_index_tournament;
use pram_algos::{max_index, CwMethod};
use pram_exec::ThreadPool;
use pram_graph::{serial, CsrGraph, GraphGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn tournament_and_crcw_max_always_agree(
        values in proptest::collection::vec(any::<u64>(), 1..150),
        threads in 1usize..5,
    ) {
        let pool = ThreadPool::new(threads);
        let expect = serial::max_index_paper_tiebreak(&values);
        prop_assert_eq!(max_index_tournament(&values, &pool), expect);
        prop_assert_eq!(max_index(&values, CwMethod::CasLt, &pool), expect);
    }

    #[test]
    fn matching_is_valid_and_maximal_on_random_graphs(
        seed in any::<u64>(),
        n in 2usize..80,
        density in 0usize..5,
        threads in 1usize..5,
    ) {
        let edges = GraphGen::new(seed).gnm(n, n * density);
        let g = CsrGraph::from_edges(n, &edges, true);
        let pool = ThreadPool::new(threads);
        for m in [CwMethod::CasLt, CwMethod::Gatekeeper, CwMethod::Lock] {
            let r = maximal_matching(&g, m, &pool);
            prop_assert!(
                verify_matching(&g, &r).is_ok(),
                "{}: {}", m, verify_matching(&g, &r).unwrap_err()
            );
        }
    }

    #[test]
    fn matching_pairs_at_least_half_of_any_maximal(
        seed in any::<u64>(),
        n in 2usize..60,
    ) {
        // Any maximal matching is a 2-approximation of maximum: comparing
        // two independently computed maximal matchings, neither can be
        // more than twice the other.
        let edges = GraphGen::new(seed).gnm(n, n * 2);
        let g = CsrGraph::from_edges(n, &edges, true);
        let pool = ThreadPool::new(3);
        let a = maximal_matching(&g, CwMethod::CasLt, &pool);
        let b = maximal_matching(&g, CwMethod::Lock, &pool);
        prop_assert!(a.pairs <= 2 * b.pairs.max(1) || b.pairs == 0);
        prop_assert!(b.pairs <= 2 * a.pairs.max(1) || a.pairs == 0);
    }
}
