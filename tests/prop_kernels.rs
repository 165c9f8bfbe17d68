//! Property tests for whole kernels: random workloads, every
//! concurrent-write method, varying team sizes — always checked against
//! the serial ground truth.

use pram_algos::bfs::{bfs, bfs_with_strategy, verify_bfs_tree, BfsStrategy};
use pram_algos::cc::{connected_components, verify_cc};
use pram_algos::{max_index, CwMethod};
use pram_exec::ThreadPool;
use pram_graph::{serial, CsrGraph, GraphGen};
use proptest::prelude::*;

fn arb_method() -> impl Strategy<Value = CwMethod> {
    prop::sample::select(CwMethod::ALL.to_vec())
}

fn single_winner_method() -> impl Strategy<Value = CwMethod> {
    prop::sample::select(
        CwMethod::ALL
            .into_iter()
            .filter(|m| m.single_winner())
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn max_matches_reference(
        values in proptest::collection::vec(any::<u64>(), 1..120),
        method in arb_method(),
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let got = max_index(&values, method, &pool);
        prop_assert_eq!(got, serial::max_index_paper_tiebreak(&values));
    }

    #[test]
    fn bfs_trees_are_valid_on_random_graphs(
        seed in any::<u64>(),
        n in 2usize..80,
        density in 1usize..6,
        method in single_winner_method(),
        threads in 1usize..5,
    ) {
        let m = n * density;
        let edges = GraphGen::new(seed).gnm(n, m);
        let g = CsrGraph::from_edges(n, &edges, true);
        let pool = ThreadPool::new(threads);
        let source = (seed % n as u64) as u32;
        let r = bfs(&g, source, method, &pool);
        prop_assert!(verify_bfs_tree(&g, source, &r).is_ok(),
            "{}", verify_bfs_tree(&g, source, &r).unwrap_err());
    }

    #[test]
    fn cc_matches_union_find_on_random_graphs(
        seed in any::<u64>(),
        n in 2usize..80,
        density in 0usize..5,
        method in single_winner_method(),
        threads in 1usize..5,
    ) {
        let edges = GraphGen::new(seed).gnm(n, n * density);
        let g = CsrGraph::from_edges(n, &edges, true);
        let pool = ThreadPool::new(threads);
        let r = connected_components(&g, method, &pool);
        prop_assert!(verify_cc(&g, &r).is_ok(), "{}", verify_cc(&g, &r).unwrap_err());
    }

    #[test]
    fn cc_on_forests_and_rmat(
        seed in any::<u64>(),
        scale in 3u32..8,
    ) {
        let n = 1usize << scale;
        let forest = GraphGen::new(seed).random_forest(n, 0.6);
        let rmat = GraphGen::new(seed).rmat_standard(scale, n * 4);
        let graphs = [
            ("forest", CsrGraph::from_edges(n, &forest, true)),
            ("rmat", CsrGraph::from_edges(n, &rmat, true)),
        ];
        // 1..5 members split the skewed R-MAT degrees into edge-balanced
        // vertex blocks, including more members than heavy vertices.
        for threads in 1usize..5 {
            let pool = ThreadPool::new(threads);
            for method in CwMethod::ALL.into_iter().filter(|m| m.single_winner()) {
                for (name, g) in &graphs {
                    let r = connected_components(g, method, &pool);
                    let ok = verify_cc(g, &r);
                    prop_assert!(ok.is_ok(), "{}/{}/T={}: {}", name, method, threads, ok.unwrap_err());
                }
            }
        }
    }

    // Direction-optimizing BFS is observationally equivalent to the
    // paper's dense scan: identical `level` vectors, and a valid (not
    // necessarily identical — tie-breaks differ) parent/sel_edge tree,
    // under every single-winner method.
    #[test]
    fn bfs_strategies_agree_with_dense_reference(
        seed in any::<u64>(),
        n in 2usize..80,
        density in 1usize..6,
        method in single_winner_method(),
        threads in 1usize..5,
    ) {
        let edges = GraphGen::new(seed).gnm(n, n * density);
        let g = CsrGraph::from_edges(n, &edges, true);
        let pool = ThreadPool::new(threads);
        let source = (seed % n as u64) as u32;
        let dense = bfs_with_strategy(&g, source, method, BfsStrategy::DenseScan, &pool);
        let r = bfs_with_strategy(&g, source, method, BfsStrategy::DirectionOptimizing, &pool);
        prop_assert_eq!(&r.level, &dense.level,
            "direction-optimizing diverges from dense levels under {}", method);
        prop_assert_eq!(r.rounds, dense.rounds);
        let tree = verify_bfs_tree(&g, source, &r);
        prop_assert!(tree.is_ok(), "{}: {}", method, tree.unwrap_err());
    }

    #[test]
    fn bfs_strategies_agree_on_skewed_rmat(
        seed in any::<u64>(),
        scale in 3u32..8,
        method in single_winner_method(),
    ) {
        let n = 1usize << scale;
        let edges = GraphGen::new(seed).rmat_standard(scale, n * 6);
        let g = CsrGraph::from_edges(n, &edges, true);
        let pool = ThreadPool::new(4);
        let dense = bfs_with_strategy(&g, 0, method, BfsStrategy::DenseScan, &pool);
        let r = bfs_with_strategy(&g, 0, method, BfsStrategy::DirectionOptimizing, &pool);
        prop_assert_eq!(&r.level, &dense.level,
            "direction-optimizing diverges from dense levels under {}", method);
        let tree = verify_bfs_tree(&g, 0, &r);
        prop_assert!(tree.is_ok(), "{}: {}", method, tree.unwrap_err());
    }

}
