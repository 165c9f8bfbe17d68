//! Moderate-scale end-to-end soak: every kernel on a graph big enough to
//! exercise many rounds, oversubscribed threads, and real claim collisions,
//! with full verification. (Paper-scale runs live in the bench harness;
//! this keeps `cargo test` minutes-bounded while still leaving toy sizes.)

use pram_algos::bfs::{bfs, verify_bfs_tree};
use pram_algos::cc::{connected_components, verify_cc};
use pram_algos::matching::{maximal_matching, verify_matching};
use pram_algos::CwMethod;
use pram_exec::ThreadPool;
use pram_graph::{CsrGraph, GraphGen};

fn big_graph() -> CsrGraph {
    let n = 50_000;
    let edges = GraphGen::new(2026).gnm(n, 250_000);
    CsrGraph::from_edges(n, &edges, true)
}

#[test]
fn bfs_at_scale_all_paper_methods() {
    let g = big_graph();
    let pool = ThreadPool::new(8);
    for m in [CwMethod::Gatekeeper, CwMethod::CasLt] {
        let r = bfs(&g, 17, m, &pool);
        verify_bfs_tree(&g, 17, &r).unwrap_or_else(|e| panic!("{m}: {e}"));
    }
    // Naive: distances still correct.
    let r = bfs(&g, 17, CwMethod::Naive, &pool);
    pram_algos::bfs::verify_bfs_levels(&g, 17, &r).unwrap();
}

#[test]
fn cc_at_scale_gatekeeper_vs_caslt() {
    let g = big_graph();
    let pool = ThreadPool::new(8);
    for m in [CwMethod::Gatekeeper, CwMethod::CasLt] {
        let r = connected_components(&g, m, &pool);
        verify_cc(&g, &r).unwrap_or_else(|e| panic!("{m}: {e}"));
        assert!(r.converged);
    }
}

#[test]
fn matching_at_scale() {
    let g = big_graph();
    let pool = ThreadPool::new(8);
    let m = maximal_matching(&g, CwMethod::CasLt, &pool);
    verify_matching(&g, &m).unwrap();
    // A 250K-edge random graph on 50K vertices matches most vertices.
    assert!(m.pairs > 10_000, "suspiciously small matching: {}", m.pairs);
}

#[test]
fn rmat_at_scale_with_heavy_skew() {
    // Hubs concentrate claims: the adversarial case for arbitration.
    let edges = GraphGen::new(7).rmat_standard(14, 200_000);
    let g = CsrGraph::from_edges(1 << 14, &edges, true);
    let pool = ThreadPool::new(8);
    let r = connected_components(&g, CwMethod::CasLt, &pool);
    verify_cc(&g, &r).unwrap();
    let b = bfs(&g, 0, CwMethod::CasLt, &pool);
    verify_bfs_tree(&g, 0, &b).unwrap();
}

/// Graphs in [`cc_protocol_sweep_on_small_graphs`]: each runs AS on two
/// oversubscribed teams under three methods.
const SWEEP_GRAPHS: u64 = 1600;

/// Awerbuch–Shiloach's stars, stamps, alternating parent arrays, compress
/// walk and fixed-point exit under real interleavings: many small graphs of
/// 20–420 vertices (sparse and dense multigraphs, random forests, and
/// randomly relabelled cycles, grids, paths, caterpillars and binary trees)
/// on 3- and 4-member teams, under every single-winner method, each result
/// checked for labels and two-array hook consistency. The relabelled chains
/// hook into deep trees whose vertices race to the root in one compress.
#[test]
fn cc_protocol_sweep_on_small_graphs() {
    let pools = [ThreadPool::new(3), ThreadPool::new(4)];
    for seed in 0..SWEEP_GRAPHS {
        let n = 20 + (seed as usize * 97) % 401;
        let mut gen = GraphGen::new(seed);
        let (n, edges) = match seed % 8 {
            0 => (n, gen.gnm(n, n / 2)),
            1 => (n, gen.gnm(n, 4 * n)),
            2 => (n, gen.random_forest(n, 0.8)),
            3 => (n, GraphGen::cycle(n)),
            4 => {
                let rows = 2 + seed as usize % 9;
                let n = rows * (n / rows);
                (n, GraphGen::grid(rows, n / rows))
            }
            5 => (n, GraphGen::path(n)),
            6 => {
                let legs = 1 + seed as usize % 3;
                let spine = n / (legs + 1);
                (spine * (legs + 1), GraphGen::caterpillar(spine, legs))
            }
            _ => (n, GraphGen::binary_tree(n)),
        };
        let edges = if seed % 8 < 3 {
            edges
        } else {
            gen.relabel(n, &edges)
        };
        let g = CsrGraph::from_edges(n, &edges, true);
        for pool in &pools {
            for m in [CwMethod::CasLt, CwMethod::Gatekeeper, CwMethod::Lock] {
                let r = connected_components(&g, m, pool);
                verify_cc(&g, &r).unwrap_or_else(|e| {
                    panic!(
                        "graph {seed} (n = {n}, kind {}), T = {}, {m}: {e}",
                        seed % 8,
                        pool.num_threads()
                    )
                });
            }
        }
    }
}
