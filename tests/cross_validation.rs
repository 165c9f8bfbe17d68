//! Cross-validation: the threaded kernels against the ideal PRAM machine
//! and the serial references — the workspace's end-to-end semantic check.
//!
//! For each workload we compute the answer three ways:
//!   1. the threaded kernel on the `pram-exec` substrate (per CW method),
//!   2. the same algorithm interpreted on the `pram-sim` ideal machine,
//!   3. the serial reference in `pram-graph`,
//!
//! and require all three to agree.

use pram_algos::cc::verify_cc;
use pram_algos::{bfs, connected_components, max_index, CwMethod};
use pram_exec::ThreadPool;
use pram_graph::{serial, CsrGraph, GraphGen};
use pram_sim::programs;
use pram_sim::WriteRule;

fn pools() -> Vec<ThreadPool> {
    vec![ThreadPool::new(1), ThreadPool::new(3), ThreadPool::new(8)]
}

#[test]
fn max_agrees_across_all_three_implementations() {
    let values_u: Vec<u64> = (0..80).map(|i: u64| (i * 37) % 23).collect();
    let values_i: Vec<i64> = values_u.iter().map(|&v| v as i64).collect();

    let ideal = programs::constant_time_max(&values_i, WriteRule::Common)
        .unwrap()
        .output;
    let reference = serial::max_index_paper_tiebreak(&values_u);
    assert_eq!(ideal, reference, "ideal machine vs serial reference");

    for pool in pools() {
        for m in CwMethod::ALL {
            assert_eq!(
                max_index(&values_u, m, &pool),
                reference,
                "threaded {m} on {} threads",
                pool.num_threads()
            );
        }
    }
}

#[test]
fn bfs_agrees_across_all_three_implementations() {
    let n = 150;
    let edges = GraphGen::new(5).gnm(n, 400);
    let g = CsrGraph::from_edges(n, &edges, true);

    // Ideal machine (usize directed edge pairs).
    let directed: Vec<(usize, usize)> = g
        .directed_edges()
        .map(|(u, v)| (u as usize, v as usize))
        .collect();
    let ideal = programs::bfs_levels(n, &directed, 0, WriteRule::Common)
        .unwrap()
        .output;

    // Serial reference.
    let reference = serial::bfs_levels(&g, 0);
    for v in 0..n {
        let serial_level = reference[v];
        let ideal_level = ideal[v];
        if serial_level == u32::MAX {
            assert_eq!(ideal_level, -1, "vertex {v} reachability");
        } else {
            assert_eq!(ideal_level, i64::from(serial_level), "vertex {v} level");
        }
    }

    // Threaded kernels.
    for pool in pools() {
        for m in CwMethod::ALL {
            let r = bfs(&g, 0, m, &pool);
            assert_eq!(
                r.level,
                reference,
                "threaded {m} on {} threads",
                pool.num_threads()
            );
        }
    }
}

#[test]
fn cc_labels_match_union_find_across_pools_and_methods() {
    let n = 200;
    for seed in [1u64, 2] {
        let edges = GraphGen::new(seed).gnm(n, 350);
        let g = CsrGraph::from_edges(n, &edges, true);
        let directed: Vec<(u32, u32)> = g.directed_edges().collect();
        let reference = serial::cc_labels(n, &directed);
        for pool in pools() {
            for m in [CwMethod::CasLt, CwMethod::Gatekeeper, CwMethod::Lock] {
                let r = connected_components(&g, m, &pool);
                assert_eq!(
                    r.labels,
                    reference,
                    "{m} on {} threads, seed {seed}",
                    pool.num_threads()
                );
            }
        }
    }
}

#[test]
fn threaded_bfs_parents_are_admissible_arbitrary_outcomes() {
    // Arbitrary CW means *some* competing writer's value commits. For BFS
    // parents this is checkable: parent[u] must be a frontier vertex of the
    // previous level adjacent to u — i.e. one of the writers that raced for
    // u. Every single-winner method must pick from that set; which one is
    // free (that's the "arbitrary").
    let n = 120;
    let edges = GraphGen::new(9).gnm(n, 500);
    let g = CsrGraph::from_edges(n, &edges, true);
    let reference = serial::bfs_levels(&g, 0);
    let pool = ThreadPool::new(4);

    for m in CwMethod::ALL.into_iter().filter(|m| m.single_winner()) {
        let r = bfs(&g, 0, m, &pool);
        for u in 0..n {
            if u as u32 == 0 || reference[u] == u32::MAX {
                continue;
            }
            let p = r.parent[u];
            assert!(
                g.neighbors(p).contains(&(u as u32)),
                "{m}: parent {p} of {u} is not adjacent"
            );
            assert_eq!(
                reference[p as usize] + 1,
                reference[u],
                "{m}: parent {p} of {u} is not a previous-level writer"
            );
        }
    }
}

#[test]
fn facade_prelude_exposes_the_working_surface() {
    use crcw_pram::prelude::*;
    let pool = ThreadPool::new(2);
    let edges = GraphGen::new(0).gnm(50, 120);
    let g = CsrGraph::from_edges(50, &edges, true);
    let r = pram_algos::bfs(&g, 0, CwMethod::CasLt, &pool);
    assert_eq!(r.level[0], 0);

    let cells = CasLtArray::new(4);
    assert!(cells.try_claim(0, Round::FIRST));
    let mut counter = RoundCounter::new();
    assert_eq!(counter.next_round().unwrap(), Round::FIRST);
    let naive = NaiveArbiter::new(2);
    assert!(naive.try_claim(1, Round::FIRST));
    let _ = Schedule::default();
}

#[test]
fn ideal_sv_and_threaded_as_produce_identical_labels() {
    // The ideal machine's Shiloach–Vishkin and the threaded
    // Awerbuch–Shiloach both label every vertex with its component minimum,
    // so the outputs must be *equal*, not merely equivalent — regardless of
    // which arbitrary winner either implementation elected along the way.
    let n = 120;
    for seed in [3u64, 4] {
        let edges = GraphGen::new(seed).gnm(n, 260);
        let g = CsrGraph::from_edges(n, &edges, true);
        let directed: Vec<(usize, usize)> = g
            .directed_edges()
            .map(|(u, v)| (u as usize, v as usize))
            .collect();
        let ideal = programs::sv_components(
            n,
            &directed,
            WriteRule::Arbitrary(pram_sim::ArbitraryPolicy::Seeded(seed)),
        )
        .unwrap()
        .output;
        let pool = ThreadPool::new(4);
        let threaded = pram_algos::connected_components(&g, CwMethod::CasLt, &pool);
        verify_cc(&g, &threaded).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(threaded.labels, ideal, "seed {seed}");
        // And both equal the union-find ground truth.
        let expect = serial::cc_labels(n, &g.directed_edges().collect::<Vec<_>>());
        assert_eq!(ideal, expect);
    }
}
