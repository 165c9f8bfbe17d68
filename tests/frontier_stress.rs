//! Stress: frontier-centric BFS never commits a mixed `parent`/`sel_edge`
//! pair.
//!
//! The companion of `torn_writes.rs`, at kernel scale: the three-word
//! discovery write (`parent[u]`, `sel_edge[u]`, `level[u]`; a level other
//! than `UNREACHED` is also the visited mark) is exactly the multi-word
//! structure the paper's §4 warns can commit as "a structure that does not
//! match any of the ones being written". The team writes those arrays'
//! sentinels itself, each member its own block, before round 1. The push
//! expansions — the dense scan and direction-optimizing BFS's sparse
//! rounds, whose hub edges are split over several members — maximize the
//! hazard window, with many expanders racing for the same high-degree
//! targets, and the bottom-up pull moves the write to a different loop
//! shape entirely. Under every single-winner
//! method, `verify_bfs_tree` must still find each `sel_edge[u]` inside
//! parent `parent[u]`'s CSR range and targeting `u`: a mixture from two
//! writers would name an edge the parent does not own.

use std::collections::HashSet;

use pram_algos::bfs::{bfs_with_strategy, verify_bfs_levels, verify_bfs_tree, BfsStrategy};
use pram_algos::CwMethod;
use pram_exec::schedule::static_block;
use pram_exec::{FrontierBuffer, LocalBuffer, PoolConfig, SpinBarrier, ThreadPool};
use pram_graph::{CsrGraph, GraphGen};

/// Repetitions per configuration; raise via STRESS_REPS for soak runs.
fn reps() -> usize {
    std::env::var("STRESS_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
}

fn single_winner_methods() -> impl Iterator<Item = CwMethod> {
    CwMethod::ALL.into_iter().filter(|m| m.single_winner())
}

/// The team writes the state's sentinels, each member its own static
/// block, before round 1. On n below T and n not a multiple of T, the
/// source is the last vertex, so it sits in the last member's nonempty
/// block, and the first vertex of every other block is isolated, so each
/// member's sentinels are read back where no discovery overwrites them.
/// A spoke from the source to every linked vertex makes round 1 claim
/// into every block.
#[test]
fn every_members_fill_lands_before_round_one() {
    for t in 1..=4 {
        let pool = ThreadPool::new(t);
        for n in [1usize, 2, 3, 5, 65, 129] {
            let source = n - 1;
            let isolated: Vec<usize> = (0..t)
                .map(|id| static_block(n, t, id))
                .filter(|b| !b.is_empty() && !b.contains(&source))
                .map(|b| b.start)
                .collect();
            let linked: Vec<u32> = (0..n as u32)
                .filter(|&v| !isolated.contains(&(v as usize)))
                .collect();
            let mut edges: Vec<(u32, u32)> = linked.windows(2).map(|w| (w[0], w[1])).collect();
            edges.extend(linked.iter().map(|&v| (source as u32, v)));
            let g = CsrGraph::from_edges(n, &edges, true);
            for method in single_winner_methods() {
                for strategy in BfsStrategy::ALL {
                    let r = bfs_with_strategy(&g, source as u32, method, strategy, &pool);
                    verify_bfs_tree(&g, source as u32, &r)
                        .unwrap_or_else(|e| panic!("T={t} n={n} {method}/{strategy}: {e}"));
                }
            }
        }
    }
}

/// Skewed R-MAT: hub vertices give thousands of concurrent claimants per
/// target in the push rounds and dense pull rounds in the DO phase.
#[test]
fn rmat_discovery_writes_are_never_torn() {
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));
    let pool = ThreadPool::new(threads);
    let n = 1usize << 11;
    for rep in 0..reps() {
        let edges = GraphGen::new(0xF0 + rep as u64).rmat_standard(11, n * 8);
        let g = CsrGraph::from_edges(n, &edges, true);
        for method in single_winner_methods() {
            for strategy in BfsStrategy::ALL {
                let r = bfs_with_strategy(&g, 0, method, strategy, &pool);
                verify_bfs_tree(&g, 0, &r)
                    .unwrap_or_else(|e| panic!("rep {rep} {method}/{strategy}: {e}"));
            }
        }
    }
}

/// A star is the worst case for claim contention: every leaf is claimed in
/// the same round, and with duplicate spokes each leaf has several distinct
/// candidate (parent, sel_edge) pairs in flight at once.
#[test]
fn star_multigraph_claims_stay_consistent() {
    let pool = ThreadPool::new(8);
    let n = 4096;
    let mut edges = GraphGen::star(n);
    edges.extend(GraphGen::star(n)); // duplicate every spoke
    let g = CsrGraph::from_edges(n, &edges, true);
    for rep in 0..reps() {
        for method in single_winner_methods() {
            for strategy in BfsStrategy::ALL {
                let r = bfs_with_strategy(&g, 0, method, strategy, &pool);
                verify_bfs_tree(&g, 0, &r)
                    .unwrap_or_else(|e| panic!("rep {rep} {method}/{strategy}: {e}"));
            }
        }
    }
}

/// Dense G(n, m) multigraphs: duplicate edges mean racing writers propose
/// *different* sel_edge values for the same (parent, child) pair, so a torn
/// commit is observable even when both writers agree on the parent.
#[test]
fn gnm_multigraph_discovery_is_single_winner() {
    let pool = ThreadPool::new(8);
    for rep in 0..reps() {
        let n = 1500;
        let edges = GraphGen::new(0xAB + rep as u64).gnm(n, n * 12);
        let g = CsrGraph::from_edges(n, &edges, true);
        for method in single_winner_methods() {
            for strategy in BfsStrategy::ALL {
                let r = bfs_with_strategy(&g, 7, method, strategy, &pool);
                verify_bfs_tree(&g, 7, &r)
                    .unwrap_or_else(|e| panic!("rep {rep} {method}/{strategy}: {e}"));
            }
        }
    }
}

/// The worklist substrate under maximal publication contention: many
/// threads with deliberately ragged flush thresholds (1, 2, 3, …: some
/// publish on every push, some in large bursts) interleaving threshold
/// flushes with explicit mid-stream flushes. Every appended vertex must
/// appear in the shared buffer exactly once — a duplicated or dropped
/// vertex here becomes a wrong BFS frontier upstream.
#[test]
fn contended_local_buffer_flush_neither_drops_nor_duplicates() {
    let threads = 8u64;
    let per_thread = 5_000u64;
    for rep in 0..reps() as u64 {
        let fb = FrontierBuffer::with_capacity((threads * per_thread) as usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let fb = &fb;
                s.spawn(move || {
                    // Thread t flushes every t+1 pushes; also force an
                    // explicit flush at irregular points mid-stream.
                    let mut local = LocalBuffer::with_threshold(t as usize + 1);
                    for i in 0..per_thread {
                        local.push(t * per_thread + i, fb);
                        if i % (97 + t * 13 + rep) == 0 {
                            local.flush(fb);
                        }
                    }
                    local.flush(fb);
                    assert_eq!(local.staged(), 0, "flush must drain the staging buffer");
                });
            }
        });
        assert_eq!(
            fb.len(),
            (threads * per_thread) as usize,
            "rep {rep}: dropped entries"
        );
        let all = fb.to_vec();
        let distinct: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            all.len(),
            "rep {rep}: duplicated entries in the published frontier"
        );
        assert!(
            distinct.iter().all(|&x| x < threads * per_thread),
            "rep {rep}: out-of-range entry (torn publication)"
        );
    }
}

/// The frontier's reuse cycle across rounds, synchronized the way the
/// kernels do it: publish — barrier (last arriver snapshots and clears) —
/// publish again. Clearing in the `wait_with` closure is the race-free
/// slot, so every round must see exactly its own entries across many
/// reuses of the same barrier object.
#[test]
fn barrier_reuse_across_rounds_isolates_frontier_generations() {
    let threads = 6u64;
    let rounds = 200u64;
    let fb = FrontierBuffer::with_capacity((threads * rounds) as usize);
    let barrier = SpinBarrier::new(threads as usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let fb = &fb;
            let barrier = &barrier;
            s.spawn(move || {
                for round in 0..rounds {
                    // Round-opening rendezvous: the previous round's
                    // clear happens-before these publishes.
                    barrier.wait();
                    fb.publish(&[round * threads + t]);
                    // Round-closing rendezvous: the last arriver
                    // checks this round's frontier and recycles it.
                    barrier.wait_with(|| {
                        let mut seen = fb.to_vec();
                        seen.sort_unstable();
                        let expected: Vec<u64> =
                            (0..threads).map(|u| round * threads + u).collect();
                        assert_eq!(
                            seen, expected,
                            "round {round}: frontier polluted across reuse"
                        );
                        fb.clear();
                    });
                }
            });
        }
    });
    assert!(fb.is_empty(), "final clear must leave the buffer empty");
    assert!(!barrier.is_poisoned());
}

/// Naive writes stay correct on the *common*-write component (levels) even
/// under frontier strategies — the paper's reason Rodinia "works" — while
/// the tree checks are only promised by single-winner methods.
#[test]
fn naive_levels_survive_frontier_strategies() {
    let pool = ThreadPool::new(8);
    for rep in 0..reps() {
        let n = 1usize << 10;
        let edges = GraphGen::new(0x51 + rep as u64).rmat_standard(10, n * 6);
        let g = CsrGraph::from_edges(n, &edges, true);
        for strategy in BfsStrategy::ALL {
            let r = bfs_with_strategy(&g, 0, CwMethod::Naive, strategy, &pool);
            verify_bfs_levels(&g, 0, &r)
                .unwrap_or_else(|e| panic!("rep {rep} naive/{strategy}: {e}"));
        }
    }
}

/// Pending bits that a push round leaves stale. Two 1,000-leaf stars,
/// joined by a 30-vertex path that starts at a leaf of the first and ends
/// next to the second centre, searched from the first centre. The first
/// pull finds the first star's leaves and leaves the 29 path vertices past
/// the leaf, the second centre and its leaves pending; the second pull
/// finds the next path vertex; 29 pushes walk the rest of the path to the
/// second centre, so when the pulls resume 29 pending bits name vertices a
/// push already reached, and the pulls must skip them and still find the
/// second star's leaves.
#[test]
fn pushes_between_pulls_leave_pending_bits_stale() {
    let leaves = 1000u32;
    let c2 = leaves + 30; // the path is 1000, 1001, ..., 1029
    let n = (c2 + 1 + leaves) as usize;
    let mut edges: Vec<(u32, u32)> = (1..=leaves).map(|l| (0, l)).collect();
    edges.extend((leaves..c2).map(|v| (v, v + 1)));
    edges.extend((1..=leaves).map(|l| (c2, c2 + l)));
    let g = CsrGraph::from_edges(n, &edges, true);
    assert_eq!(n, 2031);
    let expect = [["pull"; 2].as_slice(), &["push"; 29], &["pull"; 2]].concat();
    let dense = bfs_with_strategy(
        &g,
        0,
        CwMethod::CasLt,
        BfsStrategy::DenseScan,
        &ThreadPool::new(1),
    );
    for t in 1..=4 {
        let pool = ThreadPool::with_config(PoolConfig::new(t).telemetry(true));
        for method in single_winner_methods() {
            let r = bfs_with_strategy(&g, 0, method, BfsStrategy::DirectionOptimizing, &pool);
            let report = pool.take_round_report();
            let labels: Vec<&str> = report.rounds.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, expect, "T={t} {method}: round labels");
            verify_bfs_tree(&g, 0, &r).unwrap_or_else(|e| panic!("T={t} {method}: {e}"));
            assert_eq!(r.level, dense.level, "T={t} {method}: levels");
        }
    }
}
