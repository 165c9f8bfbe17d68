//! Differential kernel oracle: every kernel, every concurrent-write
//! method, one seeded corpus, three independent answers that must agree.
//!
//! For each instance of a generated corpus (`pram_graph::GraphGen` paths,
//! cycles, stars, grids, G(n,m), R-MAT) the kernels run on the real
//! `pram-exec` pool under every method of `CwMethod::ALL` (on plain pools
//! and on a telemetry pool, so the counter-recording claim paths are
//! covered too), and the outputs are compared against the serial
//! references in `pram-graph` / `pram-algos` and — where a program
//! exists — the `pram-sim` ideal PRAM machine.
//!
//! Where arbitrary CW makes the output nondeterministic, the oracle
//! checks **winner-set equivalence** instead of equality:
//!
//! * `max_index` under a single-winner method must reproduce the paper's
//!   tiebreak index exactly; under naive (every writer "wins", last store
//!   lands) only the *value* at the returned index is pinned.
//! * BFS levels are common writes (all writers agree) — equal under every
//!   method and every frontier strategy. Parents are arbitrary: any
//!   previous-level neighbor is admissible, so parents are checked as
//!   members of the writer set, and only for single-winner methods (naive
//!   tears the multi-word commit).
//! * CC labels are canonicalized by the kernel (component minima), so
//!   single-winner methods must match union–find exactly; naive is
//!   excluded (multi-word hook writes tear).
//!
//! The corpus is deliberately small by default so the oracle runs in a PR
//! gate; set `PRAM_ORACLE_FULL=1` (CI nightly) for the full corpus and
//! larger pools.

use pram_algos::list_rank::{list_rank_serial, random_list};
use pram_algos::scan::exclusive_scan_serial;
use pram_algos::{
    bfs, bfs_with_strategy, connected_components, exclusive_scan, inclusive_scan, list_rank,
    logical_or, max_index, BfsStrategy, CwMethod,
};
use pram_exec::{PoolConfig, ThreadPool};
use pram_graph::{serial, CsrGraph, GraphGen};
use pram_sim::{programs, WriteRule};

fn full_corpus() -> bool {
    std::env::var("PRAM_ORACLE_FULL").is_ok_and(|v| v == "1")
}

/// Pools the whole oracle sweeps: serial, small, and oversubscribed teams,
/// plus a telemetry pool so every method also runs with its claim
/// counters recording.
fn pools() -> Vec<ThreadPool> {
    let mut pools = vec![
        ThreadPool::new(1),
        ThreadPool::new(4),
        ThreadPool::with_config(PoolConfig::new(3).telemetry(true)),
    ];
    // Real parallelism on this host, when no pool above already has it.
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    if ![1, 3, 4].contains(&nproc) {
        pools.push(ThreadPool::new(nproc));
    }
    if full_corpus() {
        pools.push(ThreadPool::new(8));
    }
    pools
}

/// (name, vertex count, edge list) corpus instance.
type Instance = (String, usize, Vec<(u32, u32)>);

/// The seeded graph corpus: one of each generator family, sized for the
/// PR gate; the full tier adds larger and denser instances.
fn corpus() -> Vec<Instance> {
    let mut c = vec![
        ("path48".to_string(), 48, GraphGen::path(48)),
        ("cycle33".to_string(), 33, GraphGen::cycle(33)),
        ("star40".to_string(), 40, GraphGen::star(40)),
        ("grid6x7".to_string(), 42, GraphGen::grid(6, 7)),
        ("gnm120".to_string(), 120, GraphGen::new(11).gnm(120, 300)),
        (
            "rmat7".to_string(),
            128,
            GraphGen::new(12).rmat_standard(7, 400),
        ),
    ];
    if full_corpus() {
        c.push(("path600".to_string(), 600, GraphGen::path(600)));
        c.push((
            "gnm1000".to_string(),
            1000,
            GraphGen::new(13).gnm(1000, 4000),
        ));
        c.push((
            "rmat10".to_string(),
            1024,
            GraphGen::new(14).rmat_standard(10, 6000),
        ));
        for seed in 20..24u64 {
            c.push((
                format!("gnm200-s{seed}"),
                200,
                GraphGen::new(seed).gnm(200, 500),
            ));
        }
    }
    c
}

/// Seeded value vectors (with duplicated maxima, so the tiebreak matters).
fn value_corpus() -> Vec<Vec<u64>> {
    let mut vs: Vec<Vec<u64>> = vec![
        vec![7],
        (0..60).map(|i: u64| (i * 37) % 23).collect(),
        (0..97).map(|i: u64| (i * 13 + 5) % 31).collect(),
        vec![9; 50], // every index ties for the max
    ];
    if full_corpus() {
        vs.push((0..5000).map(|i: u64| (i * 2654435761) % 4093).collect());
    }
    vs
}

#[test]
fn oracle_max_all_methods_vs_serial_and_sim() {
    for values in value_corpus() {
        let reference = serial::max_index_paper_tiebreak(&values);
        let as_i64: Vec<i64> = values.iter().map(|&v| v as i64).collect();
        let ideal = programs::constant_time_max(&as_i64, WriteRule::Common)
            .unwrap()
            .output;
        assert_eq!(ideal, reference, "ideal machine vs serial reference");
        for pool in pools() {
            for m in CwMethod::ALL {
                let got = max_index(&values, m, &pool);
                if m.single_winner() {
                    assert_eq!(
                        got,
                        reference,
                        "{m} on {} threads must reproduce the paper tiebreak",
                        pool.num_threads()
                    );
                } else {
                    // Naive: any index holding the max value is an
                    // admissible winner (winner-set equivalence).
                    assert_eq!(
                        values[got],
                        values[reference],
                        "{m} on {} threads returned a non-maximal index {got}",
                        pool.num_threads()
                    );
                }
            }
        }
    }
}

#[test]
fn oracle_bfs_levels_all_methods_and_parents_in_writer_set() {
    // Every frontier strategy: dense-scan and push rounds arbitrate,
    // pull rounds are exclusive owner writes, and all must agree.
    let mut pulled = false;
    for (name, n, edges) in corpus() {
        let g = CsrGraph::from_edges(n, &edges, true);
        let reference = serial::bfs_levels(&g, 0);
        for pool in pools() {
            let t = pool.num_threads();
            for m in CwMethod::ALL {
                for s in BfsStrategy::ALL {
                    let r = bfs_with_strategy(&g, 0, m, s, &pool);
                    if pool.telemetry().is_some() {
                        let report = pool.take_round_report();
                        pulled |= report.rounds.iter().any(|r| r.label == "pull");
                    }
                    assert_eq!(r.level, reference, "{name}: {m}/{s} levels on {t} threads");
                    if !m.single_winner() {
                        continue; // naive tears the multi-word commit
                    }
                    // Arbitrary-CW winner set: parent[u] must be *some*
                    // previous-level neighbor of u — which one is free.
                    for u in 1..n {
                        if reference[u] == u32::MAX {
                            continue;
                        }
                        let p = r.parent[u];
                        assert!(
                            g.neighbors(p).contains(&(u as u32)),
                            "{name}: {m}/{s} parent {p} of {u} not adjacent on {t} threads"
                        );
                        assert_eq!(
                            reference[p as usize] + 1,
                            reference[u],
                            "{name}: {m}/{s} parent {p} of {u} not a previous-level writer \
                             on {t} threads"
                        );
                    }
                }
            }
        }
    }
    assert!(pulled, "no corpus instance ran a pull round");
}

#[test]
fn oracle_bfs_levels_agree_with_ideal_machine() {
    // The sim cross-check on a slice of the corpus (the ideal machine
    // interprets one instruction at a time; keep it to the small tier).
    for (name, n, edges) in corpus().into_iter().take(4) {
        let g = CsrGraph::from_edges(n, &edges, true);
        let directed: Vec<(usize, usize)> = g
            .directed_edges()
            .map(|(u, v)| (u as usize, v as usize))
            .collect();
        let ideal = programs::bfs_levels(n, &directed, 0, WriteRule::Common)
            .unwrap()
            .output;
        let reference = serial::bfs_levels(&g, 0);
        for v in 0..n {
            if reference[v] == u32::MAX {
                assert_eq!(ideal[v], -1, "{name}: vertex {v} reachability");
            } else {
                assert_eq!(ideal[v], i64::from(reference[v]), "{name}: vertex {v}");
            }
        }
    }
}

#[test]
fn oracle_cc_single_winner_methods_vs_union_find() {
    for (name, n, edges) in corpus() {
        let g = CsrGraph::from_edges(n, &edges, true);
        let directed: Vec<(u32, u32)> = g.directed_edges().collect();
        let reference = serial::cc_labels(n, &directed);
        for pool in pools() {
            for m in CwMethod::ALL.into_iter().filter(|m| m.single_winner()) {
                let r = connected_components(&g, m, &pool);
                assert_eq!(
                    r.labels,
                    reference,
                    "{name}: {m} labels on {} threads",
                    pool.num_threads()
                );
            }
        }
    }
}

#[test]
fn oracle_scan_vs_serial_reference() {
    for values in value_corpus() {
        let reference = exclusive_scan_serial(&values);
        let inclusive_reference: Vec<u64> = values
            .iter()
            .scan(0u64, |acc, &v| {
                *acc += v;
                Some(*acc)
            })
            .collect();
        for pool in pools() {
            assert_eq!(
                exclusive_scan(&values, &pool),
                reference,
                "exclusive scan on {} threads",
                pool.num_threads()
            );
            assert_eq!(
                inclusive_scan(&values, &pool),
                inclusive_reference,
                "inclusive scan on {} threads",
                pool.num_threads()
            );
        }
    }
}

#[test]
fn oracle_list_rank_vs_serial_reference() {
    let sizes: &[usize] = if full_corpus() {
        &[1, 2, 33, 100, 257, 2048]
    } else {
        &[1, 2, 33, 100, 257]
    };
    for (i, &n) in sizes.iter().enumerate() {
        let (next, _head) = random_list(n, 0xACE + i as u64);
        let reference = list_rank_serial(&next);
        for pool in pools() {
            assert_eq!(
                list_rank(&next, &pool),
                reference,
                "list of {n} on {} threads",
                pool.num_threads()
            );
        }
    }
}

#[test]
fn oracle_logical_or_all_methods_vs_sim() {
    let patterns: Vec<Vec<bool>> = vec![
        vec![],
        vec![false; 70],
        (0..70).map(|i| i == 69).collect(),
        (0..70).map(|i| i % 11 == 3).collect(),
    ];
    for bits in &patterns {
        let expect = bits.iter().any(|&b| b);
        if !bits.is_empty() {
            let ideal = programs::logical_or(bits, WriteRule::Common)
                .unwrap()
                .output;
            assert_eq!(ideal, expect, "ideal machine on {bits:?}");
        }
        for pool in pools() {
            for m in CwMethod::ALL {
                assert_eq!(
                    logical_or(bits, m, &pool),
                    expect,
                    "{m} on {} threads",
                    pool.num_threads()
                );
            }
        }
    }
}

#[test]
fn oracle_telemetry_pool_reports_rounds() {
    // The oracle above proves outputs stay correct on the telemetry pool;
    // here we additionally pin that the pool surfaced the rounds it ran
    // (the trace channel works end to end) on a workload dense enough to
    // produce telemetry.
    let pool = ThreadPool::with_config(PoolConfig::new(4).telemetry(true));
    let n = 200;
    let edges = GraphGen::new(42).gnm(n, 2000);
    let g = CsrGraph::from_edges(n, &edges, true);
    let reference = serial::bfs_levels(&g, 0);
    let r = bfs(&g, 0, CwMethod::CasLt, &pool);
    assert_eq!(r.level, reference);
    let report = pool.take_round_report();
    assert!(!report.rounds.is_empty(), "no rounds snapshotted");
}
