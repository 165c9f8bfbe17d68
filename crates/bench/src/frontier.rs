//! `figures frontier` → `BENCH_frontier.json`: dense scan vs sparse
//! top-down vs direction-optimizing BFS across the single-winner
//! concurrent-write methods, on three frontier shapes (`--quick` sizes in
//! parentheses):
//!
//! * `rmat18` (`rmat12`) — skewed R-MAT from the hub: frontiers explode
//!   after one hop, so the direction-optimizing switch pulls for the few
//!   dense levels and avoids both the per-level O(n) scan and most edge
//!   traversals.
//! * `path14` (`path10`) — maximal depth, one-vertex frontiers. The dense
//!   scan pays O(n) *per level* (O(n²) total); the sparse strategies pay
//!   O(1) per level plus barrier overhead.
//! * `star18` (`star12`) — a single, maximally dense level.
//!
//! Also times connected components on the R-MAT graph. Every (kernel,
//! graph, method, strategy, T) row is one config of a single interleaved
//! sampler, so rows at different team sizes share their host drift. Each
//! row's telemetry rate columns come from one untimed run on a telemetry
//! twin of its pool.

use std::hint::black_box;

use pram_algos::bfs::{bfs_with_strategy_rev, BfsStrategy, DIRECTION_ALPHA, DIRECTION_BETA};
use pram_algos::{connected_components, CwMethod};
use pram_exec::{PoolConfig, ThreadPool};

use crate::runner::{host_threads, json_str, time_interleaved, timing_row, Report};
use crate::{telemetry_columns, BenchConfig, ScaleProfile, Workload};

/// The three single-winner methods.
const METHODS: [CwMethod; 3] = [CwMethod::Gatekeeper, CwMethod::CasLt, CwMethod::Lock];

/// One row: team-size index, workload index, method, and the BFS
/// strategy — or `None` for CC on the R-MAT graph.
type Config = (usize, usize, CwMethod, Option<BfsStrategy>);

/// Run the target at the host's thread counts.
pub fn run(cfg: &BenchConfig) -> Report {
    let quick = cfg.scale == ScaleProfile::Quick;
    let workloads = if quick {
        [Workload::rmat(12), Workload::path(10), Workload::star(12)]
    } else {
        [Workload::rmat(18), Workload::path(14), Workload::star(18)]
    };
    let threads = host_threads(cfg.scale);

    let mut configs: Vec<Config> = Vec::new();
    for ti in 0..threads.len() {
        for w in 0..workloads.len() {
            for m in METHODS {
                configs.extend(BfsStrategy::ALL.map(|s| (ti, w, m, Some(s))));
            }
        }
        configs.extend(METHODS.map(|m| (ti, 0, m, None)));
    }

    let pools: Vec<ThreadPool> = threads.iter().map(|&t| ThreadPool::new(t)).collect();
    let call = |&(_, w, method, strategy): &Config, pool: &ThreadPool| {
        let w = &workloads[w];
        match strategy {
            Some(s) => {
                black_box(bfs_with_strategy_rev(
                    &w.graph, &w.rev, w.source, method, s, pool,
                ));
            }
            None => {
                black_box(connected_components(&w.graph, method, pool));
            }
        }
    };
    let times = time_interleaved(cfg.reps, configs.len(), |i| {
        call(&configs[i], &pools[configs[i].0])
    });

    let profile_pools: Vec<ThreadPool> = threads
        .iter()
        .map(|&t| ThreadPool::with_config(PoolConfig::new(t).telemetry(true)))
        .collect();
    let rows = configs
        .iter()
        .zip(&times)
        .map(|(c @ &(ti, w, method, strategy), s)| {
            let profile = &profile_pools[ti];
            call(c, profile);
            let (kernel, strategy) = match strategy {
                Some(s) => ("bfs", s.to_string()),
                None => ("cc", "vertex".to_string()),
            };
            let key = [
                ("kernel", json_str(kernel)),
                ("graph", json_str(&workloads[w].name)),
                ("method", json_str(&method.to_string())),
                ("strategy", json_str(&strategy)),
                ("threads", threads[ti].to_string()),
            ];
            timing_row(&key, "ms", s, &telemetry_columns(profile))
        })
        .collect();

    let mut report = Report::new("frontier", cfg, &threads);
    report.fields.extend([
        ("direction_alpha", DIRECTION_ALPHA.to_string()),
        ("direction_beta", DIRECTION_BETA.to_string()),
    ]);
    report.sections = vec![
        ("graphs", workloads.iter().map(|w| w.json("")).collect()),
        ("results", rows),
    ];
    report
}
