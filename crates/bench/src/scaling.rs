//! `figures scaling` → `BENCH_scaling.json`: team size over the two BFS
//! kernels whose round structure stresses the execution substrate
//! differently (`--quick` sizes in parentheses):
//!
//! * `rmat18` (`rmat11`) + direction-optimizing BFS — few rounds, huge
//!   skewed frontiers: loop-schedule quality (the dynamic cursor)
//!   dominates, barriers are rare.
//! * `path14` (`path9`) + top-down BFS — one round per vertex of
//!   one-vertex frontiers: pure barrier latency.
//!
//! Both run under CAS-LT (the method axis is `frontier`'s job). Each row
//! carries its **self-relative** speedup (median at T = 1 ÷ median at T),
//! so the rows say how the kernel scales, not what its 1-thread constant
//! is. The file also holds the contended claim-counter microbench
//! (`telemetry_mechanism`) and the telemetry overhead guard.

use std::hint::black_box;

use pram_algos::bfs::{bfs_with_strategy_rev, BfsStrategy};
use pram_algos::CwMethod;
use pram_core::{CasLtArray, GatekeeperArray, SliceArbiter};
use pram_exec::{CwCounters, PoolConfig, ThreadPool};

use crate::runner::{host_threads, json_str, time_interleaved, timing_row, Report};
use crate::{drain_round_cw, telemetry_columns, BenchConfig, ScaleProfile, Workload};

const METHOD: CwMethod = CwMethod::CasLt;

/// Enabled telemetry may cost at most this share of the disabled time…
const GUARD_LIMIT_FRAC: f64 = 0.05;
/// …unless the gap is under this many milliseconds or under the larger
/// configuration's max − min spread, whichever is bigger: a gap inside
/// run-to-run noise is not evidence of overhead.
const GUARD_FLOOR_MS: f64 = 2.0;

/// Run the target at the host's thread counts. The second value is the
/// telemetry overhead guard's verdict; the report is complete either way.
pub fn run(cfg: &BenchConfig) -> (Report, Result<(), String>) {
    let quick = cfg.scale == ScaleProfile::Quick;
    let workloads = if quick {
        [
            (Workload::rmat(11), BfsStrategy::DirectionOptimizing),
            (Workload::path(9), BfsStrategy::TopDown),
        ]
    } else {
        [
            (Workload::rmat(18), BfsStrategy::DirectionOptimizing),
            (Workload::path(14), BfsStrategy::TopDown),
        ]
    };
    let threads = host_threads(cfg.scale);
    let max_t = *threads.last().expect("at least one team size");
    let pools: Vec<ThreadPool> = threads.iter().map(|&t| ThreadPool::new(t)).collect();
    let profile_pools: Vec<ThreadPool> = threads
        .iter()
        .map(|&t| ThreadPool::with_config(PoolConfig::new(t).telemetry(true)))
        .collect();
    let call = |(w, strategy): &(Workload, BfsStrategy), pool: &ThreadPool| {
        black_box(bfs_with_strategy_rev(
            &w.graph, &w.rev, w.source, METHOD, *strategy, pool,
        ));
    };

    // Configs: workload-major, then team size.
    let nt = threads.len();
    let times = time_interleaved(cfg.reps, workloads.len() * nt, |i| {
        call(&workloads[i / nt], &pools[i % nt])
    });
    let mut rows = Vec::new();
    for (i, s) in times.iter().enumerate() {
        let (w, strategy) = &workloads[i / nt];
        let profile = &profile_pools[i % nt];
        call(&workloads[i / nt], profile);
        // threads[0] == 1, so the workload's first config is its T = 1 run.
        let speedup = times[i / nt * nt].median() / s.median();
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "degenerate speedup for {}/T={}",
            w.name,
            threads[i % nt]
        );
        let key = [
            ("kernel", json_str("bfs")),
            ("graph", json_str(&w.name)),
            ("method", json_str(&METHOD.to_string())),
            ("strategy", json_str(&strategy.to_string())),
            ("threads", threads[i % nt].to_string()),
        ];
        let extra = format!(
            "\"speedup_self_rel\": {speedup:.4}, {}",
            telemetry_columns(profile)
        );
        rows.push(timing_row(&key, "ms", s, &extra));
    }

    // Overhead guard: the R-MAT DO-BFS at the largest team, plain pool vs
    // its telemetry twin, interleaved.
    let rmat = &workloads[0];
    let guard_pools = [&pools[nt - 1], &profile_pools[nt - 1]];
    let g = time_interleaved(cfg.reps.max(5), 2, |i| call(rmat, guard_pools[i]));
    let _ = guard_pools[1].take_round_report(); // drop the profiled rounds
    let (off_ms, on_ms) = (g[0].median(), g[1].median());
    let noise_floor_ms = GUARD_FLOOR_MS.max(g[0].spread()).max(g[1].spread());
    let overhead = (on_ms - off_ms) / off_ms;
    let guard = if on_ms <= off_ms * (1.0 + GUARD_LIMIT_FRAC) || on_ms - off_ms <= noise_floor_ms {
        Ok(())
    } else {
        Err(format!(
            "telemetry overhead guard tripped: enabled {on_ms:.3} ms vs disabled \
             {off_ms:.3} ms ({:+.1}%, limit {:.0}%, noise floor {noise_floor_ms:.3} ms)",
            overhead * 100.0,
            GUARD_LIMIT_FRAC * 100.0
        ))
    };
    let overhead_json = format!(
        "{{\"graph\": \"{}\", \"strategy\": \"{}\", \"threads\": {max_t}, \"reps\": {}, \
         \"disabled_ms\": {off_ms:.4}, \"enabled_ms\": {on_ms:.4}, \
         \"overhead_frac\": {overhead:.4}, \"guard_limit_frac\": {GUARD_LIMIT_FRAC}, \
         \"noise_floor_ms\": {noise_floor_ms:.4}}}",
        rmat.0.name,
        rmat.1,
        g[0].count()
    );

    let mut report = Report::new("scaling", cfg, &threads);
    report.fields.extend([
        ("method", json_str(&METHOD.to_string())),
        ("telemetry_overhead", overhead_json),
    ]);
    report.sections = vec![
        (
            "graphs",
            workloads
                .iter()
                .map(|(w, s)| w.json(&format!("\"strategy\": \"{s}\"")))
                .collect(),
        ),
        ("results", rows),
        ("telemetry_mechanism", mechanism_rows(&threads)),
    ];
    (report, guard)
}

/// Fully contended claim counters behind `telemetry_mechanism`: for each
/// team size, every member claims every cell of a small array for a fixed
/// number of rounds, under CAS-LT (re-arms free on the round advance) and
/// under the gatekeeper (explicit reset pass per round). Untimed; one JSON
/// row per (method, team size).
fn mechanism_rows(threads: &[usize]) -> Vec<String> {
    const CELLS: usize = 64;
    const ROUNDS: u32 = 30;
    let cell_rounds = (CELLS as u64) * u64::from(ROUNDS);
    let row = |method: &str, t: usize, cw: &CwCounters, atomics: u64| {
        format!(
            "{{\"method\": \"{method}\", \"threads\": {t}, \"cells\": {CELLS}, \
             \"rounds\": {ROUNDS}, \"fast_path_hit_rate\": {:.4}, \
             \"cas_retry_rate\": {:.4}, \"atomics_per_cell_round\": {:.4}}}",
            cw.fast_path_hit_rate(),
            cw.cas_retry_rate(),
            atomics as f64 / cell_rounds as f64
        )
    };
    let mut out = Vec::new();
    for &t in threads {
        let pool = ThreadPool::with_config(PoolConfig::new(t).telemetry(true));

        let caslt = CasLtArray::new(CELLS);
        pool.run(|ctx| {
            ctx.converge_rounds(ROUNDS, [0, 0], |round, _| {
                ctx.annotate_round("mech-caslt");
                for i in 0..CELLS {
                    caslt.try_claim(i, round);
                }
                [u64::from(round.get() < ROUNDS), 0]
            });
        });
        let cw = drain_round_cw(&pool);
        assert_eq!(cw.wins, cell_rounds, "one CAS-LT winner per (cell, round)");
        assert_eq!(
            cw.resolutions(),
            cell_rounds * t as u64,
            "every claim resolved"
        );
        out.push(row("caslt", t, &cw, cw.cas_attempts));

        let gate = GatekeeperArray::new(CELLS);
        pool.run(|ctx| {
            ctx.converge_rounds(ROUNDS, [0, 0], |round, _| {
                ctx.annotate_round("mech-gatekeeper");
                for i in 0..CELLS {
                    gate.try_claim(i, round);
                }
                // Parallel re-arm pass: disjoint shares after a barrier.
                ctx.barrier();
                let (id, n) = (ctx.thread_id(), ctx.num_threads());
                gate.reset_range(id * CELLS / n..(id + 1) * CELLS / n);
                [u64::from(round.get() < ROUNDS), 0]
            });
        });
        let cw = drain_round_cw(&pool);
        assert_eq!(
            cw.gatekeeper_rmws,
            cell_rounds * t as u64,
            "the gatekeeper fetch-adds exactly T times per (cell, round)"
        );
        assert_eq!(cw.wins, cell_rounds);
        out.push(row("gatekeeper", t, &cw, cw.gatekeeper_rmws));
    }
    out
}
