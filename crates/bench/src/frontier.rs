//! `figures frontier` → `BENCH_frontier.json`: the paper's dense-scan BFS
//! vs direction-optimizing BFS across the single-winner concurrent-write
//! methods, on three frontier shapes (`--quick` sizes in parentheses):
//!
//! * `rmat18` (`rmat12`) — skewed R-MAT from the hub: frontiers explode
//!   after one hop, so the direction-optimizing switch pulls for the few
//!   dense levels and avoids both the per-level O(n) scan and most edge
//!   traversals. Few rounds, so loop-schedule quality dominates.
//! * `path14` (`path10`) — maximal depth, one-vertex frontiers. The dense
//!   scan pays O(n) *per level* (O(n²) total); direction-optimizing BFS
//!   never pulls and pays O(1) per level plus the rendezvous, so its rows
//!   measure barrier latency.
//! * `star18` (`star12`) — a single, maximally dense level.
//!
//! Also times connected components on the R-MAT graph. Every (kernel,
//! graph, method, strategy, T) row is one config of a single interleaved
//! sampler, so rows at different team sizes share their host drift. Each
//! row carries its **self-relative** speedup (median at T = 1 ÷ median at
//! T), so it says how the kernel scales, not what its 1-thread constant
//! is. Each row's telemetry rate columns come from one untimed run on a
//! telemetry twin of its pool.
//!
//! The file also holds the telemetry overhead guard (plain pool vs its
//! telemetry twin on the R-MAT direction-optimizing BFS at the largest
//! team) and the contended claim-counter microbench
//! (`telemetry_mechanism`).

use std::hint::black_box;

use pram_algos::bfs::{bfs_with_strategy_rev, BfsStrategy, DIRECTION_ALPHA, DIRECTION_BETA};
use pram_algos::{connected_components, CwMethod};
use pram_core::{CasLtArray, GatekeeperArray, SliceArbiter};
use pram_exec::{CwCounters, PoolConfig, ThreadPool};

use crate::runner::{host_threads, json_str, time_interleaved, timing_row, Report, Samples};
use crate::{drain_round_cw, telemetry_columns, BenchConfig, ScaleProfile, Workload};

/// The three single-winner methods.
const METHODS: [CwMethod; 3] = [CwMethod::Gatekeeper, CwMethod::CasLt, CwMethod::Lock];

/// Enabled telemetry may cost at most this share of the disabled time…
const GUARD_LIMIT_FRAC: f64 = 0.05;
/// …unless the gap is under this many milliseconds or under the larger
/// configuration's max − min spread, whichever is bigger: a gap inside
/// run-to-run noise is not evidence of overhead.
const GUARD_FLOOR_MS: f64 = 2.0;

/// One row: team-size index, workload index, method, and the BFS
/// strategy — or `None` for CC on the R-MAT graph.
type Config = (usize, usize, CwMethod, Option<BfsStrategy>);

/// Run the target at the host's thread counts. The second value is the
/// telemetry overhead guard's verdict; the report is complete either way.
pub fn run(cfg: &BenchConfig) -> (Report, Result<(), String>) {
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
    let times = time_interleaved(cfg.reps, configs.len(), cfg.seed, |i| {
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
            // threads[0] == 1: the same kernel, graph and method at T = 1.
            let t1 = configs
                .iter()
                .position(|&c1| c1 == (0, w, method, strategy))
                .expect("every config has a T = 1 twin");
            let speedup = times[t1].median() / s.median();
            let (kernel, strategy) = match strategy {
                Some(s) => ("bfs", s.to_string()),
                None => ("cc", "vertex".to_string()),
            };
            assert!(
                speedup.is_finite() && speedup > 0.0,
                "degenerate speedup for {kernel}/{}/{method}/{strategy}/T={}",
                workloads[w].name,
                threads[ti]
            );
            let key = [
                ("kernel", json_str(kernel)),
                ("graph", json_str(&workloads[w].name)),
                ("method", json_str(&method.to_string())),
                ("strategy", json_str(&strategy)),
                ("threads", threads[ti].to_string()),
            ];
            let extra = format!(
                "\"speedup_self_rel\": {speedup:.4}, {}",
                telemetry_columns(profile)
            );
            timing_row(&key, "ms", s, &extra)
        })
        .collect();

    // Overhead guard: the R-MAT direction-optimizing BFS under CAS-LT at
    // the largest team, plain pool vs its telemetry twin, interleaved.
    let nt = threads.len();
    let (method, strategy) = (CwMethod::CasLt, BfsStrategy::DirectionOptimizing);
    let guard_config = (nt - 1, 0, method, Some(strategy));
    let guard_pools = [&pools[nt - 1], &profile_pools[nt - 1]];
    let g = time_interleaved(cfg.reps.max(5), 2, cfg.seed, |i| {
        call(&guard_config, guard_pools[i])
    });
    let _ = guard_pools[1].take_round_report(); // drop the profiled rounds
    let (off_ms, on_ms) = (g[0].median(), g[1].median());
    let overhead_json = format!(
        "{{\"graph\": \"{}\", \"method\": \"{}\", \"strategy\": \"{}\", \"threads\": {}, \
         \"reps\": {}, \"disabled_ms\": {off_ms:.4}, \"enabled_ms\": {on_ms:.4}, \
         \"overhead_frac\": {:.4}, \"guard_limit_frac\": {GUARD_LIMIT_FRAC}, \
         \"noise_floor_ms\": {:.4}}}",
        workloads[0].name,
        method,
        strategy,
        threads[nt - 1],
        g[0].count(),
        (on_ms - off_ms) / off_ms,
        noise_floor_ms(&g[0], &g[1])
    );

    let mut report = Report::new("frontier", "frontier", cfg, &threads);
    report.fields.extend([
        ("direction_alpha", DIRECTION_ALPHA.to_string()),
        ("direction_beta", DIRECTION_BETA.to_string()),
        ("telemetry_overhead", overhead_json),
    ]);
    report.sections = vec![
        ("graphs", workloads.iter().map(|w| w.json("")).collect()),
        ("results", rows),
        ("telemetry_mechanism", mechanism_rows(&threads)),
    ];
    (report, overhead_guard(&g[0], &g[1]))
}

/// The gap below which enabled telemetry is not called overhead: the
/// larger of [`GUARD_FLOOR_MS`] and either configuration's spread.
fn noise_floor_ms(off: &Samples, on: &Samples) -> f64 {
    GUARD_FLOOR_MS.max(off.spread()).max(on.spread())
}

/// The telemetry overhead guard's verdict on interleaved samples of a
/// plain pool (`off`) and its telemetry twin (`on`): an error when the
/// enabled median exceeds the disabled one by more than
/// [`GUARD_LIMIT_FRAC`] and by more than the noise floor.
fn overhead_guard(off: &Samples, on: &Samples) -> Result<(), String> {
    let (off_ms, on_ms) = (off.median(), on.median());
    let noise_floor_ms = noise_floor_ms(off, on);
    if on_ms <= off_ms * (1.0 + GUARD_LIMIT_FRAC) || on_ms - off_ms <= noise_floor_ms {
        return Ok(());
    }
    Err(format!(
        "telemetry overhead guard tripped: enabled {on_ms:.3} ms vs disabled \
         {off_ms:.3} ms ({:+.1}%, limit {:.0}%, noise floor {noise_floor_ms:.3} ms)",
        (on_ms - off_ms) / off_ms * 100.0,
        GUARD_LIMIT_FRAC * 100.0
    ))
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
                // Parallel re-arm pass: disjoint blocks after a barrier.
                ctx.rearm(&gate, true);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_guard_trips_above_the_limit_and_the_noise_floor() {
        let tight = |ms: f64| Samples::new(vec![ms; 10]);
        // +10 % on tight samples: past the 5 % limit and the 2 ms floor.
        let err = overhead_guard(&tight(100.0), &tight(110.0)).unwrap_err();
        assert!(err.contains("+10.0%"), "{err}");
        // +4 %: inside the limit.
        assert!(overhead_guard(&tight(100.0), &tight(104.0)).is_ok());
        // +10 % of 10 ms is 1 ms, inside the 2 ms floor.
        assert!(overhead_guard(&tight(10.0), &tight(11.0)).is_ok());
        // A 10 ms gap inside a 27 ms spread is noise.
        let noisy = Samples::new((0..10).map(|i| 100.0 + 3.0 * f64::from(i)).collect());
        assert_eq!(noisy.spread(), 27.0);
        assert!(overhead_guard(&noisy, &tight(noisy.median() + 10.0)).is_ok());
        assert!(overhead_guard(&noisy, &tight(noisy.median() + 28.0)).is_err());
    }
}
