//! Exporter contracts: the chrome://tracing dump and the JSON metrics dump
//! are each pinned to a committed golden file (stable field ordering,
//! timestamps purely from the injected clock values — never
//! `Instant::now()` at serialization time).
//!
//! Regenerate the goldens after an *intentional* format change with:
//!
//! ```text
//! PRAM_REGEN_GOLDEN=1 cargo test --test telemetry_export
//! ```

use pram_core::{CwCounters, ExecCounters, RoundReport, RoundSnapshot, SliceArbiter};
use pram_exec::{PoolConfig, ThreadPool};

/// A fully deterministic report: every timestamp is an injected constant,
/// so the exporters must produce byte-identical output on every run and
/// platform.
fn sample_report() -> RoundReport {
    let cw = |skips, cas, fail, wins| CwCounters {
        fast_path_skips: skips,
        cas_attempts: cas,
        cas_failures: fail,
        wins,
        gatekeeper_rmws: 0,
        lock_acquisitions: 0,
        rearm_resets: 0,
    };
    let exec = |waits, wait_ns, grabs| ExecCounters {
        barrier_waits: waits,
        barrier_wait_ns: wait_ns,
        grabs,
    };
    let rounds = vec![
        RoundSnapshot {
            epoch: 0,
            round: 0,
            label: "push".to_string(),
            start_ns: 1_000,
            wall_ns: 2_500,
            cw: cw(3, 5, 1, 4),
            exec: exec(4, 700, 6),
        },
        RoundSnapshot {
            epoch: 0,
            round: 1,
            label: "pull".to_string(),
            start_ns: 4_000,
            wall_ns: 1_250,
            cw: cw(7, 1, 0, 1),
            exec: exec(4, 300, 5),
        },
        RoundSnapshot {
            epoch: 1,
            round: 0,
            label: String::new(), // unannotated round
            start_ns: 7_000,
            wall_ns: 3_000,
            cw: CwCounters {
                gatekeeper_rmws: 8,
                wins: 2,
                rearm_resets: 2,
                ..CwCounters::default()
            },
            exec: exec(2, 150, 4),
        },
    ];
    let mut totals_cw = CwCounters::default();
    let mut totals_exec = ExecCounters::default();
    for r in &rounds {
        totals_cw.add(&r.cw);
        totals_exec.add(&r.exec);
    }
    RoundReport {
        threads: 2,
        rounds,
        totals_cw,
        totals_exec,
    }
}

/// Compare `output` with `tests/golden/<name>`, rewriting the file first
/// when `PRAM_REGEN_GOLDEN` is set.
fn assert_matches_golden(name: &str, output: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("PRAM_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, output).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with PRAM_REGEN_GOLDEN=1 once");
    assert_eq!(
        output, golden,
        "output drifted from tests/golden/{name}; if the change is \
         intentional, regenerate with PRAM_REGEN_GOLDEN=1"
    );
}

#[test]
fn chrome_trace_matches_golden_file() {
    assert_matches_golden("chrome_trace.json", &sample_report().chrome_trace());
}

#[test]
fn metrics_json_matches_golden_file() {
    let json = sample_report().metrics_json();
    assert_matches_golden("metrics.json", &json);
    assert!(json.contains("\"schema\": \"pram-telemetry-v2\""));
}

#[test]
fn chrome_trace_is_a_pure_function_of_the_report() {
    // No clock read in the serialized path: two exports of the same report
    // are byte-identical, and exporting a rebuilt equal report matches too.
    let r = sample_report();
    let a = r.chrome_trace();
    let b = r.chrome_trace();
    assert_eq!(a, b);
    assert_eq!(a, sample_report().chrome_trace());
}

#[test]
fn chrome_trace_timestamps_are_monotone_per_track() {
    // Extract `"ts": <num>` in emission order; events are grouped per tid
    // track (epochs, rounds, barrier waits) and each track's spans are
    // emitted in collection order, so ts must be non-decreasing within
    // each contiguous tid run.
    let trace = sample_report().chrome_trace();
    let mut events: Vec<(u64, f64)> = Vec::new(); // (tid, ts)
    for obj in trace.split('{').skip(2) {
        let grab = |key: &str| -> Option<f64> {
            let at = obj.find(key)?;
            let rest = &obj[at + key.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        if let (Some(tid), Some(ts)) = (grab("\"tid\": "), grab("\"ts\": ")) {
            events.push((tid as u64, ts));
        }
    }
    assert!(
        events.len() >= 6,
        "expected epoch+round spans, got {events:?}"
    );
    for w in events.windows(2) {
        if w[0].0 == w[1].0 {
            assert!(
                w[1].1 >= w[0].1,
                "timestamps regress within tid {}: {} then {}",
                w[0].0,
                w[0].1,
                w[1].1
            );
        }
    }
}

#[test]
fn live_pool_report_traces() {
    // End-to-end: a real pool run's report produces a trace whose spans
    // carry the kernel's annotations.
    let pool = ThreadPool::with_config(PoolConfig::new(2).telemetry(true));
    let cells = pram_core::CasLtArray::new(4);
    pool.run(|ctx| {
        ctx.converge_rounds(3, [0, 0], |round, _| {
            ctx.annotate_round("claim");
            for i in 0..4 {
                cells.try_claim(i, round);
            }
            [u64::from(round.get() < 3), 0]
        });
    });
    let report = pool.take_round_report();
    assert_eq!(report.rounds.len(), 3);
    let trace = report.chrome_trace();
    assert!(trace.contains("[claim]"), "round labels reach the trace");
    assert!(trace.ends_with("]}\n"), "well-formed trace object");
}
