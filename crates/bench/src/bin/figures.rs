//! The one bench entry point: regenerate the paper's evaluation figures,
//! this workspace's ablations and the `BENCH_*.json` files, and compare
//! two such files.
//!
//! ```text
//! Usage: figures [OPTIONS] <TARGET>...
//!        figures compare OLD.json NEW.json
//!
//! Targets (tables + CSV):
//!   fig5 .. fig12   one figure (paper §7, Figures 5–12)
//!   figures         all eight figures
//!   ablations       the design-choice ablation suite
//!   extensions      future-work extension experiments (§8)
//!   stats           claim-level statistics report (profiling, untimed)
//!   all             every target above
//! Targets (BENCH_<target>.json; thread counts come from the host):
//!   frontier        BFS strategies x methods, and CC, at T = 1, 2, 4, .., nproc,
//!                   with self-relative speedups + telemetry overhead guard
//!   micro           arbitration primitives, ns per operation
//!
//! Options:
//!   --paper-scale   the paper's published workload sizes (hours on a laptop)
//!   --quick         smoke-test sizes (frontier at T = 1, 2)
//!   --threads <T>   team size for fixed-thread figures   [default: 4]
//!   --reps <R>      interleaved timed passes per config  [default: 10]
//!   --seed <S>      workload seed                        [default: 42]
//!   --out <DIR>     CSV and JSON output directory        [default: results]
//!
//! `compare` prints each file's git revision, then matches rows by key
//! and calls a row faster or slower only when the two p10-p90 intervals
//! do not overlap. Rows are interleaved only within one file, so between
//! files recorded at different times a verdict includes host drift.
//! ```

use std::process::ExitCode;

use pram_bench::runner::{compare, field, Report};
use pram_bench::{ablations, ext, figures, frontier, micro, BenchConfig, ScaleProfile};

fn usage() -> ExitCode {
    eprintln!(
        "Usage: figures [--paper-scale|--quick] [--threads T] [--reps R] [--seed S] \
         [--out DIR] <fig5..fig12|figures|ablations|extensions|stats|all|frontier|micro>...\n       \
         figures compare OLD.json NEW.json"
    );
    ExitCode::FAILURE
}

/// Print each file's `host.git`, then `OLD` → `NEW` verdicts, one row per
/// line. Between files recorded at different times, a verdict includes
/// host drift as well as the code change.
fn run_compare(old_path: &str, new_path: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| eprintln!("{p}: {e}"));
    let (Ok(old), Ok(new)) = (read(old_path), read(new_path)) else {
        return ExitCode::FAILURE;
    };
    for (side, path, json) in [("old", old_path, &old), ("new", new_path, &new)] {
        let git = field(json, "git").unwrap_or("unknown");
        println!("{side}: {path} (git {git})");
    }
    let span = |s: Option<[f64; 3]>| {
        s.map_or("-".to_string(), |[p10, m, p90]| {
            format!("{m:.4} [{p10:.4}, {p90:.4}]")
        })
    };
    let rows = compare(&old, &new);
    for c in &rows {
        println!(
            "{:<11} {}: {} -> {}",
            format!("{:?}", c.verdict).to_lowercase(),
            c.key,
            span(c.old),
            span(c.new)
        );
    }
    ExitCode::SUCCESS
}

/// Print a report's timing rows and write it under `cfg.out_dir`.
fn emit(report: &Report, cfg: &BenchConfig) -> bool {
    for row in report.section("results") {
        println!("{row}");
    }
    match report.write(&cfg.out_dir) {
        Ok(p) => {
            println!("wrote {}\n", p.display());
            true
        }
        Err(e) => {
            eprintln!("json write failed for {}: {e}", report.name);
            false
        }
    }
}

fn main() -> ExitCode {
    let mut cfg = BenchConfig::default();
    let mut targets: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        return match (args.nth(1), args.next(), args.next()) {
            (Some(old), Some(new), None) => run_compare(&old, &new),
            _ => usage(),
        };
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--paper-scale" => cfg.scale = ScaleProfile::Paper,
            "--quick" => cfg.scale = ScaleProfile::Quick,
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) if t >= 1 => cfg.threads = t,
                _ => return usage(),
            },
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(r) if r >= 1 => cfg.reps = r,
                _ => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => return usage(),
            },
            "--out" => match args.next() {
                Some(d) => cfg.out_dir = d.into(),
                None => return usage(),
            },
            "--help" | "-h" => {
                let _ = usage();
                return ExitCode::SUCCESS;
            }
            t if !t.starts_with('-') => targets.push(t.to_string()),
            _ => return usage(),
        }
    }
    if targets.is_empty() {
        return usage();
    }

    println!(
        "# scale = {:?}, threads = {}, reps = {}, seed = {}, out = {}",
        cfg.scale,
        cfg.threads,
        cfg.reps,
        cfg.seed,
        cfg.out_dir.display()
    );
    println!(
        "# host parallelism: {} (paper: 32 threads on 2x16-core x86)\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut results = Vec::new();
    let mut ok = true;
    for t in &targets {
        match t.as_str() {
            "frontier" => {
                let (report, guard) = frontier::run(&cfg);
                ok &= emit(&report, &cfg);
                if let Err(e) = guard {
                    eprintln!("{e}");
                    ok = false;
                }
            }
            "micro" => ok &= emit(&micro::run(&cfg), &cfg),
            "figures" => results.extend(figures::all(&cfg)),
            "ablations" => results.extend(ablations::all(&cfg)),
            "extensions" => results.extend(ext::all(&cfg)),
            "stats" => println!("{}", ablations::claim_statistics(&cfg)),
            "all" => {
                results.extend(figures::all(&cfg));
                results.extend(ablations::all(&cfg));
                results.extend(ext::all(&cfg));
                println!("{}", ablations::claim_statistics(&cfg));
            }
            id => match figures::by_id(id, &cfg) {
                Some(fig) => results.push(fig),
                None => {
                    eprintln!("unknown target '{id}'");
                    return usage();
                }
            },
        }
    }

    for fig in &results {
        println!("{}", fig.table());
        if fig.series.len() >= 2 {
            let base = &fig.series[0].name;
            let ours = &fig.series.last().unwrap().name;
            if let Some(g) = fig.geomean_speedup(base, ours) {
                println!("geomean speedup {ours} vs {base}: {g:.2}x\n");
            }
        }
        match fig.write_csv(&cfg.out_dir) {
            Ok(p) => println!("wrote {}\n", p.display()),
            Err(e) => eprintln!("csv write failed for {}: {e}", fig.id),
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
