//! The one bench entry point: regenerate the paper's evaluation figures,
//! this workspace's ablations and the other `BENCH_*.json` files, and
//! compare two such files.
//!
//! ```text
//! Usage: figures [OPTIONS] <TARGET>...
//!        figures compare OLD.json NEW.json
//!
//! Targets (each writes BENCH_<file>.json and prints its rows):
//!   fig5 .. fig12   one figure (paper §7, Figures 5–12)    -> figures
//!   figures         all eight figures                      -> figures
//!   ablations       the design-choice ablations, the §8 extension
//!                   experiments and untimed claim counts   -> ablations
//!   all             figures and ablations
//!   frontier        BFS strategies x methods, and CC, at T = 1, 2, 4, .., nproc,
//!                   with self-relative speedups + telemetry overhead guard
//!   micro           arbitration primitives, ns per operation
//!
//! Options:
//!   --paper-scale   the paper's published workload sizes (hours on a laptop)
//!   --quick         smoke-test sizes (frontier at T = 1, 2)
//!   --threads <T>   team size for fixed-thread figures   [default: 4]
//!   --reps <R>      interleaved timed passes per config  [default: 10]
//!   --seed <S>      workload and pass-order seed         [default: 42]
//!   --out <DIR>     JSON output directory                [default: results]
//!
//! `compare` prints each file's git revision, then matches rows by key
//! and calls a row faster or slower only when the two p10-p90 intervals
//! do not overlap. Rows are interleaved only within one file, so between
//! files recorded at different times a verdict includes host drift.
//! ```

use std::process::ExitCode;

use pram_bench::runner::{compare, field, Report};
use pram_bench::{ablations, figures, frontier, micro, BenchConfig, ScaleProfile};

fn usage() -> ExitCode {
    eprintln!(
        "Usage: figures [--paper-scale|--quick] [--threads T] [--reps R] [--seed S] \
         [--out DIR] <fig5..fig12|figures|ablations|all|frontier|micro>...\n       \
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

/// Print a report's rows and write it under `cfg.out_dir`.
fn emit(report: &Report, cfg: &BenchConfig) -> bool {
    for (section, rows) in &report.sections {
        println!("# {section}");
        for row in rows {
            println!("{row}");
        }
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

/// The reports a command line's targets ask for.
#[derive(Debug, Default)]
struct Plan {
    /// Figure ids, as listed (`figures::run` puts them in the paper's order).
    figures: Vec<&'static str>,
    ablations: bool,
    frontier: bool,
    micro: bool,
}

/// Resolve `targets` into a [`Plan`], or return the first unknown one.
fn plan(targets: &[String]) -> Result<Plan, &str> {
    let all_figures = figures::FIGURES.map(|(id, _)| id);
    let mut plan = Plan::default();
    for t in targets {
        match t.as_str() {
            "figures" => plan.figures.extend(all_figures),
            "ablations" => plan.ablations = true,
            "all" => {
                plan.figures.extend(all_figures);
                plan.ablations = true;
            }
            "frontier" => plan.frontier = true,
            "micro" => plan.micro = true,
            t => match all_figures.into_iter().find(|&id| id == t) {
                Some(id) => plan.figures.push(id),
                None => return Err(t),
            },
        }
    }
    Ok(plan)
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
    let plan = match plan(&targets) {
        Ok(plan) => plan,
        Err(t) => {
            eprintln!("unknown target '{t}'");
            return usage();
        }
    };

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

    let mut ok = true;
    if plan.frontier {
        let (report, guard) = frontier::run(&cfg);
        ok &= emit(&report, &cfg);
        if let Err(e) = guard {
            eprintln!("{e}");
            ok = false;
        }
    }
    if plan.micro {
        ok &= emit(&micro::run(&cfg), &cfg);
    }
    if !plan.figures.is_empty() {
        ok &= emit(&figures::run(&cfg, &plan.figures), &cfg);
    }
    if plan.ablations {
        ok &= emit(&ablations::run(&cfg), &cfg);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split(' ').map(String::from).collect()
    }

    #[test]
    fn targets_resolve_and_unknown_ones_are_rejected() {
        let p = plan(&args("fig12 micro fig10")).unwrap();
        assert_eq!(p.figures, ["fig12", "fig10"]);
        assert!(p.micro && !p.ablations && !p.frontier);

        let p = plan(&args("all frontier")).unwrap();
        assert_eq!(p.figures, figures::FIGURES.map(|(id, _)| id));
        assert!(p.ablations && p.frontier && !p.micro);

        for line in ["fig5 fig13", "extensions", "stats", "scaling", "fig"] {
            let t = line.split(' ').next_back().unwrap();
            assert_eq!(plan(&args(line)).unwrap_err(), t, "{line}");
        }
    }
}
