//! # pram-bench — regeneration harness for every figure in the paper's
//! evaluation
//!
//! The paper's §7 reports eight figures (5–12): execution time of the
//! Max / BFS / CC kernels under the naive, gatekeeper (prefix-sum) and
//! CAS-LT concurrent-write methods, swept over problem size and thread
//! count. [`figures`] contains one function per figure that reruns the
//! same sweep and returns a [`FigureResult`] (printable table + CSV);
//! [`ablations`] adds the design-choice experiments DESIGN.md calls out.
//! The `figures` binary drives both; `benches/` holds the Criterion
//! counterparts.
//!
//! Scales: the paper ran 32 threads on a 2×16-core Andes node with up to
//! 60 K-element lists and 100 K-vertex / 30 M-edge graphs. Default scales
//! here are reduced to suit small machines; `ScaleProfile::Paper`
//! (`--paper-scale`) restores the published parameters. EXPERIMENTS.md
//! records the paper-vs-measured comparison and the hardware caveats.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod ext;
pub mod figures;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pram_algos::CwMethod;
use pram_exec::ThreadPool;
use pram_graph::{CsrGraph, GraphGen};

/// Which parameter scale a sweep runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleProfile {
    /// Small, minutes-on-a-laptop parameters (default).
    Default,
    /// Very small parameters for smoke tests (`--quick`).
    Quick,
    /// The paper's published parameters (`--paper-scale`).
    Paper,
}

/// Harness configuration shared by all figures.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Scale profile for sweeps.
    pub scale: ScaleProfile,
    /// Team size for fixed-thread figures (the paper uses 32).
    pub threads: usize,
    /// Repetitions per point; the median is reported.
    pub reps: usize,
    /// Directory for CSV output.
    pub out_dir: PathBuf,
    /// Workload seed (recorded so runs are reproducible).
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            scale: ScaleProfile::Default,
            threads: 4,
            reps: 3,
            out_dir: PathBuf::from("results"),
            seed: 42,
        }
    }
}

/// One method's measurements across a sweep.
#[derive(Debug, Clone)]
pub struct Series {
    /// Method (column) name.
    pub name: String,
    /// `(x, milliseconds)` points.
    pub points: Vec<(f64, f64)>,
}

/// A regenerated figure: metadata plus one series per method.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure id, e.g. `"fig5"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Meaning of the x axis.
    pub x_label: String,
    /// One series per method, in presentation order.
    pub series: Vec<Series>,
}

impl FigureResult {
    /// Render as an aligned text table with per-row speedup of the last
    /// series (CAS-LT by convention) over the first (the baseline).
    pub fn table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>16}", format!("{} (ms)", s.name));
        }
        if self.series.len() >= 2 {
            let _ = write!(
                out,
                " {:>14}",
                format!(
                    "{}/{}",
                    self.series[0].name,
                    self.series.last().unwrap().name
                )
            );
        }
        let _ = writeln!(out);
        let rows = self.series[0].points.len();
        for r in 0..rows {
            let _ = write!(out, "{:>14}", format_x(self.series[0].points[r].0));
            for s in &self.series {
                let _ = write!(out, " {:>16.3}", s.points[r].1);
            }
            if self.series.len() >= 2 {
                let base = self.series[0].points[r].1;
                let ours = self.series.last().unwrap().points[r].1;
                let _ = write!(out, " {:>13.2}x", base / ours);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Geometric-mean speedup of series `b` over series `a` (how the paper
    /// summarizes each figure).
    pub fn geomean_speedup(&self, a: &str, b: &str) -> Option<f64> {
        let sa = self.series.iter().find(|s| s.name == a)?;
        let sb = self.series.iter().find(|s| s.name == b)?;
        let logs: Vec<f64> = sa
            .points
            .iter()
            .zip(&sb.points)
            .map(|(&(_, ta), &(_, tb))| (ta / tb).ln())
            .collect();
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }

    /// Write `x,method,ms` CSV under `dir` as `<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{},method,ms", self.x_label.replace(' ', "_"))?;
        for s in &self.series {
            for &(x, ms) in &s.points {
                writeln!(f, "{x},{},{ms}", s.name)?;
            }
        }
        f.flush()?;
        Ok(path)
    }
}

fn format_x(x: f64) -> String {
    if x >= 1_000_000.0 && x % 1_000_000.0 == 0.0 {
        format!("{}M", x as u64 / 1_000_000)
    } else if x >= 1_000.0 && x % 1_000.0 == 0.0 {
        format!("{}K", x as u64 / 1_000)
    } else {
        format!("{x}")
    }
}

/// Median wall time of `reps` runs of `f` (one warm-up run first).
pub fn time_median(reps: usize, mut f: impl FnMut()) -> Duration {
    let reps = reps.max(1);
    f(); // warm-up: pages faulted in, pool woken
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Duration → fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A reproducible uniform random undirected graph (the paper's workload).
pub fn make_graph(vertices: usize, edges: usize, seed: u64) -> CsrGraph {
    let e = GraphGen::new(seed).gnm(vertices, edges);
    CsrGraph::from_edges(vertices, &e, true)
}

/// Run one method sweep: for each x in `xs`, build the workload once and
/// time `run(workload, method)` for every method.
pub fn sweep<W>(
    cfg: &BenchConfig,
    methods: &[CwMethod],
    xs: &[usize],
    mut workload: impl FnMut(usize) -> W,
    mut run: impl FnMut(&W, CwMethod),
) -> Vec<Series> {
    let mut series: Vec<Series> = methods
        .iter()
        .map(|m| Series {
            name: m.to_string(),
            points: Vec::with_capacity(xs.len()),
        })
        .collect();
    for &x in xs {
        let w = workload(x);
        for (mi, &m) in methods.iter().enumerate() {
            let t = time_median(cfg.reps, || run(&w, m));
            series[mi].points.push((x as f64, ms(t)));
        }
    }
    series
}

/// Thread counts for a thread-sweep figure under the given scale.
pub fn thread_sweep(scale: ScaleProfile) -> Vec<usize> {
    match scale {
        ScaleProfile::Quick => vec![1, 2],
        ScaleProfile::Default => vec![1, 2, 4, 8],
        ScaleProfile::Paper => vec![1, 2, 4, 8, 16, 32],
    }
}

/// Build a pool of `threads`. Its barrier waiters back off from spinning
/// to yielding and timed parking — pure spinning livelocks thread sweeps
/// on machines with fewer cores than the paper's node; EXPERIMENTS.md
/// discusses the divergence.
pub fn pool(threads: usize) -> ThreadPool {
    ThreadPool::new(threads)
}

/// Drain `pool`'s telemetry round report and render the two derived-rate
/// columns every bench row shares (`fast_path_hit_rate`, `cas_retry_rate`)
/// as a JSON fragment. The pool must have been built with
/// [`pram_exec::PoolConfig::telemetry`]; call right after the *untimed*
/// profiling run. The rates are computed over the drained per-round
/// deltas (not the pool-lifetime totals), so one telemetry pool can be
/// reused across many profiled runs without the windows blending.
pub fn telemetry_columns(pool: &ThreadPool) -> String {
    let report = pool.take_round_report();
    let mut cw = pram_exec::CwCounters::default();
    for r in &report.rounds {
        cw.add(&r.cw);
    }
    format!(
        "\"fast_path_hit_rate\": {:.4}, \"cas_retry_rate\": {:.4}",
        cw.fast_path_hit_rate(),
        cw.cas_retry_rate()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_stable_and_warm() {
        let mut calls = 0;
        let d = time_median(3, || calls += 1);
        assert_eq!(calls, 4); // 1 warm-up + 3 timed
        assert!(d.as_nanos() < 1_000_000_000);
    }

    #[test]
    fn figure_table_and_csv_roundtrip() {
        let fig = FigureResult {
            id: "figX".into(),
            title: "test".into(),
            x_label: "n".into(),
            series: vec![
                Series {
                    name: "naive".into(),
                    points: vec![(1000.0, 2.0), (2000.0, 4.0)],
                },
                Series {
                    name: "caslt".into(),
                    points: vec![(1000.0, 1.0), (2000.0, 2.0)],
                },
            ],
        };
        let t = fig.table();
        assert!(t.contains("figX"));
        assert!(t.contains("1K"));
        assert!(t.contains("2.00x"));
        let g = fig.geomean_speedup("naive", "caslt").unwrap();
        assert!((g - 2.0).abs() < 1e-9);

        let dir = std::env::temp_dir().join("pram-bench-test");
        let path = fig.write_csv(&dir).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.starts_with("n,method,ms"));
        assert_eq!(body.lines().count(), 5);
    }

    #[test]
    fn sweep_shapes_match() {
        let cfg = BenchConfig {
            reps: 1,
            ..BenchConfig::default()
        };
        let s = sweep(
            &cfg,
            &[CwMethod::Naive, CwMethod::CasLt],
            &[10, 20],
            |x| x,
            |_, _| {},
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].points.len(), 2);
        assert_eq!(s[1].points[1].0, 20.0);
    }
}
