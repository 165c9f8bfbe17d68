//! # pram-bench — regeneration harness for every figure in the paper's
//! evaluation
//!
//! The paper's §7 reports eight figures (5–12): execution time of the
//! Max / BFS / CC kernels under the naive, gatekeeper (prefix-sum) and
//! CAS-LT concurrent-write methods, swept over problem size and thread
//! count. [`figures`] contains one function per figure that reruns the
//! same sweep and returns a [`FigureResult`] (printable table + CSV);
//! [`ablations`] adds the design-choice experiments DESIGN.md calls out,
//! timing the arbiters of [`ablation`] that exist only to be ablated.
//! [`frontier`] and [`micro`] write `BENCH_*.json` files
//! through [`runner`], which also holds the one timing primitive every
//! target uses. The `figures` binary is the entry point for all of them.
//!
//! Scales: the paper ran 32 threads on a 2×16-core Andes node with up to
//! 60 K-element lists and 100 K-vertex / 30 M-edge graphs. Default scales
//! here are reduced to suit small machines; `ScaleProfile::Paper`
//! (`--paper-scale`) restores the published parameters. EXPERIMENTS.md
//! records the paper-vs-measured comparison and the hardware caveats.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod ablations;
pub mod ext;
pub mod figures;
pub mod frontier;
pub mod micro;
pub mod runner;

use std::io::Write as _;
use std::path::{Path, PathBuf};

use pram_algos::CwMethod;
use pram_exec::{CwCounters, ThreadPool};
use pram_graph::{CsrGraph, GraphGen, ReverseCsr};

use runner::time_interleaved;

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
    /// Timed passes per config (see [`runner::time_interleaved`]).
    pub reps: usize,
    /// Directory for CSV and JSON output.
    pub out_dir: PathBuf,
    /// Workload seed (recorded so runs are reproducible).
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            scale: ScaleProfile::Default,
            threads: 4,
            reps: 10,
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

/// Pseudo-random list values for the Max kernel (fixed multiplier hash of
/// the index — reproducible without touching the seed).
pub(crate) fn max_values(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect()
}

/// A reproducible uniform random undirected graph (the paper's workload).
pub fn make_graph(vertices: usize, edges: usize, seed: u64) -> CsrGraph {
    let e = GraphGen::new(seed).gnm(vertices, edges);
    CsrGraph::from_edges(vertices, &e, true)
}

/// Run one method sweep: for each x in `xs`, build the workload once and
/// time `run(workload, method)` for every method, interleaved. Each point
/// is the median in milliseconds.
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
        let times = time_interleaved(cfg.reps, methods.len(), |i| run(&w, methods[i]));
        for (s, t) in series.iter_mut().zip(times) {
            s.points.push((x as f64, t.median()));
        }
    }
    series
}

/// A named timed variant within a single-point experiment.
pub(crate) type Variant<'a> = (&'a str, Box<dyn FnMut() + 'a>);

/// Time one closure per variant at a single operating point, interleaved.
pub(crate) fn single_point(
    id: &str,
    title: &str,
    cfg: &BenchConfig,
    mut variants: Vec<Variant<'_>>,
) -> FigureResult {
    let times = time_interleaved(cfg.reps, variants.len(), |i| (variants[i].1)());
    let series = variants
        .iter()
        .zip(times)
        .map(|((name, _), t)| Series {
            name: name.to_string(),
            points: vec![(1.0, t.median())],
        })
        .collect();
    FigureResult {
        id: id.into(),
        title: title.into(),
        x_label: "point".into(),
        series,
    }
}

/// Thread counts for a thread-sweep figure under the given scale.
pub fn thread_sweep(scale: ScaleProfile) -> Vec<usize> {
    match scale {
        ScaleProfile::Quick => vec![1, 2],
        ScaleProfile::Default => vec![1, 2, 4, 8],
        ScaleProfile::Paper => vec![1, 2, 4, 8, 16, 32],
    }
}

/// A `BENCH_*.json` graph: its name carries the log2 of the vertex count
/// actually built (`rmat12` under `--quick`, `rmat18` at full size).
pub(crate) struct Workload {
    /// Name recorded in every row, e.g. `"path14"`.
    pub name: String,
    /// The undirected CSR.
    pub graph: CsrGraph,
    /// Its in-edge view: graph preparation, built once and never timed.
    pub rev: ReverseCsr,
    /// BFS source: the highest-degree vertex for R-MAT, vertex 0 otherwise.
    pub source: u32,
}

impl Workload {
    /// Standard R-MAT with 2^`scale` vertices and 16 edges per vertex.
    pub fn rmat(scale: u32) -> Workload {
        let n = 1usize << scale;
        let graph = CsrGraph::from_edges(n, &GraphGen::new(42).rmat_standard(scale, n * 16), true);
        // Highest-degree vertex: deterministic and always connected.
        let source = (0..n)
            .max_by_key(|&v| graph.offsets()[v + 1] - graph.offsets()[v])
            .unwrap_or(0) as u32;
        Workload::new(format!("rmat{scale}"), graph, source)
    }

    /// A path on 2^`log_n` vertices.
    pub fn path(log_n: u32) -> Workload {
        let n = 1usize << log_n;
        let graph = CsrGraph::from_edges(n, &GraphGen::path(n), true);
        Workload::new(format!("path{log_n}"), graph, 0)
    }

    /// A star on 2^`log_n` vertices, centred on vertex 0.
    pub fn star(log_n: u32) -> Workload {
        let n = 1usize << log_n;
        let graph = CsrGraph::from_edges(n, &GraphGen::star(n), true);
        Workload::new(format!("star{log_n}"), graph, 0)
    }

    fn new(name: String, graph: CsrGraph, source: u32) -> Workload {
        let rev = graph.reverse();
        Workload {
            name,
            graph,
            rev,
            source,
        }
    }

    /// The `graphs` row: name, sizes, then `extra` columns if any.
    pub fn json(&self, extra: &str) -> String {
        let sep = if extra.is_empty() { "" } else { ", " };
        format!(
            "{{\"name\": \"{}\", \"vertices\": {}, \"directed_edges\": {}{sep}{extra}}}",
            self.name,
            self.graph.num_vertices(),
            self.graph.num_directed_edges()
        )
    }
}

/// Drain `pool`'s telemetry round report and render the two derived-rate
/// columns every bench row shares (`fast_path_hit_rate`, `cas_retry_rate`)
/// as a JSON fragment. The pool must have been built with
/// [`pram_exec::PoolConfig::telemetry`]; call right after the *untimed*
/// profiling run. The rates are computed over the drained per-round
/// deltas (not the pool-lifetime totals), so one telemetry pool can be
/// reused across many profiled runs without the windows blending.
pub fn telemetry_columns(pool: &ThreadPool) -> String {
    let cw = drain_round_cw(pool);
    format!(
        "\"fast_path_hit_rate\": {:.4}, \"cas_retry_rate\": {:.4}",
        cw.fast_path_hit_rate(),
        cw.cas_retry_rate()
    )
}

/// Drain `pool`'s round report and sum its per-round claim counters.
pub(crate) fn drain_round_cw(pool: &ThreadPool) -> CwCounters {
    let mut cw = CwCounters::default();
    for r in &pool.take_round_report().rounds {
        cw.add(&r.cw);
    }
    cw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_stable_and_warm() {
        let mut calls = [0; 2];
        let t = time_interleaved(3, 2, |i| calls[i] += 1);
        assert_eq!(calls, [4, 4]); // 1 warm-up + 3 timed, per config
        assert!(t.iter().all(|s| s.median() < 1e3));
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
            reps: 2,
            ..BenchConfig::default()
        };
        let mut calls = Vec::new();
        let s = sweep(
            &cfg,
            &[CwMethod::Naive, CwMethod::CasLt],
            &[10, 20],
            |x| x,
            |&x, m| calls.push((x, m)),
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].points.len(), 2);
        assert_eq!(s[1].points[1].0, 20.0);
        // Methods alternate within each point: warm-up pass + two timed.
        let pass = |x| [(x, CwMethod::Naive), (x, CwMethod::CasLt)];
        assert_eq!(calls, [pass(10).repeat(3), pass(20).repeat(3)].concat());
    }

    #[test]
    fn quick_json_files_have_host_ordered_rows_and_sized_graph_names() {
        let cfg = BenchConfig {
            scale: ScaleProfile::Quick,
            reps: 2,
            ..BenchConfig::default()
        };
        let (frontier, _guard) = frontier::run(&cfg);
        for report in [&frontier, &micro::run(&cfg)] {
            let json = report.to_json();
            assert!(json.contains("\n  \"host\": {\"nproc\": "), "{json}");
            let field = |row, name| runner::field(row, name).map(String::from);
            let num = |row, name| -> f64 { field(row, name).unwrap().parse().unwrap() };
            let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"p10\"")).collect();
            assert_eq!(rows.len(), report.section("results").len());
            for row in rows {
                assert!(num(row, "samples") >= 2.0, "{row}");
                assert!(num(row, "p10") <= num(row, "median"), "{row}");
                assert!(num(row, "median") <= num(row, "p90"), "{row}");
            }

            let graphs: Vec<String> = report
                .section("graphs")
                .iter()
                .map(|g| {
                    let name = field(g, "name").unwrap();
                    let log2: u32 = name
                        .trim_start_matches(char::is_alphabetic)
                        .parse()
                        .unwrap();
                    let vertices: usize = field(g, "vertices").unwrap().parse().unwrap();
                    assert_eq!(vertices, 1 << log2, "{name} built with {vertices} vertices");
                    name
                })
                .collect();
            for row in report.section("results") {
                if let Some(g) = field(row, "graph") {
                    assert!(graphs.contains(&g), "{g} is not in the graphs block");
                }
            }
        }

        let rows = frontier.section("results");
        assert!(!rows.is_empty());
        for row in rows {
            let speedup: f64 = runner::field(row, "speedup_self_rel")
                .unwrap_or_else(|| panic!("no speedup_self_rel in {row}"))
                .parse()
                .unwrap();
            assert!(speedup.is_finite() && speedup > 0.0, "{row}");
            if runner::field(row, "threads") == Some("1") {
                assert_eq!(speedup, 1.0, "{row}");
            }
        }
    }
}
