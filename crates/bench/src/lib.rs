//! # pram-bench — regeneration harness for every figure in the paper's
//! evaluation
//!
//! The paper's §7 reports eight figures (5–12): execution time of the
//! Max / BFS / CC kernels under the naive, gatekeeper (prefix-sum) and
//! CAS-LT concurrent-write methods, swept over problem size and thread
//! count. [`figures`] reruns each sweep; [`ablations`] adds the
//! design-choice experiments DESIGN.md calls out, with the one arbiter
//! that exists only to be ablated, and the future-work experiments of §8;
//! [`frontier`] and [`micro`] time BFS strategies and
//! the arbitration primitives. Every target writes a `BENCH_<target>.json`
//! file through [`runner`], which also holds the one timing primitive they
//! all use. The `figures` binary is the entry point for all of them.
//!
//! Scales: the paper ran 32 threads on a 2×16-core Andes node with up to
//! 60 K-element lists and 100 K-vertex / 30 M-edge graphs. Default scales
//! here are reduced to suit small machines; `ScaleProfile::Paper`
//! (`--paper-scale`) restores the published parameters. EXPERIMENTS.md
//! records the paper-vs-measured comparison and the hardware caveats.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod figures;
pub mod frontier;
pub mod micro;
pub mod runner;

use std::path::PathBuf;

use pram_exec::{CwCounters, ThreadPool};
use pram_graph::{CsrGraph, GraphGen, ReverseCsr};

use runner::{json_str, time_interleaved, timing_row};

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
    /// Directory the `BENCH_*.json` files are written to.
    pub out_dir: PathBuf,
    /// Workload seed, which also draws each timed pass's config order
    /// (recorded so runs are reproducible).
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

/// Time one sweep: for each x in `xs`, build the workload once and time
/// `run(workload, i)` for every `names[i]`, interleaved. Returns one
/// timing row per (x, name), keyed by `id` (for example `["figure",
/// "fig5"]`), then `x_name` = x, then `"method"` = the name.
pub fn sweep<W>(
    cfg: &BenchConfig,
    id: [&str; 2],
    x_name: &str,
    xs: &[usize],
    names: &[String],
    mut workload: impl FnMut(usize) -> W,
    mut run: impl FnMut(&W, usize),
) -> Vec<String> {
    let mut rows = Vec::with_capacity(xs.len() * names.len());
    for &x in xs {
        let w = workload(x);
        let times = time_interleaved(cfg.reps, names.len(), cfg.seed, |i| run(&w, i));
        for (name, s) in names.iter().zip(&times) {
            let key = [
                (id[0], json_str(id[1])),
                (x_name, x.to_string()),
                ("method", json_str(name)),
            ];
            rows.push(timing_row(&key, "ms", s, ""));
        }
    }
    rows
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
        let t = time_interleaved(3, 2, 0, |i| calls[i] += 1);
        assert_eq!(calls, [4, 4]); // 1 warm-up + 3 timed, per config
        assert!(t.iter().all(|s| s.median() < 1e3));
    }

    #[test]
    fn sweep_rows_are_keyed_by_id_x_and_name() {
        let cfg = BenchConfig {
            reps: 2,
            ..BenchConfig::default()
        };
        let mut calls = Vec::new();
        let names = ["naive".to_string(), "caslt".to_string()];
        let rows = sweep(
            &cfg,
            ["figure", "figX"],
            "n",
            &[10, 20],
            &names,
            |x| x,
            |&x, i| calls.push((x, i)),
        );
        let keys: Vec<(&str, &str, &str)> = (rows.iter())
            .map(|r| {
                let f = |name| runner::field(r, name).unwrap();
                (f("figure"), f("n"), f("method"))
            })
            .collect();
        let want = [
            ("figX", "10", "naive"),
            ("figX", "10", "caslt"),
            ("figX", "20", "naive"),
            ("figX", "20", "caslt"),
        ];
        assert_eq!(keys, want);
        // Each point runs a warm-up pass in order, then two timed passes
        // that each call every name once.
        let pass = |x| vec![(x, 0), (x, 1)];
        for (point, x) in calls.chunks(6).zip([10, 20]) {
            assert_eq!(point[..2], pass(x));
            for timed in point[2..].chunks(2) {
                let mut sorted = timed.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, pass(x), "{calls:?}");
            }
        }
        assert_eq!(calls.len(), 12);
    }

    #[test]
    fn quick_json_files_have_host_ordered_rows_and_sized_graph_names() {
        let cfg = BenchConfig {
            scale: ScaleProfile::Quick,
            threads: 2,
            reps: 2,
            ..BenchConfig::default()
        };
        let (frontier, _guard) = frontier::run(&cfg);
        let figures = figures::run(&cfg, &figures::FIGURES.map(|(id, _)| id));
        let ablations = ablations::run(&cfg);
        for report in [&frontier, &micro::run(&cfg), &figures, &ablations] {
            let json = report.to_json();
            assert!(json.contains("\n  \"host\": {\"nproc\": "), "{json}");
            let field = |row, name| runner::field(row, name).map(String::from);
            let num = |row, name| -> f64 { field(row, name).unwrap().parse().unwrap() };
            let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"p10\"")).collect();
            assert_eq!(rows.len(), report.section("results").len());
            for row in rows {
                assert!(num(row, "samples") >= 2.0, "{row}");
                assert!(num(row, "p10") > 0.0, "{row}");
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

        // Each figure sweeps at least two x values, timing every method
        // once at each.
        let summary = figures.section("summary");
        assert_eq!(summary.len(), figures::FIGURES.len());
        for s in summary {
            let (id, x) = (runner::field(s, "figure"), runner::field(s, "x").unwrap());
            let rows: Vec<&String> = (figures.section("results").iter())
                .filter(|r| runner::field(r, "figure") == id)
                .collect();
            let mut points: Vec<&str> = rows.iter().map(|r| runner::field(r, x).unwrap()).collect();
            points.dedup();
            assert!(points.len() >= 2, "{s}: degenerate sweep");
            let methods: Vec<&str> = rows
                .iter()
                .map(|r| runner::field(r, "method").unwrap())
                .collect();
            let per_point = &methods[..methods.len() / points.len()];
            assert!(per_point.contains(&"caslt"), "{s}");
            assert_eq!(methods, per_point.repeat(points.len()), "{s}: ragged sweep");
            let g: f64 = runner::field(s, "geomean_baseline_over_caslt")
                .unwrap()
                .parse()
                .unwrap();
            assert!(g.is_finite() && g > 0.0, "{s}");
        }
        // Every experiment lands, and each ablation times at least two
        // variants.
        let results = ablations.section("results");
        let mut experiments: Vec<&str> = (results.iter())
            .map(|r| runner::field(r, "experiment").unwrap())
            .collect();
        experiments.dedup();
        let want = [
            "ablate_fastpath",
            "ablate_lock",
            "ext_crew_vs_crcw",
            "ext_matching",
        ];
        assert_eq!(experiments, want);
        for id in want.iter().filter(|id| id.starts_with("ablate_")) {
            let mut methods: Vec<&str> = (results.iter())
                .filter(|r| runner::field(r, "experiment") == Some(id))
                .map(|r| runner::field(r, "method").unwrap())
                .collect();
            methods.sort_unstable();
            methods.dedup();
            assert!(methods.len() >= 2, "{id}: {methods:?}");
        }
        let claims = ablations.section("claims");
        assert_eq!(claims.len(), 3);
        for row in claims {
            let num = |name| -> u64 { runner::field(row, name).unwrap().parse().unwrap() };
            assert!(0 < num("wins") && num("wins") <= num("attempts"), "{row}");
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
