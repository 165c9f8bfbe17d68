//! `figures figures` (or any of `fig5` … `fig12`) → `BENCH_figures.json`:
//! one regeneration function per figure in the paper's evaluation (§7).
//!
//! Figure-by-figure workload parameters follow the paper's captions; the
//! default scale divides them to laptop size (EXPERIMENTS.md maps each
//! default back to the published parameters). Every timing row is keyed by
//! figure, x value and method. The `summary` section holds one row per
//! figure: its title, the name of its x field, its baseline method and the
//! geometric mean over the sweep of the baseline's median ÷ CAS-LT's — how
//! the paper summarizes each figure.

use pram_algos::{bfs, connected_components, max_index, CwMethod};
use pram_exec::ThreadPool;

use crate::runner::{field, json_str, Report};
use crate::{make_graph, max_values, sweep, thread_sweep, BenchConfig, ScaleProfile};

/// One regenerated figure: its `summary` row and its timing rows.
type Figure = (String, Vec<String>);

/// A figure's regeneration function.
type Regenerate = fn(&BenchConfig) -> Figure;

/// Every figure id and its regeneration function, in the paper's order.
pub const FIGURES: [(&str, Regenerate); 8] = [
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
];

/// Run the figures `ids` (each an id of [`FIGURES`]) into one report, in
/// the paper's order. Its `command` names the figures when they are a
/// subset.
pub fn run(cfg: &BenchConfig, ids: &[&str]) -> Report {
    let chosen: Vec<_> = FIGURES.iter().filter(|(id, _)| ids.contains(id)).collect();
    let targets = if chosen.len() == FIGURES.len() {
        "figures".to_string()
    } else {
        chosen
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let (summary, rows): (Vec<String>, Vec<Vec<String>>) =
        chosen.iter().map(|(_, figure)| figure(cfg)).unzip();

    let mut threads = Vec::new();
    for s in &summary {
        if field(s, "x") == Some("threads") {
            threads.extend(thread_sweep(cfg.scale));
        } else {
            threads.push(cfg.threads);
        }
    }
    threads.sort_unstable();
    threads.dedup();

    let mut report = Report::new("figures", &targets, cfg, &threads);
    report.sections = vec![("results", rows.concat()), ("summary", summary)];
    report
}

/// The row names of `methods`; the first is a figure's baseline.
fn names(methods: &[CwMethod]) -> Vec<String> {
    methods.iter().map(ToString::to_string).collect()
}

/// Pair a figure's timing `rows` with its `summary` row: title, x field,
/// baseline (`names[0]`) and the geomean of baseline ÷ CAS-LT medians.
fn summary(id: &str, title: &str, x: &str, names: &[String], rows: Vec<String>) -> Figure {
    let summary = format!(
        "{{\"figure\": \"{id}\", \"title\": {}, \"x\": \"{x}\", \"baseline\": \"{}\", \
         \"geomean_baseline_over_caslt\": {:.4}}}",
        json_str(title),
        names[0],
        geomean_ratio(&rows, &names[0], "caslt")
    );
    (summary, rows)
}

/// Geometric mean over a sweep's x values of method `a`'s median ÷ method
/// `b`'s, read back from the timing rows.
fn geomean_ratio(rows: &[String], a: &str, b: &str) -> f64 {
    let medians = |method| {
        rows.iter()
            .filter(move |r| field(r, "method") == Some(method))
            .map(|r| field(r, "median").and_then(|m| m.parse::<f64>().ok()))
            .map(|m| m.expect("a timing row has a numeric median"))
    };
    let logs: Vec<f64> = (medians(a).zip(medians(b)))
        .map(|(ta, tb)| (ta / tb).ln())
        .collect();
    assert!(!logs.is_empty(), "no {a} and {b} rows to compare");
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

fn list_sizes(scale: ScaleProfile) -> Vec<usize> {
    match scale {
        ScaleProfile::Quick => vec![500, 1_000],
        ScaleProfile::Default => vec![1_000, 2_000, 4_000, 6_000, 8_000],
        // Paper: "list size of 10K–60K elements".
        ScaleProfile::Paper => vec![10_000, 20_000, 30_000, 40_000, 50_000, 60_000],
    }
}

/// Figure 5 — Max: execution time vs list size at a fixed thread count
/// (paper: 32 threads, naive / prefix-sum / CAS-LT).
fn fig5(cfg: &BenchConfig) -> Figure {
    let p = ThreadPool::new(cfg.threads);
    let names = names(&CwMethod::PAPER);
    let xs = list_sizes(cfg.scale);
    let rows = sweep(
        cfg,
        ["figure", "fig5"],
        "list_size",
        &xs,
        &names,
        max_values,
        |values, i| {
            max_index(values, CwMethod::PAPER[i], &p);
        },
    );
    let title = format!(
        "constant-time maximum: time vs list size ({} threads)",
        cfg.threads
    );
    summary("fig5", &title, "list_size", &names, rows)
}

/// Figure 6 — Max: execution time vs thread count at a fixed list size
/// (paper: 60 K elements).
fn fig6(cfg: &BenchConfig) -> Figure {
    let n = match cfg.scale {
        ScaleProfile::Quick => 1_000,
        ScaleProfile::Default => 4_000,
        ScaleProfile::Paper => 60_000,
    };
    let values = max_values(n);
    let names = names(&CwMethod::PAPER);
    let xs = thread_sweep(cfg.scale);
    let rows = sweep(
        cfg,
        ["figure", "fig6"],
        "threads",
        &xs,
        &names,
        ThreadPool::new,
        |p, i| {
            max_index(&values, CwMethod::PAPER[i], p);
        },
    );
    let title = format!("constant-time maximum: time vs threads (n = {n})");
    summary("fig6", &title, "threads", &names, rows)
}

fn bfs_edge_sweep(scale: ScaleProfile) -> (usize, Vec<usize>) {
    match scale {
        ScaleProfile::Quick => (2_000, vec![4_000, 8_000]),
        ScaleProfile::Default => (20_000, vec![50_000, 100_000, 200_000, 300_000]),
        // Paper: 100 K vertices, 5 M–30 M edges.
        ScaleProfile::Paper => (
            100_000,
            vec![
                5_000_000, 10_000_000, 15_000_000, 20_000_000, 25_000_000, 30_000_000,
            ],
        ),
    }
}

/// Figure 7 — BFS: execution time vs edge count (paper: 100 K-vertex
/// random graphs, 32 threads).
fn fig7(cfg: &BenchConfig) -> Figure {
    let (v, es) = bfs_edge_sweep(cfg.scale);
    let p = ThreadPool::new(cfg.threads);
    let names = names(&CwMethod::PAPER);
    let graph = |e| make_graph(v, e, cfg.seed);
    let rows = sweep(
        cfg,
        ["figure", "fig7"],
        "edges",
        &es,
        &names,
        graph,
        |g, i| {
            bfs(g, 0, CwMethod::PAPER[i], &p);
        },
    );
    let title = format!("BFS: time vs edges ({v} vertices, {} threads)", cfg.threads);
    summary("fig7", &title, "edges", &names, rows)
}

fn bfs_vertex_sweep(scale: ScaleProfile) -> (Vec<usize>, usize) {
    match scale {
        ScaleProfile::Quick => (vec![1_000, 2_000], 8_000),
        ScaleProfile::Default => (vec![5_000, 10_000, 20_000, 40_000], 200_000),
        // Paper: 30 M edges, vertex count swept.
        ScaleProfile::Paper => (vec![50_000, 100_000, 200_000, 400_000], 30_000_000),
    }
}

/// Figure 8 — BFS: execution time vs vertex count at fixed edges
/// (paper: 30 M edges, 32 threads).
fn fig8(cfg: &BenchConfig) -> Figure {
    let (vs, e) = bfs_vertex_sweep(cfg.scale);
    let p = ThreadPool::new(cfg.threads);
    let names = names(&CwMethod::PAPER);
    let graph = |v| make_graph(v, e, cfg.seed);
    let rows = sweep(
        cfg,
        ["figure", "fig8"],
        "vertices",
        &vs,
        &names,
        graph,
        |g, i| {
            bfs(g, 0, CwMethod::PAPER[i], &p);
        },
    );
    let title = format!("BFS: time vs vertices ({e} edges, {} threads)", cfg.threads);
    summary("fig8", &title, "vertices", &names, rows)
}

/// Figure 9 — BFS: execution time vs thread count (paper: 100 K vertices,
/// 30 M edges).
fn fig9(cfg: &BenchConfig) -> Figure {
    let (v, e) = match cfg.scale {
        ScaleProfile::Quick => (2_000, 8_000),
        ScaleProfile::Default => (20_000, 200_000),
        ScaleProfile::Paper => (100_000, 30_000_000),
    };
    let g = make_graph(v, e, cfg.seed);
    let names = names(&CwMethod::PAPER);
    let xs = thread_sweep(cfg.scale);
    let rows = sweep(
        cfg,
        ["figure", "fig9"],
        "threads",
        &xs,
        &names,
        ThreadPool::new,
        |p, i| {
            bfs(&g, 0, CwMethod::PAPER[i], p);
        },
    );
    let title = format!("BFS: time vs threads ({v} vertices, {e} edges)");
    summary("fig9", &title, "threads", &names, rows)
}

/// The CC figures compare gatekeeper vs CAS-LT (the paper implements no
/// naive CC — §7.3).
const CC_METHODS: [CwMethod; 2] = [CwMethod::Gatekeeper, CwMethod::CasLt];

/// Figure 10 — CC: execution time vs edge count (paper: 100 K vertices,
/// 32 threads, prefix-sum vs CAS-LT).
fn fig10(cfg: &BenchConfig) -> Figure {
    let (v, es) = match cfg.scale {
        ScaleProfile::Quick => (1_000, vec![2_000, 4_000]),
        ScaleProfile::Default => (10_000, vec![20_000, 50_000, 100_000, 200_000]),
        ScaleProfile::Paper => (
            100_000,
            vec![
                5_000_000, 10_000_000, 15_000_000, 20_000_000, 25_000_000, 30_000_000,
            ],
        ),
    };
    let p = ThreadPool::new(cfg.threads);
    let names = names(&CC_METHODS);
    let graph = |e| make_graph(v, e, cfg.seed);
    let rows = sweep(
        cfg,
        ["figure", "fig10"],
        "edges",
        &es,
        &names,
        graph,
        |g, i| {
            connected_components(g, CC_METHODS[i], &p);
        },
    );
    let title = format!("CC: time vs edges ({v} vertices, {} threads)", cfg.threads);
    summary("fig10", &title, "edges", &names, rows)
}

/// Figure 11 — CC: execution time vs vertex count at fixed edges
/// (paper: 30 M edges, 32 threads).
fn fig11(cfg: &BenchConfig) -> Figure {
    let (vs, e) = match cfg.scale {
        ScaleProfile::Quick => (vec![500, 1_000], 4_000),
        ScaleProfile::Default => (vec![2_000, 5_000, 10_000, 20_000], 100_000),
        ScaleProfile::Paper => (vec![50_000, 100_000, 200_000, 400_000], 30_000_000),
    };
    let p = ThreadPool::new(cfg.threads);
    let names = names(&CC_METHODS);
    let graph = |v| make_graph(v, e, cfg.seed);
    let rows = sweep(
        cfg,
        ["figure", "fig11"],
        "vertices",
        &vs,
        &names,
        graph,
        |g, i| {
            connected_components(g, CC_METHODS[i], &p);
        },
    );
    let title = format!("CC: time vs vertices ({e} edges, {} threads)", cfg.threads);
    summary("fig11", &title, "vertices", &names, rows)
}

/// Figure 12 — CC: execution time vs thread count (paper: 100 K vertices,
/// 30 M edges).
fn fig12(cfg: &BenchConfig) -> Figure {
    let (v, e) = match cfg.scale {
        ScaleProfile::Quick => (1_000, 4_000),
        ScaleProfile::Default => (10_000, 100_000),
        ScaleProfile::Paper => (100_000, 30_000_000),
    };
    let g = make_graph(v, e, cfg.seed);
    let names = names(&CC_METHODS);
    let xs = thread_sweep(cfg.scale);
    let rows = sweep(
        cfg,
        ["figure", "fig12"],
        "threads",
        &xs,
        &names,
        ThreadPool::new,
        |p, i| {
            connected_components(&g, CC_METHODS[i], p);
        },
    );
    let title = format!("CC: time vs threads ({v} vertices, {e} edges)");
    summary("fig12", &title, "threads", &names, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{timing_row, Samples};

    #[test]
    fn geomean_ratio_reads_the_medians_back() {
        let row = |x: usize, method: &str, ms: f64| {
            let key = [
                ("figure", json_str("figX")),
                ("n", x.to_string()),
                ("method", json_str(method)),
            ];
            timing_row(&key, "ms", &Samples::new(vec![ms]), "")
        };
        let rows = [
            row(1, "naive", 2.0),
            row(1, "caslt", 1.0),
            row(2, "naive", 8.0),
            row(2, "caslt", 1.0),
        ];
        assert!((geomean_ratio(&rows, "naive", "caslt") - 4.0).abs() < 1e-9);
    }

    #[test]
    fn a_subset_run_writes_only_its_figures_and_names_them() {
        let cfg = BenchConfig {
            scale: ScaleProfile::Quick,
            threads: 2,
            reps: 1,
            ..BenchConfig::default()
        };
        let report = run(&cfg, &["fig12", "fig10"]);
        let command = report.fields.iter().find(|(k, _)| *k == "command").unwrap();
        assert_eq!(command.1, "\"figures --quick fig10 fig12\"");
        let figs: Vec<&str> = (report.section("summary").iter())
            .map(|s| field(s, "figure").unwrap())
            .collect();
        assert_eq!(figs, ["fig10", "fig12"]);
        assert!(report
            .section("results")
            .iter()
            .all(|r| figs.contains(&field(r, "figure").unwrap())));
    }
}
