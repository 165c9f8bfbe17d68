//! One regeneration function per figure in the paper's evaluation (§7).
//!
//! Figure-by-figure workload parameters follow the paper's captions; the
//! default scale divides them to laptop size (EXPERIMENTS.md maps each
//! default back to the published parameters).

use pram_algos::{bfs, connected_components, max_index, CwMethod};
use pram_exec::ThreadPool;

use crate::{make_graph, max_values, sweep, thread_sweep, BenchConfig, FigureResult, ScaleProfile};

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
pub fn fig5(cfg: &BenchConfig) -> FigureResult {
    let p = ThreadPool::new(cfg.threads);
    let series = sweep(
        cfg,
        &CwMethod::PAPER,
        &list_sizes(cfg.scale),
        max_values,
        |values, m| {
            max_index(values, m, &p);
        },
    );
    FigureResult {
        id: "fig5".into(),
        title: format!(
            "constant-time maximum: time vs list size ({} threads)",
            cfg.threads
        ),
        x_label: "list size".into(),
        series,
    }
}

/// Figure 6 — Max: execution time vs thread count at a fixed list size
/// (paper: 60 K elements).
pub fn fig6(cfg: &BenchConfig) -> FigureResult {
    let n = match cfg.scale {
        ScaleProfile::Quick => 1_000,
        ScaleProfile::Default => 4_000,
        ScaleProfile::Paper => 60_000,
    };
    let values = max_values(n);
    let series = sweep(
        cfg,
        &CwMethod::PAPER,
        &thread_sweep(cfg.scale),
        ThreadPool::new,
        |p, m| {
            max_index(&values, m, p);
        },
    );
    FigureResult {
        id: "fig6".into(),
        title: format!("constant-time maximum: time vs threads (n = {n})"),
        x_label: "threads".into(),
        series,
    }
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
pub fn fig7(cfg: &BenchConfig) -> FigureResult {
    let (v, es) = bfs_edge_sweep(cfg.scale);
    let p = ThreadPool::new(cfg.threads);
    let series = sweep(
        cfg,
        &CwMethod::PAPER,
        &es,
        |e| make_graph(v, e, cfg.seed),
        |g, m| {
            bfs(g, 0, m, &p);
        },
    );
    FigureResult {
        id: "fig7".into(),
        title: format!("BFS: time vs edges ({v} vertices, {} threads)", cfg.threads),
        x_label: "edges".into(),
        series,
    }
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
pub fn fig8(cfg: &BenchConfig) -> FigureResult {
    let (vs, e) = bfs_vertex_sweep(cfg.scale);
    let p = ThreadPool::new(cfg.threads);
    let series = sweep(
        cfg,
        &CwMethod::PAPER,
        &vs,
        |v| make_graph(v, e, cfg.seed),
        |g, m| {
            bfs(g, 0, m, &p);
        },
    );
    FigureResult {
        id: "fig8".into(),
        title: format!("BFS: time vs vertices ({e} edges, {} threads)", cfg.threads),
        x_label: "vertices".into(),
        series,
    }
}

/// Figure 9 — BFS: execution time vs thread count (paper: 100 K vertices,
/// 30 M edges).
pub fn fig9(cfg: &BenchConfig) -> FigureResult {
    let (v, e) = match cfg.scale {
        ScaleProfile::Quick => (2_000, 8_000),
        ScaleProfile::Default => (20_000, 200_000),
        ScaleProfile::Paper => (100_000, 30_000_000),
    };
    let g = make_graph(v, e, cfg.seed);
    let series = sweep(
        cfg,
        &CwMethod::PAPER,
        &thread_sweep(cfg.scale),
        ThreadPool::new,
        |p, m| {
            bfs(&g, 0, m, p);
        },
    );
    FigureResult {
        id: "fig9".into(),
        title: format!("BFS: time vs threads ({v} vertices, {e} edges)"),
        x_label: "threads".into(),
        series,
    }
}

/// The CC figures compare gatekeeper vs CAS-LT (the paper implements no
/// naive CC — §7.3).
const CC_METHODS: [CwMethod; 2] = [CwMethod::Gatekeeper, CwMethod::CasLt];

/// Figure 10 — CC: execution time vs edge count (paper: 100 K vertices,
/// 32 threads, prefix-sum vs CAS-LT).
pub fn fig10(cfg: &BenchConfig) -> FigureResult {
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
    let series = sweep(
        cfg,
        &CC_METHODS,
        &es,
        |e| make_graph(v, e, cfg.seed),
        |g, m| {
            connected_components(g, m, &p);
        },
    );
    FigureResult {
        id: "fig10".into(),
        title: format!("CC: time vs edges ({v} vertices, {} threads)", cfg.threads),
        x_label: "edges".into(),
        series,
    }
}

/// Figure 11 — CC: execution time vs vertex count at fixed edges
/// (paper: 30 M edges, 32 threads).
pub fn fig11(cfg: &BenchConfig) -> FigureResult {
    let (vs, e) = match cfg.scale {
        ScaleProfile::Quick => (vec![500, 1_000], 4_000),
        ScaleProfile::Default => (vec![2_000, 5_000, 10_000, 20_000], 100_000),
        ScaleProfile::Paper => (vec![50_000, 100_000, 200_000, 400_000], 30_000_000),
    };
    let p = ThreadPool::new(cfg.threads);
    let series = sweep(
        cfg,
        &CC_METHODS,
        &vs,
        |v| make_graph(v, e, cfg.seed),
        |g, m| {
            connected_components(g, m, &p);
        },
    );
    FigureResult {
        id: "fig11".into(),
        title: format!("CC: time vs vertices ({e} edges, {} threads)", cfg.threads),
        x_label: "vertices".into(),
        series,
    }
}

/// Figure 12 — CC: execution time vs thread count (paper: 100 K vertices,
/// 30 M edges).
pub fn fig12(cfg: &BenchConfig) -> FigureResult {
    let (v, e) = match cfg.scale {
        ScaleProfile::Quick => (1_000, 4_000),
        ScaleProfile::Default => (10_000, 100_000),
        ScaleProfile::Paper => (100_000, 30_000_000),
    };
    let g = make_graph(v, e, cfg.seed);
    let series = sweep(
        cfg,
        &CC_METHODS,
        &thread_sweep(cfg.scale),
        ThreadPool::new,
        |p, m| {
            connected_components(&g, m, p);
        },
    );
    FigureResult {
        id: "fig12".into(),
        title: format!("CC: time vs threads ({v} vertices, {e} edges)"),
        x_label: "threads".into(),
        series,
    }
}

/// All eight figures in order.
pub fn all(cfg: &BenchConfig) -> Vec<FigureResult> {
    vec![
        fig5(cfg),
        fig6(cfg),
        fig7(cfg),
        fig8(cfg),
        fig9(cfg),
        fig10(cfg),
        fig11(cfg),
        fig12(cfg),
    ]
}

/// Resolve a figure by id.
pub fn by_id(id: &str, cfg: &BenchConfig) -> Option<FigureResult> {
    Some(match id {
        "fig5" => fig5(cfg),
        "fig6" => fig6(cfg),
        "fig7" => fig7(cfg),
        "fig8" => fig8(cfg),
        "fig9" => fig9(cfg),
        "fig10" => fig10(cfg),
        "fig11" => fig11(cfg),
        "fig12" => fig12(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BenchConfig {
        BenchConfig {
            scale: ScaleProfile::Quick,
            threads: 2,
            reps: 1,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn every_figure_regenerates_at_quick_scale() {
        let cfg = quick_cfg();
        for fig in all(&cfg) {
            assert!(!fig.series.is_empty(), "{} has no series", fig.id);
            let n = fig.series[0].points.len();
            assert!(n >= 2, "{} has a degenerate sweep", fig.id);
            for s in &fig.series {
                assert_eq!(s.points.len(), n, "{} ragged series", fig.id);
                assert!(s.points.iter().all(|&(_, t)| t > 0.0));
            }
            assert!(!fig.table().is_empty());
        }
    }

    #[test]
    fn by_id_resolves_all_and_rejects_unknown() {
        let cfg = quick_cfg();
        for id in [
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        ] {
            assert!(by_id(id, &cfg).is_some(), "{id}");
        }
        assert!(by_id("fig99", &cfg).is_none());
    }
}
