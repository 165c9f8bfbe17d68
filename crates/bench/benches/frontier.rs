//! Frontier-strategy bench group: dense scan vs sparse top-down vs
//! direction-optimizing BFS, across the single-winner concurrent-write
//! methods, on three frontier shapes:
//!
//! * `rmat18` — skewed R-MAT (2^18 vertices): frontiers explode after one
//!   hop, so the direction-optimizing switch pulls for the few dense levels
//!   and avoids both the per-level O(n) scan and most edge traversals.
//! * `path14` — a path (2^14 vertices): maximal depth, one-vertex
//!   frontiers. The dense scan pays O(n) *per level* (O(n²) total); the
//!   sparse strategies pay O(1) per level plus barrier overhead.
//! * `star18` — a star (2^18 vertices): a single, maximally dense level.
//!
//! Also times connected components on `rmat18`.
//!
//! Run with `cargo bench -p pram-bench --bench frontier`; set
//! `PRAM_BENCH_THREADS` (a single count or a comma-separated sweep list,
//! e.g. `1,2,4`) / `PRAM_BENCH_REPS` to override the defaults. Every
//! result row records the thread count it ran under. Writes
//! `BENCH_frontier.json` into the repository root (override the
//! directory with `PRAM_BENCH_OUT`).

use std::io::Write as _;
use std::path::PathBuf;

use pram_algos::bfs::{bfs_with_strategy_rev, BfsStrategy, DIRECTION_ALPHA, DIRECTION_BETA};
use pram_algos::{connected_components, CwMethod};
use pram_bench::{ms, telemetry_columns, time_median};
use pram_exec::{PoolConfig, ThreadPool};
use pram_graph::{CsrGraph, GraphGen};

/// The four single-winner methods the figure sweeps (CAS-LT-padded is an
/// ablation, covered in `ablations.rs`).
const METHODS: [CwMethod; 4] = [
    CwMethod::Gatekeeper,
    CwMethod::GatekeeperSkip,
    CwMethod::CasLt,
    CwMethod::Lock,
];

struct Workload {
    name: &'static str,
    graph: CsrGraph,
    source: u32,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// `PRAM_BENCH_THREADS` as a single count or a comma-separated sweep
/// list; defaults to the machine's available parallelism.
fn env_threads_list() -> Vec<usize> {
    let ncpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut list = std::env::var("PRAM_BENCH_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|x| x.trim().parse::<usize>().ok())
                .filter(|&t| t >= 1)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![ncpus]);
    list.sort_unstable();
    list.dedup();
    list
}

/// Highest-degree vertex — a deterministic, always-connected source.
fn hub(g: &CsrGraph) -> u32 {
    (0..g.num_vertices())
        .max_by_key(|&v| g.offsets()[v + 1] - g.offsets()[v])
        .unwrap_or(0) as u32
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads_list = env_threads_list();
    let reps = env_usize("PRAM_BENCH_REPS", if quick { 1 } else { 3 });
    let rmat_scale: u32 = if quick { 12 } else { 18 };
    let path_n: usize = if quick { 1 << 10 } else { 1 << 14 };
    let star_n: usize = if quick { 1 << 12 } else { 1 << 18 };

    eprintln!("frontier bench: threads={threads_list:?} reps={reps} (median reported)");

    let rmat_n = 1usize << rmat_scale;
    let workloads = [
        Workload {
            name: "rmat18",
            graph: CsrGraph::from_edges(
                rmat_n,
                &GraphGen::new(42).rmat_standard(rmat_scale, rmat_n * 16),
                true,
            ),
            source: 0, // patched to the hub below
        },
        Workload {
            name: "path14",
            graph: CsrGraph::from_edges(path_n, &GraphGen::path(path_n), true),
            source: 0,
        },
        Workload {
            name: "star18",
            graph: CsrGraph::from_edges(star_n, &GraphGen::star(star_n), true),
            source: 0,
        },
    ];

    // The in-edge views are graph preparation (like the CSR builds
    // themselves), shared by every pull-capable traversal — not timed,
    // and computed once across the whole thread sweep.
    let revs: Vec<_> = workloads.iter().map(|w| w.graph.reverse()).collect();

    let mut rows: Vec<String> = Vec::new();
    // (threads/graph/strategy) -> median ms under CAS-LT, for the summary.
    let mut caslt_ms: Vec<(String, f64)> = Vec::new();

    for &threads in &threads_list {
        let pool = ThreadPool::new(threads);
        // Telemetry rides on a separate pool so the timed runs stay on the
        // plain configuration; each row gets one untimed profiling run.
        let profile_pool = ThreadPool::with_config(PoolConfig::new(threads).telemetry(true));
        for (w, rev) in workloads.iter().zip(&revs) {
            let g = &w.graph;
            let source = if w.name == "rmat18" { hub(g) } else { w.source };
            eprintln!(
                "-- {} @ T={threads}: n={} m={} source={}",
                w.name,
                g.num_vertices(),
                g.num_directed_edges(),
                source
            );
            for method in METHODS {
                for strategy in BfsStrategy::ALL {
                    let t = time_median(reps, || {
                        std::hint::black_box(bfs_with_strategy_rev(
                            g, rev, source, method, strategy, &pool,
                        ));
                    });
                    let t = ms(t);
                    eprintln!(
                        "   bfs/{}/{method}/{strategy}/T={threads}: {t:.3} ms",
                        w.name
                    );
                    std::hint::black_box(bfs_with_strategy_rev(
                        g,
                        rev,
                        source,
                        method,
                        strategy,
                        &profile_pool,
                    ));
                    rows.push(format!(
                        "{{\"kernel\": \"bfs\", \"graph\": \"{}\", \"method\": \"{method}\", \
                         \"strategy\": \"{strategy}\", \"threads\": {threads}, \"ms\": {t:.4}, {}}}",
                        w.name,
                        telemetry_columns(&profile_pool)
                    ));
                    if method == CwMethod::CasLt {
                        caslt_ms.push((format!("{}/{strategy}/T={threads}", w.name), t));
                    }
                }
            }
        }

        // CC on the skewed graph: vertex-centric hooking over the CSR.
        let g = &workloads[0].graph;
        for method in METHODS {
            let t = time_median(reps, || {
                std::hint::black_box(connected_components(g, method, &pool));
            });
            let t = ms(t);
            eprintln!("   cc/rmat18/{method}/T={threads}: {t:.3} ms");
            std::hint::black_box(connected_components(g, method, &profile_pool));
            rows.push(format!(
                "{{\"kernel\": \"cc\", \"graph\": \"rmat18\", \"method\": \"{method}\", \
                 \"strategy\": \"vertex\", \"threads\": {threads}, \"ms\": {t:.4}, {}}}",
                telemetry_columns(&profile_pool)
            ));
        }
    }

    for (k, t) in &caslt_ms {
        eprintln!("summary cas-lt {k}: {t:.3} ms");
    }

    let out_dir = std::env::var("PRAM_BENCH_OUT").map_or_else(
        |_| {
            // benches run with CWD = crate root (crates/bench); the JSON
            // belongs two levels up, next to EXPERIMENTS.md.
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        },
        PathBuf::from,
    );
    let path = out_dir.join("BENCH_frontier.json");
    let graphs: Vec<String> = workloads
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": \"{}\", \"vertices\": {}, \"directed_edges\": {}}}",
                w.name,
                w.graph.num_vertices(),
                w.graph.num_directed_edges()
            )
        })
        .collect();
    let threads_json: Vec<String> = threads_list.iter().map(|t| t.to_string()).collect();
    let json = format!(
        "{{\n  \"bench\": \"frontier\",\n  \"command\": \"cargo bench -p pram-bench --bench frontier\",\n  \
         \"threads_swept\": [{threads_swept}],\n  \"reps\": {reps},\n  \"quick\": {quick},\n  \
         \"direction_alpha\": {DIRECTION_ALPHA},\n  \"direction_beta\": {DIRECTION_BETA},\n  \
         \"graphs\": [\n    {}\n  ],\n  \"results\": [\n    {}\n  ]\n}}\n",
        graphs.join(",\n    "),
        rows.join(",\n    "),
        threads_swept = threads_json.join(", ")
    );
    let mut f = std::fs::File::create(&path).expect("create BENCH_frontier.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_frontier.json");
    eprintln!("wrote {}", path.display());
}
