//! Breadth-first search across concurrent-write methods (the paper's
//! Figures 7–9 workload, demo scale).
//!
//! Run with: `cargo run --release --example bfs_methods [n] [m] [threads]`
//!
//! Generates a uniform random undirected graph, runs the Rodinia-style BFS
//! kernel under each method, verifies every run against the serial
//! reference, and reports timings plus the structural consistency check
//! that separates naive from arbitrated writes. Exits non-zero when a
//! method's distances are wrong, or when a single-winner method's tree is
//! torn (naive may tear it).

use std::time::Instant;

use crcw_pram::prelude::*;
use pram_algos::bfs::{bfs, verify_bfs_levels, verify_bfs_tree};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let m: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(120_000);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    println!("generating G(n = {n}, m = {m}) with seed 42 ...");
    let edges = GraphGen::new(42).gnm(n, m);
    let g = CsrGraph::from_edges(n, &edges, true);
    println!(
        "graph: {} vertices, {} directed edges, mean degree {:.1}, max degree {}",
        g.num_vertices(),
        g.num_directed_edges(),
        g.mean_degree(),
        g.max_degree()
    );

    let pool = ThreadPool::new(threads);
    let source = 0u32;

    println!(
        "\n{:<16} {:>12} {:>8} {:>10} {:>12}",
        "method", "time", "levels", "distances", "tree check"
    );
    for method in CwMethod::ALL {
        let t0 = Instant::now();
        let r = bfs(&g, source, method, &pool);
        let dt = t0.elapsed();

        let levels = verify_bfs_levels(&g, source, &r);
        let tree = verify_bfs_tree(&g, source, &r);
        println!(
            "{:<16} {:>12.2?} {:>8} {:>10} {:>12}",
            method.to_string(),
            dt,
            r.rounds - 1,
            if levels.is_ok() { "ok" } else { "WRONG" },
            match &tree {
                Ok(()) => "consistent".to_string(),
                Err(e) => format!("TORN ({})", e.split(':').next().unwrap_or("?")),
            }
        );
        levels.unwrap_or_else(|e| panic!("{method}: wrong distances: {e}"));
        if method.single_winner() {
            tree.unwrap_or_else(|e| panic!("{method}: torn BFS tree: {e}"));
        }
    }

    println!(
        "\nNote: distances are correct even for 'naive' (levels are common \
         writes),\nbut only single-winner methods guarantee the parent/sel_edge \
         pair is\nmutually consistent — the paper's §4 argument. On a quiet \
         machine the\nnaive tear is rare at this scale; tests/torn_writes.rs \
         provokes it reliably."
    );
}
