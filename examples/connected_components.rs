//! Connected components with arbitrary concurrent writes (the paper's
//! Figures 10–12 workload, demo scale).
//!
//! Run with: `cargo run --release --example connected_components [n] [m] [threads]`
//!
//! Compares the gatekeeper and CAS-LT methods on Awerbuch–Shiloach CC —
//! the benchmark where the paper reports its largest speedups (up to
//! 4.5×), because hooking's arbitrary writes collide heavily and the
//! gatekeeper pays both the serialized atomics *and* a re-zeroing pass per
//! round. Also shows the effect of graph skew via an R-MAT instance.

use std::time::Instant;

use crcw_pram::prelude::*;
use pram_algos::cc::{connected_components, verify_cc, NO_HOOK};

fn run_cc(name: &str, g: &CsrGraph, pool: &ThreadPool) {
    println!(
        "\n--- {name}: {} vertices, {} directed edges ---",
        g.num_vertices(),
        g.num_directed_edges()
    );
    println!(
        "{:<16} {:>12} {:>6} {:>12} {:>8}",
        "method", "time", "iters", "components", "verify"
    );
    for method in [CwMethod::Gatekeeper, CwMethod::CasLt, CwMethod::Lock] {
        let t0 = Instant::now();
        let r = connected_components(g, method, pool);
        let dt = t0.elapsed();
        let mut comps: Vec<u32> = r.labels.clone();
        comps.sort_unstable();
        comps.dedup();
        let ok = verify_cc(g, &r).is_ok();
        println!(
            "{:<16} {:>12.2?} {:>6} {:>12} {:>8}",
            method.name(),
            dt,
            r.iterations,
            comps.len(),
            if ok { "ok" } else { "FAILED" }
        );
        if method == CwMethod::CasLt {
            let hooked = r.hook_edge.iter().filter(|&&e| e != NO_HOOK).count();
            println!(
                "{:<16} {hooked} roots were hooked; every hook edge verified in-component",
                ""
            );
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let m: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    let pool = ThreadPool::new(threads);

    // Uniform random graph — the paper's workload family.
    let edges = GraphGen::new(7).gnm(n, m);
    let uniform = CsrGraph::from_edges(n, &edges, true);
    run_cc("uniform G(n, m)", &uniform, &pool);

    // R-MAT — skewed degrees concentrate hooking collisions on hub roots,
    // the regime where arbitration cost differences are largest.
    let scale = (usize::BITS - n.next_power_of_two().leading_zeros() - 1).min(20);
    let edges = GraphGen::new(7).rmat_standard(scale, m);
    let rmat = CsrGraph::from_edges(1 << scale, &edges, true);
    run_cc("R-MAT (skewed)", &rmat, &pool);

    // Many small components — lots of early convergence.
    let cliques = GraphGen::disjoint_cliques(n / 20, 10);
    let cg = CsrGraph::from_edges((n / 20) * 10, &cliques, true);
    run_cc("disjoint cliques", &cg, &pool);
}
