//! The paper's future-work question, §8: how do exclusive-write (EREW/CREW)
//! algorithms in current use compare against CRCW algorithms with better
//! work–depth bounds, once concurrent writes are implementable?
//!
//! Run with: `cargo run --release --example exclusive_vs_concurrent [threads]`
//!
//! Two exhibits, each of which exits non-zero on a wrong answer:
//!   1. Maximum — O(1)-depth/O(n²)-work CRCW vs O(log n)-depth/O(n)-work
//!      EREW tournament; Brent's theorem predicts a crossover in n.
//!   2. Maximal matching — an extension kernel whose *commit* is a
//!      two-cell arbitrary concurrent write, impossible to express safely
//!      without arbitration.

use std::time::Instant;

use pram_algos::matching::{maximal_matching, verify_matching};
use pram_algos::reduce::max_index_tournament;
use pram_algos::{max_index, CwMethod};
use pram_exec::ThreadPool;
use pram_graph::{CsrGraph, GraphGen};

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let pool = ThreadPool::new(threads);

    println!("== 1. Maximum: CRCW O(1)-depth vs EREW O(log n)-depth ==");
    println!(
        "{:>10} {:>16} {:>18} {:>10}",
        "n", "crcw-caslt (ms)", "erew-tourn. (ms)", "winner"
    );
    for n in [64usize, 256, 1_024, 4_096, 16_384] {
        let values: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000_003)
            .collect();
        let t0 = Instant::now();
        let a = max_index(&values, CwMethod::CasLt, &pool);
        let t_crcw = t0.elapsed();
        let t0 = Instant::now();
        let b = max_index_tournament(&values, &pool);
        let t_erew = t0.elapsed();
        assert_eq!(a, b);
        println!(
            "{n:>10} {:>16.3} {:>18.3} {:>10}",
            t_crcw.as_secs_f64() * 1e3,
            t_erew.as_secs_f64() * 1e3,
            if t_crcw < t_erew { "CRCW" } else { "EREW" }
        );
    }
    println!(
        "With P_phys processors Brent gives ~n^2/P for the CRCW kernel and\n\
         ~n/P + log n for the tournament: constant depth only pays while the\n\
         quadratic work still fits the machine — exactly where the crossover\n\
         lands above.\n"
    );

    println!("== 2. Maximal matching (two-cell arbitrary concurrent write) ==");
    let g = CsrGraph::from_edges(20_000, &GraphGen::new(3).gnm(20_000, 80_000), true);
    println!(
        "{:>14} {:>12} {:>8} {:>8} {:>8}",
        "method", "time", "rounds", "pairs", "verify"
    );
    for m in [CwMethod::Gatekeeper, CwMethod::Lock, CwMethod::CasLt] {
        let t0 = Instant::now();
        let r = maximal_matching(&g, m, &pool);
        let dt = t0.elapsed();
        if let Err(e) = verify_matching(&g, &r) {
            panic!("{m}: invalid matching: {e}");
        }
        println!(
            "{:>14} {:>12.2?} {:>8} {:>8} {:>8}",
            m.to_string(),
            dt,
            r.rounds,
            r.pairs,
            "ok"
        );
    }
    println!(
        "\nA failed half-claim simply expires with the round — the reset-free\n\
         re-arming that CAS-LT contributes; the gatekeeper pays a full O(n)\n\
         reset pass per round for the same effect."
    );
}
