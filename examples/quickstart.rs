//! Quickstart: the CAS-LT concurrent-write primitive in five minutes.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Walks through (1) the raw claim primitive, (2) why rounds re-arm for
//! free, (3) a real kernel — the paper's constant-time maximum — under all
//! concurrent-write methods, with their contention statistics side by side.

use std::sync::atomic::{AtomicUsize, Ordering};

use crcw_pram::prelude::*;
use pram_core::{CwTelemetry, ShardGuard};
use pram_exec::PoolConfig;

fn main() {
    // ------------------------------------------------------------------
    // 1. The primitive: one winner per (cell, round).
    // ------------------------------------------------------------------
    println!("== 1. canConWriteCASLT, in Rust ==");
    let cells = CasLtArray::new(1);
    let mut rounds = RoundCounter::new();
    let round = rounds.next_round().unwrap();
    let winners = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..8 {
            let cells = &cells;
            let winners = &winners;
            s.spawn(move || {
                if cells.try_claim(0, round) {
                    winners.fetch_add(1, Ordering::Relaxed);
                    println!("   thread {t} won the concurrent write");
                }
            });
        }
    });
    println!(
        "   winners: {} (always exactly 1)",
        winners.load(Ordering::Relaxed)
    );

    // ------------------------------------------------------------------
    // 2. Rounds re-arm every cell at zero cost — no reset pass.
    // ------------------------------------------------------------------
    println!("\n== 2. A new round re-arms the cell for free ==");
    let r2 = rounds.next_round().unwrap();
    println!(
        "   claim(round {round}) again -> {}",
        cells.try_claim(0, round)
    );
    println!("   claim(round {r2})       -> {}", cells.try_claim(0, r2));

    // ------------------------------------------------------------------
    // 3. A real kernel: the paper's constant-time maximum (Figure 4).
    // ------------------------------------------------------------------
    println!("\n== 3. Constant-time maximum under every CW method ==");
    let n = 2_000;
    let values: Vec<u64> = (0..n as u64)
        .map(|i| (i * 2_654_435_761) % 1_000_003)
        .collect();
    let pool = ThreadPool::new(4);

    for method in CwMethod::ALL {
        let t0 = std::time::Instant::now();
        let idx = pram_algos::max_index(&values, method, &pool);
        let dt = t0.elapsed();
        println!(
            "   {method:<15} -> index {idx:>4} (value {}) in {dt:>10.2?}",
            values[idx]
        );
    }

    // ------------------------------------------------------------------
    // 4. Why CAS-LT wins: count the atomics.
    // ------------------------------------------------------------------
    println!("\n== 4. Claim statistics ==");
    // A telemetry pool counts every claim its kernels make:
    let traced = ThreadPool::with_config(PoolConfig::new(4).telemetry(true));
    pram_algos::max_index(&values, CwMethod::CasLt, &traced);
    let s = traced.take_round_report().totals_cw;
    println!(
        "   kernel: {} claim attempts, {} winning writes \
         (the gatekeeper method\n   issues one atomic RMW for *every* attempt)",
        s.resolutions(),
        s.wins
    );
    // Raw threads record by installing a counter shard each: hammer one cell.
    let cell = CasLtCell::new();
    let telemetry = CwTelemetry::new(4);
    let round = Round::FIRST;
    std::thread::scope(|sc| {
        for t in 0..4 {
            let (cell, telemetry) = (&cell, &telemetry);
            sc.spawn(move || {
                let _shard = ShardGuard::install(telemetry.shard(t));
                for _ in 0..250_000 {
                    cell.try_claim(round);
                }
            });
        }
    });
    let (s, _) = telemetry.totals();
    println!("   one contended cell, 1M claims: {s}");
    println!(
        "   -> CAS-LT issued {} atomic CAS(es) in total; {:.3}% of claims\n   \
         were resolved by the contention-free fast-path load.",
        s.cas_attempts,
        s.fast_path_hit_rate() * 100.0
    );
}
