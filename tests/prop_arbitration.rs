//! Property tests for the arbitration primitives: the single-winner
//! invariant under real-thread interleavings, round monotonicity, and
//! reset semantics, across randomized configurations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use pram_bench::ablations::AlwaysRmwCasLtArray;
use pram_core::{CasLtArray, GatekeeperArray, LockArray, Round, SliceArbiter};
use proptest::prelude::*;

/// Hammer `arb` with `threads` threads over `rounds` rendezvous-separated
/// rounds of claims on every cell; return total wins (must equal
/// `rounds * cells`).
///
/// Members spin at each rendezvous rather than sleep in a
/// `std::sync::Barrier`, so they leave it within nanoseconds of each other
/// and their claims on a cell overlap in time: a check-then-act claim (a
/// load, then a separate store) shows up as a second winner.
fn hammer<A: SliceArbiter>(arb: &A, threads: usize, rounds: u32, reset_each_round: bool) -> usize {
    let wins = AtomicUsize::new(0);
    let arrivals = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // The k-th rendezvous ends once every member has arrived k
                // times; the last arriver is told so.
                let mut k = 0;
                let mut rendezvous = || {
                    k += 1;
                    let last = arrivals.fetch_add(1, Ordering::AcqRel) + 1 == threads * k;
                    let mut spins = 0u32;
                    while arrivals.load(Ordering::Acquire) < threads * k {
                        spins += 1;
                        if spins < 1 << 12 {
                            std::hint::spin_loop();
                        } else {
                            // Oversubscribed: let a preempted member arrive.
                            std::thread::yield_now();
                        }
                    }
                    last
                };
                for r in 0..rounds {
                    let round = Round::from_iteration(r);
                    let releaser = rendezvous();
                    for c in 0..arb.len() {
                        if arb.try_claim(c, round) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    rendezvous();
                    if reset_each_round && releaser {
                        arb.reset_all();
                    }
                    rendezvous();
                }
            });
        }
    });
    wins.load(Ordering::Relaxed)
}

/// One concurrent claim wave: `threads` threads race every cell of `arb`
/// for `round`; returns total wins across all cells.
fn claim_wave<A: SliceArbiter>(arb: &A, threads: usize, round: Round) -> usize {
    let wins = AtomicUsize::new(0);
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                barrier.wait();
                for c in 0..arb.len() {
                    if arb.try_claim(c, round) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    wins.load(Ordering::Relaxed)
}

/// The `SliceArbiter::reset_all` / `rearms_on_new_round` consistency
/// contract, for one scheme:
///
/// * a fresh arbiter yields exactly one winner per cell;
/// * after `reset_all`, the *same* round yields exactly one winner per
///   cell again (reset restores never-claimed for every scheme);
/// * a strictly newer round yields one winner per cell **without** a reset
///   iff `rearms_on_new_round()` — and for non-re-arming schemes, yields
///   zero until the reset pass runs.
fn reset_rearm_contract<A: SliceArbiter>(
    name: &str,
    arb: A,
    threads: usize,
    r0: Round,
) -> Result<(), TestCaseError> {
    let cells = arb.len();
    prop_assert_eq!(
        claim_wave(&arb, threads, r0),
        cells,
        "{}: fresh arbiter must have one winner per cell",
        name
    );
    arb.reset_all();
    prop_assert_eq!(
        claim_wave(&arb, threads, r0),
        cells,
        "{}: reset_all must restore one winner per cell for the same round",
        name
    );
    let r1 = r0.next().expect("test rounds stay far from the cap");
    if arb.rearms_on_new_round() {
        prop_assert_eq!(
            claim_wave(&arb, threads, r1),
            cells,
            "{}: re-arming scheme must win a fresh round with no reset",
            name
        );
    } else {
        prop_assert_eq!(
            claim_wave(&arb, threads, r1),
            0,
            "{}: non-re-arming scheme must yield no winner before its reset pass",
            name
        );
        arb.reset_all();
        prop_assert_eq!(
            claim_wave(&arb, threads, r1),
            cells,
            "{}: the reset pass must recover the fresh round",
            name
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn caslt_exactly_one_winner_per_cell_per_round(
        threads in 2usize..6,
        cells in 1usize..12,
        rounds in 1u32..24,
    ) {
        let arb = CasLtArray::new(cells);
        let wins = hammer(&arb, threads, rounds, false);
        prop_assert_eq!(wins, cells * rounds as usize);
    }

    #[test]
    fn gatekeeper_exactly_one_winner_with_reset_discipline(
        threads in 2usize..6,
        cells in 1usize..12,
        rounds in 1u32..16,
    ) {
        let arb = GatekeeperArray::new(cells);
        let wins = hammer(&arb, threads, rounds, true);
        prop_assert_eq!(wins, cells * rounds as usize);
        // Few cells over many rounds, one member per core: members' claims
        // on one cell coincide often enough that a claim split into a load
        // and a store shows.
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        let few = GatekeeperArray::new(cells.min(2));
        prop_assert_eq!(hammer(&few, threads.min(cores), 512, true), few.len() * 512);
    }

    #[test]
    fn gatekeeper_without_reset_wins_only_round_one(
        threads in 2usize..5,
        cells in 1usize..8,
        rounds in 2u32..10,
    ) {
        // The defining limitation: no reset pass => later rounds get no
        // winner at all.
        let arb = GatekeeperArray::new(cells);
        let wins = hammer(&arb, threads, rounds, false);
        prop_assert_eq!(wins, cells);
    }

    #[test]
    fn lock_arbiter_same_invariant_as_caslt(
        threads in 2usize..5,
        cells in 1usize..8,
        rounds in 1u32..12,
    ) {
        let arb = LockArray::new(cells);
        let wins = hammer(&arb, threads, rounds, false);
        prop_assert_eq!(wins, cells * rounds as usize);
    }

    #[test]
    fn caslt_round_monotonicity_sequential(claims in proptest::collection::vec(0u32..50, 1..60)) {
        // Sequential model check: a claim wins iff its round is strictly
        // newer than every previously winning round.
        let arr = CasLtArray::new(1);
        let mut last_won: Option<u32> = None;
        for &c in &claims {
            let won = arr.try_claim(0, Round::from_iteration(c));
            let expected = last_won.is_none_or(|l| c > l);
            prop_assert_eq!(won, expected, "claim round {} after {:?}", c, last_won);
            if won {
                last_won = Some(c);
            }
        }
    }

    #[test]
    fn reset_and_rearm_consistent_across_single_winner_arrays(
        threads in 2usize..6,
        cells in 1usize..10,
        base in 0u32..1000,
    ) {
        // Every single-winner array — the paper's CAS-LT, gatekeeper and
        // lock methods, and the always-RMW ablation arbiter — must agree on
        // what reset and re-arming mean.
        let r0 = Round::from_iteration(base);
        reset_rearm_contract("caslt", CasLtArray::new(cells), threads, r0)?;
        reset_rearm_contract("gatekeeper", GatekeeperArray::new(cells), threads, r0)?;
        reset_rearm_contract("lock", LockArray::new(cells), threads, r0)?;
        reset_rearm_contract("caslt-always-rmw", AlwaysRmwCasLtArray::new(cells), threads, r0)?;
    }

    #[test]
    fn reset_ranges_partition_cleanly(
        cells in 1usize..40,
        cut in 0usize..40,
    ) {
        let cut = cut.min(cells);
        let arb = CasLtArray::new(cells);
        let r = Round::FIRST;
        for c in 0..cells {
            prop_assert!(arb.try_claim(c, r));
        }
        arb.reset_range(0..cut);
        arb.reset_range(cut..cells);
        for c in 0..cells {
            prop_assert!(arb.try_claim(c, r), "cell {} not re-armed", c);
        }
    }
}
