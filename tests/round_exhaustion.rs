//! Round-space exhaustion: the documented reset-on-exhaustion contract.
//!
//! `pram_core::round` promises: rounds are strictly increasing nonzero
//! `u32`s; [`RoundCounter::next_round`] returns `None` once `u32::MAX` has
//! been issued; after that the program must reset every arbitration array
//! used with the counter (`reset` / `reset_all`) and start a new epoch.
//! These tests drive the CAS-LT cells and arrays right through the
//! boundary and pin each clause:
//!
//! * the boundary round `Round::LAST` still arbitrates correctly (one
//!   winner under contention);
//! * a cell parked at `Round::LAST` is *dead* — no issuable round can ever
//!   claim it again — which is exactly why the reset is mandatory, not an
//!   optimization;
//! * after the epoch reset, no stale claim leaks: every cell re-arms and
//!   the new epoch's `Round::FIRST` wins.

use std::sync::atomic::{AtomicUsize, Ordering};

use pram_bench::ablations::AlwaysRmwCasLtArray;
use pram_core::{CasLtArray, CasLtCell, Round, RoundCounter, SliceArbiter};

#[test]
fn counter_and_array_cross_the_epoch_boundary() {
    let arr = CasLtArray::new(3);
    let mut counter = RoundCounter::starting_at(u32::MAX - 2);

    // Issue the last three rounds of the epoch; each claims normally.
    for _ in 0..3 {
        let r = counter.next_round().expect("rounds remain in this epoch");
        for i in 0..3 {
            assert!(arr.try_claim(i, r), "cell {i} must win fresh round {r}");
            assert!(!arr.try_claim(i, r), "cell {i} must lose repeat claim");
        }
    }
    assert_eq!(arr.last_claimed(0), Some(Round::LAST));

    // The space is exhausted: no more rounds, and the counter says so
    // persistently.
    assert_eq!(counter.next_round(), None);
    assert_eq!(counter.next_round(), None);
    assert_eq!(counter.peek(), None);

    // The documented recovery: reset the arrays, start a new epoch.
    let mut resets = 0;
    let r = counter.next_round_or_reset(|| {
        arr.reset_all();
        resets += 1;
    });
    assert_eq!(resets, 1, "reset closure must run exactly once");
    assert_eq!(r, Round::FIRST, "a fresh epoch restarts at the first round");
    assert_eq!(counter.epochs(), 1);
    for i in 0..3 {
        assert_eq!(arr.last_claimed(i), None, "cell {i} must be never-claimed");
        assert!(arr.try_claim(i, r), "cell {i} must re-arm after the reset");
    }
}

#[test]
fn cell_at_round_last_is_dead_without_reset() {
    // Pin the *reason* the reset is mandatory: CAS-LT re-arms by issuing a
    // larger round, and no issuable round exceeds Round::LAST. A cell
    // claimed at the boundary rejects every round of a would-be next epoch
    // until it is explicitly reset.
    let mut cell = CasLtCell::new();
    assert!(cell.try_claim(Round::LAST));
    for r in [Round::FIRST, Round::from_iteration(1000), Round::LAST] {
        assert!(
            !cell.try_claim(r),
            "claim with {r:?} must lose against a cell parked at LAST"
        );
    }
    assert_eq!(cell.last_claimed(), Some(Round::LAST));

    cell.reset();
    assert_eq!(cell.last_claimed(), None);
    assert!(cell.try_claim(Round::FIRST), "reset must re-arm the cell");

    // The shared-access reset (parallel epoch-reset passes) is equivalent.
    let cell = CasLtCell::new();
    assert!(cell.try_claim(Round::LAST));
    cell.reset_shared();
    assert!(cell.try_claim(Round::FIRST));
}

#[test]
fn boundary_round_still_arbitrates_exactly_one_winner() {
    // Exhaustion must not weaken arbitration at the edge: Round::LAST is a
    // round like any other for the single-winner contract.
    let arr = CasLtArray::new(1);
    let wins = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                if arr.try_claim(0, Round::LAST) {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(wins.load(Ordering::Relaxed), 1);
}

#[test]
fn every_caslt_variant_honors_the_epoch_reset_contract() {
    // The contract is per-trait, not per-type: the packed array and the
    // always-RMW ablation both go dead at LAST and recover via reset_all.
    fn check<A: SliceArbiter>(name: &str, arr: A) {
        assert!(arr.try_claim(0, Round::LAST), "{name}: boundary claim");
        assert!(
            !arr.try_claim(0, Round::FIRST),
            "{name}: stale epoch round must lose before reset"
        );
        arr.reset_all();
        assert!(
            arr.try_claim(0, Round::FIRST),
            "{name}: reset_all must re-arm"
        );
    }
    check("caslt", CasLtArray::new(1));
    check("caslt-always-rmw", AlwaysRmwCasLtArray::new(1));
}

#[test]
fn epoch_cycles_repeat_indefinitely() {
    // Several consecutive exhaust-reset cycles: the counter's epoch count
    // advances and arbitration is fresh each time.
    let arr = CasLtArray::new(2);
    let mut counter = RoundCounter::starting_at(u32::MAX);
    for epoch in 1..=3u64 {
        let r = counter.next_round_or_reset(|| arr.reset_all());
        assert!(arr.try_claim(0, r), "epoch {epoch}: first claim wins");
        assert!(!arr.try_claim(0, r), "epoch {epoch}: second claim loses");
        // Exhaust the epoch instantly by jumping the counter to the edge.
        counter = RoundCounter::starting_at(u32::MAX);
        let last = counter.next_round().unwrap();
        assert_eq!(last, Round::LAST);
        assert!(arr.try_claim(1, last));
        assert_eq!(counter.next_round(), None);
    }
}
