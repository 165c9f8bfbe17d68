//! Model-checking tier: bounded-exhaustive and seeded-random schedule
//! exploration of the arbitration substrate.
//!
//! Compiled (and meaningful) only under the instrumented shim:
//!
//! ```text
//! RUSTFLAGS="--cfg pram_check" cargo test -p crcw-pram --test check_arbiters
//! ```
//!
//! Two families of assertions:
//!
//! * **Soundness of the substrate** — CAS-LT, gatekeeper, lock, the
//!   multi-word payload cell, and the always-RMW ablation arbiter of
//!   `pram_bench::ablations` produce exactly one winner under *every*
//!   schedule within the bound, and `AtomicBitmap::insert` (DO-BFS's
//!   queue-to-bitmap conversion) neither loses a bit nor elects two
//!   inserters of one.
//! * **Sensitivity of the checker** — the seeded violations (NaiveArbiter,
//!   the check-then-act BuggyCasLt, and its payload-tearing form) are
//!   *found*, and the reported schedule replays to the same violation.
//!
//! Keep models at 2–3 threads: the exhaustive tier enumerates every
//! interleaving and the tree is exponential. Three threads already contain
//! every two-thread race plus an observer. See EXPERIMENTS.md for the
//! schedule-bound and seed-replay workflow.
#![cfg(pram_check)]

use std::sync::atomic::{AtomicBool, Ordering};

use pram_bench::ablations::AlwaysRmwCasLtArray;
use pram_check::models::{
    BuggyPayloadWrite, Model, PayloadWrite, ResetRearm, RoundRacing, SingleRoundWinner,
};
use pram_check::{
    explore_exhaustive, explore_random, replay, BuggyCasLtArray, ExploreOptions, Violation,
};
use pram_core::{
    AtomicBitmap, CasLtArray, GatekeeperArray, LockArray, NaiveArbiter, Round, SliceArbiter,
};

const THREADS: usize = 3;

fn opts() -> ExploreOptions {
    ExploreOptions::default()
}

/// Exhaustively check the single-winner invariant for one arbiter family.
fn assert_single_winner_exhaustive<A: SliceArbiter>(name: &str, make_arb: impl Fn() -> A) {
    let report = explore_exhaustive(
        || SingleRoundWinner::new(name, make_arb(), THREADS, Round::FIRST),
        &opts(),
    );
    report.assert_clean();
    assert!(
        report.complete,
        "{name}: schedule tree not exhausted within {} executions",
        report.executions
    );
    assert!(report.executions > 1, "{name}: expected schedule branching");
}

/// Assert that exploration finds a violation and that its recorded
/// schedule deterministically replays to a violation.
fn assert_violation_found_and_replayable<M: Model>(
    report_violation: Option<Violation>,
    make_model: impl FnMut() -> M,
    expect_in_message: &str,
) -> Violation {
    let v = report_violation.expect("checker failed to find the seeded violation");
    assert!(
        v.message.contains(expect_in_message),
        "unexpected violation message: {}",
        v.message
    );
    let replayed = replay(make_model, &v.schedule);
    let msg = replayed
        .violation
        .unwrap_or_else(|| panic!("replaying schedule {:?} did not reproduce: {v}", v.schedule));
    assert!(
        msg.contains(expect_in_message),
        "replay produced a different violation: {msg}"
    );
    v
}

// ---------------------------------------------------------------- soundness

#[test]
fn caslt_single_winner_exhaustive() {
    assert_single_winner_exhaustive("caslt", || CasLtArray::new(1));
}

#[test]
fn caslt_always_rmw_single_winner_exhaustive() {
    assert_single_winner_exhaustive("caslt-always-rmw", || AlwaysRmwCasLtArray::new(1));
}

#[test]
fn gatekeeper_single_winner_exhaustive() {
    assert_single_winner_exhaustive("gatekeeper", || GatekeeperArray::new(1));
}

#[test]
fn lock_single_winner_exhaustive() {
    // Also exercises the executor's blocked/released lock modeling.
    assert_single_winner_exhaustive("lock", || LockArray::new(1));
}

#[test]
fn caslt_round_racing_exhaustive() {
    // The fast-path load racing a newer round's claim: per round at most
    // one winner even while a round advance steals the cell.
    let report = explore_exhaustive(
        || {
            RoundRacing::new(
                "caslt-round-racing",
                CasLtArray::new(1),
                THREADS,
                Round::FIRST,
            )
        },
        &opts(),
    );
    report.assert_clean();
    assert!(report.complete);
}

#[test]
fn reset_and_rearm_exhaustive_all_schemes() {
    // Re-arming schemes win a fresh round with no reset; resetting schemes
    // win again after their reset pass. Two threads per phase keeps the
    // two-phase product tree exhaustive-friendly.
    fn check<A: SliceArbiter>(name: &str, make_arb: impl Fn() -> A) {
        let report = explore_exhaustive(
            || ResetRearm::new(name, make_arb(), 2, Round::FIRST),
            &ExploreOptions::default(),
        );
        report.assert_clean();
        assert!(report.complete, "{name}: reset/rearm tree not exhausted");
    }
    check("caslt-rearm", || CasLtArray::new(1));
    check("gatekeeper-reset", || GatekeeperArray::new(1));
    check("lock-rearm", || LockArray::new(1));
}

/// Two threads `insert` one bit each into a one-word bitmap: every bit
/// inserted must land, and of the threads that insert the same bit exactly
/// one is told it inserted it.
struct BitmapInsert {
    bits: AtomicBitmap,
    targets: [usize; 2],
    inserted: [AtomicBool; 2],
}

impl BitmapInsert {
    fn new(targets: [usize; 2]) -> BitmapInsert {
        BitmapInsert {
            bits: AtomicBitmap::new(64),
            targets,
            inserted: Default::default(),
        }
    }
}

impl Model for BitmapInsert {
    fn name(&self) -> &str {
        "bitmap-insert"
    }
    fn threads(&self) -> usize {
        2
    }
    fn run(&self, _phase: usize, tid: usize) {
        if self.bits.insert(self.targets[tid]) {
            self.inserted[tid].store(true, Ordering::Relaxed);
        }
    }
    fn check_final(&self) -> Result<(), String> {
        let wins = self.inserted.iter().map(|w| w.load(Ordering::Relaxed));
        let want = if self.targets[0] == self.targets[1] {
            1
        } else {
            2
        };
        if wins.filter(|&w| w).count() != want {
            return Err(format!("{:?}: {want} inserts expected", self.targets));
        }
        match self.targets.iter().find(|&&i| !self.bits.contains(i)) {
            Some(i) => Err(format!("{:?}: bit {i} lost", self.targets)),
            None => Ok(()),
        }
    }
}

#[test]
fn bitmap_insert_exhaustive() {
    for targets in [[3, 5], [7, 7]] {
        let report = explore_exhaustive(|| BitmapInsert::new(targets), &opts());
        report.assert_clean();
        assert!(report.complete, "{targets:?}: tree not exhausted");
        assert!(report.executions > 1, "{targets:?}: expected branching");
    }
}

#[test]
fn payload_write_no_tearing_exhaustive() {
    let report = explore_exhaustive(|| PayloadWrite::new(THREADS, Round::FIRST), &opts());
    report.assert_clean();
    assert!(report.complete);
}

#[test]
fn caslt_random_tier_is_clean() {
    // The seeded-random tier on a config past the exhaustive sweet spot.
    let report = explore_random(
        || SingleRoundWinner::new("caslt-random", CasLtArray::new(1), 6, Round::FIRST),
        200,
        0xC0FFEE,
        &opts(),
    );
    report.assert_clean();
    assert_eq!(report.executions, 200);
}

// -------------------------------------------------------------- sensitivity

#[test]
fn naive_multi_winner_is_detected() {
    let make = || SingleRoundWinner::new("naive", NaiveArbiter::new(1), THREADS, Round::FIRST);
    let report = explore_exhaustive(make, &opts());
    let v = assert_violation_found_and_replayable(report.violation, make, "winner");
    assert_eq!(v.model, "naive");
}

#[test]
fn buggy_caslt_double_winner_is_detected_exhaustive() {
    let make = || {
        SingleRoundWinner::new(
            "buggy-caslt",
            BuggyCasLtArray::new(1),
            THREADS,
            Round::FIRST,
        )
    };
    let report = explore_exhaustive(make, &opts());
    let v = assert_violation_found_and_replayable(report.violation, make, "winner");
    // The losing interleaving takes more than one thread between a load
    // and its store, so the failing schedule must interleave threads.
    assert!(v.schedule.len() >= 2, "suspicious trivial schedule: {v}");
}

#[test]
fn buggy_caslt_double_winner_is_detected_by_random_tier() {
    // The same seeded bug must also fall to the random/PCT tier, and the
    // reported seed must deterministically re-derive the failure.
    let make = || {
        SingleRoundWinner::new(
            "buggy-caslt-random",
            BuggyCasLtArray::new(1),
            4,
            Round::FIRST,
        )
    };
    let report = explore_random(make, 500, 1, &opts());
    let v = report
        .violation
        .expect("random tier failed to find the seeded violation");
    let seed = v.seed.expect("random-tier violation must carry its seed");
    let replayed = pram_check::replay_seed(make, seed, &opts());
    assert!(
        replayed.violation.is_some(),
        "seed {seed:#x} did not replay to a violation"
    );
}

#[test]
fn buggy_payload_tearing_is_detected() {
    let make = || BuggyPayloadWrite::new(THREADS, Round::FIRST);
    let report = explore_exhaustive(make, &opts());
    assert_violation_found_and_replayable(report.violation, make, "torn payload");
}

#[test]
fn violation_report_prints_reproducer() {
    let report = explore_exhaustive(
        || SingleRoundWinner::new("naive-report", NaiveArbiter::new(1), 2, Round::FIRST),
        &opts(),
    );
    let text = report.violation.expect("naive must fail").to_string();
    assert!(
        text.contains("schedule"),
        "report must print the schedule: {text}"
    );
    assert!(
        text.contains("replay"),
        "report must explain replay: {text}"
    );
}
