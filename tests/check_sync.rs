//! Model-checking tier for the execution substrate's synchronization: the
//! team barrier every kernel runs, `pram_exec::SpinBarrier`, and the
//! per-round state that re-arms inside its rendezvous, `pram_exec::TeamSum`
//! and `pram_exec::RoundFlag`.
//!
//! Compiled (and meaningful) only under the instrumented shim:
//!
//! ```text
//! RUSTFLAGS="--cfg pram_check" cargo test -p crcw-pram --test check_sync
//! ```
//!
//! Same two families as `check_arbiters`:
//!
//! * **Soundness** — under every schedule within the bound, the barrier
//!   never releases a member before all arrive, survives reuse across
//!   back-to-back rendezvous (arrival reset + generation bump), makes the
//!   `wait_with` closure visible to every released member, and elects
//!   exactly one member per episode. Back-to-back team sums are each
//!   exact, and every member takes the same continue/stop decision after
//!   every convergence round.
//! * **Sensitivity** — the seeded bug (a last-arriver test that re-loads
//!   the arrival count, electing two members) is *found* by both tiers,
//!   and the reported schedule or seed replays to the same violation. A
//!   schedule where the bug loses an arrival is reported as a deadlock
//!   instead of hanging the executor. The team sum without parity and
//!   the convergence flag that tests `==` for `≥` are found the same way.
//!
//! Exhaustive models stay at 2 threads (barrier episodes multiply
//! scheduling points faster than the claim models); 3-thread
//! configurations go through the seeded-random tier.
#![cfg(pram_check)]

use pram_check::sync_models::{BarrierLockstep, ConvergeLockstep, TeamSumLockstep};
use pram_check::{
    explore_exhaustive, explore_random, replay, replay_seed, BuggyRoundFlag, BuggySpinBarrier,
    BuggyTeamSum, ExploreOptions,
};
use pram_exec::{RoundFlag, SpinBarrier, TeamSum};

fn opts() -> ExploreOptions {
    ExploreOptions::default()
}

// ---------------------------------------------------------------- soundness

#[test]
fn spin_barrier_exhaustive_two_threads() {
    // Two members, four episodes (wait / wait_with / wait / wait_with):
    // every interleaving must respect arrival-before-release, closure
    // visibility, generation reuse across episodes, and one election each.
    let report = explore_exhaustive(
        || BarrierLockstep::new("spin-barrier-2t", SpinBarrier::new(2), 2, 4),
        &opts(),
    );
    report.assert_clean();
    assert!(
        report.complete,
        "barrier schedule tree not exhausted within {} executions",
        report.executions
    );
    assert!(report.executions > 1, "expected schedule branching");
}

#[test]
fn spin_barrier_random_three_threads() {
    // Three members via the seeded-random tier — the exhaustive tree is
    // past the sweet spot.
    let report = explore_random(
        || BarrierLockstep::new("spin-barrier-3t", SpinBarrier::new(3), 3, 3),
        300,
        0xBA221E2,
        &opts(),
    );
    report.assert_clean();
    assert_eq!(report.executions, 300);
}

#[test]
fn team_sum_random_two_and_three_threads() {
    // Three back-to-back sums with no rendezvous between them but their
    // own: every member must get every exact total. The exhaustive tree
    // (six instrumented slot accesses per member per sum) is far past the
    // execution cap, so both team sizes go through the random tier.
    for (threads, seed) in [(2, 0x5E4A), (3, 0x5E4B)] {
        let report = explore_random(
            || TeamSumLockstep::new("team-sum", TeamSum::new(threads), threads, 3),
            400,
            seed,
            &opts(),
        );
        report.assert_clean();
        assert_eq!(report.executions, 400);
    }
}

#[test]
fn round_flag_random_two_threads() {
    // Two converge_rounds calls of four and three rounds: the second
    // call starts on the first call's stale stamps, which its opening
    // rendezvous must clear, and every member must stop after the same
    // round in both.
    let report = explore_random(
        || ConvergeLockstep::new("round-flag-2t", RoundFlag::default(), plans(), 8),
        400,
        0xF1A6,
        &opts(),
    );
    report.assert_clean();
    assert_eq!(report.executions, 400);
}

/// Per call, the last round each member votes "changed" in.
fn plans() -> Vec<Vec<u32>> {
    vec![vec![3, 1], vec![1, 2]]
}

// -------------------------------------------------------------- sensitivity

#[test]
fn buggy_barrier_is_detected_exhaustively_and_replays() {
    // Both members load `arrived == 2` before the releaser resets it: two
    // elections in one episode.
    let make = || BarrierLockstep::new("buggy-barrier-2t", BuggySpinBarrier::new(2), 2, 3);
    let report = explore_exhaustive(make, &opts());
    let v = report
        .violation
        .expect("checker failed to find the re-loaded last-arriver bug");
    assert!(
        v.message.contains("election"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(make, &v.schedule);
    let msg = replayed
        .violation
        .unwrap_or_else(|| panic!("schedule {:?} did not reproduce: {v}", v.schedule));
    assert_eq!(msg, v.message, "replay diverged");
}

#[test]
fn buggy_barrier_is_detected_by_random_tier_and_replays() {
    let make = || BarrierLockstep::new("buggy-barrier-3t", BuggySpinBarrier::new(3), 3, 3);
    let report = explore_random(make, 500, 7, &opts());
    let v = report
        .violation
        .expect("random tier failed to find the re-loaded last-arriver bug");
    assert!(
        v.message.contains("election"),
        "unexpected violation: {}",
        v.message
    );
    let seed = v.seed.expect("random-tier violation must carry its seed");
    let replayed = replay_seed(make, seed, &opts());
    let msg = replayed
        .violation
        .unwrap_or_else(|| panic!("seed {seed:#x} did not replay to a violation"));
    assert_eq!(msg, v.message, "seed replay diverged");
}

#[test]
fn lost_arrival_deadlock_is_reported_not_hung() {
    // Both members elected in episode 0; member 1's release store then
    // wipes member 0's episode-1 arrival, so both wait for a release that
    // never comes. The executor must report the deadlock and unwind both
    // waiters instead of spinning them forever.
    let make = || BarrierLockstep::new("lost-arrival-2t", BuggySpinBarrier::new(2), 2, 2);
    let schedule = [0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0];
    let msg = replay(make, &schedule)
        .violation
        .expect("lost arrival must be reported");
    assert!(msg.contains("deadlock"), "unexpected violation: {msg}");
}

#[test]
fn team_sum_without_parity_is_detected_and_replays() {
    // A member that leaves sum k writes sum k + 1 over its one slot
    // before the other member has read sum k.
    let make = || TeamSumLockstep::new("buggy-team-sum-2t", BuggyTeamSum::new(2), 2, 3);
    let report = explore_exhaustive(make, &opts());
    let v = report
        .violation
        .expect("checker failed to find the parity-free team sum");
    assert!(
        v.message.contains("team sum"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(make, &v.schedule);
    let msg = replayed
        .violation
        .unwrap_or_else(|| panic!("schedule {:?} did not reproduce: {v}", v.schedule));
    assert_eq!(msg, v.message, "replay diverged");
}

#[test]
fn round_flag_testing_equality_is_detected_and_replays() {
    // A member that reads round r's verdict after the other stored the
    // r + 1 stamp stops while the other goes on: a divergence, or a
    // deadlock when the two no longer meet at the same rendezvous.
    let make =
        || ConvergeLockstep::new("buggy-round-flag-2t", BuggyRoundFlag::default(), plans(), 8);
    let report = explore_exhaustive(make, &opts());
    let v = report
        .violation
        .expect("checker failed to find the `==` convergence test");
    assert!(
        v.message.contains("diverged") || v.message.contains("deadlock"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(make, &v.schedule);
    let msg = replayed
        .violation
        .unwrap_or_else(|| panic!("schedule {:?} did not reproduce: {v}", v.schedule));
    assert_eq!(msg, v.message, "replay diverged");
}
