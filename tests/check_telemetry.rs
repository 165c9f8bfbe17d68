//! Model-checking tier for the telemetry subsystem: the instrumentation
//! must be *passive* (it may add scheduling points, never change an
//! arbitration outcome) and the counters must be *accurate* (the
//! per-method conservation invariants hold on every schedule, not just
//! the ones OS threads happen to produce).
//!
//! Compiled (and meaningful) only under the instrumented shim:
//!
//! ```text
//! RUSTFLAGS="--cfg pram_check" cargo test -p crcw-pram --test check_telemetry
//! ```
//!
//! Three families of assertions:
//!
//! * **Passivity** — `TelemetryPassive` explores the same single-cell
//!   CAS-LT race with counters on and off; the reachable winner sets must
//!   be identical (every telemetry atomic routes through the
//!   `pram_core::sync` facade, so the counters-on tree really does
//!   interleave the counter increments).
//! * **Conservation under lockstep** — for each method, every exhaustive
//!   schedule of a fully contended round satisfies the method's counter
//!   identity (e.g. `fast_path_skips + cas_attempts == T` for CAS-LT).
//! * **Sensitivity** — the seeded `CountingClaimCell`, whose claim
//!   *consults a counter read* instead of capturing it atomically, is
//!   caught by both tiers and its schedule/seed replays.
#![cfg(pram_check)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pram_check::models::{Model, SingleRoundWinner, TelemetryPassive};
use pram_check::{
    explore_exhaustive, explore_random, replay, CountingClaimCell, ExploreOptions, Violation,
};
use pram_core::{
    CasLtArray, CwCounters, CwTelemetry, GatekeeperArray, LockArray, NaiveArbiter, Round,
    ShardGuard, SliceArbiter,
};

/// Two threads: the ISSUE-mandated bound for the passivity sweep, and
/// enough for every load/CAS (and load/store) race.
const THREADS: usize = 2;

fn opts() -> ExploreOptions {
    ExploreOptions::default()
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

// --------------------------------------------------------------- passivity

/// Explore one `TelemetryPassive` variant exhaustively and return the set
/// of winners reachable across all schedules.
fn reachable_winners(counters_on: bool) -> BTreeSet<usize> {
    let outcomes = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = Arc::clone(&outcomes);
    let report = explore_exhaustive(
        move || TelemetryPassive::new(THREADS, Round::FIRST, counters_on, Arc::clone(&sink)),
        &opts(),
    );
    report.assert_clean();
    assert!(
        report.complete,
        "counters_on={counters_on}: tree not exhausted in {} executions",
        report.executions
    );
    assert!(report.executions > 1, "expected schedule branching");
    let set = outcomes.lock().unwrap().clone();
    set
}

#[test]
fn telemetry_is_passive_across_exhaustive_schedules() {
    let with_counters = reachable_winners(true);
    let without_counters = reachable_winners(false);
    assert!(
        !without_counters.is_empty(),
        "baseline exploration produced no outcomes"
    );
    assert_eq!(
        with_counters, without_counters,
        "recording counters changed the reachable arbitration outcomes"
    );
    // Sanity: the race is genuinely schedule-dependent — both claimants
    // can win on a fresh cell, so passivity is a non-trivial statement.
    assert_eq!(without_counters, (0..THREADS).collect::<BTreeSet<_>>());
}

// ------------------------------------------------- conservation (lockstep)

/// A fully contended single-cell round under lockstep exploration, with
/// every thread's claims recorded into its own telemetry shard and a
/// per-execution counter identity checked at the end.
struct LockstepConservation<R, C> {
    name: &'static str,
    telem: CwTelemetry,
    threads: usize,
    /// Claim body for thread `tid` (the telemetry guard is installed).
    claim: R,
    /// Counter identity over the execution's totals.
    check: C,
}

impl<R, C> LockstepConservation<R, C>
where
    R: Fn(usize) + Sync,
    C: Fn(&CwCounters) -> Result<(), String> + Sync,
{
    fn new(name: &'static str, threads: usize, claim: R, check: C) -> Self {
        LockstepConservation {
            name,
            telem: CwTelemetry::new(threads),
            threads,
            claim,
            check,
        }
    }
}

impl<R, C> Model for LockstepConservation<R, C>
where
    R: Fn(usize) + Sync,
    C: Fn(&CwCounters) -> Result<(), String> + Sync,
{
    fn name(&self) -> &str {
        self.name
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn run(&self, _phase: usize, tid: usize) {
        let _guard = ShardGuard::install(self.telem.shard(tid));
        (self.claim)(tid);
    }
    fn check_final(&self) -> Result<(), String> {
        (self.check)(&self.telem.totals().0)
    }
}

fn assert_conservation_exhaustive<R, C>(name: &'static str, make: impl Fn() -> (R, C))
where
    R: Fn(usize) + Sync,
    C: Fn(&CwCounters) -> Result<(), String> + Sync,
{
    let report = explore_exhaustive(
        || {
            let (claim, check) = make();
            LockstepConservation::new(name, THREADS, claim, check)
        },
        &opts(),
    );
    report.assert_clean();
    assert!(report.complete, "{name}: tree not exhausted");
    assert!(report.executions > 1, "{name}: expected branching");
}

fn expect(cond: bool, msg: String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg)
    }
}

#[test]
fn caslt_conservation_exhaustive() {
    let t = THREADS as u64;
    assert_conservation_exhaustive("caslt-conservation", move || {
        let arb = Arc::new(CasLtArray::new(1));
        let a = Arc::clone(&arb);
        (
            move |_tid: usize| {
                a.try_claim(0, Round::FIRST);
            },
            move |c: &CwCounters| {
                expect(
                    c.fast_path_skips + c.cas_attempts == t,
                    format!(
                        "skips {} + cas {} != {t} claims",
                        c.fast_path_skips, c.cas_attempts
                    ),
                )?;
                expect(c.wins == 1, format!("wins {} != 1", c.wins))?;
                expect(
                    c.cas_failures == c.cas_attempts - c.wins,
                    format!(
                        "cas_failures {} != cas_attempts {} - wins {}",
                        c.cas_failures, c.cas_attempts, c.wins
                    ),
                )
            },
        )
    });
}

#[test]
fn gatekeeper_conservation_exhaustive() {
    let t = THREADS as u64;
    assert_conservation_exhaustive("gatekeeper-conservation", move || {
        let arb = Arc::new(GatekeeperArray::new(1));
        let a = Arc::clone(&arb);
        (
            move |_tid: usize| {
                a.try_claim(0, Round::FIRST);
            },
            move |c: &CwCounters| {
                expect(
                    c.gatekeeper_rmws == t,
                    format!(
                        "gatekeeper must fetch-add exactly {t} times, counted {}",
                        c.gatekeeper_rmws
                    ),
                )?;
                expect(c.wins == 1, format!("wins {} != 1", c.wins))?;
                expect(
                    c.fast_path_skips == 0,
                    format!(
                        "plain gatekeeper never skips, counted {}",
                        c.fast_path_skips
                    ),
                )
            },
        )
    });
}

#[test]
fn lock_conservation_exhaustive() {
    let t = THREADS as u64;
    assert_conservation_exhaustive("lock-conservation", move || {
        let arb = Arc::new(LockArray::new(1));
        let a = Arc::clone(&arb);
        (
            move |_tid: usize| {
                a.try_claim(0, Round::FIRST);
            },
            move |c: &CwCounters| {
                expect(
                    c.lock_acquisitions == t,
                    format!(
                        "every claim locks: acquisitions {} != {t}",
                        c.lock_acquisitions
                    ),
                )?;
                expect(c.wins == 1, format!("wins {} != 1", c.wins))
            },
        )
    });
}

#[test]
fn naive_conservation_exhaustive() {
    let t = THREADS as u64;
    assert_conservation_exhaustive("naive-conservation", move || {
        let arb = Arc::new(NaiveArbiter::new(1));
        let a = Arc::clone(&arb);
        (
            move |_tid: usize| {
                a.try_claim(0, Round::FIRST);
            },
            move |c: &CwCounters| {
                expect(
                    c.wins == t,
                    format!("naive: every claimant wins, counted {} of {t}", c.wins),
                )
            },
        )
    });
}

/// Two fully contended gatekeeper rounds separated by an instrumented
/// reset pass: the re-arm counter must see exactly one count per cell,
/// and the RMW/win identities must hold across both phases.
struct RearmConservation {
    telem: CwTelemetry,
    arb: GatekeeperArray,
    threads: usize,
}

impl Model for RearmConservation {
    fn name(&self) -> &str {
        "gatekeeper-rearm-conservation"
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn phases(&self) -> usize {
        2
    }
    fn run(&self, _phase: usize, tid: usize) {
        let _guard = ShardGuard::install(self.telem.shard(tid));
        self.arb.try_claim(0, Round::FIRST);
    }
    fn after_phase(&mut self, phase: usize) -> Result<(), String> {
        if phase == 0 {
            // The reset pass is sequential glue (a real kernel resets
            // between rounds); attribute it to shard 0.
            let _guard = ShardGuard::install(self.telem.shard(0));
            self.arb.reset_all();
        }
        Ok(())
    }
    fn check_final(&self) -> Result<(), String> {
        let (c, _) = self.telem.totals();
        let claims = 2 * self.threads as u64;
        expect(
            c.gatekeeper_rmws == claims,
            format!(
                "rmws {} != {claims} claims over two phases",
                c.gatekeeper_rmws
            ),
        )?;
        expect(
            c.wins == 2,
            format!("one winner per phase expected, counted {}", c.wins),
        )?;
        expect(
            c.rearm_resets == 3,
            format!(
                "reset_all over 3 cells must count 3 re-arms, counted {}",
                c.rearm_resets
            ),
        )
    }
}

#[test]
fn rearm_reset_counting_under_lockstep() {
    let report = explore_exhaustive(
        || RearmConservation {
            telem: CwTelemetry::new(THREADS),
            arb: GatekeeperArray::new(3),
            threads: THREADS,
        },
        &opts(),
    );
    report.assert_clean();
    assert!(report.complete, "rearm model: tree not exhausted");
}

// ------------------------------------------------------------- sensitivity

#[test]
fn counting_claim_cell_double_winner_is_detected_exhaustive() {
    let make = || {
        SingleRoundWinner::new(
            "counting-claim",
            CountingClaimCell::new(),
            THREADS + 1, // an observer thread deepens the interleavings
            Round::FIRST,
        )
    };
    let report = explore_exhaustive(make, &opts());
    let v = assert_violation_found_and_replayable(report.violation, make, "winner");
    assert_eq!(v.model, "counting-claim");
    assert!(v.schedule.len() >= 2, "suspicious trivial schedule: {v}");
}

#[test]
fn counting_claim_cell_is_detected_by_random_tier() {
    let make = || {
        SingleRoundWinner::new(
            "counting-claim-random",
            CountingClaimCell::new(),
            4,
            Round::FIRST,
        )
    };
    let report = explore_random(make, 500, 7, &opts());
    let v = report
        .violation
        .expect("random tier failed to find the counter-as-claim bug");
    let seed = v.seed.expect("random-tier violation must carry its seed");
    let replayed = pram_check::replay_seed(make, seed, &opts());
    assert!(
        replayed.violation.is_some(),
        "seed {seed:#x} did not replay to a violation"
    );
}

#[test]
fn counting_claim_cell_also_undercounts() {
    // The same seeded bug breaks the conservation identity the real
    // gatekeeper satisfies: interleaved load/store pairs lose increments,
    // so `count < claims` on some schedule. This is the counter-accuracy
    // face of the bug (two winners is its arbitration face).
    let undercounts = Arc::new(AtomicUsize::new(0));
    let sink = Arc::clone(&undercounts);
    struct CountCheck {
        cell: CountingClaimCell,
        threads: usize,
        sink: Arc<AtomicUsize>,
    }
    impl Model for CountCheck {
        fn name(&self) -> &str {
            "counting-claim-undercount"
        }
        fn threads(&self) -> usize {
            self.threads
        }
        fn run(&self, _phase: usize, _tid: usize) {
            self.cell.try_claim_once();
        }
        fn check_final(&self) -> Result<(), String> {
            if (self.cell.count() as usize) < self.threads {
                self.sink.fetch_add(1, Ordering::Relaxed);
            }
            Ok(()) // counting executions, not failing them
        }
    }
    let report = explore_exhaustive(
        move || CountCheck {
            cell: CountingClaimCell::new(),
            threads: THREADS,
            sink: Arc::clone(&sink),
        },
        &opts(),
    );
    report.assert_clean();
    assert!(report.complete);
    assert!(
        undercounts.load(Ordering::Relaxed) > 0,
        "no schedule lost an increment — the seeded bug is not reachable?"
    );
}
