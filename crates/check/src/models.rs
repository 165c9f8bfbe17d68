//! Checkable models: the substrate's invariants packaged as small
//! multi-threaded programs the executor can explore.
//!
//! A [`Model`] describes N logical threads, each running a short program
//! over real `pram-core` types (compiled against the instrumented
//! `pram_core::sync` shim), plus sequential glue between phases and final
//! assertions. Models record their own bookkeeping (who won) in plain
//! `std` atomics — those are *not* routed through the shim, so bookkeeping
//! never adds scheduling points.
//!
//! Keep models tiny: the exhaustive tier enumerates every interleaving, and
//! the tree grows exponentially in threads × scheduling points. Three
//! threads and a handful of atomic operations each is the sweet spot — it
//! already contains every two-thread race plus a third-party observer.

use std::cell::UnsafeCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use pram_core::sync::RegionGuard;
use pram_core::{CasLtArray, ConCell, CwTelemetry, Round, ShardGuard, SliceArbiter};

use crate::buggy::BuggyCasLtCell;

/// A schedule-explorable concurrent program with assertions.
pub trait Model: Sync {
    /// Name used in violation reports.
    fn name(&self) -> &str;

    /// Number of logical threads per phase.
    fn threads(&self) -> usize;

    /// Number of lockstep phases (a phase boundary is a total order, like
    /// the round-closing barrier in a real kernel).
    fn phases(&self) -> usize {
        1
    }

    /// Body of logical thread `tid` during `phase`; runs under the
    /// instrumented shim, one scheduling point at a time.
    fn run(&self, phase: usize, tid: usize);

    /// Sequential glue after `phase` completes (reset passes, mid-point
    /// assertions). An `Err` is reported as a violation.
    fn after_phase(&mut self, _phase: usize) -> Result<(), String> {
        Ok(())
    }

    /// Final assertions after all phases. An `Err` is a violation.
    fn check_final(&self) -> Result<(), String>;
}

/// Count and list the set bits of a win flag vector.
fn winners(wins: &[AtomicBool]) -> Vec<usize> {
    wins.iter()
        .enumerate()
        .filter(|(_, w)| w.load(Ordering::Relaxed))
        .map(|(t, _)| t)
        .collect()
}

/// The core invariant: N threads race `try_claim` on one cell in one
/// round; **exactly one** must win (single-winner + no-lost-claim: at
/// least one claimant always succeeds when the cell is fresh).
pub struct SingleRoundWinner<A> {
    name: String,
    arb: A,
    round: Round,
    wins: Vec<AtomicBool>,
}

impl<A: SliceArbiter> SingleRoundWinner<A> {
    /// `threads` claimants racing for cell 0 of `arb` in `round`.
    pub fn new(name: &str, arb: A, threads: usize, round: Round) -> SingleRoundWinner<A> {
        let mut wins = Vec::with_capacity(threads);
        wins.resize_with(threads, || AtomicBool::new(false));
        SingleRoundWinner {
            name: name.to_string(),
            arb,
            round,
            wins,
        }
    }
}

impl<A: SliceArbiter> Model for SingleRoundWinner<A> {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> usize {
        self.wins.len()
    }
    fn run(&self, _phase: usize, tid: usize) {
        if self.arb.try_claim(0, self.round) {
            self.wins[tid].store(true, Ordering::Relaxed);
        }
    }
    fn check_final(&self) -> Result<(), String> {
        let w = winners(&self.wins);
        if w.len() == 1 {
            Ok(())
        } else {
            Err(format!(
                "expected exactly one winner for (cell 0, round {}), got {}: threads {w:?}",
                self.round,
                w.len()
            ))
        }
    }
}

/// Claims for *different* rounds racing on the same cell — the read-skip
/// fast path vs. round-advance interaction. Threads `0..threads-1` claim
/// `round`, the last thread claims `round + 1`. Per round, at most one
/// winner (a newer round may legitimately steal the cell before the older
/// round's claims land, so the older round can have zero winners).
pub struct RoundRacing<A> {
    name: String,
    arb: A,
    round: Round,
    /// Round each winner claimed with (0 = did not win).
    won_round: Vec<AtomicU32>,
}

impl<A: SliceArbiter> RoundRacing<A> {
    /// `threads ≥ 2` claimants; the last one races a newer round.
    pub fn new(name: &str, arb: A, threads: usize, round: Round) -> RoundRacing<A> {
        assert!(
            threads >= 2,
            "round racing needs an old- and a new-round claimant"
        );
        let mut won_round = Vec::with_capacity(threads);
        won_round.resize_with(threads, || AtomicU32::new(0));
        RoundRacing {
            name: name.to_string(),
            arb,
            round,
            won_round,
        }
    }
}

impl<A: SliceArbiter> Model for RoundRacing<A> {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> usize {
        self.won_round.len()
    }
    fn run(&self, _phase: usize, tid: usize) {
        let round = if tid == self.won_round.len() - 1 {
            self.round
                .next()
                .expect("model rounds stay far from the cap")
        } else {
            self.round
        };
        if self.arb.try_claim(0, round) {
            self.won_round[tid].store(round.get(), Ordering::Relaxed);
        }
    }
    fn check_final(&self) -> Result<(), String> {
        for round in [self.round.get(), self.round.get() + 1] {
            let w: Vec<usize> = self
                .won_round
                .iter()
                .enumerate()
                .filter(|(_, r)| r.load(Ordering::Relaxed) == round)
                .map(|(t, _)| t)
                .collect();
            if w.len() > 1 {
                return Err(format!(
                    "round {round} has {} winners on one cell: threads {w:?}",
                    w.len()
                ));
            }
        }
        Ok(())
    }
}

/// Reset / re-arm semantics across two claim phases.
///
/// Phase 0 races `round`; the glue asserts exactly one winner, then either
/// relies on free re-arming (claiming `round + 1` in phase 1) or performs
/// the explicit `reset_all` pass that non-re-arming schemes require (and
/// claims `round + 1` as well — resetting schemes ignore the round).
/// Phase 1 must again produce exactly one winner.
pub struct ResetRearm<A> {
    name: String,
    arb: A,
    round: Round,
    wins: [Vec<AtomicBool>; 2],
}

impl<A: SliceArbiter> ResetRearm<A> {
    /// `threads` claimants per phase.
    pub fn new(name: &str, arb: A, threads: usize, round: Round) -> ResetRearm<A> {
        let mk = || {
            let mut v = Vec::with_capacity(threads);
            v.resize_with(threads, || AtomicBool::new(false));
            v
        };
        ResetRearm {
            name: name.to_string(),
            arb,
            round,
            wins: [mk(), mk()],
        }
    }

    fn phase_round(&self, phase: usize) -> Round {
        if phase == 0 {
            self.round
        } else {
            self.round
                .next()
                .expect("model rounds stay far from the cap")
        }
    }
}

impl<A: SliceArbiter> Model for ResetRearm<A> {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> usize {
        self.wins[0].len()
    }
    fn phases(&self) -> usize {
        2
    }
    fn run(&self, phase: usize, tid: usize) {
        if self.arb.try_claim(0, self.phase_round(phase)) {
            self.wins[phase][tid].store(true, Ordering::Relaxed);
        }
    }
    fn after_phase(&mut self, phase: usize) -> Result<(), String> {
        let w = winners(&self.wins[phase]);
        if w.len() != 1 {
            return Err(format!(
                "phase {phase} expected exactly one winner, got {}: threads {w:?}",
                w.len()
            ));
        }
        if phase == 0 && !self.arb.rearms_on_new_round() {
            self.arb.reset_all();
        }
        Ok(())
    }
    fn check_final(&self) -> Result<(), String> {
        Ok(()) // per-phase checks already ran in after_phase
    }
}

/// Multi-word payload non-tearing through [`ConCell`]: every thread races
/// `write_with` for the same round; the claim must admit exactly one
/// writer into the payload region (the executor reports any overlap as a
/// torn-payload violation), and the committed value must be exactly the
/// winner's.
pub struct PayloadWrite {
    cell: ConCell<[u64; 4]>,
    round: Round,
    wins: Vec<AtomicBool>,
}

impl PayloadWrite {
    /// `threads` racing writers.
    pub fn new(threads: usize, round: Round) -> PayloadWrite {
        let mut wins = Vec::with_capacity(threads);
        wins.resize_with(threads, || AtomicBool::new(false));
        PayloadWrite {
            cell: ConCell::new([0; 4]),
            round,
            wins,
        }
    }
}

impl Model for PayloadWrite {
    fn name(&self) -> &str {
        "payload-write-caslt"
    }
    fn threads(&self) -> usize {
        self.wins.len()
    }
    fn run(&self, _phase: usize, tid: usize) {
        let tag = tid as u64 + 1;
        // SAFETY: single round, no concurrent reads; the round discipline
        // holds by construction of the model.
        if unsafe { self.cell.write_with(self.round, |w| *w = [tag; 4]) } {
            self.wins[tid].store(true, Ordering::Relaxed);
        }
    }
    fn check_final(&self) -> Result<(), String> {
        let w = winners(&self.wins);
        if w.len() != 1 {
            return Err(format!(
                "expected one payload winner, got {}: {w:?}",
                w.len()
            ));
        }
        let tag = w[0] as u64 + 1;
        // SAFETY: all phases complete, no round open.
        let committed = unsafe { *self.cell.read() };
        if committed != [tag; 4] {
            return Err(format!(
                "committed payload {committed:?} is not winner {}'s value [{tag}; 4]",
                w[0]
            ));
        }
        Ok(())
    }
}

/// The torn-write seed: the same payload program as [`PayloadWrite`], but
/// guarded by the check-then-act [`BuggyCasLtCell`]. Schedules that let
/// two claimants both "win" put two writers in the payload region at once;
/// the executor must flag the overlap.
pub struct BuggyPayloadWrite {
    claim: BuggyCasLtCell,
    value: UnsafeCell<[u64; 4]>,
    round: Round,
    threads: usize,
}

// SAFETY: the payload is only written while the executor serializes
// threads (one runs at a time), so &self access from multiple model
// threads never physically races even when the buggy claim admits two
// logical writers — that is exactly the overlap the checker reports.
unsafe impl Sync for BuggyPayloadWrite {}

impl BuggyPayloadWrite {
    /// `threads` racing writers over the buggy claim.
    pub fn new(threads: usize, round: Round) -> BuggyPayloadWrite {
        BuggyPayloadWrite {
            claim: BuggyCasLtCell::new(),
            value: UnsafeCell::new([0; 4]),
            round,
            threads,
        }
    }
}

impl Model for BuggyPayloadWrite {
    fn name(&self) -> &str {
        "payload-write-buggy-caslt"
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn run(&self, _phase: usize, tid: usize) {
        if self.claim.try_claim(self.round) {
            let _region = RegionGuard::enter(self.value.get() as usize, true);
            // SAFETY: serialized by the executor (see Sync impl).
            unsafe { *self.value.get() = [tid as u64 + 1; 4] };
        }
    }
    fn check_final(&self) -> Result<(), String> {
        Ok(()) // the property under test is the executor's region check
    }
}

/// Telemetry passivity: the same single-cell CAS-LT race as
/// [`SingleRoundWinner`], run either **with** each thread's claim
/// telemetry recorded into a [`CwTelemetry`] shard or **without** any
/// recording installed.
///
/// Instrumentation must be *passive*: it may add scheduling points (each
/// counter increment is one under the shim), but it must never change an
/// arbitration outcome. `tests/check_telemetry.rs` explores both variants
/// exhaustively and asserts the reachable winner sets are identical —
/// which is exactly the property the seeded
/// [`crate::buggy::CountingClaimCell`] violates, since its "counter"
/// feeds back into the claim decision.
///
/// Each execution also records its winner into a shared `outcomes` set
/// (plain `std` sync — sequential glue, never a scheduling point), and
/// the counters-on variant asserts per-execution counter conservation
/// under lockstep: every claim resolves (`fast_path_skips + cas_attempts
/// == threads`) and exactly one wins.
pub struct TelemetryPassive {
    arb: CasLtArray,
    telem: Option<CwTelemetry>,
    round: Round,
    wins: Vec<AtomicBool>,
    outcomes: Arc<Mutex<BTreeSet<usize>>>,
}

impl TelemetryPassive {
    /// `threads` claimants; `counters_on` selects the instrumented
    /// variant. Winners accumulate into `outcomes` across executions.
    pub fn new(
        threads: usize,
        round: Round,
        counters_on: bool,
        outcomes: Arc<Mutex<BTreeSet<usize>>>,
    ) -> TelemetryPassive {
        let mut wins = Vec::with_capacity(threads);
        wins.resize_with(threads, || AtomicBool::new(false));
        TelemetryPassive {
            arb: CasLtArray::new(1),
            telem: counters_on.then(|| CwTelemetry::new(threads)),
            round,
            wins,
            outcomes,
        }
    }
}

impl Model for TelemetryPassive {
    fn name(&self) -> &str {
        if self.telem.is_some() {
            "telemetry-passive-counters-on"
        } else {
            "telemetry-passive-counters-off"
        }
    }
    fn threads(&self) -> usize {
        self.wins.len()
    }
    fn run(&self, _phase: usize, tid: usize) {
        let _guard = self
            .telem
            .as_ref()
            .map(|t| ShardGuard::install(t.shard(tid)));
        if self.arb.try_claim(0, self.round) {
            self.wins[tid].store(true, Ordering::Relaxed);
        }
    }
    fn check_final(&self) -> Result<(), String> {
        let w = winners(&self.wins);
        if w.len() != 1 {
            return Err(format!(
                "expected exactly one winner, got {}: threads {w:?}",
                w.len()
            ));
        }
        if let Some(t) = &self.telem {
            let (c, _) = t.totals();
            let threads = self.wins.len() as u64;
            if c.fast_path_skips + c.cas_attempts != threads {
                return Err(format!(
                    "counter conservation: fast_path_skips ({}) + cas_attempts ({}) != {threads} claims",
                    c.fast_path_skips, c.cas_attempts
                ));
            }
            if c.wins != 1 {
                return Err(format!("counted {} wins, arbitration produced 1", c.wins));
            }
            if c.cas_failures != c.cas_attempts - c.wins {
                return Err(format!(
                    "cas_failures ({}) != cas_attempts ({}) - wins ({})",
                    c.cas_failures, c.cas_attempts, c.wins
                ));
            }
        }
        self.outcomes.lock().unwrap().insert(w[0]);
        Ok(())
    }
}
