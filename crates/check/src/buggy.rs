//! Deliberately broken arbiters: the checker's sensitivity controls.
//!
//! A model checker that never finds anything proves nothing — it may simply
//! be blind. These types seed known violations that the exploration tiers
//! **must** detect (`tests/check_arbiters.rs` asserts they do):
//!
//! * [`BuggyCasLtCell`] keeps CAS-LT's read-skip fast path but replaces the
//!   compare-and-swap with a plain store — the classic check-then-act race.
//!   Two threads that both load the stale round before either stores will
//!   both "win". Single-threaded the cell is indistinguishable from the
//!   real [`pram_core::CasLtCell`] (the unit tests below pin that), which
//!   is exactly why stochastic tests pass it most of the time and why a
//!   schedule-exploring checker is needed at all.
//! * [`BuggySpinBarrier`] is [`pram_exec::SpinBarrier`] with the
//!   arrival `fetch_add` split from the last-arriver test: the test
//!   re-`load`s the counter instead of using the value the `fetch_add`
//!   returned. That is the same check-then-act shape as
//!   [`BuggyCasLtCell`]: when two members both load a full count before
//!   the releaser's store resets it, both are elected (and both run the
//!   `wait_with` closure). Sequentially (and for a single participant) it
//!   is indistinguishable from the real barrier.
//! * [`BuggyTeamSum`] is [`pram_exec::TeamSum`] without the parity: one
//!   slot per member. A member that leaves a sum early writes its next
//!   value over the slot a slower member has not read yet.
//! * [`CountingClaimCell`] is a gatekeeper whose claim **consults a
//!   counter read** instead of the atomic capture: it loads the counter,
//!   treats `0` as the win condition, and stores the increment separately.
//!   Telemetry counters are exactly this shape (a read-modify-write next
//!   to the claim), which is why the passivity tests exist: instrumenting
//!   an arbiter must never let counter state *feed back* into the claim
//!   decision the way this cell's does.
//!
//! All of these route their shared state through `pram_core::sync`, so
//! under `--cfg pram_check` every racy load and store is a scheduling
//! point.

use std::ops::Range;

use pram_core::sync::{self as psync, AtomicU32, AtomicU64, Ordering};
use pram_core::{Round, SliceArbiter};
use pram_exec::SUM_LANES;

/// CAS-LT with the CAS replaced by a check-then-act load/store pair.
///
/// Sound single-threaded; under concurrency, any schedule that interleaves
/// two `try_claim` calls between their loads and stores produces two
/// winners for the same `(cell, round)`.
#[derive(Debug, Default)]
pub struct BuggyCasLtCell {
    last_round_updated: AtomicU32,
}

impl BuggyCasLtCell {
    /// A never-claimed cell.
    pub const fn new() -> BuggyCasLtCell {
        BuggyCasLtCell {
            last_round_updated: AtomicU32::new(0),
        }
    }

    /// Claim for `round` — **racy**: the winner check and the update are
    /// separate operations, so concurrent callers can all pass the check.
    #[inline]
    pub fn try_claim(&self, round: Round) -> bool {
        let current = self.last_round_updated.load(Ordering::Relaxed);
        if current >= round.get() {
            return false;
        }
        // BUG (intentional): a real CAS-LT must compare_exchange from
        // `current`; a plain store lets every thread that loaded the stale
        // value commit a "win".
        self.last_round_updated
            .store(round.get(), Ordering::Relaxed);
        true
    }

    /// Restore the never-claimed state.
    pub fn reset(&mut self) {
        *self.last_round_updated.get_mut() = 0;
    }
}

/// An indexed family of [`BuggyCasLtCell`]s, so the broken scheme can be
/// driven through the same generic models as the real arbiters.
#[derive(Debug)]
pub struct BuggyCasLtArray {
    cells: Box<[BuggyCasLtCell]>,
}

impl BuggyCasLtArray {
    /// `len` never-claimed cells.
    pub fn new(len: usize) -> BuggyCasLtArray {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, BuggyCasLtCell::new);
        BuggyCasLtArray {
            cells: v.into_boxed_slice(),
        }
    }
}

impl SliceArbiter for BuggyCasLtArray {
    fn len(&self) -> usize {
        self.cells.len()
    }
    #[inline]
    fn try_claim(&self, index: usize, round: Round) -> bool {
        self.cells[index].try_claim(round)
    }
    fn reset_range(&self, range: Range<usize>) {
        for c in &self.cells[range] {
            c.last_round_updated.store(0, Ordering::Relaxed);
        }
    }
    fn rearms_on_new_round(&self) -> bool {
        true
    }
}

/// A gatekeeper whose claim decision rides on a counter *read* (see
/// module docs): load, compare with 0, store the increment — the atomic
/// capture decomposed into a check-then-act pair.
///
/// Sequentially indistinguishable from [`pram_core::GatekeeperCell`]
/// (the unit tests below pin that); under concurrency, any schedule that
/// interleaves two claims between their loads and stores elects two
/// winners — and also *loses* increments, so the counter undercounts the
/// claim multiplicity (the conservation invariant telemetry tests rely
/// on).
#[derive(Debug, Default)]
pub struct CountingClaimCell {
    count: AtomicU32,
}

impl CountingClaimCell {
    /// A zeroed (armed) cell.
    pub const fn new() -> CountingClaimCell {
        CountingClaimCell {
            count: AtomicU32::new(0),
        }
    }

    /// Claim — **racy**: the winner check reads the counter instead of
    /// capturing it atomically.
    #[inline]
    pub fn try_claim_once(&self) -> bool {
        // BUG (intentional): a real gatekeeper performs one atomic
        // fetch_add and decides on the captured value; reading first lets
        // every thread that observed 0 win, and the separate stores drop
        // concurrent increments.
        let c = self.count.load(Ordering::Relaxed);
        self.count.store(c + 1, Ordering::Relaxed);
        c == 0
    }

    /// Claim count observed so far (undercounts under the seeded race).
    pub fn count(&self) -> u32 {
        self.count.load(Ordering::Relaxed)
    }

    /// Re-arm (exclusive access).
    pub fn reset(&mut self) {
        *self.count.get_mut() = 0;
    }
}

/// Single-cell [`SliceArbiter`] view so the broken scheme drives the same
/// generic models as the real arbiters (claims target cell 0; the round
/// is ignored, as for every gatekeeper).
impl SliceArbiter for CountingClaimCell {
    fn len(&self) -> usize {
        1
    }
    #[inline]
    fn try_claim(&self, index: usize, _round: Round) -> bool {
        assert_eq!(index, 0, "CountingClaimCell arbitrates a single target");
        self.try_claim_once()
    }
    fn reset_range(&self, range: Range<usize>) {
        if range.contains(&0) {
            self.count.store(0, Ordering::Relaxed);
        }
    }
    fn rearms_on_new_round(&self) -> bool {
        false
    }
}

/// [`pram_exec::SpinBarrier`] with a re-loaded last-arriver test (see
/// module docs). Everything else — the packed count/generation word, the
/// single release store, the park/unpark hints — mirrors the real
/// barrier, so the *only* difference the checker can find is the split
/// check.
#[derive(Debug)]
pub struct BuggySpinBarrier {
    /// Generation (high 32 bits) and arrival count (low 32 bits).
    word: psync::AtomicU64,
    total: u64,
}

impl BuggySpinBarrier {
    /// A broken barrier for `total` participants (≥ 1).
    pub fn new(total: u32) -> BuggySpinBarrier {
        assert!(total >= 1, "a barrier needs at least one participant");
        BuggySpinBarrier {
            word: psync::AtomicU64::new(0),
            total: u64::from(total),
        }
    }

    /// Broken rendezvous; `true` on every member that sees the full count.
    pub fn wait(&self) -> bool {
        self.wait_with(|| {})
    }

    /// Broken rendezvous; every elected member runs `f` before releasing.
    pub fn wait_with(&self, f: impl FnOnce()) -> bool {
        let addr = &self.word as *const psync::AtomicU64 as usize;
        let gen = self.word.fetch_add(1, Ordering::AcqRel) >> 32;
        // BUG (intentional): the real barrier decides on the count its
        // fetch_add returned; re-loading lets every member that arrives
        // before the release store see the full count.
        if self.word.load(Ordering::Acquire) & 0xFFFF_FFFF == self.total {
            f();
            self.word
                .store(gen.wrapping_add(1) << 32, Ordering::Release);
            psync::unpark_hint(addr);
            true
        } else {
            while self.word.load(Ordering::Acquire) >> 32 == gen {
                psync::park_hint(addr);
            }
            false
        }
    }
}

/// [`pram_exec::TeamSum`] with one slot per member instead of two.
#[derive(Debug)]
pub struct BuggyTeamSum {
    members: Box<[[AtomicU64; SUM_LANES]]>,
}

impl BuggyTeamSum {
    /// Slots for a team of `threads` members.
    pub fn new(threads: usize) -> BuggyTeamSum {
        BuggyTeamSum {
            members: (0..threads).map(|_| Default::default()).collect(),
        }
    }

    /// Broken team sum: correct only if every member has read the last
    /// sum before any member writes the next one.
    pub fn sum(
        &self,
        id: usize,
        value: [u64; SUM_LANES],
        rendezvous: impl FnOnce() -> bool,
    ) -> [u64; SUM_LANES] {
        // BUG (intentional): no parity, so sum k + 1 overwrites the slot
        // sum k's slower readers still need.
        for (slot, v) in self.members[id].iter().zip(value) {
            slot.store(v, Ordering::Relaxed);
        }
        rendezvous();
        let mut total = [0; SUM_LANES];
        for m in self.members.iter() {
            for (t, slot) in total.iter_mut().zip(m) {
                *t += slot.load(Ordering::Relaxed);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Single-threaded, the buggy cell is behaviorally identical to the
    // real CAS-LT — the bug exists only in interleavings, which is what
    // makes it a useful sensitivity control for the checker.

    #[test]
    fn sequentially_indistinguishable_from_caslt() {
        let buggy = BuggyCasLtCell::new();
        let real = pram_core::CasLtCell::new();
        for r in [Round::FIRST, Round::from_iteration(1), Round::FIRST] {
            assert_eq!(
                buggy.try_claim(r),
                real.try_claim(r),
                "sequential divergence at {r:?}"
            );
        }
    }

    #[test]
    fn first_claim_wins_then_loses_until_new_round() {
        let c = BuggyCasLtCell::new();
        assert!(c.try_claim(Round::FIRST));
        assert!(!c.try_claim(Round::FIRST));
        assert!(c.try_claim(Round::from_iteration(1)));
        // Stale round after an advance loses.
        assert!(!c.try_claim(Round::FIRST));
    }

    #[test]
    fn reset_rearms() {
        let mut c = BuggyCasLtCell::new();
        assert!(c.try_claim(Round::FIRST));
        c.reset();
        assert!(c.try_claim(Round::FIRST));
    }

    #[test]
    fn buggy_barrier_sequentially_indistinguishable_from_spin_barrier() {
        // A single participant runs every episode alone, so the re-load
        // always sees its own arrival: same elections, same closure runs.
        let buggy = BuggySpinBarrier::new(1);
        let real = pram_exec::SpinBarrier::new(1);
        let (mut buggy_runs, mut real_runs) = (0, 0);
        for _ in 0..5 {
            assert_eq!(buggy.wait(), real.wait());
            assert_eq!(
                buggy.wait_with(|| buggy_runs += 1),
                real.wait_with(|| real_runs += 1)
            );
        }
        assert_eq!((buggy_runs, real_runs), (5, 5));
    }

    #[test]
    fn buggy_team_sum_sequentially_indistinguishable() {
        // One member alone never overlaps two sums.
        let (buggy, real) = (BuggyTeamSum::new(1), pram_exec::TeamSum::new(1));
        for k in 0..4 {
            assert_eq!(
                buggy.sum(0, [k, 2 * k], || true),
                real.sum(0, [k, 2 * k], || true)
            );
        }
    }

    #[test]
    fn counting_cell_sequentially_indistinguishable_from_gatekeeper() {
        let buggy = CountingClaimCell::new();
        let real = pram_core::GatekeeperCell::new();
        for _ in 0..5 {
            assert_eq!(buggy.try_claim_once(), real.try_claim_once());
        }
        assert_eq!(buggy.count(), real.count());
        let (mut buggy, mut real) = (buggy, real);
        buggy.reset();
        real.reset();
        assert_eq!(buggy.try_claim_once(), real.try_claim_once());
    }

    #[test]
    fn counting_cell_slice_arbiter_contract() {
        let c = CountingClaimCell::new();
        assert_eq!(SliceArbiter::len(&c), 1);
        assert!(SliceArbiter::try_claim(&c, 0, Round::FIRST));
        assert!(!SliceArbiter::try_claim(&c, 0, Round::FIRST));
        // Gatekeeper semantics: a new round does not re-arm.
        assert!(!SliceArbiter::try_claim(&c, 0, Round::from_iteration(1)));
        assert!(!c.rearms_on_new_round());
        c.reset_range(0..1);
        assert!(SliceArbiter::try_claim(&c, 0, Round::FIRST));
        c.reset_all();
        assert!(SliceArbiter::try_claim(&c, 0, Round::FIRST));
    }

    #[test]
    #[should_panic(expected = "single target")]
    fn counting_cell_rejects_other_indices() {
        let c = CountingClaimCell::new();
        SliceArbiter::try_claim(&c, 1, Round::FIRST);
    }

    #[test]
    fn array_claims_and_resets() {
        let a = BuggyCasLtArray::new(3);
        assert_eq!(a.len(), 3);
        assert!(a.try_claim(1, Round::FIRST));
        assert!(!a.try_claim(1, Round::FIRST));
        assert!(a.try_claim(2, Round::FIRST));
        a.reset_range(1..2);
        assert!(a.try_claim(1, Round::FIRST));
        assert!(!a.try_claim(2, Round::FIRST));
        a.reset_all();
        assert!(a.try_claim(2, Round::FIRST));
        assert!(a.rearms_on_new_round());
    }
}
