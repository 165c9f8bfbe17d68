//! CAS-if-Less-Than arbitration — the paper's contribution.
//!
//! Each concurrent-write target owns one auxiliary word, `last_round_updated`
//! (the paper's `lastRoundUpdated`), holding the ID of the last round in
//! which the target was claimed (0 = never). The claim operation is the
//! paper's Figure 1 translated to Rust atomics:
//!
//! ```text
//! inline bool canConWriteCASLT(unsigned &lastRoundUpdated, unsigned round) {
//!     bool x = false;
//!     if ((unsigned current = lastRoundUpdated) < round)   // fast-path load
//!         x = atomic_cas(&lastRoundUpdated, current, round);
//!     return x;
//! }
//! ```
//!
//! Two properties follow:
//!
//! * **Wait-free.** Every call completes in one load plus at most one CAS,
//!   independent of other threads' progress. A CAS failure is definitive —
//!   some other thread moved the cell to `round` (or the claim raced with a
//!   later epoch reset) — so there is no retry loop.
//! * **Bounded serialization.** Only threads whose fast-path load observed a
//!   stale value execute the CAS; after the first winner, every later
//!   arrival reads `== round` and skips the atomic entirely. At most
//!   `P_phys` CASes can be in flight at once, giving the O(1) claim cost of
//!   the paper's §6 analysis — in contrast to the gatekeeper scheme, where
//!   *all* competitors serialize on a fetch-and-increment.
//!
//! The cells never need reinitialization between rounds: advancing the round
//! counter re-arms all of them. Only exhaustion of the 32-bit round space
//! forces a reset (see [`crate::RoundCounter`]).

use crate::sync::{AtomicU32, Ordering};
use std::ops::Range;

use crate::round::Round;
use crate::traits::SliceArbiter;

/// A single CAS-LT arbitration word (32-bit rounds, matching the paper).
///
/// ```
/// use pram_core::{CasLtCell, Round};
///
/// let cell = CasLtCell::new();
/// let r1 = Round::from_iteration(0);
/// let r2 = Round::from_iteration(1);
/// assert!(cell.try_claim(r1));   // first claimant of round 1 wins
/// assert!(!cell.try_claim(r1));  // same round: already claimed
/// assert!(cell.try_claim(r2));   // new round re-arms the cell for free
/// ```
#[derive(Debug, Default)]
pub struct CasLtCell {
    last_round_updated: AtomicU32,
}

impl CasLtCell {
    /// A never-claimed cell.
    #[inline]
    pub const fn new() -> CasLtCell {
        CasLtCell {
            last_round_updated: AtomicU32::new(0),
        }
    }

    /// The paper's `canConWriteCASLT`: claim this cell for `round`.
    ///
    /// Returns `true` iff the caller is the unique winner among all claims
    /// for (`self`, `round`). Wait-free: one load, at most one CAS.
    #[inline]
    pub fn try_claim(&self, round: Round) -> bool {
        // Fast path: if the cell already carries the current round, the
        // write has been claimed — skip the atomic RMW entirely. Relaxed is
        // sufficient: the value only gates *writer* election; dependent
        // readers are ordered by the program's synchronization point (see
        // crate::ordering).
        let current = self.last_round_updated.load(Ordering::Relaxed);
        if current >= round.get() {
            crate::telemetry::record_fast_skip();
            return false;
        }
        // Slow path: compete. Exactly one CAS from `current` (or any other
        // stale value) to `round` succeeds; the rest observe the new value
        // and fail. `compare_exchange` (strong) keeps the wait-free bound —
        // a spurious failure of the weak variant would force a retry loop.
        //
        // Failure ordering is `Relaxed` because the loaded-on-failure value
        // is discarded: a loser returns `false` and performs no dependent
        // reads of the winner's payload — those happen only after the
        // round's synchronization point, which supplies the happens-before
        // edge (the same argument as the fast path's `Relaxed` load; see
        // crate::ordering). An `Acquire` failure ordering would order
        // against a value nobody looks at.
        crate::telemetry::record_cas_attempt();
        let won = self
            .last_round_updated
            .compare_exchange(current, round.get(), Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if won {
            crate::telemetry::record_win();
        } else {
            crate::telemetry::record_cas_failure();
        }
        won
    }

    /// The last round this cell was claimed in, or `None` if never/reset.
    #[inline]
    pub fn last_claimed(&self) -> Option<Round> {
        match self.last_round_updated.load(Ordering::Relaxed) {
            0 => None,
            r => Some(Round(r)),
        }
    }

    /// Restore the never-claimed state (start of a new epoch).
    #[inline]
    pub fn reset(&mut self) {
        *self.last_round_updated.get_mut() = 0;
    }

    /// Shared-access reset, for parallel epoch-reset passes over disjoint
    /// ranges. Must not race with in-flight claims on the same cell.
    #[inline]
    pub fn reset_shared(&self) {
        self.last_round_updated.store(0, Ordering::Relaxed);
    }
}

/// A packed array of [`CasLtCell`]s — one word per concurrent-write target.
///
/// This is the layout the paper's kernels use (`unsigned RoundWritten[N]`):
/// 4 bytes per target, 16 targets per cache line. Dense packing maximizes
/// the reach of each cache line during the read-mostly fast path at the cost
/// of false sharing between *winning* CASes on neighboring targets.
#[derive(Debug)]
pub struct CasLtArray {
    cells: Box<[CasLtCell]>,
}

impl CasLtArray {
    /// `len` never-claimed cells.
    pub fn new(len: usize) -> CasLtArray {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, CasLtCell::new);
        CasLtArray {
            cells: v.into_boxed_slice(),
        }
    }

    /// The last round target `index` was claimed in.
    #[inline]
    pub fn last_claimed(&self, index: usize) -> Option<Round> {
        self.cells[index].last_claimed()
    }

    /// Exclusive-access whole-array reset (start of a new epoch).
    pub fn reset(&mut self) {
        for c in self.cells.iter_mut() {
            c.reset();
        }
    }
}

impl SliceArbiter for CasLtArray {
    fn len(&self) -> usize {
        self.cells.len()
    }
    /// Claim target `index` for `round`. See [`CasLtCell::try_claim`].
    #[inline]
    fn try_claim(&self, index: usize, round: Round) -> bool {
        self.cells[index].try_claim(round)
    }
    fn reset_range(&self, range: Range<usize>) {
        let cells = &self.cells[range];
        for c in cells {
            c.reset_shared();
        }
        crate::telemetry::record_rearm_resets(cells.len() as u64);
    }
    fn rearms_on_new_round(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn r(i: u32) -> Round {
        Round::from_iteration(i)
    }

    #[test]
    fn single_thread_claim_semantics() {
        let c = CasLtCell::new();
        assert_eq!(c.last_claimed(), None);
        assert!(c.try_claim(r(0)));
        assert!(!c.try_claim(r(0)));
        assert_eq!(c.last_claimed(), Some(r(0)));
        assert!(c.try_claim(r(1)));
        assert_eq!(c.last_claimed(), Some(r(1)));
    }

    #[test]
    fn stale_round_never_wins() {
        let c = CasLtCell::new();
        assert!(c.try_claim(r(5)));
        // A thread late to the party with an older round must fail: the
        // fast-path comparison is `current >= round`.
        assert!(!c.try_claim(r(3)));
        assert!(!c.try_claim(r(5)));
        assert!(c.try_claim(r(6)));
    }

    #[test]
    fn skipping_rounds_is_allowed() {
        let c = CasLtCell::new();
        assert!(c.try_claim(r(0)));
        assert!(c.try_claim(r(100)));
        assert!(!c.try_claim(r(50)));
    }

    #[test]
    fn reset_rearms_old_rounds() {
        let mut c = CasLtCell::new();
        assert!(c.try_claim(r(9)));
        c.reset();
        assert!(c.try_claim(r(0)));
    }

    #[test]
    fn exactly_one_winner_under_contention() {
        // The central invariant, hammered by real threads over many rounds.
        let threads = if cfg!(miri) { 4 } else { 8 };
        let rounds = if cfg!(miri) { 4 } else { 200 };
        let cell = CasLtCell::new();
        let wins = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..rounds {
                        barrier.wait();
                        if cell.try_claim(r(i)) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), rounds as usize);
    }

    #[test]
    fn array_claims_are_independent_per_cell() {
        let a = CasLtArray::new(4);
        assert!(a.try_claim(0, r(0)));
        assert!(a.try_claim(1, r(0)));
        assert!(!a.try_claim(0, r(0)));
        assert_eq!(a.last_claimed(2), None);
        assert_eq!(a.last_claimed(0), Some(r(0)));
    }

    #[test]
    #[should_panic]
    fn array_claim_out_of_bounds_panics() {
        let a = CasLtArray::new(2);
        a.try_claim(2, r(0));
    }

    #[test]
    fn array_reset_all_and_range() {
        let a = CasLtArray::new(8);
        for i in 0..8 {
            assert!(a.try_claim(i, r(0)));
        }
        a.reset_range(2..5);
        for i in 0..8 {
            let claimed_again = a.try_claim(i, r(0));
            assert_eq!(claimed_again, (2..5).contains(&i), "cell {i}");
        }
        a.reset_all();
        for i in 0..8 {
            assert!(a.try_claim(i, r(0)));
        }
    }

    #[test]
    fn contended_multi_cell_rounds() {
        // Claims to different cells in the same round are independent wins.
        let cells = CasLtArray::new(16);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..cells.len() {
                        if cells.try_claim(i, r(0)) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 16);
    }
}
