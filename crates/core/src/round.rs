//! Round identifiers and their lifecycle.
//!
//! A **round** identifies one PRAM time step that contains concurrent
//! writes. Every arbitration cell remembers the round in which it was last
//! claimed; a claim succeeds only if it is the first claim the cell sees for
//! the given round. Advancing to a fresh round therefore re-arms *all* cells
//! in O(1) total work — the property that distinguishes CAS-LT from the
//! gatekeeper method, which must re-zero its auxiliary array.
//!
//! Rounds are strictly increasing `u32`s starting at 1 (cells initialize to
//! 0, i.e. "never claimed"). The paper uses C `unsigned` round IDs and
//! ignores overflow; we make overflow explicit: [`RoundCounter::next_round`]
//! returns `None` once the space is exhausted, at which point the program
//! must reset its arbitration arrays and start a new epoch (see
//! [`RoundCounter::next_round_or_reset`]) — a deliberate, rare O(K) cost
//! after ~4 billion rounds.

use core::fmt;

/// Identifier of a concurrent-write round (a PRAM time step).
///
/// `Round` is deliberately opaque: values are only ever produced by a
/// [`RoundCounter`] or [`Round::from_iteration`], keeping the "strictly
/// increasing, never zero" invariant that arbitration cells rely on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(pub(crate) u32);

impl Round {
    /// The first valid round.
    pub const FIRST: Round = Round(1);

    /// The last issuable round before an epoch reset is required.
    pub const LAST: Round = Round(u32::MAX);

    /// Derive a round from a loop iteration counter.
    ///
    /// The paper notes that the round "could be substituted by the loop
    /// iteration, achieving the same result for free": a level-synchronous
    /// kernel whose iteration `i` performs one concurrent-write step can use
    /// `Round::from_iteration(i)` directly instead of maintaining a
    /// separate counter. Iteration 0 maps to [`Round::FIRST`].
    ///
    /// # Panics
    /// Panics if `iteration == u32::MAX` (the would-be round wraps to 0).
    #[inline]
    pub fn from_iteration(iteration: u32) -> Round {
        assert!(
            iteration != u32::MAX,
            "round space exhausted: iteration counter wrapped"
        );
        Round(iteration + 1)
    }

    /// The raw value stored into arbitration cells.
    #[inline]
    pub fn get(self) -> u32 {
        self.0
    }

    /// The round immediately after this one, or `None` on overflow.
    #[inline]
    pub fn next(self) -> Option<Round> {
        self.0.checked_add(1).map(Round)
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Round({})", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// Error signalling that the 32-bit round space has been exhausted.
///
/// Returned by APIs that cannot silently reset state. After receiving this,
/// reset every arbitration array that was used with the counter (e.g.
/// [`crate::CasLtArray::reset`]) and start a new epoch, as
/// [`RoundCounter::next_round_or_reset`] does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundOverflow;

impl fmt::Display for RoundOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("round space exhausted; reset arbitration arrays and start a new epoch")
    }
}

impl std::error::Error for RoundOverflow {}

/// Issues strictly increasing [`Round`]s.
///
/// The counter is intentionally **not** shared between threads: exactly one
/// control thread (the one driving the lock-step schedule) advances rounds,
/// and the resulting `Round` value — a plain `u32` — is distributed to
/// workers by the surrounding parallel-region machinery. This mirrors the
/// paper's OpenMP kernels where the round is a sequential loop variable.
#[derive(Clone, Debug)]
pub struct RoundCounter {
    next: u32,
    /// Number of completed epochs (full wraps of the 32-bit round space).
    epochs: u64,
}

impl RoundCounter {
    /// A counter whose first issued round is [`Round::FIRST`].
    #[inline]
    pub fn new() -> RoundCounter {
        RoundCounter { next: 1, epochs: 0 }
    }

    /// A counter resuming at a specific round (checkpoint restore, or
    /// tests exercising the epoch-overflow path without 4 billion calls).
    ///
    /// # Panics
    /// Panics if `next == 0` (not a valid round).
    #[inline]
    pub fn starting_at(next: u32) -> RoundCounter {
        assert!(next != 0, "round 0 is the never-claimed sentinel");
        RoundCounter { next, epochs: 0 }
    }

    /// Issue the next round, or `None` if the 32-bit space is exhausted.
    ///
    /// (Named `next_round` rather than `next` to stay clear of
    /// `Iterator::next`; the counter is not an iterator because exhaustion
    /// demands an explicit epoch reset, not silent termination.)
    #[inline]
    pub fn next_round(&mut self) -> Option<Round> {
        if self.next == 0 {
            return None;
        }
        let r = Round(self.next);
        self.next = self.next.wrapping_add(1); // wraps to 0 == exhausted
        Some(r)
    }

    /// Issue the next round, resetting the supplied arbitration arrays and
    /// starting a new epoch if the round space is exhausted.
    ///
    /// `reset_arrays` is invoked only in the (rare) overflow case and must
    /// restore every cell that has ever been claimed with this counter to
    /// its never-claimed state.
    #[inline]
    pub fn next_round_or_reset(&mut self, reset_arrays: impl FnOnce()) -> Round {
        match self.next_round() {
            Some(r) => r,
            None => {
                reset_arrays();
                self.next = 1;
                self.epochs += 1;
                self.next_round().expect("fresh epoch has rounds")
            }
        }
    }

    /// Number of full wraps of the round space so far.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The round that will be issued by the next call to
    /// [`RoundCounter::next_round`], if any.
    #[inline]
    pub fn peek(&self) -> Option<Round> {
        (self.next != 0).then_some(Round(self.next))
    }
}

impl Default for RoundCounter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceArbiter;

    #[test]
    fn rounds_start_at_one_and_increase() {
        let mut c = RoundCounter::new();
        let r1 = c.next_round().unwrap();
        let r2 = c.next_round().unwrap();
        assert_eq!(r1, Round::FIRST);
        assert!(r2 > r1);
        assert_eq!(r2.get(), 2);
    }

    #[test]
    fn from_iteration_matches_counter() {
        let mut c = RoundCounter::new();
        for i in 0..100u32 {
            assert_eq!(c.next_round().unwrap(), Round::from_iteration(i));
        }
    }

    #[test]
    #[should_panic(expected = "round space exhausted")]
    fn from_iteration_rejects_wrap() {
        let _ = Round::from_iteration(u32::MAX);
    }

    #[test]
    fn counter_exhausts_exactly_at_u32_max() {
        let mut c = RoundCounter {
            next: u32::MAX,
            epochs: 0,
        };
        assert_eq!(c.next_round(), Some(Round::LAST));
        assert_eq!(c.next_round(), None);
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn next_round_or_reset_starts_new_epoch() {
        let mut c = RoundCounter {
            next: u32::MAX,
            epochs: 0,
        };
        assert_eq!(c.next_round_or_reset(|| ()).get(), u32::MAX);
        let mut resets = 0;
        let r = c.next_round_or_reset(|| resets += 1);
        assert_eq!(resets, 1);
        assert_eq!(r, Round::FIRST);
        assert_eq!(c.epochs(), 1);
    }

    #[test]
    fn round_next_overflows_to_none() {
        assert_eq!(Round::LAST.next(), None);
        assert_eq!(Round::FIRST.next(), Some(Round(2)));
    }

    #[test]
    fn epoch_overflow_end_to_end_with_cells() {
        // An array used right across the 32-bit boundary: claims from the
        // old epoch must not leak into the new one after the reset.
        let mut arrays = crate::CasLtArray::new(4);
        let mut c = RoundCounter::starting_at(u32::MAX - 1);
        for _ in 0..2 {
            let r = c.next_round_or_reset(|| arrays.reset());
            for i in 0..4 {
                assert!(arrays.try_claim(i, r));
                assert!(!arrays.try_claim(i, r));
            }
        }
        // Round space exhausted: the next call resets and restarts.
        let r = c.next_round_or_reset(|| arrays.reset());
        assert_eq!(r, Round::FIRST);
        assert_eq!(c.epochs(), 1);
        for i in 0..4 {
            assert!(arrays.try_claim(i, r), "cell {i} must be re-armed");
        }
    }

    #[test]
    #[should_panic(expected = "never-claimed sentinel")]
    fn starting_at_zero_rejected() {
        let _ = RoundCounter::starting_at(0);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut c = RoundCounter::new();
        assert_eq!(c.peek(), Some(Round::FIRST));
        assert_eq!(c.next_round(), Some(Round::FIRST));
    }
}
