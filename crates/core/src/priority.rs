//! Priority concurrent writes — the strongest CRCW resolution rule.
//!
//! Under *Priority CRCW*, the competitor with the highest priority commits
//! its write (the paper's §2 lists "minimum processor rank" and "smallest
//! value written" as typical priority attributes). This module simulates the
//! rule on a multicore with a packed 64-bit CAS loop, demonstrating the
//! paper's observation that a weaker model's primitives can host a stronger
//! rule — at a measurable cost: the claim here is **lock-free but not
//! wait-free** (a claimant can be forced to retry while better offers keep
//! landing), in contrast to CAS-LT's one-load-one-CAS bound.
//!
//! ## Two-phase protocol
//!
//! Unlike arbitrary CW — where the first successful claimant simply *is* the
//! winner — a priority winner is only known once every competitor has made
//! its offer. Usage is therefore two-phase, with the program's existing
//! synchronization point between the phases:
//!
//! 1. **Offer phase:** every competitor calls [`PriorityCell::offer`] with
//!    its priority.
//! 2. *(barrier)*
//! 3. **Commit phase:** each competitor calls [`PriorityCell::is_winner`];
//!    the unique `true` recipient performs the write. (Another barrier is
//!    then needed before dependent reads, exactly as for the other schemes.)
//!
//! Smaller numeric priority wins ("minimum processor rank has the highest
//! priority"). Priorities must be unique within a round for the winner to be
//! unique; processor/thread IDs are the canonical choice.

use crate::sync::{AtomicU64, Ordering};

use crate::round::Round;

/// Packs (round, priority) so one 64-bit CAS updates both fields.
#[inline]
fn pack(round: u32, prio: u32) -> u64 {
    (u64::from(round) << 32) | u64::from(prio)
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// A priority-CW arbitration cell (min-priority-value wins).
///
/// ```
/// use pram_core::{PriorityCell, Round};
///
/// let cell = PriorityCell::new();
/// let round = Round::FIRST;
/// // Offer phase (normally from different threads):
/// cell.offer(round, 7);
/// cell.offer(round, 2);
/// cell.offer(round, 5);
/// // ... barrier ...
/// assert_eq!(cell.winner(round), Some(2));
/// assert!(cell.is_winner(round, 2));
/// assert!(!cell.is_winner(round, 7));
/// ```
#[derive(Debug, Default)]
pub struct PriorityCell {
    /// High 32 bits: last offered round. Low 32 bits: best (minimum)
    /// priority offered in that round.
    state: AtomicU64,
}

impl PriorityCell {
    /// A cell with no offers (round 0 = never).
    #[inline]
    pub const fn new() -> PriorityCell {
        PriorityCell {
            state: AtomicU64::new(0),
        }
    }

    /// Offer `prio` for `round`; returns `true` if this offer is the best
    /// seen so far (which does **not** yet make the caller the winner —
    /// a better offer may still arrive before the barrier).
    ///
    /// Lock-free: retries only when another offer lands concurrently.
    pub fn offer(&self, round: Round, prio: u32) -> bool {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            let (cur_round, cur_prio) = unpack(cur);
            let beats = cur_round < round.get() || (cur_round == round.get() && prio < cur_prio);
            if !beats {
                // Stale round, or an equal-or-better offer already present.
                crate::telemetry::record_fast_skip();
                return false;
            }
            crate::telemetry::record_cas_attempt();
            match self.state.compare_exchange_weak(
                cur,
                pack(round.get(), prio),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    crate::telemetry::record_win();
                    return true;
                }
                Err(actual) => {
                    crate::telemetry::record_cas_failure();
                    cur = actual;
                }
            }
        }
    }

    /// After the offer phase's barrier: the winning priority for `round`,
    /// or `None` if no offer was made in that round.
    #[inline]
    pub fn winner(&self, round: Round) -> Option<u32> {
        let (r, p) = unpack(self.state.load(Ordering::Acquire));
        (r == round.get()).then_some(p)
    }

    /// After the offer phase's barrier: is `prio` the winner of `round`?
    #[inline]
    pub fn is_winner(&self, round: Round, prio: u32) -> bool {
        self.winner(round) == Some(prio)
    }

    /// Restore the no-offers state (start of a new epoch).
    pub fn reset(&mut self) {
        *self.state.get_mut() = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> Round {
        Round::from_iteration(i)
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for &(a, b) in &[(0u32, 0u32), (1, 2), (u32::MAX, u32::MAX), (5, 0)] {
            assert_eq!(unpack(pack(a, b)), (a, b));
        }
    }

    #[test]
    fn minimum_priority_wins() {
        let c = PriorityCell::new();
        assert!(c.offer(r(0), 9));
        assert!(c.offer(r(0), 3));
        assert!(!c.offer(r(0), 7)); // 7 does not beat 3
        assert!(!c.offer(r(0), 3)); // ties do not displace
        assert_eq!(c.winner(r(0)), Some(3));
        assert!(c.is_winner(r(0), 3));
        assert!(!c.is_winner(r(0), 9));
    }

    #[test]
    fn new_round_supersedes_old_offers() {
        let c = PriorityCell::new();
        assert!(c.offer(r(0), 1));
        assert!(c.offer(r(1), 42)); // worse prio but newer round
        assert_eq!(c.winner(r(1)), Some(42));
        assert_eq!(c.winner(r(0)), None); // old round's winner is gone
        assert!(!c.offer(r(0), 0)); // stale round cannot offer
    }

    #[test]
    fn no_offer_no_winner() {
        let c = PriorityCell::new();
        assert_eq!(c.winner(r(0)), None);
        assert!(!c.is_winner(r(0), 0));
    }

    #[test]
    fn unique_winner_under_contention_is_global_minimum() {
        let cell = PriorityCell::new();
        let threads: Vec<u32> = (0..16).rev().collect();
        std::thread::scope(|s| {
            for &prio in &threads {
                let cell = &cell;
                s.spawn(move || {
                    cell.offer(r(0), prio);
                });
            }
        });
        assert_eq!(cell.winner(r(0)), Some(0));
        let winners: Vec<u32> = threads
            .iter()
            .copied()
            .filter(|&p| cell.is_winner(r(0), p))
            .collect();
        assert_eq!(winners, vec![0]);
    }

    #[test]
    fn reset_clears_offers() {
        let mut c = PriorityCell::new();
        assert!(c.offer(r(3), 1));
        c.reset();
        assert_eq!(c.winner(r(3)), None);
        assert!(c.offer(r(0), 2)); // an earlier round offers again
        assert_eq!(c.winner(r(0)), Some(2));
    }
}
