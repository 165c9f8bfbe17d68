//! Critical-section arbitration — the paper's "trivial but bad solution".
//!
//! §4 of the paper: *"A trivial but bad solution to this problem is to
//! encapsulate the arbitrary CWs within a critical section, which will cause
//! massive performance degradation."* We implement it anyway, both as the
//! correctness yardstick (a mutex makes the single-winner argument immune to
//! memory-ordering subtleties) and as the pessimistic baseline for the
//! `ablate_lock` bench.
//!
//! Each cell pairs a `parking_lot::Mutex` with the same `last_round_updated`
//! state machine as CAS-LT. Claims are blocking (not wait-free): a claimant
//! may wait behind every other competitor, and the OS may deschedule the
//! lock holder — precisely the failure modes lock-free arbitration avoids.

use std::ops::Range;

use crate::sync::Mutex;

use crate::round::Round;
use crate::traits::SliceArbiter;

/// A mutex-guarded arbitration cell.
#[derive(Debug, Default)]
pub struct LockCell {
    last_round_updated: Mutex<u32>,
}

impl LockCell {
    /// A never-claimed cell.
    #[inline]
    pub const fn new() -> LockCell {
        LockCell {
            last_round_updated: Mutex::new(0),
        }
    }

    /// Claim under the lock: take the mutex, compare, update.
    ///
    /// Same observable semantics as [`crate::CasLtCell::try_claim`]
    /// (single winner per round, free re-arming on round advance), but the
    /// losers serialize through the critical section instead of skipping.
    pub fn try_claim(&self, round: Round) -> bool {
        crate::telemetry::record_lock_acquisition();
        let mut last = self.last_round_updated.lock();
        if *last >= round.get() {
            false
        } else {
            *last = round.get();
            crate::telemetry::record_win();
            true
        }
    }

    /// Restore the never-claimed state.
    pub fn reset(&mut self) {
        *self.last_round_updated.get_mut() = 0;
    }

    /// Shared-access reset (between rounds, no claims in flight).
    pub fn reset_shared(&self) {
        *self.last_round_updated.lock() = 0;
    }
}

/// A packed array of [`LockCell`]s.
#[derive(Debug)]
pub struct LockArray {
    cells: Box<[LockCell]>,
}

impl LockArray {
    /// `len` never-claimed cells.
    pub fn new(len: usize) -> LockArray {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, LockCell::new);
        LockArray {
            cells: v.into_boxed_slice(),
        }
    }
}

impl SliceArbiter for LockArray {
    fn len(&self) -> usize {
        self.cells.len()
    }
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn r(i: u32) -> Round {
        Round::from_iteration(i)
    }

    #[test]
    fn same_state_machine_as_caslt() {
        let c = LockCell::new();
        assert!(c.try_claim(r(0)));
        assert!(!c.try_claim(r(0)));
        assert!(c.try_claim(r(1))); // round advance re-arms
        assert!(!c.try_claim(r(0))); // stale round loses
        let mut c = c;
        c.reset();
        assert!(c.try_claim(r(0)));
    }

    #[test]
    fn exactly_one_winner_under_contention() {
        let cell = LockCell::new();
        let wins = AtomicUsize::new(0);
        let threads = if cfg!(miri) { 4 } else { 8 };
        let rounds = if cfg!(miri) { 4u32 } else { 100u32 };
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
    fn array_reset_semantics() {
        let a = LockArray::new(4);
        for i in 0..4 {
            assert!(a.try_claim(i, r(0)));
        }
        a.reset_range(1..2);
        assert!(!a.try_claim(0, r(0)));
        assert!(a.try_claim(1, r(0)));
        a.reset_all();
        for i in 0..4 {
            assert!(a.try_claim(i, r(0)));
        }
        assert!(a.rearms_on_new_round());
        assert_eq!(a.len(), 4);
    }
}
