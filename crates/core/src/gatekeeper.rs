//! Gatekeeper (prefix-sum) arbitration — the XMT-inspired prior practice.
//!
//! The method the paper compares against (Vishkin, Caragea & Lee 2008,
//! realized with OpenMP `atomic capture` in the paper's Figure 2): every
//! competitor performs an atomic postfix increment on a per-target
//! *gatekeeper* counter, and the competitor that observed `0` wins:
//!
//! ```text
//! inline bool canConWriteAtomic(unsigned &gatekeeper) {
//!     unsigned x;
//!     #pragma omp atomic capture
//!     { x = gatekeeper; gatekeeper++; }
//!     return x == 0;
//! }
//! ```
//!
//! Two structural costs distinguish it from CAS-LT:
//!
//! * **Unconditional serialization.** Every claim executes the atomic RMW,
//!   even long after a winner exists, so all competitors to one target
//!   serialize on its cache line (the paper's §6: time `T(N) = P_PRAM(N)`).
//! * **Per-round reinitialization.** The gatekeeper carries no round
//!   information, so the entire array must be re-zeroed before every new
//!   concurrent-write round (the paper's Figure 3(b), lines 34–35): an extra
//!   O(K) pass with its own barrier, which CAS-LT eliminates.

use crate::sync::{AtomicU32, Ordering};
use std::ops::Range;

use crate::round::Round;
use crate::traits::SliceArbiter;

/// A single gatekeeper counter (the paper's Figure 2).
///
/// ```
/// use pram_core::GatekeeperCell;
///
/// let mut g = GatekeeperCell::new();
/// assert!(g.try_claim_once());    // observed 0: winner
/// assert!(!g.try_claim_once());   // observed 1: loser
/// // The cell carries no round, so nothing re-arms it but a reset.
/// g.reset();
/// assert!(g.try_claim_once());
/// ```
#[derive(Debug, Default)]
pub struct GatekeeperCell {
    gatekeeper: AtomicU32,
}

impl GatekeeperCell {
    /// A zeroed (armed) gatekeeper.
    #[inline]
    pub const fn new() -> GatekeeperCell {
        GatekeeperCell {
            gatekeeper: AtomicU32::new(0),
        }
    }

    /// The paper's `canConWriteAtomic`: atomically post-increment and win
    /// iff the previous value was 0.
    ///
    /// Wrapping note: the counter saturates logically — after 2³²
    /// unreset claims the increment would wrap to 0 and elect a bogus second
    /// winner. The kernels in this workspace reset every round, bounding the
    /// count by the claim multiplicity of one round; `debug_assert!` guards
    /// the invariant in test builds.
    #[inline]
    pub fn try_claim_once(&self) -> bool {
        crate::telemetry::record_gatekeeper_rmw();
        let prev = self.gatekeeper.fetch_add(1, Ordering::AcqRel);
        debug_assert!(
            prev != u32::MAX,
            "gatekeeper wrapped: reset discipline violated"
        );
        if prev == 0 {
            crate::telemetry::record_win();
        }
        prev == 0
    }

    /// Current claim count since the last reset.
    #[inline]
    pub fn count(&self) -> u32 {
        self.gatekeeper.load(Ordering::Relaxed)
    }

    /// Re-arm (exclusive access).
    #[inline]
    pub fn reset(&mut self) {
        *self.gatekeeper.get_mut() = 0;
    }

    /// Re-arm through a shared reference — the building block of the
    /// per-round parallel reinitialization pass. Must not race with claims.
    #[inline]
    pub fn reset_shared(&self) {
        self.gatekeeper.store(0, Ordering::Relaxed);
    }
}

/// A packed array of [`GatekeeperCell`]s (the paper's
/// `unsigned gatekeeper[N]`). Requires [`SliceArbiter::reset_all`] (or a
/// parallel [`SliceArbiter::reset_range`] pass) before every round.
#[derive(Debug)]
pub struct GatekeeperArray {
    cells: Box<[GatekeeperCell]>,
}

impl GatekeeperArray {
    /// `len` armed gatekeepers.
    pub fn new(len: usize) -> GatekeeperArray {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, GatekeeperCell::new);
        GatekeeperArray {
            cells: v.into_boxed_slice(),
        }
    }
}

impl SliceArbiter for GatekeeperArray {
    fn len(&self) -> usize {
        self.cells.len()
    }
    #[inline]
    fn try_claim(&self, index: usize, _round: Round) -> bool {
        self.cells[index].try_claim_once()
    }
    fn reset_range(&self, range: Range<usize>) {
        let cells = &self.cells[range];
        for c in cells {
            c.reset_shared();
        }
        crate::telemetry::record_rearm_resets(cells.len() as u64);
    }
    fn rearms_on_new_round(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn first_claim_wins_rest_lose() {
        let g = GatekeeperCell::new();
        assert!(g.try_claim_once());
        for _ in 0..10 {
            assert!(!g.try_claim_once());
        }
        assert_eq!(g.count(), 11);
    }

    #[test]
    fn reset_rearms() {
        let mut g = GatekeeperCell::new();
        assert!(g.try_claim_once());
        g.reset();
        assert!(g.try_claim_once());
    }

    #[test]
    fn exactly_one_winner_under_contention() {
        let threads = if cfg!(miri) { 4 } else { 8 };
        let iters = if cfg!(miri) { 4 } else { 200 };
        let wins = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(threads);
        let mut g = GatekeeperCell::new();
        for _ in 0..iters {
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        barrier.wait();
                        if g.try_claim_once() {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            g.reset();
        }
        assert_eq!(wins.load(Ordering::Relaxed), iters);
    }

    #[test]
    fn arrays_reset_all_and_range() {
        let a = GatekeeperArray::new(6);
        let r = Round::FIRST;
        for i in 0..6 {
            assert!(a.try_claim(i, r));
            assert!(!a.try_claim(i, r));
        }
        a.reset_range(0..3);
        for i in 0..6 {
            assert_eq!(a.try_claim(i, r), i < 3, "cell {i}");
        }
        a.reset_all();
        for i in 0..6 {
            assert!(a.try_claim(i, r));
        }
    }

    #[test]
    fn slice_arbiter_ignores_round() {
        let a = GatekeeperArray::new(1);
        assert!(SliceArbiter::try_claim(&a, 0, Round::FIRST));
        // New round, no reset: still claimed — the defining limitation.
        assert!(!SliceArbiter::try_claim(&a, 0, Round::from_iteration(1)));
        assert!(!a.rearms_on_new_round());
    }
}
