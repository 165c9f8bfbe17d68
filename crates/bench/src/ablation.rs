//! The two arbiters that exist only to be ablated against the paper's
//! methods. Both settled their question, so they live beside the
//! experiments that time them ([`crate::ablations`]) rather than in
//! pram-core:
//!
//! * [`AlwaysRmwCasLtArray`] — CAS-LT without its pre-CAS load. 3.6×
//!   slower on the Max kernel: the paper's §5 claim that skipping the
//!   atomic once a winner exists is the win.
//! * [`BitGatekeeperArray`] — the gatekeeper at one bit per target. Slower
//!   than the 32-bit gatekeeper: 64 targets share each RMW word.
//!
//! Both stay on the `pram_core::sync` atomics, so under
//! `--cfg pram_check` the model checker schedules their every access
//! (`tests/check_arbiters.rs`). Neither records claim counters.

use std::ops::Range;

use pram_core::sync::{AtomicU32, Ordering};
use pram_core::{AtomicBitmap, Round, SliceArbiter};

/// Ablation variant: CAS-LT **without** the pre-CAS load check — every
/// claim issues an atomic RMW (`fetch_max(round)`), winning iff the
/// previous value was older.
///
/// Semantically identical to [`pram_core::CasLtArray`] (single winner per
/// round, reset-free re-arming) but with the gatekeeper method's cost
/// structure: all competitors serialize on the RMW. The `ablate_fastpath`
/// bench uses this to isolate how much of CAS-LT's advantage is the skip
/// itself, which is the paper's §5 claim ("we skip the atomic instruction
/// once we have a winner thread").
#[derive(Debug)]
pub struct AlwaysRmwCasLtArray {
    cells: Box<[AtomicU32]>,
}

impl AlwaysRmwCasLtArray {
    /// `len` never-claimed cells.
    pub fn new(len: usize) -> AlwaysRmwCasLtArray {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || AtomicU32::new(0));
        AlwaysRmwCasLtArray {
            cells: v.into_boxed_slice(),
        }
    }
}

impl SliceArbiter for AlwaysRmwCasLtArray {
    fn len(&self) -> usize {
        self.cells.len()
    }
    #[inline]
    fn try_claim(&self, index: usize, round: Round) -> bool {
        // Unconditional RMW: the ablated fast path.
        self.cells[index].fetch_max(round.get(), Ordering::AcqRel) < round.get()
    }
    fn reset_range(&self, range: Range<usize>) {
        for c in &self.cells[range] {
            c.store(0, Ordering::Relaxed);
        }
    }
    fn rearms_on_new_round(&self) -> bool {
        true
    }
}

/// One-bit-per-target gatekeeper over a packed [`AtomicBitmap`]: a claim
/// sets the target's bit and wins iff it was clear.
///
/// Round-free like [`pram_core::GatekeeperArray`]: requires a reset pass
/// before every concurrent-write round.
#[derive(Debug)]
pub struct BitGatekeeperArray {
    bits: AtomicBitmap,
}

impl BitGatekeeperArray {
    /// `len` armed (clear) targets.
    pub fn new(len: usize) -> BitGatekeeperArray {
        BitGatekeeperArray {
            bits: AtomicBitmap::new(len),
        }
    }
}

impl SliceArbiter for BitGatekeeperArray {
    fn len(&self) -> usize {
        self.bits.len()
    }
    #[inline]
    fn try_claim(&self, index: usize, _round: Round) -> bool {
        self.bits.insert(index)
    }
    fn reset_range(&self, range: Range<usize>) {
        // Bit-granular (not word-granular) so concurrent resets of *any*
        // disjoint index ranges are exact even when they share a word.
        for i in range {
            self.bits.remove(i);
        }
    }
    fn rearms_on_new_round(&self) -> bool {
        false
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
    fn always_rmw_variant_same_semantics() {
        let a = AlwaysRmwCasLtArray::new(2);
        assert!(a.try_claim(0, r(0)));
        assert!(!a.try_claim(0, r(0)));
        assert!(a.try_claim(0, r(1))); // rearms on round advance
        assert!(!a.try_claim(0, r(0))); // stale round loses
        assert!(a.rearms_on_new_round());
        a.reset_all();
        assert!(a.try_claim(0, r(0)));
        a.reset_range(0..1);
        assert!(a.try_claim(0, r(0)));
        assert!(!a.is_empty());
    }

    #[test]
    fn always_rmw_one_winner_under_contention() {
        let a = AlwaysRmwCasLtArray::new(1);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    if a.try_claim(0, r(0)) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bit_gatekeeper_first_claim_wins_rest_lose() {
        let b = BitGatekeeperArray::new(100);
        assert!(b.try_claim(63, r(0)));
        assert!(!b.try_claim(63, r(0)));
        assert!(b.try_claim(64, r(0))); // next word, independent
        assert!(b.try_claim(0, r(0)));
        assert_eq!(b.len(), 100);
    }

    #[test]
    fn bit_gatekeeper_reset_all_and_ranges() {
        let b = BitGatekeeperArray::new(130);
        for i in 0..130 {
            assert!(b.try_claim(i, r(0)));
        }
        b.reset_range(60..70); // straddles a word boundary
        for i in 0..130 {
            assert_eq!(b.try_claim(i, r(0)), (60..70).contains(&i), "bit {i}");
        }
        b.reset_all();
        for i in 0..130 {
            assert!(b.try_claim(i, r(0)));
        }
    }

    #[test]
    fn bit_gatekeeper_concurrent_range_resets_on_disjoint_ranges_are_exact() {
        let b = BitGatekeeperArray::new(128);
        for i in 0..128 {
            b.try_claim(i, r(0));
        }
        std::thread::scope(|s| {
            let b = &b;
            s.spawn(move || b.reset_range(0..64));
            s.spawn(move || b.reset_range(64..128));
        });
        for i in 0..128 {
            assert!(b.try_claim(i, r(0)), "bit {i} not re-armed");
        }
    }

    #[test]
    fn bit_gatekeeper_one_winner_under_contention() {
        let b = BitGatekeeperArray::new(64);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..64 {
                        if b.try_claim(i, r(0)) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn bit_gatekeeper_round_is_ignored() {
        let b = BitGatekeeperArray::new(1);
        assert!(b.try_claim(0, r(0)));
        assert!(!b.try_claim(0, r(5)));
        assert!(!b.rearms_on_new_round());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bit_gatekeeper_bounds_checked() {
        let b = BitGatekeeperArray::new(10);
        b.try_claim(10, r(0));
    }

    #[test]
    fn bit_gatekeeper_empty() {
        let b = BitGatekeeperArray::new(0);
        assert!(b.is_empty());
        b.reset_all();
    }
}
