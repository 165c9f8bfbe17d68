//! Packed atomic bitmaps: a reusable dense set ([`AtomicBitmap`]) and the
//! memory-compact bitmap gatekeeper built on it ([`BitGatekeeperArray`]).
//!
//! The gatekeeper method spends one 32-bit counter per target even though
//! it only ever distinguishes zero from nonzero. Packing targets into a
//! bitmap (one bit each, claimed via `fetch_or`) cuts the auxiliary memory
//! 32× and makes the reset pass proportionally cheaper — but now **64
//! unrelated targets share one atomic word**, so claims to *different*
//! targets contend on the same cache line and the same RMW destination.
//! The `ablate_bitmap` bench quantifies the trade; the paper's CAS-LT
//! sidesteps it entirely (per-target words, atomics skipped after the
//! winner).
//!
//! The same packed representation is what a direction-optimizing BFS wants
//! for its *dense frontier*: one membership bit per vertex, iterated a word
//! at a time. Its bottom-up pull does not insert bit by bit. Each word of
//! the next frontier has one owning worker, so its bits are exclusive
//! writes: the owner collects them in a register and publishes the word
//! with one plain [`AtomicBitmap::store_word`] — the paper's point that
//! only *concurrent* writes need arbitration. The test-and-set
//! [`AtomicBitmap::insert`] is for writers that do collide (the gatekeeper
//! below, a frontier queue scattered into the bitmap). So the word
//! machinery lives in [`AtomicBitmap`] and the gatekeeper is a thin
//! arbitration wrapper over it.

use crate::sync::{AtomicU64, Ordering};
use std::ops::Range;

use crate::round::Round;
use crate::traits::SliceArbiter;

/// A fixed-size set of `usize` indices packed one bit per element into
/// `AtomicU64` words.
///
/// All operations are `&self` and thread-safe. Mutating operations use
/// `Relaxed` ordering except [`AtomicBitmap::insert`] (an `AcqRel`
/// test-and-set, so it can arbitrate); callers that read the set after a
/// parallel build phase must separate the phases with a synchronization
/// point (a barrier), exactly like every other concurrent-write target in
/// this workspace.
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl AtomicBitmap {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> AtomicBitmap {
        let n_words = len.div_ceil(64);
        let mut v = Vec::with_capacity(n_words);
        v.resize_with(n_words, || AtomicU64::new(0));
        AtomicBitmap {
            words: v.into_boxed_slice(),
            len,
        }
    }

    /// Universe size (maximum element + 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of backing 64-bit words (for word-parallel loops).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Test-and-set `index`: returns `true` iff this call inserted it
    /// (the bit was previously clear).
    #[inline]
    pub fn insert(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        let bit = 1u64 << (index % 64);
        let prev = self.words[index / 64].fetch_or(bit, Ordering::AcqRel);
        prev & bit == 0
    }

    /// Clear `index`.
    #[inline]
    pub fn remove(&self, index: usize) {
        assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        let bit = 1u64 << (index % 64);
        self.words[index / 64].fetch_and(!bit, Ordering::Relaxed);
    }

    /// Membership test (`Relaxed`; authoritative only across a
    /// synchronization point from the inserts).
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        debug_assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        let bit = 1u64 << (index % 64);
        self.words[index / 64].load(Ordering::Relaxed) & bit != 0
    }

    /// The raw bits of word `w` (elements `64 * w ..`).
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w].load(Ordering::Relaxed)
    }

    /// Overwrite word `w` (elements `64 * w .. 64 * (w + 1)`) with `bits`
    /// in one plain store — how the word's exclusive owner publishes it,
    /// and, with `bits == 0`, a word-parallel clear. Bits at or past
    /// [`AtomicBitmap::len`] must be clear.
    #[inline]
    pub fn store_word(&self, w: usize, bits: u64) {
        debug_assert!(
            bits == 0 || 64 * w + (63 - bits.leading_zeros() as usize) < self.len,
            "word {w} sets bits past len {}",
            self.len
        );
        self.words[w].store(bits, Ordering::Relaxed);
    }

    /// Clear the whole set (single-threaded; for the parallel variant,
    /// partition `0..num_words()` and call [`AtomicBitmap::store_word`]
    /// with `0`).
    pub fn clear(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Call `f` for every set index in word `w`, ascending — the
    /// word-granular iteration a parallel sweep partitions over.
    #[inline]
    pub fn for_each_set_in_word(&self, w: usize, mut f: impl FnMut(usize)) {
        let mut bits = self.words[w].load(Ordering::Relaxed);
        let base = w * 64;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            f(base + b);
            bits &= bits - 1;
        }
    }

    /// Call `f` for every set index, ascending (serial full scan).
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for w in 0..self.words.len() {
            self.for_each_set_in_word(w, &mut f);
        }
    }
}

/// One-bit-per-target gatekeeper over a packed [`AtomicBitmap`].
///
/// Round-free like [`crate::GatekeeperArray`]: requires a reset pass
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

    /// Number of targets.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` if there are no targets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Claim target `index`: set its bit; win iff it was clear.
    #[inline]
    pub fn try_claim_once(&self, index: usize) -> bool {
        self.bits.insert(index)
    }

    /// Auxiliary memory in bytes (for the ablation's space accounting).
    pub fn aux_bytes(&self) -> usize {
        self.bits.num_words() * 8
    }
}

impl SliceArbiter for BitGatekeeperArray {
    fn len(&self) -> usize {
        self.bits.len()
    }
    #[inline]
    fn try_claim(&self, index: usize, _round: Round) -> bool {
        self.try_claim_once(index)
    }
    fn reset_all(&self) {
        self.bits.clear();
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

    #[test]
    fn first_claim_wins_rest_lose() {
        let b = BitGatekeeperArray::new(100);
        assert!(b.try_claim_once(63));
        assert!(!b.try_claim_once(63));
        assert!(b.try_claim_once(64)); // next word, independent
        assert!(b.try_claim_once(0));
        assert_eq!(b.len(), 100);
        assert_eq!(b.aux_bytes(), 16);
    }

    #[test]
    fn reset_all_and_ranges() {
        let b = BitGatekeeperArray::new(130);
        for i in 0..130 {
            assert!(b.try_claim_once(i));
        }
        b.reset_range(60..70); // straddles a word boundary
        for i in 0..130 {
            assert_eq!(b.try_claim_once(i), (60..70).contains(&i), "bit {i}");
        }
        b.reset_all();
        for i in 0..130 {
            assert!(b.try_claim_once(i));
        }
    }

    #[test]
    fn concurrent_range_resets_on_disjoint_ranges_are_exact() {
        let b = BitGatekeeperArray::new(128);
        for i in 0..128 {
            b.try_claim_once(i);
        }
        std::thread::scope(|s| {
            let b = &b;
            s.spawn(move || b.reset_range(0..64));
            s.spawn(move || b.reset_range(64..128));
        });
        for i in 0..128 {
            assert!(b.try_claim_once(i), "bit {i} not re-armed");
        }
    }

    #[test]
    fn exactly_one_winner_under_contention() {
        let b = BitGatekeeperArray::new(64);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..64 {
                        if b.try_claim_once(i) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn slice_arbiter_round_is_ignored() {
        let b = BitGatekeeperArray::new(1);
        assert!(SliceArbiter::try_claim(&b, 0, Round::FIRST));
        assert!(!SliceArbiter::try_claim(&b, 0, Round::from_iteration(5)));
        assert!(!b.rearms_on_new_round());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let b = BitGatekeeperArray::new(10);
        b.try_claim_once(10);
    }

    #[test]
    fn empty_bitmap() {
        let b = BitGatekeeperArray::new(0);
        assert!(b.is_empty());
        assert_eq!(b.aux_bytes(), 0);
        b.reset_all();
    }

    #[test]
    fn atomic_bitmap_insert_contains_remove() {
        let s = AtomicBitmap::new(130);
        assert!(!s.contains(65));
        assert!(s.insert(65));
        assert!(!s.insert(65)); // already present
        assert!(s.contains(65));
        assert_eq!(s.count_ones(), 1);
        s.remove(65);
        assert!(!s.contains(65));
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.num_words(), 3);
        assert_eq!(s.len(), 130);
    }

    #[test]
    fn atomic_bitmap_word_iteration_is_ascending_and_complete() {
        let s = AtomicBitmap::new(200);
        let members = [0usize, 1, 63, 64, 100, 127, 128, 199];
        for &i in &members {
            s.insert(i);
        }
        let mut seen = Vec::new();
        s.for_each_set(|i| seen.push(i));
        assert_eq!(seen, members);

        let mut word2 = Vec::new();
        s.for_each_set_in_word(2, |i| word2.push(i));
        assert_eq!(word2, vec![128]); // word 2 spans bits 128..192
        let mut word3 = Vec::new();
        s.for_each_set_in_word(3, |i| word3.push(i));
        assert_eq!(word3, vec![199]);
    }

    #[test]
    fn atomic_bitmap_clear_variants() {
        let s = AtomicBitmap::new(128);
        for i in 0..128 {
            s.insert(i);
        }
        s.store_word(0, 0);
        assert_eq!(s.count_ones(), 64);
        s.store_word(0, 1 << 63 | 1);
        assert!(s.contains(0) && s.contains(63) && !s.contains(1));
        assert_eq!(s.count_ones(), 66);
        s.clear();
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn atomic_bitmap_insert_arbitrates_under_contention() {
        let s = AtomicBitmap::new(64);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|h| {
            for _ in 0..8 {
                h.spawn(|| {
                    for i in 0..64 {
                        if s.insert(i) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 64);
        assert_eq!(s.count_ones(), 64);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn atomic_bitmap_bounds_checked() {
        let s = AtomicBitmap::new(10);
        s.insert(10);
    }
}
