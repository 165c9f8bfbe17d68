//! A packed atomic bitmap: a reusable dense set ([`AtomicBitmap`]), one bit
//! per element, claimed a word at a time.
//!
//! It is what a direction-optimizing BFS wants for its *dense frontier*:
//! one membership bit per vertex, iterated a word at a time. Its bottom-up
//! pull does not insert bit by bit. Each word of the next frontier has one
//! owning worker, so its bits are exclusive writes: the owner collects them
//! in a register and publishes the word with one plain
//! [`AtomicBitmap::store_word`] — the paper's point that only *concurrent*
//! writes need arbitration. The test-and-set [`AtomicBitmap::insert`] is
//! for writers that do collide (a frontier queue scattered into the
//! bitmap).

use crate::sync::{AtomicU64, Ordering};

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn members(s: &AtomicBitmap) -> Vec<usize> {
        (0..s.len()).filter(|&i| s.contains(i)).collect()
    }

    #[test]
    fn atomic_bitmap_insert_contains() {
        let s = AtomicBitmap::new(130);
        assert!(!s.contains(65));
        assert!(s.insert(65));
        assert!(!s.insert(65)); // already present
        assert_eq!(members(&s), [65]);
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
        for w in 0..s.num_words() {
            s.for_each_set_in_word(w, |i| seen.push(i));
        }
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
        assert_eq!(members(&s), (64..128).collect::<Vec<_>>());
        s.store_word(0, 1 << 63 | 1);
        assert!(s.contains(0) && s.contains(63) && !s.contains(1));
        assert_eq!(members(&s).len(), 66);
        s.store_word(0, 0);
        s.store_word(1, 0);
        assert!(members(&s).is_empty());
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
        assert_eq!(members(&s).len(), 64);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn atomic_bitmap_bounds_checked() {
        let s = AtomicBitmap::new(10);
        s.insert(10);
    }
}
