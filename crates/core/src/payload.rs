//! Multi-word concurrent-write targets: claim-then-publish cells.
//!
//! The paper's stated goal includes supporting "concurrent write for modern
//! language data structures such as structure and class copies" — logical
//! writes spanning several machine words. Arbitration makes such writes safe
//! by construction: the unique winner of a round performs the whole
//! multi-word store while every loser skips it, so no mixture of two
//! competitors' payloads can ever be committed (the hazard that rules out
//! the naive method for arbitrary CW; `tests/torn_writes.rs` in the
//! workspace root demonstrates the mixture with naive writes and its absence
//! here).
//!
//! [`ConCell`] couples one [`CasLtCell`] with an [`UnsafeCell`]-wrapped
//! payload; [`ConVec`] is its per-element array form. No `pram_algos`
//! kernel uses them (the BFS three-word commit keeps its words in separate
//! atomic arrays). Their users are the workspace's `tests/torn_writes.rs`
//! and `tests/prop_payload.rs`, `examples/custom_kernel.rs`, and
//! `pram-check`'s payload non-tearing model.
//!
//! # Safety model
//!
//! The write and read methods are `unsafe`: their soundness rests on the
//! **round discipline**, which the types cannot verify —
//!
//! 1. A happens-before edge (barrier) separates any two rounds in which the
//!    same cell is claimed. This is the paper's required "synchronization
//!    point" between a concurrent write and dependent operations; it also
//!    prevents the winners of *different* rounds from holding `&mut` to the
//!    same payload simultaneously.
//! 2. Reads of the payload happen either before a round's claims begin or
//!    after the barrier that closes the round — never concurrently with the
//!    winner's store.
//!
//! Programs built on `pram_exec`'s lock-step driver satisfy both rules
//! automatically (every round is barrier-bounded), which is how
//! `examples/custom_kernel.rs` discharges the `unsafe` contract.

use std::cell::UnsafeCell;

use crate::caslt::{CasLtArray, CasLtCell};
use crate::round::Round;
use crate::traits::SliceArbiter;

/// A multi-word concurrent-write target: CAS-LT claim word + payload.
///
/// ```
/// use pram_core::{ConCell, Round};
///
/// #[derive(Clone, Copy, PartialEq, Debug)]
/// struct Edge { src: u32, dst: u32 }
///
/// let cell = ConCell::new(Edge { src: 0, dst: 0 });
/// let round = Round::FIRST;
/// // SAFETY: single-threaded here, so the round discipline trivially holds.
/// let won = unsafe { cell.write_with(round, |e| *e = Edge { src: 3, dst: 7 }) };
/// assert!(won);
/// let lost = unsafe { cell.write_with(round, |e| *e = Edge { src: 9, dst: 9 }) };
/// assert!(!lost);
/// assert_eq!(unsafe { *cell.read() }, Edge { src: 3, dst: 7 });
/// ```
#[derive(Debug)]
pub struct ConCell<T> {
    claim: CasLtCell,
    value: UnsafeCell<T>,
}

// SAFETY: concurrent mutable access is mediated by the claim word under the
// round discipline documented at module level; the payload itself crosses
// threads, hence `T: Send`. `T: Sync` is additionally required because
// `read` hands out `&T` observable from multiple threads.
unsafe impl<T: Send + Sync> Sync for ConCell<T> {}

impl<T> ConCell<T> {
    /// A never-claimed cell holding `value`.
    pub fn new(value: T) -> ConCell<T> {
        ConCell {
            claim: CasLtCell::new(),
            value: UnsafeCell::new(value),
        }
    }

    /// Claim the cell for `round` and, on success, run `f` with exclusive
    /// access to the payload. Returns whether the caller won.
    ///
    /// # Safety
    /// The caller must uphold the module-level round discipline: a
    /// happens-before edge between rounds claiming this cell, and no
    /// concurrent [`ConCell::read`] while a round is open.
    #[inline]
    pub unsafe fn write_with(&self, round: Round, f: impl FnOnce(&mut T)) -> bool {
        if self.claim.try_claim(round) {
            // Under the checker, mark the payload as a write region so
            // overlapping winners (a broken arbiter) surface as a
            // torn-write violation instead of silent UB.
            #[cfg(pram_check)]
            let _region = crate::sync::RegionGuard::enter(self.value.get() as usize, true);
            // SAFETY: we are the unique winner for this round, and the
            // caller guarantees no other round's winner or reader overlaps.
            f(unsafe { &mut *self.value.get() });
            true
        } else {
            false
        }
    }

    /// Read the payload.
    ///
    /// # Safety
    /// No concurrent-write round may be open for this cell (reads must be
    /// separated from claims by the round-closing barrier).
    #[inline]
    pub unsafe fn read(&self) -> &T {
        #[cfg(pram_check)]
        let _region = crate::sync::RegionGuard::enter(self.value.get() as usize, false);
        // SAFETY: caller guarantees no winner currently holds `&mut`.
        unsafe { &*self.value.get() }
    }

    /// Exclusive access to the payload — safe, for inspection between
    /// parallel phases.
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Consume the cell, yielding the payload.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

/// An array of multi-word concurrent-write targets.
///
/// Storage is split — one packed [`CasLtArray`] of claim words plus one
/// payload slice — so the claim fast path scans a dense `u32` array (the
/// layout the paper's kernels use) instead of striding over interleaved
/// payloads.
#[derive(Debug)]
pub struct ConVec<T> {
    claims: CasLtArray,
    values: Box<[UnsafeCell<T>]>,
}

// SAFETY: as for `ConCell` — access mediated by per-index claim words under
// the round discipline.
unsafe impl<T: Send + Sync> Sync for ConVec<T> {}

impl<T> ConVec<T> {
    /// `len` never-claimed cells, payloads built by `init(index)`.
    pub fn new(len: usize, mut init: impl FnMut(usize) -> T) -> ConVec<T> {
        let values: Vec<UnsafeCell<T>> = (0..len).map(|i| UnsafeCell::new(init(i))).collect();
        ConVec {
            claims: CasLtArray::new(len),
            values: values.into_boxed_slice(),
        }
    }

    /// Number of targets.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if there are no targets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Claim target `index` for `round`; on success run `f` with exclusive
    /// access to its payload.
    ///
    /// # Safety
    /// Module-level round discipline, per index.
    #[inline]
    pub unsafe fn write_with(&self, index: usize, round: Round, f: impl FnOnce(&mut T)) -> bool {
        if self.claims.try_claim(index, round) {
            #[cfg(pram_check)]
            let _region = crate::sync::RegionGuard::enter(self.values[index].get() as usize, true);
            // SAFETY: unique winner for (index, round); discipline upheld
            // by caller.
            f(unsafe { &mut *self.values[index].get() });
            true
        } else {
            false
        }
    }

    /// Read target `index`'s payload.
    ///
    /// # Safety
    /// No open concurrent-write round for this index.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> &T {
        #[cfg(pram_check)]
        let _region = crate::sync::RegionGuard::enter(self.values[index].get() as usize, false);
        // SAFETY: caller guarantees no winner holds `&mut` for this index.
        unsafe { &*self.values[index].get() }
    }

    /// Exclusive access to payload `index` — safe, between phases.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> &mut T {
        self.values[index].get_mut()
    }

    /// Consume, yielding the payloads.
    pub fn into_vec(self) -> Vec<T> {
        let values: Box<[UnsafeCell<T>]> = self.values;
        // SAFETY: sole owner; UnsafeCell<T> is repr(transparent) over T.
        let raw = Box::into_raw(values) as *mut [T];
        unsafe { Box::from_raw(raw) }.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn r(i: u32) -> Round {
        Round::from_iteration(i)
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Wide {
        a: u64,
        b: u64,
        c: u64,
        tag: u64,
    }

    impl Wide {
        fn coherent(tag: u64) -> Wide {
            Wide {
                a: tag,
                b: tag.wrapping_mul(3),
                c: tag.wrapping_mul(7),
                tag,
            }
        }
        fn is_coherent(&self) -> bool {
            self.a == self.tag
                && self.b == self.tag.wrapping_mul(3)
                && self.c == self.tag.wrapping_mul(7)
        }
    }

    #[test]
    fn single_winner_gets_exclusive_payload_access() {
        let cell = ConCell::new(0u64);
        assert!(unsafe { cell.write_with(r(0), |v| *v = 42) });
        assert!(!unsafe { cell.write_with(r(0), |v| *v = 99) });
        assert_eq!(unsafe { *cell.read() }, 42);
    }

    #[test]
    fn multi_word_payload_is_never_torn() {
        // Many threads race to write distinct coherent structs in each
        // round; barriers between rounds uphold the discipline. The
        // committed struct must always be exactly one thread's payload.
        let threads = if cfg!(miri) { 4 } else { 8 };
        let rounds = if cfg!(miri) { 4u32 } else { 100u32 };
        let cell = ConCell::new(Wide::coherent(0));
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads as u64 {
                let cell = &cell;
                let barrier = &barrier;
                s.spawn(move || {
                    for i in 0..rounds {
                        barrier.wait(); // opens round i
                        let tag = u64::from(i) * 1000 + t;
                        // SAFETY: barriers separate rounds; no reads inside.
                        unsafe {
                            cell.write_with(r(i), |w| *w = Wide::coherent(tag));
                        }
                        barrier.wait(); // closes round i
                                        // Post-barrier read: must be coherent and current.
                                        // SAFETY: round closed by the barrier above.
                        let seen = unsafe { *cell.read() };
                        assert!(seen.is_coherent(), "torn write observed: {seen:?}");
                        assert_eq!(seen.tag / 1000, u64::from(i));
                    }
                });
            }
        });
    }

    #[test]
    fn convec_independent_indices() {
        let v = ConVec::new(4, |i| i as u64);
        assert!(unsafe { v.write_with(2, r(0), |x| *x = 100) });
        assert!(!unsafe { v.write_with(2, r(0), |x| *x = 200) });
        assert!(unsafe { v.write_with(3, r(0), |x| *x = 300) });
        assert_eq!(unsafe { *v.read(0) }, 0);
        assert_eq!(unsafe { *v.read(2) }, 100);
        assert_eq!(unsafe { *v.read(3) }, 300);
    }

    #[test]
    fn convec_round_rearm() {
        let mut v = ConVec::new(2, |_| 0u32);
        assert!(unsafe { v.write_with(0, r(0), |x| *x = 1) });
        assert!(!unsafe { v.write_with(0, r(0), |x| *x = 9) });
        assert!(unsafe { v.write_with(0, r(1), |x| *x = 2) });
        assert_eq!(*v.get_mut(0), 2);
        assert_eq!(v.into_vec(), vec![2, 0]);
    }

    #[test]
    fn convec_into_vec_roundtrip() {
        let v = ConVec::new(3, |i| i as u8 + 1);
        assert!(unsafe { v.write_with(1, r(0), |x| *x = 9) });
        assert_eq!(v.into_vec(), vec![1, 9, 3]);
    }

    #[test]
    fn concell_into_inner_and_get_mut() {
        let mut c = ConCell::new(String::from("a"));
        c.get_mut().push('b');
        assert_eq!(c.into_inner(), "ab");
    }

    #[test]
    fn convec_empty() {
        let v: ConVec<u32> = ConVec::new(0, |_| 0);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }
}
