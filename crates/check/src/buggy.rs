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
//! * [`EarlyReleaseBarrier`] is a dissemination barrier built exactly like
//!   [`pram_exec::DisseminationBarrier`] but running **one signal round
//!   too few** — each thread synchronizes only with a neighborhood of the
//!   team instead of all of it, so schedules exist where a thread passes
//!   the "barrier" before a straggler has arrived. Sequentially (and for a
//!   single participant) it is indistinguishable from the real thing.
//! * [`DroppingStealer`] is a work-stealing queue set whose steal takes
//!   the victim's back half but **forgets to re-queue** everything beyond
//!   the range it returns — a thief that steals more than one chunk loses
//!   work. Schedules where every steal moves a single chunk (including
//!   all single-threaded ones) behave perfectly.
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

use std::collections::VecDeque;
use std::ops::Range;

use pram_core::sync::{self as psync, AtomicU32, Ordering};
use pram_core::{Round, SliceArbiter};

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
    fn reset_all(&self) {
        for c in self.cells.iter() {
            c.last_round_updated.store(0, Ordering::Relaxed);
        }
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
    fn reset_all(&self) {
        self.count.store(0, Ordering::Relaxed);
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

/// A dissemination barrier with one signal round too few (see module
/// docs). Mirrors `pram_exec::DisseminationBarrier`'s episode-stamp
/// protocol — monotone flags, `>=` waits, member-0 broadcast for
/// `wait_with` — so the *only* difference the checker can find is the
/// missing round.
#[derive(Debug)]
pub struct EarlyReleaseBarrier {
    /// `flags[tid][r]`: episode stamp from `tid`'s round-`r` partner.
    flags: Box<[Box<[psync::AtomicU64]>]>,
    /// Per-thread episode counter (thread-private, hence plain std).
    episode: Box<[std::sync::atomic::AtomicU64]>,
    /// Broadcast slot for `wait_with`.
    release: psync::AtomicU64,
    total: usize,
    rounds: u32,
}

impl EarlyReleaseBarrier {
    /// A broken barrier for `total` participants.
    pub fn new(total: usize) -> EarlyReleaseBarrier {
        assert!(total >= 1);
        let full = if total > 1 {
            usize::BITS - (total - 1).leading_zeros()
        } else {
            0
        };
        // BUG (intentional): one dissemination round short. Each thread
        // now waits on a strict subset of the team's arrivals.
        let rounds = full.saturating_sub(1);
        let mk = || {
            let mut v = Vec::with_capacity(rounds as usize);
            v.resize_with(rounds as usize, || psync::AtomicU64::new(0));
            v.into_boxed_slice()
        };
        let mut flags = Vec::with_capacity(total);
        flags.resize_with(total, mk);
        let mut episode = Vec::with_capacity(total);
        episode.resize_with(total, || std::sync::atomic::AtomicU64::new(0));
        EarlyReleaseBarrier {
            flags: flags.into_boxed_slice(),
            episode: episode.into_boxed_slice(),
            release: psync::AtomicU64::new(0),
            total,
            rounds,
        }
    }

    fn spin_until(&self, flag: &psync::AtomicU64, episode: u64) {
        let addr = flag as *const psync::AtomicU64 as usize;
        while flag.load(Ordering::Acquire) < episode {
            psync::park_hint(addr);
        }
    }

    fn rendezvous(&self, tid: usize) -> u64 {
        let e = self.episode[tid].load(Ordering::Relaxed) + 1;
        self.episode[tid].store(e, Ordering::Relaxed);
        for r in 0..self.rounds {
            let partner = (tid + (1usize << r)) % self.total;
            let flag = &self.flags[partner][r as usize];
            flag.store(e, Ordering::Release);
            psync::unpark_hint(flag as *const psync::AtomicU64 as usize);
            self.spin_until(&self.flags[tid][r as usize], e);
        }
        e
    }

    /// Broken rendezvous; `true` on member 0 (the same election contract
    /// as the real barrier).
    pub fn wait(&self, tid: usize) -> bool {
        self.rendezvous(tid);
        tid == 0
    }

    /// Broken rendezvous with member-0 closure + broadcast.
    pub fn wait_with(&self, tid: usize, f: impl FnOnce()) -> bool {
        let e = self.rendezvous(tid);
        if tid == 0 {
            f();
            self.release.store(e, Ordering::Release);
            psync::unpark_hint(&self.release as *const psync::AtomicU64 as usize);
            true
        } else {
            self.spin_until(&self.release, e);
            false
        }
    }
}

/// Work-stealing chunk deques whose steal drops everything beyond the
/// first stolen range (see module docs). Seeded explicitly rather than by
/// static partitioning so models can force an asymmetric start (one rich
/// victim, one empty thief) that makes multi-chunk steals reachable in a
/// small exhaustive tree.
#[derive(Debug)]
pub struct DroppingStealer {
    deques: Box<[psync::Mutex<VecDeque<Range<usize>>>]>,
}

impl DroppingStealer {
    /// Empty deques for `workers` threads.
    pub fn new(workers: usize) -> DroppingStealer {
        assert!(workers >= 1);
        let mut v = Vec::with_capacity(workers);
        v.resize_with(workers, || psync::Mutex::new(VecDeque::new()));
        DroppingStealer {
            deques: v.into_boxed_slice(),
        }
    }

    /// Seed worker `tid` with ranges (call before exploration starts).
    pub fn seed(&self, tid: usize, ranges: impl IntoIterator<Item = Range<usize>>) {
        self.deques[tid].lock().extend(ranges);
    }

    /// Next range for `tid`: own front, else steal the first non-empty
    /// victim's back half — **returning only one range and dropping the
    /// rest of the stolen batch** (the seeded bug).
    pub fn next(&self, tid: usize) -> Option<Range<usize>> {
        if let Some(r) = self.deques[tid].lock().pop_front() {
            return Some(r);
        }
        let n = self.deques.len();
        for k in 1..n {
            let victim = (tid + k) % n;
            let mut dq = self.deques[victim].lock();
            let len = dq.len();
            if len == 0 {
                continue;
            }
            let mut batch = dq.split_off(len - len.div_ceil(2));
            drop(dq);
            // BUG (intentional): a correct stealer re-queues the rest of
            // the batch on its own deque; this one lets it fall on the
            // floor.
            return batch.pop_front();
        }
        None
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
                pram_core::Arbiter::try_claim(&real, r),
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
    fn early_release_barrier_skips_synchronization_sequentially() {
        // The bug is visible even single-threaded: with the truncated
        // round count, a two-thread barrier performs zero signal rounds,
        // so one participant sails through with nobody else arrived.
        let b = EarlyReleaseBarrier::new(2);
        assert!(b.wait(0)); // returns without thread 1 ever arriving
        assert!(b.wait_with(0, || {}));
        // Single participant is degenerate for real and buggy alike.
        let solo = EarlyReleaseBarrier::new(1);
        assert!(solo.wait(0));
    }

    #[test]
    fn dropping_stealer_loses_work_on_multi_chunk_steals() {
        let q = DroppingStealer::new(2);
        q.seed(0, (0..4).map(|i| i..i + 1));
        // Thief takes the back half (two ranges) but returns only one.
        let got = q.next(1).expect("victim non-empty");
        assert_eq!(got, 2..3);
        // 3..4 is gone: neither deque holds it.
        let mut rest = vec![];
        while let Some(r) = q.next(0) {
            rest.push(r);
        }
        while let Some(r) = q.next(1) {
            rest.push(r);
        }
        assert_eq!(rest, vec![0..1, 1..2], "dropped range resurfaced");
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
