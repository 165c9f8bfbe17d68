//! Shared frontier/worklist buffers for sparse, frontier-centric kernels.
//!
//! Level-synchronous kernels that scan *all* n vertices per round waste
//! work once the active set is small. The frontier-centric alternative
//! keeps the active set explicit: during a round every worker appends
//! discoveries to a thread-local [`LocalBuffer`], which publishes into the
//! shared [`FrontierBuffer`] by reserving a region with one `fetch_add`
//! and copying — the classic grow-local, publish-with-one-RMW queue. After
//! the round's barrier the buffer is a plain read-only array for the next
//! round.
//!
//! Entries are `u64` (vertex ids, edge ids — anything that fits a word)
//! stored in `AtomicU64` slots with `Relaxed` operations, so concurrent
//! publication is race-free by construction and the barrier supplies the
//! happens-before edge for readers, the same discipline every
//! concurrent-write target in this workspace follows.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// A shared append-only array of `u64` entries with a fixed capacity.
///
/// Writers publish disjoint regions reserved by a single `fetch_add` on
/// the length; readers consume the whole array after a synchronization
/// point. [`FrontierBuffer::clear`] recycles the buffer for the next round
/// and must also be separated from readers/writers by a barrier.
#[derive(Debug)]
pub struct FrontierBuffer {
    slots: Box<[AtomicU64]>,
    len: CachePadded<AtomicUsize>,
}

impl FrontierBuffer {
    /// An empty buffer able to hold `capacity` entries.
    ///
    /// The slots come from [`zeroed_atomics`]: a large buffer costs no
    /// O(capacity) fill, and only the pages its entries actually reach are
    /// ever touched.
    pub fn with_capacity(capacity: usize) -> FrontierBuffer {
        FrontierBuffer {
            slots: zeroed_atomics(capacity),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Maximum number of entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Published entry count (authoritative after a synchronization
    /// point; advisory while publishers are active).
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed).min(self.capacity())
    }

    /// `true` if no entries are published.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries. Call only while no reader or publisher is active
    /// (e.g. from one member between two rendezvous).
    #[inline]
    pub fn clear(&self) {
        self.len.store(0, Ordering::Relaxed);
    }

    /// Publish `items` as one contiguous region; returns the region's
    /// starting index.
    ///
    /// # Panics
    /// Panics if the reservation would exceed the capacity.
    pub fn publish(&self, items: &[u64]) -> usize {
        if items.is_empty() {
            return self.len.load(Ordering::Relaxed);
        }
        let start = self.len.fetch_add(items.len(), Ordering::Relaxed);
        assert!(
            start + items.len() <= self.slots.len(),
            "frontier overflow: {} + {} > capacity {}",
            start,
            items.len(),
            self.slots.len()
        );
        for (i, &x) in items.iter().enumerate() {
            self.slots[start + i].store(x, Ordering::Relaxed);
        }
        start
    }

    /// The entry at `index` (`index < len()`).
    #[inline]
    pub fn get(&self, index: usize) -> u64 {
        self.slots[index].load(Ordering::Relaxed)
    }

    /// Iterate the published entries (call after a synchronization point).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Copy the published entries out (diagnostics/tests).
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

/// The atomic integer types [`zeroed_atomics`] accepts: each has the size,
/// alignment and bit validity of its plain integer, so all-zero bytes are
/// its `new(0)`. Sealed, and implemented only for `AtomicU32`, `AtomicU64`
/// and `AtomicUsize`.
pub trait ZeroableAtomic: sealed::Sealed {}

mod sealed {
    pub trait Sealed {}
}

macro_rules! zeroable_atomic {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl ZeroableAtomic for $t {}
    )*};
}

zeroable_atomic!(AtomicU32, AtomicU64, AtomicUsize);

/// `len` atomics holding 0, allocated zeroed rather than filled.
///
/// A large array is lazily zeroed pages: the call costs no O(len) fill,
/// and a page is first touched by whichever thread first writes it, so a
/// team that writes its own blocks also takes its own page faults.
pub fn zeroed_atomics<A: ZeroableAtomic>(len: usize) -> Box<[A]> {
    if len == 0 {
        return Box::new([]);
    }
    let layout = Layout::array::<A>(len).expect("zeroed array size overflows");
    // SAFETY: `A` is `AtomicU32`, `AtomicU64` or `AtomicUsize`, the only
    // types the sealed `ZeroableAtomic` admits. Each has the size, alignment
    // and bit validity of its integer and is not zero-sized, so `layout`
    // has nonzero size and `len` zeroed elements are `len` initialized
    // `A::new(0)`s. The allocation comes from the global allocator with
    // the layout of `[A; len]`, which is the layout the returned box frees
    // it with.
    unsafe {
        let ptr = alloc_zeroed(layout).cast::<A>();
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len))
    }
}

/// Flush threshold of [`LocalBuffer`]: large enough to amortize the
/// `fetch_add`, small enough to stay in L1.
pub const LOCAL_BUFFER_FLUSH: usize = 1024;

/// A worker-private staging buffer feeding a [`FrontierBuffer`].
///
/// `push` is a plain `Vec` append; when the buffer holds
/// [`LOCAL_BUFFER_FLUSH`] entries it publishes them to the shared buffer
/// in one reservation. The worker **must** call [`LocalBuffer::flush`]
/// before the round's closing barrier — unflushed entries are invisible to
/// other workers.
#[derive(Debug)]
pub struct LocalBuffer {
    buf: Vec<u64>,
}

impl LocalBuffer {
    /// An empty buffer.
    pub fn new() -> LocalBuffer {
        LocalBuffer {
            buf: Vec::with_capacity(LOCAL_BUFFER_FLUSH),
        }
    }

    /// Stage `value`, publishing to `target` if the threshold is reached.
    #[inline]
    pub fn push(&mut self, value: u64, target: &FrontierBuffer) {
        self.buf.push(value);
        if self.buf.len() >= LOCAL_BUFFER_FLUSH {
            self.flush(target);
        }
    }

    /// Publish everything staged to `target`.
    pub fn flush(&mut self, target: &FrontierBuffer) {
        if !self.buf.is_empty() {
            target.publish(&self.buf);
            self.buf.clear();
        }
    }
}

impl Default for LocalBuffer {
    fn default() -> LocalBuffer {
        LocalBuffer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reserves_disjoint_regions() {
        let fb = FrontierBuffer::with_capacity(100);
        let a = fb.publish(&[1, 2, 3]);
        let b = fb.publish(&[4, 5]);
        assert_ne!(a, b);
        assert_eq!(fb.len(), 5);
        let mut all = fb.to_vec();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5]);
        fb.clear();
        assert!(fb.is_empty());
    }

    #[test]
    fn concurrent_publication_loses_nothing() {
        // Each thread's threshold flushes interleave with the others'.
        // Miri interprets every access; a shorter run that publishes only
        // at the final flushes covers the same races.
        let per: u64 = if cfg!(miri) {
            40
        } else {
            5 * LOCAL_BUFFER_FLUSH as u64 / 2
        };
        let fb = FrontierBuffer::with_capacity(8 * per as usize);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let fb = &fb;
                s.spawn(move || {
                    let mut local = LocalBuffer::new();
                    for i in 0..per {
                        local.push(t * per + i, fb);
                    }
                    local.flush(fb);
                });
            }
        });
        let mut all = fb.to_vec();
        assert_eq!(all.len(), 8 * per as usize);
        all.sort_unstable();
        for (i, &x) in all.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn zero_capacity_buffer_works() {
        let fb = FrontierBuffer::with_capacity(0);
        assert_eq!(fb.capacity(), 0);
        assert!(fb.is_empty());
        assert_eq!(fb.publish(&[]), 0);
        assert_eq!(fb.to_vec(), Vec::<u64>::new());
        fb.clear();
        assert_eq!(fb.len(), 0);
    }

    #[test]
    fn fresh_buffer_is_empty_and_zeroed() {
        let fb = FrontierBuffer::with_capacity(1000);
        assert_eq!(fb.len(), 0);
        assert_eq!(fb.capacity(), 1000);
        assert!((0..1000).all(|i| fb.get(i) == 0));
    }

    #[test]
    fn publish_into_last_slot_reads_back() {
        let fb = FrontierBuffer::with_capacity(5);
        fb.publish(&[1, 2, 3, 4]);
        assert_eq!(fb.publish(&[u64::MAX]), 4);
        assert_eq!(fb.len(), 5);
        assert_eq!(fb.get(4), u64::MAX);
        assert_eq!(fb.to_vec(), vec![1, 2, 3, 4, u64::MAX]);
    }

    #[test]
    fn empty_publish_is_a_noop() {
        let fb = FrontierBuffer::with_capacity(4);
        fb.publish(&[]);
        assert_eq!(fb.len(), 0);
    }

    #[test]
    #[should_panic(expected = "frontier overflow")]
    fn overflow_is_detected() {
        let fb = FrontierBuffer::with_capacity(2);
        fb.publish(&[1, 2, 3]);
    }

    #[test]
    fn zeroed_atomics_are_zero_for_empty_and_multi_page_lengths() {
        assert!(zeroed_atomics::<AtomicU64>(0).is_empty());
        assert!(zeroed_atomics::<AtomicU32>(0).is_empty());
        // More than one 4 KiB page of each width.
        let n = 3 * 4096 + 5;
        let a: Box<[AtomicU64]> = zeroed_atomics(n);
        let b: Box<[AtomicU32]> = zeroed_atomics(n);
        let c: Box<[AtomicUsize]> = zeroed_atomics(n);
        assert_eq!((a.len(), b.len(), c.len()), (n, n, n));
        assert!(a.iter().all(|x| x.load(Ordering::Relaxed) == 0));
        assert!(b.iter().all(|x| x.load(Ordering::Relaxed) == 0));
        assert!(c.iter().all(|x| x.load(Ordering::Relaxed) == 0));
        c[n - 1].store(usize::MAX, Ordering::Relaxed);
        assert_eq!(c[n - 1].load(Ordering::Relaxed), usize::MAX);
    }

    #[test]
    fn local_buffer_flushes_at_threshold() {
        let fb = FrontierBuffer::with_capacity(2 * LOCAL_BUFFER_FLUSH);
        let mut local = LocalBuffer::new();
        for v in 1..LOCAL_BUFFER_FLUSH as u64 {
            local.push(v, &fb);
        }
        assert_eq!(fb.len(), 0);
        local.push(0, &fb); // hits threshold
        assert_eq!(fb.len(), LOCAL_BUFFER_FLUSH);
        local.push(7, &fb);
        local.flush(&fb);
        assert_eq!(fb.len(), LOCAL_BUFFER_FLUSH + 1);
        local.flush(&fb); // the flush drained the staging buffer
        assert_eq!(fb.len(), LOCAL_BUFFER_FLUSH + 1);
    }
}
