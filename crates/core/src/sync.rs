//! The synchronization facade: one import point for every atomic the
//! arbitration substrate touches.
//!
//! All of `pram-core`'s concurrent-write state — CAS-LT words, gatekeeper
//! counters, bitmap words, the lock arbiter's mutex — goes through this
//! module instead of naming `std::sync::atomic` / `parking_lot` directly.
//! In a normal build the module is a zero-cost re-export:
//! `crate::sync::AtomicU32` *is* `std::sync::atomic::AtomicU32`, and
//! `crate::sync::Mutex` *is* `parking_lot::Mutex`.
//!
//! Under `RUSTFLAGS="--cfg pram_check"` the re-exports are replaced by
//! instrumented shims (a loom-style substitution without the vendored
//! dependency): every atomic operation first reports a `CheckEvent` to a
//! thread-registered `CheckHook` before executing. The `pram-check` crate
//! installs a hook that parks the calling thread until a deterministic
//! scheduler grants it the next step, which turns every atomic operation
//! into an explorable scheduling point — the substrate's real code paths
//! (the fast-path load, the claim CAS, the gatekeeper RMW, the lock
//! acquire) run unmodified under exhaustive or seeded-random interleaving
//! exploration.
//!
//! Semantics under the shim: the checker serializes execution (exactly one
//! logical thread runs between scheduling points), so every explored
//! interleaving is **sequentially consistent**. That is the right model for
//! the single-winner arbitration argument, which never relies on weaker
//! orderings for correctness — ordering-level bugs (a missing
//! happens-before edge to a payload) are the Miri/ThreadSanitizer tiers'
//! job, not the checker's. Memory-`Ordering` arguments are accepted for API
//! parity and ignored.
//!
//! When no hook is registered (e.g. test-harness glue running on the main
//! thread between phases), shim operations fall through to the underlying
//! `std` atomics, so `--cfg pram_check` builds behave like normal builds
//! until a checker takes control of a thread.

#[cfg(not(pram_check))]
pub use parking_lot::{Mutex, MutexGuard};
#[cfg(not(pram_check))]
pub use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

#[cfg(pram_check)]
pub use shim::{
    emit, park_hint, set_check_hook, unpark_hint, AtomicU32, AtomicU64, CheckEvent, CheckHook,
    Mutex, MutexGuard, Ordering, RegionGuard,
};

/// Checker hint: the calling thread is spin-waiting on the word at `addr`
/// and cannot make progress until another thread calls
/// [`unpark_hint`]`(addr)`.
///
/// In normal builds this is a no-op — production spin loops implement
/// their own wait policy (spin / yield / timed park). Under
/// `--cfg pram_check` it reports a `Blocked(addr)` event, so the lockstep
/// scheduler parks the spinner instead of exploring an unbounded number of
/// failed re-reads; the matching `unpark_hint` on the writer side
/// re-enables it. Callers must re-check their predicate after returning
/// (wakeups may be spurious: any release of `addr` unparks all its
/// waiters).
#[cfg(not(pram_check))]
#[inline(always)]
pub fn park_hint(_addr: usize) {}

/// Checker hint: the word at `addr` was just advanced; wake any thread
/// parked by [`park_hint`]`(addr)`. No-op in normal builds.
#[cfg(not(pram_check))]
#[inline(always)]
pub fn unpark_hint(_addr: usize) {}

#[cfg(pram_check)]
mod shim {
    use std::cell::RefCell;
    use std::cell::UnsafeCell;
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    pub use std::sync::atomic::Ordering;

    /// What an instrumented operation is about to do, reported to the
    /// [`CheckHook`] *before* the operation executes.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum CheckEvent {
        /// An atomic load/store/RMW is about to execute: a scheduling
        /// point. The hook returns when the thread may take its step.
        Op,
        /// The thread failed to acquire the lock at `addr` and cannot make
        /// progress until it is released. The hook parks the thread until a
        /// matching [`CheckEvent::Released`] re-enables it (and the
        /// scheduler grants it a step).
        Blocked(usize),
        /// The lock at `addr` was just released (not a scheduling point —
        /// the releaser keeps running).
        Released(usize),
        /// The thread is entering a multi-word payload region (a
        /// scheduling point). The checker flags overlapping writers, or a
        /// reader overlapping a writer, as a torn-write hazard.
        RegionEnter {
            /// Address identifying the payload.
            region: usize,
            /// Whether the access mutates the payload.
            write: bool,
        },
        /// The thread is leaving a payload region (also a scheduling
        /// point, so other threads can be interleaved *inside* the
        /// region — that is what makes overlap observable).
        RegionExit {
            /// Address identifying the payload.
            region: usize,
            /// Whether the access mutated the payload.
            write: bool,
        },
    }

    /// A per-thread instrumentation sink, installed by the checker.
    pub trait CheckHook: Send + Sync {
        /// Handle one event; for scheduling-point events this blocks until
        /// the scheduler grants the calling thread its next step.
        fn event(&self, event: CheckEvent);
    }

    thread_local! {
        static HOOK: RefCell<Option<Arc<dyn CheckHook>>> = const { RefCell::new(None) };
    }

    /// Install (or clear) the calling thread's hook.
    pub fn set_check_hook(hook: Option<Arc<dyn CheckHook>>) {
        HOOK.with(|h| *h.borrow_mut() = hook);
    }

    /// Whether the calling thread currently has a hook installed.
    fn hook_installed() -> bool {
        HOOK.with(|h| h.borrow().is_some())
    }

    /// Instrumented spin-wait hint: park the calling thread (via a
    /// `Blocked(addr)` event) until a matching [`unpark_hint`]. With no
    /// hook installed, degrade to a yield so uncontrolled `pram_check`
    /// builds stay live. See the non-shim doc for the contract.
    #[inline]
    pub fn park_hint(addr: usize) {
        if hook_installed() {
            emit(CheckEvent::Blocked(addr));
        } else {
            std::thread::yield_now();
        }
    }

    /// Instrumented wake hint: report `Released(addr)` so threads parked
    /// by [`park_hint`]`(addr)` become schedulable again.
    #[inline]
    pub fn unpark_hint(addr: usize) {
        emit(CheckEvent::Released(addr));
    }

    /// Report `event` to the calling thread's hook, if any.
    #[inline]
    pub fn emit(event: CheckEvent) {
        HOOK.with(|h| {
            // Clone out of the RefCell so the hook can run without the
            // borrow held (hooks never re-enter `emit`, but keeping the
            // borrow scope tight costs nothing).
            let hook = h.borrow().clone();
            if let Some(hook) = hook {
                hook.event(event);
            }
        });
    }

    /// RAII marker for a multi-word payload access. Entering and leaving
    /// are both scheduling points, so the checker can interleave other
    /// threads *between* them and observe overlapping accesses.
    #[derive(Debug)]
    pub struct RegionGuard {
        region: usize,
        write: bool,
    }

    impl RegionGuard {
        /// Enter the payload region at `region`.
        pub fn enter(region: usize, write: bool) -> RegionGuard {
            emit(CheckEvent::RegionEnter { region, write });
            RegionGuard { region, write }
        }
    }

    impl Drop for RegionGuard {
        fn drop(&mut self) {
            emit(CheckEvent::RegionExit {
                region: self.region,
                write: self.write,
            });
        }
    }

    macro_rules! shim_atomic {
        ($(#[$meta:meta])* $name:ident, $raw:ident, $t:ty) => {
            $(#[$meta])*
            #[derive(Default)]
            pub struct $name {
                inner: std::sync::atomic::$raw,
            }

            impl $name {
                /// A new shimmed atomic holding `v`.
                pub const fn new(v: $t) -> $name {
                    $name {
                        inner: std::sync::atomic::$raw::new(v),
                    }
                }

                /// Instrumented load (ordering ignored; see module docs).
                #[inline]
                pub fn load(&self, _order: Ordering) -> $t {
                    emit(CheckEvent::Op);
                    self.inner.load(Ordering::SeqCst)
                }

                /// Instrumented store.
                #[inline]
                pub fn store(&self, val: $t, _order: Ordering) {
                    emit(CheckEvent::Op);
                    self.inner.store(val, Ordering::SeqCst);
                }

                /// Instrumented strong compare-exchange.
                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $t,
                    new: $t,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$t, $t> {
                    emit(CheckEvent::Op);
                    self.inner
                        .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                }

                /// Instrumented fetch-add.
                #[inline]
                pub fn fetch_add(&self, val: $t, _order: Ordering) -> $t {
                    emit(CheckEvent::Op);
                    self.inner.fetch_add(val, Ordering::SeqCst)
                }

                /// Instrumented fetch-max.
                #[inline]
                pub fn fetch_max(&self, val: $t, _order: Ordering) -> $t {
                    emit(CheckEvent::Op);
                    self.inner.fetch_max(val, Ordering::SeqCst)
                }

                /// Instrumented fetch-or.
                #[inline]
                pub fn fetch_or(&self, val: $t, _order: Ordering) -> $t {
                    emit(CheckEvent::Op);
                    self.inner.fetch_or(val, Ordering::SeqCst)
                }

                /// Instrumented fetch-and.
                #[inline]
                pub fn fetch_and(&self, val: $t, _order: Ordering) -> $t {
                    emit(CheckEvent::Op);
                    self.inner.fetch_and(val, Ordering::SeqCst)
                }

                /// Exclusive access needs no instrumentation: no other
                /// thread can observe the cell.
                #[inline]
                pub fn get_mut(&mut self) -> &mut $t {
                    self.inner.get_mut()
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    // Bypass instrumentation: Debug is diagnostics, not a
                    // modeled memory access.
                    fmt::Debug::fmt(&self.inner, f)
                }
            }
        };
    }

    shim_atomic!(
        /// Instrumented stand-in for `std::sync::atomic::AtomicU32`.
        AtomicU32,
        AtomicU32,
        u32
    );
    shim_atomic!(
        /// Instrumented stand-in for `std::sync::atomic::AtomicU64`.
        AtomicU64,
        AtomicU64,
        u64
    );

    /// Instrumented stand-in for `parking_lot::Mutex`.
    ///
    /// Acquisition is a scheduling point; a failed acquisition reports
    /// [`CheckEvent::Blocked`] so the scheduler can park the thread until
    /// the holder's release (spinning would make exhaustive exploration
    /// diverge). With no hook installed the failure path degrades to a
    /// yielding spin, keeping uncontrolled `--cfg pram_check` builds live.
    pub struct Mutex<T: ?Sized> {
        locked: AtomicBool,
        value: UnsafeCell<T>,
    }

    // SAFETY: standard mutex argument — exclusive access to `value` is
    // mediated by `locked`, so the container is Send/Sync whenever the
    // payload may move between threads.
    unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
    unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

    impl<T> Mutex<T> {
        /// A new unlocked mutex holding `value`.
        pub const fn new(value: T) -> Mutex<T> {
            Mutex {
                locked: AtomicBool::new(false),
                value: UnsafeCell::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquire, parking via the hook while contended.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let addr = &self.locked as *const AtomicBool as usize;
            loop {
                emit(CheckEvent::Op);
                if self
                    .locked
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return MutexGuard { lock: self };
                }
                emit(CheckEvent::Blocked(addr));
                if !hook_installed() {
                    std::thread::yield_now();
                }
            }
        }

        /// Exclusive access without locking.
        pub fn get_mut(&mut self) -> &mut T {
            self.value.get_mut()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Mutex<T> {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.locked.load(Ordering::SeqCst) {
                f.write_str("Mutex { <locked> }")
            } else {
                // SAFETY: diagnostics-only racy read, same caveat as
                // parking_lot's Debug on a contended mutex.
                f.debug_struct("Mutex")
                    .field("data", unsafe { &&*self.value.get() })
                    .finish()
            }
        }
    }

    /// RAII guard for the shim [`Mutex`].
    pub struct MutexGuard<'a, T: ?Sized> {
        lock: &'a Mutex<T>,
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // SAFETY: the guard witnesses exclusive ownership of the lock.
            unsafe { &*self.lock.value.get() }
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: as above.
            unsafe { &mut *self.lock.value.get() }
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            let addr = &self.lock.locked as *const AtomicBool as usize;
            self.lock.locked.store(false, Ordering::SeqCst);
            emit(CheckEvent::Released(addr));
        }
    }
}
