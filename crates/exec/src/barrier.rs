//! The team barrier: a centralized sense-reversing rendezvous.
//!
//! The barrier is the synchronization point the paper requires between a
//! concurrent-write round and its dependent reads, and it executes on every
//! loop boundary — on high-diameter inputs tens of thousands of times per
//! kernel. [`SpinBarrier`] keeps one cache-line-isolated 64-bit word: the
//! arrival count in the low 32 bits, the generation in the high 32 bits.
//! Each arriver does one `fetch_add(1)`, which returns both the count and
//! the generation it arrived in. The last arriver optionally runs a
//! caller-supplied closure (the hook [`crate::WorkerCtx`] uses to re-arm
//! per-round shared state exactly once, race-free), then stores the next
//! generation with a zero count — one store both resets the count and
//! releases the waiters. Every pre-barrier action of every participant
//! happens-before every post-barrier action of every participant (`AcqRel`
//! arrivals, a `Release` release store, `Acquire` waiter loads).
//!
//! Waiters escalate through [`WaitBackoff`]: spin, then yield, then park in
//! exponentially growing timed sleeps. On oversubscribed machines (more
//! threads than cores, which the thread-scaling sweep deliberately
//! creates) a tight spin or `yield_now` loop burns the timeslice the
//! straggler needs.
//!
//! The word goes through the [`pram_core::sync`] facade, so under
//! `--cfg pram_check` the `pram-check` crate model-checks this barrier (no
//! early release, generation reuse, `wait_with` visibility, one election
//! per episode) exactly like the arbiters. Packing count and generation
//! into one word keeps each arrival to one instrumented operation, which
//! keeps the exhaustive multi-episode model small enough to finish. The wait loop emits [`pram_core::sync::park_hint`] and the
//! releaser [`pram_core::sync::unpark_hint`], so the lockstep scheduler
//! parks waiters instead of exploring unbounded re-reads. In normal builds
//! both hints are no-ops and the facade atomics are `std` atomics.

use std::sync::atomic::AtomicBool;

use crossbeam_utils::CachePadded;
use pram_core::sync::{self as psync, Ordering};

/// Spin iterations before a waiter starts yielding. This first phase is
/// what OpenMP's active wait policy does forever.
const SPIN_BEFORE_YIELD: u32 = 128;
/// Yield attempts after the spin budget, before timed parking starts.
#[cfg(not(pram_check))]
const YIELDS_BEFORE_PARK: u32 = 64;
/// First timed-park duration, doubled per retry up to the cap.
#[cfg(not(pram_check))]
const PARK_START_US: u64 = 5;
/// Longest single timed park — bounds release-observation latency.
#[cfg(not(pram_check))]
const PARK_CAP_US: u64 = 100;

/// Low half of the barrier word: the arrival count.
const COUNT_MASK: u64 = 0xFFFF_FFFF;
/// The generation lives in the high half of the barrier word.
const GENERATION_SHIFT: u32 = 32;

/// Escalating wait-loop body: spin → yield → exponentially growing
/// `park_timeout`.
///
/// The third stage is the oversubscription fix: a waiter that has yielded
/// `YIELDS_BEFORE_PARK` times is almost certainly waiting on a straggler
/// that needs the core, so it sleeps — first `PARK_START_US` µs, doubling
/// to `PARK_CAP_US` µs — instead of re-contending the run queue. The cap
/// keeps worst-case wakeup latency bounded (a poisoned or released barrier
/// is observed within one cap interval).
///
/// Under `--cfg pram_check` a step does nothing: the checker's
/// [`pram_core::sync::park_hint`] is the wait.
#[derive(Debug, Default)]
pub struct WaitBackoff {
    step: u32,
}

impl WaitBackoff {
    /// A fresh backoff at the start of its spin stage.
    pub fn new() -> WaitBackoff {
        WaitBackoff::default()
    }

    /// Perform one wait step and escalate.
    #[inline]
    pub fn wait(&mut self) {
        #[cfg(not(pram_check))]
        {
            let s = self.step;
            self.step = s.saturating_add(1);
            if s < SPIN_BEFORE_YIELD {
                std::hint::spin_loop();
            } else if s < SPIN_BEFORE_YIELD + YIELDS_BEFORE_PARK {
                std::thread::yield_now();
            } else {
                let exp = s - SPIN_BEFORE_YIELD - YIELDS_BEFORE_PARK;
                let us = PARK_START_US
                    .saturating_mul(1 << exp.min(5))
                    .min(PARK_CAP_US);
                std::thread::park_timeout(std::time::Duration::from_micros(us));
            }
        }
    }

    /// Whether this backoff has escalated past pure spinning (diagnostic;
    /// used by tests to pin the escalation order).
    pub fn is_yielding(&self) -> bool {
        self.step > SPIN_BEFORE_YIELD
    }
}

/// A reusable centralized barrier for a fixed team of participants.
///
/// Every participant must call [`SpinBarrier::wait`] (or
/// [`SpinBarrier::wait_with`]) the same number of times; the k-th calls of
/// all participants form the k-th rendezvous.
#[derive(Debug)]
pub struct SpinBarrier {
    /// Generation (high 32 bits) and arrival count (low 32 bits).
    word: CachePadded<psync::AtomicU64>,
    total: u64,
    /// Set by the pool when a sibling worker panics; waiters convert it
    /// into a panic of their own instead of waiting forever for a
    /// participant that will never arrive.
    poisoned: CachePadded<AtomicBool>,
}

impl SpinBarrier {
    /// A barrier for `total` participants (≥ 1).
    pub fn new(total: usize) -> SpinBarrier {
        assert!(total >= 1, "a barrier needs at least one participant");
        assert!(
            total as u64 <= COUNT_MASK,
            "barrier team exceeds the 32-bit arrival count"
        );
        SpinBarrier {
            word: CachePadded::new(psync::AtomicU64::new(0)),
            total: total as u64,
            poisoned: CachePadded::new(AtomicBool::new(false)),
        }
    }

    /// Rendezvous. Returns `true` on the single thread that released the
    /// barrier (the last arriver) — the OpenMP-`single`-like election some
    /// callers exploit.
    #[inline]
    pub fn wait(&self) -> bool {
        self.wait_with(|| {})
    }

    /// Rendezvous; the last arriver runs `f` *before* releasing the others.
    ///
    /// Everything `f` does therefore happens-before every participant's
    /// post-barrier code — the race-free slot for resetting shared
    /// per-round state (cursors, convergence flags, gatekeeper arrays).
    pub fn wait_with(&self, f: impl FnOnce()) -> bool {
        let addr = &*self.word as *const psync::AtomicU64 as usize;
        let old = self.word.fetch_add(1, Ordering::AcqRel);
        let gen = old >> GENERATION_SHIFT;
        let arrived = (old & COUNT_MASK) + 1;
        debug_assert!(arrived <= self.total, "barrier called by a non-participant");
        if arrived == self.total {
            f();
            // Next generation (wrapping at 32 bits), count back to zero.
            self.word
                .store(gen.wrapping_add(1) << GENERATION_SHIFT, Ordering::Release);
            psync::unpark_hint(addr);
            true
        } else {
            let mut backoff = WaitBackoff::new();
            while self.word.load(Ordering::Acquire) >> GENERATION_SHIFT == gen {
                if self.poisoned.load(Ordering::Relaxed) {
                    panic!("barrier poisoned: a sibling worker panicked");
                }
                backoff.wait();
                psync::park_hint(addr);
            }
            false
        }
    }

    /// Poison the barrier: current and future waiters panic instead of
    /// waiting forever (parked waiters observe it within one timed-park
    /// cap).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// Whether the barrier has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn single_participant_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
            assert!(b.wait_with(|| {}));
        }
    }

    #[test]
    fn phases_are_totally_separated() {
        // Classic barrier test: per-phase counters must be complete before
        // anyone proceeds to the next phase.
        const THREADS: usize = 8;
        const PHASES: usize = 50;
        let b = SpinBarrier::new(THREADS);
        let counters: Vec<AtomicU32> = (0..PHASES).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for (phase, counter) in counters.iter().enumerate() {
                        counter.fetch_add(1, Ordering::Relaxed);
                        b.wait();
                        // After the barrier, this phase's counter is full.
                        assert_eq!(
                            counter.load(Ordering::Relaxed),
                            THREADS as u32,
                            "phase {phase} leaked past the barrier"
                        );
                        // And the next phase's counter is still bounded.
                        if phase + 1 < PHASES {
                            assert!(
                                counters[phase + 1].load(Ordering::Relaxed) < THREADS as u32,
                                "phase {} completed before phase {phase} released",
                                phase + 1
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn exactly_one_releaser_per_phase() {
        const THREADS: usize = 6;
        const PHASES: usize = 40;
        let b = SpinBarrier::new(THREADS);
        let releases = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PHASES {
                        if b.wait() {
                            releases.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(releases.load(Ordering::Relaxed), PHASES as u32);
    }

    #[test]
    fn wait_with_runs_before_release() {
        const THREADS: usize = 4;
        let b = SpinBarrier::new(THREADS);
        let slot = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for phase in 1..=20u32 {
                        b.wait_with(|| slot.store(phase, Ordering::Relaxed));
                        // The closure's effect is visible to every thread
                        // immediately after the barrier.
                        assert_eq!(slot.load(Ordering::Relaxed), phase);
                        b.wait(); // keep phases aligned for the assert
                    }
                });
            }
        });
    }

    #[test]
    fn poison_releases_waiters_as_panics() {
        let b = SpinBarrier::new(2);
        let r = std::thread::scope(|s| {
            let h = s.spawn(|| b.wait()); // will never be joined by a peer
            std::thread::sleep(std::time::Duration::from_millis(10));
            b.poison();
            h.join()
        });
        assert!(r.is_err(), "waiter should have panicked on poison");
        assert!(b.is_poisoned());
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = SpinBarrier::new(0);
    }

    #[test]
    #[cfg(not(pram_check))]
    fn backoff_escalates_in_order() {
        // SPIN_BEFORE_YIELD spins, then yields, then timed parks — the
        // escalation must be monotone and never panic far into the tail.
        let mut b = WaitBackoff::new();
        for _ in 0..SPIN_BEFORE_YIELD {
            b.wait();
            assert!(!b.is_yielding());
        }
        for _ in 0..(YIELDS_BEFORE_PARK + 8) {
            b.wait();
        }
        assert!(b.is_yielding());
    }
}
