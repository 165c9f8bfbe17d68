//! Checkable model for the execution substrate's own synchronization: the
//! team barrier every kernel runs, [`pram_exec::SpinBarrier`].
//!
//! The arbitration models ([`crate::models`]) assume their barrier — the
//! phase boundary between `run` calls is a total order the executor
//! provides for free. [`BarrierLockstep`] checks the *barrier itself*,
//! which therefore must synchronize **inside** a single phase, through the
//! instrumented `pram_core::sync` facade: threads run several barrier
//! episodes in one phase body, checking after every rendezvous that (a)
//! all participants had arrived before anyone was released, (b) the
//! `wait_with` closure's effect is visible to every member immediately
//! after the barrier, and (c) exactly one member is elected per episode.
//! Running ≥ 2 episodes exercises reuse: the releaser's one store resets
//! the arrival count and advances the generation, so a stale-release bug
//! would surface as a thread sailing through episode 2 on episode 1's
//! generation.
//!
//! The model is generic over [`ModelBarrier`], so the same program drives
//! the real barrier (must stay clean) and the seeded bug in
//! [`crate::buggy`] (must be caught): [`BuggySpinBarrier`].

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use pram_exec::SpinBarrier;

use crate::buggy::BuggySpinBarrier;
use crate::models::Model;

/// The barrier surface [`BarrierLockstep`] drives — object-safe so one
/// model program covers the real barrier and the buggy seed.
pub trait ModelBarrier: Sync {
    /// Rendezvous; `true` on exactly one member.
    fn wait(&self) -> bool;
    /// Rendezvous; the elected member runs `f` before any member returns.
    fn wait_with(&self, f: &mut dyn FnMut()) -> bool;
}

impl ModelBarrier for SpinBarrier {
    fn wait(&self) -> bool {
        SpinBarrier::wait(self)
    }
    fn wait_with(&self, f: &mut dyn FnMut()) -> bool {
        SpinBarrier::wait_with(self, f)
    }
}

impl ModelBarrier for BuggySpinBarrier {
    fn wait(&self) -> bool {
        BuggySpinBarrier::wait(self)
    }
    fn wait_with(&self, f: &mut dyn FnMut()) -> bool {
        BuggySpinBarrier::wait_with(self, f)
    }
}

/// Multi-episode barrier rendezvous with arrival, broadcast-visibility,
/// and single-election checks (see module docs). Even episodes use
/// `wait`, odd episodes `wait_with` + a broadcast slot.
pub struct BarrierLockstep<B> {
    name: String,
    barrier: B,
    threads: usize,
    episodes: usize,
    /// Bookkeeping in plain `std` atomics: no scheduling points.
    arrived: Vec<AtomicUsize>,
    elections: Vec<AtomicUsize>,
    slot: Vec<AtomicU32>,
    early_release: AtomicBool,
    stale_broadcast: AtomicBool,
}

impl<B: ModelBarrier> BarrierLockstep<B> {
    /// `threads` members running `episodes` back-to-back rendezvous.
    pub fn new(name: &str, barrier: B, threads: usize, episodes: usize) -> BarrierLockstep<B> {
        let mk_usize = || {
            let mut v = Vec::with_capacity(episodes);
            v.resize_with(episodes, || AtomicUsize::new(0));
            v
        };
        let mut slot = Vec::with_capacity(episodes);
        slot.resize_with(episodes, || AtomicU32::new(0));
        BarrierLockstep {
            name: name.to_string(),
            barrier,
            threads,
            episodes,
            arrived: mk_usize(),
            elections: mk_usize(),
            slot,
            early_release: AtomicBool::new(false),
            stale_broadcast: AtomicBool::new(false),
        }
    }
}

impl<B: ModelBarrier> Model for BarrierLockstep<B> {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn run(&self, _phase: usize, _tid: usize) {
        for e in 0..self.episodes {
            self.arrived[e].fetch_add(1, Ordering::Relaxed);
            let elected = if e % 2 == 0 {
                self.barrier.wait()
            } else {
                let stamp = e as u32 + 1;
                self.barrier
                    .wait_with(&mut || self.slot[e].store(stamp, Ordering::Relaxed))
            };
            if elected {
                self.elections[e].fetch_add(1, Ordering::Relaxed);
            }
            // Arrival counts are monotone, so observing fewer than
            // `threads` arrivals *after* the rendezvous proves a release
            // before some member arrived.
            if self.arrived[e].load(Ordering::Relaxed) != self.threads {
                self.early_release.store(true, Ordering::Relaxed);
            }
            if e % 2 == 1 && self.slot[e].load(Ordering::Relaxed) != e as u32 + 1 {
                self.stale_broadcast.store(true, Ordering::Relaxed);
            }
        }
    }
    fn check_final(&self) -> Result<(), String> {
        if self.early_release.load(Ordering::Relaxed) {
            return Err("barrier released early: a member returned before all arrived".to_string());
        }
        if self.stale_broadcast.load(Ordering::Relaxed) {
            return Err("wait_with closure effect not visible to a released member".to_string());
        }
        for (e, n) in self.elections.iter().enumerate() {
            let n = n.load(Ordering::Relaxed);
            if n != 1 {
                return Err(format!("episode {e}: expected exactly 1 election, got {n}"));
            }
        }
        Ok(())
    }
}
