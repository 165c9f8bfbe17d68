//! Checkable models for the execution substrate's own synchronization: the
//! team barrier every kernel runs, [`pram_exec::SpinBarrier`], and the
//! per-round state that re-arms inside its rendezvous,
//! [`pram_exec::TeamSum`], both as `WorkerCtx::team_sum` runs it and as
//! the closing rendezvous that decides `WorkerCtx::converge_rounds`.
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
//!
//! [`TeamSumLockstep`] and [`ConvergeLockstep`] drive the sum exactly as
//! `WorkerCtx::team_sum` and `WorkerCtx::converge_rounds` do, with the
//! real barrier as its rendezvous: back-to-back sums with no other
//! rendezvous between them must each be exact, and every member must take
//! the same continue/stop decision after every round. Their seeded bug,
//! [`BuggyTeamSum`] (no parity), is a stale-slot bug the checker must
//! catch in both.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use pram_exec::{SpinBarrier, TeamSum, SUM_LANES};

use crate::buggy::{BuggySpinBarrier, BuggyTeamSum};
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

/// The team-sum surface [`TeamSumLockstep`] and [`ConvergeLockstep`]
/// drive.
pub trait ModelSum: Sync {
    /// Member `id`'s part in the next sum; `rendezvous` is the barrier.
    fn sum(
        &self,
        id: usize,
        value: [u64; SUM_LANES],
        rendezvous: &mut dyn FnMut() -> bool,
    ) -> [u64; SUM_LANES];
}

impl ModelSum for TeamSum {
    fn sum(
        &self,
        id: usize,
        value: [u64; SUM_LANES],
        rendezvous: &mut dyn FnMut() -> bool,
    ) -> [u64; SUM_LANES] {
        TeamSum::sum(self, id, value, rendezvous)
    }
}

impl ModelSum for BuggyTeamSum {
    fn sum(
        &self,
        id: usize,
        value: [u64; SUM_LANES],
        rendezvous: &mut dyn FnMut() -> bool,
    ) -> [u64; SUM_LANES] {
        BuggyTeamSum::sum(self, id, value, rendezvous)
    }
}

/// Back-to-back team sums, one barrier each, as `WorkerCtx::team_sum`
/// runs them: member `t`'s lanes in sum `k` are `k + 1 + 100 t` and
/// `(k + 1)(t + 1)`, so a value that bleeds between sums shows in the
/// total.
pub struct TeamSumLockstep<S> {
    name: String,
    sum: S,
    barrier: SpinBarrier,
    threads: usize,
    sums: u64,
    /// First wrong total; plain `std` state, no scheduling points.
    wrong: Mutex<Option<String>>,
}

impl<S: ModelSum> TeamSumLockstep<S> {
    /// `threads` members running `sums` back-to-back sums on `sum`.
    pub fn new(name: &str, sum: S, threads: usize, sums: u64) -> TeamSumLockstep<S> {
        TeamSumLockstep {
            name: name.to_string(),
            sum,
            barrier: SpinBarrier::new(threads),
            threads,
            sums,
            wrong: Mutex::new(None),
        }
    }

    fn lanes(k: u64, t: u64) -> [u64; SUM_LANES] {
        [k + 1 + 100 * t, (k + 1) * (t + 1)]
    }
}

impl<S: ModelSum> Model for TeamSumLockstep<S> {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn run(&self, _phase: usize, tid: usize) {
        for k in 0..self.sums {
            let got = self
                .sum
                .sum(tid, Self::lanes(k, tid as u64), &mut || self.barrier.wait());
            let mut expect = [0; SUM_LANES];
            for t in 0..self.threads as u64 {
                for (e, v) in expect.iter_mut().zip(Self::lanes(k, t)) {
                    *e += v;
                }
            }
            if got != expect {
                self.wrong.lock().unwrap().get_or_insert(format!(
                    "team sum {k}: member {tid} got {got:?}, expected {expect:?}"
                ));
            }
        }
    }
    fn check_final(&self) -> Result<(), String> {
        match self.wrong.lock().unwrap().take() {
            Some(msg) => Err(msg),
            None => Ok(()),
        }
    }
}

/// `converge_rounds` calls as the pool runs them: an opening rendezvous,
/// then per round one team sum of the members' progress, which is the
/// round's closing rendezvous. In call `c`, member `t` contributes
/// `[1, 0]` in rounds `1..=plans[c][t]` and `[0, 0]` after, and every
/// member stops on a zero lane-0 total, so every member must run exactly
/// `max(plans[c]) + 1` rounds (capped at `max_rounds`).
pub struct ConvergeLockstep<S> {
    name: String,
    sum: S,
    barrier: SpinBarrier,
    plans: Vec<Vec<u32>>,
    max_rounds: u32,
    /// Rounds each member ran, per call; plain `std` bookkeeping.
    ran: Vec<Vec<AtomicU32>>,
}

impl<S: ModelSum> ConvergeLockstep<S> {
    /// One member per entry of each plan; one call per plan. `sum` must
    /// have a slot per member.
    pub fn new(name: &str, sum: S, plans: Vec<Vec<u32>>, max_rounds: u32) -> ConvergeLockstep<S> {
        let threads = plans[0].len();
        assert!(
            plans.iter().all(|p| p.len() == threads),
            "one plan entry per member"
        );
        ConvergeLockstep {
            name: name.to_string(),
            sum,
            barrier: SpinBarrier::new(threads),
            ran: plans
                .iter()
                .map(|p| p.iter().map(|_| AtomicU32::new(0)).collect())
                .collect(),
            plans,
            max_rounds,
        }
    }
}

impl<S: ModelSum> Model for ConvergeLockstep<S> {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> usize {
        self.plans[0].len()
    }
    fn run(&self, _phase: usize, tid: usize) {
        for (plan, ran) in self.plans.iter().zip(&self.ran) {
            self.barrier.wait();
            for i in 0..self.max_rounds {
                // Round i + 1 makes progress iff it is within the plan.
                let progress = u64::from(i < plan[tid]);
                let total = self
                    .sum
                    .sum(tid, [progress, 0], &mut || self.barrier.wait());
                ran[tid].store(i + 1, Ordering::Relaxed);
                if total[0] == 0 {
                    break;
                }
            }
        }
    }
    fn check_final(&self) -> Result<(), String> {
        for (c, (plan, ran)) in self.plans.iter().zip(&self.ran).enumerate() {
            let expect = (plan.iter().max().unwrap() + 1).min(self.max_rounds);
            for (t, r) in ran.iter().enumerate() {
                let r = r.load(Ordering::Relaxed);
                if r != expect {
                    return Err(format!(
                        "call {c}: member {t} stopped after {r} rounds, expected {expect}: \
                         members diverged on continue/stop"
                    ));
                }
            }
        }
        Ok(())
    }
}
