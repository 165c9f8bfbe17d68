//! Pool configuration: team size, wait policy, barrier topology, and the
//! irregular-loop scheduling preference.

use crate::schedule::ScheduleKind;

/// How a thread waits at a barrier (the analog of `OMP_WAIT_POLICY`).
///
/// The paper's experiments set the OpenMP runtime to the *active* policy:
/// waiting threads spin, never yielding the core, minimizing barrier
/// latency when every thread owns a core. On oversubscribed machines
/// (more threads than cores — including this workspace's thread-sweep
/// benchmarks run on small boxes) active waiting is pathological: a
/// spinning waiter burns the timeslice the straggler needs. The *passive*
/// policy spins briefly, then politely yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaitPolicy {
    /// Pure spin (`OMP_WAIT_POLICY=active`). Lowest latency when
    /// `threads <= cores`; livelock-prone when oversubscribed.
    Active,
    /// Spin [`PoolConfig::spin_before_yield`] iterations, then
    /// `std::thread::yield_now` between re-checks. Robust default.
    #[default]
    Passive,
}

/// Barrier topology for the pool's team-wide rendezvous.
///
/// The paper's kernels are lock-step: on high-diameter inputs (a 2^14
/// path runs ~16k BFS rounds) the barrier executes tens of thousands of
/// times and its cost structure dominates wall time, so the topology is
/// configurable:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierKind {
    /// One shared arrival counter + generation word
    /// ([`crate::SpinBarrier`]). Cheapest at small team sizes — a single
    /// `fetch_add` per arrival — but every arrival contends the same cache
    /// line, the centralized hot spot that collapses as teams grow.
    #[default]
    Central,
    /// Dissemination barrier ([`crate::DisseminationBarrier`]):
    /// `ceil(log2 T)` rounds of pairwise signaling through per-thread,
    /// cache-line-padded flag slots. No shared counter at all — each flag
    /// has exactly one writer and one reader — so arrival traffic scales
    /// as O(T log T) *uncontended* stores instead of O(T) CASes on one
    /// line.
    Dissemination,
}

/// Configuration for [`crate::ThreadPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Team size, including the caller's thread (≥ 1).
    pub threads: usize,
    /// Barrier wait behaviour.
    pub wait_policy: WaitPolicy,
    /// Spin iterations before the passive policy starts yielding.
    pub spin_before_yield: u32,
    /// Barrier topology.
    pub barrier: BarrierKind,
    /// How irregular worksharing loops
    /// ([`crate::WorkerCtx::for_each_frontier`] and other callers of
    /// [`crate::WorkerCtx::irregular_schedule`]) distribute chunks:
    /// shared-cursor dynamic or per-worker work stealing.
    pub irregular: ScheduleKind,
    /// Collect telemetry: per-worker execution counters
    /// ([`pram_core::ExecStats`]: barrier waits, grab/steal counts) and
    /// per-round concurrent-write counters ([`pram_core::CwTelemetry`]):
    /// each worker records its claim outcomes into a cache-padded shard,
    /// and [`crate::WorkerCtx::converge_rounds`] snapshots the merged
    /// counters at every round's closing barrier into a
    /// [`pram_core::RoundReport`]. Off by default: recording costs one
    /// branch on the hot paths when disabled. The claim counters stay
    /// zero when the `telemetry` feature is disabled; the execution
    /// counters do not depend on the feature.
    pub telemetry: bool,
}

impl PoolConfig {
    /// A team of `threads` with the default (passive) wait policy.
    pub fn new(threads: usize) -> PoolConfig {
        PoolConfig {
            threads,
            ..PoolConfig::default()
        }
    }

    /// Override the wait policy.
    pub fn wait_policy(mut self, policy: WaitPolicy) -> PoolConfig {
        self.wait_policy = policy;
        self
    }

    /// Override the pre-yield spin count.
    pub fn spin_before_yield(mut self, iters: u32) -> PoolConfig {
        self.spin_before_yield = iters;
        self
    }

    /// Override the barrier topology.
    pub fn barrier(mut self, kind: BarrierKind) -> PoolConfig {
        self.barrier = kind;
        self
    }

    /// Override the irregular-loop scheduling preference.
    pub fn irregular(mut self, kind: ScheduleKind) -> PoolConfig {
        self.irregular = kind;
        self
    }

    /// Enable or disable telemetry (execution and claim counters).
    pub fn telemetry(mut self, on: bool) -> PoolConfig {
        self.telemetry = on;
        self
    }
}

impl Default for PoolConfig {
    /// One thread per available core, passive waiting, central barrier,
    /// dynamic irregular loops, no telemetry.
    fn default() -> PoolConfig {
        PoolConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            wait_policy: WaitPolicy::Passive,
            spin_before_yield: 128,
            barrier: BarrierKind::Central,
            irregular: ScheduleKind::Dynamic,
            telemetry: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = PoolConfig::new(7)
            .wait_policy(WaitPolicy::Active)
            .spin_before_yield(5)
            .barrier(BarrierKind::Dissemination)
            .irregular(ScheduleKind::Stealing)
            .telemetry(true);
        assert_eq!(c.threads, 7);
        assert_eq!(c.wait_policy, WaitPolicy::Active);
        assert_eq!(c.spin_before_yield, 5);
        assert_eq!(c.barrier, BarrierKind::Dissemination);
        assert_eq!(c.irregular, ScheduleKind::Stealing);
        assert!(c.telemetry);
    }

    #[test]
    fn default_is_passive_with_positive_team() {
        let c = PoolConfig::default();
        assert!(c.threads >= 1);
        assert_eq!(c.wait_policy, WaitPolicy::Passive);
        assert_eq!(c.barrier, BarrierKind::Central);
        assert_eq!(c.irregular, ScheduleKind::Dynamic);
        assert!(!c.telemetry);
    }
}
