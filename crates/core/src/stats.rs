//! Execution-substrate counters: barrier waits and loop-scheduling grabs,
//! recorded per worker.
//!
//! Where [`crate::CwCounters`] attributes *arbitration* cost (fast path vs
//! RMW), [`ExecStats`] attributes *runtime* cost: how often each worker hit
//! a barrier, how long it waited there, and how many loop chunks it
//! grabbed from a shared cursor. Snapshots are plain
//! [`ExecCounters`], the value type round reports carry.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::telemetry::ExecCounters;

/// Per-worker execution-substrate counters.
///
/// The scaling benches use them to split wall time into synchronization
/// vs work — the difference between a barrier-bound regime (high-diameter
/// graphs: thousands of rounds, tiny frontiers) and a work-bound one
/// (skewed graphs: few rounds, heavy frontiers).
///
/// Every counter is a `Relaxed` atomic on its own cache line, and each
/// worker only increments its own slot, so collection never serializes the
/// threads it observes. The substrate keeps recording behind an
/// `Option` — when stats are disabled, the hot paths pay one predictable
/// branch and no atomic traffic.
#[derive(Debug)]
pub struct ExecStats {
    workers: Box<[CachePadded<WorkerSlots>]>,
}

#[derive(Debug, Default)]
struct WorkerSlots {
    barrier_waits: AtomicU64,
    barrier_wait_ns: AtomicU64,
    grabs: AtomicU64,
}

impl ExecStats {
    /// Zeroed counters for a team of `threads` workers.
    pub fn new(threads: usize) -> ExecStats {
        let mut v = Vec::with_capacity(threads);
        v.resize_with(threads, || CachePadded::new(WorkerSlots::default()));
        ExecStats {
            workers: v.into_boxed_slice(),
        }
    }

    /// Record one barrier rendezvous by worker `tid`, including the time
    /// it spent waiting (nanoseconds).
    #[inline]
    pub fn record_barrier_wait(&self, tid: usize, wait_ns: u64) {
        let w = &self.workers[tid];
        w.barrier_waits.fetch_add(1, Ordering::Relaxed);
        w.barrier_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
    }

    /// Record one loop-chunk grab by worker `tid` from a shared cursor.
    #[inline]
    pub fn record_grab(&self, tid: usize) {
        self.workers[tid].grabs.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of one worker's counters (exact when the
    /// team is quiescent).
    pub fn worker_snapshot(&self, tid: usize) -> ExecCounters {
        let w = &self.workers[tid];
        ExecCounters {
            barrier_waits: w.barrier_waits.load(Ordering::Relaxed),
            barrier_wait_ns: w.barrier_wait_ns.load(Ordering::Relaxed),
            grabs: w.grabs.load(Ordering::Relaxed),
        }
    }

    /// Sum of all workers' counters.
    pub fn totals(&self) -> ExecCounters {
        let mut total = ExecCounters::default();
        for tid in 0..self.workers.len() {
            total.add(&self.worker_snapshot(tid));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_stats_per_worker_and_totals() {
        let s = ExecStats::new(2);
        s.record_barrier_wait(0, 1_000);
        s.record_barrier_wait(0, 500);
        s.record_grab(0);
        s.record_grab(1);
        s.record_grab(1);
        let w0 = s.worker_snapshot(0);
        assert_eq!(w0.barrier_waits, 2);
        assert_eq!(w0.barrier_wait_ns, 1_500);
        assert_eq!(w0.grabs, 1);
        let w1 = s.worker_snapshot(1);
        assert_eq!(w1.barrier_waits, 0);
        assert_eq!(w1.grabs, 2);
        let total = s.totals();
        assert_eq!(total.barrier_waits, 2);
        assert_eq!(total.grabs, 3);
    }
}
