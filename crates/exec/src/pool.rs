//! The persistent worker pool and the per-thread region context.
//!
//! [`ThreadPool::run`] is `#pragma omp parallel`: one closure, executed by
//! every thread of the team (SPMD). Inside, [`WorkerCtx`] provides the
//! worksharing and synchronization constructs the paper's kernels are built
//! from. The team is spawned once and reused across regions — region entry
//! costs one condvar broadcast, not `threads` thread spawns — because the
//! benchmarks enter a region per kernel invocation and any spawn cost would
//! pollute the concurrent-write comparison.
//!
//! ## Panic handling
//!
//! A panic inside a region would classically deadlock the team at the next
//! barrier (the panicking thread never arrives). The pool instead poisons
//! the barrier: sibling threads blocked at (or arriving at) a barrier panic
//! too, the region drains, and [`ThreadPool::run`] resumes the original
//! panic payload on the caller. The pool itself stays poisoned — subsequent
//! `run` calls panic immediately — because team state (barrier phase,
//! cursors) is unrecoverable mid-protocol.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam_utils::CachePadded;
use parking_lot::{Condvar, Mutex};
use pram_core::{
    CwCounters, CwTelemetry, ExecCounters, Round, RoundReport, RoundSnapshot, ShardGuard,
};

use crate::barrier::SpinBarrier;
use crate::config::PoolConfig;
use crate::frontier::FrontierBuffer;
use crate::schedule::{static_block, Schedule};
use crate::team::{TeamSum, SUM_LANES};

/// Default per-grab edge budget for [`WorkerCtx::for_each_frontier`]:
/// enough edge work to amortize one shared-cursor `fetch_add`, small
/// enough to rebalance skewed frontiers.
pub const FRONTIER_GRAIN_EDGES: usize = 4096;

/// The closure type executed by every team member during a region.
type JobFn<'a> = dyn Fn(&WorkerCtx<'_>) + Sync + 'a;

/// Lifetime-erased pointer to the current region's closure.
///
/// Sound because [`ThreadPool::run`] does not return until every worker has
/// finished executing through the pointer, so the pointee (a local in the
/// caller's frame) outlives all uses.
struct RawJob(*const JobFn<'static>);
// SAFETY: the pointer crosses threads only between `run`'s publication and
// its completion wait, during which the pointee is alive and the closure is
// `Sync`.
unsafe impl Send for RawJob {}

impl Clone for RawJob {
    fn clone(&self) -> Self {
        RawJob(self.0)
    }
}

struct DispatchState {
    /// Region sequence number; workers run one region per increment.
    seq: u64,
    job: Option<RawJob>,
    shutdown: bool,
}

struct PoolShared {
    threads: usize,
    barrier: SpinBarrier,
    /// Shared loop cursor for dynamic scheduling. The last member to
    /// reach a dynamic loop's ending rendezvous re-arms it to 0.
    cursor: CachePadded<AtomicUsize>,
    /// Per-worker claim and execution counters, when
    /// `PoolConfig::telemetry`. Team member `thread_id` routes its claim
    /// telemetry into shard `thread_id` via a thread-local [`ShardGuard`]
    /// and records its barrier waits and grabs into the same shard.
    telem: Option<CwTelemetry>,
    /// `converge_rounds` bookkeeping on telemetry pools.
    round_log: Mutex<RoundLog>,
    /// Pool creation time: the origin for all round timestamps, so spans
    /// from different epochs share one monotone clock.
    t0: std::time::Instant,
    /// Slots of [`WorkerCtx::team_sum`] and of every closing rendezvous
    /// of [`WorkerCtx::converge_rounds`].
    sum: TeamSum,
    dispatch: Mutex<DispatchState>,
    dispatch_cv: Condvar,
    /// Workers still executing the current region.
    remaining: Mutex<usize>,
    remaining_cv: Condvar,
    /// First panic payload from any team member.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Per-round telemetry state. Rounds open and close inside barrier
/// rendezvous, where the whole team is parked, so every delta is exact.
#[derive(Default)]
struct RoundLog {
    /// `converge_rounds` invocations that ran a round so far. One
    /// invocation is one epoch (one kernel run); the round in flight
    /// belongs to epoch `epochs - 1`.
    epochs: u32,
    /// The round in flight: its start time and counter baseline, taken at
    /// its opening rendezvous.
    open: (u64, CwCounters, ExecCounters),
    /// Kernel-supplied label for the round in flight
    /// ([`WorkerCtx::annotate_round`]).
    label: Option<&'static str>,
    /// Closed rounds with their labels, which become the snapshots'
    /// `String`s only when [`ThreadPool::take_round_report`] drains them.
    closed: Vec<(&'static str, RoundSnapshot)>,
}

/// A persistent team of threads executing SPMD regions.
///
/// The calling thread participates as team member 0, so `ThreadPool::new(n)`
/// spawns `n - 1` workers. Dropping the pool shuts the workers down.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes `run` calls: the team protocol supports one region at a
    /// time.
    region_guard: Mutex<()>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.shared.threads)
            .finish_non_exhaustive()
    }
}

impl ThreadPool {
    /// A team of `threads` (≥ 1) with default configuration.
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool::with_config(PoolConfig::new(threads))
    }

    /// A team configured by `config`.
    pub fn with_config(config: PoolConfig) -> ThreadPool {
        assert!(config.threads >= 1, "a team needs at least one thread");
        let shared = Arc::new(PoolShared {
            threads: config.threads,
            barrier: SpinBarrier::new(config.threads),
            cursor: CachePadded::new(AtomicUsize::new(0)),
            telem: config.telemetry.then(|| CwTelemetry::new(config.threads)),
            round_log: Mutex::default(),
            t0: std::time::Instant::now(),
            sum: TeamSum::new(config.threads),
            dispatch: Mutex::new(DispatchState {
                seq: 0,
                job: None,
                shutdown: false,
            }),
            dispatch_cv: Condvar::new(),
            remaining: Mutex::new(0),
            remaining_cv: Condvar::new(),
            panic_payload: Mutex::new(None),
        });
        let handles = (1..config.threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pram-worker-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            region_guard: Mutex::new(()),
        }
    }

    /// Team size (including the caller's thread).
    pub fn num_threads(&self) -> usize {
        self.shared.threads
    }

    /// Sharded claim and execution telemetry, if enabled via
    /// [`PoolConfig::telemetry`]. Counters accumulate across regions.
    pub fn telemetry(&self) -> Option<&CwTelemetry> {
        self.shared.telem.as_ref()
    }

    /// Drain the per-round snapshots recorded by
    /// [`WorkerCtx::converge_rounds`] since the last call, merged with the
    /// pool-lifetime counter totals into a [`RoundReport`].
    ///
    /// Totals cover every claim routed through this pool's shards and
    /// every recorded barrier wait and grab — including work outside
    /// `converge_rounds` — so they can exceed the per-round sums.
    /// Returns an empty report when telemetry is disabled.
    pub fn take_round_report(&self) -> RoundReport {
        let closed = std::mem::take(&mut self.shared.round_log.lock().closed);
        let rounds = closed
            .into_iter()
            .map(|(label, snapshot)| RoundSnapshot {
                label: label.to_owned(),
                ..snapshot
            })
            .collect();
        let (totals_cw, totals_exec) = self.shared.counters();
        RoundReport {
            threads: self.shared.threads,
            rounds,
            totals_cw,
            totals_exec,
        }
    }

    /// Execute `f` on every team member — enter a parallel region.
    ///
    /// Blocks until all members have returned from `f`. `f` runs with
    /// `thread_id() == 0` on the calling thread itself. Regions do not
    /// nest: calling `run` from inside a region deadlocks (the region guard
    /// is held), exactly like re-entering a non-nested OpenMP runtime.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(&WorkerCtx<'_>) + Sync,
    {
        let _region = self.region_guard.lock();
        assert!(
            !self.shared.barrier.is_poisoned(),
            "thread pool poisoned by an earlier panic; create a fresh pool"
        );

        // Publish the job. The pointee `f` lives until the completion wait
        // below returns, upholding RawJob's safety contract.
        let job: &JobFn<'_> = &f;
        // SAFETY: lifetime erasure only; see RawJob.
        let raw = RawJob(unsafe {
            std::mem::transmute::<*const JobFn<'_>, *const JobFn<'static>>(job as *const _)
        });
        *self.shared.remaining.lock() = self.shared.threads - 1;
        {
            let mut st = self.shared.dispatch.lock();
            st.seq += 1;
            st.job = Some(raw);
            self.shared.dispatch_cv.notify_all();
        }

        // Participate as member 0, routing claim telemetry to shard 0.
        let _telem_guard = self
            .shared
            .telem
            .as_ref()
            .map(|t| ShardGuard::install(t.shard(0)));
        let ctx = WorkerCtx {
            shared: &self.shared,
            id: 0,
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
            self.shared.barrier.poison();
            self.shared.panic_payload.lock().get_or_insert(payload);
        }

        // Wait for the rest of the team.
        {
            let mut rem = self.shared.remaining.lock();
            while *rem > 0 {
                self.shared.remaining_cv.wait(&mut rem);
            }
        }

        if let Some(payload) = self.shared.panic_payload.lock().take() {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.dispatch.lock();
            st.shutdown = true;
            self.shared.dispatch_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            // A worker that panicked already delivered its payload via
            // `run`; ignore the join error to keep drop non-panicking.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, id: usize) {
    // Route this worker's claim telemetry to its own shard for the
    // thread's whole lifetime (the guard is a thread-local registration).
    let _telem_guard = shared
        .telem
        .as_ref()
        .map(|t| ShardGuard::install(t.shard(id)));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.dispatch.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq > seen {
                    seen = st.seq;
                    break st.job.as_ref().expect("job published with seq").clone();
                }
                shared.dispatch_cv.wait(&mut st);
            }
        };
        let ctx = WorkerCtx { shared, id };
        // SAFETY: `run` keeps the pointee alive until all workers complete.
        let res = catch_unwind(AssertUnwindSafe(|| unsafe { (&*job.0)(&ctx) }));
        if let Err(payload) = res {
            shared.barrier.poison();
            shared.panic_payload.lock().get_or_insert(payload);
        }
        let mut rem = shared.remaining.lock();
        *rem -= 1;
        if *rem == 0 {
            shared.remaining_cv.notify_all();
        }
    }
}

/// Result of [`WorkerCtx::converge_rounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Convergence {
    /// Rounds executed (≥ 1 unless `max_rounds == 0`).
    pub rounds: u32,
    /// `true` if the last executed round's progress total was 0.
    pub converged: bool,
}

/// A team member's view of the current parallel region.
pub struct WorkerCtx<'p> {
    shared: &'p PoolShared,
    id: usize,
}

impl WorkerCtx<'_> {
    /// This member's id in `0..num_threads()` (caller thread = 0).
    #[inline]
    pub fn thread_id(&self) -> usize {
        self.id
    }

    /// Team size.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.shared.threads
    }

    /// Team-wide barrier. Returns `true` on exactly one member, the last
    /// to arrive.
    ///
    /// This is the "synchronization point" the paper requires between a
    /// concurrent-write round and dependent reads.
    #[inline]
    pub fn barrier(&self) -> bool {
        self.barrier_with(|| {})
    }

    /// Barrier whose elected member runs `f` after all members arrive and
    /// before any member proceeds — the race-free slot for re-arming
    /// shared state, such as the dynamic-loop cursor.
    #[inline]
    pub fn barrier_with(&self, f: impl FnOnce()) -> bool {
        match &self.shared.telem {
            None => self.shared.barrier.wait_with(f),
            Some(t) => {
                let t0 = std::time::Instant::now();
                let r = self.shared.barrier.wait_with(f);
                t.shard(self.id)
                    .record_barrier_wait(t0.elapsed().as_nanos() as u64);
                r
            }
        }
    }

    /// Worksharing loop over `range` with the implicit ending barrier
    /// (OpenMP `#pragma omp for`). Every team member must call this with
    /// the same range and schedule; each index is executed exactly once by
    /// exactly one member.
    ///
    /// The closure is `FnMut`: each member constructs and runs its own
    /// instance, so worker-local accumulators (e.g. a
    /// [`crate::LocalBuffer`]) can be captured mutably.
    ///
    /// A dynamic loop starts without a rendezvous: the last member to
    /// reach its ending one re-arms the shared cursor for the next loop.
    pub fn for_each(&self, range: Range<usize>, schedule: Schedule, mut f: impl FnMut(usize)) {
        let Schedule::Dynamic { chunk } = schedule else {
            self.for_each_nowait(range, f);
            self.barrier();
            return;
        };
        let base = range.start;
        self.for_each_grab(range.len(), chunk, |grab| {
            for i in grab {
                f(base + i);
            }
        });
    }

    /// The shared-cursor loop behind every dynamic schedule: grab `chunk`
    /// positions of `0..len` at a time until the cursor passes `len`, and
    /// hand each grab to `f`. A member's grabs rise monotonically. Ends in
    /// the rendezvous whose elected member re-arms the cursor.
    fn for_each_grab(&self, len: usize, chunk: usize, mut f: impl FnMut(Range<usize>)) {
        let chunk = chunk.max(1);
        let cursor = &self.shared.cursor;
        let shard = self.shared.telem.as_ref().map(|t| t.shard(self.id));
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            if let Some(shard) = shard {
                shard.record_grab();
            }
            f(start..(start + chunk).min(len));
        }
        self.barrier_with(|| cursor.store(0, Ordering::Relaxed));
    }

    /// A static [`WorkerCtx::for_each`] without the ending barrier
    /// (`nowait`): entirely synchronization-free. Dynamic loops always end
    /// in their rendezvous, which re-arms their cursor.
    pub fn for_each_nowait(&self, range: Range<usize>, mut f: impl FnMut(usize)) {
        for i in static_block(range.len(), self.shared.threads, self.id) {
            f(range.start + i);
        }
    }

    /// Worksharing over a rectangular 2-D index space (OpenMP
    /// `collapse(2)`, as the paper's Figure 4 pair loop uses): iterates
    /// `f(i, j)` for all `i < rows`, `j < cols`, partitioned by `schedule`
    /// over the flattened space, with the implicit ending barrier.
    pub fn for_each_2d(
        &self,
        rows: usize,
        cols: usize,
        schedule: Schedule,
        mut f: impl FnMut(usize, usize),
    ) {
        let total = rows.checked_mul(cols).expect("2-D index space overflows");
        self.for_each(0..total, schedule, |flat| f(flat / cols, flat % cols));
    }

    /// Run `f` on member 0 only (OpenMP `master`); no synchronization.
    pub fn master(&self, f: impl FnOnce()) {
        if self.id == 0 {
            f();
        }
    }

    /// Team-wide sum (`#pragma omp ... reduction(+: a, b)`) of up to
    /// [`SUM_LANES`] values: every member contributes `value` and receives
    /// the lane-wise total. Every member must call this at the same point.
    /// Costs one rendezvous (see [`TeamSum`]).
    pub fn team_sum(&self, value: [u64; SUM_LANES]) -> [u64; SUM_LANES] {
        self.shared.sum.sum(self.id, value, || self.barrier())
    }

    /// Worksharing loop over the edges of the published entries of
    /// `frontier`, handed out in edge pieces, with the implicit ending
    /// barrier.
    ///
    /// The entries' edges, `degree(v)` of them for entry `v`, are laid end
    /// to end in queue order, and the shared cursor hands out chunks of that
    /// concatenated edge space. A member maps each grab to its pieces by
    /// walking the queue's degrees forward from where its previous grab
    /// ended, and calls `f(v, lo..hi)` for each: edges `lo..hi` of
    /// `0..degree(v)`. So a vertex wider than a chunk spans several grabs,
    /// possibly on several members, while a narrow frontier stays one grab.
    /// Every edge of every entry is passed exactly once; an entry of degree
    /// 0 owns no edge and is never passed.
    ///
    /// A chunk is `grain_edges` edges, cut so each member gets about four
    /// grabs, but never below `grain_edges / 64`: a frontier of a few
    /// edges is one grab. `frontier_edges` must be the entries' degree sum
    /// (summed with [`WorkerCtx::team_sum`], or carried by a round's
    /// closing sum); debug builds check it. The walk also stops at the end
    /// of the queue, so a wrong sum loses edges but cannot overrun. Every
    /// team member must call this at the same point with the same
    /// arguments.
    pub fn for_each_frontier(
        &self,
        frontier: &FrontierBuffer,
        frontier_edges: usize,
        grain_edges: usize,
        degree: impl Fn(u64) -> usize,
        mut f: impl FnMut(u64, Range<usize>),
    ) {
        let len = frontier.len();
        if self.id == 0 {
            debug_assert_eq!(
                frontier.iter().map(&degree).sum::<usize>(),
                frontier_edges,
                "frontier_edges is not the frontier's degree sum"
            );
        }
        let grain = grain_edges.max(1);
        let chunk = (frontier_edges / (4 * self.shared.threads)).clamp(grain.div_ceil(64), grain);
        let degree_of = |i: usize| if i < len { degree(frontier.get(i)) } else { 0 };
        // Entry `i` of the walk covers edge positions `at..at + d`.
        let (mut i, mut at, mut d) = (0, 0, degree_of(0));
        self.for_each_grab(frontier_edges, chunk, |grab| {
            // Skip the entries that end before the grab starts.
            while i < len && at + d <= grab.start {
                (i, at, d) = (i + 1, at + d, degree_of(i + 1));
            }
            while i < len && at < grab.end {
                let (lo, hi) = (grab.start.saturating_sub(at), d.min(grab.end - at));
                if lo < hi {
                    f(frontier.get(i), lo..hi);
                }
                if at + d > grab.end {
                    break; // the entry goes on in a later grab
                }
                (i, at, d) = (i + 1, at + d, degree_of(i + 1));
            }
        });
    }

    /// The lock-step convergence loop of the paper's BFS and CC kernels, a
    /// `reduction(+: progress)` per round, with rounds supplied
    /// automatically.
    ///
    /// Every team member must call this at the same point with the same
    /// `max_rounds` and `first`. Round `i` runs the body with
    /// `Round::from_iteration(i)` — fresh per round, satisfying CAS-LT's
    /// round discipline — and the previous round's lane-wise totals
    /// (`first` in round 1). The body returns this member's contribution:
    /// lane 0 counts its progress, and lane 1 can carry the next round's
    /// inputs. The round's closing rendezvous, its only one, is a
    /// [`TeamSum`] of the contributions: the synchronization point before
    /// dependent reads, the happens-before edge that makes
    /// [`pram_core::ConVec::write_with`]'s contract hold, and the vote.
    /// The loop exits after the first round whose lane-0 total is 0, or
    /// after `max_rounds`.
    ///
    /// The sum's parity slots need no reset, so the call's one opening
    /// rendezvous only opens telemetry round 0 (plain pools pay it too). A
    /// closing rendezvous closes round `i` and, if `i + 1 < max_rounds`,
    /// opens round `i + 1`: it cannot see its own total, and a round opened
    /// but never run records nothing. Every member is parked there, so
    /// every round's deltas are exact; a round counts its opening
    /// rendezvous and its body, never its closing one.
    ///
    /// Not nestable (telemetry keeps one round in flight).
    pub fn converge_rounds(
        &self,
        max_rounds: u32,
        first: [u64; SUM_LANES],
        mut body: impl FnMut(Round, [u64; SUM_LANES]) -> [u64; SUM_LANES],
    ) -> Convergence {
        let shared = self.shared;
        let telem = shared.telem.is_some();
        if max_rounds > 0 {
            self.barrier_with(|| {
                if telem {
                    shared.mark_round(None, true);
                }
            });
        }
        let (mut c, mut totals) = (Convergence::default(), first);
        while c.rounds < max_rounds && !c.converged {
            let i = c.rounds;
            let mine = body(Round::from_iteration(i), totals);
            totals = shared.sum.sum(self.id, mine, || {
                self.barrier_with(|| {
                    if telem {
                        shared.mark_round(Some(i), i + 1 < max_rounds);
                    }
                })
            });
            c.rounds += 1;
            c.converged = totals[0] == 0;
        }
        c
    }

    /// Kernel-side round annotation for telemetry: label the round in
    /// flight (e.g. `"push"` / `"pull"` for a direction-optimizing BFS).
    /// The label is attached to the round's [`RoundSnapshot`] at its
    /// closing barrier. No-op unless [`PoolConfig::telemetry`] is set.
    /// Every member may call it, but only member 0's call records, so
    /// kernels pass the same label from every member.
    #[inline]
    pub fn annotate_round(&self, label: &'static str) {
        if self.id == 0 && self.shared.telem.is_some() {
            self.shared.round_log.lock().label = Some(label);
        }
    }
}

impl PoolShared {
    /// Team-wide claim and exec counter totals (zero when telemetry is
    /// disabled).
    fn counters(&self) -> (CwCounters, ExecCounters) {
        self.telem
            .as_ref()
            .map(CwTelemetry::totals)
            .unwrap_or_default()
    }

    /// Telemetry bookkeeping inside a `converge_rounds` rendezvous, from
    /// one pass over the shards and one clock reading: close round
    /// `closing` and log its deltas, then, if `open`, open the next round
    /// (round 0 after no `closing` starts a new epoch).
    fn mark_round(&self, closing: Option<u32>, open: bool) {
        let (cw, exec) = self.counters();
        let now_ns = self.t0.elapsed().as_nanos() as u64;
        let mut log = self.round_log.lock();
        match closing {
            Some(round) => {
                let (start_ns, base_cw, base_exec) = log.open;
                let label = log.label.take().unwrap_or("");
                let snapshot = RoundSnapshot {
                    epoch: log.epochs - 1,
                    round,
                    label: String::new(),
                    start_ns,
                    wall_ns: now_ns.saturating_sub(start_ns),
                    cw: cw.delta_since(&base_cw),
                    exec: exec.delta_since(&base_exec),
                };
                log.closed.push((label, snapshot));
            }
            None => log.epochs += 1,
        }
        if open {
            log.open = (now_ns, cw, exec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicU8};

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let hits = AtomicU64::new(0);
        pool.run(|ctx| {
            assert_eq!(ctx.thread_id(), 0);
            assert_eq!(ctx.num_threads(), 1);
            hits.fetch_add(1, Ordering::Relaxed);
            ctx.barrier();
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn all_members_execute_the_region() {
        let pool = ThreadPool::new(4);
        let mask = AtomicUsize::new(0);
        pool.run(|ctx| {
            mask.fetch_or(1 << ctx.thread_id(), Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b1111);
    }

    #[test]
    fn regions_are_reusable() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..20 {
            pool.run(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 60);
    }

    fn check_for_each(threads: usize, len: usize, schedule: Schedule) {
        let pool = ThreadPool::new(threads);
        let counts: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        pool.run(|ctx| {
            ctx.for_each(0..len, schedule, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} under {schedule:?}");
        }
    }

    #[test]
    fn for_each_static_covers_exactly_once() {
        check_for_each(4, 103, Schedule::Static);
        check_for_each(3, 2, Schedule::Static);
    }

    #[test]
    fn for_each_dynamic_covers_exactly_once() {
        check_for_each(4, 101, Schedule::Dynamic { chunk: 3 });
        check_for_each(3, 7, Schedule::Dynamic { chunk: 100 });
        check_for_each(1, 50, Schedule::Dynamic { chunk: 4 });
    }

    #[test]
    fn dynamic_grabs_count_chunks_on_skewed_work() {
        // The first quarter of the range is 100x heavier; dynamic grabs
        // still cover everything exactly once, and every chunk is grabbed
        // exactly once team-wide.
        let pool = ThreadPool::with_config(PoolConfig::new(4).telemetry(true));
        let len = 4096;
        let counts: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        pool.run(|ctx| {
            ctx.for_each(0..len, Schedule::Dynamic { chunk: 8 }, |i| {
                if i < len / 4 {
                    std::hint::black_box((0..100).sum::<u64>());
                }
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
        let total = pool.take_round_report().totals_exec;
        assert_eq!(total.grabs, (len / 8) as u64);
    }

    #[test]
    fn repeated_dynamic_loops_are_isolated() {
        // Back-to-back dynamic loops: the ending rendezvous' cursor re-arm
        // must keep one loop's grabs from bleeding into the next.
        let pool = ThreadPool::new(4);
        let a: Vec<AtomicU64> = (0..300).map(|_| AtomicU64::new(0)).collect();
        pool.run(|ctx| {
            for round in 0..20u64 {
                ctx.for_each(0..a.len(), Schedule::Dynamic { chunk: 2 }, |i| {
                    a[i].fetch_add(round + 1, Ordering::Relaxed);
                });
            }
        });
        let expect: u64 = (1..=20).sum();
        for (i, slot) in a.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), expect, "index {i}");
        }
    }

    #[test]
    fn telemetry_pool_runs_all_constructs() {
        let pool = ThreadPool::with_config(PoolConfig::new(4).telemetry(true));
        let sum = AtomicU64::new(0);
        pool.run(|ctx| {
            ctx.for_each(0..1000, Schedule::Dynamic { chunk: 7 }, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            let c = ctx.converge_rounds(10, [0, 0], |round, _| {
                ctx.barrier();
                [u64::from(round.get() < 3), 0]
            });
            assert_eq!(c.rounds, 3);
            assert_eq!(ctx.team_sum([1, 2]), [4, 8]);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1000 * 999 / 2);
        // Every barrier is team-wide, so each records one wait per member.
        let waits = pool.take_round_report().totals_exec.barrier_waits;
        assert!(
            waits > 0 && waits.is_multiple_of(4),
            "barrier_waits = {waits}"
        );
    }

    #[test]
    fn stats_disabled_by_default() {
        let pool = ThreadPool::new(2);
        pool.run(|ctx| {
            ctx.barrier();
        });
        assert_eq!(
            pool.take_round_report().totals_exec,
            ExecCounters::default()
        );
    }

    #[test]
    fn for_each_empty_and_offset_ranges() {
        let pool = ThreadPool::new(2);
        let sum = AtomicU64::new(0);
        pool.run(|ctx| {
            ctx.for_each(10..10, Schedule::default(), |_| unreachable!());
            ctx.for_each(5..10, Schedule::dynamic(), |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5 + 6 + 7 + 8 + 9);
    }

    #[test]
    fn sequential_loops_see_previous_results() {
        // The implicit barrier makes loop 2 observe all of loop 1.
        let pool = ThreadPool::new(4);
        let a: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let b: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run(|ctx| {
            ctx.for_each(0..64, Schedule::default(), |i| {
                a[i].store(i as u64 + 1, Ordering::Relaxed);
            });
            ctx.for_each(0..64, Schedule::default(), |i| {
                // Read a[63-i], written (possibly) by another member.
                b[i].store(a[63 - i].load(Ordering::Relaxed), Ordering::Relaxed);
            });
        });
        for (i, slot) in b.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), (63 - i) as u64 + 1);
        }
    }

    #[test]
    fn telemetry_round_report_records_rounds() {
        use pram_core::CasLtArray;
        let pool = ThreadPool::with_config(PoolConfig::new(3).telemetry(true));
        let cells = CasLtArray::new(4);
        pool.run(|ctx| {
            let c = ctx.converge_rounds(10, [0, 0], |round, _| {
                ctx.annotate_round("claim");
                for i in 0..4 {
                    cells.try_claim(i, round);
                }
                [u64::from(round.get() < 3), 0]
            });
            assert_eq!(c.rounds, 3);
        });
        let report = pool.take_round_report();
        assert_eq!(report.threads, 3);
        assert_eq!(report.rounds.len(), 3);
        assert!(
            report.totals_exec.barrier_waits > 0,
            "telemetry records exec counters"
        );
        let mut last_start = 0;
        for (i, r) in report.rounds.iter().enumerate() {
            assert_eq!(r.epoch, 0);
            assert_eq!(r.round as usize, i);
            assert_eq!(r.label, "claim");
            assert!(r.start_ns >= last_start, "round starts are monotone");
            last_start = r.start_ns;
            // Fully contended CAS-LT round: 3 threads × 4 cells, every
            // claim resolves, exactly one win per cell.
            assert_eq!(r.cw.wins, 4, "round {i}");
            assert_eq!(r.cw.resolutions(), 3 * 4, "round {i}");
            assert_eq!(r.cw.fast_path_skips + r.cw.cas_attempts, 3 * 4, "round {i}");
        }
        assert_eq!(report.totals_cw.wins, 3 * 4);
        // A second epoch, drained separately.
        pool.run(|ctx| {
            ctx.converge_rounds(1, [0, 0], |round, _| {
                cells.try_claim(0, round);
                [1, 0]
            });
        });
        let report2 = pool.take_round_report();
        assert_eq!(report2.rounds.len(), 1);
        assert_eq!(report2.rounds[0].epoch, 1);
        assert!(pool.take_round_report().rounds.is_empty(), "log drains");
    }

    #[test]
    fn telemetry_disabled_pool_records_nothing() {
        let pool = ThreadPool::new(2);
        pool.run(|ctx| {
            ctx.annotate_round("ignored");
            ctx.converge_rounds(2, [0, 0], |_, _| [1, 0]);
        });
        let report = pool.take_round_report();
        assert!(report.rounds.is_empty());
        assert_eq!(report.threads, 2);
    }

    #[test]
    fn converge_rounds_runs_expected_rounds() {
        let pool = ThreadPool::new(4);
        let work = AtomicU64::new(0);
        pool.run(|ctx| {
            // Change for 5 rounds, then stabilize.
            let c = ctx.converge_rounds(100, [0, 0], |round, _| {
                ctx.master(|| {
                    work.fetch_add(1, Ordering::Relaxed);
                });
                [u64::from(round.get() <= 5), 0]
            });
            assert_eq!(c.rounds, 6); // rounds 1..=5 changed, round 6 didn't
            assert!(c.converged);
        });
        assert_eq!(work.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn converge_rounds_respects_max() {
        let pool = ThreadPool::new(2);
        pool.run(|ctx| {
            // Never converges.
            let c = ctx.converge_rounds(3, [0, 0], |_, _| [1, 0]);
            assert_eq!(c.rounds, 3);
            assert!(!c.converged);
        });
    }

    #[test]
    fn converge_rounds_zero_max() {
        let pool = ThreadPool::new(2);
        pool.run(|ctx| {
            let c = ctx.converge_rounds(0, [0, 0], |_, _| unreachable!());
            assert_eq!(c.rounds, 0);
            assert!(!c.converged);
        });
    }

    #[test]
    fn rounds_are_distinct_and_increasing() {
        let pool = ThreadPool::new(3);
        let seen = Mutex::new(Vec::new());
        pool.run(|ctx| {
            ctx.converge_rounds(10, [0, 0], |round, _| {
                ctx.master(|| seen.lock().push(round.get()));
                [u64::from(round.get() < 4), 0]
            });
        });
        assert_eq!(*seen.lock(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn each_round_receives_the_previous_rounds_totals() {
        // Member `id` contributes [5 - k, 10 k + id] in round k, so round
        // 5's lane-0 total is 0 while its lane 1 is not: the loop stops.
        for t in [1u64, 3] {
            let pool = ThreadPool::new(t as usize);
            pool.run(|ctx| {
                let id = ctx.thread_id() as u64;
                let mut want = [7, 9];
                let c = ctx.converge_rounds(100, want, |round, totals| {
                    assert_eq!(totals, want, "T={t}, round {}", round.get());
                    let k = u64::from(round.get());
                    want = [t * (5 - k), t * 10 * k + t * (t - 1) / 2];
                    [5 - k, 10 * k + id]
                });
                assert_eq!(
                    c,
                    Convergence {
                        rounds: 5,
                        converged: true
                    }
                );
            });
        }
    }

    #[test]
    fn master_runs_once() {
        let pool = ThreadPool::new(4);
        let n = AtomicU64::new(0);
        pool.run(|ctx| {
            ctx.master(|| {
                n.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn for_each_2d_covers_the_rectangle_exactly_once() {
        let (rows, cols) = (13, 7);
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..rows * cols).map(|_| AtomicU64::new(0)).collect();
        pool.run(|ctx| {
            ctx.for_each_2d(rows, cols, Schedule::Dynamic { chunk: 5 }, |i, j| {
                assert!(i < rows && j < cols);
                hits[i * cols + j].fetch_add(1, Ordering::Relaxed);
            });
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn for_each_2d_degenerate_dimensions() {
        let pool = ThreadPool::new(2);
        pool.run(|ctx| {
            ctx.for_each_2d(0, 5, Schedule::default(), |_, _| unreachable!());
            ctx.for_each_2d(5, 0, Schedule::default(), |_, _| unreachable!());
        });
    }

    #[test]
    fn team_sum_adds_every_member_once() {
        for t in [1, 4] {
            let pool = ThreadPool::new(t);
            let sums = Mutex::new(Vec::new());
            pool.run(|ctx| {
                let local = (ctx.thread_id() + 1) as u64;
                let total = ctx.team_sum([local, 10 * local]);
                sums.lock().push(total);
            });
            let s = (t * (t + 1) / 2) as u64;
            assert_eq!(*sums.lock(), vec![[s, 10 * s]; t]);
        }
    }

    #[test]
    fn back_to_back_team_sums_do_not_bleed() {
        // No rendezvous between sums: a fast member writes sum k + 1 while
        // a slow one may still be reading sum k, so the two must use
        // different slots.
        let pool = ThreadPool::new(4);
        pool.run(|ctx| {
            for k in 1u64..=50 {
                let id = ctx.thread_id() as u64;
                assert_eq!(ctx.team_sum([k, id * k]), [4 * k, 6 * k], "sum {k}");
            }
        });
    }

    #[test]
    fn panic_in_region_propagates_and_poisons() {
        let pool = ThreadPool::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|ctx| {
                if ctx.thread_id() == 1 {
                    panic!("boom in worker");
                }
                // Other members head to a barrier that will be poisoned.
                ctx.barrier();
            });
        }));
        assert!(r.is_err());
        // The pool is now unusable.
        let r2 = catch_unwind(AssertUnwindSafe(|| pool.run(|_| {})));
        assert!(r2.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_pool_rejected() {
        let _ = ThreadPool::new(0);
    }

    /// A frontier of `degrees.len()` entries, entry `i` carrying vertex id
    /// `i` of weight `degrees[i]`.
    fn weighted_frontier(degrees: &[usize]) -> FrontierBuffer {
        let fb = FrontierBuffer::with_capacity(degrees.len());
        fb.publish(&(0..degrees.len() as u64).collect::<Vec<_>>());
        fb
    }

    #[test]
    fn frontier_loop_covers_every_edge_exactly_once() {
        // Zero-degree entries at the front, between heavy ones and at the
        // end; one entry far wider than a chunk; and the empty frontier.
        let mut degrees = vec![0, 0, 3, 0, 100_000, 1, 0, 7000, 2, 0];
        degrees.extend((0..5000).map(|i| i % 5));
        degrees.push(0);
        let cases = [degrees, vec![0, 0, 0], vec![5], vec![]];
        for t in 1..=4 {
            let pool = ThreadPool::new(t);
            for degrees in &cases {
                let fb = weighted_frontier(degrees);
                let total: usize = degrees.iter().sum();
                let hits: Vec<Vec<AtomicU8>> = degrees
                    .iter()
                    .map(|&d| (0..d).map(|_| AtomicU8::new(0)).collect())
                    .collect();
                pool.run(|ctx| {
                    let degree = |v: u64| degrees[v as usize];
                    ctx.for_each_frontier(&fb, total, 64, degree, |v, edges| {
                        assert!(!edges.is_empty(), "T={t}: empty piece of entry {v}");
                        for e in edges {
                            hits[v as usize][e].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                });
                for (v, row) in hits.iter().enumerate() {
                    for (e, h) in row.iter().enumerate() {
                        let h = h.load(Ordering::Relaxed);
                        assert_eq!(h, 1, "T={t}: entry {v} edge {e} ran {h} times");
                    }
                }
            }
        }
    }

    #[test]
    fn a_wide_entry_spreads_over_at_least_t_grabs() {
        let grain = 256;
        let fb = weighted_frontier(&[10 * grain]);
        for t in 1..=4 {
            let pool = ThreadPool::with_config(PoolConfig::new(t).telemetry(true));
            let edges = AtomicU64::new(0);
            pool.run(|ctx| {
                ctx.for_each_frontier(
                    &fb,
                    10 * grain,
                    grain,
                    |_| 10 * grain,
                    |_, r| {
                        edges.fetch_add(r.len() as u64, Ordering::Relaxed);
                    },
                );
            });
            assert_eq!(edges.load(Ordering::Relaxed), 10 * grain as u64);
            let grabs = pool.take_round_report().totals_exec.grabs;
            assert!(grabs >= t as u64, "T={t}: {grabs} grabs");
        }
    }

    #[test]
    fn a_narrow_frontier_is_one_grab() {
        // A path's one-vertex frontier: splitting it would only add grabs.
        let fb = weighted_frontier(&[2]);
        let pool = ThreadPool::with_config(PoolConfig::new(3).telemetry(true));
        pool.run(|ctx| {
            ctx.for_each_frontier(
                &fb,
                2,
                FRONTIER_GRAIN_EDGES,
                |_| 2,
                |v, r| {
                    assert_eq!((v, r), (0, 0..2));
                },
            );
        });
        assert_eq!(pool.take_round_report().totals_exec.grabs, 1);
    }

    #[test]
    fn oversubscribed_team_still_correct() {
        // More threads than this machine plausibly has cores.
        let pool = ThreadPool::new(16);
        let sum = AtomicU64::new(0);
        pool.run(|ctx| {
            ctx.for_each(0..10_000, Schedule::default(), |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            ctx.barrier();
            ctx.for_each(0..100, Schedule::dynamic(), |_| {});
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10_000 * 9_999 / 2);
    }
}
