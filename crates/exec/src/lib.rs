//! # pram-exec — an OpenMP-style execution substrate for PRAM kernels
//!
//! The paper implements its kernels with OpenMP: a team of threads enters a
//! parallel region once, then repeatedly loop-schedules an index space and
//! meets at barriers between lock-step rounds
//! (`#pragma omp parallel` / `#pragma omp for` / implicit barriers). This
//! crate is that runtime rebuilt from scratch on `std::thread` + atomics,
//! so the concurrent-write methods of `pram-core` are exercised under the
//! same execution structure the paper measured:
//!
//! * [`ThreadPool`] — a persistent team of workers. [`ThreadPool::run`]
//!   executes one closure on **every** thread of the team (SPMD), like
//!   entering `#pragma omp parallel`, and returns its value on member 0,
//!   the caller's thread.
//! * [`WorkerCtx`] — the per-thread view inside a region:
//!   [`WorkerCtx::for_each`] (OpenMP `for` with a [`Schedule`] — blocked
//!   static or shared-cursor dynamic — and the implicit ending barrier),
//!   [`WorkerCtx::barrier`], [`WorkerCtx::team_sum`] (one rendezvous),
//!   [`WorkerCtx::converge_rounds`] (the lock-step rounds of the paper's
//!   BFS and CC kernels, with barrier-separated [`pram_core::Round`]s
//!   supplied automatically and a `reduction(+: progress)` in each closing
//!   rendezvous deciding convergence), and [`WorkerCtx::rearm`] (the
//!   gatekeeper's per-round reset pass: one
//!   [`pram_core::SliceArbiter::reset_range`] call per member over its
//!   static block).
//! * [`TeamSum`] — the per-round slots behind those two, re-armed by
//!   parity instead of reset passes.
//! * [`SpinBarrier`] — the team rendezvous: a centralized barrier (one
//!   shared word holding the arrival count and the generation) whose
//!   waiters spin, then yield, then park in short timed sleeps
//!   ([`WaitBackoff`]). Its word goes through [`pram_core::sync`], so
//!   `pram-check` model-checks the barrier the kernels run.
//! * [`FrontierBuffer`] / [`LocalBuffer`] — grow-local,
//!   publish-with-one-`fetch_add` shared worklists for frontier-centric
//!   kernels, consumed through the edge-chunked
//!   [`WorkerCtx::for_each_frontier`] loop, and [`zeroed_atomics`], the
//!   zeroed allocation of atomic integer arrays.
//!
//! ## Why lock-step structure matters here
//!
//! PRAM semantics require a synchronization point between a concurrent
//! write and any dependent read (paper §4). Every loop issued through
//! [`WorkerCtx::for_each`] ends in a barrier, and
//! [`WorkerCtx::converge_rounds`] barriers between rounds, so kernels built
//! on this crate satisfy the *round discipline* that
//! [`pram_core::payload`] requires for its multi-word writes — the safety
//! argument is structural, not per-call-site.
//!
//! ```
//! use pram_exec::{Schedule, ThreadPool};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let hits = AtomicU64::new(0);
//! pool.run(|ctx| {
//!     // All 4 threads execute this closure; indices are partitioned.
//!     ctx.for_each(0..1000, Schedule::default(), |_i| {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     });
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 1000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod barrier;
pub mod config;
pub mod frontier;
pub mod pool;
pub mod schedule;
pub mod team;

pub use barrier::{SpinBarrier, WaitBackoff};
pub use config::PoolConfig;
// Telemetry vocabulary re-exported so pool users need not depend on
// pram-core directly for reports.
pub use frontier::{zeroed_atomics, FrontierBuffer, LocalBuffer, ZeroableAtomic};
pub use pool::{ThreadPool, WorkerCtx, FRONTIER_GRAIN_EDGES};
pub use pram_core::{CwCounters, CwTelemetry, ExecCounters, RoundReport, RoundSnapshot};
pub use schedule::Schedule;
pub use team::{TeamSum, SUM_LANES};
