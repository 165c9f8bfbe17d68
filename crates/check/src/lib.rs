//! # pram-check — deterministic schedule exploration for the arbitration substrate
//!
//! The entire reproduction rests on one invariant: among all concurrently
//! executing `try_claim(cell, round)` calls, **at most one** wins
//! (`pram_core::traits`). Stress tests on OS threads exercise it
//! statistically, but cannot reliably reach the narrow interleavings where
//! an arbiter could break — the read-skip fast path racing a round advance,
//! a gatekeeper reused without reset, a claim lost between a load and a
//! store. This crate reaches them deterministically.
//!
//! ## How it works
//!
//! `pram-core` routes every atomic it arbitrates with through its
//! `pram_core::sync` facade. Built normally, the facade is a zero-cost
//! re-export of `std::sync::atomic` / `parking_lot`. Built with
//! `RUSTFLAGS="--cfg pram_check"`, each atomic operation first reports to a
//! per-thread hook before executing. This crate installs that hook: model
//! threads are real OS threads, but they run in **lockstep** — every thread
//! parks at each atomic operation until a scheduler grants it the next
//! step, so exactly one thread runs between scheduling points and every
//! execution is a deterministic function of the schedule (the sequence of
//! granted thread IDs).
//!
//! On top of the lockstep executor (`executor`, `--cfg pram_check` only):
//!
//! * `explore::explore_exhaustive` — DFS over the schedule tree: every
//!   interleaving of a small model (≤ 3 threads × short programs) is
//!   executed. Completing without a violation is a proof within the bound.
//! * `explore::explore_random` — seeded random + PCT-style priority
//!   schedules for configurations too large to exhaust. Any failure prints
//!   the seed; the same seed replays the same execution.
//! * `explore::replay` — re-run one recorded schedule (the `Vec<usize>`
//!   of granted thread IDs printed with every violation).
//!
//! `models` packages the substrate's invariants as checkable `models::Model`s
//! (single winner, reset/re-arm, priority minimum, payload non-tearing),
//! `sync_models` extends the same treatment to the execution substrate's
//! own synchronization (the team barrier's no-early-release /
//! generation-reuse / `wait_with`-visibility / single-election contract,
//! checked on the `SpinBarrier` every kernel runs, plus the pool's team
//! sum, alone and as the convergence vote), and [`buggy`] provides
//! deliberately broken implementations — a check-then-act CAS-LT, a
//! gatekeeper that decides on a counter *read*, a barrier whose
//! last-arriver test re-reads the arrival counter, a team sum without
//! parity — that the checker must *catch*, pinning its own sensitivity.
//!
//! The schedule policies ([`schedule`]) and the buggy arbiters compile and
//! unit-test in every build; only the executor/explorer/models need the
//! instrumented cfg. The full matrix runs from the workspace root:
//!
//! ```text
//! RUSTFLAGS="--cfg pram_check" cargo test -p crcw-pram --test check_arbiters
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buggy;
pub mod schedule;

#[cfg(pram_check)]
pub mod executor;
#[cfg(pram_check)]
pub mod explore;
#[cfg(pram_check)]
pub mod models;
#[cfg(pram_check)]
pub mod sync_models;

pub use buggy::{
    BuggyCasLtArray, BuggyCasLtCell, BuggySpinBarrier, BuggyTeamSum, CountingClaimCell,
};
pub use schedule::{Chooser, DfsChooser, FixedChooser, PctChooser, RandomChooser};

#[cfg(pram_check)]
pub use executor::{run_one, RunOutcome};
#[cfg(pram_check)]
pub use explore::{
    explore_exhaustive, explore_random, replay, replay_seed, ExploreOptions, ExploreReport,
    Violation,
};
#[cfg(pram_check)]
pub use models::{Model, TelemetryPassive};
#[cfg(pram_check)]
pub use sync_models::{BarrierLockstep, ConvergeLockstep, ModelBarrier, ModelSum, TeamSumLockstep};
