//! # pram-core — concurrent-write arbitration for CRCW PRAM kernels
//!
//! The Concurrent Read Concurrent Write (CRCW) PRAM model allows many
//! processors to write the same shared-memory cell in the same time step.
//! Real multicores do not: unsynchronized concurrent stores are a data race,
//! and even when each individual store is made atomic, a logical write that
//! spans several words (a struct copy, or updates to several parallel
//! arrays) can be torn between competing writers.
//!
//! This crate implements the four concurrent-write methods studied in
//! *"Implementing Arbitrary/Common Concurrent Writes of CRCW PRAM"*
//! (Ghanim, ElWasif, Bernholdt — ICPP 2021), each as a [`SliceArbiter`]
//! over an array of claim targets:
//!
//! * [`CasLtCell`] / [`CasLtArray`] — the paper's contribution, the
//!   **CAS-if-Less-Than** (CAS-LT) claim. One auxiliary word per
//!   concurrent-write target records the ID of the last *round* in which the
//!   target was claimed. A competing thread first loads the word; if it
//!   already equals the current round the write has been claimed and the
//!   thread skips both the atomic and the write (the contention-free fast
//!   path). Otherwise it issues a single compare-and-swap from the observed
//!   stale value to the current round; exactly one competitor succeeds and
//!   becomes the **winner**. Advancing the round ID re-arms every cell at
//!   zero cost — no reinitialization pass is ever needed.
//! * [`GatekeeperCell`] / [`GatekeeperArray`] — the XMT-inspired prefix-sum
//!   method (Vishkin et al. 2008): every competitor unconditionally performs
//!   an atomic fetch-and-increment on a per-target gatekeeper; the thread
//!   that observed `0` wins. All competitors serialize on the atomic, and
//!   the gatekeeper array must be re-zeroed before every new round.
//! * [`NaiveArbiter`] — no arbitration: every competitor "wins". This is
//!   the Rodinia-BFS practice of issuing all writes and letting the memory
//!   system serialize them. It is only sound for *common* writes of a single
//!   machine word; [`naive`] documents why.
//! * [`LockCell`] / [`LockArray`] — the trivial-but-bad critical-section
//!   baseline.
//!
//! Beside them, multi-word payloads are covered by [`ConCell`] and [`ConVec`]
//! (claim-then-publish cells whose winner gains exclusive `&mut` access for
//! the duration of the round).
//!
//! ## The round discipline
//!
//! Rounds are the unit of re-arming. A *round* corresponds to one PRAM time
//! step containing concurrent writes; all claims issued with the same
//! [`Round`] compete, and exactly one wins per cell. Before the next
//! concurrent-write step, obtain a fresh round from a [`RoundCounter`]
//! (or reuse a loop iteration counter, as the paper suggests). A
//! **synchronization point** (barrier) is required between the writes of one
//! round and any dependent reads — arbitration orders *writers*, not
//! readers; see [`ordering`] for the memory-ordering argument.
//!
//! ## Quick example
//!
//! Every array is claimed, measured and reset through [`SliceArbiter`], so
//! the trait is in scope wherever an array is used.
//!
//! ```
//! use pram_core::{CasLtArray, RoundCounter, SliceArbiter};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let cells = CasLtArray::new(1);
//! let winner_count = AtomicUsize::new(0);
//! let mut rounds = RoundCounter::new();
//! let round = rounds.next_round().unwrap();
//!
//! std::thread::scope(|s| {
//!     for _ in 0..8 {
//!         s.spawn(|| {
//!             if cells.try_claim(0, round) {
//!                 // we are the unique winner for (cell 0, this round)
//!                 winner_count.fetch_add(1, Ordering::Relaxed);
//!             }
//!         });
//!     }
//! });
//! assert_eq!(winner_count.load(Ordering::Relaxed), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitmap;
pub mod caslt;
pub mod gatekeeper;
pub mod lock;
pub mod naive;
pub mod ordering;
pub mod payload;
pub mod round;
pub mod sync;
pub mod telemetry;
pub mod traits;

pub use bitmap::AtomicBitmap;
pub use caslt::{CasLtArray, CasLtCell};
pub use gatekeeper::{GatekeeperArray, GatekeeperCell};
pub use lock::{LockArray, LockCell};
pub use naive::NaiveArbiter;
pub use payload::{ConCell, ConVec};
pub use round::{Round, RoundCounter, RoundOverflow};
pub use telemetry::{
    CwCounters, CwTelemetry, ExecCounters, RoundReport, RoundSnapshot, ShardGuard, TelemetryShard,
};
pub use traits::{try_claim_all, SliceArbiter};
