//! # pram-algos — classic CRCW PRAM kernels over pluggable concurrent-write
//! methods
//!
//! The paper's §7 evaluates its CAS-LT concurrent-write method against the
//! naive and gatekeeper (prefix-sum) practices on three classic CRCW PRAM
//! algorithms. This crate implements those kernels — once each — against
//! the [`pram_core::SliceArbiter`] abstraction, so every kernel runs under
//! every method:
//!
//! * [`max`] — the constant-time maximum algorithm (paper Figure 4):
//!   depth-O(1), work-O(n²), an extreme stress of *common* concurrent
//!   writes.
//! * [`mod@bfs`] — the Rodinia-style level-synchronous breadth-first search
//!   (paper Figure 3): per-level frontier expansion whose vertex-claiming
//!   write updates four arrays at once. Besides the paper's dense scan, a
//!   sparse top-down and a Beamer-style direction-optimizing frontier
//!   strategy run on the same claim substrate ([`BfsStrategy`]).
//! * [`cc`] — Awerbuch–Shiloach connected components: star-based hooking,
//!   the paper's *arbitrary* concurrent-write benchmark (no safe naive
//!   variant exists, as §7.3 explains — hooking updates multiple arrays).
//! * [`any`] — O(1) logical OR (common CW) and first-true (priority CW)
//!   one-step kernels.
//! * [`matching`] — maximal matching whose match commit is a two-cell
//!   arbitrary concurrent write (extension, after the paper's ref. \[23\]).
//! * [`mod@reduce`] / [`mod@list_rank`] / [`mod@scan`] — EREW tournament
//!   reduction, CREW pointer-jumping list ranking, and work-efficient
//!   Blelloch prefix sum: the exclusive-write comparators for the paper's
//!   future-work study (CRCW-with-better-work-depth vs EREW/CREW-in-use),
//!   benched in `ext_crew_vs_crcw`.
//!
//! Every kernel takes a [`CwMethod`] selecting the arbitration scheme and a
//! [`pram_exec::ThreadPool`] to run on, and is validated against the serial
//! references in [`pram_graph::serial`] (and, in the workspace tests,
//! against the ideal machine in `pram-sim`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod any;
pub mod bfs;
pub mod cc;
pub mod list_rank;
pub mod matching;
pub mod max;
pub mod method;
pub mod reduce;
pub mod scan;

pub use any::{first_true, logical_or};
pub use bfs::{bfs, bfs_with_strategy, bfs_with_strategy_rev, BfsResult, BfsStrategy};
pub use cc::{connected_components, CcResult};
pub use list_rank::list_rank;
pub use matching::{maximal_matching, MatchingResult};
pub use max::max_index;
pub use method::CwMethod;
pub use reduce::max_index_tournament;
pub use scan::{exclusive_scan, inclusive_scan};
