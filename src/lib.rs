//! # crcw-pram — facade crate
//!
//! One-stop re-export of the workspace implementing
//! *"Implementing Arbitrary/Common Concurrent Writes of CRCW PRAM"*
//! (Ghanim, ElWasif, Bernholdt — ICPP 2021):
//!
//! * [`core`] (`pram-core`) — the concurrent-write arbitration primitives
//!   (CAS-LT, gatekeeper, naive, lock).
//! * [`exec`] (`pram-exec`) — the OpenMP-style execution substrate
//!   (persistent pool, `parallel_for`, barriers, lock-step rounds).
//! * [`sim`] (`pram-sim`) — the ideal CRCW PRAM reference machine.
//! * [`graph`] (`pram-graph`) — CSR graphs, generators, serial references.
//! * [`algos`] (`pram-algos`) — the paper's kernels (Max, BFS, CC) and
//!   extensions, parameterized over the concurrent-write method.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and DESIGN.md /
//! EXPERIMENTS.md for the paper-reproduction map.

pub use pram_algos as algos;
pub use pram_core as core;
pub use pram_exec as exec;
pub use pram_graph as graph;
pub use pram_sim as sim;

/// Commonly used items, importable with one `use crcw_pram::prelude::*`.
pub mod prelude {
    pub use pram_algos::CwMethod;
    pub use pram_core::{
        CasLtArray, CasLtCell, ConCell, ConVec, GatekeeperArray, GatekeeperCell, NaiveArbiter,
        Round, RoundCounter, SliceArbiter,
    };
    pub use pram_exec::{Schedule, ThreadPool};
    pub use pram_graph::{CsrGraph, GraphGen};
}
