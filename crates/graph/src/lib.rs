//! # pram-graph — graph substrate for the paper's BFS and CC benchmarks
//!
//! The paper evaluates its concurrent-write methods on "randomly-generated
//! undirected graphs" with up to 100 K vertices and 30 M edges, stored the
//! Rodinia way: a vertex offset array plus a flat edge-target array — i.e.
//! CSR. This crate provides:
//!
//! * [`CsrGraph`] — compressed sparse row adjacency with `u32` vertex ids
//!   (ample for the paper's scales) built by a member-parallel counting
//!   sort whose output is byte-identical to the serial one.
//! * [`GraphGen`] — seeded generators: uniform G(n, m) multigraphs (the
//!   Rodinia-style random generator), R-MAT skewed graphs, and structured
//!   families (paths, stars, grids, cliques, forests) for tests.
//! * [`serial`] — the sequential ground truth the parallel kernels are
//!   validated against: BFS levels/parents and union–find connected
//!   components.
//!
//! ```
//! use pram_graph::{CsrGraph, GraphGen};
//!
//! let edges = GraphGen::new(42).gnm(1_000, 5_000);
//! let g = CsrGraph::from_edges(1_000, &edges, true);
//! assert_eq!(g.num_vertices(), 1_000);
//! assert_eq!(g.num_directed_edges(), 10_000); // both directions stored
//! let levels = pram_graph::serial::bfs_levels(&g, 0);
//! assert_eq!(levels[0], 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csr;
pub mod gen;
pub mod serial;

pub use csr::{CsrGraph, ReverseCsr};
pub use gen::GraphGen;
pub use serial::DisjointSet;
