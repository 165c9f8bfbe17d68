//! Loop scheduling policies — the `schedule(...)` clause of OpenMP `for`.
//!
//! [`Schedule`] selects how [`crate::WorkerCtx::for_each`] partitions an
//! index space across the team:
//!
//! * **Static** — each thread gets one contiguous block, computed up front:
//!   no shared state, no atomics. This is OpenMP's default schedule, and
//!   the one the paper's kernels all use.
//! * **Dynamic** — threads repeatedly grab the next `chunk` indices from a
//!   shared cursor. Load-balances irregular iterations (e.g. BFS frontier
//!   expansion over skewed degree distributions) at the cost of one atomic
//!   RMW per chunk.
//!
//! The pure partitioning arithmetic lives here, separately testable; the
//! shared-cursor choreography lives in [`crate::pool`].

use std::ops::Range;

/// Loop scheduling policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Blocked partitioning: one contiguous block per thread.
    #[default]
    Static,
    /// Shared-cursor chunking with a fixed grab size.
    Dynamic {
        /// Indices grabbed per atomic operation (≥ 1).
        chunk: usize,
    },
}

/// The contiguous block thread `tid` of `threads` owns under blocked-static
/// scheduling of `len` indices: the first `len % threads` threads get one
/// extra index.
pub fn static_block(len: usize, threads: usize, tid: usize) -> Range<usize> {
    debug_assert!(tid < threads);
    let base = len / threads;
    let extra = len % threads;
    let start = tid * base + tid.min(extra);
    let size = base + usize::from(tid < extra);
    start..start + size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_block_is_a_partition() {
        for &(len, threads) in &[(0, 1), (1, 4), (10, 3), (100, 7), (5, 8), (64, 64)] {
            let mut seen = vec![false; len];
            for i in (0..threads).flat_map(|t| static_block(len, threads, t)) {
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s), "some index unassigned");
        }
    }

    #[test]
    fn static_block_is_balanced() {
        let sizes: Vec<usize> = (0..7).map(|t| static_block(100, 7, t).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "imbalance: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 100);
    }

    #[test]
    fn default_is_blocked_static() {
        assert_eq!(Schedule::default(), Schedule::Static);
    }
}
