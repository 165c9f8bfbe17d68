//! One-step CRCW kernels: O(1) logical OR (common writes) and first-true
//! (priority writes).
//!
//! Logical OR is the textbook separation between CRCW and the exclusive
//! models — one common-CW step versus Ω(log n) reduction depth — and a
//! minimal end-to-end exercise of every arbitration scheme on a *single*
//! contended cell (index 0 of a length-1 arbiter). First-true
//! demonstrates the paper's §2 hierarchy in the other direction: a
//! *priority* write (strongest rule) built from
//! [`pram_core::PriorityCell`]'s offer/commit protocol, with the pool
//! barrier as the phase separator.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

use pram_core::{PriorityCell, Round, SliceArbiter};
use pram_exec::{Schedule, ThreadPool};

use crate::method::{dispatch_method, CwMethod};

/// O(1)-depth logical OR of `bits` under the given concurrent-write method:
/// every set bit's processor concurrently writes `1` to one shared cell (a
/// common write — all writers agree).
///
/// ```
/// use pram_algos::{logical_or, CwMethod};
/// use pram_exec::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// assert!(logical_or(&[false, true, false], CwMethod::CasLt, &pool));
/// assert!(!logical_or(&[false; 64], CwMethod::Naive, &pool));
/// ```
pub fn logical_or(bits: &[bool], method: CwMethod, pool: &ThreadPool) -> bool {
    fn run<A: SliceArbiter>(bits: &[bool], cell: &A, pool: &ThreadPool) -> bool {
        let result = AtomicU8::new(0);
        pool.run(|ctx| {
            ctx.for_each(0..bits.len(), Schedule::default(), |i| {
                if bits[i] && cell.try_claim(0, Round::FIRST) {
                    result.store(1, Ordering::Relaxed);
                }
            });
        });
        result.into_inner() != 0
    }
    dispatch_method!(method, 1, |cell| run(bits, &cell, pool))
}

/// Index of the first `true` in `bits`, by a priority concurrent write:
/// every set bit offers its index (smaller = higher priority) in one step;
/// after the barrier the unique winner publishes.
///
/// Returns `None` if no bit is set.
pub fn first_true(bits: &[bool], pool: &ThreadPool) -> Option<usize> {
    let cell = PriorityCell::new();
    let round = Round::FIRST;
    let winner = AtomicU32::new(u32::MAX);
    assert!(
        bits.len() < u32::MAX as usize,
        "index space exceeds u32 priorities"
    );
    pool.run(|ctx| {
        // Offer phase: a priority write is issued by every set bit.
        ctx.for_each(0..bits.len(), Schedule::default(), |i| {
            if bits[i] {
                cell.offer(round, i as u32);
            }
        });
        // for_each's implicit barrier separates offer from commit.
        ctx.for_each(0..bits.len(), Schedule::default(), |i| {
            if bits[i] && cell.is_winner(round, i as u32) {
                // Unique winner: exclusive write.
                winner.store(i as u32, Ordering::Relaxed);
            }
        });
    });
    match winner.into_inner() {
        u32::MAX => None,
        w => Some(w as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_all_methods_all_patterns() {
        let pool = ThreadPool::new(4);
        let patterns: Vec<Vec<bool>> = vec![
            vec![],
            vec![false; 100],
            vec![true; 100],
            (0..100).map(|i| i == 99).collect(),
            (0..100).map(|i| i % 7 == 0).collect(),
        ];
        for bits in &patterns {
            let expect = bits.iter().any(|&b| b);
            for m in CwMethod::ALL {
                assert_eq!(logical_or(bits, m, &pool), expect, "{m} on {bits:?}");
            }
        }
    }

    #[test]
    fn first_true_finds_global_minimum_index() {
        let pool = ThreadPool::new(4);
        let mut bits = vec![false; 500];
        bits[137] = true;
        bits[400] = true;
        bits[138] = true;
        assert_eq!(first_true(&bits, &pool), Some(137));
    }

    #[test]
    fn first_true_none_when_empty() {
        let pool = ThreadPool::new(2);
        assert_eq!(first_true(&[], &pool), None);
        assert_eq!(first_true(&[false; 64], &pool), None);
    }

    #[test]
    fn first_true_single_bit_positions() {
        let pool = ThreadPool::new(3);
        for pos in [0usize, 1, 63, 64, 99] {
            let mut bits = vec![false; 100];
            bits[pos] = true;
            assert_eq!(first_true(&bits, &pool), Some(pos));
        }
    }
}
