//! The one-step CRCW kernel: O(1) logical OR by common writes.
//!
//! Logical OR is the textbook separation between CRCW and the exclusive
//! models — one common-CW step versus Ω(log n) reduction depth — and a
//! minimal end-to-end exercise of every arbitration scheme on a *single*
//! contended cell (index 0 of a length-1 arbiter).

use std::sync::atomic::{AtomicU8, Ordering};

use pram_core::{Round, SliceArbiter};
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
}
