//! Tournament (tree) reduction — the EREW counterpart of the constant-time
//! maximum.
//!
//! The paper's future work proposes comparing "EREW or CREW PRAM
//! algorithms-based implementations currently in use, against relevant
//! implementations of CRCW PRAM algorithms with better Work-Depth
//! asymptotic complexities". This kernel is the classical exclusive-access
//! maximum: pairwise knockout over ⌈log₂ n⌉ barrier-separated levels,
//! depth O(log n), work O(n) — no concurrent writes at all (each slot is
//! read by one pair and written by one winner, EREW-clean).
//!
//! Against [`crate::max::max_index`] (depth O(1), work O(n²), all
//! concurrent writes) this realizes the paper's §6 trade-off concretely:
//! the CRCW algorithm buys constant depth with quadratic work, so on a
//! machine with `P_phys ≪ n` processors Brent's theorem favors the EREW
//! tournament for large `n` — while the CRCW version wins when work fits
//! the machine (small `n`, many processors). The `ext_crew_vs_crcw` bench
//! locates the crossover.

use std::sync::atomic::{AtomicU32, Ordering};

use pram_exec::{Schedule, ThreadPool};

/// Index of the maximum element (ties → larger index, matching the
/// paper's Figure 4 tie-break) by EREW tournament reduction.
///
/// # Panics
/// Panics if `values` is empty or has more than `u32::MAX` elements.
///
/// ```
/// use pram_algos::reduce::max_index_tournament;
/// use pram_exec::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// assert_eq!(max_index_tournament(&[3, 9, 9, 1], &pool), 2);
/// ```
pub fn max_index_tournament(values: &[u64], pool: &ThreadPool) -> usize {
    let n = values.len();
    assert!(n > 0, "maximum of an empty list is undefined");
    assert!(n <= u32::MAX as usize, "indices are u32");

    // Ping-pong candidate buffers (double-buffered so every level is
    // exclusive-read / exclusive-write).
    let bufs: [Vec<AtomicU32>; 2] = [
        (0..n).map(|i| AtomicU32::new(i as u32)).collect(),
        (0..n).map(|_| AtomicU32::new(0)).collect(),
    ];

    // Every member runs the same levels and ends with the same `cur`.
    let cur = pool.run(|ctx| {
        let mut m = n; // live candidates in bufs[cur]
        let mut cur = 0;
        while m > 1 {
            let (src, dst) = (&bufs[cur], &bufs[1 - cur]);
            let half = m.div_ceil(2);
            ctx.for_each(0..half, Schedule::default(), |i| {
                let a = src[2 * i].load(Ordering::Relaxed) as usize;
                let w = if 2 * i + 1 < m {
                    let b = src[2 * i + 1].load(Ordering::Relaxed) as usize;
                    // Paper tie-break: equal values lose on smaller index.
                    if values[a] > values[b] || (values[a] == values[b] && a > b) {
                        a
                    } else {
                        b
                    }
                } else {
                    a // odd one out gets a bye
                };
                dst[i].store(w as u32, Ordering::Relaxed);
            });
            m = half;
            cur = 1 - cur;
        }
        // All members finish the loop together (for_each barriers), with
        // the champion in bufs[cur][0].
        cur
    });
    bufs[cur][0].load(Ordering::Relaxed) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram_graph::serial::max_index_paper_tiebreak;

    #[test]
    fn matches_serial_reference_including_ties() {
        let pool = ThreadPool::new(4);
        let cases: Vec<Vec<u64>> = vec![
            vec![5],
            vec![1, 2],
            vec![2, 1],
            vec![7, 7],
            vec![7, 7, 7, 7, 7],
            (0..97).map(|i| (i * 31) % 13).collect(),
            vec![0, u64::MAX, 3, u64::MAX],
        ];
        for values in &cases {
            assert_eq!(
                max_index_tournament(values, &pool),
                max_index_paper_tiebreak(values),
                "{values:?}"
            );
        }
    }

    #[test]
    fn agrees_with_crcw_max_for_every_method() {
        let pool = ThreadPool::new(3);
        let values: Vec<u64> = (0..200).map(|i: u64| i.wrapping_mul(977) % 541).collect();
        let tournament = max_index_tournament(&values, &pool);
        for m in crate::CwMethod::ALL {
            assert_eq!(crate::max_index(&values, m, &pool), tournament, "{m}");
        }
    }

    #[test]
    fn non_power_of_two_sizes() {
        let pool = ThreadPool::new(2);
        for n in [1usize, 2, 3, 5, 17, 33, 100] {
            let values: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 11).collect();
            assert_eq!(
                max_index_tournament(&values, &pool),
                max_index_paper_tiebreak(&values),
                "n = {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn empty_rejected() {
        let pool = ThreadPool::new(1);
        let _ = max_index_tournament(&[], &pool);
    }
}
