//! The constant-time maximum algorithm (paper Figure 4, evaluated in
//! Figures 5–6).
//!
//! All `n²` ordered pairs are compared in one PRAM step; the loser of each
//! comparison is marked not-max by a **common** concurrent write of
//! `false`. Exactly one flag survives (ties are broken toward the larger
//! index, per the paper's line 9 predicate), and a final scan extracts it.
//! Depth O(1), work O(n²) — deliberately inefficient, chosen by the paper
//! because it is an "extreme case of concurrency" where the entire runtime
//! is concurrent-write handling.
//!
//! The kernel is one `parallel for` over the flattened pair space with one
//! claim + one store in the body, so method-to-method runtime differences
//! are almost pure arbitration cost:
//!
//! * naive — one unconditional `Relaxed` store per losing comparison;
//! * gatekeeper — one atomic `fetch_add` per comparison **plus** the store;
//! * CAS-LT — one `Relaxed` load per comparison; the CAS and store execute
//!   at most once per distinct loser.

use std::sync::atomic::{AtomicU8, Ordering};

use pram_core::{Round, SliceArbiter};
use pram_exec::{Schedule, ThreadPool};

use crate::method::{dispatch_method, CwMethod};

/// Index of the maximum element (ties → larger index), computed by the
/// constant-time CRCW maximum under the given concurrent-write method.
///
/// # Panics
/// Panics if `values` is empty.
///
/// ```
/// use pram_algos::{max_index, CwMethod};
/// use pram_exec::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let values = vec![3, 1, 4, 1, 5, 9, 2, 6];
/// assert_eq!(max_index(&values, CwMethod::CasLt, &pool), 5);
/// ```
pub fn max_index(values: &[u64], method: CwMethod, pool: &ThreadPool) -> usize {
    dispatch_method!(method, values.len(), |arb| max_index_with_arbiter(
        values, &arb, pool
    ))
}

/// The kernel against an explicit arbiter — the hook ablation benches use
/// to compare arbiter variants outside the [`CwMethod`] matrix.
///
/// `arb` must span `values.len()` targets and be freshly armed.
pub fn max_index_with_arbiter<A: SliceArbiter>(
    values: &[u64],
    arb: &A,
    pool: &ThreadPool,
) -> usize {
    let n = values.len();
    assert!(n > 0, "maximum of an empty list is undefined");
    assert_eq!(arb.len(), n, "arbiter must span one cell per element");
    let is_max: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(1)).collect();
    // A single concurrent-write round: the whole algorithm is one step.
    let round = Round::FIRST;

    let pairs = n.checked_mul(n).expect("pair space overflows");
    pool.run(|ctx| {
        // The paper's `#pragma omp for collapse(2)` pair loop, flattened.
        // Static blocked scheduling matches OpenMP's default for this
        // regular loop. `cols`, a copy of `n` local to the region, lets
        // the loop keep the divisor in a register across the claims'
        // atomics instead of reloading it through the region's captures.
        let cols = n;
        ctx.for_each(0..pairs, Schedule::default(), |flat| {
            let (i, j) = (flat / cols, flat % cols);
            if i == j {
                return;
            }
            // Paper line 9: the smaller value loses; ties lose on the
            // smaller index.
            let loser = if values[i] < values[j] || (values[i] == values[j] && i < j) {
                i
            } else {
                j
            };
            // The common concurrent write `isMax[loser] = false`, guarded
            // by the method's claim.
            if arb.try_claim(loser, round) {
                is_max[loser].store(0, Ordering::Relaxed);
            }
        });
    });

    // Serial extraction (excluded from the paper's timings, and from the
    // benches'): exactly one flag survived.
    let winner = is_max
        .iter()
        .position(|f| f.load(Ordering::Relaxed) == 1)
        .expect("exactly one maximum flag must survive");
    debug_assert!(
        is_max[winner + 1..]
            .iter()
            .all(|f| f.load(Ordering::Relaxed) == 0),
        "multiple survivors: tie-break broken"
    );
    winner
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram_graph::serial::max_index_paper_tiebreak;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn all_methods_agree_with_serial_reference() {
        let pool = pool();
        let cases: Vec<Vec<u64>> = vec![
            vec![1],
            vec![2, 1],
            vec![1, 2],
            vec![5, 5, 5],
            vec![9, 1, 9],
            (0..200).map(|i| (i * 31) % 97).collect(),
            vec![u64::MAX, 0, u64::MAX],
        ];
        for values in &cases {
            let expect = max_index_paper_tiebreak(values);
            for m in CwMethod::ALL {
                assert_eq!(
                    max_index(values, m, &pool),
                    expect,
                    "method {m} on {values:?}"
                );
            }
        }
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let values: Vec<u64> = (0..50).map(|i| (i * 7) % 13).collect();
        for m in CwMethod::ALL {
            assert_eq!(
                max_index(&values, m, &pool),
                max_index_paper_tiebreak(&values)
            );
        }
    }

    #[test]
    fn oversubscribed_pool_works() {
        let pool = ThreadPool::new(8);
        let values: Vec<u64> = (0..128).rev().collect();
        assert_eq!(max_index(&values, CwMethod::CasLt, &pool), 0);
    }

    #[test]
    fn telemetry_pool_counts_claims() {
        let pool = ThreadPool::with_config(pram_exec::PoolConfig::new(4).telemetry(true));
        let n = 64usize;
        let values: Vec<u64> = (0..n as u64).collect();
        assert_eq!(max_index(&values, CwMethod::CasLt, &pool), n - 1);
        let cw = pool.take_round_report().totals_cw;
        // Every ordered pair (minus the diagonal) resolves one claim...
        assert_eq!(cw.resolutions(), (n * n - n) as u64);
        // ...but only the n-1 losers are ever won.
        assert_eq!(cw.wins, (n - 1) as u64);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn empty_input_rejected() {
        let pool = ThreadPool::new(1);
        let _ = max_index(&[], CwMethod::CasLt, &pool);
    }
}
