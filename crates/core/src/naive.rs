//! The "naive" non-method: let every write happen.
//!
//! Rodinia's OpenMP BFS performs its concurrent writes by simply issuing
//! them from every competing thread and relying on the cache-coherence
//! protocol to serialize the stores. The paper (§4–§5) analyzes when this is
//! tolerable:
//!
//! * **Common writes of one machine word** — every competitor writes the
//!   same value, so it does not matter who wins or whether winners
//!   interleave. Correct, though the redundant stores cause cache-line
//!   invalidation traffic and queueing (§6: the writes serialize, costing
//!   `T(N) = P_PRAM(N)` in the worst case).
//! * **Arbitrary writes, or any multi-word write** — different competitors
//!   write different values (or one logical value spread over several
//!   words), and interleaving can commit a *mixture* that no thread wrote.
//!   The paper's CC kernel is the canonical example: hooking updates two
//!   arrays, so it has no naive variant at all.
//!
//! In Rust there is an additional wrinkle: a racy plain store is Undefined
//! Behaviour regardless of the C-level argument above. The kernels in this
//! workspace therefore model "naive" with **`Relaxed` atomic stores**, which
//! compile to exactly the same x86 `mov` instructions as the C code's plain
//! stores (no `lock` prefix, no fence) while staying defined. The measured
//! cost is the same; the torn-mixture hazard for multi-word writes remains
//! and is demonstrated by `tests/torn_writes.rs` in the workspace root.
//!
//! [`NaiveArbiter`] makes the non-method pluggable: `try_claim` always
//! returns `true`, so a kernel written against [`SliceArbiter`] degenerates
//! to every-thread-writes.

use std::ops::Range;

use crate::round::Round;
use crate::traits::SliceArbiter;

/// Arbitration that never arbitrates: every claimant "wins".
///
/// Plugging this into a kernel reproduces the naive method. It is sound
/// only when the kernel's writes are single-word and common (same value);
/// see the module docs for the full argument.
///
/// ```
/// use pram_core::{NaiveArbiter, SliceArbiter, Round};
///
/// let naive = NaiveArbiter::new(4);
/// assert!(naive.try_claim(2, Round::FIRST));
/// assert!(naive.try_claim(2, Round::FIRST)); // everyone wins
/// ```
#[derive(Debug, Clone)]
pub struct NaiveArbiter {
    len: usize,
}

impl NaiveArbiter {
    /// A no-op arbiter spanning `len` targets.
    ///
    /// No memory is allocated — the naive method's auxiliary space cost is
    /// zero, which is its one genuine advantage.
    #[inline]
    pub const fn new(len: usize) -> NaiveArbiter {
        NaiveArbiter { len }
    }
}

impl SliceArbiter for NaiveArbiter {
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn try_claim(&self, index: usize, _round: Round) -> bool {
        assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        crate::telemetry::record_win();
        true
    }
    fn reset_range(&self, _range: Range<usize>) {}
    fn rearms_on_new_round(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everyone_wins() {
        let n = NaiveArbiter::new(3);
        for _ in 0..5 {
            assert!(n.try_claim(0, Round::FIRST));
        }
        assert_eq!(SliceArbiter::len(&n), 3);
        assert!(n.rearms_on_new_round());
        n.reset_all(); // no-op, must not panic
        n.reset_range(0..3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_are_still_checked() {
        let n = NaiveArbiter::new(3);
        n.try_claim(3, Round::FIRST);
    }
}
