//! Abstractions over concurrent-write arbitration schemes.
//!
//! All of the paper's methods answer the same question — *"may this thread
//! perform the concurrent write to this target in this round?"* — so kernels
//! are written once against [`SliceArbiter`] and instantiated with whichever
//! scheme is being measured. A single contended cell is a length-1 family.

use crate::round::Round;

/// An indexed family of concurrent-write targets.
///
/// # Contract
///
/// For every `(index, round)` pair, among all concurrently executing
/// `try_claim(index, round)` calls **at most one** returns `true` (the
/// *winner*). Schemes differ in cost, progress guarantees, and in whether
/// re-arming between rounds is free (CAS-LT) or requires a reset pass
/// (gatekeeper).
///
/// The exception is [`crate::NaiveArbiter`], which intentionally violates
/// single-winner semantics to model the "let all writes race" practice; its
/// documentation spells out when that is tolerable.
///
/// Each scheme owns its storage, so a whole-array reset can be a single
/// `memset`-like pass.
pub trait SliceArbiter: Sync {
    /// Number of targets.
    fn len(&self) -> usize;

    /// `true` if the family is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempt to claim target `index` for `round`; `true` means the caller
    /// is the unique winner and must now perform the concurrent write.
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    fn try_claim(&self, index: usize, round: Round) -> bool;

    /// Restore every target to the never-claimed state: one
    /// [`SliceArbiter::reset_range`] over the whole family. Inside a
    /// parallel region each thread resets its own sub-range instead.
    fn reset_all(&self) {
        self.reset_range(0..self.len());
    }

    /// Reset targets `range` only — the building block for parallel
    /// reinitialization, mirroring the paper's
    /// `#pragma omp parallel for … gatekeeper[i] = 0` pass.
    ///
    /// # Safety (logical)
    /// Ranges reset concurrently must be disjoint, and no claims may be in
    /// flight for indices in `range`.
    fn reset_range(&self, range: std::ops::Range<usize>);

    /// Whether a new round re-arms all targets without a reset pass.
    ///
    /// `true` for CAS-LT, the lock arbiter and naive; `false` for the
    /// gatekeeper. Kernels consult this to decide whether to pay the O(K)
    /// reinitialization pass between rounds.
    fn rearms_on_new_round(&self) -> bool;
}

/// Claim several targets of one family for the same round, all-or-nothing
/// in effect: returns `true` only if **every** claim won.
///
/// Claims are attempted in the order given and abandoned at the first
/// loss. There is no rollback — a prefix of won cells stays claimed for
/// the round — because none is needed under the round discipline: a
/// partially-won claim set simply expires when the round advances (the
/// reset-free re-arming CAS-LT provides). Lock-based designs would need
/// explicit undo here; this helper is how `pram_algos::matching` commits
/// its two-endpoint matches.
///
/// `indices` should be in a globally consistent order (e.g. ascending)
/// across all competing claim sets; combined with single-winner claims this
/// guarantees at least one multi-claim succeeds per round among any set of
/// conflicting claimants (see the progress argument in
/// `pram_algos::matching`).
pub fn try_claim_all<A: SliceArbiter + ?Sized>(arb: &A, indices: &[usize], round: Round) -> bool {
    debug_assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "claim sets must be sorted and duplicate-free for the progress guarantee"
    );
    indices.iter().all(|&i| arb.try_claim(i, round))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_claim_all_is_all_or_nothing_in_effect() {
        let arr = crate::CasLtArray::new(4);
        let r = Round::FIRST;
        assert!(try_claim_all(&arr, &[0, 2], r));
        // 1 and 3 are free, but 2 is taken: the set fails...
        assert!(!try_claim_all(&arr, &[1, 2, 3], r));
        // ...claiming 1 on the way (no rollback) — 3 was never reached.
        assert!(!arr.try_claim(1, r));
        assert!(arr.try_claim(3, r));
        // A new round expires all partial claims.
        let r2 = Round::from_iteration(1);
        assert!(try_claim_all(&arr, &[0, 1, 2, 3], r2));
    }

    #[test]
    fn try_claim_all_empty_set_wins() {
        let arr = crate::CasLtArray::new(1);
        assert!(try_claim_all(&arr, &[], Round::FIRST));
    }

    #[test]
    fn is_empty_default() {
        let arr = crate::CasLtArray::new(0);
        assert!(arr.is_empty());
        let arr = crate::CasLtArray::new(3);
        assert!(!arr.is_empty());
    }
}
