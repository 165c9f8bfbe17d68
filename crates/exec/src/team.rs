//! Per-round team state that re-arms inside rendezvous its users already
//! pay for: the team sum and the convergence flag behind
//! [`crate::WorkerCtx`]. Neither has a reset pass. Their shared words go
//! through [`pram_core::sync`], so `pram-check` model-checks this code.

use std::sync::atomic::AtomicUsize;

use crossbeam_utils::CachePadded;
use pram_core::sync::{AtomicU32, AtomicU64, Ordering};
use pram_core::Round;

/// Lanes of a [`TeamSum`]: every caller sums at most two values.
pub const SUM_LANES: usize = 2;

/// A team-wide lane-wise sum of `u64`s that costs one rendezvous.
///
/// Each member writes its lanes into its own cache-padded slot, passes
/// the rendezvous, then adds up every member's slot. Calls alternate
/// between two slots by parity: a slot is next written two sums later,
/// after the rendezvous of the sum in between, which every member reaches
/// only once it has read this sum. The slots are `Relaxed`: the barrier's
/// release and acquire order each store before every load of the same
/// sum, and each load before the slot's next store.
#[derive(Debug)]
pub struct TeamSum {
    members: Box<[CachePadded<SumSlot>]>,
}

#[derive(Debug, Default)]
struct SumSlot {
    /// Sums this member has entered; only the member itself touches it.
    calls: AtomicUsize,
    lanes: [[AtomicU64; SUM_LANES]; 2],
}

impl TeamSum {
    /// Slots for a team of `threads` members.
    pub fn new(threads: usize) -> TeamSum {
        TeamSum {
            members: (0..threads).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Member `id`'s part in the team's next sum: the lane-wise total of
    /// every member's `value`. Every member must call this at the same
    /// point; `rendezvous` is a team-wide barrier.
    pub fn sum(
        &self,
        id: usize,
        value: [u64; SUM_LANES],
        rendezvous: impl FnOnce() -> bool,
    ) -> [u64; SUM_LANES] {
        let me = &self.members[id];
        let parity = me.calls.fetch_add(1, Ordering::Relaxed) % 2;
        for (slot, v) in me.lanes[parity].iter().zip(value) {
            slot.store(v, Ordering::Relaxed);
        }
        rendezvous();
        let mut total = [0; SUM_LANES];
        for m in self.members.iter() {
            for (t, slot) in total.iter_mut().zip(&m.lanes[parity]) {
                *t += slot.load(Ordering::Relaxed);
            }
        }
        total
    }
}

/// The convergence flag of [`crate::WorkerCtx::converge_rounds`], stamped
/// with the round that set it, as a CAS-LT cell is with the round that won.
///
/// Round `r` changed iff the flag is `≥ r` after its closing rendezvous.
/// Round `r + 1`'s stores come after that rendezvous, so stamps only grow,
/// and a member that reads late sees `r + 1` only if another member saw
/// `r` and went on: every member takes the same decision. `Relaxed`, since
/// the rendezvous on either side of each store orders it.
#[derive(Debug, Default)]
pub struct RoundFlag(AtomicU32);

impl RoundFlag {
    /// Forget every stamp. Call inside a rendezvous before round 1.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Record that `round` changed something.
    #[inline]
    pub fn set(&self, round: Round) {
        self.0.store(round.get(), Ordering::Relaxed);
    }

    /// Whether `round` changed something; authoritative after the round's
    /// closing rendezvous.
    pub fn changed(&self, round: Round) -> bool {
        self.0.load(Ordering::Relaxed) >= round.get()
    }
}
