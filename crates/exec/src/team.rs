//! Per-round team state that re-arms inside rendezvous its users already
//! pay for: the team sum behind [`crate::WorkerCtx::team_sum`] and every
//! closing rendezvous of [`crate::WorkerCtx::converge_rounds`]. It has no
//! reset pass. Its shared words go through [`pram_core::sync`], so
//! `pram-check` model-checks this code.

use std::sync::atomic::AtomicUsize;

use crossbeam_utils::CachePadded;
use pram_core::sync::{AtomicU64, Ordering};

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
