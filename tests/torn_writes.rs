//! Failure injection: why multi-word concurrent writes need arbitration.
//!
//! The paper's §4: "race conditions may produce a structure that does not
//! match any of the ones being written." These tests make the hazard
//! concrete by injecting a preemption point (`yield_now`) between the two
//! component stores of a logical two-word write — exactly the window a
//! descheduled thread leaves open — and show that
//!
//! * the **naive** method commits mixed-writer structures, while
//! * **CAS-LT arbitration** (same injected preemption) never does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use pram_core::{CasLtArray, Round, SliceArbiter};

const CELLS: usize = 8;
const THREADS: usize = 4;
const ROUNDS: u32 = 300;

/// A logical value spread over two words; coherent iff both halves carry
/// the same tag.
struct TwoWord {
    a: AtomicU64,
    b: AtomicU64,
}

impl TwoWord {
    fn new() -> TwoWord {
        TwoWord {
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
    /// The injected-preemption write: store half, get descheduled for a
    /// writer-dependent while, store half. The delay must differ between
    /// writers — identical delays round-robin the threads in lockstep and
    /// the two halves' final writers never invert.
    fn write_split(&self, tag: u64) {
        self.a.store(tag, Ordering::Relaxed);
        for _ in 0..(tag % 3) {
            std::thread::yield_now(); // failure injection
        }
        self.b.store(tag, Ordering::Relaxed);
    }
    fn read_pair(&self) -> (u64, u64) {
        (
            self.a.load(Ordering::Relaxed),
            self.b.load(Ordering::Relaxed),
        )
    }
}

/// Run the two-word write experiment; returns the number of torn
/// (mixed-writer) commits observed across all rounds and cells.
fn run_experiment(arbitrated: bool) -> u64 {
    let cells: Vec<TwoWord> = (0..CELLS).map(|_| TwoWord::new()).collect();
    let arb = CasLtArray::new(CELLS);
    let barrier = Barrier::new(THREADS);
    let torn = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let cells = &cells;
            let arb = &arb;
            let barrier = &barrier;
            let torn = &torn;
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let round = Round::from_iteration(r);
                    barrier.wait(); // open the round
                    let tag = u64::from(r) * 1_000 + t + 1;
                    #[allow(clippy::needless_range_loop)] // c is the claim index
                    for c in 0..CELLS {
                        if !arbitrated || arb.try_claim(c, round) {
                            cells[c].write_split(tag);
                        }
                    }
                    barrier.wait(); // close the round (the sync point)
                    for cell in cells {
                        let (a, b) = cell.read_pair();
                        if a != b {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    torn.load(Ordering::Relaxed)
}

#[test]
fn caslt_arbitration_never_tears_multi_word_writes() {
    assert_eq!(
        run_experiment(true),
        0,
        "a single winner per round must make the two-word write atomic \
         at round granularity"
    );
}

#[test]
fn naive_writes_tear_under_injected_preemption() {
    let torn = run_experiment(false);
    // With a forced preemption point between the component stores and
    // 4 threads × 8 cells × 300 rounds of contention, mixtures are
    // essentially certain. If this ever reports 0, the injection window
    // has stopped working and the demonstration is meaningless.
    assert!(
        torn > 0,
        "expected at least one mixed-writer commit from naive writes"
    );
}

#[test]
fn convec_write_with_is_tear_free_under_the_same_injection() {
    // The packaged multi-word API, same preemption injection inside the
    // winner closure.
    #[derive(Clone, Copy, PartialEq, Debug)]
    struct Pair {
        a: u64,
        b: u64,
    }
    let v: pram_core::ConVec<Pair> = pram_core::ConVec::new(CELLS, |_| Pair { a: 0, b: 0 });
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let v = &v;
            let barrier = &barrier;
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let round = Round::from_iteration(r);
                    barrier.wait();
                    for c in 0..CELLS {
                        let tag = u64::from(r) * 1_000 + t + 1;
                        // SAFETY: barriers separate rounds; reads below
                        // happen only after the closing barrier.
                        unsafe {
                            v.write_with(c, round, |p| {
                                p.a = tag;
                                std::thread::yield_now(); // injection
                                p.b = tag;
                            });
                        }
                    }
                    barrier.wait();
                    for c in 0..CELLS {
                        // SAFETY: the round is closed.
                        let p = unsafe { *v.read(c) };
                        assert_eq!(p.a, p.b, "ConVec committed a mixture");
                    }
                }
            });
        }
    });
}
