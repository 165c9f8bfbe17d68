//! Property tests for the multi-word payload cells: random round
//! schedules, model-checked sequentially and hammered concurrently.

use std::sync::Barrier;

use pram_core::{ConVec, Round};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn convec_sequential_model_check(
        // A random schedule of (cell, round, value) write attempts.
        ops in proptest::collection::vec((0usize..4, 0u32..20, any::<i64>()), 0..60),
    ) {
        // Model: per cell, a write wins iff its round strictly exceeds the
        // last winning round; the payload then equals that write's value.
        let v: ConVec<i64> = ConVec::new(4, |_| 0);
        let mut model: [(Option<u32>, i64); 4] = [(None, 0); 4];
        for &(cell, r, value) in &ops {
            let round = Round::from_iteration(r);
            // SAFETY: single-threaded — the round discipline is trivial.
            let won = unsafe { v.write_with(cell, round, |p| *p = value) };
            let expect = model[cell].0.is_none_or(|last| r > last);
            prop_assert_eq!(won, expect);
            if won {
                model[cell] = (Some(r), value);
            }
            // SAFETY: no concurrent writers.
            prop_assert_eq!(unsafe { *v.read(cell) }, model[cell].1);
        }
        let mut v = v;
        for (cell, m) in model.iter().enumerate() {
            prop_assert_eq!(*v.get_mut(cell), m.1);
        }
    }

    #[test]
    fn convec_concurrent_rounds_commit_exactly_one_writer(
        threads in 2usize..5,
        cells in 1usize..5,
        rounds in 1u32..12,
    ) {
        #[derive(Clone, Copy, PartialEq, Debug)]
        struct Tagged { a: u64, b: u64 }
        let v: ConVec<Tagged> = ConVec::new(cells, |_| Tagged { a: 0, b: 0 });
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads as u64 {
                let v = &v;
                let barrier = &barrier;
                s.spawn(move || {
                    for r in 0..rounds {
                        let round = Round::from_iteration(r);
                        barrier.wait();
                        for c in 0..v.len() {
                            let tag = u64::from(r) * 100 + t + 1;
                            // SAFETY: barrier-separated rounds, reads after
                            // the closing barrier only.
                            unsafe {
                                v.write_with(c, round, |p| {
                                    p.a = tag;
                                    p.b = tag.wrapping_mul(31);
                                });
                            }
                        }
                        barrier.wait();
                        for c in 0..v.len() {
                            // SAFETY: round closed.
                            let p = unsafe { *v.read(c) };
                            assert_eq!(p.b, p.a.wrapping_mul(31), "torn payload");
                            assert_eq!(p.a / 100, u64::from(r), "stale round survived");
                        }
                    }
                });
            }
        });
        prop_assert!(true);
    }
}
