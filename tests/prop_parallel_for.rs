//! Property tests for the execution substrate: every scheduling policy
//! must execute every index exactly once, for any (length, team, chunk)
//! configuration, the lock-step convergence driver must behave like its
//! sequential model, and a `master` block runs once per region.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use pram_exec::{Schedule, ThreadPool};
use proptest::prelude::*;

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..9).prop_map(|c| Schedule::Dynamic { chunk: c }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_index_executes_exactly_once(
        threads in 1usize..7,
        len in 0usize..400,
        schedule in arb_schedule(),
    ) {
        let pool = ThreadPool::new(threads);
        let counts: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        pool.run(|ctx| {
            ctx.for_each(0..len, schedule, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {} under {:?}", i, schedule);
        }
    }

    #[test]
    fn consecutive_loops_with_different_schedules_compose(
        threads in 1usize..6,
        len in 1usize..200,
        s1 in arb_schedule(),
        s2 in arb_schedule(),
    ) {
        // Loop 2 reads what loop 1 wrote, in reverse — correct only if the
        // implicit barrier between them is airtight.
        let pool = ThreadPool::new(threads);
        let a: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        let ok = AtomicUsize::new(0);
        pool.run(|ctx| {
            ctx.for_each(0..len, s1, |i| a[i].store(i as u32 + 1, Ordering::Relaxed));
            ctx.for_each(0..len, s2, |i| {
                if a[len - 1 - i].load(Ordering::Relaxed) == (len - i) as u32 {
                    ok.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        prop_assert_eq!(ok.load(Ordering::Relaxed), len);
    }

    #[test]
    fn converge_rounds_matches_sequential_model(
        threads in 1usize..6,
        change_for in 0u32..12,
        max_rounds in 0u32..16,
    ) {
        // Model: round i changes iff i <= change_for; the loop must run
        // min(change_for + 1, max_rounds) rounds and report convergence
        // iff it saw an unchanged round within the budget. Every round
        // after the first receives the previous round's exact totals.
        let pool = ThreadPool::new(threads);
        let executed = AtomicU32::new(0);
        let converged = AtomicUsize::new(usize::MAX);
        let wrong_totals = AtomicU32::new(0);
        let t = threads as u64;
        pool.run(|ctx| {
            let id = ctx.thread_id() as u64;
            let c = ctx.converge_rounds(max_rounds, [3, 4], |round, totals| {
                let r = round.get();
                let want = if r == 1 {
                    [3, 4]
                } else {
                    [t * u64::from(r - 1 <= change_for), t * (t - 1) / 2]
                };
                if totals != want {
                    wrong_totals.fetch_add(1, Ordering::Relaxed);
                }
                [u64::from(r <= change_for), id]
            });
            executed.store(c.rounds, Ordering::Relaxed);
            converged.store(usize::from(c.converged), Ordering::Relaxed);
        });
        let expect_rounds = (change_for + 1).min(max_rounds);
        prop_assert_eq!(executed.load(Ordering::Relaxed), expect_rounds);
        let expect_converged = usize::from(max_rounds > change_for && max_rounds > 0);
        prop_assert_eq!(converged.load(Ordering::Relaxed), expect_converged);
        prop_assert_eq!(wrong_totals.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dynamic_covers_skewed_work_exactly_once(
        threads in 2usize..7,
        len in 1usize..400,
        chunk in 1usize..9,
        skew_pow in 0u32..6,
    ) {
        // Body cost grows with the index (2^skew_pow spins at the top end),
        // so members holding tail chunks finish last while the others keep
        // grabbing — coverage must still be exactly-once.
        let pool = ThreadPool::new(threads);
        let counts: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        pool.run(|ctx| {
            ctx.for_each(0..len, Schedule::Dynamic { chunk }, |i| {
                let spins = (i * (1usize << skew_pow)) / len.max(1);
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(
                c.load(Ordering::Relaxed), 1,
                "index {} under dynamic chunk {}", i, chunk
            );
        }
    }

    #[test]
    fn nested_sequence_of_regions_is_stable(
        threads in 1usize..5,
        regions in 1usize..8,
    ) {
        let pool = ThreadPool::new(threads);
        let total = AtomicU32::new(0);
        let masters = AtomicU32::new(0);
        for _ in 0..regions {
            pool.run(|ctx| {
                ctx.master(|| {
                    masters.fetch_add(1, Ordering::Relaxed);
                });
                ctx.for_each(0..threads * 3, Schedule::Dynamic { chunk: 1 }, |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        prop_assert_eq!(total.load(Ordering::Relaxed) as usize, regions * threads * 3);
        prop_assert_eq!(masters.load(Ordering::Relaxed) as usize, regions);
    }
}
