//! Integration tests for the team barrier under contention: heavy
//! generation reuse (≥ 1k back-to-back rendezvous on the same barrier
//! object), oversubscribed teams, mixed `wait`/`wait_with` episode
//! sequences and panic poisoning — on [`SpinBarrier`] driven directly and
//! through the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pram_exec::{Schedule, SpinBarrier, ThreadPool};

/// Drive `episodes` back-to-back rendezvous on one barrier object with
/// `threads` OS threads, checking after every episode that no member was
/// released before all arrived (the global arrival counter is monotone:
/// fewer than `threads * (e + 1)` arrivals after episode `e`'s barrier
/// proves an early release).
fn reuse_torture(threads: usize, episodes: usize) {
    let barrier = SpinBarrier::new(threads);
    let arrivals = AtomicUsize::new(0);
    let elections = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for e in 0..episodes {
                    arrivals.fetch_add(1, Ordering::Relaxed);
                    if barrier.wait() {
                        elections.fetch_add(1, Ordering::Relaxed);
                    }
                    let seen = arrivals.load(Ordering::Relaxed);
                    assert!(
                        seen >= threads * (e + 1),
                        "episode {e}: released after {seen} arrivals, need {}",
                        threads * (e + 1)
                    );
                }
            });
        }
    });
    assert_eq!(arrivals.load(Ordering::Relaxed), threads * episodes);
    assert_eq!(elections.load(Ordering::Relaxed), episodes);
}

#[test]
fn generation_reuse_1k_rounds() {
    // ≥ 1k rendezvous on the same object: the arrival reset and the
    // generation bump must survive unbounded reuse without any external
    // reset step.
    reuse_torture(3, 1200);
}

#[test]
fn oversubscribed_contention() {
    // More threads than this box has cores (CI boxes here have very few):
    // the team must still rendezvous correctly, with waiters running
    // through the spin → yield → park backoff escalation.
    reuse_torture(8, 60);
}

#[test]
fn one_releaser_per_episode_under_back_to_back_arrivals() {
    // Members arrive again right after they are released, each after a
    // few spins that vary by member and episode, so two arrivals often
    // land within nanoseconds of each other. A barrier that elects its
    // releaser from a re-load of the count, not from its own `fetch_add`
    // result, then elects two members in one episode, and the second
    // release store can wipe an arrival of the next episode so the team
    // never finishes. The test thread watches the clock and poisons the
    // barrier past the limit, which turns such a hang into a failure.
    const EPISODES: usize = 60_000;
    const LIMIT: Duration = Duration::from_secs(20);
    for threads in 2..=4 {
        let barrier = SpinBarrier::new(threads);
        let releasers: Vec<AtomicU32> = (0..EPISODES).map(|_| AtomicU32::new(0)).collect();
        let finished = std::thread::scope(|s| {
            let members: Vec<_> = (0..threads)
                .map(|id| {
                    let (barrier, releasers) = (&barrier, &releasers);
                    s.spawn(move || {
                        for (e, r) in releasers.iter().enumerate() {
                            for i in 0..(e * (2 * id + 1)) % 64 {
                                std::hint::black_box(i);
                            }
                            if barrier.wait() {
                                r.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            let start = Instant::now();
            while !members.iter().all(|m| m.is_finished()) && start.elapsed() < LIMIT {
                std::thread::sleep(Duration::from_millis(1));
            }
            barrier.poison();
            let joined: Vec<_> = members.into_iter().map(|m| m.join()).collect();
            joined.iter().all(Result::is_ok)
        });
        assert!(
            finished,
            "T = {threads}: {EPISODES} episodes did not finish within {LIMIT:?}"
        );
        for (e, r) in releasers.iter().enumerate() {
            let n = r.load(Ordering::Relaxed);
            assert_eq!(n, 1, "T = {threads}, episode {e}: {n} releasers");
        }
    }
}

#[test]
fn mixed_wait_and_wait_with_episodes() {
    // Alternating plain waits and closure waits on one object: every
    // closure episode's effect must be visible to every member on release.
    let threads = 4;
    let episodes = 300usize;
    let barrier = SpinBarrier::new(threads);
    let stamp = AtomicU32::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for e in 0..episodes {
                    if e % 2 == 0 {
                        barrier.wait();
                    } else {
                        let want = e as u32 + 1;
                        barrier.wait_with(|| stamp.store(want, Ordering::Relaxed));
                        // The elected member ran the closure before
                        // anyone was released.
                        assert_eq!(
                            stamp.load(Ordering::Relaxed),
                            want,
                            "stale closure effect at episode {e}"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn central_poison_releases_all_waiters() {
    // One member poisons instead of arriving: every parked waiter must be
    // woken and panic rather than hang.
    let threads = 4;
    let barrier = Arc::new(SpinBarrier::new(threads));
    let panicked = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 1..threads {
            let barrier = Arc::clone(&barrier);
            let panicked = &panicked;
            s.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| barrier.wait()));
                if r.is_err() {
                    panicked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        barrier.poison();
    });
    assert_eq!(panicked.load(Ordering::Relaxed), threads - 1);
    assert!(barrier.is_poisoned());
}

#[test]
fn pool_loops_correct_under_every_barrier_schedule_policy_combo() {
    // End-to-end through the pool: dependent back-to-back loops (loop 2
    // reads loop 1's writes in reverse) under every combination the pool
    // offers — one barrier, one wait policy, both schedules, mixed.
    let len = 512usize;
    let schedules = [Schedule::Static, Schedule::Dynamic { chunk: 1 }];
    for s1 in schedules {
        for s2 in schedules {
            let pool = ThreadPool::new(4);
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
            assert_eq!(ok.load(Ordering::Relaxed), len, "{s1:?} then {s2:?}");
        }
    }
}

#[test]
fn pool_panic_poisons_team() {
    let pool = ThreadPool::new(3);
    let r = catch_unwind(AssertUnwindSafe(|| {
        pool.run(|ctx| {
            if ctx.thread_id() == 1 {
                panic!("worker failure");
            }
            ctx.barrier();
        });
    }));
    assert!(r.is_err(), "worker panic must propagate to the caller");
    let r2 = catch_unwind(AssertUnwindSafe(|| pool.run(|_| {})));
    assert!(r2.is_err(), "a poisoned pool refuses further regions");
}
