//! Microbenchmarks of the execution substrate itself — the costs the
//! OpenMP-substitute adds around every kernel measurement (region entry,
//! barrier crossings, loop scheduling overhead, reductions), so kernel
//! deltas can be attributed to arbitration rather than runtime plumbing.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pram_exec::{Schedule, ThreadPool};

const THREADS: usize = 4;

fn tuned<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    g
}

/// Entering and leaving an empty parallel region.
fn region_entry(c: &mut Criterion) {
    let pool = ThreadPool::new(THREADS);
    let mut g = tuned(c, "substrate_region_entry");
    g.bench_function("empty_region", |b| b.iter(|| pool.run(|_| {})));
    g.finish();
}

/// Amortized cost of one barrier crossing (100 per region).
fn barrier_crossing(c: &mut Criterion) {
    let pool = ThreadPool::new(THREADS);
    let mut g = tuned(c, "substrate_barrier");
    g.bench_function("100_barriers", |b| {
        b.iter(|| {
            pool.run(|ctx| {
                for _ in 0..100 {
                    ctx.barrier();
                }
            })
        })
    });
    g.finish();
}

/// Per-schedule overhead of distributing 100K trivial iterations.
fn loop_scheduling(c: &mut Criterion) {
    let pool = ThreadPool::new(THREADS);
    let mut g = tuned(c, "substrate_for_each_100k");
    let schedules = [
        ("static", Schedule::Static),
        ("dynamic64", Schedule::Dynamic { chunk: 64 }),
    ];
    for (name, sched) in schedules {
        g.bench_with_input(BenchmarkId::from_parameter(name), &sched, |b, &sched| {
            b.iter(|| {
                pool.run(|ctx| {
                    ctx.for_each(0..100_000, sched, |i| {
                        std::hint::black_box(i);
                    });
                })
            })
        });
    }
    g.finish();
}

/// Team-wide reduction cost.
fn reduction(c: &mut Criterion) {
    let pool = ThreadPool::new(THREADS);
    let mut g = tuned(c, "substrate_reduce");
    g.bench_function("sum_u64", |b| {
        b.iter(|| {
            pool.run(|ctx| {
                let total = ctx.reduce(ctx.thread_id() as u64, |a, b| a + b);
                std::hint::black_box(total);
            })
        })
    });
    g.finish();
}

criterion_group!(
    substrate,
    region_entry,
    barrier_crossing,
    loop_scheduling,
    reduction
);
criterion_main!(substrate);
