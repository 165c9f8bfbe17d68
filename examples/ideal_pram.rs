//! The ideal CRCW PRAM machine: conflict rules, model violations, and
//! work–depth accounting.
//!
//! Run with: `cargo run --release --example ideal_pram`
//!
//! Uses `pram-sim` to show (1) how the §2 conflict-resolution hierarchy
//! behaves on the same program, (2) how exclusive-access models and the
//! Common rule *reject* violating writes rather than computing wrong
//! answers, and (3) the work–depth numbers behind the paper's §6
//! Brent's-theorem analysis, starting with its Figure 4 (constant-time
//! maximum), whose counts the example asserts.

use pram_sim::programs::{bfs_levels, constant_time_max, logical_or};
use pram_sim::{AccessMode, ArbitraryPolicy, Machine, Write, WriteRule};

fn main() {
    // ------------------------------------------------------------------
    // 1. One concurrent-write step under every rule.
    // ------------------------------------------------------------------
    println!("== 1. Five processors write cell 0 concurrently ==");
    let rules: Vec<(&str, WriteRule)> = vec![
        ("Common (all write 7)", WriteRule::Common),
        (
            "Arbitrary (seeded)",
            WriteRule::Arbitrary(ArbitraryPolicy::Seeded(1)),
        ),
        ("Priority min-pid", WriteRule::PriorityMinPid),
        ("Priority min-value", WriteRule::PriorityMinValue),
        (
            "Collision (sentinel -9)",
            WriteRule::Collision { sentinel: -9 },
        ),
    ];
    for (name, rule) in rules {
        let mut m = Machine::zeroed(AccessMode::Crcw(rule), 1);
        let common = matches!(rule, WriteRule::Common);
        m.step(5, |pid, _| {
            let value = if common { 7 } else { 10 + pid as i64 };
            vec![Write::new(0, value)]
        })
        .unwrap();
        println!("   {name:<28} -> cell 0 = {}", m.mem()[0]);
    }

    // ------------------------------------------------------------------
    // 2. Exclusive models and the Common rule fail loudly, not wrongly.
    // ------------------------------------------------------------------
    println!("\n== 2. The same step under CREW and EREW, and a broken Common write ==");
    let mut crew = Machine::zeroed(AccessMode::Crew, 1);
    let err = crew.step(5, |_pid, _| vec![Write::new(0, 7)]).unwrap_err();
    println!("   CREW: {err}");
    let mut erew = Machine::zeroed(AccessMode::Erew, 1);
    let err = erew
        .step(2, |_pid, view| {
            view.read(0);
            vec![]
        })
        .unwrap_err();
    println!("   EREW: {err}");
    let mut common = Machine::zeroed(AccessMode::Crcw(WriteRule::Common), 1);
    let err = common
        .step(8, |pid, _| vec![Write::new(0, pid as i64 % 2)])
        .unwrap_err();
    println!("   Common, writers disagree: {err}");

    // ------------------------------------------------------------------
    // 3. Work–depth accounting for the paper's kernels.
    // ------------------------------------------------------------------
    println!("\n== 3. Work-depth profiles (paper §6) ==");
    let values: Vec<i64> = (0..64).map(|i| (i * 37) % 101).collect();
    let run = constant_time_max(&values, WriteRule::Common).unwrap();
    let t = run.trace;
    println!(
        "   constant-time max (Figure 4, n = 64): max index {} | depth {} work {} \
         issued {} committed {}  (O(1) depth, O(n^2) work)",
        run.output, t.depth, t.work, t.writes_issued, t.writes_committed
    );
    assert_eq!(values[run.output], *values.iter().max().unwrap());
    // Work n^2 + n. Step 1's n^2 - n comparisons each mark one loser and
    // commit on the n - 1 losers' flags; step 2's one survivor publishes.
    assert_eq!((t.depth, t.work), (2, 4160));
    assert_eq!((t.writes_issued, t.writes_committed), (4033, 64));
    println!(
        "      max writers on one cell: {} — the concurrency CAS-LT must tame",
        run.trace.max_writers_per_cell
    );
    for p in [1u64, 8, 32, 1024] {
        println!(
            "      Brent time on P_phys = {p:>4}: {}",
            run.trace.brent_time(p).unwrap()
        );
    }

    let bits: Vec<bool> = (0..1024).map(|i| i % 3 == 0).collect();
    let run = logical_or(&bits, WriteRule::Common).unwrap();
    println!(
        "   logical OR (n = 1024):       depth {} work {}  (impossible in O(1) without CW)",
        run.trace.depth, run.trace.work
    );

    let edges: Vec<(usize, usize)> = (0..999).flat_map(|i| [(i, i + 1), (i + 1, i)]).collect();
    let run = bfs_levels(1000, &edges, 0, WriteRule::Common).unwrap();
    println!(
        "   BFS on a 1000-path:          depth {} work {}  (depth tracks eccentricity)",
        run.trace.depth, run.trace.work
    );
    println!(
        "      farthest vertex level: {}",
        run.output.iter().max().unwrap()
    );
}
