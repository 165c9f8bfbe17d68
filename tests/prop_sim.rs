//! Property tests for the ideal PRAM machine: resolution-rule invariants
//! over randomized write sets, failure atomicity, and trace accounting.

use pram_sim::{AccessMode, ArbitraryPolicy, Machine, PramError, Write, WriteRule};
use proptest::prelude::*;

/// A randomized one-step workload: per processor, an optional write
/// (addr, value) into a small memory.
fn arb_writes(mem: usize, procs: usize) -> impl Strategy<Value = Vec<Option<(usize, i64)>>> {
    proptest::collection::vec(proptest::option::of((0..mem, -50i64..50)), procs..=procs)
}

fn run_step(
    mode: AccessMode,
    mem_len: usize,
    writes: &[Option<(usize, i64)>],
) -> (Result<(), PramError>, Vec<i64>, Machine) {
    let mut m = Machine::zeroed(mode, mem_len);
    let before = m.mem().to_vec();
    let r = m
        .step(writes.len(), |pid, _view| match writes[pid] {
            Some((a, v)) => vec![Write::new(a, v)],
            None => vec![],
        })
        .map(|_| ());
    (r, before, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_commits_only_issued_values(
        writes in arb_writes(6, 12),
        seed in any::<u64>(),
    ) {
        let mode = AccessMode::Crcw(WriteRule::Arbitrary(ArbitraryPolicy::Seeded(seed)));
        let (r, before, m) = run_step(mode, 6, &writes);
        prop_assert!(r.is_ok());
        #[allow(clippy::needless_range_loop)] // addr indexes three arrays
        for addr in 0..6 {
            let now = m.mem()[addr];
            if now != before[addr] {
                prop_assert!(
                    writes.iter().flatten().any(|&(a, v)| a == addr && v == now),
                    "cell {} holds {} which nobody wrote", addr, now
                );
            } else {
                // Unchanged: either untouched, or someone wrote the old
                // value (0) back.
                let touched = writes.iter().flatten().any(|&(a, _)| a == addr);
                if touched {
                    // Whatever committed must still be an issued value.
                    prop_assert!(
                        writes.iter().flatten().any(|&(a, v)| a == addr && v == now)
                    );
                }
            }
        }
    }

    #[test]
    fn priority_min_value_commits_the_minimum(
        writes in arb_writes(4, 10),
    ) {
        let mode = AccessMode::Crcw(WriteRule::PriorityMinValue);
        let (r, _, m) = run_step(mode, 4, &writes);
        prop_assert!(r.is_ok());
        for addr in 0..4 {
            let issued: Vec<i64> = writes
                .iter()
                .flatten()
                .filter(|&&(a, _)| a == addr)
                .map(|&(_, v)| v)
                .collect();
            if let Some(&min) = issued.iter().min() {
                prop_assert_eq!(m.mem()[addr], min, "cell {}", addr);
            }
        }
    }

    #[test]
    fn priority_min_pid_commits_the_first_processor(
        writes in arb_writes(4, 10),
    ) {
        let mode = AccessMode::Crcw(WriteRule::PriorityMinPid);
        let (r, _, m) = run_step(mode, 4, &writes);
        prop_assert!(r.is_ok());
        for addr in 0..4 {
            let first = writes
                .iter()
                .enumerate()
                .find_map(|(pid, w)| match w {
                    Some((a, v)) if *a == addr => Some((pid, *v)),
                    _ => None,
                });
            if let Some((_, v)) = first {
                prop_assert_eq!(m.mem()[addr], v, "cell {}", addr);
            }
        }
    }

    #[test]
    fn exclusive_write_mode_fails_atomically(
        writes in arb_writes(3, 8),
    ) {
        // Under CREW, a step either commits everything (no conflicts) or
        // errors and leaves memory untouched.
        let (r, before, m) = run_step(AccessMode::Crew, 3, &writes);
        let mut per_cell = [0usize; 3];
        for &(a, _) in writes.iter().flatten() {
            per_cell[a] += 1;
        }
        if per_cell.iter().any(|&c| c > 1) {
            let is_conflict = matches!(r, Err(PramError::WriteConflict { .. }));
            prop_assert!(is_conflict, "expected a write conflict");
            prop_assert_eq!(m.mem(), &before[..], "failed step must not commit");
            prop_assert_eq!(m.trace().depth, 0, "failed step must not count");
        } else {
            prop_assert!(r.is_ok());
            for (pid, w) in writes.iter().enumerate() {
                let _ = pid;
                if let Some((a, v)) = w {
                    prop_assert_eq!(m.mem()[*a], *v);
                }
            }
        }
    }

    #[test]
    fn common_rule_is_exactly_value_agreement(
        writes in arb_writes(3, 8),
    ) {
        let (r, _, m) = run_step(AccessMode::Crcw(WriteRule::Common), 3, &writes);
        let mut per_cell: [Vec<i64>; 3] = Default::default();
        for &(a, v) in writes.iter().flatten() {
            per_cell[a].push(v);
        }
        let conflict = per_cell.iter().any(|vs| {
            vs.windows(2).any(|w| w[0] != w[1])
        });
        prop_assert_eq!(r.is_err(), conflict);
        if !conflict {
            for (addr, vs) in per_cell.iter().enumerate() {
                if let Some(&v) = vs.first() {
                    prop_assert_eq!(m.mem()[addr], v);
                }
            }
        }
    }

    #[test]
    fn collision_rule_marks_exactly_the_contended_cells(
        writes in arb_writes(4, 8),
    ) {
        let sentinel = -999;
        let mode = AccessMode::Crcw(WriteRule::Collision { sentinel });
        let (r, _, m) = run_step(mode, 4, &writes);
        prop_assert!(r.is_ok());
        for addr in 0..4 {
            let issued: Vec<i64> = writes
                .iter()
                .flatten()
                .filter(|&&(a, _)| a == addr)
                .map(|&(_, v)| v)
                .collect();
            match issued.len() {
                0 => prop_assert_eq!(m.mem()[addr], 0),
                1 => prop_assert_eq!(m.mem()[addr], issued[0]),
                _ => prop_assert_eq!(m.mem()[addr], sentinel, "cell {}", addr),
            }
        }
    }

    #[test]
    fn trace_work_counts_processors_and_writes_count_commits(
        writes in arb_writes(5, 9),
    ) {
        // The drawn step, and the same step with every cell's later
        // writers dropped, which has no conflict.
        let mut seen = std::collections::HashSet::new();
        let exclusive: Vec<_> = writes
            .iter()
            .map(|w| w.filter(|&(a, _)| seen.insert(a)))
            .collect();
        for writes in [writes, exclusive] {
            let mode = AccessMode::Crcw(WriteRule::Arbitrary(ArbitraryPolicy::MinPid));
            let (r, _, m) = run_step(mode, 5, &writes);
            prop_assert!(r.is_ok());
            let mut writers = [0u64; 5];
            for &(a, _) in writes.iter().flatten() {
                writers[a] += 1;
            }
            let max = writers.iter().copied().max().unwrap();
            let t = m.trace();
            prop_assert_eq!(t.depth, 1);
            prop_assert_eq!(t.work, 9);
            prop_assert_eq!(t.writes_issued, writers.iter().sum::<u64>());
            prop_assert_eq!(t.writes_committed, writers.iter().filter(|&&c| c > 0).count() as u64);
            prop_assert_eq!(t.steps_with_conflicts, u64::from(max > 1));
            prop_assert_eq!(t.max_writers_per_cell, max);
            // `writes` is indexed by pid, so a cell's first writer is its
            // min-pid writer.
            for addr in 0..5 {
                if let Some(&(_, v)) = writes.iter().flatten().find(|&&(a, _)| a == addr) {
                    prop_assert_eq!(m.mem()[addr], v, "cell {}", addr);
                }
            }
        }
    }
}
