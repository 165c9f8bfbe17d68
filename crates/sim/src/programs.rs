//! Canonical CRCW PRAM programs, interpreted on the ideal machine.
//!
//! These are the abstract-machine twins of the threaded kernels in
//! `pram-algos`: same algorithms, executed under exact PRAM semantics with
//! work–depth accounting. Integration tests cross-validate the threaded
//! results against these, and the examples use them to show what the
//! paper's §6 analysis looks like when measured in model steps.

use crate::error::PramError;
use crate::machine::{AccessMode, Machine, WriteRule};
use crate::memory::Write;
use crate::trace::Trace;

/// Result of a simulator program: the answer plus its work–depth trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramRun<T> {
    /// The program's output.
    pub output: T,
    /// Work–depth accounting for the whole run.
    pub trace: Trace,
}

/// The paper's Figure 4 — the constant-time maximum algorithm — on the
/// ideal machine.
///
/// `n²` processors compare all ordered pairs in one step; the loser of each
/// comparison is marked not-max by a **common** concurrent write of `0`
/// (all writers agree), then one more step extracts the unique surviving
/// index. Depth 2, work `n² + n` — the O(1)-depth, O(n²)-work profile of
/// §7.2. Ties break exactly as the paper's line 9: on equal values the
/// smaller index is marked, so the largest index among maxima survives.
///
/// Returns the index of the maximum. `rule` must admit common writes
/// ([`WriteRule::Common`] or stronger).
pub fn constant_time_max(values: &[i64], rule: WriteRule) -> Result<ProgramRun<usize>, PramError> {
    let n = values.len();
    assert!(n > 0, "maximum of an empty list is undefined");
    // Layout: [0, n) values | [n, 2n) isMax flags | 2n: result index.
    let mut mem = Vec::with_capacity(2 * n + 1);
    mem.extend_from_slice(values);
    mem.extend(std::iter::repeat_n(1, n));
    mem.push(-1);
    let mut m = Machine::new(AccessMode::Crcw(rule), mem);

    // Step 1: all-pairs knockout; n² processors, one common CW per loser.
    m.step(n * n, |pid, view| {
        let (i, j) = (pid / n, pid % n);
        if i == j {
            return vec![];
        }
        let (vi, vj) = (view.read(i), view.read(j));
        let loser = if vi < vj || (vi == vj && i < j) { i } else { j };
        vec![Write::new(n + loser, 0)]
    })?;

    // Step 2: the unique survivor publishes its index (exclusive write).
    m.step(n, |pid, view| {
        if view.read(n + pid) == 1 {
            vec![Write::new(2 * n, pid as i64)]
        } else {
            vec![]
        }
    })?;

    let idx = m.mem()[2 * n];
    debug_assert!(idx >= 0);
    Ok(ProgramRun {
        output: idx as usize,
        trace: *m.trace(),
    })
}

/// O(1)-depth logical OR of `n` bits — the textbook demonstration that
/// common CRCW strictly beats exclusive-write models (where OR needs
/// Ω(log n) depth).
///
/// Every processor holding a 1 writes 1 to the result cell in the same
/// step; all writers agree, so the write is common.
pub fn logical_or(bits: &[bool], rule: WriteRule) -> Result<ProgramRun<bool>, PramError> {
    let n = bits.len();
    // Layout: [0, n) bits | n: result.
    let mut mem: Vec<i64> = bits.iter().map(|&b| i64::from(b)).collect();
    mem.push(0);
    let mut m = Machine::new(AccessMode::Crcw(rule), mem);
    m.step(n, |pid, view| {
        if view.read(pid) != 0 {
            vec![Write::new(n, 1)]
        } else {
            vec![]
        }
    })?;
    Ok(ProgramRun {
        output: m.mem()[n] != 0,
        trace: *m.trace(),
    })
}

/// Hook-to-minimum connected components (simplified Shiloach–Vishkin) on
/// the ideal machine — the **arbitrary**-CW reference for the fixed point
/// of the threaded Awerbuch–Shiloach kernel, `pram_algos::cc`.
///
/// Each iteration is three PRAM steps: clear the change flag; hook (one
/// processor per directed edge: if `D[v] < D[u]` and `D[u]` is a root,
/// write `D[D[u]] = D[v]` — several edges write *different* values to the
/// same root cell, so the machine's arbitrary rule elects the winner);
/// shortcut (`D[v] = D[D[v]]`, exclusive per vertex). Repeats until no
/// change. Whatever winner the arbitrary rule picks, committed hooks
/// strictly decrease root values, so the fixed point labels every vertex
/// with its component's minimum id — the same canonical output as the
/// threaded kernel, which the workspace cross-validates. The two agree at
/// the fixed point only: the threaded kernel also hooks stagnant stars
/// unconditionally and walks every vertex to its root where this program
/// jumps once, so their iterations differ.
pub fn sv_components(
    n: usize,
    edges: &[(usize, usize)],
    rule: WriteRule,
) -> Result<ProgramRun<Vec<u32>>, PramError> {
    for &(u, v) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
    }
    // Layout: [0, n) parent D | n: changed flag.
    let mut mem: Vec<i64> = (0..n as i64).collect();
    mem.push(0);
    let mut m = Machine::new(AccessMode::Crcw(rule), mem);

    loop {
        m.step(1, |_pid, _view| vec![Write::new(n, 0)])?;
        // Hook: arbitrary CW onto root cells.
        m.step(edges.len(), |pid, view| {
            let (u, v) = edges[pid];
            let du = view.read(u);
            let dv = view.read(v);
            if dv < du && view.read(du as usize) == du {
                vec![Write::new(du as usize, dv), Write::new(n, 1)]
            } else {
                vec![]
            }
        })?;
        // Shortcut: exclusive write per vertex.
        m.step(n, |pid, view| {
            let dv = view.read(pid);
            let ddv = view.read(dv as usize);
            if ddv != dv {
                vec![Write::new(pid, ddv), Write::new(n, 1)]
            } else {
                vec![]
            }
        })?;
        if m.mem()[n] == 0 {
            break;
        }
    }

    // Contract to roots (serial postprocessing, as in the threaded kernel).
    let d: Vec<i64> = m.mem()[..n].to_vec();
    let labels = (0..n)
        .map(|v| {
            let mut x = v;
            while d[x] as usize != x {
                x = d[x] as usize;
            }
            x as u32
        })
        .collect();
    Ok(ProgramRun {
        output: labels,
        trace: *m.trace(),
    })
}

/// O(1)-depth first-set-bit via a **priority** concurrent write (the
/// strongest §2 rule): every processor holding a 1 writes its own index to
/// the result cell in one step; under [`WriteRule::PriorityMinValue`] the
/// smallest index commits.
///
/// Returns `None` if no bit is set. The threaded counterpart is
/// `pram_algos::first_true`, which simulates the same rule with
/// `PriorityCell`'s two-phase offer/commit protocol; the workspace's
/// cross-validation tests hold the two to identical outputs.
pub fn first_one(bits: &[bool]) -> Result<ProgramRun<Option<usize>>, PramError> {
    let n = bits.len();
    // Layout: [0, n) bits | n: result index (−1 = none).
    let mut mem: Vec<i64> = bits.iter().map(|&b| i64::from(b)).collect();
    mem.push(-1);
    let mut m = Machine::new(AccessMode::Crcw(WriteRule::PriorityMinValue), mem);
    m.step(n, |pid, view| {
        if view.read(pid) != 0 {
            vec![Write::new(n, pid as i64)]
        } else {
            vec![]
        }
    })?;
    let out = match m.mem()[n] {
        -1 => None,
        i => Some(i as usize),
    };
    Ok(ProgramRun {
        output: out,
        trace: *m.trace(),
    })
}

/// Level-synchronous BFS (the paper's Figure 3 structure) on the ideal
/// machine, one processor per directed edge per level.
///
/// Frontier expansion writes `level[v] = L + 1` concurrently from every
/// in-frontier neighbor of `v` — a **common** concurrent write (all writers
/// agree on the value), plus a common write to the `done` flag. Returns the
/// level of every vertex (−1 = unreachable).
///
/// `edges` are directed pairs `(u, v)`; pass both directions for an
/// undirected graph.
pub fn bfs_levels(
    n: usize,
    edges: &[(usize, usize)],
    source: usize,
    rule: WriteRule,
) -> Result<ProgramRun<Vec<i64>>, PramError> {
    assert!(source < n, "source out of range");
    for &(u, v) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
    }
    // Layout: [0, n) levels | n: changed flag.
    let mut mem = vec![-1i64; n + 1];
    mem[source] = 0;
    let mut m = Machine::new(AccessMode::Crcw(rule), mem);

    let mut level: i64 = 0;
    loop {
        // Reset the changed flag (one processor, exclusive write).
        m.step(1, |_pid, _view| vec![Write::new(n, 0)])?;
        // Expand the frontier: one processor per directed edge.
        m.step(edges.len(), |pid, view| {
            let (u, v) = edges[pid];
            if view.read(u) == level && view.read(v) == -1 {
                vec![Write::new(v, level + 1), Write::new(n, 1)]
            } else {
                vec![]
            }
        })?;
        if m.mem()[n] == 0 {
            break;
        }
        level += 1;
    }

    let levels = m.mem()[..n].to_vec();
    Ok(ProgramRun {
        output: levels,
        trace: *m.trace(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ArbitraryPolicy;

    fn serial_max_index(values: &[i64]) -> usize {
        // Paper tie-break: larger index survives equal values.
        let mut best = 0;
        for (i, &v) in values.iter().enumerate() {
            if v >= values[best] {
                best = i;
            }
        }
        best
    }

    #[test]
    fn max_matches_serial_reference() {
        let cases: Vec<Vec<i64>> = vec![
            vec![5],
            vec![1, 2, 3],
            vec![3, 2, 1],
            vec![7, 7, 7],
            vec![-5, -2, -9, -2],
            (0..50).map(|i| (i * 37) % 23).collect(),
        ];
        for values in cases {
            let run = constant_time_max(&values, WriteRule::Common).unwrap();
            assert_eq!(run.output, serial_max_index(&values), "{values:?}");
        }
    }

    #[test]
    fn max_has_constant_depth_quadratic_work() {
        let values: Vec<i64> = (0..20).collect();
        let run = constant_time_max(&values, WriteRule::Common).unwrap();
        assert_eq!(run.trace.depth, 2);
        assert_eq!(run.trace.work, 20 * 20 + 20);
        // Heavy write conflicts by design: every non-max element is marked
        // by many comparisons.
        assert!(run.trace.max_writers_per_cell > 1);
    }

    #[test]
    fn max_works_under_arbitrary_rule_too() {
        // Common writes are simulable by any stronger rule in O(1) (§2).
        let values = vec![4, 9, 1, 9, 3];
        let run =
            constant_time_max(&values, WriteRule::Arbitrary(ArbitraryPolicy::Seeded(3))).unwrap();
        assert_eq!(run.output, 3);
    }

    #[test]
    fn or_is_depth_one_and_correct() {
        let run = logical_or(&[false, false, true, false], WriteRule::Common).unwrap();
        assert!(run.output);
        assert_eq!(run.trace.depth, 1);

        let run = logical_or(&[false; 8], WriteRule::Common).unwrap();
        assert!(!run.output);

        let run = logical_or(&[], WriteRule::Common).unwrap();
        assert!(!run.output);
    }

    #[test]
    fn or_conflict_multiplicity_equals_popcount() {
        let bits = [true, true, true, false, true];
        let run = logical_or(&bits, WriteRule::Common).unwrap();
        assert_eq!(run.trace.max_writers_per_cell, 4);
    }

    #[test]
    fn sv_components_labels_are_component_minima() {
        let rule = WriteRule::Arbitrary(ArbitraryPolicy::Seeded(5));
        // Components {0,1,2} and {3,4}; 5 isolated.
        let edges: Vec<(usize, usize)> = [(0, 1), (1, 2), (3, 4)]
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        let run = sv_components(6, &edges, rule).unwrap();
        assert_eq!(run.output, vec![0, 0, 0, 3, 3, 5]);
        assert!(run.trace.depth >= 3);
    }

    #[test]
    fn sv_components_any_arbitrary_policy_agrees() {
        let edges: Vec<(usize, usize)> = [(0, 3), (3, 5), (1, 4), (4, 2)]
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        let expect = vec![0, 1, 1, 0, 1, 0];
        for policy in [
            ArbitraryPolicy::Seeded(0),
            ArbitraryPolicy::Seeded(99),
            ArbitraryPolicy::FirstIssued,
            ArbitraryPolicy::LastIssued,
            ArbitraryPolicy::MinPid,
        ] {
            let run = sv_components(6, &edges, WriteRule::Arbitrary(policy)).unwrap();
            assert_eq!(run.output, expect, "{policy:?}");
        }
    }

    #[test]
    fn sv_components_requires_the_arbitrary_model() {
        // The paper's §7.3 point, formalized: hooking writes *different*
        // values concurrently, so the Common rule rejects the algorithm
        // outright (triangle: two edges hook root 2 with values 0 and 1).
        let edges: Vec<(usize, usize)> = [(0, 2), (1, 2), (0, 1)]
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        let err = sv_components(3, &edges, WriteRule::Common).unwrap_err();
        assert!(
            matches!(err, crate::PramError::CommonViolation { .. }),
            "{err}"
        );
    }

    #[test]
    fn sv_components_counts_hook_conflicts() {
        // A star: every leaf's edge tries to hook... leaves hook onto the
        // center? center is 0, leaves 1..: edges (0,k): D[k]>D[0] so (k,0)
        // direction hooks root k to 0 — exclusive. Use an inverted star
        // (center = highest id) to force many writers on one root.
        let n = 9;
        let center = n - 1;
        let edges: Vec<(usize, usize)> = (0..center)
            .flat_map(|k| [(center, k), (k, center)])
            .collect();
        let run =
            sv_components(n, &edges, WriteRule::Arbitrary(ArbitraryPolicy::Seeded(1))).unwrap();
        assert!(run.output.iter().all(|&l| l == 0));
        // All 8 leaf-edges competed to hook the center's cell in step one.
        assert!(run.trace.max_writers_per_cell >= (n - 1) as u64);
    }

    #[test]
    fn first_one_is_depth_one_and_minimal() {
        let run = first_one(&[false, true, false, true]).unwrap();
        assert_eq!(run.output, Some(1));
        assert_eq!(run.trace.depth, 1);
        assert_eq!(run.trace.max_writers_per_cell, 2);

        assert_eq!(first_one(&[false; 5]).unwrap().output, None);
        assert_eq!(first_one(&[]).unwrap().output, None);
        assert_eq!(first_one(&[true]).unwrap().output, Some(0));
    }

    fn undirected(pairs: &[(usize, usize)]) -> Vec<(usize, usize)> {
        pairs.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect()
    }

    #[test]
    fn bfs_levels_on_a_path() {
        let edges = undirected(&[(0, 1), (1, 2), (2, 3)]);
        let run = bfs_levels(4, &edges, 0, WriteRule::Common).unwrap();
        assert_eq!(run.output, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_levels_with_unreachable_and_cycle() {
        // 0-1-2 triangle, 3 isolated.
        let edges = undirected(&[(0, 1), (1, 2), (2, 0)]);
        let run = bfs_levels(4, &edges, 0, WriteRule::Common).unwrap();
        assert_eq!(run.output, vec![0, 1, 1, -1]);
    }

    #[test]
    fn bfs_concurrent_frontier_writes_are_common() {
        // Diamond: 0→{1,2}→3; both 1 and 2 write level[3] = 2 in one step.
        let edges = undirected(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let run = bfs_levels(4, &edges, 0, WriteRule::Common).unwrap();
        assert_eq!(run.output, vec![0, 1, 1, 2]);
        assert!(run.trace.max_writers_per_cell >= 2);
    }

    #[test]
    fn bfs_depth_tracks_eccentricity() {
        let edges = undirected(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let run = bfs_levels(5, &edges, 0, WriteRule::Common).unwrap();
        // Two machine steps per level iteration (reset + expand); levels
        // 0..=3 expand, plus the final no-change iteration.
        assert_eq!(run.output, vec![0, 1, 2, 3, 4]);
        assert!(run.trace.depth >= 8);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bfs_rejects_bad_source() {
        let _ = bfs_levels(2, &[], 5, WriteRule::Common);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn max_rejects_empty() {
        let _ = constant_time_max(&[], WriteRule::Common);
    }
}
