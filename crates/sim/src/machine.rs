//! The step interpreter: access modes, conflict rules, commit logic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::PramError;
use crate::memory::{MemView, Write};
use crate::trace::Trace;

/// How an *arbitrary* winner is chosen among a step's conflicting writers.
///
/// The PRAM rule guarantees nothing about which writer wins; exposing
/// several concrete policies lets tests explore the nondeterminism envelope
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbitraryPolicy {
    /// Uniformly random winner from a seeded generator (reproducible).
    Seeded(u64),
    /// The writer whose closure ran first (lowest issue order).
    FirstIssued,
    /// The writer whose closure ran last.
    LastIssued,
    /// The writer with the smallest processor id.
    MinPid,
}

/// Write-conflict resolution rule (the paper's §2 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteRule {
    /// All same-cell writers must write the same value; differing values
    /// are a model violation.
    Common,
    /// One same-cell writer wins, unspecified which; parameterized by a
    /// concrete [`ArbitraryPolicy`].
    Arbitrary(ArbitraryPolicy),
    /// The writer with the smallest processor id wins ("minimum processor
    /// rank has the highest priority").
    PriorityMinPid,
    /// The writer with the smallest value wins ("processor writing the
    /// smallest value has the highest priority"); ties break to the
    /// smallest pid.
    PriorityMinValue,
    /// Conflicting writes commit a sentinel "collision" symbol instead of
    /// any written value (the Collision CRCW model from the simulation
    /// literature the paper's related work surveys).
    Collision {
        /// The collision symbol.
        sentinel: i64,
    },
}

/// Memory access mode (the paper's §2: EREW ⊂ CREW ⊂ CRCW).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Exclusive read, exclusive write.
    Erew,
    /// Concurrent read, exclusive write.
    Crew,
    /// Concurrent read, concurrent write under the given rule.
    Crcw(WriteRule),
}

/// Per-step summary returned by [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Processors invoked.
    pub procs: usize,
    /// Writes issued (pre-resolution).
    pub writes_issued: usize,
    /// Writes committed (post-resolution).
    pub writes_committed: usize,
    /// Largest writer multiplicity on one cell this step.
    pub max_writers_per_cell: usize,
}

/// The ideal PRAM machine: flat memory + step interpreter + accounting.
#[derive(Debug)]
pub struct Machine {
    mem: Vec<i64>,
    mode: AccessMode,
    trace: Trace,
    rng: StdRng,
}

impl Machine {
    /// A machine over `initial` memory in the given mode.
    pub fn new(mode: AccessMode, initial: Vec<i64>) -> Machine {
        let seed = match mode {
            AccessMode::Crcw(WriteRule::Arbitrary(ArbitraryPolicy::Seeded(s))) => s,
            _ => 0,
        };
        Machine {
            mem: initial,
            mode,
            trace: Trace::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A machine over `len` zeroed cells.
    pub fn zeroed(mode: AccessMode, len: usize) -> Machine {
        Machine::new(mode, vec![0; len])
    }

    /// Committed memory.
    pub fn mem(&self) -> &[i64] {
        &self.mem
    }

    /// Accumulated work–depth trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The access mode.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// Execute one lock-step PRAM step with `procs` processors.
    ///
    /// `f(pid, view)` is processor `pid`'s instruction: it may read any
    /// cells through `view` (observing pre-step memory) and returns the
    /// writes it issues this step. After all processors run, conflicts are
    /// resolved per the machine's mode and the surviving writes commit
    /// atomically.
    ///
    /// On error the step has **no effect** on memory or the trace.
    pub fn step<F>(&mut self, procs: usize, mut f: F) -> Result<StepOutcome, PramError>
    where
        F: FnMut(usize, &MemView<'_>) -> Vec<Write>,
    {
        let track_reads = self.mode == AccessMode::Erew;
        let view = MemView::new(&self.mem, track_reads);

        // Gather every processor's issued writes (reads happen inside f,
        // against pre-step memory).
        let mut issued: Vec<(usize, Write)> = Vec::new();
        for pid in 0..procs {
            view.set_pid(pid);
            for w in f(pid, &view) {
                issued.push((pid, w));
            }
        }
        if let Some(addr) = view.take_oob() {
            return Err(PramError::OutOfBounds {
                addr,
                len: self.mem.len(),
            });
        }
        for (_, w) in &issued {
            if w.addr >= self.mem.len() {
                return Err(PramError::OutOfBounds {
                    addr: w.addr,
                    len: self.mem.len(),
                });
            }
        }

        // EREW read-conflict detection.
        if let Some(mut reads) = view.reads() {
            reads.sort_unstable();
            for pair in reads.windows(2) {
                let ((a1, p1), (a2, p2)) = (pair[0], pair[1]);
                if a1 == a2 && p1 != p2 {
                    return Err(PramError::ReadConflict {
                        addr: a1,
                        pids: (p1, p2),
                    });
                }
            }
        }

        // Group writes by address (stable in issue order within a cell).
        let mut by_addr: Vec<(usize, usize, Write)> = issued
            .iter()
            .enumerate()
            .map(|(order, &(pid, w))| (order, pid, w))
            .collect();
        by_addr.sort_by_key(|&(order, _, w)| (w.addr, order));

        // Detect a single processor writing one cell twice in one step.
        for pair in by_addr.windows(2) {
            let (_, p1, w1) = pair[0];
            let (_, p2, w2) = pair[1];
            if w1.addr == w2.addr && p1 == p2 {
                return Err(PramError::DuplicateWrite {
                    addr: w1.addr,
                    pid: p1,
                });
            }
        }

        // Resolve each cell's writer group.
        let mut commits: Vec<Write> = Vec::new();
        let mut max_writers = 0usize;
        let mut i = 0;
        while i < by_addr.len() {
            let addr = by_addr[i].2.addr;
            let mut j = i;
            while j < by_addr.len() && by_addr[j].2.addr == addr {
                j += 1;
            }
            let group = &by_addr[i..j];
            max_writers = max_writers.max(group.len());
            let value = self.resolve(addr, group)?;
            commits.push(Write::new(addr, value));
            i = j;
        }

        // Commit.
        for w in &commits {
            self.mem[w.addr] = w.value;
        }
        let outcome = StepOutcome {
            procs,
            writes_issued: issued.len(),
            writes_committed: commits.len(),
            max_writers_per_cell: max_writers,
        };
        self.trace
            .record_step(procs, issued.len(), commits.len(), max_writers);
        Ok(outcome)
    }

    /// Resolve one cell's writer group to the committed value.
    fn resolve(&mut self, addr: usize, group: &[(usize, usize, Write)]) -> Result<i64, PramError> {
        debug_assert!(!group.is_empty());
        if group.len() == 1 {
            return Ok(group[0].2.value);
        }
        let rule = match self.mode {
            AccessMode::Erew | AccessMode::Crew => {
                return Err(PramError::WriteConflict {
                    addr,
                    pids: (group[0].1, group[1].1),
                });
            }
            AccessMode::Crcw(rule) => rule,
        };
        match rule {
            WriteRule::Common => {
                let v0 = group[0].2.value;
                for &(_, _, w) in &group[1..] {
                    if w.value != v0 {
                        return Err(PramError::CommonViolation {
                            addr,
                            values: (v0, w.value),
                        });
                    }
                }
                Ok(v0)
            }
            WriteRule::Arbitrary(policy) => {
                let idx = match policy {
                    ArbitraryPolicy::Seeded(_) => self.rng.gen_range(0..group.len()),
                    ArbitraryPolicy::FirstIssued => 0,
                    ArbitraryPolicy::LastIssued => group.len() - 1,
                    ArbitraryPolicy::MinPid => group
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(_, pid, _))| pid)
                        .map(|(k, _)| k)
                        .unwrap(),
                };
                Ok(group[idx].2.value)
            }
            WriteRule::PriorityMinPid => Ok(group
                .iter()
                .min_by_key(|&&(_, pid, _)| pid)
                .unwrap()
                .2
                .value),
            WriteRule::PriorityMinValue => Ok(group
                .iter()
                .min_by_key(|&&(_, pid, w)| (w.value, pid))
                .unwrap()
                .2
                .value),
            WriteRule::Collision { sentinel } => Ok(sentinel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crcw(rule: WriteRule) -> AccessMode {
        AccessMode::Crcw(rule)
    }

    #[test]
    fn exclusive_write_succeeds_in_every_mode() {
        for mode in [
            AccessMode::Erew,
            AccessMode::Crew,
            crcw(WriteRule::Common),
            crcw(WriteRule::PriorityMinPid),
        ] {
            let mut m = Machine::zeroed(mode, 4);
            let out = m
                .step(4, |pid, _| vec![Write::new(pid, pid as i64 + 1)])
                .unwrap();
            assert_eq!(m.mem(), &[1, 2, 3, 4]);
            assert_eq!(out.writes_committed, 4);
            assert_eq!(out.max_writers_per_cell, 1);
        }
    }

    #[test]
    fn reads_precede_writes_within_a_step() {
        // Parallel swap: pid 0 and 1 exchange cells — only correct if both
        // reads observe pre-step memory.
        let mut m = Machine::new(crcw(WriteRule::Common), vec![5, 9]);
        m.step(2, |pid, view| {
            let other = view.read(1 - pid);
            vec![Write::new(pid, other)]
        })
        .unwrap();
        assert_eq!(m.mem(), &[9, 5]);
    }

    #[test]
    fn crew_rejects_concurrent_writes_but_allows_reads() {
        let mut m = Machine::zeroed(AccessMode::Crew, 2);
        // Concurrent reads of cell 0 are fine.
        m.step(4, |pid, view| {
            let v = view.read(0);
            vec![Write::new(1, v + pid as i64)][..(pid == 0) as usize].to_vec()
        })
        .unwrap();
        // Concurrent writes are not.
        let err = m.step(3, |_pid, _| vec![Write::new(1, 7)]).unwrap_err();
        assert!(matches!(err, PramError::WriteConflict { addr: 1, .. }));
    }

    #[test]
    fn erew_rejects_concurrent_reads() {
        let mut m = Machine::zeroed(AccessMode::Erew, 2);
        let err = m
            .step(2, |_pid, view| {
                view.read(0);
                vec![]
            })
            .unwrap_err();
        assert!(matches!(err, PramError::ReadConflict { addr: 0, .. }));
    }

    #[test]
    fn erew_allows_disjoint_reads() {
        let mut m = Machine::new(AccessMode::Erew, vec![1, 2]);
        m.step(2, |pid, view| {
            let v = view.read(pid);
            vec![Write::new(pid, v * 10)]
        })
        .unwrap();
        assert_eq!(m.mem(), &[10, 20]);
    }

    #[test]
    fn common_rule_accepts_same_value_rejects_different() {
        let mut m = Machine::zeroed(crcw(WriteRule::Common), 1);
        let out = m.step(8, |_pid, _| vec![Write::new(0, 42)]).unwrap();
        assert_eq!(out.max_writers_per_cell, 8);
        assert_eq!(m.mem()[0], 42);

        let err = m
            .step(2, |pid, _| vec![Write::new(0, pid as i64)])
            .unwrap_err();
        assert!(matches!(err, PramError::CommonViolation { addr: 0, .. }));
        // Failed step committed nothing.
        assert_eq!(m.mem()[0], 42);
        assert_eq!(m.trace().depth, 1);
    }

    #[test]
    fn arbitrary_policies_pick_a_written_value() {
        for policy in [
            ArbitraryPolicy::Seeded(7),
            ArbitraryPolicy::FirstIssued,
            ArbitraryPolicy::LastIssued,
            ArbitraryPolicy::MinPid,
        ] {
            let mut m = Machine::zeroed(crcw(WriteRule::Arbitrary(policy)), 1);
            m.step(5, |pid, _| vec![Write::new(0, 100 + pid as i64)])
                .unwrap();
            let v = m.mem()[0];
            assert!((100..105).contains(&v), "{policy:?} committed {v}");
        }
    }

    #[test]
    fn arbitrary_first_last_minpid_are_deterministic() {
        let run = |policy| {
            let mut m = Machine::zeroed(crcw(WriteRule::Arbitrary(policy)), 1);
            m.step(4, |pid, _| vec![Write::new(0, pid as i64)]).unwrap();
            m.mem()[0]
        };
        assert_eq!(run(ArbitraryPolicy::FirstIssued), 0);
        assert_eq!(run(ArbitraryPolicy::LastIssued), 3);
        assert_eq!(run(ArbitraryPolicy::MinPid), 0);
    }

    #[test]
    fn seeded_arbitrary_is_reproducible() {
        let run = || {
            let mut m = Machine::zeroed(crcw(WriteRule::Arbitrary(ArbitraryPolicy::Seeded(99))), 1);
            let mut vals = vec![];
            for _ in 0..10 {
                m.step(6, |pid, _| vec![Write::new(0, pid as i64)]).unwrap();
                vals.push(m.mem()[0]);
            }
            vals
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn priority_rules() {
        let mut m = Machine::zeroed(crcw(WriteRule::PriorityMinPid), 1);
        m.step(4, |pid, _| vec![Write::new(0, 10 - pid as i64)])
            .unwrap();
        assert_eq!(m.mem()[0], 10); // pid 0 wins

        let mut m = Machine::zeroed(crcw(WriteRule::PriorityMinValue), 1);
        m.step(4, |pid, _| vec![Write::new(0, 10 - pid as i64)])
            .unwrap();
        assert_eq!(m.mem()[0], 7); // smallest value wins
    }

    #[test]
    fn collision_rule_writes_sentinel() {
        let mut m = Machine::zeroed(crcw(WriteRule::Collision { sentinel: -1 }), 2);
        m.step(3, |pid, _| {
            if pid < 2 {
                vec![Write::new(0, pid as i64)] // conflict on cell 0
            } else {
                vec![Write::new(1, 5)] // exclusive on cell 1
            }
        })
        .unwrap();
        assert_eq!(m.mem(), &[-1, 5]);
    }

    #[test]
    fn duplicate_write_by_one_processor_rejected() {
        let mut m = Machine::zeroed(crcw(WriteRule::Common), 2);
        let err = m
            .step(1, |_pid, _| vec![Write::new(0, 1), Write::new(0, 1)])
            .unwrap_err();
        assert!(matches!(err, PramError::DuplicateWrite { addr: 0, pid: 0 }));
    }

    #[test]
    fn out_of_bounds_write_and_read_rejected() {
        let mut m = Machine::zeroed(crcw(WriteRule::Common), 2);
        let err = m.step(1, |_, _| vec![Write::new(9, 1)]).unwrap_err();
        assert!(matches!(err, PramError::OutOfBounds { addr: 9, len: 2 }));

        let err = m
            .step(1, |_, view| {
                view.read(100);
                vec![]
            })
            .unwrap_err();
        assert!(matches!(err, PramError::OutOfBounds { addr: 100, .. }));
    }

    #[test]
    fn trace_accumulates_across_steps() {
        let mut m = Machine::zeroed(crcw(WriteRule::Common), 2);
        m.step(4, |_pid, _| vec![Write::new(0, 1)]).unwrap();
        m.step(2, |pid, _| vec![Write::new(pid, 9)]).unwrap();
        let t = m.trace();
        assert_eq!(t.depth, 2);
        assert_eq!(t.work, 6);
        assert_eq!(t.writes_issued, 6);
        assert_eq!(t.writes_committed, 3);
        assert_eq!(t.steps_with_conflicts, 1);
        assert_eq!(t.max_writers_per_cell, 4);
        assert_eq!(t.brent_time(2), Some(2 + 3));
    }

    #[test]
    fn zero_processors_is_a_legal_noop_step() {
        let mut m = Machine::zeroed(crcw(WriteRule::Common), 1);
        let out = m.step(0, |_, _| vec![]).unwrap();
        assert_eq!(out.writes_issued, 0);
        assert_eq!(m.trace().depth, 1);
    }
}
