//! The multicore backend: lock-step interpretation with write buffering
//! and arbitrated commits.
//!
//! Each program step becomes two (or three) barrier-separated phases on
//! the `pram-exec` team:
//!
//! 1. **Collect** — processors are work-shared across the team; every
//!    body runs against the *live* memory array, which no one mutates
//!    during this phase, so all reads observe pre-step state exactly as
//!    PRAM requires. Issued writes go to per-thread buffers (no sharing,
//!    no contention). Per-processor duplicate writes and out-of-bounds
//!    accesses are detected here.
//! 2. **Apply** — each thread drains its own buffer under the rule:
//!    * *Arbitrary*: `CasLtArray::try_claim(addr, round)` elects one
//!      winner per cell per step — the paper's method doing exactly its
//!      job, with the step index as the round ("round could be substituted
//!      by the loop iteration").
//!    * *Common*: naive stores (sound for agreeing single-word writes);
//!      the claim array still runs, purely to count distinct committed
//!      cells for the trace.
//!    * *Priority (min-pid)*: offer phase on a `PriorityArray`, barrier,
//!      then unique winners store.
//! 3. **Validate** (Common only) — after the commit barrier, every thread
//!    re-reads the cells it wrote; any disagreement is the paper's
//!    "algorithm fails" condition, reported as
//!    [`pram_sim::PramError::CommonViolation`]. (Detection is
//!    post-commit: unlike the simulator, the threaded backend cannot
//!    un-write; memory contents are unspecified after this error.)
//!
//! The trace mirrors the simulator's accounting step for step;
//! `max_writers_per_cell` alone is not tracked (it would need per-cell
//! multiplicity counters on the hot path) and stays 0.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use pram_core::{CasLtArray, PriorityArray, Round};
use pram_exec::{Schedule, ThreadPool, WorkerCtx};
use pram_sim::{PramError, Trace, Write};

use crate::program::{Program, ProgramOutput, ReadMem, Step, Unit, VmError, VmRule};

/// Live memory exposed to step bodies during the collect phase.
struct AtomicMem<'a> {
    cells: &'a [AtomicI64],
    /// First out-of-bounds read address (usize::MAX = none).
    oob: &'a AtomicUsize,
}

impl ReadMem for AtomicMem<'_> {
    fn read(&self, addr: usize) -> i64 {
        match self.cells.get(addr) {
            Some(c) => c.load(Ordering::Relaxed),
            None => {
                let _ = self.oob.compare_exchange(
                    usize::MAX,
                    addr,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                0
            }
        }
    }
    fn len(&self) -> usize {
        self.cells.len()
    }
}

/// Everything the team shares while interpreting one program.
struct RunShared {
    mem: Vec<AtomicI64>,
    claims: CasLtArray,
    priority: Option<PriorityArray>,
    buffers: Vec<Mutex<Vec<(u32, Write)>>>,
    oob: AtomicUsize,
    err_flag: AtomicBool,
    err: Mutex<Option<VmError>>,
    // Trace accounting.
    depth: AtomicU64,
    work: AtomicU64,
    issued: AtomicU64,
    committed: AtomicU64,
    conflict_steps: AtomicU64,
}

impl RunShared {
    fn record_err(&self, e: VmError) {
        self.err.lock().get_or_insert(e);
        self.err_flag.store(true, Ordering::Release);
    }
    fn failed(&self) -> bool {
        self.err_flag.load(Ordering::Acquire)
    }
}

impl Program {
    /// Execute on real threads under `rule`; see the module docs for the
    /// phase protocol and its PRAM-semantics argument.
    ///
    /// # Panics
    /// Panics if `initial.len() != self.mem_len()`, or if the program
    /// executes more than `u32::MAX - 1` total steps (the round space).
    pub fn run_threaded(
        &self,
        rule: VmRule,
        initial: Vec<i64>,
        pool: &ThreadPool,
    ) -> Result<ProgramOutput, VmError> {
        assert_eq!(initial.len(), self.mem_len, "initial memory size mismatch");
        let shared = RunShared {
            mem: initial.into_iter().map(AtomicI64::new).collect(),
            claims: CasLtArray::new(self.mem_len),
            priority: (rule == VmRule::PriorityMinPid).then(|| PriorityArray::new(self.mem_len)),
            buffers: (0..pool.num_threads())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            oob: AtomicUsize::new(usize::MAX),
            err_flag: AtomicBool::new(false),
            err: Mutex::new(None),
            depth: AtomicU64::new(0),
            work: AtomicU64::new(0),
            issued: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            conflict_steps: AtomicU64::new(0),
        };

        pool.run(|ctx| {
            // All members execute this control flow identically; every
            // branch condition is read after a barrier, so it agrees.
            let mut step_seq: u32 = 0;
            'program: for (ui, unit) in self.units.iter().enumerate() {
                match unit {
                    Unit::Step(s) => {
                        if !exec_step(ctx, &shared, rule, s, &mut step_seq) {
                            break 'program;
                        }
                    }
                    Unit::Repeat {
                        steps,
                        cond_addr,
                        max_iters,
                    } => {
                        let mut iters = 0u32;
                        loop {
                            for s in steps {
                                if !exec_step(ctx, &shared, rule, s, &mut step_seq) {
                                    break 'program;
                                }
                            }
                            // Post-barrier read: consistent across members.
                            if shared.mem[*cond_addr].load(Ordering::Relaxed) == 0 {
                                break;
                            }
                            iters += 1;
                            if iters >= *max_iters {
                                shared.record_err(VmError::RepeatDiverged {
                                    unit: ui,
                                    max_iters: *max_iters,
                                });
                                break 'program;
                            }
                        }
                    }
                }
            }
        });

        if let Some(e) = shared.err.lock().take() {
            return Err(e);
        }
        Ok(ProgramOutput {
            mem: shared
                .mem
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            trace: Trace {
                depth: shared.depth.into_inner(),
                work: shared.work.into_inner(),
                writes_issued: shared.issued.into_inner(),
                writes_committed: shared.committed.into_inner(),
                steps_with_conflicts: shared.conflict_steps.into_inner(),
                max_writers_per_cell: 0, // not tracked threaded (module docs)
            },
        })
    }
}

/// One lock-step step on the team. Returns `false` (on every member) if
/// the program must abort.
fn exec_step(
    ctx: &WorkerCtx<'_>,
    shared: &RunShared,
    rule: VmRule,
    step: &Step,
    step_seq: &mut u32,
) -> bool {
    let round = Round::from_iteration(*step_seq);
    *step_seq += 1;
    let me = ctx.thread_id();

    // --- Phase 1: collect -------------------------------------------------
    let reader = AtomicMem {
        cells: &shared.mem,
        oob: &shared.oob,
    };
    ctx.for_each(0..step.procs, Schedule::Dynamic { chunk: 64 }, |pid| {
        let writes = (step.body)(pid, &reader);
        // Per-processor duplicate-write detection (one instruction per
        // cell per step).
        for (i, w) in writes.iter().enumerate() {
            if w.addr >= shared.mem.len() {
                shared.record_err(
                    PramError::OutOfBounds {
                        addr: w.addr,
                        len: shared.mem.len(),
                    }
                    .into(),
                );
                return;
            }
            if writes[..i].iter().any(|p| p.addr == w.addr) {
                shared.record_err(PramError::DuplicateWrite { addr: w.addr, pid }.into());
                return;
            }
        }
        if !writes.is_empty() {
            let mut buf = shared.buffers[me].lock();
            buf.extend(writes.into_iter().map(|w| (pid as u32, w)));
        }
    });
    let oob_addr = shared.oob.load(Ordering::Relaxed);
    if oob_addr != usize::MAX {
        shared.record_err(
            PramError::OutOfBounds {
                addr: oob_addr,
                len: shared.mem.len(),
            }
            .into(),
        );
    }
    ctx.barrier();
    if shared.failed() {
        return false;
    }

    // --- Phase 2: apply ---------------------------------------------------
    let my_issued;
    let mut my_committed = 0u64;
    {
        let buf = shared.buffers[me].lock();
        my_issued = buf.len() as u64;
        match rule {
            VmRule::Arbitrary => {
                for &(_pid, w) in buf.iter() {
                    if shared.claims.try_claim(w.addr, round) {
                        shared.mem[w.addr].store(w.value, Ordering::Relaxed);
                        my_committed += 1;
                    }
                }
            }
            VmRule::Common => {
                for &(_pid, w) in buf.iter() {
                    // Naive store (sound: agreeing values), claim only to
                    // count distinct committed cells.
                    shared.mem[w.addr].store(w.value, Ordering::Relaxed);
                    if shared.claims.try_claim(w.addr, round) {
                        my_committed += 1;
                    }
                }
            }
            VmRule::PriorityMinPid => {
                let prio = &shared.priority.as_ref().expect("priority cells");
                for &(pid, w) in buf.iter() {
                    prio.offer(w.addr, round, pid);
                }
            }
        }
    }
    ctx.barrier();

    // --- Phase 3: rule-specific completion ---------------------------------
    match rule {
        VmRule::Arbitrary => {}
        VmRule::Common => {
            // Validate: every writer must observe its own value committed.
            let buf = shared.buffers[me].lock();
            for &(_pid, w) in buf.iter() {
                let got = shared.mem[w.addr].load(Ordering::Relaxed);
                if got != w.value {
                    shared.record_err(
                        PramError::CommonViolation {
                            addr: w.addr,
                            values: (got, w.value),
                        }
                        .into(),
                    );
                    break;
                }
            }
            drop(buf);
            ctx.barrier();
        }
        VmRule::PriorityMinPid => {
            let prio = &shared.priority.as_ref().expect("priority cells");
            let buf = shared.buffers[me].lock();
            for &(pid, w) in buf.iter() {
                if prio.is_winner(w.addr, round, pid) {
                    shared.mem[w.addr].store(w.value, Ordering::Relaxed);
                    my_committed += 1;
                }
            }
            drop(buf);
            ctx.barrier();
        }
    }

    // --- Bookkeeping --------------------------------------------------------
    shared.buffers[me].lock().clear();
    shared.issued.fetch_add(my_issued, Ordering::Relaxed);
    shared.committed.fetch_add(my_committed, Ordering::Relaxed);
    let [step_issued, step_committed] = ctx.team_sum([my_issued, my_committed]);
    ctx.master(|| {
        shared.depth.fetch_add(1, Ordering::Relaxed);
        shared.work.fetch_add(step.procs as u64, Ordering::Relaxed);
        if step_issued > step_committed {
            shared.conflict_steps.fetch_add(1, Ordering::Relaxed);
        }
    });
    ctx.barrier();
    !shared.failed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::VmRule;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn both_backends_agree_on_common_or() {
        let n = 32;
        let mut p = Program::new(n + 1);
        p.step(n, move |pid, mem| {
            if mem.read(pid) != 0 {
                vec![Write::new(n, 1)]
            } else {
                vec![]
            }
        });
        let mut init = vec![0i64; n + 1];
        init[13] = 1;
        init[29] = 1;
        let ideal = p.run_on_machine(VmRule::Common, init.clone()).unwrap();
        let real = p.run_threaded(VmRule::Common, init, &pool()).unwrap();
        assert_eq!(ideal.mem, real.mem);
        assert_eq!(ideal.trace.depth, real.trace.depth);
        assert_eq!(ideal.trace.work, real.trace.work);
        assert_eq!(ideal.trace.writes_issued, real.trace.writes_issued);
        assert_eq!(ideal.trace.writes_committed, real.trace.writes_committed);
    }

    #[test]
    fn reads_see_prestep_memory_threaded() {
        // Parallel swap across a barrierless step: only correct if the
        // collect phase reads pre-step state.
        let mut p = Program::new(2);
        p.step(2, |pid, mem| vec![Write::new(pid, mem.read(1 - pid))]);
        let out = p.run_threaded(VmRule::Common, vec![5, 9], &pool()).unwrap();
        assert_eq!(out.mem, vec![9, 5]);
    }

    #[test]
    fn arbitrary_commits_one_issued_value_threaded() {
        let mut p = Program::new(1);
        p.step(64, |pid, _| vec![Write::new(0, 100 + pid as i64)]);
        let out = p.run_threaded(VmRule::Arbitrary, vec![0], &pool()).unwrap();
        assert!((100..164).contains(&out.mem[0]), "got {}", out.mem[0]);
        assert_eq!(out.trace.writes_issued, 64);
        assert_eq!(out.trace.writes_committed, 1);
        assert_eq!(out.trace.steps_with_conflicts, 1);
    }

    #[test]
    fn priority_min_pid_threaded_matches_machine() {
        let mut p = Program::new(2);
        p.step(16, |pid, _| {
            if pid >= 3 {
                vec![Write::new(pid % 2, 1000 + pid as i64)]
            } else {
                vec![]
            }
        });
        let ideal = p
            .run_on_machine(VmRule::PriorityMinPid, vec![0, 0])
            .unwrap();
        let real = p
            .run_threaded(VmRule::PriorityMinPid, vec![0, 0], &pool())
            .unwrap();
        assert_eq!(ideal.mem, real.mem); // pid 4 wins cell 0, pid 3 cell 1
        assert_eq!(real.mem, vec![1004, 1003]);
    }

    #[test]
    fn common_violation_detected_threaded() {
        let mut p = Program::new(1);
        p.step(8, |pid, _| vec![Write::new(0, pid as i64 % 2)]);
        let err = p
            .run_threaded(VmRule::Common, vec![0], &pool())
            .unwrap_err();
        assert!(matches!(
            err,
            VmError::Model(PramError::CommonViolation { .. })
        ));
    }

    #[test]
    fn oob_and_duplicates_detected_threaded() {
        let mut p = Program::new(2);
        p.step(1, |_, _| vec![Write::new(9, 1)]);
        let err = p
            .run_threaded(VmRule::Common, vec![0, 0], &pool())
            .unwrap_err();
        assert!(matches!(err, VmError::Model(PramError::OutOfBounds { .. })));

        let mut p = Program::new(2);
        p.step(1, |_, _| vec![Write::new(0, 1), Write::new(0, 1)]);
        let err = p
            .run_threaded(VmRule::Common, vec![0, 0], &pool())
            .unwrap_err();
        assert!(matches!(
            err,
            VmError::Model(PramError::DuplicateWrite { .. })
        ));
    }

    #[test]
    fn repeat_blocks_run_threaded() {
        // Doubling counter: mem = [value, flag]; double until >= 100.
        let mut p = Program::new(2);
        p.repeat(1, 64, |b| {
            b.step(1, |_pid, mem| {
                let v = mem.read(0) * 2;
                vec![Write::new(0, v), Write::new(1, i64::from(v < 100))]
            });
        });
        let ideal = p.run_on_machine(VmRule::Common, vec![1, 1]).unwrap();
        let real = p.run_threaded(VmRule::Common, vec![1, 1], &pool()).unwrap();
        assert_eq!(ideal.mem, real.mem);
        assert_eq!(real.mem[0], 128);
    }

    #[test]
    fn repeat_divergence_threaded() {
        let mut p = Program::new(1);
        p.repeat(0, 5, |b| {
            b.step(1, |_, _| vec![Write::new(0, 1)]);
        });
        let err = p
            .run_threaded(VmRule::Common, vec![1], &pool())
            .unwrap_err();
        assert_eq!(
            err,
            VmError::RepeatDiverged {
                unit: 0,
                max_iters: 5
            }
        );
    }

    #[test]
    fn single_thread_pool_works_too() {
        let mut p = Program::new(3);
        p.step(3, |pid, _| vec![Write::new(pid, pid as i64 + 1)]);
        let pool = ThreadPool::new(1);
        let out = p
            .run_threaded(VmRule::Arbitrary, vec![0; 3], &pool)
            .unwrap();
        assert_eq!(out.mem, vec![1, 2, 3]);
    }
}
