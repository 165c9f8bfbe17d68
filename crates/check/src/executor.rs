//! The lockstep executor: runs a model's threads one scheduling point at a
//! time, under the control of a [`Chooser`].
//!
//! Model threads are real OS threads, but every operation instrumented by
//! `pram_core::sync` parks the calling thread until the scheduler (running
//! on the spawning thread) grants it the next step. At any instant at most
//! one model thread executes, so:
//!
//! * every execution is a deterministic function of the choice sequence —
//!   the granted-thread trace *is* the reproducer for any failure;
//! * even when a broken arbiter lets two "winners" into a payload region,
//!   their accesses never physically race (the loser is parked), so the
//!   checker can *observe* the overlap as a violation instead of
//!   triggering undefined behavior.
//!
//! The executor enforces three built-in safety properties on top of
//! whatever the model asserts: no overlapping payload-region accesses
//! (writer/writer or writer/reader), no deadlock (all live threads blocked
//! on locks), and a step bound (runaway schedules are reported, not hung).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use pram_core::sync::{set_check_hook, CheckEvent, CheckHook};

use crate::models::Model;
use crate::schedule::Chooser;

/// Lifecycle of one model thread, as the scheduler sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Executing model code between scheduling points.
    Running,
    /// Parked at a scheduling point, eligible for a grant.
    AtYield,
    /// Parked on the shim lock at this address; not eligible until the
    /// holder releases it.
    Blocked(usize),
    /// Finished its phase body.
    Done,
}

/// Shared scheduler state, guarded by the control mutex.
struct CtlState {
    status: Vec<Status>,
    /// Thread granted the next step; it clears this field when it wakes.
    granted: Option<usize>,
    /// Active payload-region accesses: region address → (writers, readers).
    regions: HashMap<usize, (usize, usize)>,
    violation: Option<String>,
    /// Once set, scheduling stops and all threads free-run to completion.
    abort: bool,
    steps: usize,
    max_steps: usize,
    trace: Vec<usize>,
}

struct Ctl {
    state: Mutex<CtlState>,
    cv: Condvar,
}

impl Ctl {
    fn lock(&self) -> MutexGuard<'_, CtlState> {
        // The control mutex is only poisoned if a *hook* panicked while
        // holding it (model panics are caught before reaching it); there is
        // no state to salvage at that point, so propagate.
        self.state.lock().expect("checker control state poisoned")
    }
}

/// Unwind a blocked thread out of an aborted run. `resume_unwind` skips
/// the panic hook, and `run_one` catches the unwind; the run's violation
/// is already recorded, so the payload is never reported.
fn abandon_run() -> ! {
    std::panic::resume_unwind(Box::new("pram-check: run aborted"))
}

/// The per-thread instrumentation sink wired into `pram_core::sync`.
struct WorkerHook {
    tid: usize,
    ctl: Arc<Ctl>,
}

impl WorkerHook {
    /// Park at a scheduling point until granted. Returns the re-acquired
    /// state lock and whether the run was aborted while waiting.
    fn await_grant<'a>(
        &self,
        mut st: MutexGuard<'a, CtlState>,
    ) -> (MutexGuard<'a, CtlState>, bool) {
        st.status[self.tid] = Status::AtYield;
        self.ctl.cv.notify_all();
        loop {
            if st.abort {
                st.status[self.tid] = Status::Running;
                return (st, true);
            }
            if st.granted == Some(self.tid) {
                st.granted = None;
                st.status[self.tid] = Status::Running;
                return (st, false);
            }
            st = self
                .ctl
                .cv
                .wait(st)
                .expect("checker control state poisoned");
        }
    }
}

impl CheckHook for WorkerHook {
    fn event(&self, event: CheckEvent) {
        let mut st = self.ctl.lock();
        if st.abort {
            // Free-run mode: no scheduling, and a thread that would block
            // unwinds out of the model instead. After a violation a wait
            // may never be satisfied (a broken barrier lost an arrival, a
            // peer already unwound), and the run must still drain.
            drop(st);
            if matches!(event, CheckEvent::Blocked(_)) {
                abandon_run();
            }
            return;
        }
        match event {
            CheckEvent::Op => {
                let _ = self.await_grant(st);
            }
            CheckEvent::Blocked(addr) => {
                // Not eligible again until the holder's Released(addr)
                // flips us back to AtYield; only then can a grant arrive.
                st.status[self.tid] = Status::Blocked(addr);
                self.ctl.cv.notify_all();
                loop {
                    if st.abort {
                        st.status[self.tid] = Status::Running;
                        drop(st);
                        abandon_run();
                    }
                    if st.granted == Some(self.tid) {
                        st.granted = None;
                        st.status[self.tid] = Status::Running;
                        return;
                    }
                    st = self
                        .ctl
                        .cv
                        .wait(st)
                        .expect("checker control state poisoned");
                }
            }
            CheckEvent::Released(addr) => {
                // Wake lock waiters; the releaser itself keeps running
                // (release is not a scheduling point — the preceding
                // critical-section operations already were).
                for s in st.status.iter_mut() {
                    if *s == Status::Blocked(addr) {
                        *s = Status::AtYield;
                    }
                }
                self.ctl.cv.notify_all();
            }
            CheckEvent::RegionEnter { region, write } => {
                // Register *at grant time*, so the conflict check sees
                // exactly the accesses active in this interleaving.
                let (mut st, aborted) = self.await_grant(st);
                if aborted {
                    return;
                }
                let (writers, readers) = st.regions.entry(region).or_insert((0, 0));
                let conflict = if write {
                    *writers > 0 || *readers > 0
                } else {
                    *writers > 0
                };
                if write {
                    *writers += 1;
                } else {
                    *readers += 1;
                }
                if conflict && st.violation.is_none() {
                    let kind = if write {
                        "overlapping writers"
                    } else {
                        "read overlapping a writer"
                    };
                    st.violation = Some(format!(
                        "torn payload: {kind} in region {region:#x} \
                         (thread {} entered while the region was active)",
                        self.tid
                    ));
                    self.ctl.cv.notify_all();
                }
            }
            CheckEvent::RegionExit { region, write } => {
                // Exit is a scheduling point too: it is the window in
                // which another thread's Enter can be interleaved, which
                // is what makes an overlap observable at all.
                let (mut st, aborted) = self.await_grant(st);
                if aborted {
                    return;
                }
                if let Some((writers, readers)) = st.regions.get_mut(&region) {
                    if write {
                        *writers = writers.saturating_sub(1);
                    } else {
                        *readers = readers.saturating_sub(1);
                    }
                }
            }
        }
    }
}

/// Scheduler loop: grant steps one at a time until all threads are done or
/// a violation aborts the run. Runs on the spawning thread.
fn drive(ctl: &Ctl, chooser: &mut dyn Chooser) {
    let mut st = ctl.lock();
    loop {
        // Quiescence: the previous grant was consumed and no thread is
        // executing model code — every live thread is parked.
        while st.granted.is_some() || st.status.contains(&Status::Running) {
            st = ctl.cv.wait(st).expect("checker control state poisoned");
        }
        if st.status.iter().all(|s| *s == Status::Done) {
            return;
        }
        if st.violation.is_none() && st.steps >= st.max_steps {
            st.violation = Some(format!(
                "step bound exceeded ({} scheduling points)",
                st.max_steps
            ));
        }
        let enabled: Vec<usize> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::AtYield)
            .map(|(t, _)| t)
            .collect();
        if st.violation.is_none() && enabled.is_empty() {
            // Live threads exist (not all Done) but none is eligible:
            // everyone left is blocked on a lock nobody will release.
            st.violation = Some("deadlock: all live threads blocked on locks".to_string());
        }
        if st.violation.is_some() {
            st.abort = true;
            ctl.cv.notify_all();
            while !st.status.iter().all(|s| *s == Status::Done) {
                st = ctl.cv.wait(st).expect("checker control state poisoned");
            }
            return;
        }
        let tid = chooser.pick(&enabled);
        debug_assert!(enabled.contains(&tid), "chooser returned disabled thread");
        st.trace.push(tid);
        st.steps += 1;
        st.granted = Some(tid);
        ctl.cv.notify_all();
    }
}

/// Result of one controlled execution of a model.
#[derive(Debug)]
pub struct RunOutcome {
    /// The violation, if any — from the executor's built-in properties, a
    /// model assertion, or a panic in model code.
    pub violation: Option<String>,
    /// Granted-thread schedule across all phases; feed to
    /// [`crate::explore::replay`] to reproduce this execution.
    pub trace: Vec<usize>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute `model` once under `chooser`, running each phase's threads in
/// lockstep with the model's glue code between phases.
pub fn run_one<M: Model>(model: &mut M, chooser: &mut dyn Chooser, max_steps: usize) -> RunOutcome {
    let n = model.threads();
    assert!(n > 0, "model must declare at least one thread");
    let mut trace = Vec::new();
    let mut violation: Option<String> = None;

    for phase in 0..model.phases() {
        if violation.is_some() {
            break;
        }
        let ctl = Arc::new(Ctl {
            state: Mutex::new(CtlState {
                status: vec![Status::Running; n],
                granted: None,
                regions: HashMap::new(),
                violation: None,
                abort: false,
                steps: trace.len(),
                max_steps,
                trace: Vec::new(),
            }),
            cv: Condvar::new(),
        });
        {
            let m = &*model;
            std::thread::scope(|s| {
                for tid in 0..n {
                    let ctl = Arc::clone(&ctl);
                    s.spawn(move || {
                        let hook = Arc::new(WorkerHook {
                            tid,
                            ctl: Arc::clone(&ctl),
                        });
                        set_check_hook(Some(hook));
                        let result = catch_unwind(AssertUnwindSafe(|| m.run(phase, tid)));
                        set_check_hook(None);
                        let mut st = ctl.lock();
                        if let Err(payload) = result {
                            if st.violation.is_none() {
                                st.violation = Some(format!(
                                    "thread {tid} panicked: {}",
                                    panic_message(payload.as_ref())
                                ));
                            }
                            st.abort = true;
                        }
                        st.status[tid] = Status::Done;
                        ctl.cv.notify_all();
                    });
                }
                drive(&ctl, chooser);
            });
        }
        let mut st = ctl.lock();
        trace.extend_from_slice(&st.trace);
        violation = st.violation.take();
        drop(st);
        if violation.is_none() {
            if let Err(msg) = model.after_phase(phase) {
                violation = Some(msg);
            }
        }
    }

    if violation.is_none() {
        if let Err(msg) = model.check_final() {
            violation = Some(msg);
        }
    }
    RunOutcome { violation, trace }
}
