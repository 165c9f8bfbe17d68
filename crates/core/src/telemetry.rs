//! Per-round telemetry: sharded counters, round snapshots, and exporters.
//!
//! The paper's performance argument is mechanistic — CAS-LT wins because
//! most competitors take a contention-free read-only fast path and skip
//! both the atomic and the write, while the gatekeeper funnels *every*
//! claim through an RMW. This module makes that observable for the real
//! kernels, per round:
//!
//! * **Recording** ([`CwTelemetry`] / [`TelemetryShard`] / [`ShardGuard`]):
//!   one cache-padded shard of counters per worker, holding both the claim
//!   counters ([`CwCounters`]) and the execution-substrate counters
//!   ([`ExecCounters`]: barrier waits and loop grabs). A worker installs
//!   its shard into thread-local storage with a [`ShardGuard`]; the
//!   arbiters' claim paths call the `record_*` hooks in this module, which
//!   increment the installed shard with `Relaxed` adds (and are no-ops
//!   when no shard is installed). The execution substrate, which knows
//!   each member's id, records barrier waits and grabs into that member's
//!   shard directly. The counter atomics are routed through
//!   [`crate::sync`], so under `--cfg pram_check` the checker can verify
//!   the instrumentation is *passive* — recording never changes
//!   arbitration outcomes.
//! * **Snapshots** ([`RoundSnapshot`] / [`RoundReport`]): the execution
//!   substrate sums the shards inside barrier rendezvous (where the whole
//!   team is parked, so per-round deltas are exact).
//! * **Exporters**: [`RoundReport::metrics_json`] (a stable-schema JSON
//!   dump with derived rates) and [`RoundReport::chrome_trace`] (a
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) span export
//!   of epochs, rounds, and barrier waits). Both serialize only timestamps
//!   recorded earlier by the collector — no clock is read during export,
//!   so output is a pure function of the report; golden files pin both.
//!
//! Recording is opt-in per team: a pool without telemetry holds no shards
//! and installs no guard, so its claim hooks find no sink.

use std::cell::Cell;
use std::fmt;

use crossbeam_utils::CachePadded;

// Routed through the facade so `--cfg pram_check` sees (and can schedule
// around) every telemetry increment — that is how the passivity model
// proves recording never perturbs arbitration.
use crate::sync::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Counter value types (plain data, no atomics)
// ---------------------------------------------------------------------------

/// Concurrent-write claim counters, as plain values.
///
/// One instance describes either a point-in-time snapshot (a sum over
/// shards) or a delta between two snapshots. Which fields are populated
/// depends on the method: CAS-LT uses `fast_path_skips` / `cas_attempts` /
/// `cas_failures` / `wins` / `rearm_resets`; gatekeeper uses
/// `gatekeeper_rmws` and `rearm_resets`; lock uses `lock_acquisitions`;
/// naive counts only `wins`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CwCounters {
    /// Claims resolved by a read-only fast path (CAS-LT's pre-CAS load):
    /// the atomic and the write were both skipped.
    pub fast_path_skips: u64,
    /// Compare-and-swap instructions issued (CAS-LT's slow path, at most
    /// one per claim).
    pub cas_attempts: u64,
    /// CAS instructions that failed: another competitor claimed the cell
    /// first, so the claim is lost (never retried).
    pub cas_failures: u64,
    /// Claims that returned `true` — for single-winner methods, exactly
    /// one per (cell, round).
    pub wins: u64,
    /// Gatekeeper fetch-and-increment instructions issued.
    pub gatekeeper_rmws: u64,
    /// Lock acquisitions on the critical-section baseline's claim path.
    pub lock_acquisitions: u64,
    /// Cells re-zeroed by explicit `reset_all` / `reset_range` passes
    /// (the re-arm cost CAS-LT's round advance avoids).
    pub rearm_resets: u64,
}

impl CwCounters {
    /// Claim calls that were *resolved* — by a fast-path skip or by
    /// issuing the method's atomic/lock (the denominator of
    /// [`CwCounters::fast_path_hit_rate`]). For CAS-LT this equals the
    /// number of `try_claim` calls.
    pub fn resolutions(&self) -> u64 {
        self.fast_path_skips + self.cas_attempts + self.gatekeeper_rmws + self.lock_acquisitions
    }

    /// Fraction of claim resolutions that took the read-only fast path,
    /// in `[0, 1]` (0.0 when nothing was recorded). The paper's headline
    /// mechanism metric: rises with contention for CAS-LT, identically
    /// zero for the plain gatekeeper.
    pub fn fast_path_hit_rate(&self) -> f64 {
        let total = self.resolutions();
        if total == 0 {
            0.0
        } else {
            self.fast_path_skips as f64 / total as f64
        }
    }

    /// Fraction of issued CASes that failed, in `[0, 1]` (0.0 when no CAS
    /// was issued). Only CAS-LT issues CASes, and a failed one is never
    /// retried: the claim is lost (wait-free).
    pub fn cas_retry_rate(&self) -> f64 {
        if self.cas_attempts == 0 {
            0.0
        } else {
            self.cas_failures as f64 / self.cas_attempts as f64
        }
    }

    /// Field-wise accumulate.
    pub fn add(&mut self, other: &CwCounters) {
        self.fast_path_skips += other.fast_path_skips;
        self.cas_attempts += other.cas_attempts;
        self.cas_failures += other.cas_failures;
        self.wins += other.wins;
        self.gatekeeper_rmws += other.gatekeeper_rmws;
        self.lock_acquisitions += other.lock_acquisitions;
        self.rearm_resets += other.rearm_resets;
    }

    /// Field-wise `self − baseline` (saturating): the counters accrued
    /// since `baseline` was snapshotted.
    pub fn delta_since(&self, baseline: &CwCounters) -> CwCounters {
        CwCounters {
            fast_path_skips: self
                .fast_path_skips
                .saturating_sub(baseline.fast_path_skips),
            cas_attempts: self.cas_attempts.saturating_sub(baseline.cas_attempts),
            cas_failures: self.cas_failures.saturating_sub(baseline.cas_failures),
            wins: self.wins.saturating_sub(baseline.wins),
            gatekeeper_rmws: self
                .gatekeeper_rmws
                .saturating_sub(baseline.gatekeeper_rmws),
            lock_acquisitions: self
                .lock_acquisitions
                .saturating_sub(baseline.lock_acquisitions),
            rearm_resets: self.rearm_resets.saturating_sub(baseline.rearm_resets),
        }
    }
}

impl fmt::Display for CwCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fast_skips={} cas={} cas_failed={} wins={} gk_rmws={} locks={} resets={} \
             (fast-path {:.1}%, cas-retry {:.1}%)",
            self.fast_path_skips,
            self.cas_attempts,
            self.cas_failures,
            self.wins,
            self.gatekeeper_rmws,
            self.lock_acquisitions,
            self.rearm_resets,
            self.fast_path_hit_rate() * 100.0,
            self.cas_retry_rate() * 100.0
        )
    }
}

/// Execution-substrate counters, as plain values: barrier traffic and
/// loop-scheduling grabs, summed over the team or accrued over one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecCounters {
    /// Barrier rendezvous completed.
    pub barrier_waits: u64,
    /// Nanoseconds spent waiting at barriers (summed over workers).
    pub barrier_wait_ns: u64,
    /// Loop chunks grabbed from a shared cursor.
    pub grabs: u64,
}

impl ExecCounters {
    /// Field-wise accumulate.
    pub fn add(&mut self, other: &ExecCounters) {
        self.barrier_waits += other.barrier_waits;
        self.barrier_wait_ns += other.barrier_wait_ns;
        self.grabs += other.grabs;
    }

    /// Field-wise `self − baseline` (saturating).
    pub fn delta_since(&self, baseline: &ExecCounters) -> ExecCounters {
        ExecCounters {
            barrier_waits: self.barrier_waits.saturating_sub(baseline.barrier_waits),
            barrier_wait_ns: self
                .barrier_wait_ns
                .saturating_sub(baseline.barrier_wait_ns),
            grabs: self.grabs.saturating_sub(baseline.grabs),
        }
    }
}

/// One lock-step round's telemetry: counter deltas between the round's
/// opening and closing barriers, stamped with timestamps supplied by the
/// collector (never read at export time).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSnapshot {
    /// Which `converge_rounds` invocation (parallel region) this round
    /// belongs to.
    pub epoch: u32,
    /// Round index within the epoch (0-based iteration).
    pub round: u32,
    /// Kernel-supplied annotation (e.g. `"push"` / `"pull"` / `"hook"`);
    /// empty when the kernel did not annotate.
    pub label: String,
    /// Round start, nanoseconds on the collector's clock (relative to the
    /// collector's chosen origin).
    pub start_ns: u64,
    /// Round wall time, nanoseconds.
    pub wall_ns: u64,
    /// Claim-counter deltas accrued during the round.
    pub cw: CwCounters,
    /// Execution-counter deltas accrued during the round.
    pub exec: ExecCounters,
}

/// A full telemetry report: per-round snapshots plus whole-run totals
/// (the totals also cover work outside annotated rounds — `for_each`
/// regions, reset passes between rounds).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundReport {
    /// Team size the counters were collected under.
    pub threads: usize,
    /// Per-round snapshots, in collection order.
    pub rounds: Vec<RoundSnapshot>,
    /// Whole-run claim-counter totals.
    pub totals_cw: CwCounters,
    /// Whole-run execution-counter totals.
    pub totals_exec: ExecCounters,
}

const METRICS_SCHEMA: &str = "pram-telemetry-v2";

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn cw_json(c: &CwCounters) -> String {
    format!(
        "{{\"fast_path_skips\": {}, \"cas_attempts\": {}, \"cas_failures\": {}, \
         \"wins\": {}, \"gatekeeper_rmws\": {}, \"lock_acquisitions\": {}, \
         \"rearm_resets\": {}}}",
        c.fast_path_skips,
        c.cas_attempts,
        c.cas_failures,
        c.wins,
        c.gatekeeper_rmws,
        c.lock_acquisitions,
        c.rearm_resets
    )
}

fn exec_json(e: &ExecCounters) -> String {
    format!(
        "{{\"barrier_waits\": {}, \"barrier_wait_ns\": {}, \"grabs\": {}}}",
        e.barrier_waits, e.barrier_wait_ns, e.grabs
    )
}

impl RoundReport {
    /// The stable-schema JSON metrics dump (`pram-telemetry-v2`).
    ///
    /// Field ordering is fixed; counters are exact integers; the derived
    /// rates (`fast_path_hit_rate`, `cas_retry_rate`) are redundant
    /// conveniences. Output is a pure function of the report (the
    /// golden-file test pins it).
    pub fn metrics_json(&self) -> String {
        let rounds: Vec<String> = self
            .rounds
            .iter()
            .map(|r| {
                format!(
                    "{{\"epoch\": {}, \"round\": {}, \"label\": \"{}\", \"start_ns\": {}, \
                     \"wall_ns\": {}, \"cw\": {}, \"exec\": {}}}",
                    r.epoch,
                    r.round,
                    json_escape(&r.label),
                    r.start_ns,
                    r.wall_ns,
                    cw_json(&r.cw),
                    exec_json(&r.exec)
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{METRICS_SCHEMA}\",\n  \"threads\": {},\n  \"totals\": {{\n    \
             \"cw\": {},\n    \"exec\": {},\n    \"fast_path_hit_rate\": {:.6},\n    \
             \"cas_retry_rate\": {:.6}\n  }},\n  \"rounds\": [\n    \
             {}\n  ]\n}}\n",
            self.threads,
            cw_json(&self.totals_cw),
            exec_json(&self.totals_exec),
            self.totals_cw.fast_path_hit_rate(),
            self.totals_cw.cas_retry_rate(),
            rounds.join(",\n    ")
        )
    }

    /// Export as `chrome://tracing` "Trace Event Format" JSON (load in
    /// `chrome://tracing` or Perfetto).
    ///
    /// Spans, in stable field order, all `ph: "X"` complete events with
    /// microsecond `ts`/`dur` derived from the recorded nanosecond
    /// timestamps (thousandths preserved):
    ///
    /// * track `tid 0` — one span per epoch, covering its rounds;
    /// * track `tid 1` — one span per round, named
    ///   `"round <n> [<label>]"`, with the round's claim counters in
    ///   `args`;
    /// * track `tid 2` — one `"barrier-wait"` span per round that
    ///   recorded barrier waiting, `dur` = the team's summed wait time.
    ///
    /// No clock is read here: output is a pure function of the report, so
    /// identical reports serialize byte-identically (the golden-file test
    /// pins this).
    pub fn chrome_trace(&self) -> String {
        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        let mut events: Vec<String> = Vec::new();
        // Epoch spans: rounds arrive in collection order, so each epoch's
        // extent is the min start / max end over its contiguous run.
        let mut epochs: Vec<(u32, u64, u64)> = Vec::new(); // (epoch, start, end)
        for r in &self.rounds {
            let end = r.start_ns + r.wall_ns;
            match epochs.last_mut() {
                Some((e, s, en)) if *e == r.epoch => {
                    *s = (*s).min(r.start_ns);
                    *en = (*en).max(end);
                }
                _ => epochs.push((r.epoch, r.start_ns, end)),
            }
        }
        for (e, start, end) in &epochs {
            events.push(format!(
                "{{\"name\": \"epoch {e}\", \"cat\": \"epoch\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": 0}}",
                us(*start),
                us(end.saturating_sub(*start))
            ));
        }
        for r in &self.rounds {
            let name = if r.label.is_empty() {
                format!("round {}", r.round)
            } else {
                format!("round {} [{}]", r.round, json_escape(&r.label))
            };
            events.push(format!(
                "{{\"name\": \"{name}\", \"cat\": \"round\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": 1, \"args\": {}}}",
                us(r.start_ns),
                us(r.wall_ns),
                cw_json(&r.cw)
            ));
        }
        for r in &self.rounds {
            if r.exec.barrier_wait_ns > 0 {
                events.push(format!(
                    "{{\"name\": \"barrier-wait\", \"cat\": \"barrier\", \"ph\": \"X\", \
                     \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": 2, \
                     \"args\": {{\"barrier_waits\": {}}}}}",
                    us(r.start_ns),
                    us(r.exec.barrier_wait_ns),
                    r.exec.barrier_waits
                ));
            }
        }
        format!(
            "{{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n  {}\n ]}}\n",
            events.join(",\n  ")
        )
    }
}

// ---------------------------------------------------------------------------
// Recording side: one cache-padded shard per worker
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ShardSlots {
    fast_path_skips: AtomicU64,
    cas_attempts: AtomicU64,
    cas_failures: AtomicU64,
    wins: AtomicU64,
    gatekeeper_rmws: AtomicU64,
    lock_acquisitions: AtomicU64,
    rearm_resets: AtomicU64,
    barrier_waits: AtomicU64,
    barrier_wait_ns: AtomicU64,
    grabs: AtomicU64,
}

impl ShardSlots {
    const fn new() -> ShardSlots {
        ShardSlots {
            fast_path_skips: AtomicU64::new(0),
            cas_attempts: AtomicU64::new(0),
            cas_failures: AtomicU64::new(0),
            wins: AtomicU64::new(0),
            gatekeeper_rmws: AtomicU64::new(0),
            lock_acquisitions: AtomicU64::new(0),
            rearm_resets: AtomicU64::new(0),
            barrier_waits: AtomicU64::new(0),
            barrier_wait_ns: AtomicU64::new(0),
            grabs: AtomicU64::new(0),
        }
    }
}

/// One worker's claim and execution counters, on its own cache line(s)
/// so recording never bounces a line between the threads it observes.
#[derive(Debug)]
pub struct TelemetryShard {
    slots: CachePadded<ShardSlots>,
}

impl TelemetryShard {
    /// A zeroed shard.
    pub fn new() -> TelemetryShard {
        TelemetryShard {
            slots: CachePadded::new(ShardSlots::new()),
        }
    }

    /// One barrier rendezvous by this shard's worker, which waited
    /// `wait_ns` nanoseconds in it.
    #[inline]
    pub fn record_barrier_wait(&self, wait_ns: u64) {
        self.slots.barrier_waits.fetch_add(1, Ordering::Relaxed);
        self.slots
            .barrier_wait_ns
            .fetch_add(wait_ns, Ordering::Relaxed);
    }

    /// One loop chunk grabbed by this shard's worker from a shared cursor.
    #[inline]
    pub fn record_grab(&self) {
        self.slots.grabs.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of this shard (exact when its owner
    /// is quiescent).
    pub fn snapshot(&self) -> (CwCounters, ExecCounters) {
        let s = &*self.slots;
        let cw = CwCounters {
            fast_path_skips: s.fast_path_skips.load(Ordering::Relaxed),
            cas_attempts: s.cas_attempts.load(Ordering::Relaxed),
            cas_failures: s.cas_failures.load(Ordering::Relaxed),
            wins: s.wins.load(Ordering::Relaxed),
            gatekeeper_rmws: s.gatekeeper_rmws.load(Ordering::Relaxed),
            lock_acquisitions: s.lock_acquisitions.load(Ordering::Relaxed),
            rearm_resets: s.rearm_resets.load(Ordering::Relaxed),
        };
        let exec = ExecCounters {
            barrier_waits: s.barrier_waits.load(Ordering::Relaxed),
            barrier_wait_ns: s.barrier_wait_ns.load(Ordering::Relaxed),
            grabs: s.grabs.load(Ordering::Relaxed),
        };
        (cw, exec)
    }
}

impl Default for TelemetryShard {
    fn default() -> TelemetryShard {
        TelemetryShard::new()
    }
}

/// The sharded counter set for one team: shard `i` belongs to worker
/// `i`, each worker records only into its own shard (claims via
/// [`ShardGuard`], execution events via the shard's `record_*`
/// methods), and [`CwTelemetry::totals`] sums shards.
#[derive(Debug)]
pub struct CwTelemetry {
    shards: Box<[TelemetryShard]>,
}

impl CwTelemetry {
    /// Zeroed shards for a team of `threads` workers.
    pub fn new(threads: usize) -> CwTelemetry {
        let mut v = Vec::with_capacity(threads.max(1));
        v.resize_with(threads.max(1), TelemetryShard::new);
        CwTelemetry {
            shards: v.into_boxed_slice(),
        }
    }

    /// Number of shards (the team size, at least 1).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Worker `i`'s shard.
    #[inline]
    pub fn shard(&self, i: usize) -> &TelemetryShard {
        &self.shards[i]
    }

    /// Claim and execution counters summed over all shards in one pass
    /// (exact when the team is quiescent, e.g. inside a barrier's
    /// rendezvous).
    pub fn totals(&self) -> (CwCounters, ExecCounters) {
        let mut cw = CwCounters::default();
        let mut exec = ExecCounters::default();
        for s in self.shards.iter() {
            let (c, e) = s.snapshot();
            cw.add(&c);
            exec.add(&e);
        }
        (cw, exec)
    }
}

thread_local! {
    /// Where this thread's claim `record_*` calls land; null = recording
    /// disabled (the default for every thread).
    static SINK: Cell<*const TelemetryShard> = const { Cell::new(std::ptr::null()) };
}

/// RAII registration of a shard as the current thread's recording
/// sink. Restores the previous sink on drop, so guards nest; the
/// borrow keeps the shard alive for the registration's lifetime.
/// `!Send` by construction (raw pointer member): a guard cannot
/// outlive its thread's stack frame on another thread.
#[derive(Debug)]
pub struct ShardGuard<'a> {
    _shard: &'a TelemetryShard,
    prev: *const TelemetryShard,
}

impl<'a> ShardGuard<'a> {
    /// Route this thread's claim `record_*` calls into `shard` until the
    /// guard drops.
    pub fn install(shard: &'a TelemetryShard) -> ShardGuard<'a> {
        let prev = SINK.with(|s| s.replace(shard as *const TelemetryShard));
        ShardGuard {
            _shard: shard,
            prev,
        }
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        SINK.with(|s| s.set(self.prev));
    }
}

#[inline]
fn with_sink(f: impl FnOnce(&ShardSlots)) {
    let p = SINK.with(|s| s.get());
    if !p.is_null() {
        // SAFETY: `p` was installed by a live `ShardGuard` on this
        // thread, whose `&TelemetryShard` borrow outlives the guard
        // (and the guard restores the previous sink on drop), so the
        // shard is alive for the duration of this call.
        let shard = unsafe { &*p };
        f(&shard.slots);
    }
}

/// A claim resolved by a read-only fast path.
#[inline]
pub(crate) fn record_fast_skip() {
    with_sink(|s| {
        s.fast_path_skips.fetch_add(1, Ordering::Relaxed);
    });
}

/// A CAS issued on a claim path.
#[inline]
pub(crate) fn record_cas_attempt() {
    with_sink(|s| {
        s.cas_attempts.fetch_add(1, Ordering::Relaxed);
    });
}

/// A claim-path CAS that failed.
#[inline]
pub(crate) fn record_cas_failure() {
    with_sink(|s| {
        s.cas_failures.fetch_add(1, Ordering::Relaxed);
    });
}

/// A claim that returned `true`.
#[inline]
pub(crate) fn record_win() {
    with_sink(|s| {
        s.wins.fetch_add(1, Ordering::Relaxed);
    });
}

/// A gatekeeper fetch-and-increment issued.
#[inline]
pub(crate) fn record_gatekeeper_rmw() {
    with_sink(|s| {
        s.gatekeeper_rmws.fetch_add(1, Ordering::Relaxed);
    });
}

/// A lock acquired on the lock baseline's claim path.
#[inline]
pub(crate) fn record_lock_acquisition() {
    with_sink(|s| {
        s.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
    });
}

/// `n` cells re-zeroed by a reset pass.
#[inline]
pub(crate) fn record_rearm_resets(n: u64) {
    if n > 0 {
        with_sink(|s| {
            s.rearm_resets.fetch_add(n, Ordering::Relaxed);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RoundReport {
        RoundReport {
            threads: 4,
            rounds: vec![
                RoundSnapshot {
                    epoch: 0,
                    round: 0,
                    label: "push".to_string(),
                    start_ns: 1_000,
                    wall_ns: 2_500,
                    cw: CwCounters {
                        fast_path_skips: 5,
                        cas_attempts: 7,
                        cas_failures: 3,
                        wins: 4,
                        gatekeeper_rmws: 0,
                        lock_acquisitions: 0,
                        rearm_resets: 0,
                    },
                    exec: ExecCounters {
                        barrier_waits: 8,
                        barrier_wait_ns: 900,
                        grabs: 12,
                    },
                },
                RoundSnapshot {
                    epoch: 0,
                    round: 1,
                    label: String::new(),
                    start_ns: 3_500,
                    wall_ns: 1_000,
                    cw: CwCounters {
                        fast_path_skips: 9,
                        cas_attempts: 1,
                        cas_failures: 0,
                        wins: 1,
                        ..CwCounters::default()
                    },
                    exec: ExecCounters::default(),
                },
            ],
            totals_cw: CwCounters {
                fast_path_skips: 14,
                cas_attempts: 8,
                cas_failures: 3,
                wins: 5,
                gatekeeper_rmws: 0,
                lock_acquisitions: 0,
                rearm_resets: 16,
            },
            totals_exec: ExecCounters {
                barrier_waits: 8,
                barrier_wait_ns: 900,
                grabs: 12,
            },
        }
    }

    #[test]
    fn counter_math_rates_add_delta() {
        let mut a = CwCounters {
            fast_path_skips: 6,
            cas_attempts: 2,
            cas_failures: 1,
            wins: 1,
            ..CwCounters::default()
        };
        assert_eq!(a.resolutions(), 8);
        assert!((a.fast_path_hit_rate() - 0.75).abs() < 1e-12);
        assert!((a.cas_retry_rate() - 0.5).abs() < 1e-12);
        let b = a;
        a.add(&b);
        assert_eq!(a.fast_path_skips, 12);
        assert_eq!(a.delta_since(&b), b);
        assert_eq!(CwCounters::default().fast_path_hit_rate(), 0.0);
        assert_eq!(CwCounters::default().cas_retry_rate(), 0.0);
        let mut e = ExecCounters {
            grabs: 3,
            barrier_waits: 2,
            ..ExecCounters::default()
        };
        let e0 = e;
        e.add(&e0);
        assert_eq!(e.grabs, 6);
        assert_eq!(e.barrier_waits, 4);
        assert_eq!(e.delta_since(&e0), e0);
    }

    #[test]
    fn chrome_trace_is_deterministic_and_monotone() {
        let report = sample_report();
        let trace = report.chrome_trace();
        assert_eq!(trace, report.chrome_trace());
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("epoch 0"));
        assert!(trace.contains("round 0 [push]"));
        assert!(trace.contains("round 1"));
        assert!(trace.contains("barrier-wait"));
        // Round spans appear in recorded (monotone-timestamp) order.
        let p0 = trace.find("round 0 [push]").unwrap();
        let p1 = trace.find("\"round 1\"").unwrap();
        assert!(p0 < p1);
    }

    #[test]
    fn display_formats() {
        let c = sample_report().totals_cw;
        let txt = format!("{c}");
        assert!(txt.contains("fast_skips=14"));
        assert!(txt.contains("resets=16"));
    }

    #[test]
    fn recording_lands_in_installed_shard_only() {
        let telem = CwTelemetry::new(2);
        // No guard installed: hooks are no-ops.
        record_win();
        assert_eq!(telem.totals(), Default::default());
        {
            let _g = ShardGuard::install(telem.shard(0));
            record_fast_skip();
            record_cas_attempt();
            record_cas_failure();
            record_win();
            record_gatekeeper_rmw();
            record_lock_acquisition();
            record_rearm_resets(5);
            record_rearm_resets(0);
        }
        // Guard dropped: recording is off again.
        record_win();
        // Execution events go to the named shard, no guard involved.
        telem.shard(0).record_barrier_wait(1_000);
        telem.shard(0).record_barrier_wait(500);
        telem.shard(0).record_grab();
        telem.shard(1).record_grab();
        telem.shard(1).record_grab();
        let (t, e) = telem.totals();
        assert_eq!(t.fast_path_skips, 1);
        assert_eq!(t.cas_attempts, 1);
        assert_eq!(t.cas_failures, 1);
        assert_eq!(t.wins, 1);
        assert_eq!(t.gatekeeper_rmws, 1);
        assert_eq!(t.lock_acquisitions, 1);
        assert_eq!(t.rearm_resets, 5);
        let exec = |barrier_waits, barrier_wait_ns, grabs| ExecCounters {
            barrier_waits,
            barrier_wait_ns,
            grabs,
        };
        assert_eq!(e, exec(2, 1_500, 3));
        assert_eq!(telem.shard(0).snapshot().1, exec(2, 1_500, 1));
        assert_eq!(
            telem.shard(1).snapshot(),
            (CwCounters::default(), exec(0, 0, 2))
        );
        // The arbiters never carry counters: a cell is its round word.
        assert_eq!(
            std::mem::size_of::<crate::CasLtCell>(),
            std::mem::size_of::<u32>()
        );
    }

    #[test]
    fn shard_guards_nest_and_restore() {
        let telem = CwTelemetry::new(2);
        let g0 = ShardGuard::install(telem.shard(0));
        record_win();
        {
            let _g1 = ShardGuard::install(telem.shard(1));
            record_win();
        }
        record_win();
        drop(g0);
        record_win(); // no sink
        assert_eq!(telem.shard(0).snapshot().0.wins, 2);
        assert_eq!(telem.shard(1).snapshot().0.wins, 1);
    }
}
