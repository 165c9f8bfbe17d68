//! `figures micro` → `BENCH_micro.json`: single-thread costs of the
//! arbitration primitives — the per-claim costs that §6's asymptotic
//! argument is built from — in nanoseconds per operation. Each sample
//! times a batch of operations; all configs share one interleaved sampler.
//!
//! * `losing_claim` — the claim each method repeats millions of times in
//!   the Max kernel once a winner exists. CAS-LT's is one load; the
//!   gatekeeper's is a full RMW.
//! * `winning_claim` — a fresh round every operation, so the CAS executes.
//! * `rearm_64k_cells` — what the gatekeeper pays that CAS-LT does not:
//!   re-arming 64 K cells (its per-round reset pass) vs bumping a round.

use std::hint::black_box;

use pram_core::{
    CasLtCell, GatekeeperArray, GatekeeperCell, LockCell, Round, RoundCounter, SliceArbiter,
};

use crate::runner::{json_str, time_interleaved, timing_row, Report};
use crate::{BenchConfig, ScaleProfile};

/// One config: group, name, operations per sample, and the batch itself.
type Op<'a> = (&'static str, &'static str, u64, Box<dyn FnMut() + 'a>);

/// `ops` calls of `f`, each result through `black_box`.
fn batch<T>(ops: u64, mut f: impl FnMut() -> T) -> impl FnMut() {
    move || {
        for _ in 0..ops {
            black_box(f());
        }
    }
}

/// Run the target (single-threaded).
pub fn run(cfg: &BenchConfig) -> Report {
    let k = if cfg.scale == ScaleProfile::Quick {
        10
    } else {
        1
    };
    let claims = 200_000 / k;
    let resets = 200 / k;
    let round = Round::FIRST;

    let caslt = CasLtCell::new();
    caslt.try_claim(round);
    let gate = GatekeeperCell::new();
    gate.try_claim_once();
    let lock = LockCell::new();
    lock.try_claim(round);
    let (caslt_w, lock_w) = (CasLtCell::new(), LockCell::new());
    let (mut r0, mut r1) = (RoundCounter::new(), RoundCounter::new());
    let cells = GatekeeperArray::new(65_536);
    let mut bump = RoundCounter::new();

    let mut ops: Vec<Op<'_>> = vec![
        (
            "losing_claim",
            "caslt_fast_path",
            claims,
            Box::new(batch(claims, || caslt.try_claim(round))),
        ),
        (
            "losing_claim",
            "gatekeeper_rmw",
            claims,
            Box::new(batch(claims, || gate.try_claim_once())),
        ),
        (
            "losing_claim",
            "lock",
            claims,
            Box::new(batch(claims, || lock.try_claim(round))),
        ),
        (
            "winning_claim",
            "caslt_cas",
            claims,
            Box::new(batch(claims, || {
                caslt_w.try_claim(r0.next_round_or_reset(|| {}))
            })),
        ),
        (
            "winning_claim",
            "lock",
            claims,
            Box::new(batch(claims, || {
                lock_w.try_claim(r1.next_round_or_reset(|| {}))
            })),
        ),
        (
            "rearm_64k_cells",
            "gatekeeper_reset_pass",
            resets,
            Box::new(batch(resets, || cells.reset_all())),
        ),
        (
            "rearm_64k_cells",
            "caslt_round_bump",
            claims,
            Box::new(batch(claims, || bump.next_round_or_reset(|| {}))),
        ),
    ];
    let times = time_interleaved(cfg.reps, ops.len(), cfg.seed, |i| (ops[i].3)());

    let rows = ops
        .iter()
        .zip(times)
        .map(|((group, name, n, _), s)| {
            let key = [("group", json_str(group)), ("name", json_str(name))];
            // Milliseconds per batch → nanoseconds per operation.
            let ns = s.scaled(1e6 / *n as f64);
            timing_row(&key, "ns", &ns, &format!("\"ops_per_sample\": {n}"))
        })
        .collect();
    let mut report = Report::new("micro", "micro", cfg, &[1]);
    report.sections = vec![("results", rows)];
    report
}
