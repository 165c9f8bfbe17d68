//! Counter-accuracy under the thread pool: fully contended CW rounds where
//! every team member claims every cell, with per-(round) conservation
//! identities checked against the pool's [`RoundReport`].
//!
//! These are the OS-thread half of the satellite; the lockstep half (same
//! identities under exhaustive 2-thread schedules) lives in
//! `tests/check_telemetry.rs` behind `--cfg pram_check`.
//!
//! Per fully contended round with `T` claimants per cell and `C` cells:
//!
//! * CAS-LT: `fast_path_skips + cas_attempts == T*C`, `wins == C`,
//!   `cas_failures == cas_attempts - wins`.
//! * Gatekeeper: exactly `T*C` fetch-adds, `wins == C`, no skips; the
//!   per-round reset pass counts `C` re-arms.
//! * Lock: every claim acquires (`lock_acquisitions == T*C`), `wins == C`.
//! * Naive: every claimant "wins" (`wins == T*C`) — the broken-CW baseline.
//!
//! Exec counters obey the same exactness: a round opens and closes inside
//! a barrier rendezvous, so a fixed body reports the same `barrier_waits`
//! and `grabs` in every round.

use pram_core::{
    CasLtArray, GatekeeperArray, LockArray, NaiveArbiter, Round, RoundReport, SliceArbiter,
};
use pram_exec::{PoolConfig, Schedule, ThreadPool, WorkerCtx};

/// Team size (claimants per cell).
const T: usize = 4;
/// Cells per arbiter, divisible by `T` so the re-arm pass splits evenly.
const C: usize = 8;
/// Rounds per run.
const R: u32 = 4;

/// Run `R` fully contended rounds of `body` on a telemetry pool and hand
/// back the drained report, with the round/label framing pre-checked.
fn collect(label: &'static str, body: impl Fn(&WorkerCtx<'_>, Round) + Sync) -> RoundReport {
    let pool = ThreadPool::with_config(PoolConfig::new(T).telemetry(true));
    pool.run(|ctx| {
        let c = ctx.converge_rounds(R + 4, [0, 0], |round, _| {
            ctx.annotate_round(label);
            body(ctx, round);
            [u64::from(round.get() < R), 0]
        });
        assert_eq!(c.rounds, R);
    });
    let report = pool.take_round_report();
    assert_eq!(report.threads, T);
    assert_eq!(report.rounds.len(), R as usize, "{label}");
    for (i, r) in report.rounds.iter().enumerate() {
        assert_eq!(r.round as usize, i, "{label}");
        assert_eq!(r.label, label);
    }
    report
}

/// Every member claims every cell: `T` claimants per cell per round.
fn claim_all(arb: &impl SliceArbiter, round: Round) {
    for i in 0..C {
        arb.try_claim(i, round);
    }
}

#[test]
fn caslt_pool_conservation() {
    let arb = CasLtArray::new(C);
    let report = collect("caslt", |_, round| claim_all(&arb, round));
    let (t, c) = (T as u64, C as u64);
    for (i, r) in report.rounds.iter().enumerate() {
        let cw = &r.cw;
        assert_eq!(cw.wins, c, "round {i}: one winner per cell");
        assert_eq!(
            cw.fast_path_skips + cw.cas_attempts,
            t * c,
            "round {i}: every claim skips or CASes"
        );
        assert_eq!(
            cw.cas_failures,
            cw.cas_attempts - cw.wins,
            "round {i}: failed CASes are attempts minus wins"
        );
        assert_eq!(cw.resolutions(), t * c, "round {i}");
        assert_eq!(cw.gatekeeper_rmws, 0, "round {i}");
        assert_eq!(cw.lock_acquisitions, 0, "round {i}");
        assert_eq!(cw.rearm_resets, 0, "round {i}: CAS-LT re-arms free");
    }
    // The drained totals are exactly the per-round sums here: nothing ran
    // outside a round window.
    assert_eq!(report.totals_cw.wins, R as u64 * c);
    assert_eq!(
        report.totals_cw.cas_attempts,
        report.rounds.iter().map(|r| r.cw.cas_attempts).sum::<u64>()
    );
}

#[test]
fn gatekeeper_pool_conservation() {
    let arb = GatekeeperArray::new(C);
    let report = collect("gatekeeper", |ctx, round| {
        claim_all(&arb, round);
        // Wait for the round's claims, then re-arm a disjoint block of
        // the cells from each member.
        ctx.rearm(&arb, true);
    });
    let (t, c) = (T as u64, C as u64);
    for (i, r) in report.rounds.iter().enumerate() {
        let cw = &r.cw;
        assert_eq!(
            cw.gatekeeper_rmws,
            t * c,
            "round {i}: exactly T fetch-adds per cell"
        );
        assert_eq!(cw.wins, c, "round {i}");
        assert_eq!(
            cw.fast_path_skips, 0,
            "round {i}: plain gatekeeper never skips"
        );
        assert_eq!(cw.cas_attempts, 0, "round {i}");
        assert_eq!(
            cw.rearm_resets, c,
            "round {i}: the reset pass re-arms every cell"
        );
    }
    assert_eq!(report.totals_cw.gatekeeper_rmws, R as u64 * t * c);
}

#[test]
fn lock_pool_conservation() {
    let arb = LockArray::new(C);
    let report = collect("lock", |_, round| claim_all(&arb, round));
    let (t, c) = (T as u64, C as u64);
    for (i, r) in report.rounds.iter().enumerate() {
        let cw = &r.cw;
        assert_eq!(cw.lock_acquisitions, t * c, "round {i}: every claim locks");
        assert_eq!(cw.wins, c, "round {i}");
        assert_eq!(cw.fast_path_skips, 0, "round {i}: no read fast path");
        assert_eq!(cw.cas_attempts, 0, "round {i}");
    }
}

#[test]
fn naive_pool_conservation() {
    let arb = NaiveArbiter::new(C);
    let report = collect("naive", |_, round| claim_all(&arb, round));
    let (t, c) = (T as u64, C as u64);
    for (i, r) in report.rounds.iter().enumerate() {
        let cw = &r.cw;
        assert_eq!(
            cw.wins,
            t * c,
            "round {i}: naive lets every claimant through — the counter \
             makes the broken-CW baseline visible"
        );
        assert_eq!(cw.resolutions(), 0, "round {i}: nothing arbitrates");
    }
}

#[test]
fn exec_deltas_are_exact_per_round() {
    for threads in [2u64, 3] {
        let pool = ThreadPool::with_config(PoolConfig::new(threads as usize).telemetry(true));
        for _ in 0..50 {
            pool.run(|ctx| {
                ctx.converge_rounds(20, [0, 0], |_, _| {
                    ctx.barrier();
                    // One ending rendezvous, 64 / 8 grabs.
                    ctx.for_each(0..64, Schedule::Dynamic { chunk: 8 }, |_| {});
                    [1, 0]
                });
            });
        }
        let rounds = pool.take_round_report().rounds;
        assert_eq!(rounds.len(), 50 * 20);
        for r in &rounds {
            // The opening rendezvous (the call's, or the previous round's
            // closing one), the body's barrier and the loop's ending one:
            // T waits each. The round's own closing rendezvous is not in it.
            assert_eq!(
                (r.exec.barrier_waits, r.exec.grabs),
                (3 * threads, 8),
                "T={threads}, epoch {} round {}",
                r.epoch,
                r.round
            );
        }
    }
}

#[test]
fn kernel_rounds_pay_only_their_own_rendezvous() {
    use pram_algos::{bfs_with_strategy, connected_components, BfsStrategy, CwMethod};
    use pram_graph::{CsrGraph, GraphGen};

    let star = CsrGraph::from_edges(2000, &GraphGen::star(2000), true);
    let complete = CsrGraph::from_edges(64, &GraphGen::complete(64), true);
    for t in [2u64, 3] {
        let pool = ThreadPool::with_config(PoolConfig::new(t as usize).telemetry(true));
        // Each round counts its opening rendezvous (the call's, or the
        // previous round's closing one) and its body's, T waits each.
        // From a leaf of the star: a push round (opening, frontier loop),
        // a pull round that also converts the queue to a bitmap (opening,
        // two conversion loops, pull loop), and a last pull round that
        // finds nothing (opening, pull loop). The frontier's size and
        // edge count arrive with the previous round's closing sum.
        let r = bfs_with_strategy(
            &star,
            1,
            CwMethod::CasLt,
            BfsStrategy::DirectionOptimizing,
            &pool,
        );
        assert_eq!(r.rounds, 3);
        let got: Vec<(String, u64)> = pool
            .take_round_report()
            .rounds
            .into_iter()
            .map(|r| (r.label, r.exec.barrier_waits))
            .collect();
        let want = [("push", 2), ("pull", 4), ("pull", 2)].map(|(l, k)| (l.to_string(), k * t));
        assert_eq!(got, want, "DO-BFS at T={t}");

        // CC: the opening, the conditional phase's team sum and the
        // unconditional phase's barrier; the compress pass runs nowait.
        // The last round takes the fixed-point exit after the team sum, so
        // it pays two.
        let cc = connected_components(&complete, CwMethod::CasLt, &pool);
        let rounds = pool.take_round_report().rounds;
        assert_eq!(rounds.len(), cc.iterations as usize);
        assert!(
            rounds.len() >= 2,
            "CC on complete(64) hooks before it stops"
        );
        let last = rounds.len() - 1;
        for (k, r) in rounds.iter().enumerate() {
            let want = if k == last { 2 * t } else { 3 * t };
            assert_eq!(r.exec.barrier_waits, want, "CC at T={t}, round {}", r.round);
        }
    }
}

#[test]
fn gatekeeper_kernels_rearm_every_cell_once_per_claiming_round() {
    use pram_algos::matching::maximal_matching;
    use pram_algos::{bfs_with_strategy, BfsStrategy, CwMethod};
    use pram_graph::{CsrGraph, GraphGen};

    // R-MAT from its hub pushes, pulls and pushes again; G(n, m) gives
    // matching a few rounds of claims.
    let rmat = CsrGraph::from_edges(1024, &GraphGen::new(5).rmat_standard(10, 8000), true);
    let gnm = CsrGraph::from_edges(300, &GraphGen::new(3).gnm(300, 900), true);
    let method = CwMethod::Gatekeeper;
    for t in 1..=4u64 {
        let pool = ThreadPool::with_config(PoolConfig::new(t as usize).telemetry(true));
        // One kernel call's rounds as (label, re-armed cells, rendezvous),
        // and its rendezvous in all: a round counts its opening one and its
        // body's, and the call adds the last round's closing one.
        let call = |run: &dyn Fn()| {
            let before = pool.take_round_report().totals_exec;
            run();
            let report = pool.take_round_report();
            let rounds: Vec<(String, u64, u64)> = report
                .rounds
                .into_iter()
                .map(|r| (r.label, r.cw.rearm_resets, r.exec.barrier_waits / t))
                .collect();
            let waits = report.totals_exec.delta_since(&before).barrier_waits;
            assert_eq!(waits % t, 0, "T={t}: every rendezvous is team-wide");
            (rounds, waits / t)
        };

        // Dense scan: every round claims, then meets at a barrier and
        // re-arms all n cells.
        let (rounds, total) = call(&|| {
            bfs_with_strategy(&rmat, 0, method, BfsStrategy::DenseScan, &pool);
        });
        for (label, resets, rdv) in &rounds {
            assert_eq!(
                (label.as_str(), *resets, *rdv),
                ("expand", 1024, 2),
                "T={t}"
            );
        }
        assert_eq!(total, 2 * rounds.len() as u64 + 1, "dense scan at T={t}");

        // Direction-optimizing: a push round re-arms all n cells after its
        // frontier loop and a barrier, and a pull round claims nothing and
        // re-arms nothing. Turning the queue into a bitmap costs two
        // rendezvous, and the bitmap into a queue one.
        let (rounds, total) = call(&|| {
            bfs_with_strategy(&rmat, 0, method, BfsStrategy::DirectionOptimizing, &pool);
        });
        let labels: Vec<&str> = rounds.iter().map(|r| r.0.as_str()).collect();
        assert!(
            labels.contains(&"push") && labels.contains(&"pull"),
            "T={t}: {labels:?}"
        );
        let mut was_pull = false;
        for (label, resets, rdv) in &rounds {
            let pull = label == "pull";
            let want = match (pull, was_pull) {
                (false, false) => (1024, 3),
                (false, true) => (1024, 4),
                (true, false) => (0, 4),
                (true, true) => (0, 2),
            };
            assert_eq!((*resets, *rdv), want, "DO-BFS {label} round at T={t}");
            was_pull = pull;
        }
        let want_total: u64 = rounds.iter().map(|r| r.2).sum::<u64>() + 1;
        assert_eq!(total, want_total, "DO-BFS at T={t}");

        // Matching: every round claims, then re-arms all n cells.
        let (rounds, total) = call(&|| {
            maximal_matching(&gnm, method, &pool);
        });
        assert!(rounds.len() >= 2, "T={t}: matching took {rounds:?}");
        for (_, resets, rdv) in &rounds {
            assert_eq!((*resets, *rdv), (300, 2), "matching at T={t}");
        }
        assert_eq!(total, 2 * rounds.len() as u64 + 1, "matching at T={t}");
    }
}
