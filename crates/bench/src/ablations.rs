//! Ablation experiments for the design choices DESIGN.md calls out —
//! beyond the paper's figures, these isolate *why* CAS-LT wins.

use pram_algos::bfs::bfs_with_arbiter;
use pram_algos::cc::cc_with_arbiter;
use pram_algos::max::max_index_with_arbiter;
use pram_core::{CasLtArray, CwCounters, GatekeeperArray, LockArray, SliceArbiter};
use pram_exec::{PoolConfig, ThreadPool};

use crate::ablation::AlwaysRmwCasLtArray;
use crate::{
    make_graph, max_values, single_point, BenchConfig, FigureResult, ScaleProfile, Variant,
};

/// The Max-kernel ablations' input: `n` pseudo-random values and a pool.
fn max_setup(cfg: &BenchConfig) -> (usize, Vec<u64>, ThreadPool) {
    let n = match cfg.scale {
        ScaleProfile::Quick => 800,
        ScaleProfile::Default => 4_000,
        ScaleProfile::Paper => 30_000,
    };
    (n, max_values(n), ThreadPool::new(cfg.threads))
}

/// A Max-kernel variant that claims through a fresh `A` on every call.
///
/// Every call checks its answer, so an arbiter whose claims make the
/// kernel return a wrong maximum panics instead of reporting a time. The
/// check compares values, so any index of a tied maximum passes.
pub(crate) fn max_variant<'a, A: SliceArbiter + 'a>(
    name: &'a str,
    values: &'a [u64],
    pool: &'a ThreadPool,
    new: fn(usize) -> A,
) -> Variant<'a> {
    let max = *values.iter().max().expect("max of an empty list");
    let run = move || {
        let idx = max_index_with_arbiter(values, &new(values.len()), pool);
        assert_eq!(values[idx], max, "{name}: wrong maximum");
    };
    (name, Box::new(run))
}

/// `ablate_fastpath` — is the pre-CAS load check the win? Max kernel with
/// the full CAS-LT claim vs a variant whose every claim issues an RMW
/// (`fetch_max`) vs the gatekeeper. If the paper's §5 mechanism is right,
/// full CAS-LT ≪ always-RMW ≈ gatekeeper.
pub fn ablate_fastpath(cfg: &BenchConfig) -> FigureResult {
    let (n, v, p) = max_setup(cfg);
    single_point(
        "ablate_fastpath",
        &format!("max (n = {n}): CAS-LT fast path on/off vs gatekeeper"),
        cfg,
        vec![
            max_variant("gatekeeper", &v, &p, GatekeeperArray::new),
            max_variant("caslt-always-rmw", &v, &p, AlwaysRmwCasLtArray::new),
            max_variant("caslt", &v, &p, CasLtArray::new),
        ],
    )
}

/// `ablate_lock` — the critical-section strawman (§4's "trivial but bad
/// solution") against CAS-LT on the Max kernel.
pub fn ablate_lock(cfg: &BenchConfig) -> FigureResult {
    let (n, v, p) = max_setup(cfg);
    single_point(
        "ablate_lock",
        &format!("max (n = {n}): per-cell mutex vs CAS-LT"),
        cfg,
        vec![
            max_variant("lock", &v, &p, LockArray::new),
            max_variant("caslt", &v, &p, CasLtArray::new),
        ],
    )
}

/// Claim counters of one kernel call on a fresh telemetry pool.
fn claim_counts(threads: usize, kernel: impl FnOnce(&ThreadPool)) -> CwCounters {
    let p = ThreadPool::with_config(PoolConfig::new(threads).telemetry(true));
    kernel(&p);
    p.take_round_report().totals_cw
}

/// A profiling report (not a timing): claim-level statistics of each
/// kernel under CAS-LT, making the §6 mechanism measurable — attempts vs
/// winning writes, i.e. how much work arbitration filters out.
pub fn claim_statistics(cfg: &BenchConfig) -> String {
    use std::fmt::Write;
    let mut out = String::from("== claim statistics under CAS-LT (telemetry) ==\n");

    let (n, values, _) = max_setup(cfg);
    let s = claim_counts(cfg.threads, |p| {
        max_index_with_arbiter(&values, &CasLtArray::new(n), p);
    });
    let _ = writeln!(
        out,
        "max (n = {n}): attempts = {}, wins = {} ({:.4}% of claims commit)",
        s.resolutions(),
        s.wins,
        100.0 * s.wins as f64 / s.resolutions().max(1) as f64
    );

    let (v, e) = match cfg.scale {
        ScaleProfile::Quick => (2_000, 8_000),
        _ => (10_000, 80_000),
    };
    let g = make_graph(v, e, cfg.seed);
    let bfs_counts = claim_counts(cfg.threads, |p| {
        bfs_with_arbiter(&g, 0, &CasLtArray::new(v), p);
    });
    let cc_counts = claim_counts(cfg.threads, |p| {
        cc_with_arbiter(&g, &CasLtArray::new(v), p);
    });
    for (name, s) in [("bfs", bfs_counts), ("cc ", cc_counts)] {
        let _ = writeln!(
            out,
            "{name} ({v} v, {e} e): attempts = {}, wins = {} (claim multiplicity {:.2})",
            s.resolutions(),
            s.wins,
            s.resolutions() as f64 / s.wins.max(1) as f64
        );
    }
    out
}

/// All ablations in order.
pub fn all(cfg: &BenchConfig) -> Vec<FigureResult> {
    vec![ablate_fastpath(cfg), ablate_lock(cfg)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BenchConfig {
        BenchConfig {
            scale: ScaleProfile::Quick,
            threads: 2,
            reps: 1,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn ablations_regenerate_at_quick_scale() {
        let cfg = quick_cfg();
        for fig in all(&cfg) {
            assert!(fig.series.len() >= 2, "{}", fig.id);
            for s in &fig.series {
                assert_eq!(s.points.len(), 1);
                assert!(s.points[0].1 > 0.0);
            }
        }
    }

    #[test]
    fn claim_statistics_report_is_complete() {
        let cfg = quick_cfg();
        let report = claim_statistics(&cfg);
        assert!(report.contains("max (n = 800)"));
        assert!(report.contains("bfs"));
        assert!(report.contains("cc "));
    }
}
