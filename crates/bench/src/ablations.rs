//! `figures ablations` → `BENCH_ablations.json`: the design-choice
//! ablations DESIGN.md calls out, which isolate *why* CAS-LT wins, and the
//! future-work experiments §8 proposes, made measurable.
//!
//! * `ablate_fastpath`, `ablate_lock` — the Max kernel at one list size
//!   under the paper's methods and [`AlwaysRmwCasLtArray`], the one arbiter
//!   that exists only to be ablated.
//! * `ext_crew_vs_crcw`, `ext_matching` — an exclusive-write comparator and
//!   a two-cell arbitrary write, swept over sizes.
//!
//! Every timing row is keyed by experiment, size `n` (list length, or the
//! matching graph's vertex count) and method. The untimed `claims` section
//! holds the claim attempts and winning claims of one Max, BFS and CC call
//! under CAS-LT on a telemetry pool: how much write traffic arbitration
//! filters before it reaches memory.

use std::ops::Range;

use pram_algos::bfs::bfs_with_arbiter;
use pram_algos::cc::cc_with_arbiter;
use pram_algos::matching::maximal_matching;
use pram_algos::max::max_index_with_arbiter;
use pram_algos::reduce::max_index_tournament;
use pram_algos::{max_index, CwMethod};
use pram_core::sync::{AtomicU32, Ordering};
use pram_core::{CasLtArray, CwCounters, GatekeeperArray, LockArray, Round, SliceArbiter};
use pram_exec::{PoolConfig, ThreadPool};

use crate::runner::Report;
use crate::{make_graph, max_values, sweep, BenchConfig, ScaleProfile};

/// Ablation variant: CAS-LT **without** the pre-CAS load check — every
/// claim issues an atomic RMW (`fetch_max(round)`), winning iff the
/// previous value was older.
///
/// Semantically identical to [`pram_core::CasLtArray`] (single winner per
/// round, reset-free re-arming) but with the gatekeeper method's cost
/// structure: all competitors serialize on the RMW. The `ablate_fastpath`
/// bench uses this to isolate how much of CAS-LT's advantage is the skip
/// itself, which is the paper's §5 claim ("we skip the atomic instruction
/// once we have a winner thread"). It reads 3–4× slower than CAS-LT on
/// the Max kernel, so it lives here rather than in pram-core.
///
/// It stays on the `pram_core::sync` atomics, so under `--cfg pram_check`
/// the model checker schedules its every access (`tests/check_arbiters.rs`).
/// It records no claim counters.
#[derive(Debug)]
pub struct AlwaysRmwCasLtArray {
    cells: Box<[AtomicU32]>,
}

impl AlwaysRmwCasLtArray {
    /// `len` never-claimed cells.
    pub fn new(len: usize) -> AlwaysRmwCasLtArray {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || AtomicU32::new(0));
        AlwaysRmwCasLtArray {
            cells: v.into_boxed_slice(),
        }
    }
}

impl SliceArbiter for AlwaysRmwCasLtArray {
    fn len(&self) -> usize {
        self.cells.len()
    }
    #[inline]
    fn try_claim(&self, index: usize, round: Round) -> bool {
        // Unconditional RMW: the ablated fast path.
        self.cells[index].fetch_max(round.get(), Ordering::AcqRel) < round.get()
    }
    fn reset_range(&self, range: Range<usize>) {
        for c in &self.cells[range] {
            c.store(0, Ordering::Relaxed);
        }
    }
    fn rearms_on_new_round(&self) -> bool {
        true
    }
}

/// Run every experiment and the claim counts into one report.
pub fn run(cfg: &BenchConfig) -> Report {
    let rows = [
        ablate_fastpath(cfg),
        ablate_lock(cfg),
        ext_crew_vs_crcw(cfg),
        ext_matching(cfg),
    ]
    .concat();
    let mut report = Report::new("ablations", "ablations", cfg, &[cfg.threads]);
    report.sections = vec![("results", rows), ("claims", claim_rows(cfg))];
    report
}

/// The Max-kernel ablations' input: `n` pseudo-random values and a pool.
fn max_setup(cfg: &BenchConfig) -> (usize, Vec<u64>, ThreadPool) {
    let n = match cfg.scale {
        ScaleProfile::Quick => 800,
        ScaleProfile::Default => 4_000,
        ScaleProfile::Paper => 30_000,
    };
    (n, max_values(n), ThreadPool::new(cfg.threads))
}

/// A named timed variant at one operating point.
type Variant<'a> = (&'a str, Box<dyn FnMut() + 'a>);

/// A Max-kernel variant that claims through a fresh `A` on every call.
///
/// Every call checks its answer, so an arbiter whose claims make the
/// kernel return a wrong maximum panics instead of reporting a time. The
/// check compares values, so any index of a tied maximum passes.
fn max_variant<'a, A: SliceArbiter + 'a>(
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

/// Time `variants` interleaved at size `n`: one row per variant.
fn point(cfg: &BenchConfig, id: &str, n: usize, mut variants: Vec<Variant<'_>>) -> Vec<String> {
    let names: Vec<String> = variants.iter().map(|(name, _)| name.to_string()).collect();
    sweep(
        cfg,
        ["experiment", id],
        "n",
        &[n],
        &names,
        |_| (),
        |_, i| (variants[i].1)(),
    )
}

/// `ablate_fastpath` — is the pre-CAS load check the win? Max kernel with
/// the full CAS-LT claim vs a variant whose every claim issues an RMW
/// (`fetch_max`) vs the gatekeeper. If the paper's §5 mechanism is right,
/// full CAS-LT ≪ always-RMW ≈ gatekeeper.
fn ablate_fastpath(cfg: &BenchConfig) -> Vec<String> {
    let (n, v, p) = max_setup(cfg);
    point(
        cfg,
        "ablate_fastpath",
        n,
        vec![
            max_variant("gatekeeper", &v, &p, GatekeeperArray::new),
            max_variant("caslt-always-rmw", &v, &p, AlwaysRmwCasLtArray::new),
            max_variant("caslt", &v, &p, CasLtArray::new),
        ],
    )
}

/// `ablate_lock` — the critical-section strawman (§4's "trivial but bad
/// solution") against CAS-LT on the Max kernel.
fn ablate_lock(cfg: &BenchConfig) -> Vec<String> {
    let (n, v, p) = max_setup(cfg);
    point(
        cfg,
        "ablate_lock",
        n,
        vec![
            max_variant("lock", &v, &p, LockArray::new),
            max_variant("caslt", &v, &p, CasLtArray::new),
        ],
    )
}

/// `ext_crew_vs_crcw` — the paper's §8 proposal: an exclusive-write
/// algorithm in current use (EREW tournament maximum: depth O(log n),
/// work O(n)) against the CRCW algorithm with better depth (constant-time
/// maximum: depth O(1), work O(n²), CAS-LT writes).
///
/// Brent's theorem predicts a crossover: with `P_phys` processors the
/// CRCW kernel costs ~n²/P while the tournament costs ~n/P + log n, so the
/// tournament must win beyond some n. The sweep locates it empirically.
fn ext_crew_vs_crcw(cfg: &BenchConfig) -> Vec<String> {
    let sizes: Vec<usize> = match cfg.scale {
        ScaleProfile::Quick => vec![64, 256, 1_024],
        ScaleProfile::Default => vec![64, 256, 1_024, 4_096, 16_384],
        ScaleProfile::Paper => vec![256, 1_024, 4_096, 16_384, 65_536],
    };
    let p = ThreadPool::new(cfg.threads);
    let names = ["crcw-max-caslt".to_string(), "erew-tournament".to_string()];
    sweep(
        cfg,
        ["experiment", "ext_crew_vs_crcw"],
        "n",
        &sizes,
        &names,
        max_values,
        |values, i| {
            if i == 0 {
                max_index(values, CwMethod::CasLt, &p);
            } else {
                max_index_tournament(values, &p);
            }
        },
    )
}

/// `ext_matching` — maximal matching (two-cell arbitrary CW) across
/// methods on a G(n, m) graph with m = 4n (`--quick`), 5n (default) or
/// 30n (`--paper-scale`): how much the reset-free re-arming matters when
/// *every round* needs fresh claims on all n vertices.
fn ext_matching(cfg: &BenchConfig) -> Vec<String> {
    let (v, e) = match cfg.scale {
        ScaleProfile::Quick => (1_000, 4_000),
        ScaleProfile::Default => (10_000, 50_000),
        ScaleProfile::Paper => (100_000, 3_000_000),
    };
    let g = make_graph(v, e, cfg.seed);
    let p = ThreadPool::new(cfg.threads);
    let methods = [CwMethod::Gatekeeper, CwMethod::Lock, CwMethod::CasLt];
    let names = methods.map(|m| m.to_string());
    sweep(
        cfg,
        ["experiment", "ext_matching"],
        "n",
        &[v],
        &names,
        |_| (),
        |_, i| {
            maximal_matching(&g, methods[i], &p);
        },
    )
}

/// Claim counters of one kernel call on a fresh telemetry pool.
fn claim_counts(threads: usize, kernel: impl FnOnce(&ThreadPool)) -> CwCounters {
    let p = ThreadPool::with_config(PoolConfig::new(threads).telemetry(true));
    kernel(&p);
    p.take_round_report().totals_cw
}

/// The `claims` section (a profile, not a timing): claim attempts and
/// winning claims of each kernel under CAS-LT, making the §6 mechanism
/// measurable.
fn claim_rows(cfg: &BenchConfig) -> Vec<String> {
    let (n, values, _) = max_setup(cfg);
    let max = claim_counts(cfg.threads, |p| {
        max_index_with_arbiter(&values, &CasLtArray::new(n), p);
    });

    let (v, e) = match cfg.scale {
        ScaleProfile::Quick => (2_000, 8_000),
        _ => (10_000, 80_000),
    };
    let g = make_graph(v, e, cfg.seed);
    let bfs = claim_counts(cfg.threads, |p| {
        bfs_with_arbiter(&g, 0, &CasLtArray::new(v), p);
    });
    let cc = claim_counts(cfg.threads, |p| {
        cc_with_arbiter(&g, &CasLtArray::new(v), p);
    });

    let row = |kernel, size: String, s: CwCounters| {
        format!(
            "{{\"kernel\": \"{kernel}\", {size}, \"attempts\": {}, \"wins\": {}}}",
            s.resolutions(),
            s.wins
        )
    };
    let graph = format!("\"n\": {v}, \"edges\": {e}");
    vec![
        row("max", format!("\"n\": {n}"), max),
        row("bfs", graph.clone(), bfs),
        row("cc", graph, cc),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn r(i: u32) -> Round {
        Round::from_iteration(i)
    }

    #[test]
    fn always_rmw_variant_same_semantics() {
        let a = AlwaysRmwCasLtArray::new(2);
        assert!(a.try_claim(0, r(0)));
        assert!(!a.try_claim(0, r(0)));
        assert!(a.try_claim(0, r(1))); // rearms on round advance
        assert!(!a.try_claim(0, r(0))); // stale round loses
        assert!(a.rearms_on_new_round());
        a.reset_all();
        assert!(a.try_claim(0, r(0)));
        a.reset_range(0..1);
        assert!(a.try_claim(0, r(0)));
        assert!(!a.is_empty());
    }

    #[test]
    fn always_rmw_one_winner_under_contention() {
        let a = AlwaysRmwCasLtArray::new(1);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    if a.try_claim(0, r(0)) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1);
    }
}
