//! `figures ablations` → `BENCH_ablations.json`: the design-choice
//! ablations DESIGN.md calls out, which isolate *why* CAS-LT wins, and the
//! future-work experiments §8 proposes, made measurable.
//!
//! * `ablate_fastpath`, `ablate_lock`, `ablate_bitmap` — the Max kernel at
//!   one list size under the arbiters of [`crate::ablation`] and the
//!   paper's methods.
//! * `ext_crew_vs_crcw`, `ext_list_rank`, `ext_matching` — exclusive-write
//!   comparators and a two-cell arbitrary write, swept over sizes.
//!
//! Every timing row is keyed by experiment, size `n` (list length, or the
//! matching graph's vertex count) and method. The untimed `claims` section
//! holds the claim attempts and winning claims of one Max, BFS and CC call
//! under CAS-LT on a telemetry pool: how much write traffic arbitration
//! filters before it reaches memory.

use pram_algos::bfs::bfs_with_arbiter;
use pram_algos::cc::cc_with_arbiter;
use pram_algos::list_rank::random_list;
use pram_algos::matching::maximal_matching;
use pram_algos::max::max_index_with_arbiter;
use pram_algos::reduce::max_index_tournament;
use pram_algos::{list_rank, max_index, CwMethod};
use pram_core::{CasLtArray, CwCounters, GatekeeperArray, LockArray, SliceArbiter};
use pram_exec::{PoolConfig, ThreadPool};

use crate::ablation::{AlwaysRmwCasLtArray, BitGatekeeperArray};
use crate::runner::{json_str, time_interleaved, timing_row, Report};
use crate::{make_graph, max_values, sweep, BenchConfig, ScaleProfile};

/// Run every experiment and the claim counts into one report.
pub fn run(cfg: &BenchConfig) -> Report {
    let rows = [
        ablate_fastpath(cfg),
        ablate_lock(cfg),
        ablate_bitmap(cfg),
        ext_crew_vs_crcw(cfg),
        ext_list_rank(cfg),
        ext_matching(cfg),
    ]
    .concat();
    let mut report = Report::new("ablations", "ablations", cfg, &[cfg.threads]);
    report.fields.push(("seed", cfg.seed.to_string()));
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

/// `ablate_bitmap` — gatekeeper at 1 bit/target (`fetch_or` into shared
/// words) vs 32 bits/target vs CAS-LT on the Max kernel: auxiliary-memory
/// compactness against same-word RMW contention.
fn ablate_bitmap(cfg: &BenchConfig) -> Vec<String> {
    let (n, v, p) = max_setup(cfg);
    point(
        cfg,
        "ablate_bitmap",
        n,
        vec![
            max_variant("gatekeeper-u32", &v, &p, GatekeeperArray::new),
            max_variant("gatekeeper-bitmap", &v, &p, BitGatekeeperArray::new),
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

/// `ext_list_rank` — CREW pointer jumping across list sizes, all sizes in
/// one interleaved sampler: the second exclusive-access comparator,
/// exercising the lock-step substrate with no write arbitration at all
/// (its cost is pure barrier + memory traffic).
fn ext_list_rank(cfg: &BenchConfig) -> Vec<String> {
    let sizes: Vec<usize> = match cfg.scale {
        ScaleProfile::Quick => vec![1_000, 4_000],
        ScaleProfile::Default => vec![10_000, 40_000, 160_000],
        ScaleProfile::Paper => vec![100_000, 400_000, 1_600_000],
    };
    let p = ThreadPool::new(cfg.threads);
    let lists: Vec<Vec<u32>> = sizes.iter().map(|&n| random_list(n, cfg.seed).0).collect();
    let times = time_interleaved(cfg.reps, lists.len(), |i| {
        list_rank(&lists[i], &p);
    });
    (sizes.iter().zip(&times))
        .map(|(n, s)| {
            let key = [
                ("experiment", json_str("ext_list_rank")),
                ("n", n.to_string()),
                ("method", json_str("pointer-jumping")),
            ];
            timing_row(&key, "ms", s, "")
        })
        .collect()
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
