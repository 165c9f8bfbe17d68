//! Extension experiments beyond the paper's figures — the future-work
//! directions §8 proposes, made measurable.

use pram_algos::matching::maximal_matching;
use pram_algos::reduce::max_index_tournament;
use pram_algos::{list_rank, max_index, CwMethod};
use pram_core::{CasLtArray, GatekeeperArray};
use pram_exec::ThreadPool;

use crate::ablation::BitGatekeeperArray;
use crate::ablations::max_variant;
use crate::runner::time_interleaved;
use crate::{max_values, single_point, sweep, BenchConfig, FigureResult, ScaleProfile, Series};

/// `ext_crew_vs_crcw` — the paper's §8 proposal: an exclusive-write
/// algorithm in current use (EREW tournament maximum: depth O(log n),
/// work O(n)) against the CRCW algorithm with better depth (constant-time
/// maximum: depth O(1), work O(n²), CAS-LT writes).
///
/// Brent's theorem predicts a crossover: with `P_phys` processors the
/// CRCW kernel costs ~n²/P while the tournament costs ~n/P + log n, so the
/// tournament must win beyond some n. The sweep locates it empirically.
pub fn ext_crew_vs_crcw(cfg: &BenchConfig) -> FigureResult {
    let sizes: Vec<usize> = match cfg.scale {
        ScaleProfile::Quick => vec![64, 256, 1_024],
        ScaleProfile::Default => vec![64, 256, 1_024, 4_096, 16_384],
        ScaleProfile::Paper => vec![256, 1_024, 4_096, 16_384, 65_536],
    };
    let p = ThreadPool::new(cfg.threads);
    let mut crcw = Series {
        name: "crcw-max-caslt".into(),
        points: vec![],
    };
    let mut erew = Series {
        name: "erew-tournament".into(),
        points: vec![],
    };
    for &n in &sizes {
        let values = max_values(n);
        let t = time_interleaved(cfg.reps, 2, |i| {
            if i == 0 {
                max_index(&values, CwMethod::CasLt, &p);
            } else {
                max_index_tournament(&values, &p);
            }
        });
        crcw.points.push((n as f64, t[0].median()));
        erew.points.push((n as f64, t[1].median()));
    }
    FigureResult {
        id: "ext_crew_vs_crcw".into(),
        title: format!(
            "maximum: O(1)-depth CRCW vs O(log n)-depth EREW ({} threads)",
            cfg.threads
        ),
        x_label: "list size".into(),
        series: vec![crcw, erew],
    }
}

/// `ext_list_rank` — CREW pointer jumping across list sizes: the second
/// exclusive-access comparator, exercising the lock-step substrate with no
/// write arbitration at all (its cost is pure barrier + memory traffic).
pub fn ext_list_rank(cfg: &BenchConfig) -> FigureResult {
    let sizes: Vec<usize> = match cfg.scale {
        ScaleProfile::Quick => vec![1_000, 4_000],
        ScaleProfile::Default => vec![10_000, 40_000, 160_000],
        ScaleProfile::Paper => vec![100_000, 400_000, 1_600_000],
    };
    let p = ThreadPool::new(cfg.threads);
    let mut series = Series {
        name: "pointer-jumping".into(),
        points: vec![],
    };
    for &n in &sizes {
        let (next, _head) = pram_algos::list_rank::random_list(n, cfg.seed);
        let t = time_interleaved(cfg.reps, 1, |_| {
            list_rank(&next, &p);
        });
        series.points.push((n as f64, t[0].median()));
    }
    FigureResult {
        id: "ext_list_rank".into(),
        title: format!("CREW list ranking ({} threads)", cfg.threads),
        x_label: "list size".into(),
        series: vec![series],
    }
}

/// `ext_matching` — maximal matching (two-cell arbitrary CW) across
/// methods: how much the reset-free re-arming matters when *every round*
/// needs fresh claims on all n vertices.
pub fn ext_matching(cfg: &BenchConfig) -> FigureResult {
    let (v, e) = match cfg.scale {
        ScaleProfile::Quick => (1_000, 4_000),
        ScaleProfile::Default => (10_000, 50_000),
        ScaleProfile::Paper => (100_000, 3_000_000),
    };
    let g = crate::make_graph(v, e, cfg.seed);
    let p = ThreadPool::new(cfg.threads);
    let series = sweep(
        cfg,
        &[CwMethod::Gatekeeper, CwMethod::Lock, CwMethod::CasLt],
        &[1],
        |_| (),
        |_, m| {
            maximal_matching(&g, m, &p);
        },
    );
    FigureResult {
        id: "ext_matching".into(),
        title: format!("maximal matching ({v} vertices, {e} edges)"),
        x_label: "point".into(),
        series,
    }
}

/// `ablate_bitmap` — gatekeeper at 1 bit/target (`fetch_or` into shared
/// words) vs 32 bits/target vs CAS-LT on the Max kernel: auxiliary-memory
/// compactness against same-word RMW contention.
pub fn ablate_bitmap(cfg: &BenchConfig) -> FigureResult {
    let n = match cfg.scale {
        ScaleProfile::Quick => 800,
        ScaleProfile::Default => 4_000,
        ScaleProfile::Paper => 30_000,
    };
    let (v, p) = (max_values(n), ThreadPool::new(cfg.threads));
    single_point(
        "ablate_bitmap",
        &format!("max (n = {n}): bitmap vs word gatekeeper vs CAS-LT"),
        cfg,
        vec![
            max_variant("gatekeeper-u32", &v, &p, GatekeeperArray::new),
            max_variant("gatekeeper-bitmap", &v, &p, BitGatekeeperArray::new),
            max_variant("caslt", &v, &p, CasLtArray::new),
        ],
    )
}

/// All extension experiments.
pub fn all(cfg: &BenchConfig) -> Vec<FigureResult> {
    vec![
        ext_crew_vs_crcw(cfg),
        ext_list_rank(cfg),
        ext_matching(cfg),
        ablate_bitmap(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_regenerate_at_quick_scale() {
        let cfg = BenchConfig {
            scale: ScaleProfile::Quick,
            threads: 2,
            reps: 1,
            ..BenchConfig::default()
        };
        for fig in all(&cfg) {
            assert!(!fig.series.is_empty(), "{}", fig.id);
            for s in &fig.series {
                assert!(!s.points.is_empty());
                assert!(s.points.iter().all(|&(_, t)| t > 0.0));
            }
        }
    }
}
