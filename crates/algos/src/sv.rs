//! Simplified Shiloach–Vishkin connected components (hook-to-minimum) —
//! an extension kernel beyond the paper's three benchmarks.
//!
//! The paper's CC benchmark is Awerbuch–Shiloach ([`crate::cc`]); this is
//! the other classic of the family: every iteration hooks each root onto
//! the smallest neighboring parent value and then pointer-jumps. Hooks are
//! *arbitrary* concurrent writes — many edges race to hook the same root
//! with different (all strictly smaller) values — and arbitration is what
//! prevents a lost-union bug: with naive writes, two winners in the same
//! round overwrite each other's merge and the surviving forest can split a
//! component (see the `sv_naive_can_lose_unions` demonstration in the
//! workspace tests).
//!
//! Because every committed hook strictly decreases the target root's value,
//! the parent forest is acyclic under *any* interleaving — this kernel
//! needs no snapshot pass, making it a useful contrast to
//! [`crate::cc`]'s stricter phase discipline.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

use pram_core::SliceArbiter;
use pram_exec::{Schedule, ThreadPool};
use pram_graph::CsrGraph;

use crate::method::{dispatch_method, CwMethod};

/// Output of [`sv_components`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvResult {
    /// Canonical component labels (smallest vertex id per component).
    pub labels: Vec<u32>,
    /// Iterations executed.
    pub iterations: u32,
    /// Whether the fixed point was reached within the cap.
    pub converged: bool,
}

/// Hook-to-minimum Shiloach–Vishkin under the given concurrent-write
/// method.
pub fn sv_components(g: &CsrGraph, method: CwMethod, pool: &ThreadPool) -> SvResult {
    dispatch_method!(method, g.num_vertices(), |arb| sv_with_arbiter(
        g, &arb, pool
    ))
}

/// The kernel against an explicit arbiter (one cell per vertex).
pub fn sv_with_arbiter<A: SliceArbiter>(g: &CsrGraph, arb: &A, pool: &ThreadPool) -> SvResult {
    let n = g.num_vertices();
    assert_eq!(arb.len(), n, "arbiter must span one cell per vertex");
    let edges: Vec<(u32, u32)> = g.directed_edges().collect();
    let m = edges.len();

    let d: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(v as u32)).collect();

    let bits = usize::BITS - n.max(2).leading_zeros();
    // Hook rounds are bounded by O(log n) and each shortcut halves depths;
    // the quadratic cap is pure paranoia for adversarial interleavings.
    let max_iters = (bits + 2) * (bits + 2) + 16;

    let iterations = AtomicU32::new(0);
    let converged = AtomicU8::new(0);

    pool.run(|ctx| {
        let sched = Schedule::default();
        let c = ctx.converge_rounds(max_iters, [0, 0], |round, _| {
            let mut changes = 0;
            // Hook: for each edge, try to hang u's root onto a smaller
            // parent value from v's side.
            ctx.for_each(0..m, sched, |e| {
                let (u, v) = edges[e];
                let du = d[u as usize].load(Ordering::Relaxed);
                let dv = d[v as usize].load(Ordering::Relaxed);
                // Only roots hook (racy check; the claim makes it safe —
                // at most one writer per root per round, and committed
                // values strictly decrease, so stale reads cannot cycle).
                if dv < du
                    && d[du as usize].load(Ordering::Relaxed) == du
                    && arb.try_claim(du as usize, round)
                {
                    d[du as usize].store(dv, Ordering::Relaxed);
                    changes += 1;
                }
            });
            // The gatekeeper reset and the shortcut touch disjoint state, and
            // the round's closing rendezvous orders both before the next
            // round, so neither needs a barrier of its own.
            if !arb.rearms_on_new_round() {
                ctx.for_each_nowait(0..n, |v| arb.reset_range(v..v + 1));
            }
            ctx.for_each_nowait(0..n, |v| {
                let dv = d[v].load(Ordering::Relaxed);
                let ddv = d[dv as usize].load(Ordering::Relaxed);
                if ddv != dv {
                    d[v].store(ddv, Ordering::Relaxed);
                    changes += 1;
                }
            });
            [changes, 0]
        });
        iterations.store(c.rounds, Ordering::Relaxed);
        converged.store(u8::from(c.converged), Ordering::Relaxed);
    });

    let d: Vec<u32> = d.into_iter().map(AtomicU32::into_inner).collect();
    let labels = pram_graph::serial::canonical_labels_from(
        |v| {
            // Fully contract (serial, tiny): follow pointers to the root.
            let mut x = v;
            while d[x as usize] != x {
                x = d[x as usize];
            }
            x
        },
        n,
    );
    SvResult {
        labels,
        iterations: iterations.into_inner(),
        converged: converged.into_inner() != 0,
    }
}

/// Verify an [`SvResult`] against union–find ground truth.
pub fn verify_sv(g: &CsrGraph, r: &SvResult) -> Result<(), String> {
    let n = g.num_vertices();
    let edges: Vec<(u32, u32)> = g.directed_edges().collect();
    let expect = pram_graph::serial::cc_labels(n, &edges);
    if r.labels != expect {
        let v = (0..n).find(|&v| expect[v] != r.labels[v]).unwrap();
        return Err(format!(
            "labels[{v}] = {} but union-find says {}",
            r.labels[v], expect[v]
        ));
    }
    if !r.converged {
        return Err("did not converge within the iteration cap".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram_graph::GraphGen;

    fn graph(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        CsrGraph::from_edges(n, edges, true)
    }

    #[test]
    fn matches_union_find_on_structured_graphs() {
        let pool = ThreadPool::new(4);
        let cases = vec![
            graph(1, &[]),
            graph(6, &GraphGen::path(6)),
            graph(8, &GraphGen::star(8)),
            graph(12, &GraphGen::disjoint_cliques(4, 3)),
            graph(16, &GraphGen::grid(4, 4)),
        ];
        for g in &cases {
            for m in CwMethod::ALL.into_iter().filter(|m| m.single_winner()) {
                let r = sv_components(g, m, &pool);
                verify_sv(g, &r).unwrap_or_else(|e| panic!("{m}: {e}"));
            }
        }
    }

    #[test]
    fn labels_are_component_minima() {
        let pool = ThreadPool::new(2);
        // Component {1, 3, 5} and {0, 2}; labels are the minima.
        let g = graph(6, &[(1, 3), (3, 5), (0, 2)]);
        let r = sv_components(&g, CwMethod::CasLt, &pool);
        assert_eq!(r.labels, vec![0, 1, 0, 1, 4, 1]);
    }

    #[test]
    fn random_graphs_match() {
        let pool = ThreadPool::new(4);
        for seed in 0..4 {
            let edges = GraphGen::new(100 + seed).gnm(150, 250);
            let g = graph(150, &edges);
            let r = sv_components(&g, CwMethod::CasLt, &pool);
            verify_sv(&g, &r).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn converges_quickly_on_path() {
        let pool = ThreadPool::new(2);
        let g = graph(512, &GraphGen::path(512));
        let r = sv_components(&g, CwMethod::CasLt, &pool);
        assert!(r.converged);
        assert!(
            r.iterations <= 30,
            "path of 512 took {} iterations",
            r.iterations
        );
    }
}
