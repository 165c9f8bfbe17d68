//! Seeded graph generators.
//!
//! The paper's workloads are "randomly-generated undirected graphs" with
//! controlled vertex and edge counts (e.g. 100 K vertices, 5–30 M edges).
//! [`GraphGen::gnm`] reproduces that family: `m` edges drawn uniformly from
//! all non-loop pairs, duplicates allowed (a multigraph, as the Rodinia
//! generator produces). [`GraphGen::rmat`] adds the skewed-degree family
//! used throughout the graph-benchmark literature, and the structured
//! constructors give tests predictable topologies.
//!
//! Everything is seeded and deterministic: the figure-regeneration harness
//! records the seed, so any measurement can be reproduced on the identical
//! workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded source of graphs.
#[derive(Debug, Clone)]
pub struct GraphGen {
    rng: StdRng,
}

impl GraphGen {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> GraphGen {
        GraphGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `m` uniform random non-loop edges over `n` vertices (duplicates
    /// allowed — a multigraph).
    ///
    /// # Panics
    /// Panics if `n < 2` and `m > 0` (no non-loop pair exists).
    pub fn gnm(&mut self, n: usize, m: usize) -> Vec<(u32, u32)> {
        assert!(n >= 2 || m == 0, "need at least 2 vertices to draw edges");
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let u = self.rng.gen_range(0..n as u32);
            let mut v = self.rng.gen_range(0..n as u32 - 1);
            if v >= u {
                v += 1; // uniform over vertices != u
            }
            edges.push((u, v));
        }
        edges
    }

    /// R-MAT generator (Chakrabarti–Zhan–Faloutsos): `m` edges over
    /// `2^scale` vertices with recursive quadrant probabilities
    /// `(a, b, c, d)`, `a + b + c + d = 1`. Skewed degrees stress the
    /// concurrent-write collision behaviour far more than uniform graphs.
    pub fn rmat(&mut self, scale: u32, m: usize, probs: (f64, f64, f64, f64)) -> Vec<(u32, u32)> {
        let (a, b, c, d) = probs;
        assert!(
            (a + b + c + d - 1.0).abs() < 1e-9 && a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0,
            "quadrant probabilities must be non-negative and sum to 1"
        );
        assert!(scale < 31, "scale too large for u32 ids");
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..scale {
                u <<= 1;
                v <<= 1;
                let r: f64 = self.rng.gen();
                if r < a {
                    // top-left: no bits set
                } else if r < a + b {
                    v |= 1;
                } else if r < a + b + c {
                    u |= 1;
                } else {
                    u |= 1;
                    v |= 1;
                }
            }
            if u == v {
                v ^= 1; // nudge self-loops off the diagonal
            }
            edges.push((u, v));
        }
        edges
    }

    /// The standard R-MAT parameterization (0.57, 0.19, 0.19, 0.05).
    pub fn rmat_standard(&mut self, scale: u32, m: usize) -> Vec<(u32, u32)> {
        self.rmat(scale, m, (0.57, 0.19, 0.19, 0.05))
    }

    /// Path `0 - 1 - … - (n-1)` — maximal BFS depth.
    pub fn path(n: usize) -> Vec<(u32, u32)> {
        (1..n as u32).map(|v| (v - 1, v)).collect()
    }

    /// Cycle over `n` vertices.
    pub fn cycle(n: usize) -> Vec<(u32, u32)> {
        let mut e = Self::path(n);
        if n >= 2 {
            e.push((n as u32 - 1, 0));
        }
        e
    }

    /// Star with center 0 — maximal single-cell write contention in BFS's
    /// first level and CC's hooking.
    pub fn star(n: usize) -> Vec<(u32, u32)> {
        (1..n as u32).map(|v| (0, v)).collect()
    }

    /// Complete graph on `n` vertices.
    pub fn complete(n: usize) -> Vec<(u32, u32)> {
        let mut e = Vec::with_capacity(n * (n - 1) / 2);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                e.push((u, v));
            }
        }
        e
    }

    /// `rows × cols` grid.
    pub fn grid(rows: usize, cols: usize) -> Vec<(u32, u32)> {
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        let mut e = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    e.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    e.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        e
    }

    /// Complete binary tree over `n` vertices: `v ≥ 1` hangs from `(v -
    /// 1) / 2`, so the depth is `⌊log2 n⌋`.
    pub fn binary_tree(n: usize) -> Vec<(u32, u32)> {
        (1..n as u32).map(|v| ((v - 1) / 2, v)).collect()
    }

    /// Caterpillar: a path of `spine` vertices `0..spine`, each with `legs`
    /// pendant leaves numbered after the spine — a long path whose
    /// vertices have uneven degrees.
    pub fn caterpillar(spine: usize, legs: usize) -> Vec<(u32, u32)> {
        let mut e = Self::path(spine);
        for leaf in spine..spine * (legs + 1) {
            e.push((((leaf - spine) / legs) as u32, leaf as u32));
        }
        e
    }

    /// `k` disjoint cliques of `size` vertices each — known component
    /// structure for CC tests. Vertex `i` belongs to component `i / size`.
    pub fn disjoint_cliques(k: usize, size: usize) -> Vec<(u32, u32)> {
        let mut e = Vec::new();
        for c in 0..k {
            let base = (c * size) as u32;
            for u in 0..size as u32 {
                for v in (u + 1)..size as u32 {
                    e.push((base + u, base + v));
                }
            }
        }
        e
    }

    /// `edges` over `n` vertices with the vertices renamed by a uniform
    /// random permutation, so a structured graph's ids carry no order.
    pub fn relabel(&mut self, n: usize, edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut name: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            name.swap(i, self.rng.gen_range(0..i + 1));
        }
        edges
            .iter()
            .map(|&(u, v)| (name[u as usize], name[v as usize]))
            .collect()
    }

    /// A random forest over `n` vertices: each vertex `v ≥ 1` attaches to a
    /// uniform earlier vertex with probability `attach`, else starts a new
    /// tree. Gives random component structure with expected size control.
    pub fn random_forest(&mut self, n: usize, attach: f64) -> Vec<(u32, u32)> {
        assert!((0.0..=1.0).contains(&attach));
        let mut e = Vec::new();
        for v in 1..n as u32 {
            if self.rng.gen::<f64>() < attach {
                let p = self.rng.gen_range(0..v);
                e.push((p, v));
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    #[test]
    fn gnm_has_requested_count_and_no_loops() {
        let edges = GraphGen::new(1).gnm(100, 1000);
        assert_eq!(edges.len(), 1000);
        assert!(edges
            .iter()
            .all(|&(u, v)| u != v && (u as usize) < 100 && (v as usize) < 100));
    }

    #[test]
    fn gnm_is_seed_deterministic() {
        assert_eq!(GraphGen::new(7).gnm(50, 200), GraphGen::new(7).gnm(50, 200));
        assert_ne!(GraphGen::new(7).gnm(50, 200), GraphGen::new(8).gnm(50, 200));
    }

    #[test]
    fn rmat_bounds_and_skew() {
        let edges = GraphGen::new(5).rmat_standard(10, 20_000);
        assert_eq!(edges.len(), 20_000);
        assert!(edges.iter().all(|&(u, v)| u < 1024 && v < 1024 && u != v));
        // Skew: the max degree far exceeds the mean for standard R-MAT.
        let g = CsrGraph::from_edges(1024, &edges, true);
        assert!(g.max_degree() as f64 > 4.0 * g.mean_degree());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_rejects_bad_probs() {
        let _ = GraphGen::new(0).rmat(4, 10, (0.5, 0.5, 0.5, 0.5));
    }

    #[test]
    fn structured_families_have_expected_shapes() {
        assert_eq!(GraphGen::path(4), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(GraphGen::cycle(3).len(), 3);
        assert_eq!(GraphGen::star(5).len(), 4);
        assert_eq!(GraphGen::complete(5).len(), 10);
        // 2×3 grid: 2 rows × 2 horizontal + 1 × 3 vertical = 7 edges.
        assert_eq!(GraphGen::grid(2, 3).len(), 7);
        assert_eq!(GraphGen::path(1), vec![]);
        assert_eq!(GraphGen::cycle(1), vec![]);
        assert_eq!(
            GraphGen::binary_tree(5),
            vec![(0, 1), (0, 2), (1, 3), (1, 4)]
        );
        assert_eq!(
            GraphGen::caterpillar(3, 1),
            vec![(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)]
        );
        assert_eq!(GraphGen::caterpillar(4, 0), GraphGen::path(4));
    }

    #[test]
    fn relabel_is_a_seeded_permutation() {
        let path = GraphGen::path(100);
        let renamed = GraphGen::new(4).relabel(100, &path);
        assert_eq!(renamed, GraphGen::new(4).relabel(100, &path));
        assert_ne!(renamed, path);
        // Each vertex keeps its degree: the names form a bijection.
        let mut deg = vec![0; 100];
        for &(u, v) in &renamed {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        assert_eq!(deg.iter().filter(|&&d| d == 1).count(), 2);
        assert_eq!(deg.iter().filter(|&&d| d == 2).count(), 98);
    }

    #[test]
    fn disjoint_cliques_structure() {
        let edges = GraphGen::disjoint_cliques(3, 4);
        assert_eq!(edges.len(), 3 * 6);
        for &(u, v) in &edges {
            assert_eq!(u / 4, v / 4, "edge crosses cliques");
        }
    }

    #[test]
    fn random_forest_is_acyclic_and_bounded() {
        let edges = GraphGen::new(11).random_forest(500, 0.8);
        assert!(edges.len() < 500);
        // Acyclic by construction: every edge attaches v to some p < v.
        assert!(edges.iter().all(|&(p, v)| p < v));
    }
}
