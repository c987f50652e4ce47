//! Simple undirected graphs and generators for the QAOA benchmarks.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// An undirected simple graph on `n` vertices.
///
/// # Examples
///
/// ```
/// use quclear_workloads::Graph;
///
/// let g = Graph::regular(10, 4, 7);
/// assert_eq!(g.num_vertices(), 10);
/// assert_eq!(g.num_edges(), 20);
/// let degree = |v| g.edges().iter().filter(|&&(a, b)| a == v || b == v).count();
/// assert!((0..10).all(|v| degree(v) == 4));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    num_vertices: usize,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Builds a graph from an edge list (self-loops and duplicates are
    /// rejected).
    ///
    /// # Panics
    ///
    /// Panics if an edge is out of range, a self-loop, or a duplicate.
    #[must_use]
    pub fn from_edges(num_vertices: usize, edges: &[(usize, usize)]) -> Self {
        let mut seen = HashSet::new();
        let mut normalized = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            assert!(
                a < num_vertices && b < num_vertices,
                "edge ({a},{b}) out of range"
            );
            assert_ne!(a, b, "self-loop ({a},{a}) not allowed");
            let key = (a.min(b), a.max(b));
            assert!(seen.insert(key), "duplicate edge ({a},{b})");
            normalized.push(key);
        }
        Graph {
            num_vertices,
            edges: normalized,
        }
    }

    /// A random `degree`-regular graph on `n` vertices (configuration model
    /// with restarts, falling back to a circulant construction if sampling
    /// repeatedly fails).
    ///
    /// # Panics
    ///
    /// Panics if `n·degree` is odd or `degree >= n`.
    #[must_use]
    pub fn regular(n: usize, degree: usize, seed: u64) -> Self {
        assert!(degree < n, "degree must be smaller than the vertex count");
        assert!((n * degree).is_multiple_of(2), "n·degree must be even");
        let mut rng = StdRng::seed_from_u64(seed);
        for _attempt in 0..200 {
            if let Some(graph) = try_configuration_model(n, degree, &mut rng) {
                return graph;
            }
        }
        // Deterministic fallback: circulant graph (connect to the d/2 nearest
        // neighbours on each side; for odd degree also to the antipode).
        let mut edges = Vec::new();
        for v in 0..n {
            for k in 1..=degree / 2 {
                edges.push((v, (v + k) % n));
            }
        }
        if degree % 2 == 1 {
            for v in 0..n / 2 {
                edges.push((v, v + n / 2));
            }
        }
        let mut deduped: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        deduped.sort_unstable();
        Graph::from_edges(n, &deduped)
    }

    /// A random simple graph with exactly `num_edges` edges.
    ///
    /// # Panics
    ///
    /// Panics if `num_edges` exceeds `n·(n-1)/2`.
    #[must_use]
    pub fn random(n: usize, num_edges: usize, seed: u64) -> Self {
        let max_edges = n * (n - 1) / 2;
        assert!(num_edges <= max_edges, "too many edges requested");
        let mut all: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        all.shuffle(&mut rng);
        all.truncate(num_edges);
        all.sort_unstable();
        Graph::from_edges(n, &all)
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list (each edge appears once, with `a < b`).
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The cut value of an assignment given as a bit mask (bit `v` = side of
    /// vertex `v`): the number of edges whose endpoints are on different
    /// sides.
    #[must_use]
    pub fn cut_value(&self, assignment: usize) -> usize {
        self.edges
            .iter()
            .filter(|&&(a, b)| ((assignment >> a) ^ (assignment >> b)) & 1 == 1)
            .count()
    }

    /// The maximum cut value over all assignments (brute force; only for
    /// small graphs used in tests and examples).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 24 vertices.
    #[must_use]
    pub fn max_cut_brute_force(&self) -> usize {
        assert!(
            self.num_vertices <= 24,
            "brute force limited to 24 vertices"
        );
        (0..1usize << self.num_vertices)
            .map(|a| self.cut_value(a))
            .max()
            .unwrap_or(0)
    }
}

fn try_configuration_model(n: usize, degree: usize, rng: &mut StdRng) -> Option<Graph> {
    let mut stubs: Vec<usize> = (0..n)
        .flat_map(|v| std::iter::repeat_n(v, degree))
        .collect();
    stubs.shuffle(rng);
    let mut seen = HashSet::new();
    let mut edges = Vec::with_capacity(stubs.len() / 2);
    while stubs.len() >= 2 {
        // Pick two random stubs.
        let i = rng.gen_range(0..stubs.len());
        let a = stubs.swap_remove(i);
        let j = rng.gen_range(0..stubs.len());
        let b = stubs.swap_remove(j);
        if a == b {
            return None;
        }
        let key = (a.min(b), a.max(b));
        if !seen.insert(key) {
            return None;
        }
        edges.push(key);
    }
    Some(Graph::from_edges(n, &edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_graphs_have_uniform_degree() {
        for (n, d) in [(10usize, 4usize), (15, 4), (20, 8), (20, 12)] {
            let g = Graph::regular(n, d, 42);
            assert_eq!(g.num_edges(), n * d / 2, "({n},{d})");
            let mut degrees = vec![0; n];
            for &(a, b) in g.edges() {
                degrees[a] += 1;
                degrees[b] += 1;
            }
            assert!(degrees.iter().all(|&deg| deg == d), "({n},{d})");
        }
    }

    #[test]
    fn random_graph_has_exact_edge_count() {
        let g = Graph::random(15, 63, 3);
        assert_eq!(g.num_edges(), 63);
        assert_eq!(g.num_vertices(), 15);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(Graph::regular(12, 4, 9), Graph::regular(12, 4, 9));
        assert_eq!(Graph::random(10, 12, 5), Graph::random(10, 12, 5));
        assert_ne!(Graph::random(10, 12, 5), Graph::random(10, 12, 6));
    }

    #[test]
    fn cut_values() {
        // A square: 0-1-2-3-0.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.cut_value(0b0101), 4);
        assert_eq!(g.cut_value(0b0011), 2);
        assert_eq!(g.cut_value(0), 0);
        assert_eq!(g.max_cut_brute_force(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        let _ = Graph::from_edges(3, &[(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "n·degree must be even")]
    fn odd_regular_product_rejected() {
        let _ = Graph::regular(5, 3, 0);
    }
}
