//! QAOA programs for MaxCut and LABS (the combinatorial-optimization
//! benchmarks of Table II).

use quclear_pauli::{PauliOp, PauliRotation, PauliString};
use std::collections::BTreeMap;

use crate::graphs::Graph;

/// Builds the QAOA MaxCut program for a graph: per layer, one `ZZ` rotation
/// per edge (problem Hamiltonian) followed by one `X` rotation per vertex
/// (mixer Hamiltonian). The initial `|+⟩` preparation layer is *not*
/// included — it is part of state preparation, not of the optimized kernel
/// (matching the paper's gate counting).
///
/// # Examples
///
/// ```
/// use quclear_workloads::{maxcut_qaoa, Graph};
///
/// let graph = Graph::regular(15, 4, 1);
/// let program = maxcut_qaoa(&graph, 1, 0.4, 0.9);
/// // Table II: MaxCut-(n15, r4) has 45 Pauli strings.
/// assert_eq!(program.len(), 45);
/// ```
#[must_use]
pub fn maxcut_qaoa(graph: &Graph, layers: usize, gamma: f64, beta: f64) -> Vec<PauliRotation> {
    let n = graph.num_vertices();
    let mut program = Vec::new();
    for layer in 0..layers {
        let g = gamma * (layer + 1) as f64;
        let b = beta * (layer + 1) as f64;
        for &(a, v) in graph.edges() {
            let mut p = PauliString::identity(n);
            p.set_op(a, PauliOp::Z);
            p.set_op(v, PauliOp::Z);
            program.push(PauliRotation::new(p, g));
        }
        for q in 0..n {
            program.push(PauliRotation::new(PauliString::single(n, q, PauliOp::X), b));
        }
    }
    program
}

/// The `|+⟩^⊗n` preparation circuit that precedes any QAOA kernel.
#[must_use]
pub fn qaoa_initial_layer(n: usize) -> quclear_circuit::Circuit {
    let mut c = quclear_circuit::Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c
}

/// The LABS (Low Autocorrelation Binary Sequences) problem Hamiltonian on
/// `n` spins: `H = Σ_k C_k²` with `C_k = Σ_i s_i s_{i+k}`, expanded into
/// distinct 2-body and 4-body `Z` terms with integer coefficients (constant
/// offsets dropped).
///
/// Returned as a map from Pauli string to coefficient, in deterministic
/// order.
#[must_use]
pub fn labs_hamiltonian(n: usize) -> Vec<(f64, PauliString)> {
    let mut terms: BTreeMap<String, (f64, PauliString)> = BTreeMap::new();
    let mut add = |indices: &mut Vec<usize>, coeff: f64| {
        indices.sort_unstable();
        indices.dedup();
        // Pairs of equal indices cancel (s_i² = 1); after dedup of an even
        // multiset the remaining indices define the Z string. We handle the
        // multiset reduction before calling `add`, so here indices are unique.
        if indices.is_empty() {
            return;
        }
        let mut p = PauliString::identity(n);
        for &i in indices.iter() {
            p.set_op(i, PauliOp::Z);
        }
        let key = p.to_string();
        terms
            .entry(key)
            .and_modify(|(c, _)| *c += coeff)
            .or_insert((coeff, p));
    };

    for k in 1..n {
        let upper = n - k;
        // C_k² = Σ_{i,j} s_i s_{i+k} s_j s_{j+k}.
        for i in 0..upper {
            for j in 0..upper {
                if i == j {
                    continue; // constant term
                }
                let mut multiset = [i, i + k, j, j + k];
                // Reduce the multiset: indices appearing twice cancel.
                multiset.sort_unstable();
                let mut reduced = Vec::new();
                let mut idx = 0;
                while idx < multiset.len() {
                    if idx + 1 < multiset.len() && multiset[idx] == multiset[idx + 1] {
                        idx += 2;
                    } else {
                        reduced.push(multiset[idx]);
                        idx += 1;
                    }
                }
                add(&mut reduced, 1.0);
            }
        }
    }
    terms
        .into_values()
        .filter(|(c, _)| c.abs() > 1e-12)
        .collect()
}

/// Builds the QAOA LABS program: per layer, one rotation per problem
/// Hamiltonian term followed by the `X` mixer on every qubit.
#[must_use]
pub fn labs_qaoa(n: usize, layers: usize, gamma: f64, beta: f64) -> Vec<PauliRotation> {
    let hamiltonian = labs_hamiltonian(n);
    let mut program = Vec::new();
    for layer in 0..layers {
        let g = gamma * (layer + 1) as f64;
        let b = beta * (layer + 1) as f64;
        for (coeff, pauli) in &hamiltonian {
            program.push(PauliRotation::new(pauli.clone(), g * coeff));
        }
        for q in 0..n {
            program.push(PauliRotation::new(PauliString::single(n, q, PauliOp::X), b));
        }
    }
    program
}

/// The MaxCut cost observable of a graph as signed Pauli terms: the cut value
/// is `Σ_edges (1 - ⟨Z_a Z_b⟩)/2`; this returns the `Z_a Z_b` observables.
#[must_use]
pub fn maxcut_observables(graph: &Graph) -> Vec<quclear_pauli::SignedPauli> {
    let n = graph.num_vertices();
    graph
        .edges()
        .iter()
        .map(|&(a, b)| {
            let mut p = PauliString::identity(n);
            p.set_op(a, PauliOp::Z);
            p.set_op(b, PauliOp::Z);
            quclear_pauli::SignedPauli::positive(p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxcut_counts_match_table_ii() {
        let cases = [
            (15usize, 4usize, 45usize, 60usize, 75usize),
            (20, 4, 60, 80, 100),
            (20, 8, 100, 160, 140),
            (20, 12, 140, 240, 180),
        ];
        for (n, r, paulis, cnots, singles) in cases {
            let graph = Graph::regular(n, r, 0xC0FFEE);
            let program = maxcut_qaoa(&graph, 1, 0.3, 0.7);
            assert_eq!(program.len(), paulis, "MaxCut-(n{n}, r{r}) Pauli count");
            let native_cnots: usize = program.iter().map(PauliRotation::native_cnot_cost).sum();
            let native_singles: usize = program
                .iter()
                .map(PauliRotation::native_single_qubit_cost)
                .sum();
            assert_eq!(native_cnots, cnots, "MaxCut-(n{n}, r{r}) native CNOTs");
            assert_eq!(
                native_singles, singles,
                "MaxCut-(n{n}, r{r}) native 1q gates"
            );
        }
    }

    #[test]
    fn random_maxcut_counts_match_table_ii() {
        let cases = [
            (10usize, 12usize, 22usize, 24usize, 42usize),
            (15, 63, 78, 126, 108),
            (20, 117, 137, 234, 177),
        ];
        for (n, e, paulis, cnots, singles) in cases {
            let graph = Graph::random(n, e, 0xBEEF);
            let program = maxcut_qaoa(&graph, 1, 0.3, 0.7);
            assert_eq!(program.len(), paulis);
            let native_cnots: usize = program.iter().map(PauliRotation::native_cnot_cost).sum();
            let native_singles: usize = program
                .iter()
                .map(PauliRotation::native_single_qubit_cost)
                .sum();
            assert_eq!(native_cnots, cnots);
            assert_eq!(native_singles, singles);
        }
    }

    #[test]
    fn labs_terms_are_z_only_with_weights_two_and_four() {
        let h = labs_hamiltonian(10);
        assert!(!h.is_empty());
        for (coeff, p) in &h {
            assert!(p.x_bits().is_zero(), "LABS terms are Z-only");
            assert!(
                p.weight() == 2 || p.weight() == 4,
                "unexpected weight {}",
                p.weight()
            );
            assert!(coeff.abs() > 0.0);
        }
    }

    #[test]
    fn labs_program_size_is_close_to_table_ii() {
        // Table II lists 80 / 267 / 635 Pauli strings for n = 10 / 15 / 20.
        // The exact count depends on how duplicate products are merged; our
        // canonical expansion must land in the same ballpark.
        for (n, expected) in [(10usize, 80usize), (15, 267), (20, 635)] {
            let program = labs_qaoa(n, 1, 0.3, 0.7);
            let count = program.len();
            let lower = expected * 7 / 10;
            let upper = expected * 13 / 10;
            assert!(
                (lower..=upper).contains(&count),
                "LABS-(n{n}): {count} terms vs paper {expected}"
            );
        }
    }

    #[test]
    fn multi_layer_qaoa_scales_linearly() {
        let graph = Graph::regular(10, 4, 1);
        let one = maxcut_qaoa(&graph, 1, 0.3, 0.7).len();
        let three = maxcut_qaoa(&graph, 3, 0.3, 0.7).len();
        assert_eq!(three, 3 * one);
    }

    #[test]
    fn maxcut_observables_one_per_edge() {
        let graph = Graph::regular(8, 4, 2);
        let obs = maxcut_observables(&graph);
        assert_eq!(obs.len(), graph.num_edges());
        assert!(obs.iter().all(|o| o.weight() == 2));
    }

    #[test]
    fn initial_layer_is_all_hadamards() {
        let layer = qaoa_initial_layer(5);
        assert_eq!(layer.len(), 5);
        assert_eq!(layer.cnot_count(), 0);
    }
}
