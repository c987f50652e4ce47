//! Parameter-sweep scenarios for variational workloads.
//!
//! Variational algorithms (VQE, QAOA) evaluate one circuit *structure* at
//! many parameter points. A [`SweepScenario`] packages that shape — a fixed
//! rotation program plus a list of angle assignments — so callers (examples,
//! benchmarks, the `quclear-engine` batch APIs) can iterate it directly.
//!
//! The generators here are engine-agnostic: they only produce programs and
//! angle grids. Feeding them to `quclear_engine::Engine::sweep` is what
//! turns the shared structure into cache hits.

use std::collections::BTreeSet;

use quclear_pauli::{PauliOp, PauliRotation, PauliString, SignedPauli};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Benchmark;

/// A fixed circuit structure evaluated at many parameter points.
#[derive(Clone, Debug)]
pub struct SweepScenario {
    /// Descriptive name (e.g. the benchmark it derives from).
    pub name: String,
    /// The rotation program; its own angles are the first evaluation point.
    pub program: Vec<PauliRotation>,
    /// One angle vector per evaluation point, each of length
    /// `program.len()`.
    pub angle_sets: Vec<Vec<f64>>,
}

impl SweepScenario {
    /// Number of evaluation points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.angle_sets.len()
    }

    /// Whether the sweep has no evaluation points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.angle_sets.is_empty()
    }
}

/// A VQE-style sweep over a benchmark's ansatz: `points` random parameter
/// vectors (uniform in `[-π, π)`), deterministic in `seed`.
///
/// # Examples
///
/// ```
/// use quclear_workloads::{vqe_sweep, Benchmark};
///
/// let sweep = vqe_sweep(&Benchmark::Ucc(2, 4), 16, 7);
/// assert_eq!(sweep.len(), 16);
/// assert!(sweep.angle_sets.iter().all(|a| a.len() == sweep.program.len()));
/// ```
#[must_use]
pub fn vqe_sweep(benchmark: &Benchmark, points: usize, seed: u64) -> SweepScenario {
    let program = benchmark.rotations();
    let mut rng = StdRng::seed_from_u64(seed);
    let angle_sets = (0..points)
        .map(|_| {
            program
                .iter()
                .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
                .collect()
        })
        .collect();
    SweepScenario {
        name: format!("vqe-{}", benchmark.name()),
        program,
        angle_sets,
    }
}

/// A QAOA angle-grid sweep: every `(γ, β)` pair from the two axes, applied
/// to a fixed one-layer MaxCut program.
///
/// The program's problem rotations all share γ and the mixer rotations all
/// share β, which is the standard QAOA parameterization restricted to one
/// layer.
///
/// # Examples
///
/// ```
/// use quclear_workloads::{qaoa_grid_sweep, Graph};
///
/// let graph = Graph::regular(8, 3, 11);
/// let sweep = qaoa_grid_sweep(&graph, &[0.1, 0.2], &[0.3, 0.4, 0.5]);
/// assert_eq!(sweep.len(), 6); // 2 gammas × 3 betas
/// ```
#[must_use]
pub fn qaoa_grid_sweep(graph: &crate::Graph, gammas: &[f64], betas: &[f64]) -> SweepScenario {
    let program = crate::maxcut_qaoa(graph, 1, 1.0, 1.0);
    // maxcut_qaoa emits the problem layer (weight-2 ZZ terms) followed by
    // the mixer layer (weight-1 X terms); classify by weight.
    let angle_sets = gammas
        .iter()
        .flat_map(|&gamma| {
            let program = &program;
            betas.iter().map(move |&beta| {
                program
                    .iter()
                    .map(|r| if r.weight() == 1 { beta } else { gamma })
                    .collect()
            })
        })
        .collect();
    SweepScenario {
        name: format!("qaoa-grid-{}v", graph.num_vertices()),
        program,
        angle_sets,
    }
}

/// A parameter sweep paired with the observable set measured at every
/// point — the shape of an end-to-end variational workload: compile/bind
/// each angle vector, execute, and estimate every observable from the same
/// shots via batch Clifford Absorption (CA-Pre rewrites the whole set,
/// CA-Post folds signs / remaps shots).
#[derive(Clone, Debug)]
pub struct ObservableSweep {
    /// The structure + angle grid to bind.
    pub scenario: SweepScenario,
    /// The observables estimated at every sweep point.
    pub observables: Vec<SignedPauli>,
}

/// A VQE expectation sweep: the ansatz of `benchmark` at `points` random
/// parameter vectors, measured against a Hamiltonian-shaped observable set
/// (every single-qubit `Z` plus each distinct rotation axis of the ansatz).
///
/// # Examples
///
/// ```
/// use quclear_workloads::{vqe_expectation_sweep, Benchmark};
///
/// let sweep = vqe_expectation_sweep(&Benchmark::Ucc(2, 4), 4, 3);
/// assert_eq!(sweep.scenario.len(), 4);
/// assert!(sweep.observables.len() >= 4); // at least one Z per qubit
/// ```
#[must_use]
pub fn vqe_expectation_sweep(benchmark: &Benchmark, points: usize, seed: u64) -> ObservableSweep {
    let scenario = vqe_sweep(benchmark, points, seed);
    let n = benchmark.num_qubits();
    let mut observables: Vec<SignedPauli> = (0..n)
        .map(|q| SignedPauli::positive(PauliString::single(n, q, PauliOp::Z)))
        .collect();
    let mut seen: BTreeSet<String> = observables.iter().map(|o| o.pauli().to_string()).collect();
    for rotation in &scenario.program {
        if rotation.pauli().is_identity() {
            continue;
        }
        if seen.insert(rotation.pauli().to_string()) {
            observables.push(SignedPauli::positive(rotation.pauli().clone()));
        }
    }
    ObservableSweep {
        scenario,
        observables,
    }
}

/// A QAOA sampling sweep: the angle grid of [`qaoa_grid_sweep`] paired with
/// the MaxCut edge observables whose expectations score each grid point
/// (estimated from post-processed shots).
///
/// # Examples
///
/// ```
/// use quclear_workloads::{qaoa_sampling_sweep, Graph};
///
/// let graph = Graph::regular(8, 3, 11);
/// let sweep = qaoa_sampling_sweep(&graph, &[0.1, 0.2], &[0.3]);
/// assert_eq!(sweep.scenario.len(), 2);
/// assert_eq!(sweep.observables.len(), graph.edges().len());
/// ```
#[must_use]
pub fn qaoa_sampling_sweep(graph: &crate::Graph, gammas: &[f64], betas: &[f64]) -> ObservableSweep {
    ObservableSweep {
        scenario: qaoa_grid_sweep(graph, gammas, betas),
        observables: crate::maxcut_observables(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn vqe_sweep_is_deterministic_in_seed() {
        let a = vqe_sweep(&Benchmark::Ucc(2, 4), 4, 3);
        let b = vqe_sweep(&Benchmark::Ucc(2, 4), 4, 3);
        let c = vqe_sweep(&Benchmark::Ucc(2, 4), 4, 4);
        assert_eq!(a.angle_sets, b.angle_sets);
        assert_ne!(a.angle_sets, c.angle_sets);
        assert!(!a.is_empty());
        assert!(a
            .angle_sets
            .iter()
            .flatten()
            .all(|x| (-std::f64::consts::PI..std::f64::consts::PI).contains(x)));
    }

    #[test]
    fn expectation_sweep_observables_are_deduplicated_and_sized() {
        let sweep = vqe_expectation_sweep(&Benchmark::Ucc(2, 4), 3, 5);
        let n = sweep.scenario.program[0].num_qubits();
        // One Z per qubit, then distinct axes only.
        assert!(sweep.observables.len() >= n);
        let mut seen = std::collections::BTreeSet::new();
        for o in &sweep.observables {
            assert_eq!(o.num_qubits(), n);
            assert!(seen.insert(o.pauli().to_string()), "duplicate {o}");
        }
    }

    #[test]
    fn sampling_sweep_pairs_grid_with_edge_observables() {
        let graph = Graph::regular(6, 2, 5);
        let sweep = qaoa_sampling_sweep(&graph, &[0.1, 0.2], &[1.0]);
        assert_eq!(sweep.scenario.len(), 2);
        assert_eq!(sweep.observables.len(), graph.edges().len());
        // Edge observables are weight-2 Z strings.
        assert!(sweep
            .observables
            .iter()
            .all(|o| o.weight() == 2 && o.pauli().x_bits().is_zero()));
    }

    #[test]
    fn qaoa_grid_covers_the_cross_product() {
        let graph = Graph::regular(6, 2, 5);
        let sweep = qaoa_grid_sweep(&graph, &[0.1, 0.2, 0.3], &[1.0, 2.0]);
        assert_eq!(sweep.len(), 6);
        for angles in &sweep.angle_sets {
            assert_eq!(angles.len(), sweep.program.len());
            for (rotation, angle) in sweep.program.iter().zip(angles) {
                if rotation.weight() == 1 {
                    assert!([1.0, 2.0].contains(angle), "mixer must carry beta");
                } else {
                    assert!(
                        [0.1, 0.2, 0.3].contains(angle),
                        "problem term must carry gamma"
                    );
                }
            }
        }
    }
}
