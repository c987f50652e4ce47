//! The 19-benchmark suite of Table II.

use quclear_pauli::PauliRotation;

use crate::graphs::Graph;
use crate::molecular::Molecule;
use crate::qaoa::{labs_qaoa, maxcut_qaoa};
use crate::uccsd::Uccsd;

/// Benchmark category (the row groups of Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchmarkCategory {
    /// UCCSD ansätze for the chemistry eigenvalue problem.
    Uccsd,
    /// Trotterized molecular Hamiltonian simulation.
    HamiltonianSimulation,
    /// QAOA for the LABS problem.
    QaoaLabs,
    /// QAOA for MaxCut.
    QaoaMaxCut,
}

impl BenchmarkCategory {
    /// Display name matching the paper.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkCategory::Uccsd => "UCCSD",
            BenchmarkCategory::HamiltonianSimulation => "Hamiltonian simulation",
            BenchmarkCategory::QaoaLabs => "QAOA LABS",
            BenchmarkCategory::QaoaMaxCut => "QAOA MaxCut",
        }
    }
}

/// One of the 19 benchmarks of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// UCCSD ansatz with the given (electrons, spin orbitals).
    Ucc(usize, usize),
    /// Trotterized molecular Hamiltonian simulation.
    Molecule(Molecule),
    /// QAOA for LABS on `n` spins.
    Labs(usize),
    /// QAOA MaxCut on a random `degree`-regular graph with `n` nodes.
    MaxCutRegular {
        /// Number of graph nodes (qubits).
        n: usize,
        /// Vertex degree.
        degree: usize,
    },
    /// QAOA MaxCut on a random graph with `n` nodes and `edges` edges.
    MaxCutRandom {
        /// Number of graph nodes (qubits).
        n: usize,
        /// Number of edges.
        edges: usize,
    },
}

/// Seed used for every randomized workload so that results are reproducible.
const WORKLOAD_SEED: u64 = 0x51CA;

impl Benchmark {
    /// The full 19-benchmark suite, in Table II order.
    #[must_use]
    pub fn all() -> Vec<Benchmark> {
        vec![
            Benchmark::Ucc(2, 4),
            Benchmark::Ucc(2, 6),
            Benchmark::Ucc(4, 8),
            Benchmark::Ucc(6, 12),
            Benchmark::Ucc(8, 16),
            Benchmark::Ucc(10, 20),
            Benchmark::Molecule(Molecule::LiH),
            Benchmark::Molecule(Molecule::H2O),
            Benchmark::Molecule(Molecule::Benzene),
            Benchmark::Labs(10),
            Benchmark::Labs(15),
            Benchmark::Labs(20),
            Benchmark::MaxCutRegular { n: 15, degree: 4 },
            Benchmark::MaxCutRegular { n: 20, degree: 4 },
            Benchmark::MaxCutRegular { n: 20, degree: 8 },
            Benchmark::MaxCutRegular { n: 20, degree: 12 },
            Benchmark::MaxCutRandom { n: 10, edges: 12 },
            Benchmark::MaxCutRandom { n: 15, edges: 63 },
            Benchmark::MaxCutRandom { n: 20, edges: 117 },
        ]
    }

    /// A reduced suite that omits the two largest UCCSD instances; useful for
    /// quick runs of the experiment harness.
    #[must_use]
    pub fn small_suite() -> Vec<Benchmark> {
        Benchmark::all()
            .into_iter()
            .filter(|b| !matches!(b, Benchmark::Ucc(8, 16) | Benchmark::Ucc(10, 20)))
            .collect()
    }

    /// The benchmark name as used in the paper's tables.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Benchmark::Ucc(e, o) => format!("UCC-({e},{o})"),
            Benchmark::Molecule(m) => m.name().to_string(),
            Benchmark::Labs(n) => format!("LABS-(n{n})"),
            Benchmark::MaxCutRegular { n, degree } => format!("MaxCut-(n{n}, r{degree})"),
            Benchmark::MaxCutRandom { n, edges } => format!("MaxCut-(n{n}, e{edges})"),
        }
    }

    /// The benchmark category.
    #[must_use]
    pub fn category(&self) -> BenchmarkCategory {
        match self {
            Benchmark::Ucc(..) => BenchmarkCategory::Uccsd,
            Benchmark::Molecule(_) => BenchmarkCategory::HamiltonianSimulation,
            Benchmark::Labs(_) => BenchmarkCategory::QaoaLabs,
            Benchmark::MaxCutRegular { .. } | Benchmark::MaxCutRandom { .. } => {
                BenchmarkCategory::QaoaMaxCut
            }
        }
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        match self {
            Benchmark::Ucc(_, o) => *o,
            Benchmark::Molecule(m) => m.num_qubits(),
            Benchmark::Labs(n)
            | Benchmark::MaxCutRegular { n, .. }
            | Benchmark::MaxCutRandom { n, .. } => *n,
        }
    }

    /// The Pauli-rotation program of the benchmark.
    #[must_use]
    pub fn rotations(&self) -> Vec<PauliRotation> {
        match self {
            Benchmark::Ucc(e, o) => Uccsd::new(*e, *o).rotations(),
            Benchmark::Molecule(m) => m.trotter_step(1.0),
            Benchmark::Labs(n) => labs_qaoa(*n, 1, 0.4, 0.9),
            Benchmark::MaxCutRegular { n, degree } => {
                let graph = Graph::regular(*n, *degree, WORKLOAD_SEED);
                maxcut_qaoa(&graph, 1, 0.4, 0.9)
            }
            Benchmark::MaxCutRandom { n, edges } => {
                let graph = Graph::random(*n, *edges, WORKLOAD_SEED);
                maxcut_qaoa(&graph, 1, 0.4, 0.9)
            }
        }
    }

    /// Measurement observables for the benchmark: the Hamiltonian terms for
    /// chemistry workloads, the MaxCut edge observables for MaxCut, and the
    /// LABS problem terms for LABS.
    #[must_use]
    pub fn observables(&self) -> Vec<quclear_pauli::SignedPauli> {
        match self {
            Benchmark::Ucc(_, o) => {
                // Use the number-operator style observables Z_i and Z_iZ_j,
                // the dominant measurement set of molecular VQE.
                let n = *o;
                let mut obs = Vec::new();
                for q in 0..n {
                    obs.push(quclear_pauli::SignedPauli::positive(
                        quclear_pauli::PauliString::single(n, q, quclear_pauli::PauliOp::Z),
                    ));
                }
                for a in 0..n {
                    for b in a + 1..n {
                        let mut p = quclear_pauli::PauliString::identity(n);
                        p.set_op(a, quclear_pauli::PauliOp::Z);
                        p.set_op(b, quclear_pauli::PauliOp::Z);
                        obs.push(quclear_pauli::SignedPauli::positive(p));
                    }
                }
                obs
            }
            Benchmark::Molecule(m) => m.observables(),
            Benchmark::Labs(n) => crate::qaoa::labs_hamiltonian(*n)
                .into_iter()
                .map(|(c, p)| quclear_pauli::SignedPauli::new(p, c < 0.0))
                .collect(),
            Benchmark::MaxCutRegular { n, degree } => {
                crate::qaoa::maxcut_observables(&Graph::regular(*n, *degree, WORKLOAD_SEED))
            }
            Benchmark::MaxCutRandom { n, edges } => {
                crate::qaoa::maxcut_observables(&Graph::random(*n, *edges, WORKLOAD_SEED))
            }
        }
    }

    /// Native (unoptimized) CNOT count: `Σ 2·(weight − 1)` over the program.
    #[must_use]
    pub fn native_cnot_count(&self) -> usize {
        self.rotations()
            .iter()
            .map(PauliRotation::native_cnot_cost)
            .sum()
    }

    /// Native (unoptimized) single-qubit gate count.
    #[must_use]
    pub fn native_single_qubit_count(&self) -> usize {
        self.rotations()
            .iter()
            .map(PauliRotation::native_single_qubit_cost)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_nineteen_benchmarks() {
        assert_eq!(Benchmark::all().len(), 19);
        assert_eq!(Benchmark::small_suite().len(), 17);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<String> =
            Benchmark::all().iter().map(Benchmark::name).collect();
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn qubit_counts_match_table_ii() {
        let expected = [
            ("UCC-(2,4)", 4usize),
            ("UCC-(10,20)", 20),
            ("LiH", 6),
            ("H2O", 8),
            ("benzene", 12),
            ("LABS-(n10)", 10),
            ("MaxCut-(n15, r4)", 15),
            ("MaxCut-(n20, e117)", 20),
        ];
        let all = Benchmark::all();
        for (name, qubits) in expected {
            let bench = all.iter().find(|b| b.name() == name).unwrap();
            assert_eq!(bench.num_qubits(), qubits, "{name}");
        }
    }

    #[test]
    fn pauli_counts_match_table_ii_where_exact() {
        let expected = [
            ("UCC-(2,4)", 24usize),
            ("UCC-(2,6)", 80),
            ("UCC-(4,8)", 320),
            ("LiH", 61),
            ("H2O", 184),
            ("benzene", 1254),
            ("MaxCut-(n15, r4)", 45),
            ("MaxCut-(n20, r12)", 140),
            ("MaxCut-(n10, e12)", 22),
        ];
        let all = Benchmark::all();
        for (name, count) in expected {
            let bench = all.iter().find(|b| b.name() == name).unwrap();
            assert_eq!(bench.rotations().len(), count, "{name}");
        }
    }

    #[test]
    fn maxcut_native_counts_match_table_ii() {
        let bench = Benchmark::MaxCutRegular { n: 20, degree: 8 };
        assert_eq!(bench.native_cnot_count(), 160);
        assert_eq!(bench.native_single_qubit_count(), 140);
    }

    #[test]
    fn observables_are_nonempty_and_sized_correctly() {
        for bench in [
            Benchmark::Ucc(2, 4),
            Benchmark::Molecule(Molecule::LiH),
            Benchmark::MaxCutRegular { n: 15, degree: 4 },
            Benchmark::Labs(10),
        ] {
            let obs = bench.observables();
            assert!(!obs.is_empty(), "{}", bench.name());
            assert!(obs.iter().all(|o| o.num_qubits() == bench.num_qubits()));
        }
    }

    #[test]
    fn rotations_are_deterministic() {
        let a = Benchmark::MaxCutRegular { n: 20, degree: 8 }.rotations();
        let b = Benchmark::MaxCutRegular { n: 20, degree: 8 }.rotations();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
    }
}
