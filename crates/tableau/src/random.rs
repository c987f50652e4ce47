//! Random Clifford circuits, used by tests and benchmarks.

use quclear_circuit::{Circuit, Gate};
use rand::Rng;

/// Generates a random Clifford circuit on `n` qubits with `num_gates` gates
/// drawn uniformly from {H, S, S†, √X, X, Z, CX, CZ, SWAP}.
///
/// Two-qubit gates pick a random ordered pair of distinct qubits. For `n == 1`
/// only single-qubit gates are produced.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let qc = quclear_tableau::random_clifford_circuit(4, 20, &mut rng);
/// assert_eq!(qc.len(), 20);
/// assert!(qc.gates().iter().all(quclear_circuit::Gate::is_clifford));
/// ```
#[must_use]
pub fn random_clifford_circuit<R: Rng + ?Sized>(
    n: usize,
    num_gates: usize,
    rng: &mut R,
) -> Circuit {
    assert!(n > 0, "cannot build a circuit on zero qubits");
    let mut circuit = Circuit::new(n);
    for _ in 0..num_gates {
        let kind = if n == 1 {
            rng.gen_range(0..6)
        } else {
            rng.gen_range(0..9)
        };
        let q = rng.gen_range(0..n);
        let gate = match kind {
            0 => Gate::H(q),
            1 => Gate::S(q),
            2 => Gate::Sdg(q),
            3 => Gate::SqrtX(q),
            4 => Gate::X(q),
            5 => Gate::Z(q),
            _ => {
                let mut other = rng.gen_range(0..n);
                while other == q {
                    other = rng.gen_range(0..n);
                }
                match kind {
                    6 => Gate::Cx {
                        control: q,
                        target: other,
                    },
                    7 => Gate::Cz { a: q, b: other },
                    _ => Gate::Swap { a: q, b: other },
                }
            }
        };
        circuit.push(gate);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_requested_length_and_stays_clifford() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = random_clifford_circuit(5, 40, &mut rng);
        assert_eq!(c.len(), 40);
        assert!(c.gates().iter().all(Gate::is_clifford));
        assert_eq!(c.num_qubits(), 5);
    }

    #[test]
    fn single_qubit_case_avoids_two_qubit_gates() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = random_clifford_circuit(1, 30, &mut rng);
        assert!(c.gates().iter().all(|g| !g.is_two_qubit()));
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = random_clifford_circuit(4, 25, &mut StdRng::seed_from_u64(9));
        let b = random_clifford_circuit(4, 25, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
