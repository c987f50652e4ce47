//! Property tests for the lift pass: on random circuits, the lifted
//! rotation program followed by the trailing Clifford must implement the
//! input circuit's unitary, and the full
//! `lift(from_qasm(to_qasm(compile(p))))` loop must be simulator-equivalent
//! to the original rotation program.

use proptest::prelude::*;
use quclear_circuit::qasm::{from_qasm, to_qasm};
use quclear_circuit::{Circuit, Gate};
use quclear_core::{compile, lift, LiftedProgram, QuClearConfig};
use quclear_pauli::{PauliOp, PauliRotation, PauliString};
use quclear_sim::StateVector;

const NUM_QUBITS: usize = 4;

/// The lifted rotations re-bound to new native angles (angle `i` replaces
/// the input circuit's `i`-th rotation angle; axis signs are re-folded).
fn rotations_with_angles(lifted: &LiftedProgram, angles: &[f64]) -> Vec<PauliRotation> {
    assert_eq!(angles.len(), lifted.axes().len(), "angle count mismatch");
    lifted
        .axes()
        .iter()
        .zip(angles)
        .map(|(axis, &angle)| PauliRotation::with_signed_pauli(axis.clone(), angle))
        .collect()
}

/// Decodes one random word into a gate, covering the whole gate set.
fn decode_gate(word: u64) -> Gate {
    let q = (word % NUM_QUBITS as u64) as usize;
    let other = ((word >> 8) % (NUM_QUBITS as u64 - 1)) as usize;
    let p = if other >= q { other + 1 } else { other };
    let angle = ((word >> 16) % 10_000) as f64 * 3.1e-4 - 1.55;
    match (word >> 32) % 14 {
        0 => Gate::H(q),
        1 => Gate::S(q),
        2 => Gate::Sdg(q),
        3 => Gate::X(q),
        4 => Gate::Y(q),
        5 => Gate::Z(q),
        6 => Gate::SqrtX(q),
        7 => Gate::SqrtXdg(q),
        8 => Gate::Rz { qubit: q, angle },
        9 => Gate::Rx { qubit: q, angle },
        10 => Gate::Ry { qubit: q, angle },
        11 => Gate::Cx {
            control: q,
            target: p,
        },
        12 => Gate::Cz { a: q, b: p },
        _ => Gate::Swap { a: q, b: p },
    }
}

fn random_circuit(words: &[u64]) -> Circuit {
    Circuit::from_gates(NUM_QUBITS, words.iter().map(|&w| decode_gate(w)).collect())
}

/// Decodes one random word into a rotation on `NUM_QUBITS` qubits (identity
/// axes allowed: the loop must tolerate trivial rotations).
fn decode_rotation(word: u64) -> PauliRotation {
    let mut pauli = PauliString::identity(NUM_QUBITS);
    for q in 0..NUM_QUBITS {
        let op = match (word >> (2 * q)) & 3 {
            0 => PauliOp::I,
            1 => PauliOp::X,
            2 => PauliOp::Y,
            _ => PauliOp::Z,
        };
        pauli.set_op(q, op);
    }
    let angle = ((word >> 16) % 10_000) as f64 * 2.9e-4 - 1.45;
    PauliRotation::new(pauli, angle)
}

/// Simulates the lifted program: rotations (exact Pauli exponentials), then
/// the trailing Clifford circuit.
fn simulate_lifted(lifted: &quclear_core::LiftedProgram) -> StateVector {
    let mut state = StateVector::zero_state(lifted.num_qubits());
    state.apply_rotations(&lifted.rotations);
    state.apply_circuit(lifted.trailing_circuit());
    state
}

proptest! {
    /// `circuit ≡ rotations then trailing` as unitaries, checked on |0…0⟩
    /// and on a basis-scrambling prefix state.
    #[test]
    fn lift_preserves_the_circuit_unitary(words in prop::collection::vec(any::<u64>(), 0..40)) {
        let circuit = random_circuit(&words);
        let lifted = lift(&circuit);

        let direct = StateVector::from_circuit(&circuit);
        let via_lift = simulate_lifted(&lifted);
        prop_assert!(
            direct.approx_eq_up_to_phase(&via_lift, 1e-9),
            "lifted program diverges from the circuit"
        );
    }

    /// The issue's loop: compile a random rotation program, export the full
    /// optimized circuit to QASM, parse it back, lift it — the lifted
    /// program must be simulator-equivalent to the original program.
    #[test]
    fn lift_of_exported_compilation_matches_the_program(
        words in prop::collection::vec(any::<u64>(), 1..10),
    ) {
        let program: Vec<PauliRotation> = words.iter().map(|&w| decode_rotation(w)).collect();
        let compiled = compile(&program, &QuClearConfig::default());
        let text = to_qasm(&compiled.full_circuit());
        let lifted = lift(&from_qasm(&text).expect("exported QASM must parse"));

        let mut reference = StateVector::zero_state(NUM_QUBITS);
        reference.apply_rotations(&program);
        let via_loop = simulate_lifted(&lifted);
        prop_assert!(
            reference.approx_eq_up_to_phase(&via_loop, 1e-9),
            "QASM loop diverges from the original rotation program"
        );
    }

    /// Re-binding a lifted structure to fresh angles matches lifting the
    /// re-angled circuit directly.
    #[test]
    fn rebound_angles_match_a_fresh_lift(words in prop::collection::vec(any::<u64>(), 1..30)) {
        let circuit = random_circuit(&words);
        let lifted = lift(&circuit);
        let doubled: Vec<f64> = lifted.native_angles().iter().map(|a| 2.0 * a).collect();
        let rebound = rotations_with_angles(&lifted, &doubled);

        let regauged = Circuit::from_gates(
            NUM_QUBITS,
            circuit
                .gates()
                .iter()
                .map(|g| match *g {
                    Gate::Rz { qubit, angle } => Gate::Rz { qubit, angle: 2.0 * angle },
                    Gate::Rx { qubit, angle } => Gate::Rx { qubit, angle: 2.0 * angle },
                    Gate::Ry { qubit, angle } => Gate::Ry { qubit, angle: 2.0 * angle },
                    g => g,
                })
                .collect(),
        );
        let fresh = lift(&regauged);
        prop_assert_eq!(rebound, fresh.rotations);
    }
}
