//! A t|ket⟩-like baseline: simultaneous diagonalization of commuting Pauli
//! sets (Cowtan et al., "Phase gadget synthesis" / "A generic compilation
//! strategy for the UCC ansatz").
//!
//! Rotations are grouped into blocks of mutually commuting Pauli strings.
//! For each block a Clifford circuit `C` is constructed such that every
//! string in the block becomes Z-only under conjugation; the block is then
//! implemented as `C · (Z-rotation ladders) · C†`, with the peephole pass
//! cancelling gates between adjacent ladders.

use quclear_circuit::{optimize, Circuit, Gate};
use quclear_core::CommutingBlocks;
use quclear_pauli::{PauliFrame, PauliOp, PauliRotation, SignedPauli};
use quclear_tableau::conjugate_all_by_gate;

/// Synthesizes a rotation program with the simultaneous-diagonalization
/// strategy (including the final peephole clean-up).
///
/// # Panics
///
/// Panics if the rotations act on different register sizes.
///
/// # Examples
///
/// ```
/// use quclear_baselines::synthesize_tket_like;
/// use quclear_pauli::PauliRotation;
///
/// let program = vec![
///     PauliRotation::parse("XXI", 0.3)?,
///     PauliRotation::parse("IXX", 0.5)?,
/// ];
/// let circuit = synthesize_tket_like(&program);
/// assert!(circuit.cnot_count() <= 8);
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[must_use]
pub fn synthesize_tket_like(rotations: &[PauliRotation]) -> Circuit {
    let n = rotations
        .first()
        .map_or(0, quclear_pauli::PauliRotation::num_qubits);
    let blocks = CommutingBlocks::from_rotations(rotations);

    let mut qc = Circuit::new(n);
    for block in blocks.blocks() {
        let non_trivial: Vec<&PauliRotation> = rotations[block.clone()]
            .iter()
            .filter(|r| !r.is_trivial())
            .collect();
        if non_trivial.is_empty() {
            continue;
        }
        let paulis: Vec<SignedPauli> = non_trivial
            .iter()
            .map(|r| SignedPauli::positive(r.pauli().clone()))
            .collect();
        let diag = diagonalize_commuting_set(n, &paulis);

        // Block implementation: C, the diagonal rotations, then C†.
        qc.append(&diag.circuit);
        for (rotation, diagonalized) in non_trivial.iter().zip(&diag.transformed) {
            let angle = rotation.angle() * diagonalized.sign();
            let support = diagonalized.pauli().support();
            if support.is_empty() {
                continue;
            }
            let mut ladder = Circuit::new(n);
            for pair in support.windows(2) {
                ladder.cx(pair[0], pair[1]);
            }
            qc.append(&ladder);
            qc.rz(*support.last().expect("non-empty support"), angle);
            qc.append(&ladder.inverse());
        }
        qc.append(&diag.circuit.inverse());
    }
    optimize(&qc)
}

/// The result of diagonalizing a commuting Pauli set.
#[derive(Clone, Debug)]
pub struct Diagonalization {
    /// The Clifford circuit `C` such that `C P C†` is Z-only for every input.
    pub circuit: Circuit,
    /// The transformed (Z-only, signed) Pauli strings, in input order.
    pub transformed: Vec<SignedPauli>,
}

/// Finds a Clifford circuit that simultaneously maps every Pauli in a
/// mutually commuting set to a Z-only string.
///
/// # Panics
///
/// Panics if the input strings do not all commute pairwise or act on
/// different register sizes.
#[must_use]
pub fn diagonalize_commuting_set(n: usize, paulis: &[SignedPauli]) -> Diagonalization {
    for (i, a) in paulis.iter().enumerate() {
        assert_eq!(a.num_qubits(), n, "register size mismatch");
        for b in &paulis[i + 1..] {
            assert!(
                a.commutes_with(b),
                "diagonalize_commuting_set requires a mutually commuting set ({a} vs {b})"
            );
        }
    }

    // Every member lives in one frame; each gate conjugates all of them in
    // one word-parallel pass.
    let mut working = PauliFrame::from_signed(n, paulis);
    let mut gates: Vec<Gate> = Vec::new();
    let mut apply = |gate: Gate, working: &mut PauliFrame| {
        conjugate_all_by_gate(working, &gate);
        gates.push(gate);
    };

    for q in 0..n {
        // Find a Pauli with an X component at q (an unprocessed column).
        let Some(idx) = working.x_plane(q).iter_ones().next() else {
            continue;
        };
        // Make the pivot carry a plain X at q.
        if working.op(idx, q) == PauliOp::Y {
            apply(Gate::S(q), &mut working);
        }
        // Clear the pivot's other columns one gate step at a time: X/Y via
        // CX(q→j), Z via CZ(q, j), always at the lowest such column j.
        while let Some((j, op)) = (0..n)
            .filter(|&j| j != q)
            .map(|j| (j, working.op(idx, j)))
            .find(|&(_, op)| op != PauliOp::I)
        {
            match op {
                PauliOp::X | PauliOp::Y => {
                    if op == PauliOp::Y {
                        apply(Gate::S(j), &mut working);
                    }
                    apply(
                        Gate::Cx {
                            control: q,
                            target: j,
                        },
                        &mut working,
                    );
                }
                _ => apply(Gate::Cz { a: q, b: j }, &mut working),
            }
        }
        // The pivot now has q as its only non-identity column among the
        // unprocessed qubits (the ladder CNOTs may have turned the X back
        // into a Y); normalize to X and turn it into Z with a Hadamard.
        // Every other member commutes with the pivot, so after the Hadamard
        // all members are I/Z at q.
        if working.op(idx, q) == PauliOp::Y {
            apply(Gate::S(q), &mut working);
        }
        apply(Gate::H(q), &mut working);
    }

    debug_assert!(
        (0..n).all(|q| working.x_plane(q).is_zero()),
        "diagonalization failed to clear all X components"
    );

    // The conjugations applied were P ↦ g P g† in time order, so the final
    // strings satisfy P' = C P C† with C the accumulated gate list as a
    // circuit. Since exp(-iθ/2·P) = C† · exp(-iθ/2·P') · C, a block is
    // implemented as the circuit [C][Z-rotation ladders][C†] in time order,
    // which is exactly how `synthesize_tket_like` uses the result.
    Diagonalization {
        circuit: Circuit::from_gates(n, gates),
        transformed: (0..paulis.len()).map(|i| working.get(i)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::synthesize_naive;
    use quclear_sim::StateVector;
    use quclear_tableau::CliffordTableau;

    fn rot(s: &str, a: f64) -> PauliRotation {
        PauliRotation::parse(s, a).unwrap()
    }

    #[test]
    fn diagonalization_produces_z_only_strings() {
        let set: Vec<SignedPauli> = ["XXII", "IXXI", "IIXX", "ZZZZ"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let diag = diagonalize_commuting_set(4, &set);
        for p in &diag.transformed {
            assert!(p.pauli().x_bits().is_zero(), "{p} is not Z-only");
        }
        // The transformation must match the returned circuit: P' = C P C†.
        let map = CliffordTableau::from_circuit(&diag.circuit);
        for (orig, trans) in set.iter().zip(&diag.transformed) {
            assert_eq!(&map.apply_signed(orig), trans);
        }
    }

    #[test]
    fn diagonalization_of_single_string() {
        let set: Vec<SignedPauli> = vec!["XYZX".parse().unwrap()];
        let diag = diagonalize_commuting_set(4, &set);
        assert!(diag.transformed[0].pauli().x_bits().is_zero());
    }

    #[test]
    fn tket_like_implements_the_same_unitary() {
        let program = vec![
            rot("XXI", 0.4),
            rot("IXX", -0.3),
            rot("ZZZ", 0.8),
            rot("YIY", 0.25),
        ];
        let reference = StateVector::from_circuit(&synthesize_naive(&program));
        let tket = StateVector::from_circuit(&synthesize_tket_like(&program));
        assert!(reference.approx_eq_up_to_phase(&tket, 1e-9));
    }

    #[test]
    fn tket_like_beats_naive_on_commuting_families() {
        // Large commuting family (QAOA problem layer on a dense graph).
        let mut program = Vec::new();
        for a in 0..5usize {
            for b in a + 1..5 {
                let mut p = quclear_pauli::PauliString::identity(5);
                p.set_op(a, PauliOp::Z);
                p.set_op(b, PauliOp::Z);
                program.push(PauliRotation::new(p, 0.2 + 0.01 * (a + b) as f64));
            }
        }
        let naive = synthesize_naive(&program);
        let tket = synthesize_tket_like(&program);
        assert!(tket.cnot_count() <= naive.cnot_count());
    }

    #[test]
    #[should_panic(expected = "commuting")]
    fn rejects_anticommuting_sets() {
        let set: Vec<SignedPauli> = vec!["XI".parse().unwrap(), "ZI".parse().unwrap()];
        let _ = diagonalize_commuting_set(2, &set);
    }

    #[test]
    fn empty_program_is_empty_circuit() {
        assert!(synthesize_tket_like(&[]).is_empty());
    }
}
