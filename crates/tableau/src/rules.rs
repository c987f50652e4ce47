//! Per-gate Clifford conjugation of Pauli operators.
//!
//! The fundamental operation is `P ↦ g·P·g†` for a Clifford gate `g`.
//! [`conjugate_all_by_gate`] applies it to every row of a [`PauliFrame`] at
//! once through the frame's word-parallel bit-plane kernels; a single
//! Pauli is a one-row frame. The kernels are checked against the paper's
//! Table I in this crate's unit tests, against a scalar per-operator rule
//! table kept in `tests/support/scalar_rules.rs`, and against the unitary
//! simulator in the workspace integration tests.

use quclear_circuit::Gate;
use quclear_pauli::PauliFrame;

/// Conjugates **every** Pauli in a [`PauliFrame`] by a single Clifford gate
/// in one word-parallel pass: each row becomes `g·P·g†`.
///
/// Instead of walking rows one at a time it updates the frame's per-qubit
/// bit-planes with `O(rows/64)` word operations, which is what makes
/// advancing a Clifford frame past a whole lookahead window cheap.
///
/// # Panics
///
/// Panics if `gate` is not a Clifford gate (`Rz`/`Rx`/`Ry`).
pub fn conjugate_all_by_gate(frame: &mut PauliFrame, gate: &Gate) {
    match *gate {
        Gate::H(q) => frame.conj_h(q),
        Gate::S(q) => frame.conj_s(q),
        Gate::Sdg(q) => frame.conj_sdg(q),
        Gate::X(q) => frame.conj_x(q),
        Gate::Y(q) => frame.conj_y(q),
        Gate::Z(q) => frame.conj_z(q),
        Gate::SqrtX(q) => frame.conj_sqrt_x(q),
        Gate::SqrtXdg(q) => frame.conj_sqrt_xdg(q),
        Gate::Cx { control, target } => frame.conj_cx(control, target),
        Gate::Cz { a, b } => frame.conj_cz(a, b),
        Gate::Swap { a, b } => frame.conj_swap(a, b),
        Gate::Rz { .. } | Gate::Rx { .. } | Gate::Ry { .. } => {
            panic!("cannot conjugate a Pauli by non-Clifford gate {gate}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quclear_pauli::{PauliString, SignedPauli};

    /// `g·P·g†` through the production kernel, on a one-row frame.
    fn conjugate(pauli: &SignedPauli, gate: &Gate) -> SignedPauli {
        let mut frame = PauliFrame::from_signed(pauli.num_qubits(), std::slice::from_ref(pauli));
        conjugate_all_by_gate(&mut frame, gate);
        frame.get(0)
    }

    fn conj(gate: Gate, input: &str) -> String {
        let sp: SignedPauli = input.parse().unwrap();
        conjugate(&sp, &gate).to_string()
    }

    #[test]
    fn hadamard_rules() {
        assert_eq!(conj(Gate::H(0), "X"), "+Z");
        assert_eq!(conj(Gate::H(0), "Z"), "+X");
        assert_eq!(conj(Gate::H(0), "Y"), "-Y");
        assert_eq!(conj(Gate::H(0), "I"), "+I");
    }

    #[test]
    fn phase_gate_rules() {
        assert_eq!(conj(Gate::S(0), "X"), "+Y");
        assert_eq!(conj(Gate::S(0), "Y"), "-X");
        assert_eq!(conj(Gate::S(0), "Z"), "+Z");
        assert_eq!(conj(Gate::Sdg(0), "X"), "-Y");
        assert_eq!(conj(Gate::Sdg(0), "Y"), "+X");
    }

    #[test]
    fn pauli_gate_rules_only_touch_signs() {
        assert_eq!(conj(Gate::X(0), "Z"), "-Z");
        assert_eq!(conj(Gate::X(0), "X"), "+X");
        assert_eq!(conj(Gate::Z(0), "X"), "-X");
        assert_eq!(conj(Gate::Y(0), "X"), "-X");
        assert_eq!(conj(Gate::Y(0), "Z"), "-Z");
        assert_eq!(conj(Gate::Y(0), "Y"), "+Y");
    }

    #[test]
    fn sqrt_x_rules() {
        assert_eq!(conj(Gate::SqrtX(0), "Z"), "-Y");
        assert_eq!(conj(Gate::SqrtX(0), "Y"), "+Z");
        assert_eq!(conj(Gate::SqrtX(0), "X"), "+X");
        assert_eq!(conj(Gate::SqrtXdg(0), "Z"), "+Y");
        assert_eq!(conj(Gate::SqrtXdg(0), "Y"), "-Z");
    }

    /// The paper's Table I (sign-free): new Pauli after commuting a CNOT with
    /// a two-qubit Pauli, control on the left.
    #[test]
    fn cnot_rules_match_paper_table_i() {
        let cx = Gate::Cx {
            control: 0,
            target: 1,
        };
        let table = [
            ("II", "II"),
            ("IX", "IX"),
            ("IY", "ZY"),
            ("IZ", "ZZ"),
            ("XI", "XX"),
            ("XX", "XI"),
            ("XY", "YZ"),
            ("XZ", "YY"),
            ("YI", "YX"),
            ("YX", "YI"),
            ("YY", "XZ"),
            ("YZ", "XY"),
            ("ZI", "ZI"),
            ("ZX", "ZX"),
            ("ZY", "IY"),
            ("ZZ", "IZ"),
        ];
        for (input, want) in table {
            let sp: SignedPauli = input.parse().unwrap();
            let out = conjugate(&sp, &cx);
            assert_eq!(
                out.pauli().to_string(),
                want,
                "CX conjugation of {input} should give {want}"
            );
        }
    }

    /// Conjugation must preserve commutation relations and weight-parity of
    /// the anticommutation structure: verify the CX signs are self-consistent
    /// by checking that conjugation is a group automorphism on products.
    #[test]
    fn cx_conjugation_is_multiplicative() {
        let cx = Gate::Cx {
            control: 0,
            target: 1,
        };
        let strings = [
            "II", "IX", "IY", "IZ", "XI", "XX", "XY", "XZ", "YI", "YX", "YY", "YZ", "ZI", "ZX",
            "ZY", "ZZ",
        ];
        for a in strings {
            for b in strings {
                let pa: PauliString = a.parse().unwrap();
                let pb: PauliString = b.parse().unwrap();
                if !pa.commutes_with(&pb) {
                    continue; // product would be non-Hermitian
                }
                let sa = SignedPauli::positive(pa.clone());
                let sb = SignedPauli::positive(pb.clone());
                let lhs = conjugate(&sa.mul(&sb), &cx);
                let rhs = conjugate(&sa, &cx).mul(&conjugate(&sb, &cx));
                assert_eq!(lhs, rhs, "conjugation must distribute over {a}·{b}");
            }
        }
    }

    #[test]
    fn swap_exchanges_operators() {
        assert_eq!(conj(Gate::Swap { a: 0, b: 1 }, "XZ"), "+ZX");
        assert_eq!(conj(Gate::Swap { a: 0, b: 1 }, "-YI"), "-IY");
    }

    #[test]
    fn cz_rules() {
        let cz = Gate::Cz { a: 0, b: 1 };
        assert_eq!(conj(cz, "XI"), "+XZ");
        assert_eq!(conj(cz, "IX"), "+ZX");
        assert_eq!(conj(cz, "ZI"), "+ZI");
        assert_eq!(conj(cz, "XX"), "+YY");
    }

    #[test]
    fn inverse_gate_roundtrip() {
        let gates = [
            Gate::H(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::SqrtX(0),
            Gate::Cx {
                control: 0,
                target: 1,
            },
            Gate::Cz { a: 0, b: 1 },
            Gate::Swap { a: 0, b: 1 },
        ];
        for gate in gates {
            for s in ["XY", "-ZI", "YZ", "IX"] {
                let sp: SignedPauli = s.parse().unwrap();
                let roundtrip = conjugate(&conjugate(&sp, &gate), &gate.inverse());
                assert_eq!(
                    roundtrip, sp,
                    "g† g conjugation must be the identity for {gate}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-Clifford")]
    fn batched_rotation_gates_are_rejected() {
        let mut frame = PauliFrame::identities(1, 1);
        conjugate_all_by_gate(
            &mut frame,
            &Gate::Rx {
                qubit: 0,
                angle: 0.5,
            },
        );
    }

    #[test]
    #[should_panic(expected = "non-Clifford")]
    fn rotation_gates_are_rejected() {
        let sp: SignedPauli = "X".parse().unwrap();
        let _ = conjugate(
            &sp,
            &Gate::Rz {
                qubit: 0,
                angle: 0.1,
            },
        );
    }
}
