//! Per-gate Clifford conjugation rules on Pauli operators.
//!
//! The fundamental operation is `P ↦ g·P·g†` for a Clifford gate `g`. The
//! rules are expressed on single-qubit operators (plus the CNOT rule on
//! pairs) and assembled into whole-string updates by
//! [`conjugate_pauli_by_gate`]. Correctness is checked against the unitary
//! simulator in the workspace integration tests and against the paper's
//! Table I in this crate's unit tests.

use quclear_circuit::Gate;
use quclear_pauli::{PauliFrame, PauliOp, SignedPauli};

/// Conjugates a signed Pauli by a single Clifford gate: returns `g·P·g†`.
///
/// # Panics
///
/// Panics if `gate` is not a Clifford gate (`Rz`/`Rx`/`Ry`).
#[must_use]
pub fn conjugate_pauli_by_gate(pauli: &SignedPauli, gate: &Gate) -> SignedPauli {
    let mut p = pauli.pauli().clone();
    let mut negative = pauli.is_negative();
    match *gate {
        Gate::H(q)
        | Gate::S(q)
        | Gate::Sdg(q)
        | Gate::X(q)
        | Gate::Y(q)
        | Gate::Z(q)
        | Gate::SqrtX(q)
        | Gate::SqrtXdg(q) => {
            let (new_op, flip) = conjugate_single(gate, p.op(q));
            p.set_op(q, new_op);
            negative ^= flip;
        }
        Gate::Cx { control, target } => {
            let (new_c, new_t, flip) = conjugate_cx(p.op(control), p.op(target));
            p.set_op(control, new_c);
            p.set_op(target, new_t);
            negative ^= flip;
        }
        Gate::Cz { a, b } => {
            // CZ = H(b) · CX(a,b) · H(b); apply the three conjugations in turn.
            let mut sp = SignedPauli::new(p, negative);
            for g in [
                Gate::H(b),
                Gate::Cx {
                    control: a,
                    target: b,
                },
                Gate::H(b),
            ] {
                sp = conjugate_pauli_by_gate(&sp, &g);
            }
            return sp;
        }
        Gate::Swap { a, b } => {
            let (oa, ob) = (p.op(a), p.op(b));
            p.set_op(a, ob);
            p.set_op(b, oa);
        }
        Gate::Rz { .. } | Gate::Rx { .. } | Gate::Ry { .. } => {
            panic!("cannot conjugate a Pauli by non-Clifford gate {gate}")
        }
    }
    SignedPauli::new(p, negative)
}

/// Conjugates **every** Pauli in a [`PauliFrame`] by a single Clifford gate
/// in one word-parallel pass: each row becomes `g·P·g†`.
///
/// This is the batched counterpart of [`conjugate_pauli_by_gate`]: instead
/// of walking rows one at a time it updates the frame's per-qubit bit-planes
/// with `O(rows/64)` word operations, which is what makes advancing a
/// Clifford frame past a whole lookahead window cheap.
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

/// Single-qubit conjugation rule: returns `(g·P·g†, sign_flips)`.
fn conjugate_single(gate: &Gate, op: PauliOp) -> (PauliOp, bool) {
    use PauliOp::*;
    match gate {
        Gate::H(_) => match op {
            I => (I, false),
            X => (Z, false),
            Y => (Y, true),
            Z => (X, false),
        },
        Gate::S(_) => match op {
            I => (I, false),
            X => (Y, false),
            Y => (X, true),
            Z => (Z, false),
        },
        Gate::Sdg(_) => match op {
            I => (I, false),
            X => (Y, true),
            Y => (X, false),
            Z => (Z, false),
        },
        Gate::X(_) => (op, matches!(op, Y | Z)),
        Gate::Y(_) => (op, matches!(op, X | Z)),
        Gate::Z(_) => (op, matches!(op, X | Y)),
        Gate::SqrtX(_) => match op {
            I => (I, false),
            X => (X, false),
            Y => (Z, false),
            Z => (Y, true),
        },
        Gate::SqrtXdg(_) => match op {
            I => (I, false),
            X => (X, false),
            Y => (Z, true),
            Z => (Y, false),
        },
        _ => unreachable!("conjugate_single called with multi-qubit or non-Clifford gate"),
    }
}

/// CNOT conjugation rule on the (control, target) operator pair:
/// returns `(new_control, new_target, sign_flips)`.
fn conjugate_cx(control: PauliOp, target: PauliOp) -> (PauliOp, PauliOp, bool) {
    let (xc, zc) = control.xz();
    let (xt, zt) = target.xz();
    // CX: X_c → X_c X_t, Z_t → Z_c Z_t, X_t → X_t, Z_c → Z_c.
    let new_xc = xc;
    let new_zc = zc ^ zt;
    let new_xt = xt ^ xc;
    let new_zt = zt;
    // Aaronson–Gottesman sign rule (using pre-update values).
    let flip = xc && zt && (xt == zc);
    (
        PauliOp::from_xz(new_xc, new_zc),
        PauliOp::from_xz(new_xt, new_zt),
        flip,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use quclear_pauli::PauliString;

    fn conj(gate: Gate, input: &str) -> String {
        let sp: SignedPauli = input.parse().unwrap();
        conjugate_pauli_by_gate(&sp, &gate).to_string()
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
            let out = conjugate_pauli_by_gate(&sp, &cx);
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
                let lhs = conjugate_pauli_by_gate(&sa.mul(&sb), &cx);
                let rhs = conjugate_pauli_by_gate(&sa, &cx).mul(&conjugate_pauli_by_gate(&sb, &cx));
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
                let roundtrip =
                    conjugate_pauli_by_gate(&conjugate_pauli_by_gate(&sp, &gate), &gate.inverse());
                assert_eq!(
                    roundtrip, sp,
                    "g† g conjugation must be the identity for {gate}"
                );
            }
        }
    }

    /// The batched frame conjugation must agree with the scalar rule on
    /// every two-qubit signed Pauli for every Clifford gate.
    #[test]
    fn batched_conjugation_matches_scalar_rules() {
        let gates = [
            Gate::H(0),
            Gate::H(1),
            Gate::S(0),
            Gate::Sdg(1),
            Gate::X(0),
            Gate::Y(1),
            Gate::Z(0),
            Gate::SqrtX(1),
            Gate::SqrtXdg(0),
            Gate::Cx {
                control: 0,
                target: 1,
            },
            Gate::Cx {
                control: 1,
                target: 0,
            },
            Gate::Cz { a: 0, b: 1 },
            Gate::Swap { a: 0, b: 1 },
        ];
        // All 32 signed two-qubit Paulis.
        let mut rows: Vec<SignedPauli> = Vec::new();
        for a in "IXYZ".chars() {
            for b in "IXYZ".chars() {
                for sign in ["+", "-"] {
                    rows.push(format!("{sign}{a}{b}").parse().unwrap());
                }
            }
        }
        for gate in gates {
            let mut frame = PauliFrame::from_signed(2, &rows);
            conjugate_all_by_gate(&mut frame, &gate);
            for (i, row) in rows.iter().enumerate() {
                let scalar = conjugate_pauli_by_gate(row, &gate);
                assert_eq!(frame.get(i), scalar, "gate {gate} on {row}");
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
        let _ = conjugate_pauli_by_gate(
            &sp,
            &Gate::Rz {
                qubit: 0,
                angle: 0.1,
            },
        );
    }
}
