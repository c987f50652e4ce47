//! The scalar per-gate Clifford conjugation rules, kept as a test oracle
//! for the word-parallel `PauliFrame` kernels behind
//! `quclear_tableau::conjugate_all_by_gate`.
//!
//! Each rule is written out per operator (plus the CNOT rule on pairs, with
//! the Aaronson–Gottesman sign) and knows nothing of bit-planes, so it
//! checks the kernels independently. Test files include this module with
//! `#[path]`.

use quclear_circuit::Gate;
use quclear_pauli::{PauliOp, SignedPauli};

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
