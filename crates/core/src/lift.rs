//! Lifting gate-level circuits into Pauli-rotation programs.
//!
//! QuCLEAR consumes programs expressed as sequences of Pauli rotations
//! (`exp(-i·θ/2·P)`), but real workloads arrive as *gate-level* circuits —
//! the paper's VQE/QAOA benchmarks are QASM before they are Pauli networks.
//! This module is the front door: [`lift`] converts any circuit over the
//! workspace gate set into a [`LiftedProgram`] — a rotation program followed
//! by one trailing Clifford — so external circuits can enter
//! [`compile`](crate::compile) and the engine exactly like native programs.
//!
//! # How it works
//!
//! The pass streams the gates once, in time order, maintaining a Heisenberg
//! generator frame of the accumulated Clifford `C`: the 2n rows `C†·X_q·C`
//! and `C†·Z_q·C`. A Clifford gate rewrites only the rows of the qubits it
//! touches (each new row is a signed product of at most two old rows), so
//! the whole pass is `O(gates · n/64)` words. The Clifford gates themselves
//! are kept, in their original order, as the trailing circuit.
//!
//! When a rotation gate arrives (`Rz`/`Rx`/`Ry`, and `T`/`T†` once parsed as
//! `Rz(±π/4)`), it commutes leftwards past `C`:
//! `exp(-i·θ/2·P)·C = C·exp(-i·θ/2·C†·P·C)` — and `C†·P·C` for a native
//! single-qubit axis is *read off* the frame: row `n+q` for `Z_q`, row `q`
//! for `X_q`, and `i`·row`_q`·row`_{n+q}` for `Y_q`. No pattern matching is
//! involved, which is why `Rz`/`CX` ladders collapse to multi-qubit `ZZ…Z`
//! rotations automatically: the CNOT conjugation is simply tracked by the
//! frame.
//!
//! # Examples
//!
//! The textbook ZZ-interaction gadget lifts to a single two-qubit rotation;
//! its two CNOTs stay behind in the trailing Clifford, where they cancel:
//!
//! ```
//! use quclear_circuit::Circuit;
//! use quclear_core::lift;
//!
//! let mut qc = Circuit::new(2);
//! qc.cx(0, 1);
//! qc.rz(1, 0.7);
//! qc.cx(0, 1);
//! let lifted = lift(&qc);
//! assert_eq!(lifted.rotations.len(), 1);
//! assert_eq!(lifted.rotations[0].pauli().to_string(), "ZZ");
//! assert_eq!(lifted.trailing_circuit().cnot_count(), 2);
//! ```
//!
//! Lifted programs compile like native ones; [`LiftedProgram::attach`]
//! appends the trailing Clifford to the result's extracted Clifford:
//!
//! ```
//! use quclear_circuit::qasm::from_qasm;
//! use quclear_core::{compile, lift, QuClearConfig};
//!
//! let lifted = lift(&from_qasm(
//!     "qreg q[2]; h q[0]; cx q[0], q[1]; rz(pi/4) q[1]; cx q[0], q[1];",
//! )?);
//! let result = lifted.attach(compile(&lifted.rotations, &QuClearConfig::default()));
//! assert_eq!(result.optimized.num_qubits(), 2);
//! # Ok::<(), quclear_circuit::qasm::ParseQasmError>(())
//! ```

use crate::pipeline::QuClearResult;
use quclear_circuit::{Circuit, Gate};
use quclear_pauli::{PauliOp, PauliRotation, PauliString, SignedPauli};

/// Ordered product `i^k · f₀·f₁·…`, asserting that the result is Hermitian
/// (the exponent of `i` ends up even), as any Clifford conjugation image
/// must be.
fn phased_product(mut k: u8, factors: &[&SignedPauli]) -> SignedPauli {
    let mut acc: Option<PauliString> = None;
    for factor in factors {
        if factor.is_negative() {
            k = (k + 2) % 4;
        }
        acc = Some(match acc {
            None => factor.pauli().clone(),
            Some(prev) => {
                let (product, dk) = prev.mul(factor.pauli());
                k = (k + dk) % 4;
                product
            }
        });
    }
    assert!(
        k.is_multiple_of(2),
        "conjugated Pauli image has imaginary phase i^{k}; the frame is corrupt"
    );
    SignedPauli::new(acc.expect("at least one factor"), k == 2)
}

/// The Heisenberg generator frame of the running Clifford `C`: row `q` holds
/// `C†·X_q·C` and row `n+q` holds `C†·Z_q·C`.
///
/// Appending a gate (`C ← g·C`) *pre*-composes the map with conjugation by
/// `g†` — which, unlike the post-composition the tableau kernels implement,
/// rewrites whole rows: the new row for generator `G` is the old frame's
/// image of `g†·G·g`, a signed product of at most two old rows on the
/// gate's qubits.
struct HeisenbergFrame {
    n: usize,
    rows: Vec<SignedPauli>,
}

impl HeisenbergFrame {
    fn identity(n: usize) -> Self {
        let rows = (0..n)
            .map(|q| SignedPauli::positive(PauliString::single(n, q, PauliOp::X)))
            .chain((0..n).map(|q| SignedPauli::positive(PauliString::single(n, q, PauliOp::Z))))
            .collect();
        HeisenbergFrame { n, rows }
    }

    fn x_row(&self, q: usize) -> &SignedPauli {
        &self.rows[q]
    }

    fn z_row(&self, q: usize) -> &SignedPauli {
        &self.rows[self.n + q]
    }

    /// `C†·Y_q·C = i · (C†·X_q·C) · (C†·Z_q·C)`.
    fn y_image(&self, q: usize) -> SignedPauli {
        phased_product(1, &[self.x_row(q), self.z_row(q)])
    }

    /// Advances the frame past one Clifford gate: `C ← g·C`.
    ///
    /// The per-gate rules are the images `g†·G·g` of the touched generators,
    /// expanded over the old rows (e.g. for `CX(c,t)`:
    /// `X_c ↦ X_c X_t`, `Z_t ↦ Z_c Z_t`, the other two fixed).
    fn push_clifford(&mut self, gate: &Gate) {
        let n = self.n;
        match *gate {
            // H: X ↔ Z.
            Gate::H(q) => self.rows.swap(q, n + q),
            // S: S†·X·S = −Y, Z fixed.
            Gate::S(q) => self.rows[q] = phased_product(3, &[&self.rows[q], &self.rows[n + q]]),
            // S†: S·X·S† = Y, Z fixed.
            Gate::Sdg(q) => self.rows[q] = phased_product(1, &[&self.rows[q], &self.rows[n + q]]),
            // X: Z ↦ −Z.
            Gate::X(q) => self.rows[n + q] = -self.rows[n + q].clone(),
            // Y: X ↦ −X, Z ↦ −Z.
            Gate::Y(q) => {
                self.rows[q] = -self.rows[q].clone();
                self.rows[n + q] = -self.rows[n + q].clone();
            }
            // Z: X ↦ −X.
            Gate::Z(q) => self.rows[q] = -self.rows[q].clone(),
            // √X: √X†·Z·√X = Y, X fixed.
            Gate::SqrtX(q) => {
                self.rows[n + q] = phased_product(1, &[&self.rows[q], &self.rows[n + q]]);
            }
            // √X†: √X·Z·√X† = −Y, X fixed.
            Gate::SqrtXdg(q) => {
                self.rows[n + q] = phased_product(3, &[&self.rows[q], &self.rows[n + q]]);
            }
            // CX is self-inverse: X_c ↦ X_c·X_t, Z_t ↦ Z_c·Z_t.
            Gate::Cx { control, target } => {
                self.rows[control] = phased_product(0, &[&self.rows[control], &self.rows[target]]);
                self.rows[n + target] =
                    phased_product(0, &[&self.rows[n + control], &self.rows[n + target]]);
            }
            // CZ is self-inverse: X_a ↦ X_a·Z_b, X_b ↦ Z_a·X_b.
            Gate::Cz { a, b } => {
                let new_a = phased_product(0, &[&self.rows[a], &self.rows[n + b]]);
                let new_b = phased_product(0, &[&self.rows[n + a], &self.rows[b]]);
                self.rows[a] = new_a;
                self.rows[b] = new_b;
            }
            Gate::Swap { a, b } => {
                self.rows.swap(a, b);
                self.rows.swap(n + a, n + b);
            }
            Gate::Rz { .. } | Gate::Rx { .. } | Gate::Ry { .. } => {
                unreachable!("rotation gates are lifted, not folded into the frame")
            }
        }
    }
}

/// A gate-level circuit rewritten as `trailing ∘ rotations`: the rotation
/// sequence applied first (in vector order), followed by one Clifford
/// circuit.
///
/// Produced by [`lift`]. The rotation program is what enters
/// [`compile`](crate::compile) or the engine; the trailing Clifford is never
/// executed — [`LiftedProgram::attach`] appends it to a compilation
/// result's extracted Clifford, which Clifford Absorption folds into
/// measurements.
///
/// # Examples
///
/// ```
/// use quclear_circuit::Circuit;
/// use quclear_core::lift;
///
/// let mut qc = Circuit::new(2);
/// qc.h(0);              // Clifford: folds into the frame
/// qc.rz(0, 0.3);        // lifted through H: axis becomes X
/// qc.cx(0, 1);          // Clifford
/// let lifted = lift(&qc);
/// assert_eq!(lifted.rotations[0].pauli().to_string(), "XI");
/// assert_eq!(lifted.trailing_circuit().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct LiftedProgram {
    /// The lifted rotations in time order: rotation `i` is
    /// `exp(-i·θᵢ/2·(±Pᵢ))` with the conjugated-axis sign already folded
    /// into the angle.
    pub rotations: Vec<PauliRotation>,
    num_qubits: usize,
    axes: Vec<SignedPauli>,
    angles: Vec<f64>,
    trailing_circuit: Circuit,
}

impl LiftedProgram {
    /// Register size of the lifted circuit.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The conjugated rotation axes with their structural signs.
    ///
    /// These are the axes to fingerprint and template-compile: the sign is
    /// part of the structure (it flips the sign of the bound angle), while
    /// [`Self::native_angles`] carries the angle values separately so the
    /// same structure can be re-bound.
    #[must_use]
    pub fn axes(&self) -> &[SignedPauli] {
        &self.axes
    }

    /// The native rotation angles, in lift order, *before* axis-sign
    /// folding — exactly what [`crate::compile`] on a template of
    /// [`Self::axes`] expects to bind.
    #[must_use]
    pub fn native_angles(&self) -> &[f64] {
        &self.angles
    }

    /// The trailing Clifford as a circuit (the input's Clifford gates in
    /// their original order).
    #[must_use]
    pub fn trailing_circuit(&self) -> &Circuit {
        &self.trailing_circuit
    }

    /// Merges the trailing Clifford into a compilation of
    /// [`Self::rotations`] by appending it to the extracted Clifford: the
    /// returned result's `optimized ∘ extracted` is equivalent to the
    /// original circuit, and CA-Pre/CA-Post absorb both Cliffords.
    ///
    /// # Panics
    ///
    /// Panics if `compiled` is a compilation of a different register size
    /// (an empty compilation — the Clifford-only case — is widened).
    #[must_use]
    pub fn attach(&self, compiled: QuClearResult) -> QuClearResult {
        let n = self.num_qubits;
        // `compile(&[])` legitimately produces zero-qubit circuits; widen
        // them so Clifford-only inputs round-trip.
        let (optimized, mut extracted) = if compiled.optimized.num_qubits() == n {
            (compiled.optimized, compiled.extracted)
        } else {
            assert!(
                compiled.optimized.is_empty() && compiled.extracted.is_empty(),
                "attach: compiled result is for {} qubits, lifted program for {n}",
                compiled.optimized.num_qubits()
            );
            (Circuit::new(n), Circuit::new(n))
        };
        extracted.append(&self.trailing_circuit);
        QuClearResult {
            optimized,
            extracted,
        }
    }
}

/// Lifts a gate-level circuit into a Pauli-rotation program followed by one
/// trailing Clifford.
///
/// Clifford gates fold into a running Heisenberg generator frame and are
/// kept as the trailing circuit; every `Rz`/`Rx`/`Ry` becomes a
/// [`PauliRotation`] about the running Clifford's conjugated image of its
/// native axis (see the [module docs](self) for the algebra). The pass is a
/// single `O(gates · n/64)`-word sweep and never fails: the whole workspace
/// gate set is liftable.
///
/// The result satisfies `circuit ≡ rotations then trailing`, exactly (no
/// global-phase slack is introduced by the lift itself).
///
/// # Examples
///
/// ```
/// use quclear_circuit::Circuit;
/// use quclear_core::lift;
///
/// // An Rz/CX ladder is recognized structurally as one ZZZ rotation.
/// let mut qc = Circuit::new(3);
/// qc.cx(0, 1);
/// qc.cx(1, 2);
/// qc.rz(2, 0.4);
/// qc.cx(1, 2);
/// qc.cx(0, 1);
/// let lifted = lift(&qc);
/// assert_eq!(lifted.rotations.len(), 1);
/// assert_eq!(lifted.rotations[0].pauli().to_string(), "ZZZ");
/// assert_eq!(lifted.trailing_circuit().cnot_count(), 4);
/// ```
#[must_use]
pub fn lift(circuit: &Circuit) -> LiftedProgram {
    let n = circuit.num_qubits();
    let mut frame = HeisenbergFrame::identity(n);
    let mut trailing = Circuit::new(n);
    let mut axes: Vec<SignedPauli> = Vec::new();
    let mut angles: Vec<f64> = Vec::new();
    for gate in circuit.gates() {
        match *gate {
            Gate::Rz { qubit, angle } => {
                axes.push(frame.z_row(qubit).clone());
                angles.push(angle);
            }
            Gate::Rx { qubit, angle } => {
                axes.push(frame.x_row(qubit).clone());
                angles.push(angle);
            }
            Gate::Ry { qubit, angle } => {
                axes.push(frame.y_image(qubit));
                angles.push(angle);
            }
            ref clifford => {
                frame.push_clifford(clifford);
                trailing.push(*clifford);
            }
        }
    }
    let rotations = axes
        .iter()
        .zip(&angles)
        .map(|(axis, &angle)| PauliRotation::with_signed_pauli(axis.clone(), angle))
        .collect();
    LiftedProgram {
        rotations,
        num_qubits: n,
        axes,
        angles,
        trailing_circuit: trailing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quclear_tableau::CliffordTableau;

    /// A circuit exercising every Clifford gate kind.
    fn all_clifford_gates(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        c.s(1);
        c.sdg(2);
        c.x(0);
        c.y(1);
        c.z(2);
        c.push(Gate::SqrtX(3));
        c.push(Gate::SqrtXdg(0));
        c.cx(0, 3);
        c.cz(1, 2);
        c.swap(2, 3);
        c.cx(3, 1);
        c.s(3);
        c.h(2);
        c
    }

    #[test]
    fn clifford_only_circuit_lifts_to_empty_program() {
        let c = all_clifford_gates(4);
        let lifted = lift(&c);
        assert!(lifted.rotations.is_empty());
        assert_eq!(lifted.trailing_circuit().gates(), c.gates());
    }

    #[test]
    fn heisenberg_frame_matches_the_tableau_oracle() {
        // The frame's row rules implement pre-composition by hand; the
        // tableau built from the inverse circuit is the trusted oracle.
        let c = all_clifford_gates(4);
        let mut frame = HeisenbergFrame::identity(4);
        for gate in c.gates() {
            frame.push_clifford(gate);
        }
        let oracle = CliffordTableau::heisenberg_from_circuit(&c);
        for q in 0..4 {
            assert_eq!(*frame.x_row(q), oracle.x_image(q), "X_{q} row");
            assert_eq!(*frame.z_row(q), oracle.z_image(q), "Z_{q} row");
        }
    }

    #[test]
    fn every_clifford_gate_conjugates_axes_like_the_tableau() {
        // For each Clifford gate kind g and each native axis A ∈ {X, Y, Z},
        // lifting [g, rotation(A)] must produce the axis H(g)·A where H is
        // the Heisenberg tableau of g alone.
        let gates = [
            Gate::H(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::SqrtX(0),
            Gate::SqrtXdg(0),
            Gate::Cx {
                control: 0,
                target: 1,
            },
            Gate::Cz { a: 0, b: 1 },
            Gate::Swap { a: 0, b: 1 },
        ];
        for gate in gates {
            let mut prefix = Circuit::new(2);
            prefix.push(gate);
            let oracle = CliffordTableau::heisenberg_from_circuit(&prefix);
            for (native, rotation) in [
                (
                    "ZI",
                    Gate::Rz {
                        qubit: 0,
                        angle: 0.5,
                    },
                ),
                (
                    "XI",
                    Gate::Rx {
                        qubit: 0,
                        angle: 0.5,
                    },
                ),
                (
                    "YI",
                    Gate::Ry {
                        qubit: 0,
                        angle: 0.5,
                    },
                ),
                (
                    "IZ",
                    Gate::Rz {
                        qubit: 1,
                        angle: 0.5,
                    },
                ),
                (
                    "IX",
                    Gate::Rx {
                        qubit: 1,
                        angle: 0.5,
                    },
                ),
                (
                    "IY",
                    Gate::Ry {
                        qubit: 1,
                        angle: 0.5,
                    },
                ),
            ] {
                let mut c = prefix.clone();
                c.push(rotation);
                let lifted = lift(&c);
                let expected = oracle.apply(&native.parse().unwrap());
                assert_eq!(
                    lifted.axes()[0],
                    expected,
                    "axis mismatch lifting {native} past {gate}"
                );
            }
        }
    }

    #[test]
    fn rz_cx_ladder_collapses_to_multi_qubit_z_rotation() {
        let mut qc = Circuit::new(4);
        for i in 0..3 {
            qc.cx(i, i + 1);
        }
        qc.rz(3, 0.9);
        for i in (0..3).rev() {
            qc.cx(i, i + 1);
        }
        let lifted = lift(&qc);
        assert_eq!(lifted.rotations.len(), 1);
        assert_eq!(lifted.rotations[0].pauli().to_string(), "ZZZZ");
        assert!((lifted.rotations[0].angle() - 0.9).abs() < 1e-15);
        assert!(CliffordTableau::from_circuit(lifted.trailing_circuit()).is_identity());
    }

    #[test]
    fn basis_changes_rotate_the_axis() {
        // H; Rz lifts to an X rotation; Sdg·H; Rz lifts to a Y rotation.
        let mut qc = Circuit::new(1);
        qc.h(0);
        qc.rz(0, 0.4);
        let lifted = lift(&qc);
        assert_eq!(lifted.axes()[0].to_string(), "+X");

        let mut qc = Circuit::new(1);
        qc.sdg(0);
        qc.h(0);
        qc.rz(0, 0.4);
        let lifted = lift(&qc);
        assert_eq!(lifted.axes()[0].pauli().to_string(), "Y");
    }

    #[test]
    fn negative_axis_signs_fold_into_angles() {
        // X·Rz(θ)·X = Rz(−θ): conjugating Z by X negates the axis.
        let mut qc = Circuit::new(1);
        qc.x(0);
        qc.rz(0, 0.6);
        let lifted = lift(&qc);
        assert!(lifted.axes()[0].is_negative());
        assert_eq!(lifted.native_angles(), &[0.6]);
        assert!((lifted.rotations[0].angle() + 0.6).abs() < 1e-15);

        let rebound = PauliRotation::with_signed_pauli(lifted.axes()[0].clone(), 1.5);
        assert!((rebound.angle() + 1.5).abs() < 1e-15);
    }

    #[test]
    fn rotation_interleaving_uses_the_running_frame() {
        // The second rotation sees only the Cliffords before it.
        let mut qc = Circuit::new(2);
        qc.rz(0, 0.1); // Z on a fresh frame
        qc.h(0);
        qc.rz(0, 0.2); // lifted through H: X
        qc.cx(0, 1);
        qc.rz(1, 0.3); // lifted through CX then H: Z₁ ↦ Z₀Z₁ ↦ X₀Z₁
        let lifted = lift(&qc);
        let axes: Vec<String> = lifted.axes().iter().map(ToString::to_string).collect();
        assert_eq!(axes, vec!["+ZI", "+XI", "+XZ"]);
        assert_eq!(lifted.trailing_circuit().len(), 2);
    }

    #[test]
    fn attach_composes_the_trailing_clifford() {
        let mut qc = Circuit::new(2);
        qc.cx(0, 1);
        qc.rz(1, 0.8);
        qc.h(0);
        let lifted = lift(&qc);
        let compiled = crate::compile(&lifted.rotations, &crate::QuClearConfig::default());
        let result = lifted.attach(compiled.clone());
        // The extracted Clifford runs first, then the lift's trailing one.
        let mut expected = compiled.extracted;
        expected.append(lifted.trailing_circuit());
        assert_eq!(result.extracted.gates(), expected.gates());
        assert_eq!(result.optimized.gates(), compiled.optimized.gates());
    }

    #[test]
    fn clifford_only_attach_widens_the_empty_compilation() {
        let c = all_clifford_gates(4);
        let lifted = lift(&c);
        let result = lifted.attach(crate::compile(
            &lifted.rotations,
            &crate::QuClearConfig::default(),
        ));
        assert!(result.optimized.is_empty());
        assert_eq!(result.optimized.num_qubits(), 4);
        assert_eq!(result.extracted.gates(), c.gates());
    }

    #[test]
    fn empty_circuit_lifts_to_empty_everything() {
        let lifted = lift(&Circuit::new(3));
        assert!(lifted.rotations.is_empty());
        assert!(lifted.trailing_circuit().is_empty());
    }
}
