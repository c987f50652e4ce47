//! Clifford tableau algebra for the QuCLEAR reproduction.
//!
//! Clifford circuits stabilize the Pauli group: conjugating a Pauli string by
//! a Clifford unitary yields another (signed) Pauli string, and the whole
//! unitary can be represented in `4n² + O(n)` bits by tracking the images of
//! the generators — the stabilizer-tableau formalism of Aaronson and
//! Gottesman. QuCLEAR relies on this for both of its optimization steps:
//! Clifford Extraction updates every later Pauli rotation through the
//! extracted Clifford, and Clifford Absorption rewrites measurement
//! observables through it.
//!
//! This crate provides:
//!
//! * [`conjugate_all_by_gate`] — the per-gate conjugation rules, applied
//!   to every row of a [`quclear_pauli::PauliFrame`] by its word-parallel
//!   bit-plane kernels (the one implementation of the rules; a scalar rule
//!   table survives only as a test oracle),
//! * [`CliffordTableau`] — the conjugation map, built gate by gate and
//!   applied to Pauli strings,
//! * [`synthesize_clifford`] — Aaronson–Gottesman-style synthesis back to a
//!   gate-level circuit,
//! * [`random_clifford_circuit`] — random Cliffords for tests and benches.
//!
//! # Examples
//!
//! ```
//! use quclear_circuit::Circuit;
//! use quclear_tableau::CliffordTableau;
//!
//! // The paper's weak-commutation relation: e^{iP1 t}·U = U·e^{iP2 t} with
//! // P2 = U† P1 U. Here U = CNOT(0→1) and P1 = ZZ gives P2 = IZ.
//! let mut u = Circuit::new(2);
//! u.cx(0, 1);
//! let heisenberg = CliffordTableau::heisenberg_from_circuit(&u);
//! assert_eq!(heisenberg.apply(&"ZZ".parse()?).to_string(), "+IZ");
//! # Ok::<(), quclear_pauli::ParsePauliError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod random;
mod rules;
mod synth;
mod tableau;

pub use random::random_clifford_circuit;
pub use rules::conjugate_all_by_gate;
pub use synth::synthesize_clifford;
pub use tableau::CliffordTableau;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CliffordTableau>();
    }
}
