//! QuCLEAR core: Clifford Extraction and Clifford Absorption.
//!
//! This crate implements the primary contribution of *"QuCLEAR: Clifford
//! Extraction and Absorption for Quantum Circuit Optimization"* (HPCA 2025):
//!
//! * [`CommutingBlocks`] — partitioning a Pauli-rotation program into blocks
//!   of mutually commuting rotations (Section V-C),
//! * [`TreeSynthesizer`] — recursive CNOT-tree synthesis optimizing the
//!   following Pauli strings (Algorithm 1, Section V-A/B),
//! * [`extract_clifford`] — the Clifford Extraction pass (Algorithm 2), which
//!   moves roughly half of every rotation block to a terminal Clifford
//!   subcircuit while simplifying later blocks,
//! * [`AbsorptionPlan`] / [`ProbabilityAbsorber`] — Clifford Absorption
//!   (Section VI): the terminal Clifford is folded into measurement
//!   observables in one word-parallel frame sweep, or reduced to a
//!   measurement-basis layer plus a classical affine bitstring map for
//!   probability measurements (Proposition 1),
//! * [`compile`] — the end-to-end pipeline with the ablation switches used by
//!   Figures 9 and 10,
//! * [`lift`](lift()) — the ingestion front door: a
//!   gate-level (e.g. QASM-parsed) circuit is rewritten as a Pauli-rotation
//!   program plus one trailing Clifford ([`LiftedProgram`]), so external
//!   circuits enter the pipeline exactly like native programs.
//!
//! # Examples
//!
//! ```
//! use quclear_core::{compile, QuClearConfig};
//! use quclear_pauli::{PauliRotation, SignedPauli};
//!
//! // Figure 2 of the paper: e^{iZZZZ t1} e^{iYYXX t2}, observable XXZZ.
//! let program = vec![
//!     PauliRotation::parse("ZZZZ", 0.3)?,
//!     PauliRotation::parse("YYXX", 0.7)?,
//! ];
//! let result = compile(&program, &QuClearConfig::default());
//! assert!(result.cnot_count() <= 4); // 12 CNOTs natively
//!
//! let observable: SignedPauli = "XXZZ".parse()?;
//! let absorbed = result.absorb_observables(&[observable]);
//! assert_eq!(absorbed.len(), 1);
//! # Ok::<(), quclear_pauli::ParsePauliError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod absorb;
mod blocks;
mod extract;
mod gf2;
mod grouping;
pub mod lift;
mod pipeline;
mod shots;
#[cfg(test)]
mod testing;
mod tree;

pub use absorb::{
    expectation_from_probabilities, AbsorbedObservables, AbsorptionError, AbsorptionPlan,
    ProbabilityAbsorber,
};
pub use blocks::CommutingBlocks;
pub use extract::{basis_change_circuit, extract_clifford, ExtractionConfig, ExtractionResult};
pub use gf2::Gf2Matrix;
pub use grouping::{
    diagonalize_commuting_frame, group_commuting, group_commuting_frame, group_qubitwise_commuting,
    qubit_wise_commute, GroupDiagonalizer, MeasurementGroup, MeasurementPlan, PlannedGroup,
};
pub use lift::{lift, LiftedProgram};
pub use pipeline::{compile, QuClearConfig, QuClearResult};
pub use shots::ShotBatch;
pub use tree::{LookaheadOps, TreeSynthesizer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExtractionConfig>();
        assert_send_sync::<ExtractionResult>();
        assert_send_sync::<QuClearConfig>();
        assert_send_sync::<QuClearResult>();
        assert_send_sync::<ProbabilityAbsorber>();
        assert_send_sync::<Gf2Matrix>();
        assert_send_sync::<AbsorptionPlan>();
        assert_send_sync::<AbsorbedObservables>();
        assert_send_sync::<ShotBatch>();
        assert_send_sync::<LiftedProgram>();
    }
}
