//! Dense state-vector simulator for the QuCLEAR reproduction.
//!
//! The simulator is the correctness oracle of the workspace: every
//! optimization (Clifford Extraction, Clifford Absorption, the peephole
//! optimizer, the baselines) is validated by checking that the optimized
//! circuit — together with any classical post-processing — reproduces the
//! original circuit's expectation values and probability distributions on
//! small instances.
//!
//! # Examples
//!
//! ```
//! use quclear_circuit::Circuit;
//! use quclear_sim::StateVector;
//!
//! let mut qc = Circuit::new(2);
//! qc.h(0);
//! qc.cx(0, 1);
//! let state = StateVector::from_circuit(&qc);
//! let probs = state.probabilities();
//! assert!((probs[0] - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod runs;
mod state;

pub use runs::RotationRun;
pub use state::StateVector;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_vector_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StateVector>();
    }
}
