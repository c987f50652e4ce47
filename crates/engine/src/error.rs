//! Error types of the compilation engine.
//!
//! Every per-request failure mode is a variant of [`EngineError`] so that
//! [`crate::Engine::sweep`] can isolate failures: one bad angle set yields
//! one `Err` slot in the output vector and never poisons its neighbours.

use std::error::Error;
use std::fmt;

use quclear_circuit::qasm::ParseQasmError;

/// Errors produced by the compilation engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The QASM source of a [`crate::Engine::compile_qasm`] /
    /// [`crate::Engine::bind_qasm`] call failed to parse.
    QasmParse(ParseQasmError),
    /// The rotations of one program act on different register sizes.
    InconsistentQubitCounts {
        /// Register size of the first rotation.
        expected: usize,
        /// Register size of the offending rotation.
        found: usize,
        /// Index of the offending rotation within the program.
        index: usize,
    },
    /// `bind` was called with the wrong number of angles.
    AngleCountMismatch {
        /// Number of parameters of the template (one per input rotation).
        expected: usize,
        /// Number of angles supplied.
        found: usize,
    },
    /// An angle was NaN or infinite.
    NonFiniteAngle {
        /// Index of the offending angle.
        index: usize,
    },
    /// The underlying compiler panicked; the panic was contained to this job.
    CompilationPanicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The program's register is wider than [`crate::MAX_QUBITS`]. Refused
    /// before any work whose cost grows with the width (fingerprinting,
    /// lifting, extraction). Not transient.
    TooManyQubits {
        /// Width of the refused register.
        qubits: usize,
        /// The engine's bound, [`crate::MAX_QUBITS`].
        limit: usize,
    },
    /// The request cannot be served by sampled observable estimation
    /// ([`crate::Engine::estimate_observables`]): the register exceeds the
    /// dense simulator's qubit budget, or the shot count is zero or above
    /// [`crate::MAX_ESTIMATE_SHOTS`]. Not transient — the same request
    /// fails the same way every time.
    NotEstimable {
        /// Human-readable reason the estimate cannot be produced.
        reason: String,
    },
    /// The request's [`crate::Deadline`] expired before the pipeline
    /// finished, at any stage: compilation, binding or simulation. The work
    /// already done is not wasted — a compilation that completes after its
    /// requester detached still populates the template cache — but this
    /// request's caller asked not to wait any longer.
    /// Transient by construction: retrying once the cache is warm (or the
    /// system less loaded) typically succeeds.
    DeadlineExceeded,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::QasmParse(inner) => write!(f, "{inner}"),
            EngineError::InconsistentQubitCounts {
                expected,
                found,
                index,
            } => write!(
                f,
                "rotation {index} acts on {found} qubits but the program started with {expected}"
            ),
            EngineError::AngleCountMismatch { expected, found } => write!(
                f,
                "template has {expected} parameters but {found} angles were supplied"
            ),
            EngineError::NonFiniteAngle { index } => {
                write!(f, "angle {index} is not finite")
            }
            EngineError::CompilationPanicked { message } => {
                write!(f, "compilation panicked: {message}")
            }
            EngineError::TooManyQubits { qubits, limit } => write!(
                f,
                "register of {qubits} qubits exceeds the engine's limit of {limit}"
            ),
            EngineError::NotEstimable { reason } => {
                write!(f, "sampled estimation is not available: {reason}")
            }
            EngineError::DeadlineExceeded => {
                write!(f, "request deadline exceeded")
            }
        }
    }
}

impl Error for EngineError {}

impl From<ParseQasmError> for EngineError {
    fn from(inner: ParseQasmError) -> Self {
        EngineError::QasmParse(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_numbers() {
        let e = EngineError::AngleCountMismatch {
            expected: 4,
            found: 2,
        };
        let text = e.to_string();
        assert!(text.contains('4') && text.contains('2'));

        let e = EngineError::InconsistentQubitCounts {
            expected: 3,
            found: 5,
            index: 7,
        };
        let text = e.to_string();
        assert!(text.contains('3') && text.contains('5') && text.contains('7'));
    }
}
