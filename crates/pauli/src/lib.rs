//! Pauli-string algebra for the QuCLEAR reproduction.
//!
//! This crate provides the foundational data types used by every other crate
//! in the workspace:
//!
//! * [`BitVec`] — a small word-packed bit vector,
//! * [`PauliOp`] — a single-qubit Pauli operator,
//! * [`PauliString`] — a phase-free multi-qubit Pauli string in symplectic
//!   representation,
//! * [`SignedPauli`] — a Pauli string with a ±1 sign (the result type of
//!   Clifford conjugation),
//! * [`PauliRotation`] — the exponentiated Pauli block `exp(-i·θ/2·P)` that
//!   quantum-simulation circuits are made of.
//!
//! # Examples
//!
//! ```
//! use quclear_pauli::{PauliRotation, PauliString};
//!
//! // The motivating example of the QuCLEAR paper: e^{iZZZZ t1} e^{iYYXX t2}.
//! let p1: PauliString = "ZZZZ".parse()?;
//! let p2: PauliString = "YYXX".parse()?;
//! assert!(p1.commutes_with(&p2));
//!
//! let block = PauliRotation::new(p1, 0.3);
//! assert_eq!(block.native_cnot_cost(), 6);
//! # Ok::<(), quclear_pauli::ParsePauliError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bits;
mod frame;
mod op;
mod rotation;
mod signed;
mod string;

pub use bits::{transpose64, transpose64_pack32, transpose64_top, BitVec};
pub use frame::PauliFrame;
pub use op::PauliOp;
pub use rotation::PauliRotation;
pub use signed::SignedPauli;
pub use string::PauliString;

/// Lane width of the workspace's bit-plane kernels, in 64-bit words.
///
/// The `simd` shim's `LANE_WORDS` constant, surfaced here so deployments
/// can report which kernel width they are running.
#[must_use]
pub fn kernel_lane_words() -> usize {
    simd::LANE_WORDS
}

use std::error::Error;
use std::fmt;

/// Error produced when parsing Pauli strings from text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsePauliError {
    /// The input contained a character other than `I`, `X`, `Y`, `Z`
    /// (or a leading sign for [`SignedPauli`]).
    InvalidCharacter(char),
    /// The input contained no Pauli characters.
    Empty,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePauliError::InvalidCharacter(c) => {
                write!(f, "invalid Pauli character `{c}`; expected I, X, Y or Z")
            }
            ParsePauliError::Empty => write!(f, "empty Pauli string"),
        }
    }
}

impl Error for ParsePauliError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ParsePauliError::InvalidCharacter('q');
        assert!(e.to_string().contains('q'));
        assert!(ParsePauliError::Empty.to_string().contains("empty"));
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BitVec>();
        assert_send_sync::<PauliFrame>();
        assert_send_sync::<PauliOp>();
        assert_send_sync::<PauliString>();
        assert_send_sync::<SignedPauli>();
        assert_send_sync::<PauliRotation>();
    }
}
