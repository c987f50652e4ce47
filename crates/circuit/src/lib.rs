//! Quantum circuit intermediate representation for the QuCLEAR reproduction.
//!
//! The crate provides:
//!
//! * [`Gate`] and [`Circuit`] — the gate set and circuit container with the
//!   metrics the paper's evaluation reports (CNOT count, entangling depth,
//!   total depth, single-qubit gate count),
//! * [`optimize`] — a one-pass peephole optimizer playing the role of "Qiskit
//!   optimization level 3" in the paper's pipeline,
//! * [`CouplingMap`] and [`route`] — device topologies (Sycamore-like grid,
//!   heavy-hex) and a greedy SWAP router for the Figure 11 mapping
//!   experiments,
//! * [`C64`] / [`Mat2`] — the minimal complex arithmetic shared with the
//!   state-vector simulator,
//! * [`MonomialMap`] — a permutation-and-phase Clifford layer as one
//!   gather over a dense state.
//!
//! # Examples
//!
//! ```
//! use quclear_circuit::{optimize, Circuit};
//!
//! let mut qc = Circuit::new(3);
//! qc.h(0);
//! qc.cx(0, 1);
//! qc.cx(0, 1);   // cancels with the previous gate
//! qc.cx(1, 2);
//! let optimized = optimize(&qc);
//! assert_eq!(optimized.cnot_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod circuit;
mod coupling;
pub mod float;
mod gate;
pub mod math;
mod monomial;
mod optimize;
pub mod qasm;
mod routing;

pub use circuit::Circuit;
pub use coupling::CouplingMap;
pub use gate::{Gate, QubitList};
pub use math::{Mat2, C64};
pub use monomial::MonomialMap;
pub use optimize::{is_zero_rotation, optimize};
pub use routing::{initial_layout_by_interaction, route, route_with_layout, RoutingResult};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gate>();
        assert_send_sync::<Circuit>();
        assert_send_sync::<CouplingMap>();
        assert_send_sync::<RoutingResult>();
    }
}
