//! Facade crate for the QuCLEAR reproduction.
//!
//! Re-exports the public API of every workspace crate so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! ```
//! use quclear::prelude::*;
//!
//! let rotations = vec![PauliRotation::parse("ZZII", 0.3).unwrap()];
//! assert_eq!(rotations[0].weight(), 2);
//! ```

#![warn(missing_docs)]

pub use quclear_baselines as baselines;
pub use quclear_circuit as circuit;
pub use quclear_core as core;
pub use quclear_engine as engine;
pub use quclear_pauli as pauli;
pub use quclear_serve as serve;
pub use quclear_sim as sim;
pub use quclear_tableau as tableau;
pub use quclear_telemetry as telemetry;
pub use quclear_workloads as workloads;

/// Commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use quclear_circuit::qasm::{from_qasm, to_qasm};
    pub use quclear_circuit::{optimize, Circuit, CouplingMap, Gate};
    pub use quclear_core::{lift, AbsorbedObservables, AbsorptionPlan, LiftedProgram, ShotBatch};
    pub use quclear_engine::{CompiledTemplate, Deadline, Engine, ProgramFingerprint};
    pub use quclear_pauli::{PauliOp, PauliRotation, PauliString, SignedPauli};
    pub use quclear_serve::{Client, ClientError, RetryPolicy, Server, ServerConfig};
    pub use quclear_telemetry::{MetricsRegistry, MetricsSnapshot};
}
