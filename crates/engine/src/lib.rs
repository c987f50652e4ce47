//! `quclear-engine`: a high-throughput compilation engine on top of
//! [`quclear_core`].
//!
//! QuCLEAR's Clifford Extraction is *angle-independent*: the extracted
//! Clifford and the optimized circuit's structure are functions of the Pauli
//! axes alone. Variational workloads (VQE, QAOA) recompile the same
//! structure thousands of times per parameter sweep — so this crate compiles
//! each structure **once** and rebinds angles in `O(gates)`:
//!
//! * [`ProgramFingerprint`] — a fast 128-bit structural hash of a rotation
//!   program plus its [`quclear_core::QuClearConfig`], ignoring angles;
//! * [`CompiledTemplate`] — one extraction, many [`CompiledTemplate::bind`]
//!   calls, each gate-for-gate equivalent to a from-scratch compile;
//! * [`Engine`] — a thread-safe LRU template cache with hit/miss/eviction
//!   counters ([`EngineStats`]);
//! * [`Engine::sweep`] — one template lookup, then every angle set bound in
//!   input order on the calling thread, with per-set error isolation;
//! * [`Engine::compile_qasm`] / [`Engine::bind_qasm`] — QASM ingestion:
//!   OpenQASM 2.0 text is parsed, lifted into a rotation program
//!   ([`quclear_core::lift()`]) and served through the same template cache,
//!   with the lifted circuit's trailing Clifford composed into the result.
//!
//! # Examples
//!
//! A VQE-style parameter sweep:
//!
//! ```
//! use quclear_engine::Engine;
//! use quclear_pauli::PauliRotation;
//!
//! let engine = Engine::new(64);
//! let ansatz = vec![
//!     PauliRotation::parse("XXYI", 0.0)?,
//!     PauliRotation::parse("ZZII", 0.0)?,
//!     PauliRotation::parse("IYYX", 0.0)?,
//! ];
//! let angle_sets: Vec<Vec<f64>> = (0..100)
//!     .map(|step| vec![0.01 * step as f64, 0.4, -0.02 * step as f64])
//!     .collect();
//! let results = engine.sweep(&ansatz, &angle_sets)?;
//! assert_eq!(results.len(), 100);
//! assert_eq!(engine.stats().misses, 1); // one extraction served the sweep
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod deadline;
mod engine;
mod error;
mod fingerprint;
pub mod singleflight;
mod sync;
mod template;

pub use cache::LruCache;
pub use deadline::Deadline;
pub use engine::{
    group_shot_seed, Engine, EngineStats, EstimateResult, DEFAULT_CACHE_CAPACITY,
    ENGINE_SINGLEFLIGHT_METRIC, ENGINE_STAGE_METRIC, MAX_ESTIMABLE_QUBITS, MAX_ESTIMATE_SHOTS,
    MAX_QUBITS,
};
pub use error::EngineError;
pub use fingerprint::{FingerprintBuilder, ProgramFingerprint};
pub use singleflight::SingleFlight;
pub use template::CompiledTemplate;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<EngineStats>();
        assert_send_sync::<CompiledTemplate>();
        assert_send_sync::<ProgramFingerprint>();
        assert_send_sync::<EngineError>();
        assert_send_sync::<Deadline>();
    }
}
