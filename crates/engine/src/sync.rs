//! Crate-local alias for the sync primitives the engine's concurrent
//! machinery uses.
//!
//! In production builds (the default) every name here is exactly its
//! `std::sync` / `std::time` counterpart — this module compiles away to
//! re-exports. With the `sched-model` feature the same names come from
//! `quclear-sched`, whose drop-in types route every acquire/release,
//! atomic access, condvar park/notify, and `Instant::now` through a
//! deterministic scheduler, so the model-check suite
//! (`tests/sched_models.rs`) can explore the interleavings of
//! `SingleFlight` and `LruCache` exhaustively and replay any
//! violation. Concurrency-critical modules must import sync primitives
//! from here, never from `std::sync` directly, or the checker cannot see
//! them (enforced by `cargo run -p xtask -- lint`).

#[cfg(feature = "sched-model")]
pub(crate) use quclear_sched::sync::{
    atomic, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
#[cfg(feature = "sched-model")]
pub(crate) use quclear_sched::time::Instant;

#[cfg(not(feature = "sched-model"))]
pub(crate) use std::sync::{
    atomic, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
#[cfg(not(feature = "sched-model"))]
pub(crate) use std::time::Instant;
