//! `quclear-serve`: a long-running compilation service over
//! [`quclear_engine::Engine`].
//!
//! QuCLEAR's value proposition is *compile once, serve many*: Clifford
//! Extraction is angle-independent, so the expensive part of compiling a
//! variational circuit can be cached and every later query with new angles
//! is a cheap bind. This crate turns that per-process cache into **shared
//! serving infrastructure**: a TCP server (plain `std::net`, no external
//! dependencies) in front of one engine, so many clients — a VQE sweep
//! here, a QAOA grid there — warm and reuse the *same* template cache.
//!
//! * [`Server`] — accept loop + fixed worker thread pool, graceful
//!   shutdown, per-request panic containment (a panicking compilation
//!   answers *that* request with an error and keeps serving);
//! * [`Client`] — a small blocking client for the same wire format;
//! * [`protocol`] — the length-prefixed JSON frame format (built on the
//!   in-tree `serde`/`serde_json` stand-ins), covering `compile`, `sweep`,
//!   `compile_qasm`, `bind_qasm`, `absorb`, `stats`, `metrics`, `health`
//!   and `shutdown`;
//! * **request coalescing** — concurrent compiles of the same structure are
//!   single-flighted by the engine ([`quclear_engine::singleflight`]): one
//!   extraction runs, every concurrent identical request waits for it and
//!   shares the result ([`quclear_engine::EngineStats::coalesced_waits`]
//!   counts how often that saved a redundant compile);
//! * **observability** — every request kind is timed into a lock-free
//!   latency histogram, frame sizes, queue depth, connection states,
//!   idle reclamations and contained panics are instrumented, and the
//!   `metrics` request returns one coherent
//!   [`quclear_telemetry::MetricsSnapshot`] covering the serve layer *and*
//!   the engine's pipeline stages (renderable as Prometheus text);
//! * **overload protection** — admission is bounded
//!   ([`ServerConfig::max_queued_connections`]): connections beyond the
//!   queue cap are *shed* with a retryable `overloaded` error instead of
//!   queueing without bound, and every admitted request runs under a
//!   cooperative deadline ([`ServerConfig::request_deadline`]) answered as
//!   `deadline_exceeded` when the budget runs out — both counted
//!   (`quclear_serve_shed_total`, `quclear_serve_deadline_exceeded_total`);
//! * **client resilience** — [`RetryPolicy`] gives the blocking [`Client`]
//!   seeded exponential backoff with jitter, automatic reconnection, and
//!   retries restricted to idempotent requests
//!   ([`RequestKind::is_idempotent`]) failing transiently.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use quclear_engine::Engine;
//! use quclear_serve::{Client, Server, ServerConfig};
//!
//! let engine = Arc::new(Engine::new(256));
//! let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default())?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let compiled = client.compile(&["ZZZZ", "YYXX"], &[0.3, 0.7])?;
//! assert!(compiled.cnot_count <= 4);
//! assert_eq!(client.stats()?.misses, 1);
//!
//! server.stop(); // graceful: drains workers, joins every thread
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
#[cfg(any(test, feature = "faults"))]
pub mod faults;
pub mod protocol;
mod server;
mod sync;

pub use client::{Client, ClientError, RetryPolicy};
#[cfg(any(test, feature = "faults"))]
pub use faults::FaultPlan;
pub use protocol::{
    CompiledSummary, Request, RequestKind, Response, ResponseBody, StatsSummary, WireError,
};
pub use server::{
    Server, ServerConfig, SERVE_ERROR_METRIC, SERVE_FRAME_METRIC, SERVE_REQUEST_METRIC,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Server>();
        assert_send::<Client>();
        assert_send::<ClientError>();
        assert_send::<RequestKind>();
        assert_send::<ResponseBody>();
    }
}
