//! Always-on observability for the QuCLEAR engine and serving stack.
//!
//! The ROADMAP's next steps — readiness-based serving against p99 targets,
//! resynthesis win/loss accounting — all need numbers, so this crate is the
//! measurement substrate the rest of the workspace records into. It follows
//! the repository's offline discipline: no `tracing`, no `prometheus` crate,
//! no global subscriber machinery — just atomics, one `RwLock` on the cold
//! registration path, and two exposition formats.
//!
//! The pieces:
//!
//! - [`Counter`] / [`Gauge`]: single-atomic scalars. [`Gauge::track`] gives
//!   a panic-safe RAII guard for "currently in flight" quantities.
//! - [`Histogram`]: 64 fixed power-of-two buckets, a three-relaxed-RMW
//!   record path (cheap enough to stay on in release builds — the
//!   `telemetry` bench in `quclear-bench` gates it under 100ns/op), and
//!   coherent snapshots with p50/p99/max estimation.
//! - [`MetricsRegistry`]: names → shared metric handles. Registration is
//!   idempotent and returns the *same* cell, so bookkeeping reads (the
//!   engine's `stats()`) and metric exposition cannot drift apart.
//! - [`MetricsSnapshot`]: plain-data snapshots that render as Prometheus
//!   text ([`MetricsSnapshot::to_prometheus_text`]) or cross the
//!   `quclear-serve` wire as JSON ([`MetricsSnapshot::to_json`] /
//!   [`MetricsSnapshot::from_json`]).
//!
//! There is no span or tracing layer: callers hold prebuilt histogram
//! handles and record into them directly ([`Histogram::record_duration`]),
//! which is how the engine times its pipeline stages and the server its
//! request kinds.
//!
//! # Example
//!
//! ```
//! use quclear_telemetry::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let hist = registry.histogram_labeled(
//!     "quclear_engine_stage_duration_ns",
//!     "engine pipeline stage latency",
//!     ("stage", "extract"),
//! );
//! for elapsed_ns in [1_200, 950, 40_000] {
//!     hist.record(elapsed_ns);
//! }
//! let snapshot = registry.snapshot();
//! let stage = snapshot
//!     .histogram("quclear_engine_stage_duration_ns", Some(("stage", "extract")))
//!     .unwrap();
//! assert_eq!(stage.count(), 3);
//! println!("{}", snapshot.to_prometheus_text());
//! ```

#![warn(missing_docs)]

mod histogram;
mod metric;
mod registry;
mod snapshot;
mod sync;

pub use histogram::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS,
};
pub use metric::{Counter, Gauge, GaugeGuard};
pub use registry::MetricsRegistry;
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
