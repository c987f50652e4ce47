//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon) crate,
//! with no API.
//!
//! Every library kernel in this workspace runs on its calling thread; the
//! server's worker pool is the one unit of concurrency. No crate calls into
//! rayon any more, but `quclear-core`, `quclear-engine` and
//! `quclear-tableau` still declare the dependency (and lock files pin it),
//! so the crate stays as an empty placeholder until those edges are
//! dropped.

#![warn(missing_docs)]
