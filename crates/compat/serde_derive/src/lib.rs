//! Offline stand-in for the
//! [`serde_derive`](https://crates.io/crates/serde_derive) crate, with no
//! API.
//!
//! No crate derives anything any more: every JSON producer builds a
//! `serde::Json` tree directly. `serde` still declares the dependency (and
//! lock files pin it), so the crate stays as an empty placeholder until
//! that edge is dropped.
