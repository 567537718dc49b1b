//! # stellar-perfbench — the simulator's end-to-end and per-layer benchmark
//!
//! Three workloads ([`workloads::Workload`]) built from the public API of
//! `stellar-net`, `stellar-transport` and `stellar-workloads`, each run
//! in its own single-threaded process. Untraced runs give the
//! end-to-end metrics, scaled to a nominal host speed by a reference
//! loop timed around each run ([`host`]); traced runs ([`probe`]) wrap
//! the fabric and the app to split the wall time by layer from the
//! outside. See
//! `README.md` for the workload rationale and the metric contract.

#![warn(missing_docs)]

pub mod host;
pub mod probe;
pub mod report;
pub mod workloads;
