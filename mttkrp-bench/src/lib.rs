//! # mttkrp-bench — the repository's end-to-end benchmark
//!
//! Five named workloads, each from generated `.tns` bytes on disk to the
//! final CPD fit, with end-to-end metrics from untraced repetitions and a
//! per-layer breakdown from traced ones. See `README.md` in this
//! package for the workloads, the metrics and the comparison protocol.

pub mod suite;
