//! # mttkrp — sparse MTTKRP kernels and CPD-ALS
//!
//! The paper's core computation on every storage format, for CPUs (real
//! rayon parallelism, wall-clock measured) and for the simulated GPU
//! (instruction streams executed by [`gpu_sim`]):
//!
//! * [`reference`](mod@reference) — sequential COO MTTKRP (paper
//!   Algorithm 2); the ground truth every other kernel is
//!   differential-tested against.
//! * [`cpu`] — the CPU baselines: a SPLATT-equivalent CSF kernel
//!   (Algorithm 3; ALLMODE, optional tiling), a HiCOO kernel with
//!   block-level privatization, and a COO kernel with atomic updates.
//! * [`gpu`] — the GPU kernels: ParTI-style COO + atomics, F-COO with
//!   warp-segmented scan, naive GPU-CSF (the Table II subject), B-CSF,
//!   CSL, and the composite HB-CSF kernel (Algorithm 5).
//! * [`cpd`] — the CPD-ALS driver (Algorithm 1) over any MTTKRP backend,
//!   a non-negative variant, and factor-match scoring.
//! * [`preprocess`] — format-construction timing (Figs. 9–10).
//!
//! All mode-`n` kernels share one contract: given factor matrices
//! `factors[m]` (`dims[m] × R` each) they produce
//! `Y = X₍ₙ₎ ⨀_{m≠n} factors[m]` of shape `dims[n] × R`, matching
//! [`reference::mttkrp`] up to `f32` summation order.

// A renamed or deleted item must not leave a dangling doc link behind.
#![deny(rustdoc::broken_intra_doc_links)]
// Kernels index several parallel arrays with one counter; the zipped-
// iterator forms Clippy suggests obscure that symmetry.
#![allow(clippy::needless_range_loop)]

pub mod abft;
pub mod checkpoint;
pub mod cpd;
pub mod cpu;
pub mod gpu;
pub mod preprocess;
pub mod reference;

pub use abft::{run_verified, AbftOptions, KernelReport};
pub use checkpoint::{CheckpointError, CheckpointState, CheckpointStore, Scan, WriteOutcome};
pub use cpd::{
    cpd_als, cpd_als_nonneg, cpd_als_profiled, cpd_als_resilient, cpd_als_resilient_durable,
    cpd_als_sharded, cpd_als_with_rule, factor_match_score, CpdOptions, CpdResult, DurableOptions,
    NegativeValue, ResilienceOptions, ResilienceStats, UpdateRule,
};
pub use reference::mttkrp as mttkrp_reference;

/// Default rank used throughout the paper's evaluation ("R is 32 for all
/// the experiments").
pub const PAPER_RANK: usize = 32;

/// Tolerance check used by differential tests: relative Frobenius error
/// between a kernel's output and the reference, which must absorb `f32`
/// summation-order differences but nothing else.
pub fn outputs_match(a: &dense::Matrix, b: &dense::Matrix) -> bool {
    a.rel_fro_diff(b) < 1e-4
}
