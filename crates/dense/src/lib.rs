//! # dense — small dense linear algebra for CPD-ALS
//!
//! The CPD-ALS algorithm (Algorithm 1 of the paper) needs a handful of dense
//! operations besides MTTKRP: Gram matrices `AᵀA`, Hadamard products of
//! `R × R` matrices, a Moore–Penrose pseudo-inverse of an `R × R` symmetric
//! positive-semidefinite matrix, column normalization, and — for
//! verification only — the explicit Khatri–Rao product. The paper calls
//! these "highly optimized in BLAS libraries"; here they are implemented
//! from scratch (no BLAS dependency) since `R` is small (32 in all paper
//! experiments).
//!
//! Values are `f32` (matching the paper) with `f64` accumulation inside
//! reductions for stability.

// Kernels index several parallel arrays with one counter; the zipped-
// iterator forms Clippy suggests obscure that symmetry.
#![allow(clippy::needless_range_loop)]

pub mod chain;
pub mod kr;
pub mod matrix;
pub mod solve;
pub mod update;

pub use chain::HadamardChain;
pub use kr::khatri_rao;
pub use matrix::Matrix;
pub use solve::{cholesky_solve, pseudo_inverse, spd_condition, symmetric_eigen};
pub use update::UpdateBuffers;
