//! CPU MTTKRP kernels (rayon-parallel, wall-clock measurable).
//!
//! These are the paper's CPU comparison targets, re-implemented with the
//! same algorithms and parallelization strategies:
//!
//! * [`splatt`] — CSF MTTKRP (Algorithm 3) parallelized one-slice-per-task
//!   with no atomics, ALLMODE representation, optional leaf-mode tiling:
//!   the SPLATT v1.1.0 equivalent (Figs. 7, 11, 12).
//! * [`hicoo`] — block-compressed COO with output-block grouping instead of
//!   atomics (Fig. 13).
//! * [`coo`] — nonzero-parallel COO with atomic output updates (the
//!   ParTI-OpenMP strategy; also the simplest parallel baseline).
//! * [`onemode`] — SPLATT's ONEMODE configuration: a single CSF tree
//!   serving every mode's MTTKRP via internal-node tree algorithms, the
//!   memory-frugal setting whose non-root-mode slowdown the paper cites
//!   as the reason to benchmark ALLMODE.

pub mod coo;
pub mod hicoo;
pub mod onemode;
pub mod splatt;

pub(crate) mod row_writer;
