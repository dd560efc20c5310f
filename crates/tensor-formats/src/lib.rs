//! # tensor-formats — sparse tensor storage formats
//!
//! Every storage format the paper discusses, implements, or compares
//! against, built from scratch:
//!
//! * [`csf`] — Compressed Sparse Fiber (Smith et al.), the order-`N`
//!   hierarchical format SPLATT uses on CPUs (paper Section III-B, Fig. 1).
//! * [`csl`] — Compressed SLice (paper Section V-A, Fig. 3): for slices
//!   whose fibers are all singletons, the fiber-pointer level is dropped.
//! * [`bcsf`] — Balanced CSF (paper Section IV): fiber splitting
//!   (*fbr-split*) plus slice splitting via thread-block binning
//!   (*slc-split*), the paper's first contribution.
//! * [`hbcsf`] — Hybrid B-CSF (paper Section V, Algorithm 5): slices
//!   partitioned into COO / CSL / B-CSF groups, the paper's second
//!   contribution.
//! * [`fcoo`] — Flagged COO (Liu et al., the F-COO GPU baseline):
//!   bit-flags replace the output-mode index array.
//! * [`hicoo`] — Hierarchical COO (Li et al., the HiCOO CPU baseline):
//!   block-compressed indices.
//! * [`storage`] — index-storage accounting in bytes for every format
//!   (regenerates the paper's Fig. 16 and the Section III formulas).

// A renamed or deleted item must not leave a dangling doc link behind.
#![deny(rustdoc::broken_intra_doc_links)]
// Kernels and builders index several parallel arrays with one counter;
// the zipped-iterator forms Clippy suggests obscure that symmetry.
#![allow(clippy::needless_range_loop)]

pub mod bcsf;
pub mod bitvec;
pub mod csf;
pub mod csl;
pub mod fcoo;
pub mod hbcsf;
pub mod hicoo;
pub mod storage;

pub use bcsf::{Bcsf, BcsfOptions, BlockAssignment};
pub use bitvec::BitVec;
pub use csf::Csf;
pub use csl::Csl;
pub use fcoo::Fcoo;
pub use hbcsf::{Hbcsf, SliceClass};
pub use hicoo::Hicoo;
pub use storage::{ArrayBytes, IndexBytes};
