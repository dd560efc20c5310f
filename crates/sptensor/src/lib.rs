//! # sptensor — sparse tensor core
//!
//! This crate is the data substrate for the reproduction of
//! *"Load-Balanced Sparse MTTKRP on GPUs"* (Nisa et al., IPDPS 2019).
//! It provides:
//!
//! * [`CooTensor`] — the canonical order-`N` coordinate-format sparse tensor
//!   (32-bit indices, `f32` values, structure-of-arrays layout), including
//!   lexicographic sorting under a mode permutation and duplicate folding.
//! * [`stats`] — per-mode-orientation slice/fiber statistics: the quantities
//!   the paper's Table II reports (stdev of nonzeros per slice and per fiber)
//!   plus singleton-fiber/slice fractions that drive HB-CSF classification.
//! * [`synth`] — seeded synthetic generators, including scaled-down
//!   stand-ins for every dataset in the paper's Table III. Real FROSTT data
//!   can be substituted via [`io`].
//! * [`io`] — FROSTT `.tns` text format reader/writer.
//! * [`frame`] — the one container of every binary file (magic, version,
//!   payload, checksum trailer), and [`hash`], the workspace's hashes.
//!
//! Indices are `u32` and values are `f32` throughout, matching the paper's
//! experimental setting ("we use 32 bit unsigned integers to store the
//! indices and 32 bit floats to store the values").

// A renamed or deleted item must not leave a dangling doc link behind.
#![deny(rustdoc::broken_intra_doc_links)]

pub mod coo;
pub mod dims;
pub mod error;
pub mod frame;
pub mod hash;
pub mod io;
mod key;
pub mod reorder;
pub mod source;
pub mod spill;
pub mod stats;
pub mod synth;

pub use coo::{CooTensor, Entry, SortedView};
pub use dims::{identity_perm, mode_orientation, ModePerm};
pub use error::{TensorError, TensorResult};
pub use io::DuplicatePolicy;
pub use source::{ingest, BinSource, CooChunk, CooSource, IngestOptions, TensorSource, TnsSource};
pub use spill::{MergeStream, SortedChunks, SpilledTensor};
pub use stats::{ModeStats, TensorStats};
pub use synth::{standins, DatasetSpec, StructuredEntries, SynthConfig, SynthSource};

/// Index type used for all tensor coordinates (paper: 32-bit unsigned).
pub type Index = u32;

/// Value type for nonzeros (paper: 32-bit float).
pub type Value = f32;
