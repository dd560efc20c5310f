//! B-CSF (Balanced CSF) — paper Section IV.
//!
//! Plain CSF maps one slice to a thread block and one fiber to a warp; with
//! power-law tensors both mappings starve the GPU. B-CSF restores balance
//! with two transformations:
//!
//! * **fbr-split** (Section IV-B): any fiber longer than a threshold
//!   (paper's empirical best: 128) is split into fiber-segments of at most
//!   that length. Segments carry the same fiber index, so the only cost is
//!   a repeated multiply by the fiber's factor row per extra segment.
//! * **slc-split** (Section IV-A): a slice is assigned
//!   `ceil(slice_nnz / bin)` thread blocks (paper: one block per 512
//!   nonzeros), following Ashari et al.'s SpMV binning. The paper implements
//!   this *implicitly* — "instead of splitting a slice, we increase the
//!   number of thread blocks that work on a slice" — which is exactly what
//!   [`Bcsf::blocks`] encodes: each [`BlockAssignment`] names a slice and a
//!   contiguous range of its fiber-segments, with an `needs_atomic` flag on
//!   slices shared between blocks.

use sptensor::dims::ModePerm;
use sptensor::TensorError;
use sptensor::{CooTensor, Index};

use crate::csf::Csf;

/// Construction knobs; defaults are the paper's best-performing settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcsfOptions {
    /// Maximum nonzeros per fiber-segment (paper Section VI-B: 128).
    pub fiber_split_threshold: usize,
    /// Target nonzeros per thread block for slice binning (paper: 512).
    pub slice_nnz_per_block: usize,
    /// Ablation toggle for fbr-split (Fig. 5's middle bar disables slc-split
    /// only; disabling both recovers plain GPU-CSF).
    pub fiber_split: bool,
    /// Ablation toggle for slc-split.
    pub slice_split: bool,
}

impl Default for BcsfOptions {
    fn default() -> Self {
        BcsfOptions {
            fiber_split_threshold: 128,
            slice_nnz_per_block: 512,
            fiber_split: true,
            slice_split: true,
        }
    }
}

impl BcsfOptions {
    /// Plain GPU-CSF: no splitting at all (the Table II configuration).
    pub fn unsplit() -> Self {
        BcsfOptions {
            fiber_split: false,
            slice_split: false,
            ..Default::default()
        }
    }

    /// Only fbr-split (Fig. 5's intermediate configuration).
    pub fn fiber_split_only() -> Self {
        BcsfOptions {
            slice_split: false,
            ..Default::default()
        }
    }
}

/// One thread block's share of a slice: a contiguous run of fiber-segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAssignment {
    /// Slice position in `csf.level_idx[0]`.
    pub slice: u32,
    /// Absolute fiber-segment range (level `order-2` group ids).
    pub fiber_begin: u32,
    pub fiber_end: u32,
    /// True when the slice is shared with other blocks, so output-row
    /// updates must be atomic (the slc-split cost the paper tolerates).
    pub needs_atomic: bool,
}

impl BlockAssignment {
    pub fn fibers(&self) -> std::ops::Range<usize> {
        self.fiber_begin as usize..self.fiber_end as usize
    }
}

/// A balanced CSF tensor plus its thread-block work decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Bcsf {
    /// The (possibly fiber-split) CSF tree. After fbr-split the fiber level
    /// may contain repeated indices within a slice — one entry per segment.
    pub csf: Csf,
    pub options: BcsfOptions,
    /// Thread-block assignments covering every fiber-segment exactly once.
    pub blocks: Vec<BlockAssignment>,
}

impl Bcsf {
    /// Builds B-CSF for `t` under `perm`: the CSF tree of [`Csf::build`],
    /// split and block-assigned by [`Bcsf::from_csf`].
    pub fn build(t: &CooTensor, perm: &ModePerm, options: BcsfOptions) -> Bcsf {
        Bcsf::from_csf(Csf::build(t, perm), options)
    }

    /// Applies splitting to an existing CSF tree (the paper folds fbr-split
    /// into CSF construction; the result is identical).
    pub fn from_csf(csf: Csf, options: BcsfOptions) -> Bcsf {
        assert!(csf.order() >= 3, "B-CSF is defined for order >= 3 tensors");
        assert!(options.fiber_split_threshold >= 1, "threshold must be >= 1");
        assert!(options.slice_nnz_per_block >= 1, "block bin must be >= 1");
        let csf = if options.fiber_split {
            split_fibers(&csf, options.fiber_split_threshold)
        } else {
            csf
        };
        let blocks = assign_blocks(&csf, &options);
        let out = Bcsf {
            csf,
            options,
            blocks,
        };
        // Malformed builds must fail at creation, not at kernel time.
        #[cfg(debug_assertions)]
        out.validate().expect("freshly built B-CSF must validate");
        out
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.csf.nnz()
    }

    /// The output mode an MTTKRP over this layout computes
    /// (`csf.perm[0]`).
    #[inline]
    pub fn output_mode(&self) -> usize {
        self.csf.perm[0]
    }

    /// Number of thread blocks the kernel will launch.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Nonzeros handled by one block.
    pub fn block_nnz(&self, b: &BlockAssignment) -> usize {
        let fl = self.csf.order() - 2;
        let lo = self.csf.level_ptr[fl][b.fiber_begin as usize] as usize;
        let hi = self.csf.level_ptr[fl][b.fiber_end as usize] as usize;
        hi - lo
    }

    /// Structural invariants beyond the inner CSF's own.
    pub fn validate(&self) -> Result<(), TensorError> {
        let fail = |msg: String| Err(TensorError::invalid("b-csf", msg));
        self.csf.validate()?;
        let fl = self.csf.order() - 2;
        if self.options.fiber_split {
            let thr = self.options.fiber_split_threshold;
            for (g, len) in self.csf.fiber_lengths().iter().enumerate() {
                if *len > thr {
                    return fail(format!("fiber-segment {g} has {len} > threshold {thr}"));
                }
            }
        }
        // Blocks must tile the fiber axis exactly, in order.
        let mut next = 0u32;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.fiber_begin != next {
                return fail(format!(
                    "block {i} starts at {} expected {next}",
                    b.fiber_begin
                ));
            }
            if b.fiber_end <= b.fiber_begin {
                return fail(format!("block {i} empty"));
            }
            next = b.fiber_end;
        }
        let num_fibers = self.csf.level_idx[fl].len() as u32;
        if next != num_fibers {
            return fail(format!("blocks cover {next} of {num_fibers} fibers"));
        }
        // Atomic flags: set iff the slice appears in more than one block.
        let mut per_slice = vec![0u32; self.csf.num_slices()];
        for b in &self.blocks {
            per_slice[b.slice as usize] += 1;
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if (per_slice[b.slice as usize] > 1) != b.needs_atomic {
                return fail(format!("block {i} atomic flag inconsistent"));
            }
        }
        Ok(())
    }
}

/// Splits every fiber longer than `threshold` into segments of at most
/// `threshold` leaves, rebuilding the fiber level and the parent pointers.
fn split_fibers(csf: &Csf, threshold: usize) -> Csf {
    let order = csf.order();
    let fl = order - 2; // fiber level
    let old_idx = &csf.level_idx[fl];
    let old_ptr = &csf.level_ptr[fl];

    // ceil-div segments, each <= threshold.
    let segs = |g: usize| {
        ((old_ptr[g + 1] - old_ptr[g]) as usize)
            .div_ceil(threshold)
            .max(1)
    };
    // Reserved at their final lengths: a plan keeps the tree for its life.
    let total: usize = (0..old_idx.len()).map(segs).sum();
    let mut new_idx: Vec<Index> = Vec::with_capacity(total);
    let mut new_ptr: Vec<u32> = Vec::with_capacity(total + 1);
    // For remapping the parent level: segments created per old fiber prefix.
    let mut seg_prefix: Vec<u32> = Vec::with_capacity(old_ptr.len());
    seg_prefix.push(0);

    for (g, &idx) in old_idx.iter().enumerate() {
        let lo = old_ptr[g] as usize;
        let hi = old_ptr[g + 1] as usize;
        let mut start = lo;
        for _ in 0..segs(g) {
            new_ptr.push(start as u32);
            new_idx.push(idx);
            start = start.saturating_add(threshold).min(hi);
        }
        debug_assert_eq!(start, hi.max(lo));
        seg_prefix.push(new_idx.len() as u32);
    }
    new_ptr.push(csf.nnz() as u32);

    let mut out = csf.clone();
    out.level_idx[fl] = new_idx;
    out.level_ptr[fl] = new_ptr;
    if fl > 0 {
        // Parent pointers referenced old fiber ids; remap through the
        // segment prefix sums.
        out.level_ptr[fl - 1] = csf.level_ptr[fl - 1]
            .iter()
            .map(|&p| seg_prefix[p as usize])
            .collect();
    }
    out
}

/// Greedy binning of each slice's fiber-segments into thread blocks of
/// roughly `slice_nnz_per_block` nonzeros (one block per slice when
/// slc-split is disabled).
fn assign_blocks(csf: &Csf, options: &BcsfOptions) -> Vec<BlockAssignment> {
    let order = csf.order();
    let fl = order - 2;
    let mut blocks = Vec::new();

    // Fiber range of each slice: descend from level 0 to the fiber level.
    for s in 0..csf.num_slices() {
        let (mut lo, mut hi) = (s, s + 1);
        for l in 0..fl {
            lo = csf.level_ptr[l][lo] as usize;
            hi = csf.level_ptr[l][hi] as usize;
        }
        if lo == hi {
            continue;
        }
        if !options.slice_split {
            blocks.push(BlockAssignment {
                slice: s as u32,
                fiber_begin: lo as u32,
                fiber_end: hi as u32,
                needs_atomic: false,
            });
            continue;
        }
        // Paper's binning: a slice with `v` nonzeros gets ceil(v / bin)
        // thread blocks; fibers are dealt to blocks so each gets ~v/nblocks
        // nonzeros (cuts only at fiber-segment boundaries).
        let slice_nnz = (csf.level_ptr[fl][hi] - csf.level_ptr[fl][lo]) as usize;
        let nblocks = slice_nnz
            .div_ceil(options.slice_nnz_per_block)
            .clamp(1, hi - lo);
        let target = slice_nnz as f64 / nblocks as f64;

        let first_block = blocks.len();
        let mut begin = lo;
        let mut acc = 0usize;
        let mut emitted = 0usize;
        for f in lo..hi {
            let flen = (csf.level_ptr[fl][f + 1] - csf.level_ptr[fl][f]) as usize;
            acc += flen;
            let remaining_fibers = hi - (f + 1);
            let want_cut = emitted + 1 < nblocks
                && acc as f64 >= (emitted + 1) as f64 * target
                && remaining_fibers >= nblocks - (emitted + 1);
            if want_cut {
                blocks.push(BlockAssignment {
                    slice: s as u32,
                    fiber_begin: begin as u32,
                    fiber_end: (f + 1) as u32,
                    needs_atomic: false, // fixed up below
                });
                begin = f + 1;
                emitted += 1;
            }
        }
        if begin < hi {
            blocks.push(BlockAssignment {
                slice: s as u32,
                fiber_begin: begin as u32,
                fiber_end: hi as u32,
                needs_atomic: false,
            });
        }
        let split = blocks.len() - first_block > 1;
        if split {
            for b in &mut blocks[first_block..] {
                b.needs_atomic = true;
            }
        }
    }
    // The count is known only now; a plan keeps the list for its life.
    blocks.shrink_to_fit();
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::dims::identity_perm;
    use sptensor::synth::uniform_random;
    use sptensor::CooTensor;

    /// One heavy slice (0) with one heavy fiber, plus light slices.
    fn skewed() -> CooTensor {
        let mut t = CooTensor::new(vec![4, 8, 600]);
        for k in 0..500u32 {
            t.push(&[0, 0, k], 1.0); // heavy fiber: 500 nnz
        }
        for k in 0..40u32 {
            t.push(&[0, 1, k], 1.0);
        }
        t.push(&[1, 2, 0], 1.0);
        t.push(&[2, 3, 5], 1.0);
        t
    }

    #[test]
    fn fiber_split_bounds_segment_length() {
        let t = skewed();
        let b = Bcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        b.validate().unwrap();
        assert!(b.csf.fiber_lengths().iter().all(|&l| l <= 128));
        // 500-nnz fiber -> 4 segments (128*3 + 116).
        let seg0: Vec<_> = b.csf.level_idx[1].iter().filter(|&&j| j == 0).collect();
        assert_eq!(seg0.len(), 4);
    }

    #[test]
    fn split_preserves_tensor() {
        let t = skewed();
        let b = Bcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        let mut back = b.csf.to_coo();
        back.sort_by_perm(&identity_perm(3));
        let mut orig = t.clone();
        orig.sort_by_perm(&identity_perm(3));
        assert_eq!(back, orig);
    }

    #[test]
    fn unsplit_is_plain_csf() {
        let t = skewed();
        let plain = Csf::build(&t, &identity_perm(3));
        let b = Bcsf::build(&t, &identity_perm(3), BcsfOptions::unsplit());
        assert_eq!(b.csf, plain);
        // One block per slice.
        assert_eq!(b.num_blocks(), plain.num_slices());
        assert!(b.blocks.iter().all(|blk| !blk.needs_atomic));
    }

    #[test]
    fn slice_split_creates_multiple_blocks_with_atomics() {
        let t = skewed();
        let b = Bcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        // Slice 0 has 540 nnz > 512 -> at least 2 blocks, all atomic.
        let s0: Vec<_> = b.blocks.iter().filter(|blk| blk.slice == 0).collect();
        assert!(
            s0.len() >= 2,
            "expected slice 0 split, got {} blocks",
            s0.len()
        );
        assert!(s0.iter().all(|blk| blk.needs_atomic));
        // Light slices get exactly one non-atomic block.
        let s1: Vec<_> = b.blocks.iter().filter(|blk| blk.slice == 1).collect();
        assert_eq!(s1.len(), 1);
        assert!(!s1[0].needs_atomic);
    }

    #[test]
    fn block_nnz_respects_bin_budget() {
        let t = skewed();
        let opts = BcsfOptions::default();
        let b = Bcsf::build(&t, &identity_perm(3), opts);
        for blk in &b.blocks {
            // Cut happens after crossing the budget; with 128-capped fibers
            // a block can overshoot by at most one segment.
            assert!(
                b.block_nnz(blk) <= opts.slice_nnz_per_block + opts.fiber_split_threshold,
                "block too heavy: {}",
                b.block_nnz(blk)
            );
        }
    }

    #[test]
    fn blocks_tile_all_fibers_random() {
        for seed in 0..3 {
            let t = uniform_random(&[10, 12, 14], 400, seed);
            let b = Bcsf::build(
                &t,
                &identity_perm(3),
                BcsfOptions {
                    fiber_split_threshold: 4,
                    slice_nnz_per_block: 8,
                    fiber_split: true,
                    slice_split: true,
                },
            );
            b.validate().unwrap();
            let total: usize = b.blocks.iter().map(|blk| b.block_nnz(blk)).sum();
            assert_eq!(total, t.nnz());
        }
    }

    #[test]
    fn order4_split_remaps_parent_pointers() {
        let mut t = CooTensor::new(vec![3, 3, 3, 300]);
        for l in 0..250u32 {
            t.push(&[0, 0, 0, l], 1.0);
        }
        t.push(&[0, 1, 1, 0], 1.0);
        t.push(&[2, 2, 2, 2], 1.0);
        let b = Bcsf::build(&t, &identity_perm(4), BcsfOptions::default());
        b.validate().unwrap();
        assert!(b.csf.fiber_lengths().iter().all(|&l| l <= 128));
        let mut back = b.csf.to_coo();
        back.sort_by_perm(&identity_perm(4));
        let mut orig = t.clone();
        orig.sort_by_perm(&identity_perm(4));
        assert_eq!(back, orig);
    }

    #[test]
    fn threshold_one_fully_explodes_fibers() {
        let t = skewed();
        let b = Bcsf::build(
            &t,
            &identity_perm(3),
            BcsfOptions {
                fiber_split_threshold: 1,
                ..Default::default()
            },
        );
        b.validate().unwrap();
        assert_eq!(b.csf.num_fibers(), t.nnz());
    }

    #[test]
    fn empty_tensor_no_blocks() {
        let t = CooTensor::new(vec![2, 2, 2]);
        let b = Bcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        b.validate().unwrap();
        assert_eq!(b.num_blocks(), 0);
    }
}
