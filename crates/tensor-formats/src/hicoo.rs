//! HiCOO (Hierarchical COOrdinate) — the CPU baseline of Li et al. (SC'18).
//!
//! HiCOO compresses COO indices in units of small multi-dimensional blocks:
//! nonzeros are grouped into `2^b`-sided blocks (default `b = 7`, 128);
//! each block stores its full-width block coordinates once, and each
//! nonzero stores only `N` one-byte in-block offsets. For tensors with
//! locality this cuts index storage roughly 4× and improves cache reuse —
//! the paper compares against HiCOO's OpenMP MTTKRP in Fig. 13.
//!
//! Simplification vs. the original: blocks are ordered lexicographically by
//! block coordinate rather than Z-Morton, which preserves the storage
//! accounting and the per-block privatized kernel structure (the two
//! properties the comparison exercises).

use sptensor::TensorError;
use sptensor::{CooTensor, Index, Value};

/// A tensor in HiCOO (block-compressed COO) form.
#[derive(Debug, Clone, PartialEq)]
pub struct Hicoo {
    pub dims: Vec<Index>,
    /// log2 of the block side length (must be ≤ 8 so offsets fit in `u8`).
    pub block_bits: u32,
    /// `bptr[b] .. bptr[b+1]` = nonzeros of block `b`.
    pub bptr: Vec<u32>,
    /// `bidx[mode][b]` = block coordinate (upper index bits) per block.
    pub bidx: Vec<Vec<Index>>,
    /// `eidx[mode][z]` = in-block offset (lower index bits) per nonzero.
    pub eidx: Vec<Vec<u8>>,
    pub vals: Vec<Value>,
}

impl Hicoo {
    /// Default block exponent (side 128), matching the HiCOO paper's `sb`.
    pub const DEFAULT_BLOCK_BITS: u32 = 7;

    /// Builds HiCOO with the given block exponent.
    ///
    /// # Panics
    /// If `block_bits` is 0 or exceeds 8 (offsets must fit a byte).
    pub fn build(t: &CooTensor, block_bits: u32) -> Hicoo {
        assert!(
            (1..=8).contains(&block_bits),
            "block_bits must be in 1..=8 (u8 offsets)"
        );
        let order = t.order();
        let m = t.nnz();
        let mask: Index = (1 << block_bits) - 1;

        // Sort nonzeros by block coordinate tuple, then offsets.
        let mut order_v: Vec<u32> = (0..m as u32).collect();
        {
            let block_of = |mode: usize, z: usize| t.mode_indices(mode)[z] >> block_bits;
            order_v.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                for mode in 0..order {
                    match block_of(mode, a).cmp(&block_of(mode, b)) {
                        core::cmp::Ordering::Equal => {}
                        other => return other,
                    }
                }
                for mode in 0..order {
                    match t.mode_indices(mode)[a].cmp(&t.mode_indices(mode)[b]) {
                        core::cmp::Ordering::Equal => {}
                        other => return other,
                    }
                }
                core::cmp::Ordering::Equal
            });
        }

        let mut bptr = Vec::new();
        let mut bidx: Vec<Vec<Index>> = vec![Vec::new(); order];
        let mut eidx: Vec<Vec<u8>> = vec![Vec::with_capacity(m); order];
        let mut vals = Vec::with_capacity(m);

        for (pos, &zz) in order_v.iter().enumerate() {
            let z = zz as usize;
            // The open block's coordinates are the last ones pushed.
            let new_block = (0..order)
                .any(|mode| bidx[mode].last() != Some(&(t.mode_indices(mode)[z] >> block_bits)));
            if new_block {
                bptr.push(pos as u32);
                for (mode, arr) in bidx.iter_mut().enumerate() {
                    arr.push(t.mode_indices(mode)[z] >> block_bits);
                }
            }
            for (mode, arr) in eidx.iter_mut().enumerate() {
                arr.push((t.mode_indices(mode)[z] & mask) as u8);
            }
            vals.push(t.values()[z]);
        }
        bptr.push(m as u32);

        let out = Hicoo {
            dims: t.dims().to_vec(),
            block_bits,
            bptr,
            bidx,
            eidx,
            vals,
        };
        // Malformed builds must fail at creation, not at kernel time.
        #[cfg(debug_assertions)]
        out.validate().expect("freshly built HiCOO must validate");
        out
    }

    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of non-empty blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.bptr.len() - 1
    }

    /// Nonzero range of block `b`.
    #[inline]
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        self.bptr[b] as usize..self.bptr[b + 1] as usize
    }

    /// Full coordinate of nonzero `z` in block `b`.
    #[inline]
    pub fn coord(&self, b: usize, z: usize, mode: usize) -> Index {
        (self.bidx[mode][b] << self.block_bits) | self.eidx[mode][z] as Index
    }

    /// Reconstructs COO (entries in block order).
    pub fn to_coo(&self) -> CooTensor {
        let order = self.order();
        let m = self.nnz();
        let mut inds: Vec<Vec<Index>> = vec![Vec::with_capacity(m); order];
        for b in 0..self.num_blocks() {
            for z in self.block_range(b) {
                for (mode, arr) in inds.iter_mut().enumerate() {
                    arr.push(self.coord(b, z, mode));
                }
            }
        }
        CooTensor::from_parts(self.dims.clone(), inds, self.vals.clone())
    }

    /// Structural invariants.
    pub fn validate(&self) -> Result<(), TensorError> {
        let fail = |msg: String| Err(TensorError::invalid("hicoo", msg));
        let nb = self.num_blocks();
        if self.bptr.first() != Some(&0) || *self.bptr.last().unwrap() as usize != self.nnz() {
            return fail("bptr endpoints wrong".into());
        }
        if !self.bptr.windows(2).all(|w| w[0] < w[1]) {
            return fail("bptr must be strictly increasing (no empty blocks)".into());
        }
        for mode in 0..self.order() {
            if self.bidx[mode].len() != nb {
                return fail("bidx length mismatch".into());
            }
            if self.eidx[mode].len() != self.nnz() {
                return fail("eidx length mismatch".into());
            }
        }
        // Reconstructed coordinates must be in range.
        for b in 0..nb {
            for z in self.block_range(b) {
                for mode in 0..self.order() {
                    if self.coord(b, z, mode) >= self.dims[mode] {
                        return fail(format!("block {b} nnz {z} out of range"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::dims::identity_perm;
    use sptensor::synth::uniform_random;

    #[test]
    fn build_groups_by_block() {
        let mut t = CooTensor::new(vec![300, 300, 300]);
        // Two nonzeros in block (0,0,0), one in block (1,0,0) for bits=7.
        t.push(&[3, 4, 5], 1.0);
        t.push(&[100, 90, 2], 2.0);
        t.push(&[200, 4, 5], 3.0);
        let h = Hicoo::build(&t, 7);
        h.validate().unwrap();
        assert_eq!(h.num_blocks(), 2);
        assert_eq!(h.block_range(0).len(), 2);
        assert_eq!(h.coord(1, 2, 0), 200);
    }

    #[test]
    fn round_trip_random() {
        let t = uniform_random(&[100, 80, 60], 500, 21);
        for bits in [1, 4, 7, 8] {
            let h = Hicoo::build(&t, bits);
            h.validate().unwrap();
            assert_eq!(h.nnz(), t.nnz());
            let mut back = h.to_coo();
            back.sort_by_perm(&identity_perm(3));
            let mut orig = t.clone();
            orig.sort_by_perm(&identity_perm(3));
            assert_eq!(back, orig);
        }
    }

    #[test]
    fn round_trip_order4() {
        let t = uniform_random(&[40, 30, 20, 10], 400, 22);
        let h = Hicoo::build(&t, Hicoo::DEFAULT_BLOCK_BITS);
        h.validate().unwrap();
        let mut back = h.to_coo();
        back.sort_by_perm(&identity_perm(4));
        let mut orig = t.clone();
        orig.sort_by_perm(&identity_perm(4));
        assert_eq!(back, orig);
    }

    #[test]
    fn clustered_data_compresses_into_few_blocks() {
        let mut t = CooTensor::new(vec![1024, 1024, 1024]);
        for d in 0..100u32 {
            t.push(&[d % 128, (d * 7) % 128, (d * 13) % 128], 1.0);
        }
        let h = Hicoo::build(&t, 7);
        assert_eq!(h.num_blocks(), 1, "all nonzeros share block (0,0,0)");
    }

    #[test]
    #[should_panic(expected = "block_bits")]
    fn rejects_oversized_block_bits() {
        let t = CooTensor::new(vec![4, 4, 4]);
        Hicoo::build(&t, 9);
    }

    #[test]
    fn empty_tensor() {
        let t = CooTensor::new(vec![4, 4, 4]);
        let h = Hicoo::build(&t, 7);
        h.validate().unwrap();
        assert_eq!(h.num_blocks(), 0);
    }
}
