//! F-COO (Flagged COO) — the GPU baseline of Liu et al. (CLUSTER'17).
//!
//! F-COO parallelizes over nonzeros like COO, but replaces the output-mode
//! index array with two one-bit-per-nonzero flag arrays: one marking where
//! a new *slice* (output row) starts and one marking where a new *fiber*
//! starts. Threads process fixed-size chunks (`threadlen` nonzeros each) of
//! partial products, combine them with a segmented scan keyed on the flags,
//! and only the chunk-crossing partials touch global memory atomically.
//! Per-chunk metadata records which output row is active at each chunk
//! start so the row index can be recovered without storing it per nonzero —
//! the storage trade Fig. 16 measures.

use sptensor::dims::{invert_perm, is_valid_perm, ModePerm};
use sptensor::TensorError;
use sptensor::{CooTensor, Index, Value};

use crate::bitvec::BitVec;

/// A tensor in F-COO form for one mode orientation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fcoo {
    /// Extents in original mode order.
    pub dims: Vec<Index>,
    /// Orientation; `perm[0]` is the output mode (flags replace its array).
    pub perm: ModePerm,
    /// Nonzeros per thread chunk (the framework's `threadlen` tuning knob).
    pub threadlen: usize,
    /// `coord[l][z]` = mode-`perm[l+1]` coordinate of nonzero `z`
    /// (`N-1` arrays of length `M` — the product modes).
    pub coord: Vec<Vec<Index>>,
    pub vals: Vec<Value>,
    /// Bit `z` set when nonzero `z` begins a new slice (output row).
    pub slice_flag: BitVec,
    /// Bit `z` set when nonzero `z` begins a new fiber.
    pub fiber_flag: BitVec,
    /// Distinct output-row coordinates, in first-appearance order.
    pub slice_ids: Vec<Index>,
    /// For each chunk of `threadlen` nonzeros, the ordinal (into
    /// `slice_ids`) of the row active at the chunk's first nonzero.
    pub chunk_start_slice: Vec<u32>,
}

impl Fcoo {
    /// Builds F-COO under `perm`, gathering each column through the
    /// tensor's argsort ([`CooTensor::sorted`]).
    pub fn build(t: &CooTensor, perm: &ModePerm, threadlen: usize) -> Fcoo {
        let order = t.order();
        assert!(order >= 2, "F-COO needs order >= 2");
        assert!(threadlen >= 1, "threadlen must be >= 1");
        assert!(is_valid_perm(perm, order), "invalid mode permutation");

        let m = t.nnz();
        let view = t.sorted(perm);
        // Columns in tree-level order: the slice key, then the product modes.
        let mut keys: Vec<Vec<Index>> = perm.iter().map(|&mo| view.gather(mo)).collect();
        let (slice_key, fiber_keys) = (&keys[0], &keys[..order - 1]);

        let mut slice_flag = BitVec::zeros(m);
        let mut fiber_flag = BitVec::zeros(m);
        let mut slice_ids = Vec::new();
        for z in 0..m {
            let new_slice = z == 0 || slice_key[z] != slice_key[z - 1];
            let new_fiber = z == 0 || fiber_keys.iter().any(|k| k[z] != k[z - 1]);
            if new_slice {
                slice_flag.set(z, true);
                slice_ids.push(slice_key[z]);
            }
            if new_fiber {
                fiber_flag.set(z, true);
            }
        }

        // Chunk metadata: ordinal of the slice containing each chunk start.
        let nchunks = m.div_ceil(threadlen);
        let mut chunk_start_slice = Vec::with_capacity(nchunks);
        let mut ordinal: i64 = -1;
        let mut z = 0usize;
        for c in 0..nchunks {
            let start = c * threadlen;
            while z <= start {
                if slice_flag.get(z) {
                    ordinal += 1;
                }
                z += 1;
            }
            chunk_start_slice.push(ordinal as u32);
        }

        let out = Fcoo {
            dims: t.dims().to_vec(),
            perm: perm.clone(),
            threadlen,
            coord: keys.split_off(1),
            vals: view.gather_values(),
            slice_flag,
            fiber_flag,
            slice_ids,
            chunk_start_slice,
        };
        // Malformed builds must fail at creation, not at kernel time.
        #[cfg(debug_assertions)]
        out.validate().expect("freshly built F-COO must validate");
        out
    }

    #[inline]
    pub fn order(&self) -> usize {
        self.perm.len()
    }

    /// The output mode an MTTKRP over this layout computes (`perm[0]`).
    #[inline]
    pub fn output_mode(&self) -> usize {
        self.perm[0]
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    #[inline]
    pub fn num_slices(&self) -> usize {
        self.slice_ids.len()
    }

    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.chunk_start_slice.len()
    }

    /// Reconstructs COO with coordinates in original mode order — exercises
    /// exactly the flag-decoding a kernel performs.
    pub fn to_coo(&self) -> CooTensor {
        let order = self.order();
        let m = self.nnz();
        let inv = invert_perm(&self.perm);
        let mut out_row = Vec::with_capacity(m);
        let mut ordinal: i64 = -1;
        for z in 0..m {
            if self.slice_flag.get(z) {
                ordinal += 1;
            }
            out_row.push(self.slice_ids[ordinal as usize]);
        }
        let mut level_arrays: Vec<&[Index]> = Vec::with_capacity(order);
        level_arrays.push(&out_row);
        for arr in &self.coord {
            level_arrays.push(arr);
        }
        let inds: Vec<Vec<Index>> = (0..order)
            .map(|mo| level_arrays[inv[mo]].to_vec())
            .collect();
        CooTensor::from_parts(self.dims.clone(), inds, self.vals.clone())
    }

    /// Structural invariants.
    pub fn validate(&self) -> Result<(), TensorError> {
        let fail = |msg: String| Err(TensorError::invalid("f-coo", msg));
        let m = self.nnz();
        if self.slice_flag.len() != m || self.fiber_flag.len() != m {
            return fail("flag array length mismatch".into());
        }
        if m > 0 && (!self.slice_flag.get(0) || !self.fiber_flag.get(0)) {
            return fail("first nonzero must start a slice and a fiber".into());
        }
        // A new slice always implies a new fiber.
        for z in 0..m {
            if self.slice_flag.get(z) && !self.fiber_flag.get(z) {
                return fail(format!("nonzero {z}: slice start without fiber start"));
            }
        }
        if self.slice_flag.count_ones() != self.slice_ids.len() {
            return fail("slice_ids length disagrees with flag count".into());
        }
        if self.num_chunks() != m.div_ceil(self.threadlen) {
            return fail("chunk metadata length wrong".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::dims::identity_perm;
    use sptensor::synth::uniform_random;

    fn sample() -> CooTensor {
        let mut t = CooTensor::new(vec![3, 4, 5]);
        t.push(&[0, 1, 1], 1.0);
        t.push(&[1, 0, 0], 2.0);
        t.push(&[1, 0, 2], 3.0);
        t.push(&[1, 2, 3], 4.0);
        t.push(&[2, 3, 0], 5.0);
        t
    }

    #[test]
    fn flags_mark_boundaries() {
        let f = Fcoo::build(&sample(), &identity_perm(3), 2);
        f.validate().unwrap();
        // Slices start at z = 0, 1, 4.
        let slice_bits: Vec<bool> = (0..5).map(|z| f.slice_flag.get(z)).collect();
        assert_eq!(slice_bits, vec![true, true, false, false, true]);
        // Fibers start at z = 0, 1, 3, 4 (z=2 continues fiber (1,0)).
        let fiber_bits: Vec<bool> = (0..5).map(|z| f.fiber_flag.get(z)).collect();
        assert_eq!(fiber_bits, vec![true, true, false, true, true]);
        assert_eq!(f.slice_ids, vec![0, 1, 2]);
    }

    #[test]
    fn chunk_metadata_recovers_rows() {
        let f = Fcoo::build(&sample(), &identity_perm(3), 2);
        // Chunks start at z = 0, 2, 4 -> active slices 0, 1, 2.
        assert_eq!(f.chunk_start_slice, vec![0, 1, 2]);
    }

    #[test]
    fn to_coo_round_trips() {
        let mut t = sample();
        for threadlen in [1, 2, 8, 64] {
            let f = Fcoo::build(&t, &identity_perm(3), threadlen);
            let mut back = f.to_coo();
            back.sort_by_perm(&identity_perm(3));
            t.sort_by_perm(&identity_perm(3));
            assert_eq!(back, t);
        }
    }

    #[test]
    fn round_trip_random_modes_order4() {
        let t = uniform_random(&[6, 7, 5, 4], 300, 13);
        for mode in 0..4 {
            let perm = sptensor::mode_orientation(4, mode);
            let f = Fcoo::build(&t, &perm, 8);
            f.validate().unwrap();
            let mut back = f.to_coo();
            back.sort_by_perm(&identity_perm(4));
            let mut orig = t.clone();
            orig.sort_by_perm(&identity_perm(4));
            assert_eq!(back, orig);
        }
    }

    #[test]
    fn empty_tensor() {
        let t = CooTensor::new(vec![2, 2, 2]);
        let f = Fcoo::build(&t, &identity_perm(3), 8);
        f.validate().unwrap();
        assert_eq!(f.nnz(), 0);
        assert_eq!(f.num_chunks(), 0);
        assert_eq!(f.to_coo().nnz(), 0);
    }
}
