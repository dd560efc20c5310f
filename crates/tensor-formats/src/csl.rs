//! CSL (Compressed SLice) — paper Section V-A, Fig. 3.
//!
//! When every fiber of a slice holds exactly one nonzero, CSF's fiber
//! pointers are pure overhead: each points at a single leaf. CSL drops the
//! fiber level entirely — slice pointers index the nonzeros directly, and
//! each nonzero stores its remaining `N-1` coordinates COO-style. Relative
//! to CSF this saves the `2F` fiber words; relative to COO it saves the
//! repeated slice indices; and the MTTKRP kernel (Algorithm 4) skips the
//! per-fiber reduction.

use sptensor::dims::{invert_perm, is_valid_perm, ModePerm};
use sptensor::TensorError;
use sptensor::{CooTensor, Index, Value};

use crate::csf::Csf;

/// A tensor (or group of slices) in CSL format.
#[derive(Debug, Clone, PartialEq)]
pub struct Csl {
    /// Extents in original mode order.
    pub dims: Vec<Index>,
    /// Orientation; `perm[0]` is the slice (output) mode.
    pub perm: ModePerm,
    /// `slice_ptr[s] .. slice_ptr[s+1]` = nonzeros of slice `s`.
    pub slice_ptr: Vec<u32>,
    /// Slice coordinates (mode `perm[0]`), one per non-empty slice.
    pub slice_idx: Vec<Index>,
    /// `coord[l][z]` = the mode-`perm[l+1]` coordinate of nonzero `z`
    /// (`N-1` arrays of length `M`).
    pub coord: Vec<Vec<Index>>,
    pub vals: Vec<Value>,
}

impl Csl {
    /// Builds CSL for the whole tensor under `perm`, gathering each
    /// column through the tensor's argsort ([`CooTensor::sorted`]).
    /// Valid for any tensor — the format does not *require* singleton
    /// fibers, it just stops exploiting fiber structure.
    pub fn build(t: &CooTensor, perm: &ModePerm) -> Csl {
        let order = t.order();
        assert!(order >= 2, "CSL needs order >= 2");
        assert!(is_valid_perm(perm, order), "invalid mode permutation");
        let view = t.sorted(perm);
        let mut slice_ptr = Vec::new();
        let mut slice_idx = Vec::new();
        for (z, &k) in view.gather(perm[0]).iter().enumerate() {
            if slice_idx.last() != Some(&k) {
                slice_ptr.push(z as u32);
                slice_idx.push(k);
            }
        }
        slice_ptr.push(t.nnz() as u32);
        let out = Csl {
            dims: t.dims().to_vec(),
            perm: perm.clone(),
            slice_ptr,
            slice_idx,
            coord: perm[1..].iter().map(|&mo| view.gather(mo)).collect(),
            vals: view.gather_values(),
        };
        // Malformed builds must fail at creation, not at kernel time.
        #[cfg(debug_assertions)]
        out.validate().expect("freshly built CSL must validate");
        out
    }

    /// Extracts the given slices of a CSF tree into CSL form (the HB-CSF
    /// construction path: slices whose fibers are all singletons).
    pub fn from_csf_slices(csf: &Csf, slices: &[usize]) -> Csl {
        let order = csf.order();
        let nlev = order - 1;
        // Every array is reserved at its final length: an HB-CSF plan
        // keeps these for its whole life, so growth slack would stay too.
        let nnz: usize = slices.iter().map(|&s| csf.slice_nnz(s)).sum();
        let mut slice_ptr = Vec::with_capacity(slices.len() + 1);
        slice_ptr.push(0u32);
        let mut slice_idx = Vec::with_capacity(slices.len());
        let mut coord: Vec<Vec<Index>> = (1..order).map(|_| Vec::with_capacity(nnz)).collect();
        let mut vals = Vec::with_capacity(nnz);

        for &s in slices {
            slice_idx.push(csf.level_idx[0][s]);
            // Walk the slice subtree, flattening internal coordinates.
            collect_slice(csf, s, nlev, &mut coord, &mut vals);
            slice_ptr.push(vals.len() as u32);
        }
        let out = Csl {
            dims: csf.dims.clone(),
            perm: csf.perm.clone(),
            slice_ptr,
            slice_idx,
            coord,
            vals,
        };
        // Malformed builds must fail at creation, not at kernel time.
        #[cfg(debug_assertions)]
        out.validate().expect("freshly built CSL must validate");
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
        self.slice_idx.len()
    }

    /// Nonzero range of slice `s`.
    #[inline]
    pub fn slice_range(&self, s: usize) -> std::ops::Range<usize> {
        self.slice_ptr[s] as usize..self.slice_ptr[s + 1] as usize
    }

    /// Reconstructs COO with coordinates in original mode order.
    pub fn to_coo(&self) -> CooTensor {
        let order = self.order();
        let m = self.nnz();
        let inv = invert_perm(&self.perm);
        let mut level_arrays: Vec<Vec<Index>> = Vec::with_capacity(order);
        // Level 0: expand slice indices.
        let mut slice_col = Vec::with_capacity(m);
        for s in 0..self.num_slices() {
            let r = self.slice_range(s);
            slice_col.extend(std::iter::repeat_n(self.slice_idx[s], r.len()));
        }
        level_arrays.push(slice_col);
        for arr in &self.coord {
            level_arrays.push(arr.clone());
        }
        let inds: Vec<Vec<Index>> = (0..order).map(|mo| level_arrays[inv[mo]].clone()).collect();
        CooTensor::from_parts(self.dims.clone(), inds, self.vals.clone())
    }

    /// Structural invariant check.
    pub fn validate(&self) -> Result<(), TensorError> {
        let fail = |msg: String| Err(TensorError::invalid("csl", msg));
        if self.slice_ptr.len() != self.slice_idx.len() + 1 {
            return fail("slice_ptr length must be slice_idx length + 1".into());
        }
        if self.slice_ptr.first() != Some(&0)
            || *self.slice_ptr.last().unwrap() as usize != self.nnz()
        {
            return fail("slice_ptr endpoints wrong".into());
        }
        if !self.slice_ptr.windows(2).all(|w| w[0] <= w[1]) {
            return fail("slice_ptr not monotone".into());
        }
        if self.coord.len() != self.order() - 1 {
            return fail("coordinate array count mismatch".into());
        }
        for (l, arr) in self.coord.iter().enumerate() {
            if arr.len() != self.nnz() {
                return fail(format!("coordinate array {l} length mismatch"));
            }
            let extent = self.dims[self.perm[l + 1]];
            if arr.iter().any(|&i| i >= extent) {
                return fail(format!("coordinate array {l} out of range"));
            }
        }
        Ok(())
    }
}

/// Flattens all nonzeros of slice `s` of a CSF into parallel coordinate
/// arrays (modes `perm[1..]`) and values.
fn collect_slice(
    csf: &Csf,
    s: usize,
    nlev: usize,
    coord: &mut [Vec<Index>],
    vals: &mut Vec<Value>,
) {
    fn rec(
        csf: &Csf,
        level: usize,
        groups: std::ops::Range<usize>,
        nlev: usize,
        stack: &mut Vec<Index>,
        coord: &mut [Vec<Index>],
        vals: &mut Vec<Value>,
    ) {
        for g in groups {
            stack.push(csf.level_idx[level][g]);
            let children = csf.children(level, g);
            if level + 1 == nlev {
                for z in children {
                    for (l, &c) in stack.iter().enumerate() {
                        coord[l].push(c);
                    }
                    coord[stack.len()].push(csf.leaf_idx[z]);
                    vals.push(csf.vals[z]);
                }
            } else {
                rec(csf, level + 1, children, nlev, stack, coord, vals);
            }
            stack.pop();
        }
    }

    let children = csf.children(0, s);
    if nlev == 1 {
        // Order-2 tensor: children of a slice are leaves already.
        for z in children {
            coord[0].push(csf.leaf_idx[z]);
            vals.push(csf.vals[z]);
        }
    } else {
        let mut stack: Vec<Index> = Vec::new();
        rec(csf, 1, children, nlev, &mut stack, coord, vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::dims::identity_perm;
    use sptensor::synth::uniform_random;

    fn singleton_fiber_tensor() -> CooTensor {
        // Every (i, j) pair unique: all fibers singleton — CSL's home turf.
        let mut t = CooTensor::new(vec![3, 4, 5]);
        t.push(&[0, 1, 2], 1.0);
        t.push(&[0, 2, 0], 2.0);
        t.push(&[2, 0, 4], 3.0);
        t.push(&[2, 3, 1], 4.0);
        t
    }

    #[test]
    fn build_groups_by_slice() {
        let t = singleton_fiber_tensor();
        let csl = Csl::build(&t, &identity_perm(3));
        csl.validate().unwrap();
        assert_eq!(csl.num_slices(), 2);
        assert_eq!(csl.slice_idx, vec![0, 2]);
        assert_eq!(csl.slice_ptr, vec![0, 2, 4]);
        assert_eq!(csl.coord[0], vec![1, 2, 0, 3]); // j per nonzero
        assert_eq!(csl.coord[1], vec![2, 0, 4, 1]); // k per nonzero
    }

    #[test]
    fn to_coo_round_trips() {
        let mut t = singleton_fiber_tensor();
        let csl = Csl::build(&t, &identity_perm(3));
        let mut back = csl.to_coo();
        back.sort_by_perm(&identity_perm(3));
        t.sort_by_perm(&identity_perm(3));
        assert_eq!(back, t);
    }

    #[test]
    fn round_trip_nonidentity_perm_order4() {
        let t = uniform_random(&[5, 6, 7, 4], 200, 9);
        let perm = vec![2usize, 0, 3, 1];
        let csl = Csl::build(&t, &perm);
        csl.validate().unwrap();
        let mut back = csl.to_coo();
        back.sort_by_perm(&identity_perm(4));
        let mut orig = t.clone();
        orig.sort_by_perm(&identity_perm(4));
        assert_eq!(back, orig);
    }

    #[test]
    fn from_csf_slices_extracts_subset() {
        let t = uniform_random(&[6, 5, 4], 80, 2);
        let perm = identity_perm(3);
        let csf = Csf::build(&t, &perm);
        let picked: Vec<usize> = (0..csf.num_slices()).step_by(2).collect();
        let csl = Csl::from_csf_slices(&csf, &picked);
        csl.validate().unwrap();
        assert_eq!(csl.num_slices(), picked.len());
        let expected_nnz: usize = picked.iter().map(|&s| csf.slice_nnz(s)).sum();
        assert_eq!(csl.nnz(), expected_nnz);
        // Every extracted entry exists in the original tensor.
        let back = csl.to_coo();
        let mut orig = t.clone();
        orig.sort_by_perm(&perm);
        for e in back.iter_entries() {
            assert!(
                orig.iter_entries()
                    .any(|o| o.coords == e.coords && o.val == e.val),
                "entry {:?} missing from original",
                e
            );
        }
    }

    #[test]
    fn empty_build() {
        let t = CooTensor::new(vec![2, 2, 2]);
        let csl = Csl::build(&t, &identity_perm(3));
        csl.validate().unwrap();
        assert_eq!(csl.num_slices(), 0);
        assert_eq!(csl.to_coo().nnz(), 0);
    }
}
