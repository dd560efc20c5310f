//! Compressed Sparse Fiber (CSF) — the hierarchical format of Smith et al.
//! that SPLATT uses, and the base structure for B-CSF and HB-CSF.
//!
//! An order-`N` CSF under a mode permutation `perm` is a tree with `N`
//! levels: level 0 enumerates the distinct indices of mode `perm[0]`
//! (*slices*), each internal level `l` enumerates the distinct
//! `perm[l]`-indices within its parent group, and the last level holds one
//! entry per nonzero (*leaves*: the `perm[N-1]` coordinate and the value).
//! Level `N-2` groups are the *fibers*. This matches the paper's Fig. 1 for
//! `N = 3`: `slicePtr/sliceInds`, `fiberPtr/fiberInds`, `indK/vals`.

use sptensor::dims::{invert_perm, is_valid_perm, ModePerm};
use sptensor::source::CooChunk;
use sptensor::spill::SortedChunks;
use sptensor::{CooTensor, Index, TensorError, TensorResult, Value};

/// Entries per chunk when a resident tensor streams through its argsort
/// view into the builder: small enough to stay in cache.
const VIEW_CHUNK_NNZ: usize = 1 << 14;

/// An order-`N` CSF tensor. Fields are public (read-only by convention) so
/// MTTKRP kernels can stream the raw arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct Csf {
    /// Extents in *original* mode order.
    pub dims: Vec<Index>,
    /// Level `l` of the tree stores mode `perm[l]`.
    pub perm: ModePerm,
    /// `level_idx[l][g]` = the mode-`perm[l]` coordinate of group `g`.
    /// There are `order - 1` internal levels (level `order-1` is the leaves).
    pub level_idx: Vec<Vec<Index>>,
    /// `level_ptr[l][g] .. level_ptr[l][g + 1]` = the children of group `g`:
    /// groups of level `l + 1`, or leaves when `l == order - 2`.
    pub level_ptr: Vec<Vec<u32>>,
    /// Per-nonzero coordinate of the last mode `perm[order - 1]`.
    pub leaf_idx: Vec<Index>,
    /// Per-nonzero value, in tree order.
    pub vals: Vec<Value>,
}

impl Csf {
    /// Builds a CSF tree for `t` under `perm`, streaming the tensor in
    /// sorted order through an argsort ([`CooTensor::sorted`]) into
    /// [`Csf::build_streamed`] — the tensor is neither copied nor moved.
    ///
    /// ```
    /// use sptensor::{CooTensor, identity_perm};
    /// use tensor_formats::Csf;
    ///
    /// let mut t = CooTensor::new(vec![2, 3, 4]);
    /// t.push(&[0, 1, 0], 1.0);
    /// t.push(&[0, 1, 3], 2.0); // same fiber (0,1,:)
    /// t.push(&[1, 2, 2], 3.0);
    ///
    /// let csf = Csf::build(&t, &identity_perm(3));
    /// assert_eq!(csf.num_slices(), 2);
    /// assert_eq!(csf.num_fibers(), 2);
    /// assert_eq!(csf.fiber_lengths(), vec![2, 1]);
    /// ```
    ///
    /// # Panics
    /// If `perm` is invalid or the order is < 2.
    pub fn build(t: &CooTensor, perm: &ModePerm) -> Csf {
        Csf::build_streamed(&mut t.sorted(perm), VIEW_CHUNK_NNZ).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a CSF tree from a sorted chunk stream in one pass — the one
    /// fill loop every CSF-based format goes through. The stream is
    /// either a resident tensor's argsort view ([`Csf::build`]) or the
    /// spill pipeline's merge ([`sptensor::SpilledTensor::stream`]), in
    /// which case no resident sorted `CooTensor` ever exists.
    ///
    /// An entry opens a new group at the shallowest level whose
    /// coordinate differs from the open group's there, and at every level
    /// below. The open groups' coordinates are the last ones pushed, so
    /// nothing is carried across chunk boundaries and the tree does not
    /// depend on the chunk size. Each level holds at most one group per
    /// entry, so every array is reserved at the declared entry count
    /// (address space, not memory, until written) and shrunk at the end.
    ///
    /// The stream must be sorted under the permutation it reports
    /// ([`SortedChunks::perm`]) and yield exactly [`SortedChunks::nnz`]
    /// entries; a count mismatch is an error. Equal coordinates (under
    /// [`sptensor::DuplicatePolicy::Keep`]) become equal leaves of one
    /// fiber, in stream order.
    ///
    /// # Errors
    /// [`TensorError::OrderTooLow`] for a tensor of order < 2, and
    /// [`TensorError::Invalid`] for an invalid permutation, a count that
    /// overflows the `u32` pointers, or a stream that yields a different
    /// number of entries than it declares.
    pub fn build_streamed(stream: &mut dyn SortedChunks, chunk_nnz: usize) -> TensorResult<Csf> {
        let dims = stream.dims().to_vec();
        let perm: ModePerm = stream.perm().to_vec();
        let order = dims.len();
        if order < 2 {
            return Err(TensorError::OrderTooLow {
                what: "csf",
                order,
                min: 2,
            });
        }
        if !is_valid_perm(&perm, order) {
            return Err(TensorError::invalid("csf", "invalid mode permutation"));
        }
        let nlev = order - 1;
        let m = usize::try_from(stream.nnz())
            .ok()
            .filter(|&m| u32::try_from(m).is_ok())
            .ok_or_else(|| TensorError::invalid("csf", "nonzero count exceeds u32 pointers"))?;
        let chunk_nnz = chunk_nnz.max(1);

        let mut level_idx: Vec<Vec<Index>> = (0..nlev).map(|_| Vec::with_capacity(m)).collect();
        let mut level_ptr: Vec<Vec<u32>> = (0..nlev).map(|_| Vec::with_capacity(m + 1)).collect();
        let mut leaf_idx = Vec::with_capacity(m);
        let mut vals = Vec::with_capacity(m);
        let mut chunk = CooChunk::default();
        stream.rewind()?;
        loop {
            let n = stream.next_chunk(chunk_nnz, &mut chunk)?;
            if n == 0 {
                break;
            }
            if vals.len() + n > m {
                return Err(TensorError::invalid(
                    "csf",
                    format!(
                        "stream yielded {} entries so far, declared {m}",
                        vals.len() + n
                    ),
                ));
            }
            let keys: Vec<&[Index]> = perm.iter().map(|&mo| &chunk.coords[mo][..n]).collect();
            for i in 0..n {
                let z = vals.len();
                let boundary = if z == 0 {
                    0
                } else {
                    (0..nlev)
                        .find(|&l| level_idx[l].last() != Some(&keys[l][i]))
                        .unwrap_or(nlev)
                };
                for l in boundary..nlev {
                    let child_start = if l + 1 < nlev {
                        level_idx[l + 1].len()
                    } else {
                        z
                    };
                    level_ptr[l].push(child_start as u32);
                    level_idx[l].push(keys[l][i]);
                }
                leaf_idx.push(keys[nlev][i]);
                vals.push(chunk.vals[i]);
            }
        }
        if vals.len() != m {
            return Err(TensorError::invalid(
                "csf",
                format!("stream yielded {} entries, declared {m}", vals.len()),
            ));
        }
        for l in 0..nlev {
            let end = if l + 1 < nlev {
                level_idx[l + 1].len()
            } else {
                m
            };
            level_ptr[l].push(end as u32);
            level_idx[l].shrink_to_fit();
            level_ptr[l].shrink_to_fit();
        }

        let out = Csf {
            dims,
            perm,
            level_idx,
            level_ptr,
            leaf_idx,
            vals,
        };
        // Malformed builds must fail at creation, not at kernel time.
        #[cfg(debug_assertions)]
        out.validate().expect("freshly built CSF must validate");
        Ok(out)
    }

    /// Tensor order `N`.
    #[inline]
    pub fn order(&self) -> usize {
        self.perm.len()
    }

    /// The output mode an MTTKRP over this layout computes (`perm[0]`).
    #[inline]
    pub fn output_mode(&self) -> usize {
        self.perm[0]
    }

    /// Number of nonzeros `M`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of level-0 groups (`S`, slices).
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.level_idx[0].len()
    }

    /// Number of level-`(N-2)` groups (`F`, fibers).
    #[inline]
    pub fn num_fibers(&self) -> usize {
        self.level_idx[self.order() - 2].len()
    }

    /// Children range of group `g` at internal level `l`.
    #[inline]
    pub fn children(&self, level: usize, g: usize) -> std::ops::Range<usize> {
        let p = &self.level_ptr[level];
        p[g] as usize..p[g + 1] as usize
    }

    /// The leaf (nonzero) range covered by the subtree rooted at group `g`
    /// of level `level` — i.e. the nonzeros of a slice when `level == 0`.
    fn subtree_leaf_range(&self, level: usize, g: usize) -> std::ops::Range<usize> {
        let nlev = self.order() - 1;
        let (mut lo, mut hi) = (g, g + 1);
        for l in level..nlev {
            lo = self.level_ptr[l][lo] as usize;
            hi = self.level_ptr[l][hi] as usize;
        }
        lo..hi
    }

    /// Nonzeros in slice `s` (its "volume").
    #[inline]
    pub fn slice_nnz(&self, s: usize) -> usize {
        self.subtree_leaf_range(0, s).len()
    }

    /// Reconstructs the tensor in COO form with coordinates in *original*
    /// mode order (sorted by this CSF's permutation).
    pub fn to_coo(&self) -> CooTensor {
        let order = self.order();
        let m = self.nnz();
        let inv = invert_perm(&self.perm);
        let mut inds: Vec<Vec<Index>> = vec![Vec::with_capacity(m); order];
        // Expand each internal level's coordinate down to per-leaf arrays.
        let mut coord = vec![0 as Index; order];
        self.walk(&mut |levels: &[Index], leaf: usize| {
            // levels has the order-1 internal coordinates; leaf indexes nnz.
            for (l, &c) in levels.iter().enumerate() {
                coord[l] = c;
            }
            coord[order - 1] = self.leaf_idx[leaf];
            for (mode, arr) in inds.iter_mut().enumerate() {
                arr.push(coord[inv[mode]]);
            }
        });
        CooTensor::from_parts(self.dims.clone(), inds, self.vals.clone())
    }

    /// Depth-first walk over all nonzeros: `f(internal_coords, leaf_index)`.
    pub fn walk(&self, f: &mut impl FnMut(&[Index], usize)) {
        let nlev = self.order() - 1;
        let mut coords = vec![0 as Index; nlev];
        self.walk_rec(0, 0..self.num_slices(), &mut coords, f, nlev);
    }

    fn walk_rec(
        &self,
        level: usize,
        groups: std::ops::Range<usize>,
        coords: &mut Vec<Index>,
        f: &mut impl FnMut(&[Index], usize),
        nlev: usize,
    ) {
        for g in groups {
            coords[level] = self.level_idx[level][g];
            let children = self.children(level, g);
            if level + 1 == nlev {
                for z in children {
                    f(coords, z);
                }
            } else {
                self.walk_rec(level + 1, children, coords, f, nlev);
            }
        }
    }

    /// Lengths (leaf counts) of every fiber, in order — the distribution
    /// whose standard deviation Table II reports.
    pub fn fiber_lengths(&self) -> Vec<usize> {
        let fl = self.order() - 2;
        (0..self.num_fibers())
            .map(|g| self.children(fl, g).len())
            .collect()
    }

    /// Volumes (leaf counts) of every slice.
    pub fn slice_volumes(&self) -> Vec<usize> {
        (0..self.num_slices()).map(|s| self.slice_nnz(s)).collect()
    }

    /// Structural invariant check (tests and post-construction audits).
    pub fn validate(&self) -> Result<(), TensorError> {
        let fail = |msg: String| Err(TensorError::invalid("csf", msg));
        let nlev = self.order() - 1;
        if self.level_idx.len() != nlev || self.level_ptr.len() != nlev {
            return fail("level array count mismatch".into());
        }
        for l in 0..nlev {
            let n = self.level_idx[l].len();
            if self.level_ptr[l].len() != n + 1 {
                return fail(format!("level {l} ptr length must be idx length + 1"));
            }
            let child_count = if l + 1 < nlev {
                self.level_idx[l + 1].len()
            } else {
                self.nnz()
            };
            if self.level_ptr[l][0] != 0 || self.level_ptr[l][n] as usize != child_count {
                return fail(format!("level {l} ptr endpoints wrong"));
            }
            if !self.level_ptr[l].windows(2).all(|w| w[0] <= w[1]) {
                return fail(format!("level {l} ptr not monotone"));
            }
            let extent = self.dims[self.perm[l]];
            if self.level_idx[l].iter().any(|&i| i >= extent) {
                return fail(format!("level {l} coordinate out of range"));
            }
        }
        let extent = self.dims[self.perm[nlev]];
        if self.leaf_idx.iter().any(|&i| i >= extent) {
            return fail("leaf coordinate out of range".into());
        }
        if self.leaf_idx.len() != self.vals.len() {
            return fail("leaf/vals length mismatch".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::dims::{identity_perm, mode_orientation};
    use sptensor::synth::uniform_random;

    fn sample3() -> CooTensor {
        // Matches the paper's running example scale: 3 slices, mixed fibers.
        let mut t = CooTensor::new(vec![3, 4, 5]);
        t.push(&[0, 1, 1], 1.0);
        t.push(&[1, 0, 0], 2.0);
        t.push(&[1, 0, 2], 3.0);
        t.push(&[1, 2, 3], 4.0);
        t.push(&[2, 3, 0], 5.0);
        t.push(&[2, 3, 1], 6.0);
        t.push(&[2, 3, 4], 7.0);
        t
    }

    #[test]
    fn build_counts_slices_and_fibers() {
        let t = sample3();
        let csf = Csf::build(&t, &identity_perm(3));
        csf.validate().unwrap();
        assert_eq!(csf.num_slices(), 3);
        assert_eq!(csf.num_fibers(), 4);
        assert_eq!(csf.nnz(), 7);
        assert_eq!(csf.level_idx[0], vec![0, 1, 2]);
        assert_eq!(csf.level_idx[1], vec![1, 0, 2, 3]);
        assert_eq!(csf.level_ptr[0], vec![0, 1, 3, 4]);
        assert_eq!(csf.level_ptr[1], vec![0, 1, 3, 4, 7]);
        assert_eq!(csf.leaf_idx, vec![1, 0, 2, 3, 0, 1, 4]);
    }

    #[test]
    fn fiber_lengths_and_slice_volumes() {
        let t = sample3();
        let csf = Csf::build(&t, &identity_perm(3));
        assert_eq!(csf.fiber_lengths(), vec![1, 2, 1, 3]);
        assert_eq!(csf.slice_volumes(), vec![1, 3, 3]);
        assert_eq!(csf.slice_nnz(2), 3);
    }

    #[test]
    fn to_coo_round_trips() {
        let mut t = sample3();
        for mode in 0..3 {
            let perm = mode_orientation(3, mode);
            let csf = Csf::build(&t, &perm);
            let mut back = csf.to_coo();
            back.sort_by_perm(&identity_perm(3));
            t.sort_by_perm(&identity_perm(3));
            assert_eq!(back, t, "round trip failed for mode {mode}");
        }
    }

    #[test]
    fn round_trip_order4_random() {
        let t = uniform_random(&[6, 7, 8, 9], 300, 11);
        for mode in 0..4 {
            let perm = mode_orientation(4, mode);
            let csf = Csf::build(&t, &perm);
            csf.validate().unwrap();
            let mut back = csf.to_coo();
            back.sort_by_perm(&identity_perm(4));
            let mut orig = t.clone();
            orig.sort_by_perm(&identity_perm(4));
            assert_eq!(back, orig);
        }
    }

    #[test]
    fn subtree_leaf_range_matches_walk() {
        let t = uniform_random(&[5, 6, 7], 100, 3);
        let csf = Csf::build(&t, &identity_perm(3));
        let mut total = 0usize;
        for s in 0..csf.num_slices() {
            let r = csf.subtree_leaf_range(0, s);
            assert_eq!(r.start, total);
            total = r.end;
        }
        assert_eq!(total, csf.nnz());
    }

    #[test]
    fn empty_tensor_builds() {
        let t = CooTensor::new(vec![3, 3, 3]);
        let csf = Csf::build(&t, &identity_perm(3));
        csf.validate().unwrap();
        assert_eq!(csf.num_slices(), 0);
        assert_eq!(csf.nnz(), 0);
        assert_eq!(csf.to_coo().nnz(), 0);
    }

    #[test]
    fn order2_matrix_csf_is_dcsr() {
        let mut t = CooTensor::new(vec![4, 4]);
        t.push(&[0, 1], 1.0);
        t.push(&[0, 3], 2.0);
        t.push(&[3, 2], 3.0);
        let csf = Csf::build(&t, &identity_perm(2));
        csf.validate().unwrap();
        // Two non-empty rows; fibers == slices for order 2.
        assert_eq!(csf.num_slices(), 2);
        assert_eq!(csf.num_fibers(), 2);
        assert_eq!(csf.level_idx[0], vec![0, 3]);
        assert_eq!(csf.leaf_idx, vec![1, 3, 2]);
    }

    #[test]
    fn order1_stream_is_a_typed_error() {
        let mut t = CooTensor::new(vec![5]);
        t.push(&[3], 1.0);
        let res = Csf::build_streamed(&mut t.sorted(&identity_perm(1)), 4);
        assert!(matches!(
            res,
            Err(TensorError::OrderTooLow {
                order: 1,
                min: 2,
                ..
            })
        ));
    }

    #[test]
    fn walk_visits_in_tree_order() {
        let t = sample3();
        let csf = Csf::build(&t, &identity_perm(3));
        let mut seen = Vec::new();
        csf.walk(&mut |coords, z| seen.push((coords.to_vec(), z)));
        assert_eq!(seen.len(), 7);
        assert_eq!(seen[0].0, vec![0, 1]);
        assert_eq!(seen[6], (vec![2, 3], 6));
    }
}
