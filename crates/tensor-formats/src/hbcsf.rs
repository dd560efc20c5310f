//! HB-CSF (Hybrid B-CSF) — paper Section V, Algorithm 5.
//!
//! B-CSF fixes the heavy-slice/heavy-fiber end of the distribution; HB-CSF
//! fixes the other end, where CSF's slice and fiber pointers are pure
//! overhead. Slices are classified into three groups:
//!
//! 1. **COO** — slices with a single nonzero: both pointer levels are
//!    redundant; store the full coordinate tuple.
//! 2. **CSL** — slices whose fibers all hold exactly one nonzero: the fiber
//!    level is redundant; store slice pointers directly over nonzeros.
//! 3. **B-CSF** — everything else keeps the full (balanced) CSF tree.
//!
//! The MTTKRP kernel then runs the three specialized sub-kernels
//! (Algorithm 5 lines 18-20), each with the minimal operation count for its
//! group — this is why HB-CSF beats both plain COO and B-CSF on tensors
//! like flick-3d and fr_s (Fig. 8).

use sptensor::dims::{invert_perm, ModePerm};
use sptensor::TensorError;
use sptensor::{CooTensor, Index, Value};

use crate::bcsf::{Bcsf, BcsfOptions};
use crate::csf::Csf;
use crate::csl::Csl;

/// Which storage group a slice landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceClass {
    /// Single-nonzero slice → coordinate storage.
    Coo,
    /// All-singleton-fiber slice (with ≥ 2 nonzeros) → CSL.
    Csl,
    /// Everything else → (balanced) CSF.
    Csf,
}

/// A tensor partitioned into COO + CSL + B-CSF groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Hbcsf {
    /// Extents in original mode order.
    pub dims: Vec<Index>,
    pub perm: ModePerm,
    pub options: BcsfOptions,
    /// Classification of each slice of the *original* CSF tree, in slice
    /// order (diagnostics / tests; kernels use the three parts directly).
    pub classes: Vec<SliceClass>,
    /// COO group: `coo_coord[l][e]` is the level-`l` (mode `perm[l]`)
    /// coordinate of entry `e`. One entry per single-nonzero slice.
    pub coo_coord: Vec<Vec<Index>>,
    pub coo_vals: Vec<Value>,
    /// CSL group.
    pub csl: Csl,
    /// B-CSF group (with splitting applied per `options`).
    pub bcsf: Bcsf,
}

impl Hbcsf {
    /// Builds HB-CSF for `t` under `perm`: the CSF tree of [`Csf::build`],
    /// partitioned by [`Hbcsf::from_csf`].
    ///
    /// ```
    /// use sptensor::{CooTensor, mode_orientation};
    /// use tensor_formats::{Hbcsf, BcsfOptions, SliceClass};
    ///
    /// let mut t = CooTensor::new(vec![3, 5, 6]);
    /// t.push(&[0, 4, 2], 1.0);                    // 1 nonzero  -> COO
    /// t.push(&[1, 0, 3], 2.0);                    // singleton fibers
    /// t.push(&[1, 1, 0], 3.0);                    //            -> CSL
    /// t.push(&[2, 2, 0], 4.0);                    // 2-leaf fiber
    /// t.push(&[2, 2, 4], 5.0);                    //            -> CSF
    ///
    /// let hb = Hbcsf::build(&t, &mode_orientation(3, 0), BcsfOptions::default());
    /// assert_eq!(hb.classes,
    ///            vec![SliceClass::Coo, SliceClass::Csl, SliceClass::Csf]);
    /// assert_eq!(hb.group_nnz(), (1, 2, 2));
    /// ```
    pub fn build(t: &CooTensor, perm: &ModePerm, options: BcsfOptions) -> Hbcsf {
        Hbcsf::from_csf(Csf::build(t, perm), options)
    }

    /// Partitions an existing CSF tree, as Algorithm 5 does: classify each
    /// slice, then copy it into its group's encoding.
    pub fn from_csf(csf: Csf, options: BcsfOptions) -> Hbcsf {
        let order = csf.order();
        assert!(order >= 3, "HB-CSF is defined for order >= 3 tensors");
        let fl = order - 2;

        let mut classes = Vec::with_capacity(csf.num_slices());
        let mut coo_slices = Vec::new();
        let mut csl_slices = Vec::new();
        let mut csf_slices = Vec::new();
        for s in 0..csf.num_slices() {
            let nnz = csf.slice_nnz(s);
            let class = if nnz == 1 {
                SliceClass::Coo
            } else if slice_fibers_all_singleton(&csf, s, fl) {
                SliceClass::Csl
            } else {
                SliceClass::Csf
            };
            classes.push(class);
            match class {
                SliceClass::Coo => coo_slices.push(s),
                SliceClass::Csl => csl_slices.push(s),
                SliceClass::Csf => csf_slices.push(s),
            }
        }

        // COO group: one entry per slice; flatten via the CSL extractor.
        let Csl {
            slice_idx,
            coord,
            vals: coo_vals,
            ..
        } = Csl::from_csf_slices(&csf, &coo_slices);
        let coo_coord: Vec<Vec<Index>> = std::iter::once(slice_idx).chain(coord).collect();

        let csl = Csl::from_csf_slices(&csf, &csl_slices);
        let bcsf_csf = extract_slices(&csf, &csf_slices);
        let bcsf = Bcsf::from_csf(bcsf_csf, options);

        let out = Hbcsf {
            dims: csf.dims.clone(),
            perm: csf.perm.clone(),
            options,
            classes,
            coo_coord,
            coo_vals,
            csl,
            bcsf,
        };
        // Malformed builds must fail at creation, not at kernel time.
        #[cfg(debug_assertions)]
        out.validate().expect("freshly built HB-CSF must validate");
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

    /// Total nonzeros across the three groups.
    pub fn nnz(&self) -> usize {
        self.coo_vals.len() + self.csl.nnz() + self.bcsf.nnz()
    }

    /// Nonzero counts per group `(coo, csl, bcsf)`.
    pub fn group_nnz(&self) -> (usize, usize, usize) {
        (self.coo_vals.len(), self.csl.nnz(), self.bcsf.nnz())
    }

    /// Reconstructs COO with coordinates in original mode order (entries in
    /// group order, not globally sorted).
    pub fn to_coo(&self) -> CooTensor {
        let order = self.order();
        let inv = invert_perm(&self.perm);
        let mut out = CooTensor::new(self.dims.clone());
        // COO group.
        let mut coord = vec![0 as Index; order];
        for e in 0..self.coo_vals.len() {
            for mode in 0..order {
                coord[mode] = self.coo_coord[inv[mode]][e];
            }
            out.push(&coord, self.coo_vals[e]);
        }
        // CSL group.
        let csl_coo = self.csl.to_coo();
        for e in csl_coo.iter_entries() {
            out.push(&e.coords, e.val);
        }
        // B-CSF group.
        let bcsf_coo = self.bcsf.csf.to_coo();
        for e in bcsf_coo.iter_entries() {
            out.push(&e.coords, e.val);
        }
        out
    }

    /// Structural invariants: groups are disjoint, cover everything, and
    /// each group satisfies its defining property.
    pub fn validate(&self) -> Result<(), TensorError> {
        let fail = |msg: String| Err(TensorError::invalid("hb-csf", msg));
        self.csl.validate()?;
        self.bcsf.validate()?;
        if self.coo_coord.len() != self.order() {
            return fail("COO group must store all coordinates".into());
        }
        for arr in &self.coo_coord {
            if arr.len() != self.coo_vals.len() {
                return fail("COO group array length mismatch".into());
            }
        }
        // Every CSL slice: all fibers singleton means nnz per (slice,
        // middle-coords) combination is 1 — verified by uniqueness of the
        // leading order-1 coordinates within each slice.
        for s in 0..self.csl.num_slices() {
            let r = self.csl.slice_range(s);
            let mut seen = std::collections::HashSet::new();
            for z in r {
                let key: Vec<Index> = self.csl.coord[..self.order() - 2]
                    .iter()
                    .map(|arr| arr[z])
                    .collect();
                if !seen.insert(key) {
                    return fail(format!("CSL slice {s} has a non-singleton fiber"));
                }
            }
        }
        // Class counts must match group sizes.
        let coo_n = self
            .classes
            .iter()
            .filter(|&&c| c == SliceClass::Coo)
            .count();
        if coo_n != self.coo_vals.len() {
            return fail("COO class count mismatch".into());
        }
        let csl_n = self
            .classes
            .iter()
            .filter(|&&c| c == SliceClass::Csl)
            .count();
        if csl_n != self.csl.num_slices() {
            return fail("CSL class count mismatch".into());
        }
        let csf_n = self
            .classes
            .iter()
            .filter(|&&c| c == SliceClass::Csf)
            .count();
        if csf_n != self.bcsf.csf.num_slices() {
            return fail("CSF class count mismatch".into());
        }
        Ok(())
    }
}

/// True when every fiber of slice `s` has exactly one leaf.
fn slice_fibers_all_singleton(csf: &Csf, s: usize, fl: usize) -> bool {
    let (mut lo, mut hi) = (s, s + 1);
    for l in 0..fl {
        lo = csf.level_ptr[l][lo] as usize;
        hi = csf.level_ptr[l][hi] as usize;
    }
    (lo..hi).all(|f| csf.level_ptr[fl][f + 1] - csf.level_ptr[fl][f] == 1)
}

/// Copies the given slices' subtrees (ascending slice order) into a new
/// CSF tree, rebasing each level's pointers onto the copied children.
fn extract_slices(csf: &Csf, slices: &[usize]) -> Csf {
    let nlev = csf.order() - 1;
    let m: usize = slices.iter().map(|&s| csf.slice_nnz(s)).sum();
    // Groups per level, so every array is reserved at its final length:
    // an HB-CSF plan keeps them for its whole life.
    let mut groups = vec![0usize; nlev];
    for &s in slices {
        let (mut lo, mut hi) = (s, s + 1);
        for (l, g) in groups.iter_mut().enumerate() {
            *g += hi - lo;
            let ptr = &csf.level_ptr[l];
            (lo, hi) = (ptr[lo] as usize, ptr[hi] as usize);
        }
    }
    let mut level_idx: Vec<Vec<Index>> = groups.iter().map(|&g| Vec::with_capacity(g)).collect();
    let mut level_ptr: Vec<Vec<u32>> = groups.iter().map(|&g| Vec::with_capacity(g + 1)).collect();
    let mut leaf_idx = Vec::with_capacity(m);
    let mut vals = Vec::with_capacity(m);
    for &s in slices {
        // Groups `lo..hi` of level `l` belong to slice `s`.
        let (mut lo, mut hi) = (s, s + 1);
        for l in 0..nlev {
            let ptr = &csf.level_ptr[l];
            let first_child = ptr[lo];
            let base = if l + 1 < nlev {
                level_idx[l + 1].len()
            } else {
                leaf_idx.len()
            } as u32;
            level_idx[l].extend_from_slice(&csf.level_idx[l][lo..hi]);
            level_ptr[l].extend(ptr[lo..hi].iter().map(|&p| p - first_child + base));
            (lo, hi) = (first_child as usize, ptr[hi] as usize);
        }
        leaf_idx.extend_from_slice(&csf.leaf_idx[lo..hi]);
        vals.extend_from_slice(&csf.vals[lo..hi]);
    }
    for l in 0..nlev {
        let end = if l + 1 < nlev {
            level_idx[l + 1].len()
        } else {
            m
        };
        level_ptr[l].push(end as u32);
    }
    Csf {
        dims: csf.dims.clone(),
        perm: csf.perm.clone(),
        level_idx,
        level_ptr,
        leaf_idx,
        vals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::dims::identity_perm;
    use sptensor::synth::{standin, uniform_random, SynthConfig};

    /// Slice 0: one nonzero (COO). Slice 1: three singleton fibers (CSL).
    /// Slice 2: a 3-leaf fiber (CSF).
    fn mixed() -> CooTensor {
        let mut t = CooTensor::new(vec![3, 5, 6]);
        t.push(&[0, 4, 2], 1.0);
        t.push(&[1, 0, 3], 2.0);
        t.push(&[1, 1, 0], 3.0);
        t.push(&[1, 3, 5], 4.0);
        t.push(&[2, 2, 0], 5.0);
        t.push(&[2, 2, 1], 6.0);
        t.push(&[2, 2, 4], 7.0);
        t
    }

    #[test]
    fn classification_matches_algorithm5() {
        let t = mixed();
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        h.validate().unwrap();
        assert_eq!(
            h.classes,
            vec![SliceClass::Coo, SliceClass::Csl, SliceClass::Csf]
        );
        assert_eq!(h.group_nnz(), (1, 3, 3));
    }

    #[test]
    fn groups_partition_the_tensor() {
        let t = mixed();
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        assert_eq!(h.nnz(), t.nnz());
        let mut back = h.to_coo();
        back.sort_by_perm(&identity_perm(3));
        let mut orig = t.clone();
        orig.sort_by_perm(&identity_perm(3));
        assert_eq!(back, orig);
    }

    #[test]
    fn random_tensors_round_trip_all_modes() {
        let t = uniform_random(&[8, 9, 10], 300, 5);
        for mode in 0..3 {
            let perm = sptensor::mode_orientation(3, mode);
            let h = Hbcsf::build(&t, &perm, BcsfOptions::default());
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
    fn order4_partition() {
        let t = uniform_random(&[6, 5, 4, 7], 250, 8);
        let h = Hbcsf::build(&t, &identity_perm(4), BcsfOptions::default());
        h.validate().unwrap();
        assert_eq!(h.nnz(), t.nnz());
    }

    #[test]
    fn freebase_standin_is_mostly_csl_or_coo() {
        // fr_m: all fibers singleton -> no slice should land in B-CSF.
        let t = standin("fr_m").unwrap().generate(&SynthConfig::tiny());
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        h.validate().unwrap();
        let (coo, csl, bcsf) = h.group_nnz();
        // Nearly all fibers are singletons; only the rare artist-collision
        // slices may land in the B-CSF group.
        assert!(
            (bcsf as f64) < 0.05 * t.nnz() as f64,
            "fr_m should have almost no CSF-class nonzeros, got {bcsf}"
        );
        assert_eq!(coo + csl + bcsf, t.nnz());
        assert!(csl > 0, "multi-fiber singleton slices should be CSL");
    }

    #[test]
    fn dense_standin_is_mostly_csf() {
        let t = standin("nell2").unwrap().generate(&SynthConfig::tiny());
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        let (_, _, bcsf) = h.group_nnz();
        assert!(
            bcsf as f64 > 0.5 * t.nnz() as f64,
            "nell2 should be dominated by CSF-class slices ({bcsf} of {})",
            t.nnz()
        );
    }

    #[test]
    fn empty_tensor() {
        let t = CooTensor::new(vec![2, 2, 2]);
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        h.validate().unwrap();
        assert_eq!(h.nnz(), 0);
        assert_eq!(h.classes.len(), 0);
    }
}
