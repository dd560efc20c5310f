//! Sparse TTM (tensor–times–matrix) — the companion kernel of MTTKRP in
//! the ParTI! library the paper compares against (Li et al., "Optimizing
//! sparse tensor times matrix on multi-core and many-core architectures",
//! cited as \[36\]).
//!
//! Mode-`n` TTM contracts the tensor's mode `n` with a dense matrix:
//!
//! ```text
//! Z(i₁, …, r, …, i_N) = Σ_{i_n} X(i₁, …, i_n, …, i_N) · M(i_n, r)
//! ```
//!
//! The result is *semi-sparse*: dense along the contracted mode (an
//! `R`-vector per surviving coordinate tuple), sparse elsewhere — the
//! [`SemiSparse`] type. The kernel runs on a CSF tree oriented with mode
//! `n` at the leaves, so each fiber reduces into exactly one output row
//! (rayon-parallel over slices, no synchronization).

use dense::Matrix;
use rayon::prelude::*;
use sptensor::{CooTensor, Index};
use tensor_formats::Csf;

/// A mode-`mode` semi-sparse tensor: `values.row(f)` is the dense
/// `R`-vector at the coordinates `(coords[0][f], …, coords[N-2][f])` of the
/// *remaining* modes (ascending original order, `mode` excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct SemiSparse {
    /// Original tensor extents.
    pub dims: Vec<Index>,
    /// The contracted (dense) mode.
    pub mode: usize,
    /// One array per remaining mode, each `num_rows` long.
    pub coords: Vec<Vec<Index>>,
    /// `num_rows × R` dense values.
    pub values: Matrix,
}

impl SemiSparse {
    /// Number of surviving sparse coordinate tuples.
    pub fn num_rows(&self) -> usize {
        self.values.rows()
    }

    /// The remaining modes, in the order `coords` stores them.
    pub fn remaining_modes(&self) -> Vec<usize> {
        (0..self.dims.len()).filter(|&m| m != self.mode).collect()
    }

    /// Looks up the dense vector at a full coordinate tuple of the
    /// remaining modes (linear scan; test-sized use only).
    pub fn get(&self, coords: &[Index]) -> Option<&[f32]> {
        (0..self.num_rows())
            .find(|&f| (0..coords.len()).all(|l| self.coords[l][f] == coords[l]))
            .map(|f| self.values.row(f))
    }
}

/// Mode-`mode` sparse TTM: `Z = X ×ₙ Mᵀ` with `M` of shape
/// `dims[mode] × R`.
///
/// # Panics
/// If `M`'s row count disagrees with the tensor's mode extent.
pub fn ttm(t: &CooTensor, m: &Matrix, mode: usize) -> SemiSparse {
    let order = t.order();
    assert!(mode < order, "mode out of range");
    assert_eq!(
        m.rows(),
        t.dims()[mode] as usize,
        "matrix rows must match the contracted mode's extent"
    );
    let r = m.cols();

    // Orientation with the contracted mode at the leaves and the remaining
    // modes ascending: each fiber is one output row.
    let mut perm: Vec<usize> = (0..order).filter(|&x| x != mode).collect();
    perm.push(mode);
    let csf = Csf::build(t, &perm);

    let fl = order - 2; // fiber level of the tree
    let nfibers = csf.num_fibers();
    // Fiber coordinates: the chain of internal-level indices per fiber.
    let mut coords: Vec<Vec<Index>> = vec![vec![0; nfibers]; order - 1];
    // Level l's coordinate, broadcast down to its subtree's fibers.
    for l in 0..=fl {
        for g in 0..csf.level_idx[l].len() {
            let (mut lo, mut hi) = (g, g + 1);
            for ll in l..fl {
                lo = csf.level_ptr[ll][lo] as usize;
                hi = csf.level_ptr[ll][hi] as usize;
            }
            let c = csf.level_idx[l][g];
            for f in lo..hi {
                coords[l][f] = c;
            }
        }
    }

    let mut values = Matrix::zeros(nfibers, r);
    {
        let data = values.data_mut();
        data.par_chunks_mut(r).enumerate().for_each(|(f, out)| {
            for z in csf.level_ptr[fl][f] as usize..csf.level_ptr[fl][f + 1] as usize {
                let row = m.row(csf.leaf_idx[z] as usize);
                let v = csf.vals[z];
                for (o, &x) in out.iter_mut().zip(row) {
                    *o += v * x;
                }
            }
        });
    }

    SemiSparse {
        dims: t.dims().to_vec(),
        mode,
        coords,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::random_factors;
    use sptensor::synth::uniform_random;

    /// Brute-force TTM on a dense copy.
    fn ttm_dense(t: &CooTensor, m: &Matrix, mode: usize, coords: &[Index]) -> Vec<f32> {
        let r = m.cols();
        let mut out = vec![0.0f32; r];
        let others: Vec<usize> = (0..t.order()).filter(|&x| x != mode).collect();
        for z in 0..t.nnz() {
            let matches = others
                .iter()
                .enumerate()
                .all(|(l, &om)| t.mode_indices(om)[z] == coords[l]);
            if matches {
                let k = t.mode_indices(mode)[z] as usize;
                for (o, c) in out.iter_mut().zip(0..r) {
                    *o += t.values()[z] * m.get(k, c);
                }
            }
        }
        out
    }

    #[test]
    fn matches_dense_contraction_every_mode() {
        let t = uniform_random(&[6, 7, 8], 120, 81);
        for mode in 0..3 {
            let m = random_factors(&t, 4, 9)[mode].clone();
            let z = ttm(&t, &m, mode);
            assert_eq!(z.mode, mode);
            for f in 0..z.num_rows() {
                let coords: Vec<Index> = (0..2).map(|l| z.coords[l][f]).collect();
                let expected = ttm_dense(&t, &m, mode, &coords);
                for (a, b) in z.values.row(f).iter().zip(&expected) {
                    assert!((a - b).abs() < 1e-4, "mode {mode} row {f}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn output_rows_equal_fiber_count_of_leaf_orientation() {
        let t = uniform_random(&[10, 12, 14], 400, 82);
        let m = random_factors(&t, 3, 10)[2].clone();
        let z = ttm(&t, &m, 2);
        // Rows = distinct (i, j) pairs.
        let mut pairs: Vec<(Index, Index)> = (0..t.nnz())
            .map(|x| (t.mode_indices(0)[x], t.mode_indices(1)[x]))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(z.num_rows(), pairs.len());
    }

    #[test]
    fn ttm_is_linear_in_the_matrix() {
        let t = uniform_random(&[5, 6, 7], 100, 83);
        let m = random_factors(&t, 4, 11)[1].clone();
        let mut m2 = m.clone();
        for v in m2.data_mut() {
            *v *= 3.0;
        }
        let a = ttm(&t, &m, 1);
        let b = ttm(&t, &m2, 1);
        for f in 0..a.num_rows() {
            for c in 0..4 {
                assert!((3.0 * a.values.get(f, c) - b.values.get(f, c)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn order4_ttm() {
        let t = uniform_random(&[4, 5, 6, 7], 200, 84);
        let m = random_factors(&t, 3, 12)[3].clone();
        let z = ttm(&t, &m, 3);
        assert_eq!(z.coords.len(), 3);
        let coords: Vec<Index> = (0..3).map(|l| z.coords[l][0]).collect();
        let expected = ttm_dense(&t, &m, 3, &coords);
        for (a, b) in z.values.row(0).iter().zip(&expected) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "matrix rows")]
    fn rejects_shape_mismatch() {
        let t = uniform_random(&[4, 5, 6], 50, 85);
        let m = Matrix::zeros(99, 3);
        ttm(&t, &m, 0);
    }

    #[test]
    fn empty_tensor_gives_empty_output() {
        let t = CooTensor::new(vec![3, 4, 5]);
        let m = Matrix::zeros(5, 4);
        let z = ttm(&t, &m, 2);
        assert_eq!(z.num_rows(), 0);
    }
}
