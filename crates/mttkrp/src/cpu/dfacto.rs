//! DFacTo-style MTTKRP — Choi & Vishwanathan's reformulation as SpMV
//! pairs (paper Section VII: "DFacTo ... develops an algorithm to perform
//! an MTTKRP by computing multiple SpMVs ... one column at a time with two
//! SpMV operations, which requires 2R(M + F) operations").
//!
//! For mode-1 of a third-order tensor, column `r` of the output is
//!
//! ```text
//! Y(:, r) = X₍₁₎ · (B(:,r) ⊗ C(:,r))
//! ```
//!
//! computed in two stages that never materialize the Khatri–Rao column:
//! 1. `z = F · C(:, r)` where `F` is the `#fibers × K` matrix holding each
//!    non-empty fiber's nonzeros — one SpMV, `R·M` multiply-adds total;
//! 2. `Y(i, r) += z[f] · B(j_f, r)` for every fiber `f = (i, j_f)` — the
//!    second (implicit) SpMV, `R·F` multiply-adds.
//!
//! The intermediate `z` (one value per fiber per column) is the "large
//! intermediate storage" the paper holds against DFacTo; here it is `F`
//! floats reused across columns.

use dense::Matrix;
use sptensor::dims::mode_orientation;
use sptensor::{CooTensor, Index};
use tensor_formats::Csr;

use crate::reference::check_shapes;

/// The per-mode DFacTo representation of a third-order tensor.
#[derive(Debug, Clone)]
pub struct Dfacto {
    pub mode: usize,
    /// Output row `i` of each non-empty fiber.
    fiber_out: Vec<Index>,
    /// Middle-mode index `j` of each non-empty fiber.
    fiber_mid: Vec<Index>,
    /// Middle-mode original axis (the `B` factor's mode).
    mid_mode: usize,
    /// Leaf-mode original axis (the `C` factor's mode).
    leaf_mode: usize,
    /// `#fibers × K` sparse matrix of the fibers' nonzeros.
    fibers: Csr,
    /// Output row count.
    out_rows: usize,
}

impl Dfacto {
    /// Builds the mode-`mode` representation.
    ///
    /// # Panics
    /// If the tensor is not third-order (DFacTo's published setting).
    pub fn build(t: &CooTensor, mode: usize) -> Dfacto {
        assert_eq!(t.order(), 3, "DFacTo is defined for third-order tensors");
        let perm = mode_orientation(3, mode);
        let sorted = t.sorted(&perm);
        let (out_m, mid_m, leaf_m) = (perm[0], perm[1], perm[2]);
        let out = sorted.gather(out_m);
        let mid = sorted.gather(mid_m);
        let leaf = sorted.gather(leaf_m);
        let vals = sorted.gather_values();

        let mut fiber_out = Vec::new();
        let mut fiber_mid = Vec::new();
        let mut triplets = Vec::with_capacity(t.nnz());
        for z in 0..t.nnz() {
            let new_fiber = z == 0 || out[z] != out[z - 1] || mid[z] != mid[z - 1];
            if new_fiber {
                fiber_out.push(out[z]);
                fiber_mid.push(mid[z]);
            }
            let f = (fiber_out.len() - 1) as Index;
            triplets.push((f, leaf[z], vals[z]));
        }
        let nfibers = fiber_out.len() as Index;
        let fibers = Csr::from_triplets(nfibers, t.dims()[leaf_m], triplets);
        Dfacto {
            mode,
            fiber_out,
            fiber_mid,
            mid_mode: mid_m,
            leaf_mode: leaf_m,
            fibers,
            out_rows: t.dims()[mode] as usize,
        }
    }

    /// Number of non-empty fibers `F` (the second SpMV's work).
    pub fn num_fibers(&self) -> usize {
        self.fiber_out.len()
    }

    /// Mode-`self.mode` MTTKRP, one column pair of SpMVs at a time.
    pub fn mttkrp(&self, factors: &[Matrix]) -> Matrix {
        let r = factors[0].cols();
        let mut y = Matrix::zeros(self.out_rows, r);
        let k = self.fibers.cols as usize;
        let mut column = vec![0.0f32; k];
        for c in 0..r {
            // Stage 1: z = F · C(:, c).
            for (kk, cc) in column.iter_mut().enumerate() {
                *cc = factors[self.leaf_mode].get(kk, c);
            }
            let z = self.fibers.spmv(&column);
            // Stage 2: scatter through B(j, c) into Y(:, c).
            for (f, &zf) in z.iter().enumerate() {
                let i = self.fiber_out[f] as usize;
                let j = self.fiber_mid[f] as usize;
                let val = y.get(i, c) + zf * factors[self.mid_mode].get(j, c);
                y.set(i, c, val);
            }
        }
        y
    }

    /// DFacTo's operation count, `2R(M + F)` (paper Section VII).
    pub fn op_count(&self, r: usize) -> u64 {
        2 * r as u64 * (self.fibers.nnz() as u64 + self.num_fibers() as u64)
    }
}

/// Convenience one-shot.
pub fn mttkrp(t: &CooTensor, factors: &[Matrix], mode: usize) -> Matrix {
    check_shapes(t, factors, mode);
    Dfacto::build(t, mode).mttkrp(factors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sptensor::synth::{standin, uniform_random, SynthConfig};

    #[test]
    fn matches_reference_all_modes() {
        let t = uniform_random(&[15, 18, 21], 900, 51);
        let factors = reference::random_factors(&t, 7, 23);
        for mode in 0..3 {
            let y = mttkrp(&t, &factors, mode);
            let expected = reference::mttkrp(&t, &factors, mode);
            assert!(
                crate::outputs_match(&y, &expected),
                "mode {mode} diff {}",
                y.rel_fro_diff(&expected)
            );
        }
    }

    #[test]
    #[should_panic(expected = "third-order")]
    fn rejects_4d() {
        let t = uniform_random(&[4, 4, 4, 4], 50, 52);
        Dfacto::build(&t, 0);
    }

    #[test]
    fn fiber_count_matches_csf() {
        let t = uniform_random(&[10, 12, 14], 500, 53);
        let d = Dfacto::build(&t, 0);
        let csf = tensor_formats::Csf::build(&t, &sptensor::mode_orientation(3, 0));
        assert_eq!(d.num_fibers(), csf.num_fibers());
        // Paper op counts: DFacTo 2R(M+F) vs COO 3MR.
        assert_eq!(
            d.op_count(8),
            2 * 8 * (t.nnz() as u64 + csf.num_fibers() as u64)
        );
    }

    #[test]
    fn correct_on_standin() {
        let t = standin("deli").unwrap().generate(&SynthConfig::tiny());
        let factors = reference::random_factors(&t, 8, 24);
        let y = mttkrp(&t, &factors, 0);
        let expected = reference::mttkrp(&t, &factors, 0);
        assert!(crate::outputs_match(&y, &expected));
    }

    #[test]
    fn empty_tensor() {
        let t = CooTensor::new(vec![3, 3, 3]);
        let factors = reference::random_factors(&t, 4, 25);
        let y = mttkrp(&t, &factors, 1);
        assert!(y.data().iter().all(|&v| v == 0.0));
    }
}
