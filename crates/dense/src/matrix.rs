//! Row-major `f32` matrix with the operations CPD-ALS needs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::UpdateBuffers;

/// A dense row-major matrix of `f32`.
///
/// Factor matrices in MTTKRP are tall and skinny (`rows × R`, `R = 32` in
/// the paper); row-major layout makes a factor row `B(j, :)` contiguous,
/// which is exactly the access pattern of every MTTKRP kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Seeded uniform-random matrix in `[0, 1)`; the standard CPD-ALS factor
    /// initialization.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen::<f32>()).collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Contiguous row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self * other`. Each element sums its terms in `f64` in ascending
    /// `k`, then rounds once to `f32`. Runs the row-blocked kernel of
    /// [`UpdateBuffers::matmul_into`]: CPD-ALS multiplies every
    /// `rows × R` factor by an `R × R` matrix, so this is a hot path.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        UpdateBuffers::new().matmul_into(self, other, &mut out);
        out
    }

    /// Gram matrix `selfᵀ · self` (`cols × cols`), the `BᵀB` of Eq. (3).
    /// Each entry sums in `f64` over ascending rows; see
    /// [`UpdateBuffers::gram_into`].
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        UpdateBuffers::new().gram_into(self, &mut out, None);
        out
    }

    /// Element-wise (Hadamard) product, the `∗` of Eq. (3).
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hadamard row mismatch");
        assert_eq!(self.cols, other.cols, "hadamard col mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm (`f64` internally).
    pub fn fro_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Relative Frobenius difference `‖self − other‖ / max(‖other‖, ε)`;
    /// the tolerance check used by all differential kernel tests.
    pub fn rel_fro_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let mut num = 0.0f64;
        for (&a, &b) in self.data.iter().zip(&other.data) {
            let d = a as f64 - b as f64;
            num += d * d;
        }
        num.sqrt() / other.fro_norm().max(1e-30)
    }

    /// Normalizes each column to unit 2-norm and returns the norms
    /// (the `λ` vector of CPD-ALS line 5). Zero columns are left untouched
    /// and report norm 0.
    pub fn normalize_columns(&mut self) -> Vec<f32> {
        UpdateBuffers::new().normalize_columns(self)
    }

    /// Reshapes to `rows × cols` in place, keeping the allocation; the
    /// contents are unspecified afterwards. For output buffers reused
    /// across shapes.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::random(4, 4, 9);
        let c = a.matmul(&Matrix::identity(4));
        assert!(a.rel_fro_diff(&c) < 1e-6);
    }

    #[test]
    fn gram_matches_explicit_transpose_matmul() {
        let a = Matrix::random(7, 3, 11);
        let g1 = a.gram();
        let mut at = Matrix::zeros(3, 7);
        for i in 0..7 {
            for j in 0..3 {
                at.set(j, i, a.get(i, j));
            }
        }
        let g2 = at.matmul(&a);
        assert!(g1.rel_fro_diff(&g2) < 1e-4);
        // Symmetry.
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g1.get(i, j), g1.get(j, i));
            }
        }
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![2.0, 0.5, -1.0, 2.0]);
        assert_eq!(a.hadamard(&b).data(), &[2.0, 1.0, -3.0, 8.0]);
    }

    #[test]
    fn normalize_columns_unit_norm() {
        let mut a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 4.0, 0.0]);
        let norms = a.normalize_columns();
        assert!((norms[0] - 5.0).abs() < 1e-6);
        assert_eq!(norms[1], 0.0);
        assert!((a.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((a.get(1, 0) - 0.8).abs() < 1e-6);
        // Zero column untouched.
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn fro_norm_known() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.fro_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rel_fro_diff_zero_for_equal() {
        let a = Matrix::random(5, 4, 3);
        assert_eq!(a.rel_fro_diff(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn random_is_seeded() {
        assert_eq!(Matrix::random(3, 3, 5), Matrix::random(3, 3, 5));
        assert_ne!(Matrix::random(3, 3, 5), Matrix::random(3, 3, 6));
    }
}
