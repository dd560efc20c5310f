//! Sequential COO MTTKRP — paper Algorithm 2, generalized to order `N`.
//!
//! This is the ground truth for every other kernel: simple enough to audit
//! by eye, checked against the explicit Khatri–Rao definition
//! (`Y = X₍ₙ₎ (⊙ₘ≠ₙ Aₘ)`) on tiny tensors in this module's tests.

use dense::Matrix;
use sptensor::CooTensor;

/// Mode-`mode` MTTKRP of `t` with the given factor matrices.
///
/// `factors[m]` must have `t.dims()[m]` rows; all factors share the same
/// column count `R`. `factors[mode]` is ignored (it is what CPD-ALS is
/// about to overwrite).
///
/// # Panics
/// If factor shapes are inconsistent with the tensor.
pub fn mttkrp(t: &CooTensor, factors: &[Matrix], mode: usize) -> Matrix {
    let (order, r) = check_shapes(t, factors, mode);
    let mut y = Matrix::zeros(t.dims()[mode] as usize, r);
    let vals = t.values();
    let mut acc = vec![0.0f32; r];
    for z in 0..t.nnz() {
        let v = vals[z];
        for a in acc.iter_mut() {
            *a = v;
        }
        for m in 0..order {
            if m == mode {
                continue;
            }
            let row = factors[m].row(t.mode_indices(m)[z] as usize);
            for (a, &f) in acc.iter_mut().zip(row) {
                *a *= f;
            }
        }
        let out = y.row_mut(t.mode_indices(mode)[z] as usize);
        for (o, &a) in out.iter_mut().zip(&acc) {
            *o += a;
        }
    }
    y
}

/// Recomputes mode-`mode` MTTKRP for a subset of output rows only.
///
/// Used by the ABFT degrade path: after retries are exhausted, the rows
/// still flagged as corrupted are recomputed on the "host" with this
/// sequential kernel and patched over the GPU output. Rows not listed in
/// `rows` are left at zero in the returned matrix.
///
/// # Panics
/// If factor shapes are inconsistent with the tensor.
pub fn mttkrp_rows(t: &CooTensor, factors: &[Matrix], mode: usize, rows: &[u32]) -> Matrix {
    let (order, r) = check_shapes(t, factors, mode);
    let mut y = Matrix::zeros(t.dims()[mode] as usize, r);
    if rows.is_empty() {
        return y;
    }
    let wanted: std::collections::HashSet<u32> = rows.iter().copied().collect();
    let vals = t.values();
    let mut acc = vec![0.0f32; r];
    for z in 0..t.nnz() {
        let i = t.mode_indices(mode)[z];
        if !wanted.contains(&i) {
            continue;
        }
        let v = vals[z];
        for a in acc.iter_mut() {
            *a = v;
        }
        for m in 0..order {
            if m == mode {
                continue;
            }
            let row = factors[m].row(t.mode_indices(m)[z] as usize);
            for (a, &f) in acc.iter_mut().zip(row) {
                *a *= f;
            }
        }
        let out = y.row_mut(i as usize);
        for (o, &a) in out.iter_mut().zip(&acc) {
            *o += a;
        }
    }
    y
}

/// Validates tensor/factor shape agreement; returns `(order, rank)`.
pub fn check_shapes(t: &CooTensor, factors: &[Matrix], mode: usize) -> (usize, usize) {
    let order = t.order();
    assert!(mode < order, "mode {mode} out of range");
    assert_eq!(factors.len(), order, "need one factor matrix per mode");
    let r = factors[0].cols();
    for (m, f) in factors.iter().enumerate() {
        assert_eq!(f.cols(), r, "factor {m} rank mismatch");
        assert_eq!(
            f.rows(),
            t.dims()[m] as usize,
            "factor {m} row count mismatch"
        );
    }
    (order, r)
}

/// Seeded random factor matrices for a tensor — the standard test/benchmark
/// input (`factors[m]` is `dims[m] × r`).
pub fn random_factors(t: &CooTensor, r: usize, seed: u64) -> Vec<Matrix> {
    random_factors_for_dims(t.dims(), r, seed)
}

/// [`random_factors`] from dimensions alone — for drivers (e.g. the
/// streaming CPD) that never materialize the tensor. Identical seeding, so
/// the factors match `random_factors` on a tensor of the same shape.
pub fn random_factors_for_dims(dims: &[sptensor::Index], r: usize, seed: u64) -> Vec<Matrix> {
    dims.iter()
        .enumerate()
        .map(|(m, &d)| Matrix::random(d as usize, r, seed.wrapping_add(m as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::khatri_rao;
    use sptensor::synth::uniform_random;
    use sptensor::CooTensor;

    /// Brute-force MTTKRP via explicit matricization and Khatri–Rao.
    fn mttkrp_via_kr(t: &CooTensor, factors: &[Matrix], mode: usize) -> Matrix {
        let r = factors[0].cols();
        let order = t.order();
        // kr over the non-mode factors, with the *first remaining mode
        // slowest* so the column index of X(n) is Σ coords × strides in
        // ascending-mode order matching khatri_rao's odometer.
        let others: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
        let mats: Vec<&Matrix> = others.iter().map(|&m| &factors[m]).collect();
        let kr = khatri_rao(&mats);
        let mut y = Matrix::zeros(t.dims()[mode] as usize, r);
        for z in 0..t.nnz() {
            // Flattened column index of this nonzero.
            let mut col = 0usize;
            for &m in &others {
                col = col * t.dims()[m] as usize + t.mode_indices(m)[z] as usize;
            }
            let i = t.mode_indices(mode)[z] as usize;
            let v = t.values()[z];
            for c in 0..r {
                let val = y.get(i, c) + v * kr.get(col, c);
                y.set(i, c, val);
            }
        }
        y
    }

    #[test]
    fn matches_khatri_rao_definition_3d() {
        let t = uniform_random(&[4, 5, 6], 40, 7);
        let factors = random_factors(&t, 3, 1);
        for mode in 0..3 {
            let fast = mttkrp(&t, &factors, mode);
            let slow = mttkrp_via_kr(&t, &factors, mode);
            assert!(
                fast.rel_fro_diff(&slow) < 1e-5,
                "mode {mode}: diff {}",
                fast.rel_fro_diff(&slow)
            );
        }
    }

    #[test]
    fn matches_khatri_rao_definition_4d() {
        let t = uniform_random(&[3, 4, 5, 6], 60, 8);
        let factors = random_factors(&t, 2, 2);
        for mode in 0..4 {
            let fast = mttkrp(&t, &factors, mode);
            let slow = mttkrp_via_kr(&t, &factors, mode);
            assert!(fast.rel_fro_diff(&slow) < 1e-5, "mode {mode}");
        }
    }

    #[test]
    fn single_nonzero_hand_computed() {
        let mut t = CooTensor::new(vec![2, 2, 2]);
        t.push(&[1, 0, 1], 2.0);
        let factors = vec![
            Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]),
            Matrix::from_vec(2, 2, vec![9.0, 10.0, 11.0, 12.0]),
        ];
        // Y(1, r) = 2 * B(0, r) * C(1, r) = 2 * [5,6] * [11,12].
        let y = mttkrp(&t, &factors, 0);
        assert_eq!(y.row(0), &[0.0, 0.0]);
        assert_eq!(y.row(1), &[110.0, 144.0]);
    }

    #[test]
    fn empty_tensor_gives_zero_output() {
        let t = CooTensor::new(vec![3, 3, 3]);
        let factors = random_factors(&t, 4, 3);
        let y = mttkrp(&t, &factors, 1);
        assert_eq!(y.rows(), 3);
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn rejects_bad_factor_shape() {
        let t = uniform_random(&[4, 5, 6], 10, 1);
        let mut factors = random_factors(&t, 3, 1);
        factors[1] = Matrix::zeros(4, 3); // should be 5 rows
        mttkrp(&t, &factors, 0);
    }
}
