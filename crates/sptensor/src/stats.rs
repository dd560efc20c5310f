//! Slice/fiber distribution statistics.
//!
//! The paper's load-imbalance analysis (Table II and Section IV) is driven
//! by two distributions per mode orientation: *nonzeros per slice* (the work
//! a thread block receives) and *nonzeros per fiber* (the work a warp
//! receives). This module computes both, plus the singleton fractions that
//! drive HB-CSF's three-way slice classification (Algorithm 5).
//!
//! Terminology for an order-`N` tensor under orientation `perm`:
//! a **slice** is a maximal run of nonzeros sharing the level-0 index
//! (`perm[0]`-mode coordinate); a **fiber** is a maximal run sharing the
//! first `N-1` levels. For `N = 3` these coincide with the paper's
//! `X(i,:,:)` slices and `X(i,j,:)` fibers.

use crate::dims::{mode_orientation, ModePerm};
use crate::CooTensor;

/// Five-number summary of an integer distribution.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SummaryStats {
    pub count: usize,
    pub mean: f64,
    /// Population standard deviation (what nvprof-era papers report).
    pub stdev: f64,
    pub min: usize,
    pub max: usize,
}

impl SummaryStats {
    /// Summary of a sample of counts. Empty input yields all-zero stats.
    pub fn of(values: &[usize]) -> SummaryStats {
        if values.is_empty() {
            return SummaryStats {
                count: 0,
                mean: 0.0,
                stdev: 0.0,
                min: 0,
                max: 0,
            };
        }
        let count = values.len();
        let sum: f64 = values.iter().map(|&v| v as f64).sum();
        let mean = sum / count as f64;
        let var: f64 = values
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        SummaryStats {
            count,
            mean,
            stdev: var.sqrt(),
            min: *values.iter().min().unwrap(),
            max: *values.iter().max().unwrap(),
        }
    }
}

/// Distribution statistics for one mode orientation.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ModeStats {
    /// The output mode (level-0 mode of the orientation).
    pub mode: usize,
    pub nnz: usize,
    /// Number of non-empty slices (`S` in the paper).
    pub num_slices: usize,
    /// Number of non-empty fibers (`F` in the paper).
    pub num_fibers: usize,
    pub nnz_per_slice: SummaryStats,
    pub nnz_per_fiber: SummaryStats,
    /// Fraction of slices containing exactly one nonzero (HB-CSF → COO group).
    pub singleton_slice_fraction: f64,
    /// Fraction of fibers containing exactly one nonzero.
    pub singleton_fiber_fraction: f64,
    /// Fraction of slices all of whose fibers are singletons but that hold
    /// more than one nonzero (HB-CSF → CSL group).
    pub csl_slice_fraction: f64,
}

/// Statistics for every mode orientation of a tensor.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TensorStats {
    pub per_mode: Vec<ModeStats>,
}

impl TensorStats {
    /// Computes stats for all `N` orientations (one argsort per
    /// orientation; the tensor is not copied).
    pub fn compute(t: &CooTensor) -> TensorStats {
        let per_mode = (0..t.order()).map(|m| ModeStats::compute(t, m)).collect();
        TensorStats { per_mode }
    }
}

impl ModeStats {
    /// Stats for the orientation that puts `mode` at the root level. The
    /// nonzeros are walked through the argsort that feeds the resident
    /// format builds ([`CooTensor::sorted`]), so the tensor is not copied
    /// and the stats equal those of a sorted copy.
    pub fn compute(t: &CooTensor, mode: usize) -> ModeStats {
        let perm = mode_orientation(t.order(), mode);
        let order = t.argsort(&perm);
        Self::walk(t, &perm, |k| order[k] as usize)
    }

    /// Stats over the nonzeros in the order `at(0), at(1), …`, which must
    /// be sorted under `perm`.
    fn walk(t: &CooTensor, perm: &ModePerm, at: impl Fn(usize) -> usize + Copy) -> ModeStats {
        let slice_volumes = runs(t, perm, 1, at);
        let fiber_lengths = runs(t, perm, perm.len() - 1, at);
        let singleton_slices = slice_volumes.iter().filter(|&&v| v == 1).count();
        let singleton_fibers = fiber_lengths.iter().filter(|&&v| v == 1).count();
        let csl_slices = count_csl_slices(t, perm, at);
        let num_slices = slice_volumes.len();
        let num_fibers = fiber_lengths.len();
        ModeStats {
            mode: perm[0],
            nnz: t.nnz(),
            num_slices,
            num_fibers,
            nnz_per_slice: SummaryStats::of(&slice_volumes),
            nnz_per_fiber: SummaryStats::of(&fiber_lengths),
            singleton_slice_fraction: frac(singleton_slices, num_slices),
            singleton_fiber_fraction: frac(singleton_fibers, num_fibers),
            csl_slice_fraction: frac(csl_slices, num_slices),
        }
    }
}

fn frac(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sizes of maximal runs sharing the first `depth` levels of the orientation.
/// `depth = 1` gives slice volumes; `depth = order - 1` gives fiber lengths.
/// Requires the tensor sorted under `perm`.
pub fn group_sizes(t: &CooTensor, perm: &ModePerm, depth: usize) -> Vec<usize> {
    runs(t, perm, depth, |k| k)
}

/// [`group_sizes`] over the nonzeros in the order `at(0), at(1), …`.
fn runs(t: &CooTensor, perm: &ModePerm, depth: usize, at: impl Fn(usize) -> usize) -> Vec<usize> {
    assert!(
        depth >= 1 && depth < perm.len().max(2),
        "depth out of range"
    );
    let n = t.nnz();
    if n == 0 {
        return Vec::new();
    }
    let keys: Vec<&[u32]> = perm[..depth].iter().map(|&m| t.mode_indices(m)).collect();
    let mut sizes = Vec::new();
    let mut run = 1usize;
    for z in 1..n {
        let (cur, prev) = (at(z), at(z - 1));
        let same = keys.iter().all(|k| k[cur] == k[prev]);
        if same {
            run += 1;
        } else {
            sizes.push(run);
            run = 1;
        }
    }
    sizes.push(run);
    sizes
}

/// A log2-bucketed histogram of an integer distribution: bucket `b` counts
/// values in `[2^b, 2^(b+1))`. The shape of the slice-volume histogram is
/// what decides between HB-CSF's three classes; `sptk info` and the
/// `format_explorer` example render it.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Log2Histogram {
    /// `buckets[b]` = number of values `v` with `floor(log2(max(v,1))) == b`.
    pub buckets: Vec<usize>,
}

impl Log2Histogram {
    /// Builds the histogram (empty input → no buckets).
    pub fn of(values: &[usize]) -> Log2Histogram {
        let mut buckets = Vec::new();
        for &v in values {
            let b = (usize::BITS - v.max(1).leading_zeros()) as usize - 1;
            if b >= buckets.len() {
                buckets.resize(b + 1, 0);
            }
            buckets[b] += 1;
        }
        Log2Histogram { buckets }
    }

    /// Inclusive-exclusive value range of bucket `b`.
    fn bucket_range(b: usize) -> (usize, usize) {
        (1usize << b, 1usize << (b + 1))
    }

    /// Total count across buckets.
    pub fn total(&self) -> usize {
        self.buckets.iter().sum()
    }

    /// Renders one text line per non-empty bucket, bars scaled to `width`.
    pub fn render(&self, width: usize) -> String {
        let peak = self.buckets.iter().copied().max().unwrap_or(0);
        let mut out = String::new();
        for (b, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (lo, hi) = Self::bucket_range(b);
            let bar = "#".repeat((count * width).div_ceil(peak.max(1)));
            out.push_str(&format!("{:>9}-{:<9} {:>8}  {}\n", lo, hi - 1, count, bar));
        }
        out
    }
}

/// Number of slices that qualify for CSL storage: more than one nonzero and
/// every fiber a singleton. Requires the order `at(0), at(1), …` sorted
/// under `perm`.
fn count_csl_slices(t: &CooTensor, perm: &ModePerm, at: impl Fn(usize) -> usize) -> usize {
    let n = t.nnz();
    if n == 0 || perm.len() < 2 {
        return 0;
    }
    let slice_key = t.mode_indices(perm[0]);
    let fiber_keys: Vec<&[u32]> = perm[..perm.len() - 1]
        .iter()
        .map(|&m| t.mode_indices(m))
        .collect();
    let mut count = 0usize;
    let mut slice_nnz;
    let mut all_singleton;
    let mut z = 0usize;
    while z < n {
        // Walk one slice.
        let s = slice_key[at(z)];
        slice_nnz = 0;
        all_singleton = true;
        while z < n && slice_key[at(z)] == s {
            // Walk one fiber inside the slice.
            let fiber_start = z;
            z += 1;
            while z < n && fiber_keys.iter().all(|k| k[at(z)] == k[at(z - 1)]) {
                z += 1;
            }
            let fiber_len = z - fiber_start;
            if fiber_len > 1 {
                all_singleton = false;
            }
            slice_nnz += fiber_len;
        }
        if all_singleton && slice_nnz > 1 {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::identity_perm;

    /// 3 slices: slice 0 = single nonzero (COO class), slice 1 = two
    /// singleton fibers (CSL class), slice 2 = one fiber of length 3 (CSF).
    fn classified() -> CooTensor {
        let mut t = CooTensor::new(vec![3, 4, 5]);
        t.push(&[0, 1, 1], 1.0);
        t.push(&[1, 0, 0], 1.0);
        t.push(&[1, 2, 3], 1.0);
        t.push(&[2, 3, 0], 1.0);
        t.push(&[2, 3, 1], 1.0);
        t.push(&[2, 3, 4], 1.0);
        t
    }

    #[test]
    fn summary_of_empty() {
        let s = SummaryStats::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.stdev, 0.0);
    }

    #[test]
    fn summary_basic() {
        let s = SummaryStats::of(&[2, 4, 6]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.stdev - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 6);
    }

    #[test]
    fn group_sizes_slices_and_fibers() {
        let mut t = classified();
        let perm = identity_perm(3);
        t.sort_by_perm(&perm);
        assert_eq!(group_sizes(&t, &perm, 1), vec![1, 2, 3]);
        assert_eq!(group_sizes(&t, &perm, 2), vec![1, 1, 1, 3]);
    }

    #[test]
    fn mode_stats_counts() {
        let t = classified();
        let s = ModeStats::compute(&t, 0);
        assert_eq!(s.num_slices, 3);
        assert_eq!(s.num_fibers, 4);
        assert_eq!(s.nnz, 6);
        assert!((s.singleton_slice_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.singleton_fiber_fraction - 3.0 / 4.0).abs() < 1e-12);
        // Slice 1 is the only CSL-class slice.
        assert!((s.csl_slice_fraction - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_all_modes() {
        let t = classified();
        let all = TensorStats::compute(&t);
        assert_eq!(all.per_mode.len(), 3);
        for (m, s) in all.per_mode.iter().enumerate() {
            assert_eq!(s.mode, m);
            assert_eq!(s.nnz, 6);
            // Slice volumes always sum to nnz.
            let approx_total = s.nnz_per_slice.mean * s.num_slices as f64;
            assert!((approx_total - 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn compute_matches_stats_of_a_sorted_copy() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for dims in [
            vec![5, 3, 7],
            vec![40, 9, 60],
            vec![4, 6, 3, 5],
            vec![30, 2, 50, 8],
        ] {
            let mut t = CooTensor::new(dims.clone());
            let mut coords = vec![0; dims.len()];
            for _ in 0..400 {
                for (c, &d) in coords.iter_mut().zip(&dims) {
                    *c = rng.gen_range(0..d);
                }
                t.push(&coords, 1.0);
            }
            for mode in 0..t.order() {
                let perm = mode_orientation(t.order(), mode);
                let mut sorted = t.clone();
                sorted.sort_by_perm(&perm);
                assert_eq!(
                    ModeStats::compute(&t, mode),
                    ModeStats::compute(&sorted, mode),
                    "dims {dims:?} mode {mode}"
                );
            }
        }
    }

    #[test]
    fn empty_tensor_stats() {
        let t = CooTensor::new(vec![2, 2, 2]);
        let s = ModeStats::compute(&t, 0);
        assert_eq!(s.num_slices, 0);
        assert_eq!(s.num_fibers, 0);
        assert_eq!(s.nnz_per_slice.count, 0);
    }

    #[test]
    fn log2_histogram_buckets_correctly() {
        let h = Log2Histogram::of(&[1, 1, 2, 3, 4, 7, 8, 1000]);
        // buckets: [1,1]=2, [2,3]=2, [4,7]=2, [8,15]=1, ..., [512,1023]=1
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.total(), 8);
        assert_eq!(Log2Histogram::bucket_range(3), (8, 16));
        let text = h.render(10);
        assert!(text.contains("512"));
        // Empty input.
        assert_eq!(Log2Histogram::of(&[]).total(), 0);
        // Zero values clamp to bucket 0.
        assert_eq!(Log2Histogram::of(&[0]).buckets[0], 1);
    }

    #[test]
    fn order_two_tensor_fibers_equal_slices() {
        // For order 2 the slice level and fiber level coincide (depth 1).
        let mut t = CooTensor::new(vec![3, 3]);
        t.push(&[0, 0], 1.0);
        t.push(&[0, 2], 1.0);
        t.push(&[2, 1], 1.0);
        let s = ModeStats::compute(&t, 0);
        assert_eq!(s.num_slices, 2);
        assert_eq!(s.num_fibers, 2);
    }
}
