//! SPLATT-equivalent CSF MTTKRP — paper Algorithm 3, parallelized the way
//! SPLATT does on CPUs: one task per slice, so output rows are exclusive
//! and no atomics are needed. Includes the ALLMODE driver (one CSF per
//! mode, the configuration the paper benchmarks as "most efficient") and
//! an optional leaf-mode cache-tiling pass (SPLATT's `tiling` flag, whose
//! preprocessing cost and mixed performance effects Figs. 9-12 examine).

use dense::Matrix;
use rayon::prelude::*;
use sptensor::dims::mode_orientation;
use sptensor::{CooTensor, Index};
use tensor_formats::Csf;

use super::row_writer::RowWriter;
use crate::reference::check_shapes;

/// SPLATT configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplattOptions {
    /// Enable leaf-mode tiling (SPLATT's `--tile`): the last-level factor's
    /// working set is bounded by processing leaf-coordinate tiles one at a
    /// time, at the cost of building one CSF per tile.
    pub tiled: bool,
    /// Leaf-coordinate width of one tile; 0 selects
    /// [`SplattOptions::DEFAULT_TILE_WIDTH`].
    pub tile_width: usize,
}

impl SplattOptions {
    /// 16 Ki leaf rows × R=32 × 4 B = 2 MiB of factor rows per tile —
    /// comfortably inside a CPU's L2/L3 slice.
    pub const DEFAULT_TILE_WIDTH: usize = 16_384;

    pub fn nontiled() -> Self {
        SplattOptions {
            tiled: false,
            tile_width: 0,
        }
    }

    pub fn tiled() -> Self {
        SplattOptions {
            tiled: true,
            tile_width: 0,
        }
    }

    fn effective_tile_width(&self) -> usize {
        if self.tile_width == 0 {
            Self::DEFAULT_TILE_WIDTH
        } else {
            self.tile_width
        }
    }
}

/// One mode's CSF representation (one tree per leaf tile; a single tree
/// when tiling is off or the leaf mode is short).
#[derive(Debug, Clone)]
pub struct SplattCsf {
    pub mode: usize,
    pub options: SplattOptions,
    pub tiles: Vec<Csf>,
}

impl SplattCsf {
    /// Builds the mode-`mode` representation of `t`.
    pub fn build(t: &CooTensor, mode: usize, options: SplattOptions) -> SplattCsf {
        let perm = mode_orientation(t.order(), mode);
        let leaf_mode = perm[t.order() - 1];
        let leaf_extent = t.dims()[leaf_mode] as usize;
        let width = options.effective_tile_width();
        let tiles = if !options.tiled || leaf_extent <= width {
            vec![Csf::build(t, &perm)]
        } else {
            // Bucket the entries by leaf-coordinate tile; each tile's
            // tree sorts its own entries.
            let ntiles = leaf_extent.div_ceil(width);
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); ntiles];
            for (z, &k) in t.mode_indices(leaf_mode).iter().enumerate() {
                buckets[k as usize / width].push(z as u32);
            }
            buckets
                .into_iter()
                .filter(|b| !b.is_empty())
                .map(|b| {
                    let inds: Vec<Vec<Index>> = (0..t.order())
                        .map(|m| {
                            let src = t.mode_indices(m);
                            b.iter().map(|&z| src[z as usize]).collect()
                        })
                        .collect();
                    let vals = b.iter().map(|&z| t.values()[z as usize]).collect();
                    let sub = CooTensor::from_parts(t.dims().to_vec(), inds, vals);
                    Csf::build(&sub, &perm)
                })
                .collect()
        };
        SplattCsf {
            mode,
            options,
            tiles,
        }
    }

    /// Total nonzeros across tiles.
    pub fn nnz(&self) -> usize {
        self.tiles.iter().map(Csf::nnz).sum()
    }

    /// Mode-`self.mode` MTTKRP (Algorithm 3), one rayon task per slice.
    pub fn mttkrp(&self, factors: &[Matrix]) -> Matrix {
        let csf0 = &self.tiles[0];
        let order = csf0.order();
        let r = factors[0].cols();
        let rows = csf0.dims[self.mode] as usize;
        let mut y = Matrix::zeros(rows, r);
        {
            let writer = RowWriter::new(y.data_mut(), rows, r);
            for csf in &self.tiles {
                // Factor of the mode at each level below the root.
                let facs: Vec<&Matrix> = (1..order).map(|l| &factors[csf.perm[l]]).collect();
                (0..csf.num_slices()).into_par_iter().for_each_init(
                    || vec![vec![0.0f32; r]; order - 1],
                    |scratch, s| {
                        scratch[0].fill(0.0);
                        accumulate(csf, 0, s, &facs, scratch);
                        let i = csf.level_idx[0][s] as usize;
                        // SAFETY: slice root indices are unique within a
                        // tile, and tiles run sequentially.
                        let out = unsafe { writer.row_mut(i) };
                        for (o, &v) in out.iter_mut().zip(&scratch[0]) {
                            *o += v;
                        }
                    },
                );
            }
        }
        y
    }
}

/// Accumulates `Σ_children F_child(idx) ∗ subtree(child)` of group `g` at
/// `level` into `scratch[0]` (zeroed by the caller). `facs[0]` is the
/// factor of mode `perm[level + 1]`.
pub(crate) fn accumulate(
    csf: &Csf,
    level: usize,
    g: usize,
    facs: &[&Matrix],
    scratch: &mut [Vec<f32>],
) {
    let nlev = csf.order() - 1;
    let (cur, rest) = scratch.split_first_mut().expect("scratch depth");
    let children = csf.children(level, g);
    if level == nlev - 1 {
        // Children are leaves: Σ val × F_leaf(k,:)  (Alg. 3 line 11).
        for z in children {
            let row = facs[0].row(csf.leaf_idx[z] as usize);
            let v = csf.vals[z];
            for (c, &f) in cur.iter_mut().zip(row) {
                *c += v * f;
            }
        }
    } else {
        for ch in children {
            rest[0].fill(0.0);
            accumulate(csf, level + 1, ch, &facs[1..], rest);
            let row = facs[0].row(csf.level_idx[level + 1][ch] as usize);
            // Alg. 3 line 13: fold child contribution through its factor row.
            for ((c, &f), &s) in cur.iter_mut().zip(row).zip(&rest[0]) {
                *c += f * s;
            }
        }
    }
}

/// The ALLMODE configuration: `N` CSF representations, one per output mode
/// ("we use the most efficient ALLMODE setting and store N CSF formats").
#[derive(Debug, Clone)]
pub struct SplattAllMode {
    pub per_mode: Vec<SplattCsf>,
}

impl SplattAllMode {
    pub fn build(t: &CooTensor, options: SplattOptions) -> SplattAllMode {
        let per_mode = (0..t.order())
            .map(|m| SplattCsf::build(t, m, options))
            .collect();
        SplattAllMode { per_mode }
    }

    pub fn mttkrp(&self, factors: &[Matrix], mode: usize) -> Matrix {
        self.per_mode[mode].mttkrp(factors)
    }
}

/// Convenience one-shot: build + run (costs construction every call; use
/// [`SplattCsf`] directly inside iteration loops).
pub fn mttkrp(t: &CooTensor, factors: &[Matrix], mode: usize, options: SplattOptions) -> Matrix {
    check_shapes(t, factors, mode);
    SplattCsf::build(t, mode, options).mttkrp(factors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sptensor::synth::{standin, uniform_random, SynthConfig};

    #[test]
    fn matches_reference_all_modes_3d() {
        let t = uniform_random(&[25, 30, 35], 1_500, 31);
        let factors = reference::random_factors(&t, 8, 7);
        for mode in 0..3 {
            for opts in [SplattOptions::nontiled(), SplattOptions::tiled()] {
                let y = mttkrp(&t, &factors, mode, opts);
                let seq = reference::mttkrp(&t, &factors, mode);
                assert!(
                    crate::outputs_match(&y, &seq),
                    "mode {mode} opts {opts:?} diff {}",
                    y.rel_fro_diff(&seq)
                );
            }
        }
    }

    #[test]
    fn matches_reference_order4() {
        let t = uniform_random(&[12, 10, 8, 14], 1_200, 32);
        let factors = reference::random_factors(&t, 6, 8);
        for mode in 0..4 {
            let y = mttkrp(&t, &factors, mode, SplattOptions::nontiled());
            let seq = reference::mttkrp(&t, &factors, mode);
            assert!(crate::outputs_match(&y, &seq), "mode {mode}");
        }
    }

    #[test]
    fn tiling_splits_leaf_mode() {
        let t = uniform_random(&[10, 10, 100_000], 2_000, 33);
        let opts = SplattOptions {
            tiled: true,
            tile_width: 10_000,
        };
        let s = SplattCsf::build(&t, 0, opts);
        assert!(s.tiles.len() > 1, "expected multiple tiles");
        assert_eq!(s.nnz(), t.nnz());
        let factors = reference::random_factors(&t, 4, 9);
        let y = s.mttkrp(&factors);
        let seq = reference::mttkrp(&t, &factors, 0);
        assert!(crate::outputs_match(&y, &seq));
    }

    #[test]
    fn tiling_noop_for_short_leaf_mode() {
        let t = uniform_random(&[10, 10, 50], 500, 34);
        let s = SplattCsf::build(&t, 0, SplattOptions::tiled());
        assert_eq!(s.tiles.len(), 1);
    }

    #[test]
    fn allmode_runs_every_mode() {
        let t = uniform_random(&[15, 20, 25], 800, 35);
        let all = SplattAllMode::build(&t, SplattOptions::nontiled());
        let factors = reference::random_factors(&t, 4, 10);
        for mode in 0..3 {
            let y = all.mttkrp(&factors, mode);
            let seq = reference::mttkrp(&t, &factors, mode);
            assert!(crate::outputs_match(&y, &seq), "mode {mode}");
        }
    }

    #[test]
    fn correct_on_skewed_standin() {
        let t = standin("darpa").unwrap().generate(&SynthConfig::tiny());
        let factors = reference::random_factors(&t, 8, 11);
        let y = mttkrp(&t, &factors, 0, SplattOptions::nontiled());
        let seq = reference::mttkrp(&t, &factors, 0);
        assert!(crate::outputs_match(&y, &seq));
    }

    #[test]
    fn empty_tensor() {
        let t = sptensor::CooTensor::new(vec![3, 3, 3]);
        let factors = reference::random_factors(&t, 4, 12);
        let y = mttkrp(&t, &factors, 0, SplattOptions::nontiled());
        assert!(y.data().iter().all(|&v| v == 0.0));
    }
}
