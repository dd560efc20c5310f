//! Seeded synthetic tensor generators and paper-dataset stand-ins.
//!
//! The paper evaluates on 12 FROSTT/HaTen2 tensors (Table III) whose raw
//! files are hundreds of millions of nonzeros. This reproduction cannot ship
//! them, so each dataset gets a *stand-in*: a seeded generator tuned to match
//! the dataset's qualitative fingerprint —
//!
//! * relative mode extents (which mode is shortest/longest),
//! * mean nonzeros per slice and per fiber (preserved by scaling the mode
//!   extents proportionally to the nonzero budget),
//! * the skew of the nonzeros-per-slice distribution (Zipf exponent
//!   `slice_alpha`),
//! * the fiber-length distribution (power-law exponent `fiber_beta`, cutoff
//!   `max_fiber_len`, and an explicit singleton-fiber probability
//!   `p_singleton_fiber`) — the paper's Table II variable.
//!
//! The generators are the *independent variable* of the reproduction: every
//! figure in the paper turns on these distributions, so controlling them
//! directly lets each experiment exercise the same axis the paper varies.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::hash::Fnv1a;
use crate::{CooTensor, Index, Value};

/// Scale/seed configuration for stand-in generation.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Target nonzero count before duplicate folding (actual count can be
    /// slightly lower when generated coordinates collide).
    pub nnz: usize,
    /// Master seed; each dataset mixes in a hash of its name so different
    /// stand-ins are decorrelated under the same master seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            nnz: 300_000,
            seed: 0x5EED_CAFE,
        }
    }
}

impl SynthConfig {
    /// A smaller configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        SynthConfig {
            nnz: 5_000,
            seed: 0x5EED_CAFE,
        }
    }

    pub fn with_nnz(self, nnz: usize) -> Self {
        SynthConfig { nnz, ..self }
    }

    pub fn with_seed(self, seed: u64) -> Self {
        SynthConfig { seed, ..self }
    }
}

/// Generator recipe for one paper dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Paper abbreviation (e.g. `"darpa"`, `"fr_m"`, `"flick-4d"`).
    pub name: &'static str,
    /// Extents reported in Table III.
    pub paper_dims: &'static [u64],
    /// Nonzero count reported in Table III.
    pub paper_nnz: u64,
    /// Zipf exponent of the nonzeros-per-slice distribution (mode-0
    /// orientation). Higher → heavier slices → larger inter-block
    /// imbalance. Used as the starting guess when `slice_cv > 0`.
    pub slice_alpha: f64,
    /// Target coefficient of variation (stdev / mean) of nonzeros per
    /// non-empty slice. This is the *scale-invariant* form of Table II's
    /// "stdev #nnz per slc" column: naively shrinking a Zipf distribution
    /// concentrates it, so the exponent is re-calibrated by bisection at
    /// generation time to hit the paper's relative skew. `<= 0` disables
    /// calibration (plain `slice_alpha` is used).
    pub slice_cv: f64,
    /// Zipf exponent used for the middle-mode coordinates of each fiber.
    pub middle_alpha: f64,
    /// Power-law exponent of the fiber-length distribution. Lower → heavier
    /// fibers → larger inter-warp imbalance.
    pub fiber_beta: f64,
    /// Upper cutoff of the fiber-length power law.
    pub max_fiber_len: usize,
    /// Probability that a fiber is forced to a single nonzero (drives the
    /// CSL/COO classes of HB-CSF).
    pub p_singleton_fiber: f64,
}

/// Hard cap on any scaled mode extent; keeps the dense factor matrices of
/// CPD/MTTKRP (rows × R) within laptop memory for every stand-in.
pub const MAX_SCALED_DIM: Index = 500_000;

/// Modes at or below this extent are never scaled: short modes are a
/// structural feature of the paper's datasets (SPLATT's short-mode
/// scalability collapse in Fig. 7 depends on them).
pub const SHORT_MODE_KEEP: Index = 1_024;

impl DatasetSpec {
    /// Mode extents scaled for a reduced nonzero budget.
    ///
    /// The slice mode (mode 0) scales *linearly* with the budget so the mean
    /// nonzeros per slice — the quantity that drives thread-block load — is
    /// preserved. The remaining modes scale by the square root of the ratio,
    /// which keeps the per-slice coordinate space far larger than the
    /// per-slice nonzero count (no saturation) without inflating factor
    /// matrices. Short modes (≤ 1024 — e.g. freebase's 166-entry third mode
    /// or chicago-crime's 24/77/32) are kept verbatim: their shortness *is*
    /// the structural feature the paper exploits. Everything is clamped to
    /// `[16 or 256, MAX_SCALED_DIM]`.
    pub fn scaled_dims(&self, nnz: usize) -> Vec<Index> {
        let r = (nnz as f64 / self.paper_nnz as f64).min(1.0);
        self.paper_dims
            .iter()
            .enumerate()
            .map(|(m, &d)| {
                if d <= SHORT_MODE_KEEP as u64 {
                    return d as Index;
                }
                let (factor, floor) = if m == 0 { (r, 16) } else { (r.sqrt(), 256) };
                let scaled = (d as f64 * factor).round() as u64;
                (scaled.min(u64::from(MAX_SCALED_DIM)) as Index).clamp(floor, MAX_SCALED_DIM)
            })
            .collect()
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.paper_dims.len()
    }

    /// The distribution knobs this spec feeds the structured generator.
    pub fn structure_params(&self) -> StructureParams {
        StructureParams {
            slice_alpha: self.slice_alpha,
            slice_cv: self.slice_cv,
            middle_alpha: self.middle_alpha,
            fiber_beta: self.fiber_beta,
            max_fiber_len: self.max_fiber_len,
            p_singleton_fiber: self.p_singleton_fiber,
        }
    }

    /// Generates the stand-in tensor. Deterministic in `(self, cfg)`.
    pub fn generate(&self, cfg: &SynthConfig) -> CooTensor {
        let dims = self.scaled_dims(cfg.nnz);
        let rng =
            ChaCha8Rng::seed_from_u64(cfg.seed ^ Fnv1a::default().bytes(self.name.as_bytes()).0);
        generate_structured(&dims, cfg.nnz, &self.structure_params(), rng)
    }

    /// Streaming counterpart of [`DatasetSpec::generate`]: a
    /// [`crate::TensorSource`] that draws the same entries one chunk at a time,
    /// so arbitrarily large stand-ins never materialize. Ingesting it
    /// under [`crate::io::DuplicatePolicy::Sum`] through the spill
    /// pipeline yields the exact tensor `generate` builds, bit for bit.
    pub fn source(&self, cfg: &SynthConfig) -> SynthSource {
        let dims = self.scaled_dims(cfg.nnz);
        let rng =
            ChaCha8Rng::seed_from_u64(cfg.seed ^ Fnv1a::default().bytes(self.name.as_bytes()).0);
        SynthSource::new(StructuredEntries::new(
            &dims,
            cfg.nnz,
            &self.structure_params(),
            rng,
        ))
    }
}

/// Distribution knobs for the structured generator ([`StructuredEntries`]).
#[derive(Debug, Clone, Copy)]
pub struct StructureParams {
    pub slice_alpha: f64,
    /// Target slice-volume coefficient of variation; `<= 0` disables the
    /// exponent calibration and `slice_alpha` is used directly.
    pub slice_cv: f64,
    pub middle_alpha: f64,
    pub fiber_beta: f64,
    pub max_fiber_len: usize,
    pub p_singleton_fiber: f64,
}

impl Default for StructureParams {
    fn default() -> Self {
        StructureParams {
            slice_alpha: 1.0,
            slice_cv: 0.0,
            middle_alpha: 1.0,
            fiber_beta: 2.0,
            max_fiber_len: 128,
            p_singleton_fiber: 0.3,
        }
    }
}

/// All 12 stand-ins of the paper's Table III, in paper order
/// (seven 3-D tensors then five 4-D tensors).
pub fn standins() -> Vec<DatasetSpec> {
    vec![
        // -------- 3-D (Table II / Figs. 5-8, 14-15) --------
        DatasetSpec {
            // delicious: large J mode, short fibers, moderate slice skew.
            name: "deli",
            paper_dims: &[533_000, 17_000_000, 2_000_000],
            paper_nnz: 140_000_000,
            slice_alpha: 1.1,
            slice_cv: 3.85,
            middle_alpha: 1.0,
            fiber_beta: 2.8,
            max_fiber_len: 64,
            p_singleton_fiber: 0.50,
        },
        DatasetSpec {
            // nell1: hyper-sparse, moderately heavy fibers (stdev ~61).
            name: "nell1",
            paper_dims: &[3_000_000, 2_000_000, 25_000_000],
            paper_nnz: 144_000_000,
            slice_alpha: 1.25,
            slice_cv: 27.4,
            middle_alpha: 1.0,
            fiber_beta: 1.9,
            max_fiber_len: 1_024,
            p_singleton_fiber: 0.40,
        },
        DatasetSpec {
            // nell2: small extents, dense-ish, huge slice variance (27,983)
            // and heavy fibers (stdev 203) — a Table II pathology case.
            name: "nell2",
            paper_dims: &[12_000, 9_000, 29_000],
            paper_nnz: 77_000_000,
            slice_alpha: 1.7,
            slice_cv: 4.36,
            middle_alpha: 1.2,
            fiber_beta: 1.6,
            max_fiber_len: 4_096,
            p_singleton_fiber: 0.10,
        },
        DatasetSpec {
            // flickr 3-D: dominated by singleton fibers; mean slice work ~4.
            name: "flick-3d",
            paper_dims: &[320_000, 28_000_000, 2_000_000],
            paper_nnz: 113_000_000,
            slice_alpha: 1.2,
            slice_cv: 5.24,
            middle_alpha: 1.0,
            fiber_beta: 3.0,
            max_fiber_len: 16,
            p_singleton_fiber: 0.92,
        },
        DatasetSpec {
            // freebase-music: 23M×23M×166; all fibers singleton (stdev 0).
            name: "fr_m",
            paper_dims: &[23_000_000, 23_000_000, 166],
            paper_nnz: 99_000_000,
            slice_alpha: 0.9,
            slice_cv: 24.4,
            middle_alpha: 1.25,
            fiber_beta: 3.0,
            max_fiber_len: 1,
            p_singleton_fiber: 1.0,
        },
        DatasetSpec {
            // freebase-sampled: like fr_m, slightly flatter slices.
            name: "fr_s",
            paper_dims: &[39_000_000, 39_000_000, 532],
            paper_nnz: 140_000_000,
            slice_alpha: 0.8,
            slice_cv: 25.0,
            middle_alpha: 1.25,
            fiber_beta: 3.0,
            max_fiber_len: 1,
            p_singleton_fiber: 1.0,
        },
        DatasetSpec {
            // darpa: extreme skew in both slices (25,849) and fibers (8,588)
            // — the dataset that gains 22x from splitting (Fig. 5).
            name: "darpa",
            paper_dims: &[22_000, 22_000, 23_000_000],
            paper_nnz: 28_000_000,
            slice_alpha: 2.0,
            slice_cv: 20.3,
            middle_alpha: 1.6,
            fiber_beta: 1.0,
            max_fiber_len: 32_768,
            p_singleton_fiber: 0.20,
        },
        // -------- 4-D (Figs. 11-13, 16) --------
        DatasetSpec {
            name: "nips",
            paper_dims: &[2_482, 2_862, 14_036, 17],
            paper_nnz: 3_100_000,
            slice_alpha: 1.2,
            slice_cv: 5.0,
            middle_alpha: 1.0,
            fiber_beta: 2.0,
            max_fiber_len: 17,
            p_singleton_fiber: 0.30,
        },
        DatasetSpec {
            name: "enron",
            paper_dims: &[6_066, 5_699, 244_268, 1_176],
            paper_nnz: 5_400_000,
            slice_alpha: 1.5,
            slice_cv: 8.0,
            middle_alpha: 1.1,
            fiber_beta: 1.8,
            max_fiber_len: 512,
            p_singleton_fiber: 0.40,
        },
        DatasetSpec {
            // chicago-crime: tiny trailing modes, very dense (0.148).
            name: "ch-cr",
            paper_dims: &[6_186, 24, 77, 32],
            paper_nnz: 54_000_000,
            slice_alpha: 0.5,
            slice_cv: 1.0,
            middle_alpha: 0.6,
            fiber_beta: 1.6,
            max_fiber_len: 32,
            p_singleton_fiber: 0.05,
        },
        DatasetSpec {
            // flickr 4-D: flick-3d plus a date mode of 731.
            name: "flick-4d",
            paper_dims: &[320_000, 28_000_000, 2_000_000, 731],
            paper_nnz: 113_000_000,
            slice_alpha: 1.2,
            slice_cv: 5.24,
            middle_alpha: 1.0,
            fiber_beta: 3.0,
            max_fiber_len: 16,
            p_singleton_fiber: 0.92,
        },
        DatasetSpec {
            name: "uber",
            paper_dims: &[183, 24, 1_140, 1_717],
            paper_nnz: 3_300_000,
            slice_alpha: 0.6,
            slice_cv: 1.0,
            middle_alpha: 0.8,
            fiber_beta: 2.2,
            max_fiber_len: 64,
            p_singleton_fiber: 0.20,
        },
    ]
}

/// Looks up a stand-in by paper abbreviation.
pub fn standin(name: &str) -> Option<DatasetSpec> {
    standins().into_iter().find(|s| s.name == name)
}

/// Names of the seven 3-D stand-ins (the Table II / Figs. 5-8 population).
pub fn standin_names_3d() -> Vec<&'static str> {
    standins()
        .into_iter()
        .filter(|s| s.order() == 3)
        .map(|s| s.name)
        .collect()
}

/// Uniform-random tensor: every nonzero's coordinates i.i.d. uniform.
/// Duplicates are folded, so the final count can be slightly below `nnz`.
pub fn uniform_random(dims: &[Index], nnz: usize, seed: u64) -> CooTensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = CooTensor::new(dims.to_vec());
    let mut coord = vec![0 as Index; dims.len()];
    for _ in 0..nnz {
        for (c, &d) in coord.iter_mut().zip(dims) {
            *c = rng.gen_range(0..d);
        }
        t.push(&coord, random_value(&mut rng));
    }
    finish(t)
}

/// Structured generator: slice volumes Zipf-distributed, fibers carved from
/// each slice with power-law lengths, distinct last-mode coordinates within
/// each fiber. This is the engine behind every [`DatasetSpec`].
///
/// Batch form of [`StructuredEntries`]: drains the pull generator into a
/// resident tensor, then canonicalizes (stable sort + duplicate fold).
fn generate_structured(
    dims: &[Index],
    nnz: usize,
    p: &StructureParams,
    rng: ChaCha8Rng,
) -> CooTensor {
    let mut entries = StructuredEntries::new(dims, nnz, p, rng);
    let mut t = CooTensor::new(dims.to_vec());
    while let Some((coord, v)) = entries.next_entry() {
        t.push(coord, v);
    }
    finish(t)
}

/// Resumable pull form of the batch generator behind
/// [`DatasetSpec::generate`]: draws entries one at a time with the
/// *exact* RNG call sequence of the batch generator, so
/// draining it reproduces the batch output entry for entry while never
/// holding more than one fiber's last-mode picks in memory. The setup
/// state (per-slice counts, slice-id shuffle, samplers) is
/// `O(mode-0 extent)`, not `O(nnz)`.
pub struct StructuredEntries {
    rng: ChaCha8Rng,
    dims: Vec<Index>,
    p_singleton_fiber: f64,
    slice_counts: Vec<u32>,
    slice_ids: Vec<Index>,
    zipf_middle: Vec<Zipf>,
    fiber_len: PowerLawLen,
    last_extent: usize,
    /// Next slice rank to enter.
    rank: usize,
    /// Entries still owed by the current slice.
    remaining: usize,
    seen_middles: std::collections::HashSet<u64>,
    coord: Vec<Index>,
    /// Last-mode picks of the current fiber, partially emitted.
    picks: Vec<usize>,
    pick_pos: usize,
}

impl StructuredEntries {
    /// Runs the generator setup: slice-count sampling (with CV
    /// calibration), the rank → slice-id shuffle, and the middle-mode /
    /// fiber-length samplers — drawing from `rng` in the batch
    /// generator's order.
    pub fn new(dims: &[Index], nnz: usize, p: &StructureParams, mut rng: ChaCha8Rng) -> Self {
        assert!(dims.len() >= 2, "structured generator needs order >= 2");
        let order = dims.len();
        let i_extent = dims[0] as usize;

        // 1. Assign each nonzero to a slice: Zipf over ranks (exponent
        //    calibrated to the target coefficient of variation when one is
        //    set), then a random rank -> slice-index shuffle so heavy slices
        //    land anywhere.
        let count_seed = rng.gen::<u64>();
        let alpha = if p.slice_cv > 0.0 {
            calibrate_slice_alpha(i_extent, nnz, p.slice_cv, count_seed)
        } else {
            p.slice_alpha
        };
        let slice_counts = sample_slice_counts(i_extent, nnz, alpha, count_seed);
        let slice_ids = shuffled_identity(i_extent, &mut rng);

        // Middle-mode samplers (modes 1..order-1).
        let zipf_middle: Vec<Zipf> = dims[1..order - 1]
            .iter()
            .map(|&d| Zipf::new(d as usize, p.middle_alpha))
            .collect();
        let fiber_len = PowerLawLen::new(p.fiber_beta, p.max_fiber_len.max(1));

        StructuredEntries {
            rng,
            p_singleton_fiber: p.p_singleton_fiber,
            slice_counts,
            slice_ids,
            zipf_middle,
            fiber_len,
            last_extent: dims[order - 1] as usize,
            rank: 0,
            remaining: 0,
            seen_middles: std::collections::HashSet::new(),
            coord: vec![0 as Index; order],
            picks: Vec::new(),
            pick_pos: 0,
            dims: dims.to_vec(),
        }
    }

    pub fn dims(&self) -> &[Index] {
        &self.dims
    }

    /// Raw entries a full drain yields (duplicates included): exactly the
    /// configured nnz budget.
    fn total_entries(&self) -> u64 {
        self.slice_counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Draws the next raw entry (duplicates possible), or `None` when the
    /// nnz budget is exhausted. The returned coordinate slice is only
    /// valid until the next call.
    pub fn next_entry(&mut self) -> Option<(&[Index], Value)> {
        loop {
            if self.pick_pos < self.picks.len() {
                let last = self.coord.len() - 1;
                self.coord[last] = self.picks[self.pick_pos] as Index;
                self.pick_pos += 1;
                let v = random_value(&mut self.rng);
                return Some((&self.coord, v));
            }
            if self.remaining == 0 {
                // Advance to the next non-empty slice.
                loop {
                    if self.rank >= self.slice_counts.len() {
                        return None;
                    }
                    let count = self.slice_counts[self.rank];
                    let id = self.slice_ids[self.rank];
                    self.rank += 1;
                    if count > 0 {
                        self.coord[0] = id;
                        self.seen_middles.clear();
                        self.remaining = count as usize;
                        break;
                    }
                }
            }
            self.start_fiber();
        }
    }

    /// Draws one fiber's middle tuple and last-mode picks — one
    /// iteration of the batch generator's per-slice fiber loop.
    fn start_fiber(&mut self) {
        let Self {
            ref mut rng,
            ref zipf_middle,
            ref fiber_len,
            ref mut coord,
            ref mut seen_middles,
            ref mut picks,
            ref mut pick_pos,
            ref mut remaining,
            p_singleton_fiber,
            last_extent,
            ..
        } = *self;
        let order = coord.len();
        let want = if rng.gen::<f64>() < p_singleton_fiber {
            1
        } else {
            fiber_len.sample(rng)
        };
        let len = want.min(*remaining).min(last_extent);
        // Rejection-sample a middle tuple distinct within the slice.
        // The budget must survive steep middle Zipfs (a 20%-mass top
        // artist colliding inside a heavy slice): 128 draws pushes the
        // residual collision probability below 1e-6 even when most of
        // the popular mass is already used.
        for attempt in 0..128 {
            for (m, z) in zipf_middle.iter().enumerate() {
                coord[m + 1] = z.sample(rng) as Index;
            }
            let key = hash_middles(&coord[1..order - 1]);
            if seen_middles.insert(key) || attempt == 127 {
                break;
            }
        }
        // Distinct last-mode coordinates within the fiber.
        *picks = rand::seq::index::sample(rng, last_extent, len).into_vec();
        *pick_pos = 0;
        *remaining -= len;
    }
}

/// [`crate::TensorSource`] over [`StructuredEntries`]: benchmarks and the CLI
/// ingest stand-ins of any size without the full tensor ever being
/// resident. Entry ordinals serve as line numbers, so the spill-merge
/// tie-break replicates the batch generator's insertion order — which is
/// what makes the spilled Sum-policy stream bit-identical to
/// [`DatasetSpec::generate`].
pub struct SynthSource {
    entries: StructuredEntries,
    produced: u64,
}

impl SynthSource {
    pub fn new(entries: StructuredEntries) -> Self {
        SynthSource {
            entries,
            produced: 0,
        }
    }
}

impl crate::source::TensorSource for SynthSource {
    fn format_name(&self) -> &'static str {
        "synth"
    }

    fn declared_dims(&self) -> Option<Vec<Index>> {
        Some(self.entries.dims().to_vec())
    }

    fn nnz_hint(&self) -> Option<u64> {
        Some(self.entries.total_entries())
    }

    fn fill_chunk(
        &mut self,
        max_entries: usize,
        out: &mut crate::source::CooChunk,
    ) -> crate::TensorResult<usize> {
        out.reset(self.entries.dims().len());
        let mut appended = 0usize;
        while appended < max_entries {
            match self.entries.next_entry() {
                None => break,
                Some((coord, v)) => {
                    self.produced += 1;
                    out.push(coord, v, self.produced);
                    appended += 1;
                }
            }
        }
        Ok(appended)
    }
}

/// Sort canonically (stable, so duplicate groups keep insertion order —
/// the order the spill pipeline's merge reproduces) and fold coordinate
/// collisions.
fn finish(mut t: CooTensor) -> CooTensor {
    let perm = crate::dims::identity_perm(t.order());
    t.sort_by_perm_stable(&perm);
    t.fold_duplicates();
    t
}

fn random_value(rng: &mut ChaCha8Rng) -> Value {
    rng.gen_range(0.1..1.0)
}

fn shuffled_identity(n: usize, rng: &mut ChaCha8Rng) -> Vec<Index> {
    use rand::seq::SliceRandom;
    let mut v: Vec<Index> = (0..n as Index).collect();
    v.shuffle(rng);
    v
}

/// Samples the per-slice nonzero counts of a Zipf(`alpha`) assignment.
fn sample_slice_counts(i_extent: usize, nnz: usize, alpha: f64, seed: u64) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let zipf = Zipf::new(i_extent, alpha);
    let mut counts = vec![0u32; i_extent];
    for _ in 0..nnz {
        counts[zipf.sample(&mut rng)] += 1;
    }
    counts
}

/// Coefficient of variation (stdev / mean) over the *non-empty* slices —
/// the scale-invariant form of Table II's slice-skew column.
fn slice_cv(counts: &[u32]) -> f64 {
    let nonzero: Vec<f64> = counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| c as f64)
        .collect();
    if nonzero.is_empty() {
        return 0.0;
    }
    let mean = nonzero.iter().sum::<f64>() / nonzero.len() as f64;
    let var = nonzero.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / nonzero.len() as f64;
    var.sqrt() / mean
}

/// Finds the Zipf exponent whose sampled slice-volume CV matches `target`.
///
/// CV is *not* monotone in the exponent: it rises with skew, peaks, then
/// collapses as the distribution concentrates into a handful of slices
/// (few non-empty slices → small relative spread). The search therefore
/// scans the rising flank coarsely, then bisects inside the first bracket
/// that crosses the target. If the target exceeds the attainable peak, the
/// peak's exponent is used. Deterministic in `seed`.
fn calibrate_slice_alpha(i_extent: usize, nnz: usize, target: f64, seed: u64) -> f64 {
    const STEP: f64 = 0.25;
    const MAX_ALPHA: f64 = 3.0;
    let cv_at = |alpha: f64| slice_cv(&sample_slice_counts(i_extent, nnz, alpha, seed));

    let mut prev_alpha = 0.0;
    let mut prev_cv = cv_at(0.0);
    if prev_cv >= target {
        return 0.0;
    }
    let mut best = (prev_cv, 0.0); // (peak cv, alpha) on the scanned grid
    let mut alpha = STEP;
    while alpha <= MAX_ALPHA + 1e-9 {
        let cv = cv_at(alpha);
        if cv >= target {
            // Bisect the rising bracket [prev_alpha, alpha].
            let (mut lo, mut hi) = (prev_alpha, alpha);
            for _ in 0..10 {
                let mid = 0.5 * (lo + hi);
                if cv_at(mid) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            return 0.5 * (lo + hi);
        }
        if cv < best.0 - 1e-9 && best.0 > 0.0 && alpha > 1.0 {
            // Past the peak without reaching the target: give up at the peak.
            return best.1;
        }
        if cv > best.0 {
            best = (cv, alpha);
        }
        prev_alpha = alpha;
        prev_cv = cv;
        alpha += STEP;
    }
    let _ = prev_cv;
    best.1
}

/// Hashes a middle-coordinate tuple for the per-slice fiber-identity set.
fn hash_middles(middles: &[Index]) -> u64 {
    let mut h = Fnv1a::default();
    for &m in middles {
        h.bytes(&m.to_le_bytes());
    }
    h.0
}

/// Zipf sampler over `0..n` ranks with exponent `alpha`
/// (`P(rank r) ∝ (r+1)^-alpha`), via a precomputed CDF and binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf domain must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += ((r + 1) as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen();
        // partition_point: first index with cdf > u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Discrete power-law length sampler: `P(len = l) ∝ l^-beta`, `1 <= l <= max`.
pub struct PowerLawLen {
    cdf: Vec<f64>,
}

impl PowerLawLen {
    pub fn new(beta: f64, max: usize) -> PowerLawLen {
        assert!(max >= 1);
        let mut cdf = Vec::with_capacity(max);
        let mut acc = 0.0f64;
        for l in 1..=max {
            acc += (l as f64).powf(-beta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        PowerLawLen { cdf }
    }

    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
            + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModeStats;

    #[test]
    fn standins_cover_table_iii() {
        let all = standins();
        assert_eq!(all.len(), 12);
        assert_eq!(all.iter().filter(|s| s.order() == 3).count(), 7);
        assert_eq!(all.iter().filter(|s| s.order() == 4).count(), 5);
        // Unique names.
        let mut names: Vec<_> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn lookup_by_name() {
        assert!(standin("darpa").is_some());
        assert!(standin("fr_m").is_some());
        assert!(standin("nope").is_none());
    }

    #[test]
    fn scaled_dims_preserve_mean_slice_volume() {
        let spec = standin("nell2").unwrap();
        let dims = spec.scaled_dims(300_000);
        // Paper mean slice volume: 77M / 12K ≈ 6.4k. Scaled: nnz / dims[0].
        let paper_mean = spec.paper_nnz as f64 / spec.paper_dims[0] as f64;
        let scaled_mean = 300_000.0 / dims[0] as f64;
        assert!(
            (scaled_mean / paper_mean - 1.0).abs() < 0.25,
            "mean slice volume drifted: paper {paper_mean}, scaled {scaled_mean}"
        );
    }

    #[test]
    fn scaled_dims_capped_and_floored() {
        let spec = standin("fr_s").unwrap();
        let dims = spec.scaled_dims(300_000);
        assert!(dims.iter().all(|&d| d <= MAX_SCALED_DIM));
        let chcr = standin("ch-cr").unwrap().scaled_dims(10_000);
        // Tiny modes survive (floored at min(extent, 16)).
        assert!(chcr[1] >= 16 && chcr[2] >= 16 && chcr[3] >= 16);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::tiny();
        let spec = standin("deli").unwrap();
        let a = spec.generate(&cfg);
        let b = spec.generate(&cfg);
        assert_eq!(a, b);
        let c = spec.generate(&cfg.with_seed(7));
        assert_ne!(a, c);
    }

    #[test]
    fn generated_tensors_are_valid_sorted_and_deduped() {
        let cfg = SynthConfig::tiny();
        for spec in standins() {
            let t = spec.generate(&cfg);
            t.validate().unwrap();
            assert!(t.is_sorted_by_perm(&crate::identity_perm(t.order())));
            assert!(t.nnz() > cfg.nnz / 2, "{} lost too many nnz", spec.name);
            assert!(t.nnz() <= cfg.nnz);
        }
    }

    #[test]
    fn freebase_standins_have_singleton_fibers() {
        // Table II reports stdev 0 for fr_m/fr_s: mode-0 fibers are
        // (essentially) all singletons. A tiny residue of length-2 fibers
        // is tolerated — very hot artists can collide within a heavy
        // user's slice despite the uniqueness retries.
        let cfg = SynthConfig::tiny();
        for name in ["fr_m", "fr_s"] {
            let t = standin(name).unwrap().generate(&cfg);
            let s = ModeStats::compute(&t, 0);
            assert!(
                s.singleton_fiber_fraction > 0.97,
                "{name}: singleton fraction {}",
                s.singleton_fiber_fraction
            );
            assert!(
                s.nnz_per_fiber.mean < 1.1,
                "{name}: mean fiber length {}",
                s.nnz_per_fiber.mean
            );
        }
    }

    #[test]
    fn darpa_standin_is_most_skewed() {
        let cfg = SynthConfig::tiny().with_nnz(20_000);
        let darpa = standin("darpa").unwrap().generate(&cfg);
        let deli = standin("deli").unwrap().generate(&cfg);
        let sd = ModeStats::compute(&darpa, 0);
        let sl = ModeStats::compute(&deli, 0);
        assert!(
            sd.nnz_per_fiber.stdev > 4.0 * sl.nnz_per_fiber.stdev,
            "darpa fiber stdev {} should dwarf deli {}",
            sd.nnz_per_fiber.stdev,
            sl.nnz_per_fiber.stdev
        );
        assert!(sd.nnz_per_slice.stdev > sl.nnz_per_slice.stdev);
    }

    #[test]
    fn flick_standin_is_singleton_dominated() {
        let cfg = SynthConfig::tiny();
        let t = standin("flick-3d").unwrap().generate(&cfg);
        let s = ModeStats::compute(&t, 0);
        assert!(s.singleton_fiber_fraction > 0.85);
    }

    #[test]
    fn uniform_random_respects_dims() {
        let t = uniform_random(&[10, 20, 30], 500, 1);
        t.validate().unwrap();
        assert!(t.nnz() > 400);
    }

    #[test]
    fn zipf_skew_increases_with_alpha() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let flat = Zipf::new(1000, 0.1);
        let steep = Zipf::new(1000, 2.0);
        let count_low =
            |z: &Zipf, rng: &mut ChaCha8Rng| (0..5000).filter(|_| z.sample(rng) < 10).count();
        let f = count_low(&flat, &mut rng);
        let s = count_low(&steep, &mut rng);
        assert!(
            s > 4 * f,
            "steep zipf should concentrate: flat={f}, steep={s}"
        );
    }

    #[test]
    fn power_law_len_within_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let p = PowerLawLen::new(1.5, 64);
        for _ in 0..1000 {
            let l = p.sample(&mut rng);
            assert!((1..=64).contains(&l));
        }
    }
}
