//! Streaming shard-by-shard plan capture and the bounded-memory CPD
//! driver — the GPU end of the billion-scale ingestion pipeline.
//!
//! The classic capture ([`super::plan::ModePlans`]) materializes one
//! [`Plan`] per mode, each holding the *entire* replay schedule — dozens
//! of bytes per nonzero, times every mode, resident at once. This module
//! keeps the host footprint bounded by the largest single shard instead:
//!
//! 1. **Pass 1 (weights)** — the HB-CSF capture body runs against a
//!    weights-only `PlanBuilder`, which folds every block down to the
//!    `1 + contribs + leaves + chains` weight the sharded engine balances
//!    by and discards the rest. Peak memory: one block.
//! 2. **Cuts** — the weight prefix feeds the same `shard_ranges` the
//!    multi-device engine uses, so streaming shards are *exactly* the
//!    device shards a resident [`ShardModel`](super::ShardModel) would
//!    carve.
//! 3. **Pass 2 (shards)** — the capture body runs once per shard against
//!    a shard-filtered builder that keeps only its block range; each
//!    sealed shard plan is serialized to a [`ShardStore`] on disk and
//!    dropped. No builder ever sees the whole schedule.
//!
//! Replay loads shards back one at a time and folds each shard's
//! contributions into the shared output in global emission order —
//! consecutive-range folds are bit-identical to the untiled replay (the
//! same argument `sharded.rs` relies on), so a streamed MTTKRP equals
//! [`Plan::execute`]'s `y` bit for bit, and [`cpd_als_streamed`] equals
//! [`cpd_als_planned`](crate::cpd::cpd_als_planned) on the materialized
//! tensor exactly.
//!
//! The streaming driver computes *values only*: deserialized shard plans
//! carry no instruction stream, so there is no machine-model simulation,
//! no telemetry clock, and no fault injection on this path. Modeled
//! timing stays with the resident engines.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

use dense::Matrix;
use sptensor::source::CooChunk;
use sptensor::spill::SortedChunks;
use sptensor::{mode_orientation, IngestOptions, SpilledTensor, TensorError, TensorResult};
use tensor_formats::{BcsfOptions, Csf, Hbcsf};

use super::common::GpuContext;
use super::plan::{Plan, PlanBuilder};
use super::sharded::shard_ranges;
use crate::cpd::{als, fold_squares, CpdOptions, CpdResult, Hooks, UpdateRule};

/// On-disk store of serialized shard plans, keyed `(mode, shard)`. Owns a
/// fresh subdirectory of the root it was created under and removes it on
/// drop.
pub struct ShardStore {
    dir: PathBuf,
    counts: Vec<usize>,
}

impl ShardStore {
    /// Creates an empty store in a fresh subdirectory of `root`.
    pub fn create(root: &Path) -> TensorResult<ShardStore> {
        std::fs::create_dir_all(root).map_err(TensorError::from)?;
        let pid = std::process::id();
        for k in 0.. {
            let dir = root.join(format!("plans_{pid}_{k}"));
            match std::fs::create_dir(&dir) {
                Ok(()) => {
                    return Ok(ShardStore {
                        dir,
                        counts: Vec::new(),
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(TensorError::from(e)),
            }
        }
        unreachable!("directory probe loop is unbounded")
    }

    fn path(&self, mode: usize, shard: usize) -> PathBuf {
        self.dir.join(format!("mode{mode}_shard{shard:04}.plan"))
    }

    /// Serializes `plan` as shard `shard` of `mode`.
    pub fn put(&mut self, mode: usize, shard: usize, plan: &Plan) -> TensorResult<()> {
        if self.counts.len() <= mode {
            self.counts.resize(mode + 1, 0);
        }
        let mut w = BufWriter::with_capacity(1 << 20, File::create(self.path(mode, shard))?);
        plan.write_schedule(&mut w)?;
        self.counts[mode] = self.counts[mode].max(shard + 1);
        Ok(())
    }

    /// Loads shard `shard` of `mode` back into a value-replayable plan.
    pub fn load(&self, mode: usize, shard: usize) -> TensorResult<Plan> {
        let mut r = BufReader::with_capacity(1 << 20, File::open(self.path(mode, shard))?);
        Ok(Plan::read_schedule(&mut r)?)
    }

    /// Shards stored for `mode`.
    pub fn shards(&self, mode: usize) -> usize {
        self.counts.get(mode).copied().unwrap_or(0)
    }

    /// Modes with at least one stored shard slot.
    pub fn modes(&self) -> usize {
        self.counts.len()
    }

    /// Total bytes the store occupies on disk (bench reporting).
    fn bytes_on_disk(&self) -> u64 {
        let mut total = 0u64;
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                if let Ok(md) = e.metadata() {
                    total += md.len();
                }
            }
        }
        total
    }
}

impl Drop for ShardStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Pass 1: the HB-CSF capture body against a weights-only builder. The
/// returned prefix is entry-for-entry what a full capture's
/// `Plan::block_weight_prefix` would report.
fn capture_weight_prefix(ctx: &GpuContext, h: &Hbcsf, rank: usize) -> Vec<u64> {
    let mode = h.perm[0];
    let mut pb = PlanBuilder::new_weights_only("hb-csf", mode, rank, h.dims[mode] as usize);
    super::hbcsf::capture_into(ctx, h, rank, &mut pb);
    pb.finish_weight_prefix()
}

/// Pass 2 for one shard: the capture body against a shard-filtered
/// builder keeping only blocks `range.0..range.1`.
fn capture_shard(ctx: &GpuContext, h: &Hbcsf, rank: usize, range: (usize, usize)) -> Plan {
    let mode = h.perm[0];
    let mut pb = PlanBuilder::new_shard_filter("hb-csf", mode, rank, h.dims[mode] as usize, range);
    super::hbcsf::capture_into(ctx, h, rank, &mut pb);
    pb.finish()
}

/// Captures `h`'s launch as `devices` weight-balanced shard plans written
/// straight to `store` (keyed by `h.perm[0]`), holding at most one shard's
/// schedule in memory at a time. Returns the shard count.
pub fn capture_sharded_hbcsf(
    ctx: &GpuContext,
    h: &Hbcsf,
    rank: usize,
    devices: usize,
    store: &mut ShardStore,
) -> TensorResult<usize> {
    let prefix = capture_weight_prefix(ctx, h, rank);
    let ranges = shard_ranges(&prefix, devices.max(1));
    let mode = h.perm[0];
    for (s, &range) in ranges.iter().enumerate() {
        let plan = capture_shard(ctx, h, rank, range);
        store.put(mode, s, &plan)?;
    }
    Ok(ranges.len())
}

/// Replays mode `mode` from the store: shards load one at a time and fold
/// into one output in shard order — global emission order, so the result
/// is bit-identical to the unsharded plan's replay.
pub fn replay_mode(
    store: &ShardStore,
    mode: usize,
    rank: usize,
    factors: &[Matrix],
) -> TensorResult<Matrix> {
    let mut y: Option<Matrix> = None;
    for s in 0..store.shards(mode) {
        let plan = store.load(mode, s)?;
        let out = y.get_or_insert_with(|| Matrix::zeros(plan.out_rows(), plan.rank()));
        let invalid = |msg: String| TensorError::Invalid {
            context: "shard plan",
            msg,
        };
        if (out.rows(), out.cols()) != (plan.out_rows(), plan.rank()) {
            return Err(invalid(format!(
                "shard {s} of mode {mode} has a {}x{} output, shard 0 {}x{}",
                plan.out_rows(),
                plan.rank(),
                out.rows(),
                out.cols()
            )));
        }
        plan.validate_factors(factors)
            .map_err(|e| invalid(format!("shard {s} of mode {mode}: {e}")))?;
        plan.replay_range(out, factors, None, 0, plan.schedule().num_blocks());
    }
    Ok(y.unwrap_or_else(|| Matrix::zeros(0, rank)))
}

/// Configuration of the streaming CPD driver.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// ALS parameters (rank, iterations, tolerance, seed).
    pub cpd: CpdOptions,
    /// Shards per mode — the simulated device count whose `shard_ranges`
    /// cuts bound the resident schedule to `~1/devices` of a mode.
    pub devices: usize,
    /// Entries per chunk for every streaming pass (re-sort, format
    /// build, norm).
    pub chunk_nnz: usize,
    /// HB-CSF construction options.
    pub bcsf: BcsfOptions,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            cpd: CpdOptions::default(),
            devices: 4,
            chunk_nnz: 1 << 20,
            bcsf: BcsfOptions::default(),
        }
    }
}

/// A finished streaming decomposition.
pub struct StreamedCpd {
    /// Factors, lambda, fit trajectory — same shape as the resident
    /// driver's result.
    pub result: CpdResult,
    /// Shards captured per mode.
    pub shards_per_mode: Vec<usize>,
    /// Peak bytes of serialized shard plans on disk.
    pub store_bytes: u64,
}

/// `‖X‖` over the spilled stream, folded in the identical entry order as
/// the resident computation on the materialized tensor.
fn stream_norm_x(spill: &SpilledTensor, chunk_nnz: usize) -> TensorResult<f64> {
    let mut stream = spill.stream()?;
    let mut chunk = CooChunk::default();
    let mut sum = 0.0f64;
    loop {
        let n = stream.next_chunk(chunk_nnz, &mut chunk)?;
        if n == 0 {
            break;
        }
        sum = fold_squares(sum, &chunk.vals[..n]);
    }
    Ok(sum.sqrt())
}

/// CPD-ALS over a spilled tensor without ever materializing it: per-mode
/// formats are built out-of-core ([`Csf::build_streamed`]), plans are
/// captured shard by shard to disk, and each ALS MTTKRP replays the
/// shards sequentially. `scratch` hosts the re-sorted spills and the
/// shard store (both removed when dropped).
///
/// Peak host memory is bounded by one mode's HB-CSF format plus one
/// shard's schedule plus the chunk buffers — never the COO tensor, never
/// a whole-schedule plan.
///
/// Bit-identity contract: on a duplicate-free tensor this equals
/// [`cpd_als_planned`](crate::cpd::cpd_als_planned) over the identity-
/// sorted materialized tensor with in-core HB-CSF plans — same fits, same
/// factors, bit for bit (asserted in this module's tests and the CI
/// ingest smoke job).
pub fn cpd_als_streamed(
    ctx: &GpuContext,
    spill: &SpilledTensor,
    opts: &StreamOptions,
    scratch: &Path,
) -> TensorResult<StreamedCpd> {
    let dims = spill.dims().to_vec();
    let order = dims.len();
    if order < 3 {
        return Err(TensorError::OrderTooLow {
            what: "streamed HB-CSF CPD",
            order,
            min: 3,
        });
    }
    let rank = opts.cpd.rank;
    let chunk_nnz = opts.chunk_nnz.max(1);
    let ingest_opts = IngestOptions::new().with_chunk_nnz(chunk_nnz);

    // Capture phase: one mode's format + one shard resident at a time.
    let mut store = ShardStore::create(scratch)?;
    let mut shards_per_mode = Vec::with_capacity(order);
    for mode in 0..order {
        let perm = mode_orientation(order, mode);
        let resorted = spill.resort(&perm, scratch, &ingest_opts)?;
        let csf = Csf::build_streamed(&mut resorted.stream()?, chunk_nnz)?;
        drop(resorted);
        let h = Hbcsf::from_csf(csf, opts.bcsf);
        shards_per_mode.push(capture_sharded_hbcsf(
            ctx,
            &h,
            rank,
            opts.devices,
            &mut store,
        )?);
    }
    let store_bytes = store.bytes_on_disk();

    // ALS phase: the shared loop with the MTTKRP served by sequential
    // shard replay. Only `‖X‖` reads the spill; the fit's inner product
    // comes from the last mode's MTTKRP.
    let factors = crate::reference::random_factors_for_dims(&dims, rank, opts.cpd.seed);
    let norm_x = stream_norm_x(spill, chunk_nnz)?;
    let replay = |f: &[Matrix], mode: usize| replay_mode(&store, mode, rank, f);
    let (result, _) = als(
        &opts.cpd,
        factors,
        norm_x,
        UpdateRule::LeastSquares,
        replay,
        Hooks::default(),
    )?;

    Ok(StreamedCpd {
        result,
        shards_per_mode,
        store_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::cpd_als_planned;
    use crate::gpu::ModePlans;
    use sptensor::dims::identity_perm;
    use sptensor::synth::uniform_random;
    use sptensor::{CooSource, DuplicatePolicy};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sptk_stream_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn weight_prefix_matches_full_capture() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[20, 30, 40], 1_500, 9);
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        let full = super::super::hbcsf::plan_impl(&ctx, &h, 8);
        assert_eq!(
            capture_weight_prefix(&ctx, &h, 8),
            full.block_weight_prefix()
        );
    }

    #[test]
    fn sharded_capture_replays_bit_identically_to_full_plan() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[18, 22, 26], 1_200, 10);
        let factors = crate::reference::random_factors(&t, 8, 77);
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        let full = super::super::hbcsf::plan_impl(&ctx, &h, 8);
        let expect = full.execute(&ctx, &factors).unwrap().y;
        for devices in [1usize, 3, 7] {
            let dir = tmp(&format!("cap{devices}"));
            let mut store = ShardStore::create(&dir).unwrap();
            let n = capture_sharded_hbcsf(&ctx, &h, 8, devices, &mut store).unwrap();
            assert_eq!(n, devices);
            let y = replay_mode(&store, 0, 8, &factors).unwrap();
            assert_eq!(y, expect, "devices {devices}");
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn mismatched_shards_and_factors_are_typed_errors() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[18, 22, 26], 1_200, 12);
        let factors = crate::reference::random_factors(&t, 8, 79);
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        let dir = tmp("mismatch");
        let mut store = ShardStore::create(&dir).unwrap();
        assert_eq!(
            capture_sharded_hbcsf(&ctx, &h, 8, 3, &mut store).unwrap(),
            3
        );
        replay_mode(&store, 0, 8, &factors).unwrap();
        // Factors too short for the rows the shards read.
        let mut short = factors.clone();
        short[2] = Matrix::zeros(1, 8);
        let invalid = |r: TensorResult<Matrix>| matches!(r, Err(TensorError::Invalid { .. }));
        assert!(invalid(replay_mode(&store, 0, 8, &short)));
        // A shard whose output differs from shard 0's.
        let other = uniform_random(&[25, 22, 26], 1_200, 13);
        let ho = Hbcsf::build(&other, &identity_perm(3), BcsfOptions::default());
        store
            .put(0, 1, &super::super::hbcsf::plan_impl(&ctx, &ho, 8))
            .unwrap();
        assert!(invalid(replay_mode(&store, 0, 8, &factors)));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schedule_survives_disk_round_trip() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[12, 14, 16], 600, 11);
        let factors = crate::reference::random_factors(&t, 8, 78);
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        let full = super::super::hbcsf::plan_impl(&ctx, &h, 8);
        let mut buf = Vec::new();
        full.write_schedule(&mut buf).unwrap();
        let back = Plan::read_schedule(&mut &buf[..]).unwrap();
        assert_eq!(back.name(), full.name());
        assert_eq!(back.out_rows(), full.out_rows());
        let mut y0 = Matrix::zeros(full.out_rows(), 8);
        let mut y1 = Matrix::zeros(full.out_rows(), 8);
        full.replay_range(&mut y0, &factors, None, 0, full.schedule().num_blocks());
        back.replay_range(&mut y1, &factors, None, 0, back.schedule().num_blocks());
        assert_eq!(y0, y1);
    }

    #[test]
    fn streamed_cpd_matches_planned_incore_bitwise() {
        let ctx = GpuContext::tiny();
        // Identity-sorted resident tensor: its entry order equals the
        // spilled merge order, so norms and fits fold identically.
        let mut t = uniform_random(&[14, 17, 12], 900, 33);
        t.sort_by_perm_stable(&identity_perm(3));
        let dir = tmp("cpd");
        let opts = IngestOptions::new()
            .with_policy(DuplicatePolicy::Sum)
            .with_chunk_nnz(97);
        let spill = SpilledTensor::ingest(CooSource::new(t.clone()), &opts, &dir).unwrap();

        let cpd = CpdOptions {
            rank: 8,
            max_iters: 5,
            tol: 0.0,
            seed: 42,
        };
        let streamed = cpd_als_streamed(
            &ctx,
            &spill,
            &StreamOptions {
                cpd,
                devices: 3,
                chunk_nnz: 64,
                bcsf: BcsfOptions::default(),
            },
            &dir,
        )
        .unwrap();

        let plans = ModePlans::build_hbcsf(&ctx, &t, 8, BcsfOptions::default());
        let incore = cpd_als_planned(&t, &cpd, &ctx, &plans);

        assert_eq!(
            incore.fits, streamed.result.fits,
            "fit trajectories diverge"
        );
        assert_eq!(incore.lambda, streamed.result.lambda);
        assert_eq!(incore.factors, streamed.result.factors);
        assert_eq!(streamed.shards_per_mode, vec![3, 3, 3]);
        drop(spill);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_cpd_rejects_low_order_tensors() {
        let ctx = GpuContext::tiny();
        for dims in [vec![9u32], vec![7, 8]] {
            let t = uniform_random(&dims, 30, 5);
            let dir = tmp(&format!("order{}", dims.len()));
            let opts = IngestOptions::new().with_policy(DuplicatePolicy::Sum);
            let spill = SpilledTensor::ingest(CooSource::new(t), &opts, &dir).unwrap();
            let sopts = StreamOptions {
                cpd: CpdOptions {
                    rank: 4,
                    max_iters: 2,
                    tol: 0.0,
                    seed: 1,
                },
                devices: 1,
                chunk_nnz: 16,
                bcsf: BcsfOptions::default(),
            };
            let res = cpd_als_streamed(&ctx, &spill, &sopts, &dir);
            assert!(
                matches!(res, Err(TensorError::OrderTooLow { order, min: 3, .. }) if order == dims.len()),
                "order {}",
                dims.len()
            );
            drop(spill);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
