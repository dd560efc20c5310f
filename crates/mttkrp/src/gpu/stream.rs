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
//! 3. **Pass 2 (shards)** — the capture body runs once more, against a
//!    sharded builder that keeps one shard's blocks at a time: when the
//!    emit passes a cut, the shard is sealed, serialized to a
//!    [`ShardStore`] on disk and dropped. No builder ever sees the whole
//!    schedule, and the body runs twice per mode whatever the shard count.
//!
//! Replay loads shards back one at a time and folds each shard's
//! contributions into the shared output in global emission order —
//! consecutive-range folds are bit-identical to the untiled replay (the
//! same argument `sharded.rs` relies on), so a streamed MTTKRP equals
//! [`Plan::execute`]'s `y` bit for bit, and [`cpd_als_streamed`] equals
//! [`cpd::run`](crate::cpd::run) over
//! plain [`PlanSource`](crate::cpd::PlanSource) replay on the
//! materialized tensor exactly.
//!
//! The streaming driver computes *values only*: deserialized shard plans
//! carry no instruction stream, so there is no machine-model simulation,
//! no telemetry clock, and no fault injection on this path. Modeled
//! timing stays with the resident engines.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use dense::Matrix;
use sptensor::source::CooChunk;
use sptensor::spill::SortedChunks;
use sptensor::{mode_orientation, Index, IngestOptions, SpilledTensor, TensorError, TensorResult};
use tensor_formats::{BcsfOptions, Csf, Hbcsf};

use super::common::GpuContext;
use super::plan::{Plan, PlanBuilder};
use super::sharded::shard_ranges;
use crate::cpd::{als, fold_squares, CpdOptions, CpdResult, RunSpec};

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
        w.flush()?;
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

/// Captures `h`'s launch as `devices` weight-balanced shard plans written
/// straight to `store` (keyed by `h.perm[0]`), holding at most one shard's
/// schedule in memory at a time. Returns the shard count, or the first
/// error writing a shard.
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
    let mut put = |shard: usize, plan: &Plan| store.put(mode, shard, plan);
    let mut pb = PlanBuilder::new_sharded(
        "hb-csf",
        mode,
        rank,
        h.dims[mode] as usize,
        &ranges,
        &mut put,
    );
    super::hbcsf::capture_into(ctx, h, rank, &mut pb);
    pb.finish_shards()
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
    /// Entries per chunk for every streaming pass: each re-sort's runs
    /// and each mode's format build.
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
    /// Bytes of the largest re-sort's run files (0 if none ran).
    pub resort_bytes: u64,
}

/// A [`SortedChunks`] pass-through that folds `Σ v²` over the values it
/// yields, in stream order ([`fold_squares`]). `rewind` restarts the sum,
/// so after a full read it covers the stream exactly once.
struct SquareSum<'s> {
    inner: &'s mut dyn SortedChunks,
    sum: f64,
}

impl SortedChunks for SquareSum<'_> {
    fn dims(&self) -> &[Index] {
        self.inner.dims()
    }

    fn nnz(&self) -> u64 {
        self.inner.nnz()
    }

    fn perm(&self) -> &[usize] {
        self.inner.perm()
    }

    fn next_chunk(&mut self, max_entries: usize, out: &mut CooChunk) -> TensorResult<usize> {
        let n = self.inner.next_chunk(max_entries, out)?;
        self.sum = fold_squares(self.sum, &out.vals[..n]);
        Ok(n)
    }

    fn rewind(&mut self) -> TensorResult<()> {
        self.sum = 0.0;
        self.inner.rewind()
    }
}

/// CPD-ALS over a spilled tensor without ever materializing it: per-mode
/// formats are built out-of-core ([`Csf::build_streamed`]), plans are
/// captured shard by shard to disk, and each ALS MTTKRP replays the
/// shards sequentially. A mode sorted the way the spill already is
/// builds straight from it; every other mode builds from a re-sorted
/// copy. `scratch` hosts those copies and the shard store (both removed
/// when dropped). `‖X‖` is folded while mode 0's format is built, in
/// identity order.
///
/// Peak host memory is bounded by one mode's HB-CSF format plus one
/// shard's schedule plus the chunk buffers — never the COO tensor, never
/// a whole-schedule plan.
///
/// Bit-identity contract: on a duplicate-free tensor this equals
/// [`cpd::run`](crate::cpd::run) over
/// plain [`PlanSource`](crate::cpd::PlanSource) replay of the identity-
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
    // A mode whose orientation is the spill's own order (mode 0's, the
    // identity, for an ingested spill) builds straight from the spill.
    // Mode 0's build also folds ‖X‖² in identity order, the order the
    // resident driver folds the identity-sorted tensor in.
    let mut store = ShardStore::create(scratch)?;
    let mut shards_per_mode = Vec::with_capacity(order);
    let mut norm_sq = 0.0;
    let mut resort_bytes = 0;
    for mode in 0..order {
        let perm = mode_orientation(order, mode);
        let resorted = if perm == spill.perm() {
            None
        } else {
            Some(spill.resort(&perm, scratch, &ingest_opts)?)
        };
        if let Some(r) = &resorted {
            resort_bytes = resort_bytes.max(r.bytes_on_disk());
        }
        let mut stream = resorted.as_ref().unwrap_or(spill).stream()?;
        let csf = if mode == 0 {
            let mut folded = SquareSum {
                inner: &mut stream,
                sum: 0.0,
            };
            let csf = Csf::build_streamed(&mut folded, chunk_nnz)?;
            norm_sq = folded.sum;
            csf
        } else {
            Csf::build_streamed(&mut stream, chunk_nnz)?
        };
        drop(stream);
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
    // shard replay. The fit's inner product comes from the last mode's
    // MTTKRP, so the ALS loop never reads the spill.
    let factors = crate::reference::random_factors_for_dims(&dims, rank, opts.cpd.seed);
    let norm_x = norm_sq.sqrt();
    let replay = |f: &[Matrix], mode: usize| replay_mode(&store, mode, rank, f);
    let (result, _) = als(&mut RunSpec::new(opts.cpd), None, factors, norm_x, replay)?;

    Ok(StreamedCpd {
        result,
        shards_per_mode,
        store_bytes,
        resort_bytes,
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
    fn more_shards_than_blocks_leaves_empty_shards() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[3, 4, 5], 6, 3);
        let factors = crate::reference::random_factors(&t, 8, 80);
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        let full = super::super::hbcsf::plan_impl(&ctx, &h, 8);
        let blocks = full.schedule().num_blocks();
        let devices = blocks + 3;
        let dir = tmp("wide");
        let mut store = ShardStore::create(&dir).unwrap();
        assert_eq!(
            capture_sharded_hbcsf(&ctx, &h, 8, devices, &mut store).unwrap(),
            devices
        );
        let kept: Vec<usize> = (0..devices)
            .map(|s| store.load(0, s).unwrap().schedule().num_blocks())
            .collect();
        // Each block lands in one shard; the surplus shards are empty
        // wherever the weight cuts put them.
        assert_eq!(kept.iter().sum::<usize>(), blocks);
        assert!(kept.iter().filter(|&&n| n == 0).count() >= devices - blocks);
        let y = replay_mode(&store, 0, 8, &factors).unwrap();
        assert_eq!(y, full.execute(&ctx, &factors).unwrap().y);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capture_into_a_removed_store_is_a_typed_error() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[18, 22, 26], 1_200, 10);
        let h = Hbcsf::build(&t, &identity_perm(3), BcsfOptions::default());
        let dir = tmp("gone");
        let mut store = ShardStore::create(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let res = capture_sharded_hbcsf(&ctx, &h, 8, 3, &mut store);
        assert!(matches!(res, Err(TensorError::Io(_))), "{:?}", res.err());
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
    fn corrupt_spill_record_is_a_typed_error() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[14, 17, 12], 900, 33);
        let dir = tmp("corrupt");
        let opts = IngestOptions::new().with_policy(DuplicatePolicy::Sum);
        let spill = SpilledTensor::ingest(CooSource::new(t), &opts, &dir).unwrap();
        // The ingest leaves one packed run: a 12-byte header, then
        // equal-length records, each led by its u64 coordinate key.
        let run_dir = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("spill-ingest-")
            })
            .expect("the ingest's run directory");
        let run = run_dir.join("run000000.bin");
        let mut bytes = std::fs::read(&run).unwrap();
        let rec = (bytes.len() - 12) / spill.nnz() as usize;
        assert_eq!(12 + rec * spill.nnz() as usize, bytes.len());
        // Record 0 takes the last record's key, so mode 0's build (the
        // spill's own order) sees entry 1 step back.
        let last: [u8; 8] = bytes[bytes.len() - rec..][..8].try_into().unwrap();
        bytes[12..20].copy_from_slice(&last);
        std::fs::write(&run, bytes).unwrap();

        let sopts = StreamOptions {
            cpd: CpdOptions {
                rank: 4,
                max_iters: 2,
                tol: 0.0,
                seed: 1,
            },
            devices: 2,
            chunk_nnz: 64,
            bcsf: BcsfOptions::default(),
        };
        match cpd_als_streamed(&ctx, &spill, &sopts, &dir) {
            Err(TensorError::Invalid {
                context: "csf",
                msg,
            }) => assert!(msg.contains("entry 1 is out of order"), "{msg}"),
            Err(e) => panic!("expected the build's order error, got {e:?}"),
            Ok(res) => panic!("a corrupt run solved to fits {:?}", res.result.fits),
        }
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
