//! Launch capture & replay: the plan/execute split for the simulated GPU
//! kernels (CUDA-graph style).
//!
//! A kernel's instruction stream, address layout, and traversal order
//! depend only on *structure* — the tensor's format, the rank, and the
//! [`GpuContext`]'s block geometry — never on factor values. A [`Plan`]
//! captures all of that once: a [`ReplaySchedule`], a flat record of
//! every semantic output contribution (which output row, which leaf
//! reductions, which factor-row scalings, in emission order), plus the
//! simulator's per-block [`CostTable`] of the emitted [`KernelLaunch`].
//! [`Plan::execute`] then replays the schedule against fresh factor
//! matrices, computing only the value-dependent output `y`, and reuses a
//! memoized [`SimResult`] instead of re-simulating.
//!
//! A plan does not keep the instruction stream: its packed words are
//! several times the bytes of the format that emitted them. Capture runs
//! the simulator's cost pass over the stream under the capture context and
//! drops it; every later simulation is the scheduling pass over the kept
//! [`CostTable`] (under any fault plan — fault draws key only on the
//! launch name and block index). The plan keeps the layout it was captured
//! from instead, and re-emits on demand through the kernel's own capture
//! body: `Plan::simulate_ranges` cuts any set of block ranges (the tiles
//! of an out-of-core fit, every device's tiles of a shard model) from one
//! emission, simulating each range as soon as the emission passes its end,
//! and [`Plan::launch`] re-emits the whole launch into a lazily filled
//! cell for tools that drive the simulator themselves. Plans read from a
//! plan file and streamed shard plans keep no layout; they simulate as an
//! empty launch.
//!
//! Replay is one loop over a block range, on the calling thread. It
//! computes each contribution's accumulator with the same `fill` /
//! [`axpy_into`] / [`scale_by`] sequence the emitting kernel performs and
//! folds it into `y` at once, in emission order, so the output is bit-for-
//! bit the emit-and-run output. The schedule keeps output rows as runs,
//! so fault-free the fold holds a run's row in registers from the run's
//! start to its end and compares no row per contribution, as the HB-CSF
//! kernel keeps a slice's partial sum on chip; each lane still sees
//! `y += 1.0 * acc` per contribution.
//! For the ranks [`RankDispatch`] specializes the accumulator is a
//! `[f32; R]`, so the inner loops have compile-time trip counts.
//!
//! Under an active [`FaultPlan`] the same loop folds through an
//! [`AbftSink`] exactly as the emitting kernels do (checksums, latched bit
//! flips), and the faulted simulation is cached keyed on the plan —
//! `run_verified`'s retries carry a different `attempt`, which re-keys the
//! cache.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use dense::Matrix;
use gpu_sim::{
    cost_pass, schedule_pass, simulate, AddressSpace, BlockWork, CostTable, FaultPlan,
    KernelLaunch, MemLease, SimProfile, SimResult,
};
use rayon::prelude::*;
use simprof::FieldValue;
use sptensor::frame::{FrameReader, FrameWriter};
use sptensor::{CooTensor, TensorError, TensorResult};
use tensor_formats::{BcsfOptions, Hbcsf};

use super::common::{axpy_into, scale_by, AbftData, AbftSink, FactorAddrs, GpuContext, GpuRun};
use super::exec::LaunchError;
use super::kernel::{AnyFormat, MttkrpKernel};

/// Which value-phase implementation a plan replays through, keyed off the
/// captured rank. The specialized variants run the *same* per-element f32
/// operation sequence as the generic path but with `[f32; R]` accumulators
/// and compile-time trip counts, so the inner loops fully unroll and
/// vectorize while every fold stays bit-identical (see DESIGN §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankDispatch {
    /// Const-generic path, `R = 8`.
    R8,
    /// Const-generic path, `R = 16`.
    R16,
    /// Const-generic path, `R = 32`.
    R32,
    /// Dynamically-sized fallback for every other rank.
    Generic,
}

impl RankDispatch {
    /// The dispatch a freshly captured plan of `rank` gets.
    pub fn for_rank(rank: usize) -> RankDispatch {
        match rank {
            8 => RankDispatch::R8,
            16 => RankDispatch::R16,
            32 => RankDispatch::R32,
            _ => RankDispatch::Generic,
        }
    }

    /// Stable label for benches/telemetry.
    pub fn label(self) -> &'static str {
        match self {
            RankDispatch::R8 => "specialized-r8",
            RankDispatch::R16 => "specialized-r16",
            RankDispatch::R32 => "specialized-r32",
            RankDispatch::Generic => "generic",
        }
    }

    /// Whether this is one of the const-generic fast paths.
    pub fn is_specialized(self) -> bool {
        self != RankDispatch::Generic
    }
}

/// A plan's device-memory requirements, sized at capture time from the
/// kernel's own [`AddressSpace`] layout. All sums saturate: a footprint
/// that overflows u64 reads as `u64::MAX` bytes — never satisfiable, so
/// overflow degrades into a typed OOM instead of wrapping silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct MemoryFootprint {
    /// Factor matrices (segment-padded), all modes.
    pub factor_bytes: u64,
    /// The output matrix `Y` (segment-padded).
    pub output_bytes: u64,
    /// Everything else the kernel laid out: format pointer/index/value
    /// arrays, flags, scratch. This is the streamable part — tiles carry
    /// only their share of it.
    pub format_bytes: u64,
}

impl MemoryFootprint {
    /// Splits a finished layout into the resident arrays (factors,
    /// output) and the streamable format remainder.
    pub fn from_layout(space: &AddressSpace, fa: &FactorAddrs) -> MemoryFootprint {
        let factor_bytes = fa
            .factors
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.padded_bytes()));
        let output_bytes = fa.y.padded_bytes();
        let format_bytes = space
            .total_bytes()
            .saturating_sub(factor_bytes)
            .saturating_sub(output_bytes);
        MemoryFootprint {
            factor_bytes,
            output_bytes,
            format_bytes,
        }
    }

    /// Bytes that must stay resident for the whole launch (factors + Y).
    pub fn resident_bytes(&self) -> u64 {
        self.factor_bytes.saturating_add(self.output_bytes)
    }

    /// The full-device footprint: everything at once.
    pub fn total_bytes(&self) -> u64 {
        self.resident_bytes().saturating_add(self.format_bytes)
    }

    /// Whether the whole plan fits in `capacity` bytes at once.
    pub fn fits_within(&self, capacity: u64) -> bool {
        self.total_bytes() <= capacity
    }
}

/// A run of consecutive contributions that share one key: an output row
/// ([`ReplaySchedule`]'s row runs) or a chain pattern id (its pattern
/// runs). The run ends before contribution `end` and starts where the
/// run before it ends (the first at contribution 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    key: u32,
    end: u32,
}

/// Extends the last run of `runs` to `end` if it has key `key`, else
/// opens a new run.
fn push_run(runs: &mut Vec<Run>, key: u32, end: u32) {
    match runs.last_mut() {
        Some(last) if last.key == key => last.end = end,
        _ => runs.push(Run { key, end }),
    }
}

/// The value-dependent half of a captured kernel, stored structure-of-
/// arrays: every semantic output contribution in emission order, grouped
/// by thread block (CSR-style `block_ptr`). Nothing it stores can be
/// derived from the rest: output rows are kept once per run of
/// contributions to one row, and chain modes once per distinct chain-mode
/// sequence (a *pattern*; a plan has one or two), with a run table naming
/// the pattern of each contribution.
///
/// The replay walks the row runs and the pattern runs beside the
/// contributions. At a row run's start it opens the run's output row; at
/// a pattern run's start it looks up the pattern's factor matrices once.
/// One contribution `c` then replays as:
/// 1. leaf range empty → `acc.fill(init_vals[c])` (flat kernels seed the
///    accumulator with the nonzero value); otherwise `acc.fill(0.0)` then
///    `axpy_into(acc, leaf_vals[k], factors[leaf_mode].row(leaf_rows[k]))`
///    per leaf (the fiber kernels' leaf reduction);
/// 2. `scale_by(acc, factors[modes[j]].row(chain_rows[at + j]))` for each
///    mode `modes[j]` of the run's pattern, where `at` advances by the
///    pattern's length per contribution (the Hadamard fold through the
///    remaining modes);
/// 3. `y[row] += acc` into the open row — folded sequentially in
///    emission order.
#[derive(Debug, Clone)]
pub struct ReplaySchedule {
    /// Factor mode the leaf reduction reads (fiber kernels only).
    leaf_mode: usize,
    /// Contribution range starts per block; `block_ptr[b]..block_ptr[b+1]`.
    block_ptr: Vec<u32>,
    /// Output-row runs: each run's contributions fold into row `key`.
    row_runs: Vec<Run>,
    /// Accumulator seed per contribution (used when its leaf range is empty).
    init_vals: Vec<f32>,
    /// Leaf range starts per contribution (into `leaf_vals`/`leaf_rows`).
    leaf_ptr: Vec<u32>,
    leaf_vals: Vec<f32>,
    leaf_rows: Vec<u32>,
    /// Chain patterns, CSR: pattern `p` scales by the factor modes
    /// `pattern_modes[pattern_ptr[p]..pattern_ptr[p + 1]]`, in order.
    pattern_ptr: Vec<u32>,
    pattern_modes: Vec<u32>,
    /// Pattern runs: each contribution of a run takes one chain row per
    /// mode of pattern `key`, from `chain_rows` in contribution order.
    pattern_runs: Vec<Run>,
    chain_rows: Vec<u32>,
    /// Rows replay reads per factor: entry `m` is one more than the
    /// largest row of mode `m` a leaf or chain term names (0 if none),
    /// up to the largest mode read. Measured once when the schedule is
    /// sealed or read ([`ReplaySchedule::measure_reach`]), so
    /// [`Plan::validate_factors`] checks factors in O(order).
    reach: Vec<usize>,
}

impl ReplaySchedule {
    /// A schedule with no blocks yet, whose leaf terms read `leaf_mode`.
    fn empty(leaf_mode: usize) -> ReplaySchedule {
        ReplaySchedule {
            leaf_mode,
            block_ptr: Vec::new(),
            row_runs: Vec::new(),
            init_vals: Vec::new(),
            leaf_ptr: Vec::new(),
            leaf_vals: Vec::new(),
            leaf_rows: Vec::new(),
            pattern_ptr: vec![0],
            pattern_modes: Vec::new(),
            pattern_runs: Vec::new(),
            chain_rows: Vec::new(),
            reach: Vec::new(),
        }
    }

    /// Number of captured thread blocks (== `begin_block` calls, which can
    /// exceed the launch's block count when a kernel probes past its last
    /// block — fault draws key on this same ordinal either way).
    pub fn num_blocks(&self) -> usize {
        self.block_ptr.len() - 1
    }

    /// Bytes of the schedule arrays' elements (their capacity slack and
    /// the reach table are not counted).
    pub fn bytes(&self) -> usize {
        4 * (self.block_ptr.len()
            + 2 * self.row_runs.len()
            + self.init_vals.len()
            + self.leaf_ptr.len()
            + self.leaf_vals.len()
            + self.leaf_rows.len()
            + self.pattern_ptr.len()
            + self.pattern_modes.len()
            + 2 * self.pattern_runs.len()
            + self.chain_rows.len())
    }

    /// Drops every array's growth slack: a sealed schedule lives as long
    /// as its plan.
    fn trim(&mut self) {
        self.block_ptr.shrink_to_fit();
        self.row_runs.shrink_to_fit();
        self.init_vals.shrink_to_fit();
        self.leaf_ptr.shrink_to_fit();
        self.leaf_vals.shrink_to_fit();
        self.leaf_rows.shrink_to_fit();
        self.pattern_ptr.shrink_to_fit();
        self.pattern_modes.shrink_to_fit();
        self.pattern_runs.shrink_to_fit();
        self.chain_rows.shrink_to_fit();
    }

    /// The factor modes of pattern `p`.
    fn pattern(&self, p: u32) -> &[u32] {
        let p = p as usize;
        &self.pattern_modes[self.pattern_ptr[p] as usize..self.pattern_ptr[p + 1] as usize]
    }

    /// The id of the pattern `modes`, added to the table if new.
    fn pattern_id(&mut self, modes: &[u32]) -> u32 {
        if let Some(run) = self.pattern_runs.last() {
            if self.pattern(run.key) == modes {
                return run.key;
            }
        }
        let count = self.pattern_ptr.len() as u32 - 1;
        if let Some(p) = (0..count).find(|&p| self.pattern(p) == modes) {
            return p;
        }
        self.pattern_modes.extend_from_slice(modes);
        self.pattern_ptr.push(self.pattern_modes.len() as u32);
        count
    }

    /// Checks the structure replay indexes by: each pointer array starts
    /// at 0, never decreases and ends at the length of the arrays it
    /// indexes; there is one seed and one leaf range per contribution;
    /// the row and pattern runs are non-empty and end at the contribution
    /// count; every output row is below `out_rows`, every pattern id names
    /// a pattern and every factor mode is below [`MAX_MODES`]; the chain
    /// rows are as many as the pattern runs take. A schedule read from
    /// disk passes this before it can replay.
    fn check(&self, out_rows: usize) -> Result<(), &'static str> {
        /// `ptr` is a CSR pointer array over `len` entries.
        fn csr(ptr: &[u32], len: usize) -> bool {
            ptr.first() == Some(&0)
                && ptr.last().is_some_and(|&e| e as usize == len)
                && ptr.windows(2).all(|w| w[0] <= w[1])
        }
        /// `runs` are non-empty and cover `n` contributions.
        fn covers(runs: &[Run], n: usize) -> bool {
            let mut start = 0;
            runs.iter().all(|r| {
                let ok = r.end > start;
                start = r.end;
                ok
            }) && start as usize == n
        }
        let n = self.init_vals.len();
        if !csr(&self.block_ptr, n) {
            return Err("replay schedule: block pointers do not cover the contributions");
        }
        if self.leaf_ptr.len() != n + 1 {
            return Err("replay schedule: leaf pointer count differs from the contributions");
        }
        if self.leaf_vals.len() != self.leaf_rows.len()
            || !csr(&self.leaf_ptr, self.leaf_vals.len())
        {
            return Err("replay schedule: leaf pointers do not cover the leaf terms");
        }
        if !covers(&self.row_runs, n) {
            return Err("replay schedule: row runs do not cover the contributions");
        }
        if self.row_runs.iter().any(|r| r.key as usize >= out_rows) {
            return Err("replay schedule: output row out of range");
        }
        if !csr(&self.pattern_ptr, self.pattern_modes.len()) {
            return Err("replay schedule: pattern pointers do not cover the pattern modes");
        }
        if !covers(&self.pattern_runs, n) {
            return Err("replay schedule: pattern runs do not cover the contributions");
        }
        let patterns = self.pattern_ptr.len() as u32 - 1;
        if self.pattern_runs.iter().any(|r| r.key >= patterns) {
            return Err("replay schedule: pattern id out of range");
        }
        if self.pattern_modes.iter().any(|&m| m >= MAX_MODES)
            || (!self.leaf_rows.is_empty() && self.leaf_mode >= MAX_MODES as usize)
        {
            return Err("replay schedule: factor mode out of range");
        }
        let mut start = 0u64;
        let chain_terms = self.pattern_runs.iter().try_fold(0u64, |sum, r| {
            let terms = (u64::from(r.end) - start) * self.pattern(r.key).len() as u64;
            start = u64::from(r.end);
            sum.checked_add(terms)
        });
        if chain_terms != Some(self.chain_rows.len() as u64) {
            return Err("replay schedule: chain rows differ from what the pattern runs take");
        }
        Ok(())
    }

    /// Calls `visit(mode, row)` for every chain term, in order.
    fn for_each_chain_term(&self, mut visit: impl FnMut(u32, u32)) {
        let mut rows = self.chain_rows.iter();
        let mut start = 0;
        for run in &self.pattern_runs {
            let modes = self.pattern(run.key);
            for _ in start..run.end {
                for (&m, &row) in modes.iter().zip(rows.by_ref()) {
                    visit(m, row);
                }
            }
            start = run.end;
        }
    }

    /// Fills [`ReplaySchedule::reach`] from the leaf and chain terms.
    fn measure_reach(&mut self) {
        let mut reach = Vec::new();
        let mut note = |mode: usize, row: u32| {
            if mode >= reach.len() {
                reach.resize(mode + 1, 0);
            }
            reach[mode] = reach[mode].max(row as usize + 1);
        };
        if let Some(&top) = self.leaf_rows.iter().max() {
            note(self.leaf_mode, top);
        }
        self.for_each_chain_term(|mode, row| note(mode as usize, row));
        self.reach = reach;
    }
}

/// Walks a schedule's pattern runs forward: the chain-row offset of
/// contribution `at`, for `at` that never decrease across calls.
struct ChainCursor<'s> {
    sched: &'s ReplaySchedule,
    /// The pattern run holding the last contribution asked for.
    run: usize,
    /// The contribution that run starts at, and its chain-row offset.
    start: u32,
    chain: usize,
}

impl<'s> ChainCursor<'s> {
    fn new(sched: &'s ReplaySchedule) -> ChainCursor<'s> {
        ChainCursor {
            sched,
            run: 0,
            start: 0,
            chain: 0,
        }
    }

    fn offset(&mut self, at: u32) -> usize {
        let s = self.sched;
        while let Some(r) = s.pattern_runs.get(self.run) {
            if r.end > at {
                let width = s.pattern(r.key).len();
                return self.chain + (at - self.start) as usize * width;
            }
            self.chain += (r.end - self.start) as usize * s.pattern(r.key).len();
            self.start = r.end;
            self.run += 1;
        }
        self.chain
    }
}

/// Factor modes a schedule read from disk may name. Bounds the reach
/// table [`ReplaySchedule::measure_reach`] allocates; a plan over more
/// modes would need as many factor matrices.
const MAX_MODES: u32 = 1 << 16;

/// A replay accumulator: `[f32; R]` for the ranks [`RankDispatch`]
/// specializes, `Vec<f32>` for every other. Both run the same per-lane
/// f32 ops (those of [`axpy_into`] and [`scale_by`]); the array only hands
/// the compiler a fixed trip count.
trait Lanes: AsMut<[f32]> + AsRef<[f32]> {
    fn zeroed(rank: usize) -> Self;
    /// `self[c] = v`.
    fn splat(&mut self, v: f32);
    /// `self[c] += v * row[c]`.
    fn add_scaled(&mut self, v: f32, row: &[f32]);
    /// `self[c] *= row[c]`.
    fn mul_by(&mut self, row: &[f32]);
}

/// The array arm works on `&[f32; R]` rows, not on slices: in the faulted
/// loop, where the sink's checksum code is inlined too, slice loops of a
/// constant length still compiled to code about 1.5× slower.
impl<const R: usize> Lanes for [f32; R] {
    fn zeroed(_: usize) -> Self {
        [0.0; R]
    }

    #[inline]
    fn splat(&mut self, v: f32) {
        *self = [v; R];
    }

    #[inline]
    fn add_scaled(&mut self, v: f32, row: &[f32]) {
        let row: &[f32; R] = row.try_into().expect("a rank-R row holds R lanes");
        for c in 0..R {
            self[c] += v * row[c];
        }
    }

    #[inline]
    fn mul_by(&mut self, row: &[f32]) {
        let row: &[f32; R] = row.try_into().expect("a rank-R row holds R lanes");
        for c in 0..R {
            self[c] *= row[c];
        }
    }
}

impl Lanes for Vec<f32> {
    fn zeroed(rank: usize) -> Self {
        vec![0.0; rank]
    }

    #[inline]
    fn splat(&mut self, v: f32) {
        self.as_mut_slice().fill(v);
    }

    #[inline]
    fn add_scaled(&mut self, v: f32, row: &[f32]) {
        axpy_into(self, v, row);
    }

    #[inline]
    fn mul_by(&mut self, row: &[f32]) {
        scale_by(self, row);
    }
}

/// Where [`Plan::replay_range`] commits each contribution's accumulator:
/// into the output row of the row run the replay walks.
trait Fold {
    fn begin_block(&mut self, y: &mut Matrix, block: usize);
    /// Starts a run of contributions to output row `row`.
    fn open(&mut self, y: &mut Matrix, row: usize);
    /// Folds one contribution into the open row.
    fn commit(&mut self, y: &mut Matrix, acc: &[f32]);
}

/// The faulted fold: every contribution goes through the sink, which
/// checksums it and latches the block's bit flip, as the emitting kernels
/// commit.
struct Checked<'s> {
    sink: &'s mut AbftSink,
    row: usize,
}

impl Fold for Checked<'_> {
    #[inline]
    fn begin_block(&mut self, y: &mut Matrix, block: usize) {
        self.sink.begin_block(y, block);
    }

    #[inline]
    fn open(&mut self, _: &mut Matrix, row: usize) {
        self.row = row;
    }

    #[inline]
    fn commit(&mut self, y: &mut Matrix, acc: &[f32]) {
        self.sink.contribute(y, self.row, acc);
    }
}

/// The fault-free fold: the open output row lives in `sum` across its
/// run of contributions, loaded at the run's start and written back when
/// the next run opens and when the range ends ([`HeldRow::store`]), the
/// way the HB-CSF kernel keeps a slice's partial sum on chip.
struct HeldRow<A> {
    row: Option<usize>,
    sum: A,
}

impl<A: Lanes> HeldRow<A> {
    fn store(&mut self, y: &mut Matrix) {
        if let Some(i) = self.row.take() {
            y.row_mut(i).copy_from_slice(self.sum.as_ref());
        }
    }
}

impl<A: Lanes> Fold for HeldRow<A> {
    #[inline]
    fn begin_block(&mut self, _: &mut Matrix, _: usize) {}

    #[inline]
    fn open(&mut self, y: &mut Matrix, row: usize) {
        self.store(y);
        self.sum.as_mut().copy_from_slice(y.row(row));
        self.row = Some(row);
    }

    #[inline]
    fn commit(&mut self, _: &mut Matrix, acc: &[f32]) {
        self.sum.add_scaled(1.0, acc);
    }
}

/// Row `row` of a row-major factor with `r` columns.
#[inline]
fn factor_row(data: &[f32], row: u32, r: usize) -> &[f32] {
    let at = row as usize * r;
    &data[at..at + r]
}

/// What a [`PlanBuilder`] retains of the capture. The kernels' emit code
/// is mode-blind — it calls the same `begin_block`/`contrib`/`leaf`/
/// `chain` sequence either way — so the block ordinals, weights, and kept
/// schedules are identical across modes by construction. This is what lets
/// the streaming capture (`super::stream`) run the emit body twice with
/// small builders instead of once with a whole-schedule builder.
pub(crate) enum CaptureMode<'a> {
    /// Retain everything (the classic capture).
    Full,
    /// Retain only a per-block weight (`1 + contribs + leaves + chains`,
    /// the [`Plan::block_weight_prefix`] formula); schedule arrays and
    /// launch blocks are discarded block by block, so the builder's
    /// footprint is one block, not one schedule.
    WeightsOnly {
        weights: Vec<u64>,
        started: bool,
        contribs: u64,
        leaves: u64,
        chains: u64,
    },
    /// Retain one shard's blocks at a time: shard `s` holds the global
    /// block ordinals `ends[s - 1]..ends[s]` (the `shard_ranges` cuts,
    /// with the same ordinals [`Plan::block_weight_prefix`] weights).
    /// When the emit passes a cut, the kept schedule is sealed into a
    /// plan exactly as [`PlanBuilder::finish`] seals, handed to `sink`
    /// with its shard index, and dropped. Launch blocks are dropped for
    /// every block — shard plans are values-only replay artifacts (only
    /// the schedule is serialized), so keeping the simulation instruction
    /// stream would only inflate capture-time peak memory.
    Sharded(ShardSeal<'a>),
    /// Retain only the launch blocks inside the requested ranges, and no
    /// schedule: a plan's re-emission ([`Plan::simulate_ranges`]).
    Ranges(RangeCut<'a>),
}

/// The state of a [`CaptureMode::Ranges`] re-emission. Ranges are in
/// schedule-block ordinals, sorted and disjoint; range `k` holds the
/// launch blocks whose ordinal lies in `ranges[k]`. An ordinal with no
/// launch block — F-COO's probe past its first pass — adds nothing to its
/// range.
pub(crate) struct RangeCut<'a> {
    ranges: &'a [(usize, usize)],
    /// The range the kept launch blocks belong to.
    next: usize,
    /// Blocks begun so far; the block being emitted is ordinal
    /// `begun - 1`.
    begun: usize,
    sink: &'a mut dyn FnMut(usize, KernelLaunch),
}

impl RangeCut<'_> {
    /// Hands the kept blocks to the sink as range `next`'s launch.
    fn hand_out(&mut self, launch: &mut KernelLaunch) {
        let name = launch.name.clone();
        (self.sink)(
            self.next,
            std::mem::replace(launch, KernelLaunch::new(name)),
        );
        self.next += 1;
    }
}

/// The state of a [`CaptureMode::Sharded`] capture.
pub(crate) struct ShardSeal<'a> {
    /// End block ordinal of each shard; the last is the block count.
    ends: Vec<usize>,
    /// The shard the kept schedule belongs to.
    shard: usize,
    /// Blocks begun so far.
    seen: usize,
    sink: &'a mut dyn FnMut(usize, &Plan) -> TensorResult<()>,
    /// The sink's first error; later shards are sealed but not handed on.
    error: Option<TensorError>,
}

/// Capture-time recorder the kernels emit into: collects the
/// [`KernelLaunch`] (blocks/warps/ops) and the [`ReplaySchedule`]
/// side by side, replacing the historical `(launch, y, sink)` triple.
pub(crate) struct PlanBuilder<'a> {
    name: String,
    mode: usize,
    rank: usize,
    out_rows: usize,
    /// The kept blocks of the simulated instruction stream.
    launch: KernelLaunch,
    sched: ReplaySchedule,
    /// The chain modes of the open contribution, so far.
    chain_open: Vec<u32>,
    footprint: MemoryFootprint,
    capture: CaptureMode<'a>,
    /// The per-contribution schedule the compact one is checked against.
    #[cfg(test)]
    oracle: Option<tests::SoaSchedule>,
}

impl<'a> PlanBuilder<'a> {
    pub fn new(name: &str, mode: usize, rank: usize, out_rows: usize) -> PlanBuilder<'a> {
        Self::with_capture(name, mode, rank, out_rows, CaptureMode::Full)
    }

    /// A builder that records only per-block weights (streaming pass 1).
    pub fn new_weights_only(
        name: &str,
        mode: usize,
        rank: usize,
        out_rows: usize,
    ) -> PlanBuilder<'a> {
        Self::with_capture(
            name,
            mode,
            rank,
            out_rows,
            CaptureMode::WeightsOnly {
                weights: Vec::new(),
                started: false,
                contribs: 0,
                leaves: 0,
                chains: 0,
            },
        )
    }

    /// A builder that seals shard `s` — blocks `ranges[s].0..ranges[s].1`
    /// of consecutive, covering `ranges` — into `sink` as soon as the
    /// emit passes its end (streaming pass 2, every shard in one pass).
    pub fn new_sharded(
        name: &str,
        mode: usize,
        rank: usize,
        out_rows: usize,
        ranges: &[(usize, usize)],
        sink: &'a mut dyn FnMut(usize, &Plan) -> TensorResult<()>,
    ) -> PlanBuilder<'a> {
        assert!(!ranges.is_empty(), "a sharded capture needs a shard");
        Self::with_capture(
            name,
            mode,
            rank,
            out_rows,
            CaptureMode::Sharded(ShardSeal {
                ends: ranges.iter().map(|r| r.1).collect(),
                shard: 0,
                seen: 0,
                sink,
                error: None,
            }),
        )
    }

    /// A builder that keeps only the launch blocks inside `ranges` and
    /// hands range `k`'s blocks to `sink` as soon as the emit passes its
    /// end (see [`RangeCut`]).
    fn new_ranges(
        plan: &Plan,
        ranges: &'a [(usize, usize)],
        sink: &'a mut dyn FnMut(usize, KernelLaunch),
    ) -> PlanBuilder<'a> {
        assert!(
            ranges.iter().all(|r| r.0 <= r.1) && ranges.windows(2).all(|w| w[0].1 <= w[1].0),
            "re-emitted ranges must be sorted and disjoint"
        );
        Self::with_capture(
            &plan.name,
            plan.mode,
            plan.rank,
            plan.out_rows,
            CaptureMode::Ranges(RangeCut {
                ranges,
                next: 0,
                begun: 0,
                sink,
            }),
        )
    }

    fn with_capture(
        name: &str,
        mode: usize,
        rank: usize,
        out_rows: usize,
        capture: CaptureMode<'a>,
    ) -> PlanBuilder<'a> {
        PlanBuilder {
            name: name.to_string(),
            mode,
            rank,
            out_rows,
            launch: KernelLaunch::new(name),
            sched: ReplaySchedule::empty(0),
            chain_open: Vec::new(),
            footprint: MemoryFootprint::default(),
            capture,
            #[cfg(test)]
            oracle: None,
        }
    }

    /// Hands the emission to the test oracle, when one is set.
    #[cfg(test)]
    fn tap(&mut self, f: impl FnOnce(&mut tests::SoaSchedule)) {
        if let Some(o) = &mut self.oracle {
            f(o);
        }
    }

    /// Declares the factor mode leaf reductions read (fiber kernels).
    pub fn set_leaf_mode(&mut self, mode: usize) {
        self.sched.leaf_mode = mode;
    }

    /// Records the capture's device-memory footprint (kernels call this
    /// right after finishing their [`AddressSpace`] layout).
    pub fn set_footprint(&mut self, footprint: MemoryFootprint) {
        self.footprint = footprint;
    }

    /// Marks the start of the next thread block — called exactly where the
    /// kernels called `sink.begin_block` (once per block ordinal, in
    /// emission order), so fault draws key identically at replay.
    pub fn begin_block(&mut self) {
        #[cfg(test)]
        self.tap(|o| o.begin_block());
        match &mut self.capture {
            CaptureMode::Full => self.sched.block_ptr.push(self.sched.init_vals.len() as u32),
            CaptureMode::WeightsOnly {
                weights,
                started,
                contribs,
                leaves,
                chains,
            } => {
                if *started {
                    weights.push(1 + *contribs + *leaves + *chains);
                }
                *started = true;
                *contribs = 0;
                *leaves = 0;
                *chains = 0;
            }
            CaptureMode::Sharded(cut) => {
                let block = cut.seen;
                cut.seen += 1;
                self.seal_shards(Some(block));
                self.sched.block_ptr.push(self.sched.init_vals.len() as u32);
            }
            CaptureMode::Ranges(cut) => cut.begun += 1,
        }
    }

    /// Appends the next launch block, called once per block the kernel
    /// launches, right after its `begin_block`. Only a full capture and a
    /// re-emission keep blocks; the streaming captures drop them.
    pub fn push_block(&mut self, block: BlockWork) {
        #[cfg(test)]
        self.tap(|o| o.push_block());
        match &mut self.capture {
            CaptureMode::Full => self.launch.blocks.push(block),
            CaptureMode::Ranges(cut) => {
                let k = cut.begun - 1;
                while cut.next < cut.ranges.len() && cut.ranges[cut.next].1 <= k {
                    cut.hand_out(&mut self.launch);
                }
                if cut.next < cut.ranges.len() && cut.ranges[cut.next].0 <= k {
                    self.launch.blocks.push(block);
                }
            }
            CaptureMode::WeightsOnly { .. } | CaptureMode::Sharded(_) => {}
        }
    }

    /// Whether this capture records the replay schedule.
    fn records_schedule(&self) -> bool {
        matches!(self.capture, CaptureMode::Full | CaptureMode::Sharded(_))
    }

    /// Starts a contribution to output row `row` with accumulator seed
    /// `init` (used only if no leaves follow).
    pub fn contrib(&mut self, row: usize, init: f32) {
        #[cfg(test)]
        self.tap(|o| o.contrib(row, init));
        if let CaptureMode::WeightsOnly { contribs, .. } = &mut self.capture {
            *contribs += 1;
            return;
        }
        if !self.records_schedule() {
            return;
        }
        self.close_contrib();
        let s = &mut self.sched;
        s.init_vals.push(init);
        s.leaf_ptr.push(s.leaf_vals.len() as u32);
        push_run(&mut s.row_runs, row as u32, s.init_vals.len() as u32);
    }

    /// Ends the open contribution, if any: its chain modes join the
    /// pattern runs.
    fn close_contrib(&mut self) {
        let s = &mut self.sched;
        let n = s.init_vals.len() as u32;
        if s.pattern_runs.last().map_or(0, |r| r.end) < n {
            let p = s.pattern_id(&self.chain_open);
            push_run(&mut s.pattern_runs, p, n);
            self.chain_open.clear();
        }
    }

    /// Appends a leaf term `val × factors[leaf_mode].row(row)` to the
    /// current contribution.
    pub fn leaf(&mut self, val: f32, row: usize) {
        #[cfg(test)]
        self.tap(|o| o.leaf(val, row));
        if let CaptureMode::WeightsOnly { leaves, .. } = &mut self.capture {
            *leaves += 1;
            return;
        }
        if !self.records_schedule() {
            return;
        }
        self.sched.leaf_vals.push(val);
        self.sched.leaf_rows.push(row as u32);
    }

    /// Appends a Hadamard scaling by `factors[mode].row(row)` to the
    /// current contribution.
    pub fn chain(&mut self, mode: usize, row: usize) {
        #[cfg(test)]
        self.tap(|o| o.chain(mode, row));
        if let CaptureMode::WeightsOnly { chains, .. } = &mut self.capture {
            *chains += 1;
            return;
        }
        if !self.records_schedule() {
            return;
        }
        self.chain_open.push(mode as u32);
        self.sched.chain_rows.push(row as u32);
    }

    /// Seals a full capture into an executable [`Plan`] that keeps
    /// `source` to re-emit from. The simulator's cost pass runs over the
    /// captured launch under `ctx` (its device, cost model, and — when
    /// profiling — per-row atomic detail), and the launch is dropped: the
    /// plan keeps the [`CostTable`]. The schedule arrays are trimmed: the
    /// plan holds them for its whole life, and their growth slack would
    /// be a fifth of them. (Shard plans are written out and dropped, so
    /// `seal_shards` leaves theirs.) A profiling `ctx` counts the plan's
    /// resident bytes: `plan.cost_bytes` (the cost table),
    /// `plan.format_bytes` (the kept layout) and `plan.schedule_bytes`
    /// (the schedule arrays).
    pub fn finish(mut self, ctx: &GpuContext, source: Arc<AnyFormat>) -> Plan {
        let launch = std::mem::take(&mut self.launch);
        let costs = cost_pass(&ctx.device, &ctx.cost, &launch, ctx.profiling(), None);
        drop(launch);
        let mut plan = self.seal();
        plan.sched.trim();
        plan.costs = costs;
        if ctx.profiling() {
            ctx.registry
                .add("plan.cost_bytes", plan.costs.bytes() as u64);
            ctx.registry.add("plan.format_bytes", source.array_bytes());
            ctx.registry
                .add("plan.schedule_bytes", plan.sched.bytes() as u64);
        }
        plan.source = Some(Source {
            format: source,
            warps_per_block: ctx.warps_per_block,
        });
        plan
    }

    /// Seals the kept schedule into a [`Plan`] with no cost table and no
    /// layout, leaving an empty schedule (same leaf mode) behind. A shard
    /// plan sealed this way has *local* block ordinals — correct for
    /// clean replay (the ordered fold is position-independent) but not
    /// for fault draws, which key on global ordinals.
    fn seal(&mut self) -> Plan {
        self.close_contrib();
        let fresh = ReplaySchedule::empty(self.sched.leaf_mode);
        let mut sched = std::mem::replace(&mut self.sched, fresh);
        sched.block_ptr.push(sched.init_vals.len() as u32);
        sched.leaf_ptr.push(sched.leaf_vals.len() as u32);
        sched.measure_reach();
        Plan::from_schedule(
            &self.name,
            self.mode,
            self.rank,
            self.out_rows,
            sched,
            self.footprint,
        )
    }

    /// Hands a [`CaptureMode::Ranges`] re-emission's last ranges — the
    /// open one and any after it, empty — to the sink.
    fn finish_ranges(mut self) {
        let CaptureMode::Ranges(cut) = &mut self.capture else {
            panic!("finish_ranges on a capture that keeps no ranges");
        };
        while cut.next < cut.ranges.len() {
            cut.hand_out(&mut self.launch);
        }
    }

    /// Under [`CaptureMode::Sharded`], seals each shard that ends at or
    /// before block ordinal `block` — every shard left when `None` — and
    /// hands it to the sink. The last shard seals only at the end.
    fn seal_shards(&mut self, block: Option<usize>) {
        loop {
            let CaptureMode::Sharded(cut) = &self.capture else {
                return;
            };
            let due = match block {
                Some(b) => cut.shard + 1 < cut.ends.len() && cut.ends[cut.shard] <= b,
                None => cut.shard < cut.ends.len(),
            };
            if !due {
                return;
            }
            let plan = self.seal();
            if let CaptureMode::Sharded(cut) = &mut self.capture {
                if cut.error.is_none() {
                    cut.error = (cut.sink)(cut.shard, &plan).err();
                }
                cut.shard += 1;
            }
        }
    }

    /// Seals a [`CaptureMode::Sharded`] capture's last shards — the open
    /// one and any empty ones after it — and returns the shard count, or
    /// the sink's first error.
    ///
    /// # Panics
    /// If the builder was not created with [`PlanBuilder::new_sharded`].
    pub fn finish_shards(mut self) -> TensorResult<usize> {
        self.seal_shards(None);
        let CaptureMode::Sharded(cut) = self.capture else {
            panic!("finish_shards on an unsharded capture");
        };
        match cut.error {
            Some(e) => Err(e),
            None => Ok(cut.ends.len()),
        }
    }

    /// Seals a [`CaptureMode::WeightsOnly`] capture into the block-weight
    /// prefix sums — `len == begin_block calls + 1`, entry for entry what
    /// [`Plan::block_weight_prefix`] computes from a full capture.
    ///
    /// # Panics
    /// If the builder was not created with [`PlanBuilder::new_weights_only`].
    pub fn finish_weight_prefix(self) -> Vec<u64> {
        let CaptureMode::WeightsOnly {
            mut weights,
            started,
            contribs,
            leaves,
            chains,
        } = self.capture
        else {
            panic!("finish_weight_prefix on a non-weights capture");
        };
        if started {
            weights.push(1 + contribs + leaves + chains);
        }
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        prefix.push(0u64);
        for (b, w) in weights.into_iter().enumerate() {
            prefix.push(prefix[b] + w);
        }
        prefix
    }
}

/// What a plan keeps to re-emit its launch: the layout it was captured
/// from and the capture's block geometry.
#[derive(Debug)]
struct Source {
    format: Arc<AnyFormat>,
    warps_per_block: usize,
}

/// A captured kernel launch: replayable against any factor values of the
/// captured rank, with the structure-dependent simulation memoized.
///
/// A plan is specific to the `(format, rank, ctx)` it was captured under:
/// replaying it through a context with a different device, cost model, or
/// `warps_per_block` would pair the wrong simulation with the output.
/// Fault plans are the exception — they vary per execute (see
/// [`Plan::execute`]).
#[derive(Debug)]
pub struct Plan {
    name: String,
    mode: usize,
    rank: usize,
    out_rows: usize,
    /// Which value-phase implementation replays run through; defaults to
    /// the rank-keyed specialization and can be forced generic (benches,
    /// bit-identity tests).
    dispatch: RankDispatch,
    sched: ReplaySchedule,
    /// Device-memory requirements, sized at capture time.
    footprint: MemoryFootprint,
    /// The simulator's cost pass over the captured launch; empty for a
    /// plan with no layout.
    costs: CostTable,
    /// The layout to re-emit from; `None` for plans read from a plan file
    /// and streamed shard plans.
    source: Option<Source>,
    /// The whole launch, re-emitted on the first [`Plan::launch`] call.
    launch: OnceLock<KernelLaunch>,
    /// Fault-free scheduling pass, computed once on first execute.
    sim_clean: OnceLock<SimResult>,
    /// Its profile, kept only once a profiling context has asked for it.
    clean_profile: OnceLock<SimProfile>,
    /// Last faulted simulation keyed by its [`FaultPlan`] — `run_verified`
    /// retries re-execute under `plan.with_attempt(n)`, a different key.
    sim_faulted: Mutex<Option<(FaultPlan, SimResult, SimProfile)>>,
    /// Last aggregated tiled simulation, keyed by the tile byte budget
    /// (tile ranges are a pure function of the budget).
    sim_tiled: Mutex<Option<(u64, SimResult)>>,
}

impl Plan {
    /// A plan over `sched` with no cost table and no layout.
    fn from_schedule(
        name: &str,
        mode: usize,
        rank: usize,
        out_rows: usize,
        sched: ReplaySchedule,
        footprint: MemoryFootprint,
    ) -> Plan {
        Plan {
            name: name.to_string(),
            mode,
            rank,
            out_rows,
            dispatch: RankDispatch::for_rank(rank),
            sched,
            footprint,
            costs: CostTable::default(),
            source: None,
            launch: OnceLock::new(),
            sim_clean: OnceLock::new(),
            clean_profile: OnceLock::new(),
            sim_faulted: Mutex::new(None),
            sim_tiled: Mutex::new(None),
        }
    }

    /// Captures `format` under the launch name `name` for rank `rank`:
    /// the kernel's capture body into a full builder, sealed with `format`
    /// kept to re-emit from.
    pub(crate) fn capture(
        ctx: &GpuContext,
        name: &str,
        format: Arc<AnyFormat>,
        rank: usize,
    ) -> Plan {
        let mode = format.output_mode();
        let out_rows = format.dims()[mode] as usize;
        let mut pb = PlanBuilder::new(name, mode, rank, out_rows);
        format.capture_into(rank, ctx.warps_per_block, &mut pb);
        pb.finish(ctx, format)
    }

    /// Kernel (launch) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output mode the capture computes.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Factor rank the capture is valid for.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Output rows (`dims[mode]`) the capture produces.
    pub fn out_rows(&self) -> usize {
        self.out_rows
    }

    /// The value-phase implementation replays run through.
    pub fn dispatch(&self) -> RankDispatch {
        self.dispatch
    }

    /// Toggles the const-generic value phase: `true` restores the
    /// rank-keyed default, `false` forces the generic fallback (the two
    /// produce bit-identical output — this exists so benches and tests can
    /// time/compare the arms).
    pub fn set_rank_specialization(&mut self, on: bool) {
        self.dispatch = if on {
            RankDispatch::for_rank(self.rank)
        } else {
            RankDispatch::Generic
        };
    }

    /// Device-memory requirements, sized at capture time.
    pub fn footprint(&self) -> &MemoryFootprint {
        &self.footprint
    }

    /// The captured instruction stream, re-emitted from the kept layout
    /// on first call and kept from then on (an empty launch for a plan
    /// with no layout). For tools and checks that drive the simulator
    /// themselves; the plan's own simulations never need it.
    pub fn launch(&self) -> &KernelLaunch {
        self.launch.get_or_init(|| {
            let mut whole = None;
            self.emit_ranges(&[(0, usize::MAX)], &mut |_, launch| whole = Some(launch));
            whole.expect("one range, one launch")
        })
    }

    /// Consumes the plan, yielding the captured launch (for tools that
    /// drive the simulator themselves, e.g. `balance_viz`).
    pub fn into_launch(self) -> KernelLaunch {
        self.launch();
        self.launch.into_inner().expect("launch() filled the cell")
    }

    /// The simulator's cost pass over the captured launch.
    pub fn costs(&self) -> &CostTable {
        &self.costs
    }

    /// Re-emits the launch through the kept layout's capture body, handing
    /// `sink` one launch per range of `ranges` (schedule-block ordinals,
    /// sorted and disjoint), in order, each as soon as the emission passes
    /// its end: range `(b0, b1)` holds the launch blocks of ordinals
    /// `b0..b1` (see [`RangeCut`]). One emission serves every range. A
    /// plan with no layout hands out empty launches.
    pub(crate) fn emit_ranges(
        &self,
        ranges: &[(usize, usize)],
        sink: &mut dyn FnMut(usize, KernelLaunch),
    ) {
        let Some(src) = &self.source else {
            for k in 0..ranges.len() {
                sink(k, KernelLaunch::new(&self.name));
            }
            return;
        };
        let mut pb = PlanBuilder::new_ranges(self, ranges, sink);
        src.format
            .capture_into(self.rank, src.warps_per_block, &mut pb);
        pb.finish_ranges();
    }

    /// The fault-free simulation of each of `ranges` (sorted, disjoint
    /// schedule-block ranges, as tiles and shards are cut) as its own
    /// launch, `None` for a range that holds no launch block, from one
    /// re-emission
    /// ([`Plan::emit_ranges`]). Each range is simulated under `ctx`'s
    /// device model as soon as the emission passes its end, then dropped.
    pub(crate) fn simulate_ranges(
        &self,
        ctx: &GpuContext,
        ranges: &[(usize, usize)],
    ) -> Vec<Option<SimResult>> {
        let mut sims = vec![None; ranges.len()];
        self.emit_ranges(ranges, &mut |k, launch| {
            if !launch.blocks.is_empty() {
                sims[k] = Some(simulate(&ctx.device, &ctx.cost, &launch));
            }
        });
        sims
    }

    /// The captured replay schedule.
    pub fn schedule(&self) -> &ReplaySchedule {
        &self.sched
    }

    /// Replays the capture against `factors`, producing the same [`GpuRun`]
    /// the emitting kernel would: identical `y` bits, identical (memoized)
    /// `SimResult`, and — under `ctx`'s fault plan — identical ABFT data.
    ///
    /// Factors whose rank disagrees with the captured rank are rejected
    /// with [`LaunchError::RankMismatch`] (service-facing paths must not
    /// panic on tenant input).
    pub fn execute(&self, ctx: &GpuContext, factors: &[Matrix]) -> Result<GpuRun, LaunchError> {
        self.validate_factors(factors)?;
        let _lease = self.lease_full(ctx);
        Ok(self.execute_inner(ctx, factors))
    }

    /// [`Plan::execute`] for callers that already ran
    /// [`Plan::validate_factors`]. Validation is context-independent
    /// (factor shapes against the captured rank), so one up-front check
    /// covers every replay of the same factors — including ABFT retry
    /// contexts — and the replay itself is infallible.
    pub fn execute_validated(&self, ctx: &GpuContext, factors: &[Matrix]) -> GpuRun {
        let _lease = self.lease_full(ctx);
        self.execute_inner(ctx, factors)
    }

    /// Checks every factor's column count against the captured rank, and
    /// that the factors hold every row the schedule reads.
    pub fn validate_factors(&self, factors: &[Matrix]) -> Result<(), LaunchError> {
        if factors.is_empty() && self.rank != 0 {
            return Err(LaunchError::RankMismatch {
                expected: self.rank,
                got: 0,
            });
        }
        for f in factors {
            if f.cols() != self.rank {
                return Err(LaunchError::RankMismatch {
                    expected: self.rank,
                    got: f.cols(),
                });
            }
        }
        let reach = &self.sched.reach;
        if factors.len() < reach.len() {
            return Err(LaunchError::FactorCount {
                expected: reach.len(),
                got: factors.len(),
            });
        }
        for (mode, (&rows, f)) in reach.iter().zip(factors).enumerate() {
            if f.rows() < rows {
                return Err(LaunchError::FactorShape {
                    mode,
                    expected_rows: rows,
                    got_rows: f.rows(),
                });
            }
        }
        Ok(())
    }

    /// Leases the plan's full footprint from `ctx`'s device memory
    /// (unchecked observation — the checked path lives in
    /// [`super::ooc::execute_adaptive`]).
    pub(crate) fn lease_full(&self, ctx: &GpuContext) -> MemLease {
        ctx.memory.lease(&self.footprint_parts())
    }

    /// `(label, bytes)` triplet describing the full footprint.
    pub(crate) fn footprint_parts(&self) -> Vec<(String, u64)> {
        vec![
            (
                format!("{}.factors", self.name),
                self.footprint.factor_bytes,
            ),
            (format!("{}.output", self.name), self.footprint.output_bytes),
            (format!("{}.format", self.name), self.footprint.format_bytes),
        ]
    }

    /// [`Plan::execute`] without the memory lease or factor validation —
    /// for callers that have already leased (full-device or per-tile) and
    /// validated through the checked path.
    pub(crate) fn execute_inner(&self, ctx: &GpuContext, factors: &[Matrix]) -> GpuRun {
        debug_assert!(
            self.validate_factors(factors).is_ok(),
            "plan '{}' captured for rank {}, factors disagree",
            self.name,
            self.rank
        );
        let (y, abft) = self.replay_ranges(ctx, factors, &[(0, self.sched.num_blocks())]);
        let (sim, profile) = self.sim_for(ctx);
        if ctx.profiling() {
            ctx.registry.add("plan.replays", 1);
            if self.dispatch.is_specialized() {
                ctx.registry.add("plan.replays_specialized", 1);
            }
        }
        let tel = &ctx.telemetry;
        if tel.enabled() {
            tel.emit(
                "kernel-replay",
                None,
                tel.new_span(),
                &[
                    ("kernel", FieldValue::from(self.name.as_str())),
                    ("mode", FieldValue::from(self.mode)),
                    ("sim_kernel_us", FieldValue::from(sim.time_s * 1e6)),
                    ("faulted", FieldValue::from(ctx.fault_plan().is_some())),
                    ("dispatch", FieldValue::from(self.dispatch.label())),
                ],
            );
        }
        // The simulated clock advances by the replayed kernel's sim time
        // whether or not events are being rendered — iteration timings in
        // cpd.rs are derived from it.
        tel.advance_us(sim.time_s * 1e6);
        GpuRun {
            y,
            sim,
            profile,
            abft,
        }
    }

    /// The scheduling pass over the kept cost table under `plan`, recorded
    /// into `ctx`'s registry and event stream. A context that records the
    /// L2 address stream gets the launch's stream again, as a simulation
    /// of the stream itself records it: the launch is re-emitted and
    /// walked once more for the trace alone.
    fn schedule_sim(&self, ctx: &GpuContext, plan: Option<&FaultPlan>) -> (SimResult, SimProfile) {
        if let Some(rec) = ctx.memtrace.as_deref() {
            self.emit_ranges(&[(0, usize::MAX)], &mut |_, launch| {
                cost_pass(&ctx.device, &ctx.cost, &launch, false, Some(rec));
            });
        }
        schedule_pass(
            &ctx.device,
            &self.name,
            &self.costs,
            &ctx.registry,
            plan,
            Some(&ctx.telemetry),
        )
    }

    /// The memoized simulation for `ctx`'s fault state. Faulted runs always
    /// keep the profile (the injected-fault ledger lives there); clean runs
    /// keep it only when profiling.
    fn sim_for(&self, ctx: &GpuContext) -> (SimResult, Option<SimProfile>) {
        match ctx.fault_plan() {
            Some(plan) => {
                // Poisoning only means a panic elsewhere mid-fill; refill
                // rather than cascading the panic out of a cache lookup.
                let mut cached = self
                    .sim_faulted
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                match cached.as_ref() {
                    Some((key, sim, profile)) if key == plan => {
                        let out = (sim.clone(), Some(profile.clone()));
                        drop(cached);
                        self.note_cache_hit(ctx, "faulted");
                        out
                    }
                    _ => {
                        let (sim, profile) = self.schedule_sim(ctx, Some(plan));
                        *cached = Some((plan.clone(), sim.clone(), profile.clone()));
                        (sim, Some(profile))
                    }
                }
            }
            None => {
                let sim = self.clean_sim_cached(ctx).clone();
                let profile = ctx.profiling().then(|| {
                    self.clean_profile
                        .get_or_init(|| self.quiet_schedule(ctx).1)
                        .clone()
                });
                (sim, profile)
            }
        }
    }

    /// The memoized fault-free simulation, computing (and instrumenting)
    /// it on first use. This is the *canonical* per-replay timing: it
    /// depends only on the captured launch and the device model — never on
    /// device count or fault state — so the telemetry clock advanced from
    /// it is identical across `--devices 1` and `--devices N` runs.
    ///
    /// The profile the pass yields is kept only under a profiling `ctx`;
    /// a later profiling context that finds none recomputes it through a
    /// quiet pass ([`Plan::quiet_schedule`]), which records nothing.
    pub(crate) fn clean_sim_cached(&self, ctx: &GpuContext) -> &SimResult {
        let hit = self.sim_clean.get().is_some();
        let sim = self.sim_clean.get_or_init(|| {
            let (sim, profile) = self.schedule_sim(ctx, None);
            if ctx.profiling() {
                let _ = self.clean_profile.set(profile);
            }
            sim
        });
        if hit {
            self.note_cache_hit(ctx, "clean");
        }
        sim
    }

    /// The fault-free scheduling pass over the kept cost table, recording
    /// nothing: no counters, no events, no address stream.
    fn quiet_schedule(&self, ctx: &GpuContext) -> (SimResult, SimProfile) {
        let quiet = simprof::Registry::disabled();
        schedule_pass(&ctx.device, &self.name, &self.costs, &quiet, None, None)
    }

    /// The fault-free simulation under `ctx`'s device model, recording
    /// nothing: the memoized one when a replay has filled it, else a
    /// scheduling pass of the kept cost table that is not memoized (so the
    /// first replay still records and emits as usual).
    pub fn clean_sim(&self, ctx: &GpuContext) -> SimResult {
        match self.sim_clean.get() {
            Some(sim) => sim.clone(),
            None => self.quiet_schedule(ctx).0,
        }
    }

    /// Emits a `plan-cache-hit` event: a replay was served from the
    /// memoized simulation instead of re-running the machine model.
    fn note_cache_hit(&self, ctx: &GpuContext, cache: &str) {
        let tel = &ctx.telemetry;
        if tel.enabled() {
            tel.emit(
                "plan-cache-hit",
                None,
                tel.new_span(),
                &[
                    ("kernel", FieldValue::from(self.name.as_str())),
                    ("mode", FieldValue::from(self.mode)),
                    ("cache", FieldValue::from(cache)),
                ],
            );
        }
    }

    /// Replays blocks `b0..b1` of the schedule into `y` (block ordinals
    /// are global schedule ordinals). Fault-free, each contribution folds
    /// into a register-held copy of its output row; through `sink`, each
    /// goes through the sink's `begin_block`/`contribute`, so checksums
    /// and fault draws match emission. Either way every lane of `y` sees
    /// `y += 1.0 * acc` per contribution in emission order, so any split
    /// of `0..num_blocks` into consecutive ranges replayed into one `y`
    /// (OOC tiles, shards) gives the untiled replay's bits.
    pub(crate) fn replay_range(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        sink: Option<&mut AbftSink>,
        b0: usize,
        b1: usize,
    ) {
        match self.dispatch {
            RankDispatch::R8 => self.replay_lanes::<[f32; 8]>(y, factors, sink, b0, b1),
            RankDispatch::R16 => self.replay_lanes::<[f32; 16]>(y, factors, sink, b0, b1),
            RankDispatch::R32 => self.replay_lanes::<[f32; 32]>(y, factors, sink, b0, b1),
            RankDispatch::Generic => self.replay_lanes::<Vec<f32>>(y, factors, sink, b0, b1),
        }
    }

    /// [`Plan::replay_range`] over accumulators of type `A`.
    fn replay_lanes<A: Lanes>(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        sink: Option<&mut AbftSink>,
        b0: usize,
        b1: usize,
    ) {
        match sink {
            Some(sink) => {
                let mut checked = Checked { sink, row: 0 };
                self.fold_range::<A>(y, factors, &mut checked, b0, b1);
            }
            None => {
                let mut held = HeldRow {
                    row: None,
                    sum: A::zeroed(self.rank),
                };
                self.fold_range::<A>(y, factors, &mut held, b0, b1);
                held.store(y);
            }
        }
    }

    /// The replay loop: walks the blocks, the row runs and the pattern
    /// runs together, and computes each contribution's accumulator
    /// exactly as the emitting kernel did (seed or leaf reduction, then
    /// the Hadamard chain) and hands it to `fold` at once. A range that
    /// starts inside a run finds the run by binary search.
    fn fold_range<A: Lanes>(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        fold: &mut impl Fold,
        b0: usize,
        b1: usize,
    ) {
        let s = &self.sched;
        let b1 = b1.min(s.num_blocks());
        if b0 >= b1 {
            return;
        }
        let mut acc = A::zeroed(self.rank);
        // A compile-time constant for the array arms.
        let r = acc.as_ref().len();
        let leaf = factors.get(s.leaf_mode).map_or(&[][..], Matrix::data);
        let lo = s.block_ptr[b0];
        let mut row_runs = s.row_runs[s.row_runs.partition_point(|run| run.end <= lo)..].iter();
        let mut cursor = ChainCursor::new(s);
        let mut at = cursor.offset(lo);
        let mut pattern_runs = s.pattern_runs[cursor.run..].iter();
        // The open runs' ends; a run opens when the walk reaches its end.
        let (mut row_end, mut pattern_end) = (lo, lo);
        let mut modes: Vec<&[f32]> = Vec::new();
        let mut c = lo;
        for b in b0..b1 {
            fold.begin_block(y, b);
            let block_end = s.block_ptr[b + 1];
            while c < block_end {
                if c == row_end {
                    let run = row_runs.next().expect("row runs cover the contributions");
                    fold.open(y, run.key as usize);
                    row_end = run.end;
                }
                if c == pattern_end {
                    let run = pattern_runs
                        .next()
                        .expect("pattern runs cover the contributions");
                    modes.clear();
                    modes.extend(
                        s.pattern(run.key)
                            .iter()
                            .map(|&m| factors[m as usize].data()),
                    );
                    pattern_end = run.end;
                }
                let stop = block_end.min(row_end).min(pattern_end);
                let (c0, c1) = (c as usize, stop as usize);
                let width = modes.len();
                let contribs = s.init_vals[c0..c1]
                    .iter()
                    .zip(s.leaf_ptr[c0..=c1].windows(2));
                for (&seed, l) in contribs {
                    let (l0, l1) = (l[0] as usize, l[1] as usize);
                    if l0 == l1 {
                        acc.splat(seed);
                    } else {
                        acc.splat(0.0);
                        for (&v, &row) in s.leaf_vals[l0..l1].iter().zip(&s.leaf_rows[l0..l1]) {
                            acc.add_scaled(v, factor_row(leaf, row, r));
                        }
                    }
                    for (&m, &row) in modes.iter().zip(&s.chain_rows[at..at + width]) {
                        acc.mul_by(factor_row(m, row, r));
                    }
                    at += width;
                    fold.commit(y, acc.as_ref());
                }
                c = stop;
            }
        }
    }

    /// Replays the schedule-block `ranges` in order into one fresh output.
    /// Under an execution-fault plan every contribution routes through one
    /// ABFT sink with global block ordinals, so consecutive ranges that
    /// cover the schedule give the untiled replay's output and checksums
    /// bit for bit.
    pub(crate) fn replay_ranges(
        &self,
        ctx: &GpuContext,
        factors: &[Matrix],
        ranges: &[(usize, usize)],
    ) -> (Matrix, Option<AbftData>) {
        let mut y = Matrix::zeros(self.out_rows, self.rank);
        let mut sink = ctx
            .fault_plan()
            .is_some()
            .then(|| ctx.abft_sink(&self.name, self.out_rows));
        for &(b0, b1) in ranges {
            self.replay_range(&mut y, factors, sink.as_mut(), b0, b1);
        }
        let abft = sink.and_then(|mut s| {
            s.flush(&mut y);
            s.into_data()
        });
        (y, abft)
    }

    /// Prefix sums of per-block tiling weights (`len == num_blocks + 1`).
    /// A block's weight approximates its share of the format arrays: its
    /// contribution, leaf, and chain entry counts, plus one so empty
    /// blocks still make progress when packed.
    pub(crate) fn block_weight_prefix(&self) -> Vec<u64> {
        let s = &self.sched;
        let nblocks = s.num_blocks();
        let mut prefix = Vec::with_capacity(nblocks + 1);
        prefix.push(0u64);
        let mut cursor = ChainCursor::new(s);
        let mut chain_lo = 0;
        for b in 0..nblocks {
            let (lo, hi) = (s.block_ptr[b], s.block_ptr[b + 1]);
            let chain_hi = cursor.offset(hi);
            let mut w = 1 + u64::from(hi - lo);
            w += u64::from(s.leaf_ptr[hi as usize] - s.leaf_ptr[lo as usize]);
            w += (chain_hi - chain_lo) as u64;
            chain_lo = chain_hi;
            prefix.push(prefix[b] + w);
        }
        prefix
    }

    /// The memoized aggregated tiled simulation for `budget`, filling via
    /// `compute` on miss (see `sim_tiled`).
    pub(crate) fn tiled_sim_cached(
        &self,
        budget: u64,
        compute: impl FnOnce() -> SimResult,
    ) -> SimResult {
        let mut cached = self
            .sim_tiled
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match cached.as_ref() {
            Some((key, sim)) if *key == budget => sim.clone(),
            _ => {
                let sim = compute();
                *cached = Some((budget, sim.clone()));
                sim
            }
        }
    }

    /// Serializes the *replayable* core of the plan (identity + schedule
    /// SoA arrays, little-endian) for the streaming shard store, as a
    /// frame of magic [`SCHED_MAGIC`]: the kernel name, mode, rank,
    /// output rows and leaf mode, then each schedule array as a `u64`
    /// count of `u32` words and its words — a run table as `(key, end)`
    /// word pairs. The captured instruction stream and
    /// footprint are deliberately not persisted: a deserialized plan
    /// replays values bit-identically but keeps no cost table and no
    /// layout (it simulates as an empty launch) — the streaming CPD
    /// driver computes values only.
    pub(crate) fn write_schedule(&self, w: impl std::io::Write) -> std::io::Result<()> {
        let mut w = FrameWriter::new(w, SCHED_MAGIC, SCHED_VERSION)?;
        w.u32(self.name.len() as u32)?;
        w.bytes(self.name.as_bytes())?;
        w.u32(self.mode as u32)?;
        w.u32(self.rank as u32)?;
        w.u64(self.out_rows as u64)?;
        let s = &self.sched;
        w.u32(s.leaf_mode as u32)?;
        let bits = |v: &f32| v.to_bits();
        let pair = |r: &Run| [r.key, r.end];
        section(&mut w, s.block_ptr.iter().copied())?;
        section(&mut w, s.row_runs.iter().flat_map(pair))?;
        section(&mut w, s.init_vals.iter().map(bits))?;
        section(&mut w, s.leaf_ptr.iter().copied())?;
        section(&mut w, s.leaf_vals.iter().map(bits))?;
        section(&mut w, s.leaf_rows.iter().copied())?;
        section(&mut w, s.pattern_ptr.iter().copied())?;
        section(&mut w, s.pattern_modes.iter().copied())?;
        section(&mut w, s.pattern_runs.iter().flat_map(pair))?;
        section(&mut w, s.chain_rows.iter().copied())?;
        w.finish()?.flush()
    }

    /// Reconstructs a value-replayable plan written by
    /// [`Plan::write_schedule`] from the `len` bytes `r` holds: the
    /// frame's checks, then the schedule's structure.
    pub(crate) fn read_schedule(r: impl std::io::Read, len: u64) -> TensorResult<Plan> {
        let mut r = FrameReader::new(r, len, SCHED_MAGIC, SCHED_VERSION)?;
        let n = r.u32()?;
        let name = String::from_utf8(r.bytes(u64::from(n))?)
            .map_err(|_| TensorError::invalid("plan", "kernel name not utf-8"))?;
        let mode = r.u32()? as usize;
        let rank = r.u32()? as usize;
        let out_rows = r.u64()? as usize;
        let leaf_mode = r.u32()? as usize;
        let mut u32s = || r.u64().and_then(|n| r.u32s(n));
        let floats = |words: Vec<u32>| words.into_iter().map(f32::from_bits).collect();
        let runs = |words: Vec<u32>| match words.len() % 2 {
            0 => Ok(words
                .chunks_exact(2)
                .map(|w| Run {
                    key: w[0],
                    end: w[1],
                })
                .collect()),
            _ => Err(TensorError::invalid(
                "plan",
                "replay schedule: a run table holds an odd word count",
            )),
        };
        let mut sched = ReplaySchedule {
            leaf_mode,
            block_ptr: u32s()?,
            row_runs: runs(u32s()?)?,
            init_vals: floats(u32s()?),
            leaf_ptr: u32s()?,
            leaf_vals: floats(u32s()?),
            leaf_rows: u32s()?,
            pattern_ptr: u32s()?,
            pattern_modes: u32s()?,
            pattern_runs: runs(u32s()?)?,
            chain_rows: u32s()?,
            reach: Vec::new(),
        };
        r.finish()?;
        sched
            .check(out_rows)
            .map_err(|msg| TensorError::invalid("plan", msg))?;
        sched.measure_reach();
        Ok(Plan::from_schedule(
            &name,
            mode,
            rank,
            out_rows,
            sched,
            MemoryFootprint::default(),
        ))
    }
}

/// Writes one schedule array: its `u32` word count, then its words.
fn section<W: std::io::Write>(
    w: &mut FrameWriter<W>,
    words: impl Iterator<Item = u32> + Clone,
) -> std::io::Result<()> {
    w.u64(words.clone().count() as u64)?;
    w.u32s(words)
}

/// Magic of a serialized [`ReplaySchedule`] ("sptk plan"), a schema over
/// [`sptensor::frame`].
const SCHED_MAGIC: &[u8; 4] = b"SPL1";
/// Version 3 keeps output rows as row runs and chain modes as patterns;
/// version 2 kept a row, a chain pointer and the chain modes per
/// contribution, and version 1 had no version field and no trailer.
const SCHED_VERSION: u32 = 3;

/// Per-mode HB-CSF plans for a CPD hot loop: build all formats and capture
/// all plans once (fanned over rayon — mode builds are independent), then
/// replay one plan per MTTKRP call.
pub struct ModePlans {
    plans: Vec<Plan>,
    /// Wall-clock seconds each mode's build+capture took (for manifests).
    pub build_seconds: Vec<f64>,
}

impl ModePlans {
    /// Builds the mode-`m` HB-CSF format and captures its plan, for every
    /// mode of `t`, in parallel.
    pub fn build_hbcsf(
        ctx: &GpuContext,
        t: &CooTensor,
        rank: usize,
        opts: BcsfOptions,
    ) -> ModePlans {
        let built: Vec<(Plan, f64)> = (0..t.order())
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|m| {
                let start = Instant::now();
                let perm = sptensor::mode_orientation(t.order(), m);
                let h = Hbcsf::build(t, &perm, opts);
                let plan = Arc::new(AnyFormat::Hbcsf(h)).capture_shared(ctx, rank);
                (plan, start.elapsed().as_secs_f64())
            })
            .collect();
        let (plans, build_seconds) = built.into_iter().unzip();
        ModePlans {
            plans,
            build_seconds,
        }
    }

    /// Captures plans for pre-built per-mode HB-CSF formats
    /// (`formats[m].perm[0] == m` expected). Each plan keeps a copy of its
    /// format; [`ModePlans::build_hbcsf`] keeps the formats it builds.
    pub fn from_formats(ctx: &GpuContext, formats: &[Hbcsf], rank: usize) -> ModePlans {
        let built: Vec<(Plan, f64)> = formats
            .par_iter()
            .map(|h| {
                let start = Instant::now();
                let plan = Arc::new(AnyFormat::Hbcsf(h.clone())).capture_shared(ctx, rank);
                (plan, start.elapsed().as_secs_f64())
            })
            .collect();
        let (plans, build_seconds) = built.into_iter().unzip();
        ModePlans {
            plans,
            build_seconds,
        }
    }

    /// Number of captured modes.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The mode-`mode` plan.
    pub fn plan(&self, mode: usize) -> &Plan {
        &self.plans[mode]
    }

    /// Toggles the const-generic value phase on every captured plan (see
    /// [`Plan::set_rank_specialization`]).
    pub fn set_rank_specialization(&mut self, on: bool) {
        for p in &mut self.plans {
            p.set_rank_specialization(on);
        }
    }

    /// Replays the mode-`mode` plan against `factors`.
    pub fn execute(
        &self,
        ctx: &GpuContext,
        factors: &[Matrix],
        mode: usize,
    ) -> Result<GpuRun, LaunchError> {
        self.plans[mode].execute(ctx, factors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{BuildOptions, KernelKind, MttkrpKernel};
    use crate::reference::random_factors;
    use gpu_sim::{simulate_instrumented, SimInstruments};
    use proptest::prelude::*;
    use simprof::Registry;
    use sptensor::dims::identity_perm;
    use sptensor::synth::uniform_random;
    use tensor_formats::{BcsfOptions, Hbcsf};

    /// The serialized schedule arrays, in file order.
    const ARRAYS: [&str; 10] = [
        "block_ptr",
        "row_runs",
        "init_vals",
        "leaf_ptr",
        "leaf_vals",
        "leaf_rows",
        "pattern_ptr",
        "pattern_modes",
        "pattern_runs",
        "chain_rows",
    ];

    /// The structural arrays, whose every element the check covers.
    const STRUCTURAL: [&str; 6] = [
        "block_ptr",
        "row_runs",
        "leaf_ptr",
        "pattern_ptr",
        "pattern_modes",
        "pattern_runs",
    ];

    /// The fixture's 4-way tensor (4 modes, so contributions carry chains).
    fn tensor() -> CooTensor {
        uniform_random(&[7, 9, 6, 5], 120, 0x5A1)
    }

    /// A small HB-CSF plan of [`tensor`] and its plan-file bytes.
    fn fixture() -> (Plan, Vec<u8>) {
        let ctx = GpuContext::tiny();
        let h = Hbcsf::build(&tensor(), &identity_perm(4), BcsfOptions::default());
        let plan = h.capture(&ctx, 4);
        let mut bytes = Vec::new();
        plan.write_schedule(&mut bytes).unwrap();
        (plan, bytes)
    }

    /// Byte offset of each array's `u64` length prefix, and its length.
    fn arrays(bytes: &[u8]) -> Vec<(usize, usize)> {
        let name_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        // frame header, name length, name, mode, rank, out_rows, leaf_mode
        let mut at = 8 + 4 + name_len + 4 + 4 + 8 + 4;
        let mut out = Vec::new();
        for _ in ARRAYS {
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            out.push((at, len));
            at += 8 + 4 * len;
        }
        assert_eq!(at + 8, bytes.len());
        out
    }

    fn read(bytes: &[u8]) -> TensorResult<Plan> {
        Plan::read_schedule(bytes, bytes.len() as u64)
    }

    /// `bytes` under a re-computed trailer, so a tampered field reaches
    /// the schedule's own checks.
    fn stamped(bytes: &[u8]) -> Vec<u8> {
        let n = bytes.len() - 8;
        let mut fold = sptensor::frame::WordFold::default();
        fold.update(&bytes[..n]);
        [&bytes[..n], &fold.value().to_le_bytes()[..]].concat()
    }

    fn invalid(bytes: &[u8], what: &str) {
        match read(&stamped(bytes)) {
            Err(e) => assert!(matches!(e, TensorError::Invalid { .. }), "{what}: {e}"),
            Ok(_) => panic!("{what}: corrupt schedule accepted"),
        }
    }

    #[test]
    fn schedule_check_accepts_what_capture_writes() {
        let (plan, bytes) = fixture();
        let back = read(&bytes).unwrap();
        assert_eq!(
            back.schedule().contributions(),
            plan.schedule().contributions()
        );
        for (name, (_, len)) in ARRAYS.iter().zip(arrays(&bytes)) {
            assert!(len > 0, "fixture must exercise {name}");
        }
    }

    #[test]
    fn shortened_or_cut_arrays_are_typed_errors() {
        let (plan, bytes) = fixture();
        let bp = &plan.schedule().block_ptr;
        // Dropping the last block pointer must lose a contribution.
        assert!(
            bp[bp.len() - 2] < bp[bp.len() - 1],
            "fixture's last block is empty"
        );
        for (name, (at, len)) in ARRAYS.iter().zip(arrays(&bytes)) {
            // One element fewer, the rest of the file intact.
            let end = at + 8 + 4 * len;
            let mut short = bytes[..at].to_vec();
            short.extend_from_slice(&(len as u64 - 1).to_le_bytes());
            short.extend_from_slice(&bytes[at + 8..end - 4]);
            short.extend_from_slice(&bytes[end..]);
            invalid(&short, &format!("{name} shortened"));
            // The file cut inside the array.
            let cut = read(&bytes[..at + 8 + 2 * len]).err();
            assert!(cut.is_some(), "{name} cut: accepted");
        }
    }

    #[test]
    fn high_bit_flips_in_structural_arrays_are_typed_errors() {
        let (_, bytes) = fixture();
        for (name, (at, len)) in ARRAYS.iter().zip(arrays(&bytes)) {
            if !STRUCTURAL.contains(name) {
                continue;
            }
            for i in 0..len {
                let mut bad = bytes.clone();
                bad[at + 8 + 4 * i + 3] ^= 0x80;
                invalid(&bad, &format!("{name}[{i}] bit 31"));
            }
        }
    }

    /// The arrays that index factors. A flip there can still read as a
    /// plan, so the factors check must refuse what the read lets through.
    const FACTOR_INDICES: [&str; 3] = ["leaf_rows", "pattern_modes", "chain_rows"];

    #[test]
    fn flipped_factor_indices_are_typed_errors() {
        let (_, bytes) = fixture();
        let ctx = GpuContext::tiny();
        let factors = random_factors(&tensor(), 4, 7);
        read(&bytes).unwrap().validate_factors(&factors).unwrap();
        let refused = |bad: &[u8], what: &str| match read(&stamped(bad)) {
            Err(e) => assert!(matches!(e, TensorError::Invalid { .. }), "{what}: {e}"),
            Ok(plan) => {
                assert!(plan.execute(&ctx, &factors).is_err(), "{what}: replayed");
            }
        };
        for (name, (at, len)) in ARRAYS.iter().zip(arrays(&bytes)) {
            if !FACTOR_INDICES.contains(name) {
                continue;
            }
            for i in 0..len {
                let word = at + 8 + 4 * i;
                let mut bad = bytes.clone();
                bad[word + 3] ^= 0x80;
                refused(&bad, &format!("{name}[{i}] bit 31"));
            }
        }
        // A pattern mode one past the last factor reads as a plan.
        let (at, len) = arrays(&bytes)[7];
        for i in 0..len {
            let word = at + 8 + 4 * i;
            let mut bad = bytes.clone();
            bad[word..word + 4].copy_from_slice(&4u32.to_le_bytes());
            let plan = read(&stamped(&bad)).unwrap();
            match plan.validate_factors(&factors) {
                Err(LaunchError::FactorCount { expected, got }) => {
                    assert_eq!((expected, got), (5, 4), "pattern_modes[{i}]")
                }
                other => panic!("pattern_modes[{i}] = 4: {other:?}"),
            }
        }
    }

    /// A 4-way HB-CSF plan whose heavy slices span several blocks, and
    /// the block cuts that fall inside one output row's run.
    fn split_fixture(rank: usize) -> (Plan, Vec<Matrix>, Vec<usize>) {
        let t = uniform_random(&[3, 24, 20, 16], 2500, 0x5B1);
        let opts = BcsfOptions {
            slice_nnz_per_block: 64,
            fiber_split_threshold: 8,
            ..BcsfOptions::default()
        };
        let h = Hbcsf::build(&t, &identity_perm(4), opts);
        let plan = h.capture(&GpuContext::tiny(), rank);
        let s = plan.schedule();
        let inside = (1..s.num_blocks())
            .filter(|&b| {
                let c = s.block_ptr[b];
                c > 0 && (c as usize) < s.init_vals.len() && s.row_runs.iter().all(|r| r.end != c)
            })
            .collect();
        (plan, random_factors(&t, rank, 11), inside)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any split of the blocks into consecutive ranges, each replayed
        /// into one `y` (clean, or through one sink spanning the ranges),
        /// gives the whole replay's bits. One cut always falls inside a
        /// row's run, where the held row is written back mid-run.
        #[test]
        fn any_block_split_replays_the_whole_bits(
            specialized in any::<bool>(),
            inside_pick in 0usize..1 << 16,
            cut_picks in proptest::collection::vec(0usize..1 << 16, 0..6),
            seed in 0u64..1_000,
        ) {
            let (plan, factors, inside) = split_fixture(if specialized { 16 } else { 5 });
            prop_assert!(!inside.is_empty(), "no block cut falls inside a row's run");
            let nblocks = plan.schedule().num_blocks();
            let mut cuts: Vec<usize> = cut_picks.iter().map(|c| c % (nblocks + 1)).collect();
            cuts.push(inside[inside_pick % inside.len()]);
            cuts.extend([0, nblocks]);
            cuts.sort_unstable();
            cuts.dedup();
            prop_assert!(cuts.iter().any(|c| inside.contains(c)));

            let clean = GpuContext::tiny();
            let spec = FaultPlan::parse("bitflip:0.5", seed).expect("spec parses");
            let faulted = GpuContext::tiny().with_faults(spec);
            for ctx in [&clean, &faulted] {
                let whole = plan.execute(ctx, &factors).unwrap();
                let mut y = Matrix::zeros(plan.out_rows(), plan.rank());
                let mut sink = ctx
                    .fault_plan()
                    .is_some()
                    .then(|| ctx.abft_sink(plan.name(), plan.out_rows()));
                for w in cuts.windows(2) {
                    plan.replay_range(&mut y, &factors, sink.as_mut(), w[0], w[1]);
                }
                let abft = sink.and_then(|mut s| {
                    s.flush(&mut y);
                    s.into_data()
                });
                let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&y), bits(&whole.y), "cuts {:?}", cuts);
                prop_assert_eq!(abft.is_some(), whole.abft.is_some());
                if let (Some(a), Some(w)) = (abft, whole.abft) {
                    let f64_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(f64_bits(&a.check), f64_bits(&w.check));
                    prop_assert_eq!(f64_bits(&a.abs), f64_bits(&w.abs));
                    prop_assert_eq!(a.corrupted_rows, w.corrupted_rows);
                    prop_assert_eq!(a.flips_applied, w.flips_applied);
                }
            }
        }
    }

    #[test]
    fn any_single_bit_flip_is_a_typed_error() {
        let (_, bytes) = fixture();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 1 << (at % 8);
            assert!(read(&bad).is_err(), "flip at byte {at} accepted");
        }
        // A flipped value reads as a plan under a matching trailer.
        let (at, len) = arrays(&bytes)[4];
        assert!(len > 0);
        let mut bad = bytes.clone();
        bad[at + 8] ^= 1;
        assert!(matches!(
            read(&bad),
            Err(TensorError::Frame(sptensor::frame::FrameError::Checksum))
        ));
        assert!(read(&stamped(&bad)).is_ok());
    }

    /// The launch a full capture of `format` produces, before the builder
    /// drops it.
    fn captured_launch(ctx: &GpuContext, format: &AnyFormat, plan: &Plan) -> KernelLaunch {
        let mut pb = PlanBuilder::new(plan.name(), plan.mode(), plan.rank(), plan.out_rows());
        format.capture_into(plan.rank(), ctx.warps_per_block, &mut pb);
        pb.launch
    }

    fn same_launch(a: &KernelLaunch, b: &KernelLaunch) -> bool {
        a.name == b.name && a.blocks == b.blocks
    }

    fn same_profile(a: &SimProfile, b: &SimProfile) -> bool {
        a.blocks == b.blocks
            && a.placements == b.placements
            && a.atomic_rows == b.atomic_rows
            && a.faults == b.faults
            && a.timeline.spans == b.timeline.spans
    }

    /// Every kernel's layout of `t` for its first and last mode.
    fn layouts(t: &CooTensor) -> Vec<AnyFormat> {
        let order = t.order();
        let mut out = Vec::new();
        for kind in KernelKind::ALL {
            if kind.check_order(order).is_err() {
                continue;
            }
            for mode in [0, order - 1] {
                out.push(AnyFormat::build(kind, t, mode, &BuildOptions::default()).unwrap());
            }
        }
        out
    }

    /// Third- and fourth-order fixtures, the fourth with heavy slices so
    /// B-CSF splits fibers and slices across blocks.
    fn fidelity_tensors() -> [CooTensor; 2] {
        [
            uniform_random(&[9, 14, 11], 700, 0x3D),
            uniform_random(&[3, 10, 9, 8], 900, 0x4D),
        ]
    }

    #[test]
    fn every_kernel_reemits_its_capture_and_schedules_it_bit_for_bit() {
        let specs = [
            None,
            Some(FaultPlan::parse("bitflip:0.3,abort:0.2,straggler:0.5", 7).unwrap()),
            Some(FaultPlan::parse("abort:1.0,straggler:0.25", 3).unwrap()),
            Some(
                FaultPlan::parse("bitflip:0.5,abort:0.3", 11)
                    .unwrap()
                    .with_attempt(2),
            ),
        ];
        for t in fidelity_tensors() {
            let factors = random_factors(&t, 4, 5);
            for format in layouts(&t) {
                for profiled in [false, true] {
                    let ctx = match profiled {
                        true => GpuContext::tiny().with_profiling(),
                        false => GpuContext::tiny(),
                    };
                    let plan = Arc::new(format.clone()).capture_shared(&ctx, 4);
                    let what = format!("{} order {} profiled {profiled}", plan.name(), t.order());
                    let whole = captured_launch(&ctx, &format, &plan);
                    assert!(!whole.blocks.is_empty(), "{what}: empty fixture");
                    assert!(
                        same_launch(plan.launch(), &whole),
                        "{what}: re-emission differs"
                    );
                    for spec in &specs {
                        let reg = match profiled {
                            true => Registry::new(),
                            false => Registry::disabled(),
                        };
                        let direct = simulate_instrumented(
                            &ctx.device,
                            &ctx.cost,
                            &whole,
                            &reg,
                            spec.as_ref(),
                            SimInstruments::default(),
                        );
                        let parts = schedule_pass(
                            &ctx.device,
                            plan.name(),
                            plan.costs(),
                            &reg,
                            spec.as_ref(),
                            None,
                        );
                        assert_eq!(direct.0, parts.0, "{what} {spec:?}");
                        assert!(same_profile(&direct.1, &parts.1), "{what} {spec:?}");
                        // The memoized path a replay takes.
                        let run_ctx = match spec {
                            Some(p) => ctx.clone().with_faults(p.clone()),
                            None => ctx.clone(),
                        };
                        let run = plan.execute(&run_ctx, &factors).unwrap();
                        assert_eq!(run.sim, direct.0, "{what} {spec:?}: replay");
                        assert_eq!(run.profile.is_some(), profiled || spec.is_some());
                        if let Some(p) = &run.profile {
                            assert!(same_profile(p, &direct.1), "{what} {spec:?}: replay");
                        }
                    }
                }
            }
        }
    }

    /// An F-COO layout whose nonzeros fill its first-pass blocks exactly,
    /// so the capture records a probe block with no launch block, and
    /// its second-pass blocks follow: schedule ordinals past the probe
    /// are one ahead of launch indices.
    fn probe_fixture() -> AnyFormat {
        let mut t = CooTensor::new(vec![16, 32, 8]);
        for i in 0..16u32 {
            for j in 0..32u32 {
                for k in 0..4u32 {
                    t.push(&[i, j, (k + i) % 8], 1.0 + (i + j + k) as f32);
                }
            }
        }
        // 2048 nonzeros: two full blocks of 4 warps × 32 lanes × 8.
        AnyFormat::build(KernelKind::Fcoo, &t, 0, &BuildOptions::default()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Per-range simulations from one re-emission equal simulating the
        /// launch blocks a full capture emits in each range: schedule range
        /// `(b0, b1)` holds the launch blocks whose ordinals lie in it (the
        /// probe ordinal has none), and a range with no launch block
        /// simulates to nothing.
        #[test]
        fn any_block_split_simulates_the_full_launch_slices(
            pick in 0usize..1 << 16,
            cut_picks in proptest::collection::vec(0usize..1 << 16, 0..6),
        ) {
            let ctx = GpuContext::tiny();
            let mut formats: Vec<AnyFormat> = fidelity_tensors().iter().flat_map(layouts).collect();
            formats.push(probe_fixture());
            let format = &formats[pick % formats.len()];
            let plan = Arc::new(format.clone()).capture_shared(&ctx, 4);
            let (soa, whole) = oracle(&ctx, format, &plan);
            let nblocks = plan.schedule().num_blocks();
            let mut cuts: Vec<usize> = cut_picks.iter().map(|c| c % (nblocks + 1)).collect();
            cuts.extend([0, nblocks]);
            cuts.sort_unstable();
            cuts.dedup();
            let ranges: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
            let sims = plan.simulate_ranges(&ctx, &ranges);
            prop_assert_eq!(sims.len(), ranges.len());
            for (&(b0, b1), sim) in ranges.iter().zip(&sims) {
                let slice = KernelLaunch {
                    name: whole.name.clone(),
                    blocks: whole
                        .blocks
                        .iter()
                        .zip(&soa.launched)
                        .filter(|&(_, &o)| (b0..b1).contains(&o))
                        .map(|(block, _)| block.clone())
                        .collect(),
                };
                let expected = (!slice.blocks.is_empty())
                    .then(|| simulate(&ctx.device, &ctx.cost, &slice));
                prop_assert_eq!(sim, &expected, "{} range {:?}", plan.name(), (b0, b1));
            }
        }
    }

    #[test]
    fn probe_fixture_has_a_probe_block() {
        let ctx = GpuContext::tiny();
        let format = probe_fixture();
        let plan = Arc::new(format.clone()).capture_shared(&ctx, 4);
        let launched = captured_launch(&ctx, &format, &plan).blocks.len();
        // Two first-pass blocks, the probe, then second-pass blocks.
        assert_eq!(plan.schedule().num_blocks(), launched + 1);
        assert!(launched > 2, "no second-pass block follows the probe");
        let (soa, whole) = oracle(&ctx, &format, &plan);
        assert_eq!(&soa.launched[..3], &[0, 1, 3], "the probe is ordinal 2");
        // Each ordinal alone: the probe simulates to nothing, and the
        // ordinal after it to the launch block after the first pass.
        let singles: Vec<(usize, usize)> = (0..=launched).map(|o| (o, o + 1)).collect();
        let sims = plan.simulate_ranges(&ctx, &singles);
        let block = |b: usize| KernelLaunch {
            name: whole.name.clone(),
            blocks: vec![whole.blocks[b].clone()],
        };
        assert_eq!(sims[2], None);
        assert_eq!(sims[3], Some(simulate(&ctx.device, &ctx.cost, &block(2))));
        assert_eq!(
            sims[launched],
            Some(simulate(&ctx.device, &ctx.cost, &block(launched - 1)))
        );
    }

    /// One contribution, expanded: its block, output row, seed bits, leaf
    /// range and chain `(mode, row)` terms.
    type Contribution = (usize, u32, u32, (u32, u32), Vec<(u32, u32)>);

    impl ReplaySchedule {
        /// Every contribution in emission order, expanded from the runs
        /// and patterns.
        fn contributions(&self) -> Vec<Contribution> {
            let mut rows = Vec::new();
            let mut start = 0;
            for r in &self.row_runs {
                rows.extend(std::iter::repeat_n(r.key, (r.end - start) as usize));
                start = r.end;
            }
            let mut chains = Vec::new();
            let mut terms = self.chain_rows.iter();
            let mut start = 0;
            for r in &self.pattern_runs {
                let modes = self.pattern(r.key);
                for _ in start..r.end {
                    chains.push(modes.iter().map(|&m| (m, *terms.next().unwrap())).collect());
                }
                start = r.end;
            }
            assert!(terms.next().is_none(), "chain rows left over");
            let mut out = Vec::new();
            for b in 0..self.num_blocks() {
                for c in self.block_ptr[b] as usize..self.block_ptr[b + 1] as usize {
                    let leaves = (self.leaf_ptr[c], self.leaf_ptr[c + 1]);
                    let chain = std::mem::take(&mut chains[c]);
                    out.push((b, rows[c], self.init_vals[c].to_bits(), leaves, chain));
                }
            }
            out
        }
    }

    /// The schedule as a capture kept it before row runs and chain
    /// patterns: an output row, a leaf pointer and a chain pointer per
    /// contribution, and a mode per chain term. The builder fills it
    /// beside the compact schedule, through its hooks; it is the oracle
    /// the compact schedule is checked against, and it writes the
    /// version-2 plan file.
    #[derive(Debug, Default)]
    pub(super) struct SoaSchedule {
        block_ptr: Vec<u32>,
        /// The ordinal of each launch block, in launch order.
        launched: Vec<usize>,
        rows: Vec<u32>,
        init_vals: Vec<f32>,
        leaf_ptr: Vec<u32>,
        leaf_vals: Vec<f32>,
        leaf_rows: Vec<u32>,
        chain_ptr: Vec<u32>,
        chain_modes: Vec<u32>,
        chain_rows: Vec<u32>,
    }

    impl SoaSchedule {
        pub(super) fn begin_block(&mut self) {
            self.block_ptr.push(self.rows.len() as u32);
        }

        pub(super) fn push_block(&mut self) {
            self.launched.push(self.block_ptr.len() - 1);
        }

        pub(super) fn contrib(&mut self, row: usize, init: f32) {
            self.rows.push(row as u32);
            self.init_vals.push(init);
            self.leaf_ptr.push(self.leaf_vals.len() as u32);
            self.chain_ptr.push(self.chain_modes.len() as u32);
        }

        pub(super) fn leaf(&mut self, val: f32, row: usize) {
            self.leaf_vals.push(val);
            self.leaf_rows.push(row as u32);
        }

        pub(super) fn chain(&mut self, mode: usize, row: usize) {
            self.chain_modes.push(mode as u32);
            self.chain_rows.push(row as u32);
        }

        fn seal(&mut self) {
            self.block_ptr.push(self.rows.len() as u32);
            self.leaf_ptr.push(self.leaf_vals.len() as u32);
            self.chain_ptr.push(self.chain_modes.len() as u32);
        }

        fn contributions(&self) -> Vec<Contribution> {
            let mut out = Vec::new();
            for b in 0..self.block_ptr.len() - 1 {
                for c in self.block_ptr[b] as usize..self.block_ptr[b + 1] as usize {
                    let (c0, c1) = (self.chain_ptr[c] as usize, self.chain_ptr[c + 1] as usize);
                    let chain = (c0..c1)
                        .map(|j| (self.chain_modes[j], self.chain_rows[j]))
                        .collect();
                    let leaves = (self.leaf_ptr[c], self.leaf_ptr[c + 1]);
                    out.push((b, self.rows[c], self.init_vals[c].to_bits(), leaves, chain));
                }
            }
            out
        }

        /// The per-contribution replay loop: `y[row] += acc` per
        /// contribution, through one sink under `ctx`'s fault plan.
        fn replay(
            &self,
            ctx: &GpuContext,
            plan: &Plan,
            factors: &[Matrix],
        ) -> (Matrix, Option<AbftData>) {
            let leaf_mode = plan.schedule().leaf_mode;
            let mut y = Matrix::zeros(plan.out_rows(), plan.rank());
            let mut sink = ctx
                .fault_plan()
                .is_some()
                .then(|| ctx.abft_sink(plan.name(), plan.out_rows()));
            for b in 0..self.block_ptr.len() - 1 {
                if let Some(s) = sink.as_mut() {
                    s.begin_block(&mut y, b);
                }
                for c in self.block_ptr[b] as usize..self.block_ptr[b + 1] as usize {
                    let mut acc = vec![0.0; plan.rank()];
                    let (l0, l1) = (self.leaf_ptr[c] as usize, self.leaf_ptr[c + 1] as usize);
                    if l0 == l1 {
                        acc.fill(self.init_vals[c]);
                    }
                    for k in l0..l1 {
                        let row = factors[leaf_mode].row(self.leaf_rows[k] as usize);
                        axpy_into(&mut acc, self.leaf_vals[k], row);
                    }
                    for j in self.chain_ptr[c] as usize..self.chain_ptr[c + 1] as usize {
                        let row =
                            factors[self.chain_modes[j] as usize].row(self.chain_rows[j] as usize);
                        scale_by(&mut acc, row);
                    }
                    let i = self.rows[c] as usize;
                    match sink.as_mut() {
                        Some(s) => s.contribute(&mut y, i, &acc),
                        None => axpy_into(y.row_mut(i), 1.0, &acc),
                    }
                }
            }
            let abft = sink.and_then(|mut s| {
                s.flush(&mut y);
                s.into_data()
            });
            (y, abft)
        }

        /// The version-2 plan file of `plan` over this schedule: the
        /// same header, then the nine per-contribution arrays.
        fn write_v2(&self, plan: &Plan) -> Vec<u8> {
            let mut w = FrameWriter::new(Vec::new(), SCHED_MAGIC, 2).unwrap();
            w.u32(plan.name().len() as u32).unwrap();
            w.bytes(plan.name().as_bytes()).unwrap();
            w.u32(plan.mode() as u32).unwrap();
            w.u32(plan.rank() as u32).unwrap();
            w.u64(plan.out_rows() as u64).unwrap();
            w.u32(plan.schedule().leaf_mode as u32).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for a in [
                &self.block_ptr,
                &self.rows,
                &bits(&self.init_vals),
                &self.leaf_ptr,
                &bits(&self.leaf_vals),
                &self.leaf_rows,
                &self.chain_ptr,
                &self.chain_modes,
                &self.chain_rows,
            ] {
                w.u64(a.len() as u64).unwrap();
                w.u32s(a.iter().copied()).unwrap();
            }
            w.finish().unwrap()
        }
    }

    /// The per-contribution oracle of `plan`'s emission from `format`,
    /// and the launch a full capture emits.
    fn oracle(ctx: &GpuContext, format: &AnyFormat, plan: &Plan) -> (SoaSchedule, KernelLaunch) {
        let mut pb = PlanBuilder::new(plan.name(), plan.mode(), plan.rank(), plan.out_rows());
        pb.oracle = Some(SoaSchedule::default());
        format.capture_into(plan.rank(), ctx.warps_per_block, &mut pb);
        let mut soa = pb.oracle.take().expect("the oracle was set");
        soa.seal();
        (soa, pb.launch)
    }

    /// Every kernel's layout of `t` for every mode.
    fn all_mode_layouts(t: &CooTensor) -> Vec<AnyFormat> {
        let order = t.order();
        let mut out = Vec::new();
        for kind in KernelKind::ALL {
            if kind.check_order(order).is_err() {
                continue;
            }
            for mode in 0..order {
                out.push(AnyFormat::build(kind, t, mode, &BuildOptions::default()).unwrap());
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Over every kernel, 3rd and 4th order and every mode, the
        /// compact schedule expands to the contributions the emission
        /// produced — block, row, seed, leaf range and chain terms — and
        /// replays to the per-contribution loop's bits, clean and under
        /// bit flips (checksums and flipped rows included).
        #[test]
        fn compact_schedule_expands_to_the_emission(
            seed in 0u64..1_000,
            specialized in any::<bool>(),
        ) {
            let rank = if specialized { 16 } else { 5 };
            let tensors = [
                uniform_random(&[9, 14, 11], 500, seed),
                uniform_random(&[3, 10, 9, 8], 700, seed + 1),
            ];
            let spec = FaultPlan::parse("bitflip:0.5", seed).expect("spec parses");
            let contexts = [GpuContext::tiny(), GpuContext::tiny().with_faults(spec)];
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let f64_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for t in &tensors {
                let factors = random_factors(t, rank, seed + 2);
                for format in all_mode_layouts(t) {
                    let plan = Arc::new(format.clone()).capture_shared(&contexts[0], rank);
                    let (soa, _) = oracle(&contexts[0], &format, &plan);
                    let what = format!("{} mode {} order {}", plan.name(), plan.mode(), t.order());
                    prop_assert_eq!(plan.schedule().contributions(), soa.contributions(), "{}", what);
                    for ctx in &contexts {
                        let run = plan.execute(ctx, &factors).unwrap();
                        let (y, abft) = soa.replay(ctx, &plan, &factors);
                        prop_assert_eq!(bits(&run.y), bits(&y), "{}", what);
                        prop_assert_eq!(run.abft.is_some(), abft.is_some());
                        if let (Some(a), Some(o)) = (run.abft, abft) {
                            prop_assert_eq!(f64_bits(&a.check), f64_bits(&o.check), "{}", what);
                            prop_assert_eq!(f64_bits(&a.abs), f64_bits(&o.abs), "{}", what);
                            prop_assert_eq!(a.corrupted_rows, o.corrupted_rows, "{}", what);
                            prop_assert_eq!(a.flips_applied, o.flips_applied, "{}", what);
                        }
                    }
                }
            }
        }
    }

    /// A hand-emitted schedule whose blocks mix chain patterns (two of
    /// them of one length, one empty) and whose row runs cross block ends
    /// expands to its emission and replays like the oracle, whole and cut
    /// at every block, clean and under bit flips.
    #[test]
    fn mixed_patterns_and_rows_replay_like_the_oracle() {
        type Emit<'e> = (usize, f32, &'e [(f32, usize)], &'e [(usize, usize)]);
        let blocks: [&[Emit]; 4] = [
            &[
                (0, 1.5, &[], &[(1, 2), (2, 0)]),
                (0, 2.0, &[], &[(2, 1), (1, 0)]),
                (1, 0.0, &[(0.5, 2)], &[(1, 1)]),
            ],
            &[(1, 3.0, &[], &[(1, 2), (2, 0)]), (2, 1.0, &[], &[])],
            &[],
            &[(0, 0.0, &[(1.0, 1), (2.0, 0)], &[(2, 2), (1, 1)])],
        ];
        let mut pb = PlanBuilder::new("hand", 0, 4, 3);
        pb.oracle = Some(SoaSchedule::default());
        pb.set_leaf_mode(3);
        for block in blocks {
            pb.begin_block();
            for &(row, seed, leaves, chain) in block {
                pb.contrib(row, seed);
                for &(v, k) in leaves {
                    pb.leaf(v, k);
                }
                for &(m, j) in chain {
                    pb.chain(m, j);
                }
            }
        }
        let mut soa = pb.oracle.take().expect("the oracle was set");
        soa.seal();
        let plan = pb.seal();
        assert_eq!(plan.schedule().pattern_ptr.len() - 1, 4);
        assert_eq!(plan.schedule().contributions(), soa.contributions());
        let factors: Vec<Matrix> = (0..4).map(|m| Matrix::random(3, 4, 90 + m)).collect();
        let spec = FaultPlan::parse("bitflip:0.9", 5).expect("spec parses");
        for ctx in [GpuContext::tiny(), GpuContext::tiny().with_faults(spec)] {
            let (want, want_abft) = soa.replay(&ctx, &plan, &factors);
            for cut in 0..=blocks.len() {
                let (y, abft) = plan.replay_ranges(&ctx, &factors, &[(0, cut), (cut, 4)]);
                assert_eq!(y, want, "cut at {cut}");
                assert_eq!(
                    abft.map(|a| a.corrupted_rows),
                    want_abft.as_ref().map(|a| a.corrupted_rows.clone())
                );
            }
        }
    }

    #[test]
    fn version_2_plan_files_are_unsupported() {
        let ctx = GpuContext::tiny();
        let format = AnyFormat::Hbcsf(Hbcsf::build(
            &tensor(),
            &identity_perm(4),
            BcsfOptions::default(),
        ));
        let plan = Arc::new(format.clone()).capture_shared(&ctx, 4);
        let (soa, _) = oracle(&ctx, &format, &plan);
        let v2 = soa.write_v2(&plan);
        assert!(matches!(
            read(&v2),
            Err(TensorError::Frame(
                sptensor::frame::FrameError::UnsupportedVersion(2)
            ))
        ));
    }

    /// A plan's schedule holds one run per row change and one pattern per
    /// distinct chain-mode sequence, and the file is smaller than the
    /// per-contribution version-2 file of the same emission.
    #[test]
    fn compact_schedule_keeps_runs_and_patterns_only() {
        let ctx = GpuContext::tiny();
        let format = AnyFormat::Hbcsf(Hbcsf::build(
            &tensor(),
            &identity_perm(4),
            BcsfOptions::default(),
        ));
        let plan = Arc::new(format.clone()).capture_shared(&ctx, 4);
        let (soa, _) = oracle(&ctx, &format, &plan);
        let s = plan.schedule();
        let changes = 1 + soa.rows.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(s.row_runs.len(), changes);
        let mut sequences: Vec<&[u32]> = soa
            .chain_ptr
            .windows(2)
            .map(|w| &soa.chain_modes[w[0] as usize..w[1] as usize])
            .collect();
        sequences.sort_unstable();
        sequences.dedup();
        assert_eq!(s.pattern_ptr.len() - 1, sequences.len());
        let mut bytes = Vec::new();
        plan.write_schedule(&mut bytes).unwrap();
        assert!(bytes.len() < soa.write_v2(&plan).len());
    }
}
