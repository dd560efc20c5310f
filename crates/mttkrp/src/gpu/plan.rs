//! Launch capture & replay: the plan/execute split for the simulated GPU
//! kernels (CUDA-graph style).
//!
//! A kernel's instruction stream, address layout, and traversal order
//! depend only on *structure* — the tensor's format, the rank, and the
//! [`GpuContext`]'s block geometry — never on factor values. A [`Plan`]
//! captures all of that once: the emitted [`KernelLaunch`] plus a
//! [`ReplaySchedule`], a flat record of every semantic output contribution
//! (which output row, which leaf reductions, which factor-row scalings, in
//! emission order). [`Plan::execute`] then replays the schedule against
//! fresh factor matrices, computing only the value-dependent output `y`,
//! and reuses a memoized [`SimResult`] instead of re-simulating.
//!
//! Replay is one loop over a block range, on the calling thread. It
//! computes each contribution's accumulator with the same `fill` /
//! [`axpy_into`] / [`scale_by`] sequence the emitting kernel performs and
//! folds it into `y` at once, in emission order, so the output is bit-for-
//! bit the emit-and-run output. Fault-free, the fold holds the current
//! output row in registers across its run of contributions and writes it
//! back when the row changes, as the HB-CSF kernel keeps a slice's partial
//! sum on chip; each lane still sees `y += 1.0 * acc` per contribution.
//! For the ranks [`RankDispatch`] specializes the accumulator is a
//! `[f32; R]`, so the inner loops have compile-time trip counts.
//!
//! Under an active [`FaultPlan`] the same loop folds through an
//! [`AbftSink`] exactly as the emitting kernels do (checksums, latched bit
//! flips), and the faulted simulation is cached keyed on the plan —
//! `run_verified`'s retries carry a different `attempt`, which re-keys the
//! cache.

use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use dense::Matrix;
use gpu_sim::{
    simulate_instrumented, AddressSpace, FaultPlan, KernelLaunch, MemLease, SimProfile, SimResult,
};
use rayon::prelude::*;
use simprof::FieldValue;
use sptensor::{CooTensor, TensorError, TensorResult};
use tensor_formats::{BcsfOptions, Hbcsf};

use super::common::{axpy_into, scale_by, AbftData, AbftSink, FactorAddrs, GpuContext, GpuRun};
use super::exec::LaunchError;

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

/// The value-dependent half of a captured kernel, stored structure-of-
/// arrays: every semantic output contribution in emission order, grouped
/// by thread block (CSR-style `block_ptr`).
///
/// One contribution `c` replays as:
/// 1. leaf range empty → `acc.fill(init_vals[c])` (flat kernels seed the
///    accumulator with the nonzero value); otherwise `acc.fill(0.0)` then
///    `axpy_into(acc, leaf_vals[k], factors[leaf_mode].row(leaf_rows[k]))`
///    per leaf (the fiber kernels' leaf reduction);
/// 2. `scale_by(acc, factors[chain_modes[j]].row(chain_rows[j]))` per
///    chain entry (the Hadamard fold through the remaining modes);
/// 3. `y[rows[c]] += acc` — folded sequentially in emission order.
#[derive(Debug, Clone)]
pub struct ReplaySchedule {
    /// Factor mode the leaf reduction reads (fiber kernels only).
    leaf_mode: usize,
    /// Contribution range starts per block; `block_ptr[b]..block_ptr[b+1]`.
    block_ptr: Vec<u32>,
    /// Output row per contribution.
    rows: Vec<u32>,
    /// Accumulator seed per contribution (used when its leaf range is empty).
    init_vals: Vec<f32>,
    /// Leaf range starts per contribution (into `leaf_vals`/`leaf_rows`).
    leaf_ptr: Vec<u32>,
    leaf_vals: Vec<f32>,
    leaf_rows: Vec<u32>,
    /// Chain range starts per contribution (into `chain_modes`/`chain_rows`).
    chain_ptr: Vec<u32>,
    chain_modes: Vec<u32>,
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
            rows: Vec::new(),
            init_vals: Vec::new(),
            leaf_ptr: Vec::new(),
            leaf_vals: Vec::new(),
            leaf_rows: Vec::new(),
            chain_ptr: Vec::new(),
            chain_modes: Vec::new(),
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
            + self.rows.len()
            + self.init_vals.len()
            + self.leaf_ptr.len()
            + self.leaf_vals.len()
            + self.leaf_rows.len()
            + self.chain_ptr.len()
            + self.chain_modes.len()
            + self.chain_rows.len())
    }

    /// Drops every array's growth slack: a sealed schedule lives as long
    /// as its plan.
    fn trim(&mut self) {
        self.block_ptr.shrink_to_fit();
        self.rows.shrink_to_fit();
        self.init_vals.shrink_to_fit();
        self.leaf_ptr.shrink_to_fit();
        self.leaf_vals.shrink_to_fit();
        self.leaf_rows.shrink_to_fit();
        self.chain_ptr.shrink_to_fit();
        self.chain_modes.shrink_to_fit();
        self.chain_rows.shrink_to_fit();
    }

    /// Checks the structure replay indexes by: each pointer array starts
    /// at 0, never decreases and ends at the length of the arrays it
    /// indexes; there is one seed and one leaf and chain range per
    /// contribution; every output row is below `out_rows`. A schedule read
    /// from disk passes this before it can replay.
    fn check(&self, out_rows: usize) -> Result<(), &'static str> {
        /// `ptr` is a CSR pointer array over `len` entries.
        fn csr(ptr: &[u32], len: usize) -> bool {
            ptr.first() == Some(&0)
                && ptr.last().is_some_and(|&e| e as usize == len)
                && ptr.windows(2).all(|w| w[0] <= w[1])
        }
        let n = self.rows.len();
        if !csr(&self.block_ptr, n) {
            return Err("replay schedule: block pointers do not cover the contributions");
        }
        if self.init_vals.len() != n {
            return Err("replay schedule: seed count differs from the contribution count");
        }
        if self.leaf_ptr.len() != n + 1 || self.chain_ptr.len() != n + 1 {
            return Err(
                "replay schedule: leaf or chain pointer count differs from the contributions",
            );
        }
        if self.leaf_vals.len() != self.leaf_rows.len()
            || !csr(&self.leaf_ptr, self.leaf_vals.len())
        {
            return Err("replay schedule: leaf pointers do not cover the leaf terms");
        }
        if self.chain_modes.len() != self.chain_rows.len()
            || !csr(&self.chain_ptr, self.chain_modes.len())
        {
            return Err("replay schedule: chain pointers do not cover the chain terms");
        }
        if self.rows.iter().any(|&r| r as usize >= out_rows) {
            return Err("replay schedule: output row out of range");
        }
        if self.chain_modes.iter().any(|&m| m >= MAX_MODES)
            || (!self.leaf_rows.is_empty() && self.leaf_mode >= MAX_MODES as usize)
        {
            return Err("replay schedule: factor mode out of range");
        }
        Ok(())
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
        for (&mode, &row) in self.chain_modes.iter().zip(&self.chain_rows) {
            note(mode as usize, row);
        }
        self.reach = reach;
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

/// Where [`Plan::replay_range`] commits each contribution's accumulator.
trait Fold {
    fn begin_block(&mut self, y: &mut Matrix, block: usize);
    fn commit(&mut self, y: &mut Matrix, row: usize, acc: &[f32]);
}

impl Fold for AbftSink {
    #[inline]
    fn begin_block(&mut self, y: &mut Matrix, block: usize) {
        AbftSink::begin_block(self, y, block);
    }

    #[inline]
    fn commit(&mut self, y: &mut Matrix, row: usize, acc: &[f32]) {
        self.contribute(y, row, acc);
    }
}

/// The fault-free fold: the current output row lives in `sum` across its
/// run of contributions and is written back when the row changes and
/// when the range ends ([`HeldRow::store`]), the way the HB-CSF kernel
/// keeps a slice's partial sum on chip.
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
    fn commit(&mut self, y: &mut Matrix, row: usize, acc: &[f32]) {
        if self.row != Some(row) {
            self.store(y);
            self.sum.as_mut().copy_from_slice(y.row(row));
            self.row = Some(row);
        }
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
    /// The simulated instruction stream; kernels push blocks directly.
    pub launch: KernelLaunch,
    sched: ReplaySchedule,
    footprint: MemoryFootprint,
    capture: CaptureMode<'a>,
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
            footprint: MemoryFootprint::default(),
            capture,
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
        match &mut self.capture {
            CaptureMode::Full => self.sched.block_ptr.push(self.sched.rows.len() as u32),
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
                // Launch blocks are pushed by the kernels between our
                // calls; a weights pass has no use for them.
                self.launch.blocks.clear();
            }
            CaptureMode::Sharded(cut) => {
                let block = cut.seen;
                cut.seen += 1;
                self.launch.blocks.clear();
                self.seal_shards(Some(block));
                self.sched.block_ptr.push(self.sched.rows.len() as u32);
            }
        }
    }

    /// Starts a contribution to output row `row` with accumulator seed
    /// `init` (used only if no leaves follow).
    pub fn contrib(&mut self, row: usize, init: f32) {
        if let CaptureMode::WeightsOnly { contribs, .. } = &mut self.capture {
            *contribs += 1;
            return;
        }
        self.sched.rows.push(row as u32);
        self.sched.init_vals.push(init);
        self.sched.leaf_ptr.push(self.sched.leaf_vals.len() as u32);
        self.sched
            .chain_ptr
            .push(self.sched.chain_modes.len() as u32);
    }

    /// Appends a leaf term `val × factors[leaf_mode].row(row)` to the
    /// current contribution.
    pub fn leaf(&mut self, val: f32, row: usize) {
        if let CaptureMode::WeightsOnly { leaves, .. } = &mut self.capture {
            *leaves += 1;
            return;
        }
        self.sched.leaf_vals.push(val);
        self.sched.leaf_rows.push(row as u32);
    }

    /// Appends a Hadamard scaling by `factors[mode].row(row)` to the
    /// current contribution.
    pub fn chain(&mut self, mode: usize, row: usize) {
        if let CaptureMode::WeightsOnly { chains, .. } = &mut self.capture {
            *chains += 1;
            return;
        }
        self.sched.chain_modes.push(mode as u32);
        self.sched.chain_rows.push(row as u32);
    }

    /// Seals the capture into an executable [`Plan`], with its schedule
    /// arrays trimmed: the plan holds them for its whole life, and their
    /// growth slack would be a fifth of them. (Shard plans are written out
    /// and dropped, so `seal_shards` leaves theirs.) A
    /// profiling `ctx` counts the plan's resident bytes: `plan.launch_bytes`
    /// (the packed instruction stream) and `plan.schedule_bytes` (the
    /// schedule arrays).
    pub fn finish(mut self, ctx: &GpuContext) -> Plan {
        let mut plan = self.seal();
        plan.sched.trim();
        if ctx.profiling() {
            ctx.registry
                .add("plan.launch_bytes", plan.launch.op_bytes() as u64);
            ctx.registry
                .add("plan.schedule_bytes", plan.sched.bytes() as u64);
        }
        plan
    }

    /// Seals the kept schedule into a [`Plan`], leaving an empty schedule
    /// (same leaf mode) and launch behind. The kept launch is trimmed
    /// once, here: a plan holds it for its whole life, and the growth
    /// slack of its instruction streams would be a third of it. A shard
    /// plan sealed this way has *local* block ordinals — correct for
    /// clean replay (the ordered fold is position-independent) but not
    /// for fault draws, which key on global ordinals.
    fn seal(&mut self) -> Plan {
        let fresh = ReplaySchedule::empty(self.sched.leaf_mode);
        let mut sched = std::mem::replace(&mut self.sched, fresh);
        sched.block_ptr.push(sched.rows.len() as u32);
        sched.leaf_ptr.push(sched.leaf_vals.len() as u32);
        sched.chain_ptr.push(sched.chain_modes.len() as u32);
        sched.measure_reach();
        let mut launch = std::mem::replace(&mut self.launch, KernelLaunch::new(&self.name));
        launch.trim();
        Plan {
            name: self.name.clone(),
            mode: self.mode,
            rank: self.rank,
            out_rows: self.out_rows,
            dispatch: RankDispatch::for_rank(self.rank),
            launch,
            sched,
            footprint: self.footprint,
            sim_clean: OnceLock::new(),
            sim_faulted: Mutex::new(None),
            sim_tiled: Mutex::new(None),
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
        self.launch.blocks.clear();
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
    launch: KernelLaunch,
    sched: ReplaySchedule,
    /// Device-memory requirements, sized at capture time.
    footprint: MemoryFootprint,
    /// Fault-free simulation, computed once on first execute.
    sim_clean: OnceLock<(SimResult, SimProfile)>,
    /// Last faulted simulation keyed by its [`FaultPlan`] — `run_verified`
    /// retries re-execute under `plan.with_attempt(n)`, a different key.
    sim_faulted: Mutex<Option<(FaultPlan, SimResult, SimProfile)>>,
    /// Last aggregated tiled simulation, keyed by the tile byte budget
    /// (tile ranges are a pure function of the budget).
    sim_tiled: Mutex<Option<(u64, SimResult)>>,
}

impl Plan {
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

    /// The captured instruction stream.
    pub fn launch(&self) -> &KernelLaunch {
        &self.launch
    }

    /// Consumes the plan, yielding the captured launch (for tools that
    /// drive the simulator themselves, e.g. `balance_viz`).
    pub fn into_launch(self) -> KernelLaunch {
        self.launch
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

    /// The memoized simulation for `ctx`'s fault state. Faulted runs always
    /// keep the profile (the injected-fault ledger lives there); clean runs
    /// keep it only when profiling, matching `finish_abft`.
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
                        let (sim, profile) = simulate_instrumented(
                            &ctx.device,
                            &ctx.cost,
                            &self.launch,
                            &ctx.registry,
                            Some(plan),
                            ctx.instruments(),
                        );
                        *cached = Some((plan.clone(), sim.clone(), profile.clone()));
                        (sim, Some(profile))
                    }
                }
            }
            None => {
                let (sim, profile) = self.clean_sim_cached(ctx);
                (sim.clone(), ctx.profiling().then(|| profile.clone()))
            }
        }
    }

    /// The memoized fault-free simulation, computing (and instrumenting)
    /// it on first use. This is the *canonical* per-replay timing: it
    /// depends only on the captured launch and the device model — never on
    /// device count or fault state — so the telemetry clock advanced from
    /// it is identical across `--devices 1` and `--devices N` runs.
    pub(crate) fn clean_sim_cached(&self, ctx: &GpuContext) -> &(SimResult, SimProfile) {
        let hit = self.sim_clean.get().is_some();
        let pair = self.sim_clean.get_or_init(|| {
            simulate_instrumented(
                &ctx.device,
                &ctx.cost,
                &self.launch,
                &ctx.registry,
                None,
                ctx.instruments(),
            )
        });
        if hit {
            self.note_cache_hit(ctx, "clean");
        }
        pair
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
            Some(sink) => self.fold_range::<A>(y, factors, sink, b0, b1),
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

    /// The replay loop: computes each contribution's accumulator exactly
    /// as the emitting kernel did (seed or leaf reduction, then the
    /// Hadamard chain) and hands it to `fold` at once.
    fn fold_range<A: Lanes>(
        &self,
        y: &mut Matrix,
        factors: &[Matrix],
        fold: &mut impl Fold,
        b0: usize,
        b1: usize,
    ) {
        let s = &self.sched;
        let mut acc = A::zeroed(self.rank);
        // A compile-time constant for the array arms.
        let r = acc.as_ref().len();
        let leaf = factors.get(s.leaf_mode).map_or(&[][..], Matrix::data);
        for b in b0..b1.min(s.num_blocks()) {
            fold.begin_block(y, b);
            let (lo, hi) = (s.block_ptr[b] as usize, s.block_ptr[b + 1] as usize);
            let contribs = s.rows[lo..hi]
                .iter()
                .zip(&s.init_vals[lo..hi])
                .zip(s.leaf_ptr[lo..=hi].windows(2))
                .zip(s.chain_ptr[lo..=hi].windows(2));
            for (((&i, &seed), l), c) in contribs {
                let (l0, l1) = (l[0] as usize, l[1] as usize);
                if l0 == l1 {
                    acc.splat(seed);
                } else {
                    acc.splat(0.0);
                    for (&v, &row) in s.leaf_vals[l0..l1].iter().zip(&s.leaf_rows[l0..l1]) {
                        acc.add_scaled(v, factor_row(leaf, row, r));
                    }
                }
                let (c0, c1) = (c[0] as usize, c[1] as usize);
                for (&m, &row) in s.chain_modes[c0..c1].iter().zip(&s.chain_rows[c0..c1]) {
                    acc.mul_by(factor_row(factors[m as usize].data(), row, r));
                }
                fold.commit(y, i as usize, acc.as_ref());
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
        for b in 0..nblocks {
            let (lo, hi) = (s.block_ptr[b] as usize, s.block_ptr[b + 1] as usize);
            let mut w = 1 + (hi - lo) as u64;
            if hi > lo {
                w += u64::from(s.leaf_ptr[hi] - s.leaf_ptr[lo]);
                w += u64::from(s.chain_ptr[hi] - s.chain_ptr[lo]);
            }
            prefix.push(prefix[b] + w);
        }
        prefix
    }

    /// The sub-launch covering schedule blocks `b0..b1` (clamped to the
    /// launch's block count — the schedule can record a trailing probe
    /// block past the last launched one).
    pub(crate) fn sub_launch(&self, b0: usize, b1: usize) -> KernelLaunch {
        let lo = b0.min(self.launch.blocks.len());
        let hi = b1.min(self.launch.blocks.len());
        KernelLaunch {
            name: self.launch.name.clone(),
            blocks: self.launch.blocks[lo..hi].to_vec(),
        }
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
    /// SoA arrays, little-endian) for the streaming shard store. The
    /// captured instruction stream and footprint are deliberately not
    /// persisted: a deserialized plan replays values bit-identically but
    /// carries an empty launch (no machine-model simulation) — the
    /// streaming CPD driver computes values only.
    pub(crate) fn write_schedule(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        w.write_all(SCHED_MAGIC)?;
        let name = self.name.as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        w.write_all(&(self.mode as u32).to_le_bytes())?;
        w.write_all(&(self.rank as u32).to_le_bytes())?;
        w.write_all(&(self.out_rows as u64).to_le_bytes())?;
        w.write_all(&(self.sched.leaf_mode as u32).to_le_bytes())?;
        write_u32s(w, &self.sched.block_ptr)?;
        write_u32s(w, &self.sched.rows)?;
        write_f32s(w, &self.sched.init_vals)?;
        write_u32s(w, &self.sched.leaf_ptr)?;
        write_f32s(w, &self.sched.leaf_vals)?;
        write_u32s(w, &self.sched.leaf_rows)?;
        write_u32s(w, &self.sched.chain_ptr)?;
        write_u32s(w, &self.sched.chain_modes)?;
        write_u32s(w, &self.sched.chain_rows)?;
        Ok(())
    }

    /// Reconstructs a value-replayable plan written by
    /// [`Plan::write_schedule`].
    pub(crate) fn read_schedule(r: &mut impl std::io::Read) -> std::io::Result<Plan> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != SCHED_MAGIC {
            return Err(bad("not a serialized replay schedule"));
        }
        let name_len = read_u32(r)? as usize;
        if name_len > 1 << 16 {
            return Err(bad("implausible kernel name length"));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| bad("kernel name not utf-8"))?;
        let mode = read_u32(r)? as usize;
        let rank = read_u32(r)? as usize;
        let out_rows = read_u64(r)? as usize;
        let leaf_mode = read_u32(r)? as usize;
        let mut sched = ReplaySchedule {
            leaf_mode,
            block_ptr: read_u32s(r)?,
            rows: read_u32s(r)?,
            init_vals: read_f32s(r)?,
            leaf_ptr: read_u32s(r)?,
            leaf_vals: read_f32s(r)?,
            leaf_rows: read_u32s(r)?,
            chain_ptr: read_u32s(r)?,
            chain_modes: read_u32s(r)?,
            chain_rows: read_u32s(r)?,
            reach: Vec::new(),
        };
        sched.check(out_rows).map_err(bad)?;
        sched.measure_reach();
        Ok(Plan {
            name: name.clone(),
            mode,
            rank,
            out_rows,
            dispatch: RankDispatch::for_rank(rank),
            launch: KernelLaunch::new(&name),
            sched,
            footprint: MemoryFootprint::default(),
            sim_clean: OnceLock::new(),
            sim_faulted: Mutex::new(None),
            sim_tiled: Mutex::new(None),
        })
    }
}

/// Magic prefix of a serialized [`ReplaySchedule`] ("sptk plan, v1").
const SCHED_MAGIC: &[u8; 4] = b"SPL1";

fn write_u32s(w: &mut impl std::io::Write, v: &[u32]) -> std::io::Result<()> {
    w.write_all(&(v.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(4 * v.len().min(1 << 18));
    for chunk in v.chunks(1 << 18) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

fn write_f32s(w: &mut impl std::io::Write, v: &[f32]) -> std::io::Result<()> {
    w.write_all(&(v.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(4 * v.len().min(1 << 18));
    for chunk in v.chunks(1 << 18) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

fn read_u32(r: &mut impl std::io::Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl std::io::Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32s(r: &mut impl std::io::Read) -> std::io::Result<Vec<u32>> {
    let n = read_u64(r)? as usize;
    let mut out = Vec::new();
    let mut buf = vec![0u8; 4 * n.min(1 << 18)];
    let mut left = n;
    while left > 0 {
        let take = left.min(1 << 18);
        r.read_exact(&mut buf[..4 * take])?;
        out.extend(
            buf[..4 * take]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        left -= take;
    }
    Ok(out)
}

fn read_f32s(r: &mut impl std::io::Read) -> std::io::Result<Vec<f32>> {
    Ok(read_u32s(r)?.into_iter().map(f32::from_bits).collect())
}

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
                let plan = super::hbcsf::plan_impl(ctx, &h, rank);
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
    /// (`formats[m].perm[0] == m` expected).
    pub fn from_formats(ctx: &GpuContext, formats: &[Hbcsf], rank: usize) -> ModePlans {
        let built: Vec<(Plan, f64)> = formats
            .par_iter()
            .map(|h| {
                let start = Instant::now();
                let plan = super::hbcsf::plan_impl(ctx, h, rank);
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
    use crate::reference::random_factors;
    use proptest::prelude::*;
    use sptensor::dims::identity_perm;
    use sptensor::synth::uniform_random;
    use tensor_formats::{BcsfOptions, Hbcsf};

    /// The serialized schedule arrays, in file order.
    const ARRAYS: [&str; 9] = [
        "block_ptr",
        "rows",
        "init_vals",
        "leaf_ptr",
        "leaf_vals",
        "leaf_rows",
        "chain_ptr",
        "chain_modes",
        "chain_rows",
    ];

    /// The structural arrays, whose every element the check covers.
    const STRUCTURAL: [&str; 4] = ["block_ptr", "rows", "leaf_ptr", "chain_ptr"];

    /// The fixture's 4-way tensor (4 modes, so contributions carry chains).
    fn tensor() -> CooTensor {
        uniform_random(&[7, 9, 6, 5], 120, 0x5A1)
    }

    /// A small HB-CSF plan of [`tensor`] and its `SPL1` bytes.
    fn fixture() -> (Plan, Vec<u8>) {
        let ctx = GpuContext::tiny();
        let h = Hbcsf::build(&tensor(), &identity_perm(4), BcsfOptions::default());
        let plan = super::super::hbcsf::plan_impl(&ctx, &h, 4);
        let mut bytes = Vec::new();
        plan.write_schedule(&mut bytes).unwrap();
        (plan, bytes)
    }

    /// Byte offset of each array's `u64` length prefix, and its length.
    fn arrays(bytes: &[u8]) -> Vec<(usize, usize)> {
        let name_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        // magic, name length, name, mode, rank, out_rows, leaf_mode
        let mut at = 4 + 4 + name_len + 4 + 4 + 8 + 4;
        let mut out = Vec::new();
        for _ in ARRAYS {
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            out.push((at, len));
            at += 8 + 4 * len;
        }
        assert_eq!(at, bytes.len());
        out
    }

    fn read(bytes: &[u8]) -> std::io::Result<Plan> {
        Plan::read_schedule(&mut &bytes[..])
    }

    fn invalid(bytes: &[u8], what: &str) {
        match read(bytes) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}"),
            Ok(_) => panic!("{what}: corrupt schedule accepted"),
        }
    }

    #[test]
    fn schedule_check_accepts_what_capture_writes() {
        let (plan, bytes) = fixture();
        let back = read(&bytes).unwrap();
        assert_eq!(back.schedule().rows.len(), plan.schedule().rows.len());
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
    const FACTOR_INDICES: [&str; 3] = ["leaf_rows", "chain_modes", "chain_rows"];

    #[test]
    fn flipped_factor_indices_are_typed_errors() {
        let (_, bytes) = fixture();
        let ctx = GpuContext::tiny();
        let factors = random_factors(&tensor(), 4, 7);
        read(&bytes).unwrap().validate_factors(&factors).unwrap();
        let refused = |bad: &[u8], what: &str| match read(bad) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}"),
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
        // A chain mode one past the last factor reads as a plan.
        let (at, len) = arrays(&bytes)[7];
        for i in 0..len {
            let word = at + 8 + 4 * i;
            let mut bad = bytes.clone();
            bad[word..word + 4].copy_from_slice(&4u32.to_le_bytes());
            let plan = read(&bad).unwrap();
            match plan.validate_factors(&factors) {
                Err(LaunchError::FactorCount { expected, got }) => {
                    assert_eq!((expected, got), (5, 4), "chain_modes[{i}]")
                }
                other => panic!("chain_modes[{i}] = 4: {other:?}"),
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
        let plan = super::super::hbcsf::plan_impl(&GpuContext::tiny(), &h, rank);
        let s = plan.schedule();
        let inside = (1..s.num_blocks())
            .filter(|&b| {
                let c = s.block_ptr[b] as usize;
                c > 0 && c < s.rows.len() && s.rows[c - 1] == s.rows[c]
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
    fn any_single_bit_flip_reads_without_panicking() {
        let (_, bytes) = fixture();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 1 << (at % 8);
            let _ = read(&bad);
        }
    }
}
