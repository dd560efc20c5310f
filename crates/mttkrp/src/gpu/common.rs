//! Shared machinery for the simulated GPU kernels: context, address
//! layout, and the lane-layout conventions every kernel follows.
//!
//! **Lane layout.** All structured kernels put the rank dimension across
//! the 32 lanes of a warp (lane `l` owns rank elements `l, l+32, …`), the
//! standard layout for MTTKRP with `R ≥ 32`: a factor-row access is then a
//! fully coalesced load of `ceil(R/32)` segments and a per-nonzero
//! multiply-accumulate is `ceil(R/32)` warp-wide FMA instructions.

use std::sync::Arc;

use dense::Matrix;
use gpu_sim::{
    simulate, simulate_instrumented, AddressSpace, ArraySpan, BitFlip, CostModel, DeviceMemory,
    DeviceProfile, FaultPlan, KernelLaunch, MemTraceRecorder, SimInstruments, SimProfile,
    SimResult, WarpWork,
};
use sptensor::Index;

/// Device + cost-model bundle passed to every GPU kernel, plus the
/// profiling sink every launch records into.
#[derive(Debug, Clone)]
pub struct GpuContext {
    pub device: DeviceProfile,
    pub cost: CostModel,
    /// Warps per thread block for the structured kernels (paper: 512
    /// threads = 16 warps).
    pub warps_per_block: usize,
    /// Profiling sink. Disabled by default: every recording call then
    /// costs one relaxed atomic load. Enable via [`GpuContext::with_profiling`]
    /// to collect per-launch counters/spans and per-block [`SimProfile`]s.
    pub registry: Arc<simprof::Registry>,
    /// Optional fault-injection plan. `None` (or an inactive plan) keeps
    /// every kernel on the exact fault-free code path — bit-for-bit
    /// identical output and timing. Set via [`GpuContext::with_faults`].
    pub faults: Option<FaultPlan>,
    /// Tracked device memory every plan execution leases its buffers
    /// from. Unlimited by default (pure observation: ledger + high-water
    /// mark); cap it via [`GpuContext::with_memory`] to make footprints
    /// binding and enable out-of-core execution.
    pub memory: Arc<DeviceMemory>,
    /// Structured event stream (JSONL). A null handle by default: the
    /// simulated clock still runs (CPD iteration timings derive from it)
    /// but no events are rendered. Set via [`GpuContext::with_events`].
    pub telemetry: Arc<simprof::Telemetry>,
    /// Opt-in per-warp memory address-stream recorder; `None` by default.
    /// Set via [`GpuContext::with_memtrace`].
    pub memtrace: Option<Arc<MemTraceRecorder>>,
}

impl Default for GpuContext {
    fn default() -> Self {
        GpuContext {
            device: DeviceProfile::p100(),
            cost: CostModel::default(),
            warps_per_block: 16,
            registry: Arc::new(simprof::Registry::disabled()),
            faults: None,
            memory: Arc::new(DeviceMemory::unlimited()),
            telemetry: Arc::new(simprof::Telemetry::null()),
            memtrace: None,
        }
    }
}

impl GpuContext {
    /// A small-device context for fast unit tests.
    pub fn tiny() -> GpuContext {
        GpuContext {
            device: DeviceProfile::tiny(),
            cost: CostModel::default(),
            warps_per_block: 4,
            ..Default::default()
        }
    }

    /// Same context with an enabled profiling registry.
    pub fn with_profiling(mut self) -> GpuContext {
        self.registry = Arc::new(simprof::Registry::new());
        self
    }

    /// Same context with a fault-injection plan. Inactive plans (all rates
    /// zero) are dropped so the fault-free fast path stays in force.
    pub fn with_faults(mut self, plan: FaultPlan) -> GpuContext {
        self.faults = plan.is_active().then_some(plan);
        self
    }

    /// Same context drawing allocations from `memory`.
    pub fn with_memory(mut self, memory: Arc<DeviceMemory>) -> GpuContext {
        self.memory = memory;
        self
    }

    /// Same context emitting structured events through `telemetry`.
    pub fn with_events(mut self, telemetry: Arc<simprof::Telemetry>) -> GpuContext {
        self.telemetry = telemetry;
        self
    }

    /// Same context recording the sampled L2 address stream of every
    /// *canonical* simulation (plan captures and replayed sims — not the
    /// throwaway tiling estimates) into `recorder`.
    pub fn with_memtrace(mut self, recorder: Arc<MemTraceRecorder>) -> GpuContext {
        self.memtrace = Some(recorder);
        self
    }

    /// The observability hooks canonical (sequential) simulation sites
    /// pass to [`simulate_instrumented`]. Parallel estimate sites (tile
    /// sizing, shard fitting) must NOT use this: event order would become
    /// scheduling-dependent.
    pub(crate) fn instruments(&self) -> SimInstruments<'_> {
        SimInstruments {
            telemetry: Some(&self.telemetry),
            trace: self.memtrace.as_deref(),
        }
    }

    /// Whether launches through this context collect profiles.
    pub fn profiling(&self) -> bool {
        self.registry.enabled()
    }

    /// The active *execution*-fault plan (bit flips, aborts, stragglers),
    /// if any. Plans carrying only memory faults (`oom`/`frag`) return
    /// `None` here: they refuse allocations but never perturb kernel
    /// output or timing, so the bit-exact fault-free paths stay in force.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| p.has_exec_faults())
    }

    /// The active *memory*-fault plan (allocation failures,
    /// fragmentation), if any — consumed by [`DeviceMemory::try_lease`]
    /// on the out-of-core path.
    pub fn mem_fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| p.has_mem_faults())
    }

    /// The active *device*-fault plan (whole-device losses), if any —
    /// consumed by the sharded engine when it decides which devices of a
    /// grid die and get re-sharded around. Device losses never perturb
    /// committed values (the surviving fold is bit-identical to a clean
    /// run on the survivors), so they activate neither the ABFT nor the
    /// OOM machinery.
    pub fn device_fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| p.has_device_faults())
    }

    /// The active *link*-fault plan (interconnect degradation/loss), if
    /// any — consumed by the sharded engine when it prices the ring
    /// all-reduce. Link faults never perturb committed values: degraded
    /// links only stretch the modeled collective time, and a lost link
    /// drops the grid to the bit-exact single-device path.
    pub fn link_fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| p.has_link_faults())
    }

    /// The active *crash*-fault plan (mid-write checkpoint crashes), if
    /// any — consumed by the durable checkpoint store. Crash faults tear
    /// checkpoint files on disk and touch nothing else.
    pub fn crash_fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| p.has_crash_faults())
    }

    /// An ABFT sink for a kernel named `kernel` producing `rows` output
    /// rows. Active (checksumming + injecting) only when this context
    /// carries an active fault plan; otherwise a zero-cost pass-through.
    pub fn abft_sink(&self, kernel: &str, rows: usize) -> AbftSink {
        AbftSink::new(self.fault_plan().cloned(), kernel, rows)
    }

    /// Runs a launch through the simulator (metrics only).
    pub fn simulate(&self, launch: &KernelLaunch) -> SimResult {
        simulate(&self.device, &self.cost, launch)
    }

    /// Completes a kernel: simulates `launch`, records into the context's
    /// registry, and pairs the metrics with the computed output. The
    /// per-block [`SimProfile`] is kept only when profiling is enabled.
    pub fn finish(&self, y: Matrix, launch: &KernelLaunch) -> GpuRun {
        self.finish_abft(y, launch, AbftSink::inactive())
    }

    /// [`GpuContext::finish`] for kernels that routed their output commits
    /// through an [`AbftSink`]: flushes the sink's last pending fault into
    /// `y`, simulates under the fault plan (when active), and attaches the
    /// ABFT checksum data to the run. With no active plan this is exactly
    /// the historical `finish` path.
    pub fn finish_abft(&self, mut y: Matrix, launch: &KernelLaunch, mut sink: AbftSink) -> GpuRun {
        sink.flush(&mut y);
        let plan = self.fault_plan();
        let (sim, profile) = simulate_instrumented(
            &self.device,
            &self.cost,
            launch,
            &self.registry,
            plan,
            self.instruments(),
        );
        // Faulted runs always keep the profile: the injected-fault ledger
        // lives there and resilience reporting needs it.
        let keep = plan.is_some() || self.profiling();
        GpuRun {
            y,
            sim,
            profile: keep.then_some(profile),
            abft: if plan.is_some() {
                sink.into_data()
            } else {
                None
            },
        }
    }
}

/// A kernel's outcome: the (real) MTTKRP output and the simulation metrics.
#[derive(Debug, Clone)]
pub struct GpuRun {
    pub y: Matrix,
    pub sim: SimResult,
    /// Per-block/per-SM attribution; `Some` when the context was profiling
    /// (see [`GpuContext::with_profiling`]) or carried an active fault plan.
    pub profile: Option<SimProfile>,
    /// ABFT checksums and injection ground truth; `Some` only when the
    /// context carried an active fault plan.
    pub abft: Option<AbftData>,
}

/// ABFT column-checksum record of one kernel execution, plus the injection
/// ground truth needed to *measure* detection (never consulted by
/// detection itself — [`crate::abft::verify`] sees only `check`/`abs`).
#[derive(Debug, Clone)]
pub struct AbftData {
    /// Kernel (launch) name the checksums belong to.
    pub kernel: String,
    /// Per output row: the `f64` sum of every committed contribution
    /// across all columns — what `Σ_c Y[i,c]` must equal up to `f32`
    /// rounding.
    pub check: Vec<f64>,
    /// Per output row: the `f64` sum of absolute contribution values,
    /// the scale against which the detection tolerance is set.
    pub abs: Vec<f64>,
    /// Ground truth: rows whose committed accumulation was corrupted by an
    /// injected flip (sorted, deduplicated).
    pub corrupted_rows: Vec<u32>,
    /// Number of bit flips actually applied to data (a drawn flip lands
    /// only if its block commits at least one contribution).
    pub flips_applied: u64,
}

/// A fault latched onto one block's accumulation: the block's running
/// partial for one `(row, col)` cell, corrupted at block retirement.
#[derive(Debug, Clone, Copy)]
struct InflightFlip {
    row: usize,
    col: usize,
    bit: u32,
    /// The block's accumulated (true) contribution to `y[row][col]`.
    partial: f32,
}

/// Routes every kernel output commit, maintaining ABFT column checksums
/// and applying the fault plan's bit flips to per-block accumulations.
///
/// Kernels call [`AbftSink::begin_block`] when they start emitting a
/// thread block and [`AbftSink::contribute`] instead of a bare
/// `axpy_into(y.row_mut(i), ..)` at every output commit. An inactive sink
/// (no fault plan) reduces each call to exactly the historical `axpy_into`
/// — the fault-free path stays bit-for-bit identical.
///
/// A drawn [`BitFlip`] corrupts the *block's accumulated partial* for one
/// output cell (the first cell the block commits to): the flip is modeled
/// as hitting the block's accumulator register before write-back, so the
/// injected error scales with the block's whole contribution — the
/// "bit flips in per-block accumulation" fault class.
#[derive(Debug)]
pub struct AbftSink {
    plan: Option<FaultPlan>,
    kernel: String,
    check: Vec<f64>,
    abs: Vec<f64>,
    /// Flip drawn for the current block, not yet latched to a cell.
    pending: Option<BitFlip>,
    /// Flip latched to a cell, accumulating the block's partial.
    inflight: Option<InflightFlip>,
    corrupted_rows: Vec<u32>,
    flips_applied: u64,
}

impl AbftSink {
    /// A permanently inactive sink (pure pass-through).
    pub fn inactive() -> AbftSink {
        AbftSink::new(None, "", 0)
    }

    fn new(plan: Option<FaultPlan>, kernel: &str, rows: usize) -> AbftSink {
        let n = if plan.is_some() { rows } else { 0 };
        AbftSink {
            plan,
            kernel: kernel.to_string(),
            check: vec![0.0; n],
            abs: vec![0.0; n],
            pending: None,
            inflight: None,
            corrupted_rows: Vec::new(),
            flips_applied: 0,
        }
    }

    /// Whether this sink checksums and injects (i.e. a fault plan is set).
    #[inline]
    pub fn active(&self) -> bool {
        self.plan.is_some()
    }

    /// Marks the start of thread block `block` (index in launch emission
    /// order, which matches the scheduler's block order): retires the
    /// previous block — applying its latched flip, if any — and draws this
    /// block's flip from the plan.
    #[inline]
    pub fn begin_block(&mut self, y: &mut Matrix, block: usize) {
        if let Some(plan) = &self.plan {
            let flip = plan.block_bitflip(&self.kernel, block);
            self.flush(y);
            self.pending = flip;
        }
    }

    /// Commits one output contribution: `y[i] += acc`, recording the `f64`
    /// checksum and latching/accumulating the block's fault partial.
    #[inline]
    pub fn contribute(&mut self, y: &mut Matrix, i: usize, acc: &[f32]) {
        if self.plan.is_none() {
            axpy_into(y.row_mut(i), 1.0, acc);
            return;
        }
        let (mut sum, mut abs) = (0.0f64, 0.0f64);
        for &a in acc {
            sum += f64::from(a);
            abs += f64::from(a).abs();
        }
        self.check[i] += sum;
        self.abs[i] += abs;
        axpy_into(y.row_mut(i), 1.0, acc);
        if let Some(flip) = self.pending {
            let col = flip.lane as usize % acc.len().max(1);
            match &mut self.inflight {
                // Latch the flip onto the block's first committed cell.
                None => {
                    self.inflight = Some(InflightFlip {
                        row: i,
                        col,
                        bit: flip.bit,
                        partial: acc[col],
                    })
                }
                // Same cell again: the block's partial keeps accumulating.
                Some(fl) if fl.row == i => fl.partial += acc[col],
                // Block moved to another row: the latched cell is final.
                Some(_) => {}
            }
        }
    }

    /// Retires the in-flight block: replaces its latched cell's true
    /// partial with the bit-flipped partial (`y[r][c] += flip(p) − p`).
    pub(crate) fn flush(&mut self, y: &mut Matrix) {
        self.pending = None;
        if let Some(fl) = self.inflight.take() {
            let corrupted = f32::from_bits(fl.partial.to_bits() ^ (1u32 << fl.bit));
            y.row_mut(fl.row)[fl.col] += corrupted - fl.partial;
            self.flips_applied += 1;
            self.corrupted_rows.push(fl.row as u32);
        }
    }

    /// The finished checksum record (`None` for inactive sinks). Callers
    /// must have flushed the final block first (`finish_abft` and
    /// [`crate::gpu::plan::Plan::execute`] do).
    pub(crate) fn into_data(mut self) -> Option<AbftData> {
        self.plan.as_ref()?;
        self.corrupted_rows.sort_unstable();
        self.corrupted_rows.dedup();
        Some(AbftData {
            kernel: self.kernel,
            check: self.check,
            abs: self.abs,
            corrupted_rows: self.corrupted_rows,
            flips_applied: self.flips_applied,
        })
    }
}

/// Synthetic device addresses of the factor matrices and the output.
#[derive(Debug, Clone)]
pub struct FactorAddrs {
    /// One span per mode (the output mode's span doubles as `Y`'s input-
    /// factor slot and is unused).
    pub factors: Vec<ArraySpan>,
    /// Output matrix `Y` (`dims[mode] × R`).
    pub y: ArraySpan,
    /// Bytes per factor/output row (`R × 4`).
    pub row_bytes: u64,
    /// Warp-wide instructions per row operation: `ceil(R / 32)`.
    pub rank_steps: u32,
}

impl FactorAddrs {
    /// Reserves address space for all factors and the mode-`mode` output.
    ///
    /// Sizes are computed with saturating arithmetic: a `dims × rank`
    /// product that overflows u64 yields a span of `u64::MAX` bytes,
    /// which no [`DeviceMemory`] capacity can satisfy — the overflow
    /// surfaces as a typed OOM instead of a silent wrap.
    pub fn layout(space: &mut AddressSpace, dims: &[Index], r: usize, mode: usize) -> FactorAddrs {
        let row_bytes = (r as u64).saturating_mul(4);
        let factors = dims
            .iter()
            .map(|&d| space.alloc(u64::from(d).saturating_mul(row_bytes)))
            .collect();
        let y = space.alloc(u64::from(dims[mode]).saturating_mul(row_bytes));
        FactorAddrs {
            factors,
            y,
            row_bytes,
            rank_steps: (r as u32).div_ceil(32),
        }
    }

    /// Emits the coalesced load of one factor row.
    #[inline]
    pub fn load_row(&self, w: &mut WarpWork, mode: usize, row: usize) {
        w.load_span(self.factors[mode].row(row, self.row_bytes), self.row_bytes);
    }

    /// Emits a plain store of output row `i`.
    #[inline]
    pub fn store_y(&self, w: &mut WarpWork, i: usize) {
        w.store_span(self.y.row(i, self.row_bytes), self.row_bytes);
    }

    /// Emits an atomic accumulate into output row `i`.
    #[inline]
    pub fn atomic_y(&self, w: &mut WarpWork, i: usize) {
        w.atomic_span(i as u32, self.y.row(i, self.row_bytes), self.row_bytes);
    }
}

/// Emits the coalesced load of `count` consecutive `u32` entries starting
/// at element `start` of `span` (index/pointer array streaming).
#[inline]
pub fn load_u32s(w: &mut WarpWork, span: ArraySpan, start: usize, count: usize) {
    if count > 0 {
        w.load_span(span.elem(start, 4), (count as u64).saturating_mul(4));
    }
}

/// Semantic helper: `acc[c] (op)= v * row[c]` for the two accumulation
/// patterns kernels need.
#[inline]
pub fn axpy_into(acc: &mut [f32], v: f32, row: &[f32]) {
    for (a, &f) in acc.iter_mut().zip(row) {
        *a += v * f;
    }
}

/// Semantic helper: `acc[c] *= row[c]`.
#[inline]
pub fn scale_by(acc: &mut [f32], row: &[f32]) {
    for (a, &f) in acc.iter_mut().zip(row) {
        *a *= f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Op;

    #[test]
    fn layout_is_disjoint_and_rank_steps_correct() {
        let mut space = AddressSpace::new();
        let fa = FactorAddrs::layout(&mut space, &[10, 20, 30], 32, 0);
        assert_eq!(fa.factors.len(), 3);
        assert_eq!(fa.row_bytes, 128);
        assert_eq!(fa.rank_steps, 1);
        // Factor spans do not overlap.
        assert!(fa.factors[0].base + 10 * 128 <= fa.factors[1].base);
        assert!(fa.factors[1].base + 20 * 128 <= fa.factors[2].base);
        assert!(fa.factors[2].base + 30 * 128 <= fa.y.base);

        let fa64 = FactorAddrs::layout(&mut AddressSpace::new(), &[4, 4, 4], 64, 0);
        assert_eq!(fa64.rank_steps, 2);
        assert_eq!(fa64.row_bytes, 256);
    }

    #[test]
    fn row_ops_emit_expected_segments() {
        let mut space = AddressSpace::new();
        let fa = FactorAddrs::layout(&mut space, &[10, 10, 10], 32, 0);
        let mut w = WarpWork::new();
        fa.load_row(&mut w, 1, 3);
        assert_eq!(w.ops().count(), 1); // 128-B row = 1 segment
        fa.store_y(&mut w, 2);
        fa.atomic_y(&mut w, 2);
        assert_eq!(w.ops().count(), 3);
        let third = w.ops().nth(2);
        match third {
            Some(Op::AtomicAdd { row, .. }) => assert_eq!(row, 2),
            other => panic!("expected atomic, got {other:?}"),
        }
    }

    #[test]
    fn profiling_context_yields_profiles_and_counters() {
        use crate::gpu::{AnyFormat, BuildOptions, Executor, KernelKind, LaunchArgs};
        use sptensor::synth::uniform_random;

        let t = uniform_random(&[10, 12, 14], 400, 17);
        let factors = crate::reference::random_factors(&t, 8, 18);
        let coo = AnyFormat::build(KernelKind::Coo, &t, 0, &BuildOptions::default()).unwrap();

        let plain_ctx = GpuContext::tiny();
        let plain = Executor::new(plain_ctx.clone())
            .run(&coo, &LaunchArgs::new(&factors))
            .unwrap()
            .run;
        assert!(plain.profile.is_none(), "profiling off by default");
        assert!(plain_ctx.registry.counters().is_empty());

        let ctx = GpuContext::tiny().with_profiling();
        let run = Executor::new(ctx.clone())
            .run(&coo, &LaunchArgs::new(&factors))
            .unwrap()
            .run;
        assert_eq!(plain.sim, run.sim, "profiling must not perturb metrics");
        let profile = run.profile.expect("profiling context keeps the profile");
        assert_eq!(profile.blocks.len(), run.sim.num_blocks);
        assert_eq!(ctx.registry.counter("sim.launches"), 1);
        assert_eq!(
            ctx.registry.counter("sim.blocks"),
            run.sim.num_blocks as u64
        );
        assert_eq!(ctx.registry.spans().len(), 1);
    }

    #[test]
    fn u32_loads_coalesce() {
        let mut space = AddressSpace::new();
        let span = space.alloc_elems(1000, 4);
        let mut w = WarpWork::new();
        load_u32s(&mut w, span, 0, 32); // 128 B = 1 segment
        assert_eq!(w.ops().count(), 1);
        load_u32s(&mut w, span, 31, 2); // straddles a boundary
        assert_eq!(w.ops().count(), 3);
        load_u32s(&mut w, span, 0, 0);
        assert_eq!(w.ops().count(), 3);
    }
}
