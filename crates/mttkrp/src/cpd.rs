//! CPD-ALS — paper Algorithm 1, generic over the MTTKRP source.
//!
//! Each iteration updates every factor in turn:
//! `Aₙ ← MTTKRP(X, n) · (∗ₘ≠ₙ AₘᵀAₘ)†`, then normalizes the updated
//! factor's columns into `λ`. MTTKRP being "a common bottleneck for CPD"
//! is the paper's entire motivation, so the source is pluggable: any
//! kernel in this crate (CPU or simulated-GPU) wrapped by [`from_fn`], or
//! a [`PlanSource`] replaying captured launch plans.
//!
//! [`run`] is the one entry point. A [`RunSpec`] describes the run: the
//! [`CpdOptions`], the [`UpdateRule`], and the optional guards and
//! observers. Every run — the streamed one
//! ([`cpd_als_streamed`](crate::gpu::cpd_als_streamed)) included — goes
//! through the same private loop, `als`.
//!
//! ```
//! use mttkrp::cpd::{from_fn, run, CpdOptions, RunSpec};
//! use mttkrp::reference;
//! use sptensor::synth::uniform_random;
//!
//! let t = uniform_random(&[6, 7, 8], 100, 1);
//! let opts = CpdOptions { rank: 3, max_iters: 5, tol: 0.0, seed: 2 };
//! let source = from_fn(|factors, mode| reference::mttkrp(&t, factors, mode));
//! let res = run(&t, RunSpec::new(opts), source).unwrap().result;
//! assert_eq!(res.iterations, 5);
//! assert_eq!(res.factors.len(), 3);
//! assert!(res.final_fit() > 0.0);
//! ```

use std::convert::Infallible;
use std::time::Instant;

use dense::{pseudo_inverse, spd_condition, HadamardChain, Matrix, UpdateBuffers};
use simprof::{
    CheckpointRecord, DeviceRecord, FieldValue, GridRecord, MemoryRecord, ModeTiming,
    ResilienceRecord, RunManifest,
};
use sptensor::CooTensor;

use crate::abft::AbftOptions;
use crate::checkpoint::{CheckpointError, CheckpointState, CheckpointStore};
use crate::gpu::exec::{launch, Route};
use crate::gpu::{GpuContext, GpuRun, GridSpec, ModePlans, OocOptions, ShardModel};
use crate::reference::{self, random_factors};

/// CPD-ALS configuration.
#[derive(Debug, Clone, Copy)]
pub struct CpdOptions {
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Maximum ALS iterations (paper term: `outer_iters`).
    pub max_iters: usize,
    /// Stop when the fit improves by less than this.
    pub tol: f64,
    /// Factor initialization seed.
    pub seed: u64,
}

impl Default for CpdOptions {
    fn default() -> Self {
        CpdOptions {
            rank: 16,
            max_iters: 25,
            tol: 1e-5,
            seed: 0xC9D,
        }
    }
}

/// Decomposition output.
#[derive(Debug, Clone)]
pub struct CpdResult {
    /// Normalized factor matrices, one per mode.
    pub factors: Vec<Matrix>,
    /// Column weights (norms absorbed from the last-updated factor).
    pub lambda: Vec<f32>,
    /// Fit after each iteration: `1 − ‖X − X̃‖ / ‖X‖`.
    pub fits: Vec<f64>,
    /// Iterations actually executed.
    pub iterations: usize,
}

impl CpdResult {
    /// Final fit (0 when no iterations ran).
    pub fn final_fit(&self) -> f64 {
        self.fits.last().copied().unwrap_or(0.0)
    }
}

/// How each factor is recomputed from its MTTKRP `Y` and the
/// gram-Hadamard `Vₙ = ∗ₘ≠ₙ AₘᵀAₘ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateRule {
    /// `Aₙ ← Y · Vₙ⁺`, columns normalized into `λ` after every update
    /// (paper Algorithm 1).
    LeastSquares,
    /// Multiplicative updates (Lee–Seung generalized to tensors):
    /// `Aₙ ← Aₙ ∗ Y ⊘ (Aₙ · Vₙ)`. Keeps every factor entry ≥ 0 — the
    /// constraint the paper's motivating applications (e.g. Marble's
    /// high-throughput phenotyping from health records) impose on CPD.
    /// Factors stay unnormalized (`λ = 1`) during the sweep; the last
    /// factor's column norms move into `λ` once, at the end.
    Nonneg,
}

/// [`UpdateRule::Nonneg`]'s step: `a ← a ∗ y ⊘ (a·v + ε)`, clamped at
/// zero, with the denominator `a·v` written into the reused `denom`.
fn nonneg_update(
    a: &mut Matrix,
    y: &Matrix,
    v: &Matrix,
    denom: &mut Matrix,
    buffers: &mut UpdateBuffers,
) {
    const EPS: f32 = 1e-12;
    assert!(
        y.rows() == a.rows() && y.cols() == a.cols(),
        "y must have a's shape"
    );
    denom.reshape(a.rows(), v.cols());
    buffers.matmul_into(a, v, denom);
    for ((x, &yv), &d) in a.data_mut().iter_mut().zip(y.data()).zip(denom.data()) {
        *x = (*x * yv / (d + EPS)).max(0.0);
    }
}

/// [`UpdateRule::Nonneg`] refused a tensor with a negative (or NaN) value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeValue {
    /// Position of the first offending value in the tensor's entry order.
    pub index: usize,
    /// The value itself.
    pub value: f32,
}

impl std::fmt::Display for NegativeValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-negative CPD requires a non-negative tensor: entry {} is {}",
            self.index, self.value
        )
    }
}

impl std::error::Error for NegativeValue {}

/// Self-healing policy for a run under [`RunSpec::resilience`].
#[derive(Debug, Clone, Copy)]
pub struct ResilienceOptions {
    /// Take a factor checkpoint every this many ALS iterations (the last
    /// non-regressed state rollbacks return to). `0` disables
    /// checkpointing entirely: a fit regression then has no rollback
    /// target and the run rides it out (rollbacks stay at zero).
    pub checkpoint_every: usize,
    /// A fit drop larger than this (vs. the best fit seen) triggers a
    /// rollback to the last checkpoint.
    pub fit_drop_tol: f64,
    /// Rollbacks allowed before regressions are accepted as-is (prevents
    /// livelock under a persistently hostile fault plan).
    pub max_rollbacks: u64,
    /// Gram-Hadamard condition number above which the normal equations are
    /// Tikhonov-regularized before inversion.
    pub cond_limit: f64,
    /// Relative ridge weight for the Tikhonov fallback: the diagonal gets
    /// `ridge × trace(V)/R` added.
    pub ridge: f32,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            checkpoint_every: 2,
            fit_drop_tol: 1e-3,
            max_rollbacks: 3,
            cond_limit: 1e8,
            ridge: 1e-4,
        }
    }
}

/// What the self-healing machinery did during a run under
/// [`RunSpec::resilience`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Non-finite entries scrubbed from MTTKRP outputs and factor updates.
    pub nan_resets: u64,
    /// Normal-equations solves that took the Tikhonov-regularized path.
    pub tikhonov_fallbacks: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks to a checkpoint after a fit regression.
    pub rollbacks: u64,
}

/// How a run under [`RunSpec::durable`] persists and resumes state.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Directory the checkpoint files live in (created if missing).
    pub dir: std::path::PathBuf,
    /// Run label keying the crash-fault draws — same label, same plan,
    /// same crashes. Service jobs use `"job<id>"`.
    pub label: String,
    /// Scan the directory for the newest *valid* checkpoint (skipping
    /// torn/corrupt files) and warm-restart from it.
    pub resume: bool,
    /// Treat an injected mid-write crash as process death: stop the run
    /// right there (the torn file stays on disk for the next restart to
    /// scan past). When `false` the crash only loses that checkpoint —
    /// the computation itself continues, like a failed async snapshot.
    pub halt_on_crash: bool,
}

/// One CPD run as [`run`] executes it: the options, the update rule, and
/// the optional guards and observers. [`RunSpec::new`] is a plain
/// least-squares run that guards and records nothing; set the other
/// fields with struct-update syntax.
///
/// Combinations no run supports are refused by [`run`] with
/// [`CpdError::Unsupported`]: a durable store without resilience,
/// [`UpdateRule::Nonneg`] with resilience, and an out-of-core or grid
/// [`PlanSource`] without resilience.
pub struct RunSpec<'a> {
    /// Rank, iteration cap, convergence tolerance and seed.
    pub opts: CpdOptions,
    /// How each factor is recomputed. [`UpdateRule::Nonneg`] requires a
    /// non-negative tensor; [`run`] returns the first offending value as
    /// [`CpdError::NegativeValue`] otherwise.
    pub rule: UpdateRule,
    /// Hardens the run against a faulty MTTKRP source. Three independent
    /// guards:
    ///
    /// 1. **NaN/Inf scrubbing** — non-finite entries in a kernel's output
    ///    or in the updated factor are replaced with zero (then repaired by
    ///    later iterations) instead of poisoning the whole decomposition.
    /// 2. **Tikhonov fallback** — when the Gram-Hadamard matrix `V` is
    ///    ill-conditioned (corrupted factors routinely degenerate it), a
    ///    relative ridge is added before the pseudo-inverse.
    /// 3. **Checkpoint & rollback** — factors are checkpointed in memory
    ///    every [`ResilienceOptions::checkpoint_every`] iterations; a fit
    ///    regression beyond [`ResilienceOptions::fit_drop_tol`] rolls back
    ///    to the last checkpoint and re-jitters the factors
    ///    (deterministically, from the seed and the rollback count) so the
    ///    re-run does not retrace the corrupted trajectory.
    ///
    /// The fit's `⟨X, X̃⟩` is taken from the last mode's MTTKRP output, so
    /// rollback sees corruption there only indirectly. After the
    /// least-squares update, an error `E` in that output adds
    /// `tr(E V⁺ Eᵀ) ≥ 0` to `⟨X, X̃⟩`: it raises the fit rather than
    /// dropping it. A blow-up that drives the residual below zero by more
    /// than [`ResilienceOptions::fit_drop_tol`] is caught (the fit reads as
    /// NaN and rolls back). A smaller error is not: it inflates the best
    /// fit, and later honest iterations then spend rollbacks against it.
    /// Feed a guarded run verified output — a [`PlanSource`] under an
    /// exec-fault plan runs every MTTKRP inside
    /// [`run_verified`](crate::abft::run_verified), as every caller in this
    /// workspace does.
    ///
    /// Every event is counted in [`RunOutput::stats`] and, with a
    /// manifest, merged into [`RunManifest::resilience`]. With a fault-free
    /// source every guard is inert: the result equals the unguarded run's
    /// exactly. Without guards no guard code runs at all. Only
    /// [`UpdateRule::LeastSquares`] runs guarded.
    pub resilience: Option<&'a ResilienceOptions>,
    /// Durable, crash-consistent checkpoints: at every in-memory checkpoint
    /// the guards take, a versioned, checksummed file is written atomically
    /// (temp + fsync + rename) through a
    /// [`CheckpointStore`]. With
    /// [`DurableOptions::resume`] the run warm-restarts from the newest
    /// valid file — scanning back past any torn files a `crash:RATE` fault
    /// (drawn from [`RunSpec::ctx`]'s
    /// [`crash_fault_plan`](crate::gpu::GpuContext::crash_fault_plan)) left
    /// behind. Needs [`RunSpec::resilience`], whose checkpoints it writes.
    ///
    /// ALS is deterministic, so with a fault-free source a resumed run
    /// replays the identical remaining iterations: its final fit equals
    /// the uninterrupted run's **exactly** — the invariant the chaos
    /// harness asserts at 1e-9.
    ///
    /// The activity lands in [`RunOutput::checkpointing`] (and, with a
    /// manifest, [`RunManifest::checkpointing`]); its `halted` flag reports
    /// whether an injected crash stopped the run early under
    /// [`DurableOptions::halt_on_crash`]. Injected crashes are data, not
    /// errors: [`CpdError::Checkpoint`] is reserved for genuine I/O
    /// failures and for a newest valid checkpoint whose shape (order, rows
    /// per mode, rank) does not match this run
    /// ([`CheckpointError::ShapeMismatch`]).
    pub durable: Option<&'a DurableOptions>,
    /// Iteration telemetry: per-mode MTTKRP wall time, the fit trajectory
    /// and total run time are appended (one
    /// [`IterationRecord`](simprof::IterationRecord) per ALS iteration),
    /// and the resilience, checkpoint, memory and grid records are merged
    /// in. The manifest's `rank`/`max_iters`/`tol`/`seed` are overwritten
    /// from [`RunSpec::opts`], so the written document always describes
    /// the run that produced it. Observational: the math is unchanged.
    pub manifest: Option<&'a mut RunManifest>,
    /// The simulated-clock observer: per-iteration simulated timings are
    /// observed into its registry (`cpd.iter_sim_us`), `iteration` and
    /// checkpoint events are emitted when its telemetry stream is enabled,
    /// and its crash-fault plan drives [`RunSpec::durable`]'s store.
    pub ctx: Option<&'a GpuContext>,
}

impl RunSpec<'_> {
    /// A plain least-squares run under `opts`: no guards, no store,
    /// nothing recorded.
    pub fn new(opts: CpdOptions) -> Self {
        RunSpec {
            opts,
            rule: UpdateRule::LeastSquares,
            resilience: None,
            durable: None,
            manifest: None,
            ctx: None,
        }
    }
}

/// Everything one [`run`] produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The decomposition.
    pub result: CpdResult,
    /// What the resilience guards did (all zero for an unguarded run).
    pub stats: ResilienceStats,
    /// Durable-checkpoint activity (empty without a store).
    pub checkpointing: CheckpointRecord,
    /// The out-of-core ladder's story, one launch per MTTKRP (empty unless
    /// the source was [`PlanSource::out_of_core`]).
    pub memory: MemoryRecord,
    /// One sharded launch per MTTKRP attempt (empty unless the source was
    /// [`PlanSource::grid`]).
    pub grid: GridRecord,
}

/// Why [`run`] refused or stopped a run.
#[derive(Debug, Clone, PartialEq)]
pub enum CpdError {
    /// [`UpdateRule::Nonneg`] met a negative or NaN value.
    NegativeValue(NegativeValue),
    /// The durable store failed, or its newest checkpoint belongs to
    /// another run shape.
    Checkpoint(CheckpointError),
    /// The [`RunSpec`] and source combine inputs no run supports.
    Unsupported(&'static str),
}

impl std::fmt::Display for CpdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpdError::NegativeValue(e) => e.fmt(f),
            CpdError::Checkpoint(e) => e.fmt(f),
            CpdError::Unsupported(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for CpdError {}

/// Where [`run`] takes each MTTKRP from.
pub trait MttkrpSource {
    /// `X₍ₙ₎ ⨀ₘ≠ₙ factors[m]` for `mode = n`, exactly like
    /// [`crate::reference::mttkrp`].
    fn mttkrp(&mut self, factors: &[Matrix], mode: usize) -> Matrix;

    /// Whether the source only runs under [`RunSpec::resilience`].
    fn needs_resilience(&self) -> bool {
        false
    }

    /// Folds what the source recorded over the run into `out` and, when
    /// given, the manifest. Called once, after the last iteration.
    fn finish(&mut self, _out: &mut RunOutput, _manifest: Option<&mut RunManifest>) {}
}

/// An MTTKRP closure as a [`MttkrpSource`]; see [`from_fn`].
pub struct FnSource<F>(F);

/// Wraps `mttkrp(factors, mode)` as a source. The closure must return
/// `X₍ₙ₎ ⨀ₘ≠ₙ factors[m]` exactly like [`crate::reference::mttkrp`] —
/// every kernel in this crate qualifies.
pub fn from_fn<F: FnMut(&[Matrix], usize) -> Matrix>(mttkrp: F) -> FnSource<F> {
    FnSource(mttkrp)
}

impl<F: FnMut(&[Matrix], usize) -> Matrix> MttkrpSource for FnSource<F> {
    fn mttkrp(&mut self, factors: &[Matrix], mode: usize) -> Matrix {
        (self.0)(factors, mode)
    }
}

/// MTTKRP replayed from captured [`ModePlans`] for a resident tensor: one
/// replay per (iteration, mode) instead of a fresh kernel emission.
///
/// Three routes, each MTTKRP one launch down the path
/// [`Executor`](crate::gpu::Executor) launches take:
/// * [`PlanSource::new`] — plain replay.
/// * [`PlanSource::out_of_core`] — the out-of-core ladder
///   ([`execute_adaptive`](crate::gpu::ooc::execute_adaptive)): in-core
///   when a plan's [`MemoryFootprint`](crate::gpu::MemoryFootprint) fits
///   the context's [`DeviceMemory`](gpu_sim::DeviceMemory), tiled when it
///   does not, CPU reference when injected OOMs exhaust the tile budget
///   ladder. On an unconstrained, fault-free context every launch takes
///   the full-device rung, bit-identical to plain replay.
/// * [`PlanSource::grid`] — sharded over a simulated multi-GPU node. One
///   [`ShardModel`] per mode is built up front (the expensive phase: shard
///   fit, per-device tiling, interconnect pricing), then replayed for
///   every (iteration, mode). Each replay folds the shards' contributions
///   in global emission order, so the trajectory is bit-identical to plain
///   replay for any device count. Memory-fault draws happen once at model
///   build — a model that degraded to the CPU reference stays degraded for
///   the whole run.
///
/// A launch refusal (a rank or shape mismatch against the captured plan)
/// degrades to the reference kernel rather than poison the whole run.
/// Under an exec-fault plan (bit flips, aborts, stragglers) every route
/// runs each attempt inside [`run_verified`](crate::abft::run_verified),
/// so checksum repair composes with the ladder. Replay is safe there
/// because capture is value-independent: the retry contexts carry
/// different fault plans, which the plan re-simulates.
///
/// The out-of-core and grid routes only run under
/// [`RunSpec::resilience`]. ABFT counts are merged into
/// [`RunManifest::resilience`], the memory ladder's story into
/// [`RunOutput::memory`], and one grid launch per attempt into
/// [`RunOutput::grid`].
pub struct PlanSource<'a> {
    t: &'a CooTensor,
    ctx: &'a GpuContext,
    plans: &'a ModePlans,
    route: Route<Vec<ShardModel>>,
    kernel: ResilienceRecord,
    memory: MemoryRecord,
    grid: GridRecord,
    last_runs: Vec<Option<GpuRun>>,
}

impl<'a> PlanSource<'a> {
    /// Plain replay of `plans` (captured from `t`) on `ctx`.
    pub fn new(t: &'a CooTensor, ctx: &'a GpuContext, plans: &'a ModePlans) -> Self {
        PlanSource {
            t,
            ctx,
            plans,
            route: Route::Replay,
            kernel: ResilienceRecord::default(),
            memory: MemoryRecord::default(),
            grid: GridRecord::default(),
            last_runs: vec![None; t.order()],
        }
    }

    /// Every replay down the out-of-core ladder of the context's device
    /// memory instead.
    pub fn out_of_core(mut self, oopts: &'a OocOptions) -> Self {
        self.route = Route::OutOfCore(*oopts);
        self
    }

    /// Every replay sharded over `grid` instead; builds each mode's shard
    /// model now, once.
    pub fn grid(mut self, grid: &GridSpec, oopts: &OocOptions) -> Self {
        let models: Vec<ShardModel> = (0..self.t.order())
            .map(|m| ShardModel::build(self.ctx, self.plans.plan(m), grid, oopts))
            .collect();
        // A model's OOM refusals, and the compute its lost devices wasted
        // before dying, happen once, at its build: they count here, not
        // per launch.
        let per_device = (models.iter().flat_map(|m| m.report().shards))
            .map(|s| DeviceRecord {
                device: s.device,
                oom_events: s.oom_events,
                ..DeviceRecord::default()
            })
            .collect();
        self.grid.merge(&GridRecord {
            compute_seconds: models.iter().map(|m| m.report().wasted_seconds).sum(),
            per_device,
            ..GridRecord::default()
        });
        self.route = Route::Grid(models);
        self
    }

    /// The last plain replay of each mode, kept only while the context
    /// profiles, so profile artifacts can show one launch per mode.
    pub fn last_runs(&self) -> &[Option<GpuRun>] {
        &self.last_runs
    }
}

impl MttkrpSource for &mut PlanSource<'_> {
    fn mttkrp(&mut self, factors: &[Matrix], mode: usize) -> Matrix {
        let (t, ctx, plan) = (self.t, self.ctx, self.plans.plan(mode));
        let route = self.route.map_grid(|models| &models[mode]);
        let abft = AbftOptions::default();
        let Ok((exec, grids)) = launch(ctx, plan, factors, Some(t), Some(&abft), route) else {
            return reference::mttkrp(t, factors, mode);
        };
        if ctx.profiling() && matches!(self.route, Route::Replay) {
            self.last_runs[mode] = Some(exec.run.clone());
        }
        for g in &grids {
            let mut launch = g.to_record();
            launch.compute_seconds -= g.wasted_seconds;
            launch.per_device.iter_mut().for_each(|d| d.oom_events = 0);
            self.grid.merge(&launch);
        }
        exec.absorb_into(&mut self.kernel, &mut self.memory, &mut self.grid);
        exec.run.y
    }

    fn needs_resilience(&self) -> bool {
        !matches!(self.route, Route::Replay)
    }

    fn finish(&mut self, out: &mut RunOutput, manifest: Option<&mut RunManifest>) {
        if let Route::OutOfCore(_) = self.route {
            let mem = &self.ctx.memory;
            self.memory.high_water_bytes = self.memory.high_water_bytes.max(mem.high_water());
            if !mem.is_unlimited() {
                self.memory.capacity_bytes = self.memory.capacity_bytes.max(mem.capacity());
            }
        }
        out.memory.merge(&self.memory);
        out.grid.merge(&self.grid);
        if let Some(m) = manifest {
            m.resilience.merge(&self.kernel);
            m.memory.merge(&self.memory);
            m.grid.merge(&self.grid);
        }
    }
}

/// Runs CPD-ALS on `t` as `spec` describes, taking every MTTKRP from
/// `source`.
///
/// Factors are seeded from `t`'s shape and [`CpdOptions::seed`], `‖X‖` is
/// folded from its values, and the run stops after
/// [`CpdOptions::max_iters`] iterations or once the fit moves by less
/// than [`CpdOptions::tol`]. Fails only as [`CpdError`] says.
pub fn run(
    t: &CooTensor,
    mut spec: RunSpec<'_>,
    mut source: impl MttkrpSource,
) -> Result<RunOutput, CpdError> {
    let guarded = spec.resilience.is_some();
    let unsupported = if spec.durable.is_some() && !guarded {
        Some("a durable store writes at the resilience guards' checkpoints; it needs resilience")
    } else if spec.rule == UpdateRule::Nonneg && guarded {
        Some("the resilience guards drive least-squares ALS; a non-negative run is unguarded")
    } else if source.needs_resilience() && !guarded {
        Some("the out-of-core and grid sources run under the resilience guards")
    } else {
        None
    };
    if let Some(why) = unsupported {
        return Err(CpdError::Unsupported(why));
    }
    if spec.rule == UpdateRule::Nonneg {
        if let Some(index) = t.values().iter().position(|&v| v < 0.0 || v.is_nan()) {
            let value = t.values()[index];
            return Err(CpdError::NegativeValue(NegativeValue { index, value }));
        }
    }
    let open = |d| DurableSession::open(d, t, spec.opts.rank, spec.ctx);
    let mut durable = spec
        .durable
        .map(open)
        .transpose()
        .map_err(CpdError::Checkpoint)?;
    let factors = random_factors(t, spec.opts.rank, spec.opts.seed);
    let norm_x = fold_squares(0.0, t.values()).sqrt();
    let mttkrp = |f: &[Matrix], mode: usize| Ok::<_, Infallible>(source.mttkrp(f, mode));
    let Ok((result, stats)) = als(&mut spec, durable.as_mut(), factors, norm_x, mttkrp);
    let mut out = RunOutput {
        result,
        stats,
        checkpointing: CheckpointRecord::default(),
        memory: MemoryRecord::default(),
        grid: GridRecord::default(),
    };
    if let Some(session) = durable {
        if let Some(e) = session.error {
            return Err(CpdError::Checkpoint(e));
        }
        out.checkpointing = session.record;
        if let Some(m) = spec.manifest.as_deref_mut() {
            m.checkpointing.merge(&out.checkpointing);
        }
    }
    source.finish(&mut out, spec.manifest);
    Ok(out)
}

/// Kept for `mttkrp-bench`: [`run`] under [`RunSpec::new`] observed by
/// `ctx`, over [`PlanSource::new`].
pub fn cpd_als_planned(
    t: &CooTensor,
    opts: &CpdOptions,
    ctx: &GpuContext,
    plans: &ModePlans,
) -> CpdResult {
    let spec = RunSpec {
        ctx: Some(ctx),
        ..RunSpec::new(*opts)
    };
    run(t, spec, &mut PlanSource::new(t, ctx, plans))
        .expect(INFALLIBLE)
        .result
}

/// Kept for `mttkrp-bench`: [`run`] under [`RunSpec::new`] with
/// `manifest` and `ctx` set, over [`from_fn`]`(mttkrp)`.
pub fn cpd_als_profiled(
    t: &CooTensor,
    opts: &CpdOptions,
    mttkrp: impl FnMut(&[Matrix], usize) -> Matrix,
    manifest: &mut RunManifest,
    ctx: Option<&GpuContext>,
) -> CpdResult {
    let spec = RunSpec {
        manifest: Some(manifest),
        ctx,
        ..RunSpec::new(*opts)
    };
    run(t, spec, from_fn(mttkrp)).expect(INFALLIBLE).result
}

/// Kept for `mttkrp-bench`: [`run`] with `ropts`, `manifest` and `ctx`
/// set, over [`PlanSource::grid`].
// The signature is the benchmark's; its knobs are already grouped into
// option structs.
#[allow(clippy::too_many_arguments)]
pub fn cpd_als_sharded(
    t: &CooTensor,
    opts: &CpdOptions,
    ropts: &ResilienceOptions,
    ctx: &GpuContext,
    plans: &ModePlans,
    grid: &GridSpec,
    oopts: &OocOptions,
    manifest: Option<&mut RunManifest>,
) -> (CpdResult, ResilienceStats, GridRecord) {
    let spec = RunSpec {
        resilience: Some(ropts),
        manifest,
        ctx: Some(ctx),
        ..RunSpec::new(*opts)
    };
    let source = &mut PlanSource::new(t, ctx, plans).grid(grid, oopts);
    let out = run(t, spec, source).expect(INFALLIBLE);
    (out.result, out.stats, out.grid)
}

/// Why the kept drivers' runs cannot fail.
const INFALLIBLE: &str = "a least-squares run without a store never fails";

/// Durable-checkpoint state threaded through one guarded ALS run.
pub(crate) struct DurableSession {
    store: CheckpointStore,
    record: CheckpointRecord,
    resume: Option<CheckpointState>,
    halt_on_crash: bool,
    error: Option<CheckpointError>,
}

impl DurableSession {
    /// Opens the store under `ctx`'s crash-fault plan and, with
    /// [`DurableOptions::resume`], adopts the newest valid checkpoint
    /// after checking it fits `t` at `rank`.
    fn open(
        dopts: &DurableOptions,
        t: &CooTensor,
        rank: usize,
        ctx: Option<&GpuContext>,
    ) -> Result<DurableSession, CheckpointError> {
        let crash = ctx.and_then(|c| c.crash_fault_plan());
        let mut session = DurableSession {
            store: CheckpointStore::open(&dopts.dir, &dopts.label)?.with_crash_plan(crash),
            record: CheckpointRecord::default(),
            resume: None,
            halt_on_crash: dopts.halt_on_crash,
            error: None,
        };
        if dopts.resume {
            let scan = session.store.latest_valid()?;
            session.record.torn_skipped += scan.skipped;
            if let Some(state) = scan.state {
                state.check_shape(t.dims(), rank)?;
                session.record.resumes += 1;
                session.record.resumed_iteration = state.iteration as u64;
                session.resume = Some(state);
            }
        }
        Ok(session)
    }

    /// Writes one durable checkpoint and records what happened. Returns
    /// `false` when the run must stop here: an injected crash under
    /// `halt_on_crash`, or a genuine I/O error (kept for the caller).
    fn write(
        &mut self,
        iteration: usize,
        factors: &[Matrix],
        lambda: &[f32],
        fits: &[f64],
        ctx: Option<&GpuContext>,
    ) -> bool {
        use crate::checkpoint::WriteOutcome;
        let (kind, seq, size) = match self.store.write(iteration, factors, lambda, fits) {
            Ok(WriteOutcome::Written { seq, bytes }) => {
                self.record.writes += 1;
                self.record.bytes_written += bytes;
                ("checkpoint-write", seq, ("bytes", FieldValue::from(bytes)))
            }
            Ok(WriteOutcome::Crashed { seq, torn_bytes }) => {
                self.record.crashes += 1;
                self.record.halted = self.halt_on_crash;
                let torn = ("torn_bytes", FieldValue::from(torn_bytes));
                ("checkpoint-crash", seq, torn)
            }
            Err(e) => {
                self.error = Some(e);
                return false;
            }
        };
        let fields = [
            ("seq", FieldValue::from(seq)),
            ("iteration", FieldValue::from(iteration)),
            size,
        ];
        emit(ctx, kind, &fields);
        !self.record.halted
    }
}

/// The ALS loop every run goes through, from `factors` on a tensor of
/// norm `norm_x`. Each sweep takes one MTTKRP per mode from `mttkrp`
/// (whose error ends the run), updates that factor under `spec.rule`, and
/// folds the fit from the last mode's output. The run stops after
/// `max_iters` iterations or once the fit moves by less than `tol`.
///
/// With `spec.resilience` the guards of [`RunSpec::resilience`] run; with
/// none, no guard code runs at all. `durable` writes at the guards'
/// checkpoints.
pub(crate) fn als<E>(
    spec: &mut RunSpec<'_>,
    mut durable: Option<&mut DurableSession>,
    mut factors: Vec<Matrix>,
    norm_x: f64,
    mut mttkrp: impl FnMut(&[Matrix], usize) -> Result<Matrix, E>,
) -> Result<(CpdResult, ResilienceStats), E> {
    let RunSpec {
        opts,
        rule,
        resilience: ropts,
        ref mut manifest,
        ctx,
        ..
    } = *spec;
    let run_start = Instant::now();
    if let Some(m) = manifest.as_deref_mut() {
        // The written document always describes the run that produced it.
        (m.rank, m.max_iters, m.tol, m.seed) = (opts.rank, opts.max_iters, opts.tol, opts.seed);
    }
    let order = factors.len();
    let mut lambda = vec![1.0f32; opts.rank];
    let mut grams: Vec<Matrix> = factors.iter().map(Matrix::gram).collect();
    // Reused by every factor update, so no update allocates a
    // factor-sized matrix (the nonneg denominator grows to the largest
    // mode once).
    let mut buffers = UpdateBuffers::new();
    let mut denom = Matrix::zeros(0, 0);

    let mut stats = ResilienceStats::default();
    let mut checkpoint: Option<Checkpoint> = None;
    let mut best_fit = f64::NEG_INFINITY;
    let mut fits = Vec::new();
    let mut prev_fit = 0.0f64;
    let mut iterations = 0;

    // Warm restart: adopt the checkpointed trajectory wholesale. Grams
    // are recomputed from the restored factors (they are pure functions
    // of them), `prev_fit`/`best_fit` are re-derived from the restored
    // fit trajectory, and the restored state doubles as the in-memory
    // rollback target — exactly the state an uninterrupted run had right
    // after taking that checkpoint, so the continuation is bit-identical.
    if let Some(state) = durable.as_deref_mut().and_then(|d| d.resume.take()) {
        factors = state.factors;
        lambda = state.lambda;
        fits = state.fits;
        iterations = state.iteration;
        prev_fit = fits.last().copied().unwrap_or(0.0);
        best_fit = fits
            .iter()
            .copied()
            .filter(|f| f.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        checkpoint = Some(Checkpoint {
            factors: factors.clone(),
            lambda: lambda.clone(),
            fit: prev_fit,
        });
        grams = factors.iter().map(Matrix::gram).collect();
        let fields = [
            ("seq", FieldValue::from(state.seq)),
            ("iteration", FieldValue::from(iterations)),
        ];
        emit(ctx, "checkpoint-resume", &fields);
    }

    while iterations < opts.max_iters {
        let iter_start = Instant::now();
        let iter_sim_start = ctx.map_or(0.0, |c| c.telemetry.now_us());
        let mut mode_timings: Vec<ModeTiming> = Vec::new();
        // V = ∗_{m≠n} AₘᵀAₘ  (Eq. 3's gram-Hadamard), served from cached
        // prefix/suffix partial products across the sweep (Phan et al.
        // 2013) instead of an O(order²) per-iteration refold.
        let mut chain = HadamardChain::new(&grams, opts.rank);
        let mut inner = 0.0f64;
        for mode in 0..order {
            let mttkrp_start = Instant::now();
            let mut y = mttkrp(&factors, mode)?;
            if manifest.is_some() {
                mode_timings.push(ModeTiming {
                    mode,
                    mttkrp_seconds: mttkrp_start.elapsed().as_secs_f64(),
                });
            }
            let mut v = chain.v(mode);
            if let Some(r) = ropts {
                // Scrubbing applies to the joined product only — the
                // chain's cached partials stay as computed.
                stats.nan_resets += scrub_nonfinite(&mut y) + scrub_nonfinite(&mut v);
                if spd_condition(&v) > r.cond_limit {
                    // Relative ridge: λI scaled to the matrix's own magnitude.
                    let trace: f32 = (0..opts.rank).map(|i| v.get(i, i)).sum();
                    let mu = r.ridge * (trace / opts.rank as f32).max(f32::MIN_POSITIVE);
                    for i in 0..opts.rank {
                        v.set(i, i, v.get(i, i) + mu);
                    }
                    stats.tikhonov_fallbacks += 1;
                }
            }
            let a = &mut factors[mode];
            let last = (mode + 1 == order).then_some(&y);
            let cols = match rule {
                // Two row passes: `a ← y·V⁺` (scrubbed under guards) with
                // its column norms, then the scaling with the gram and,
                // on the last mode, the inner sums.
                UpdateRule::LeastSquares => {
                    let vinv = pseudo_inverse(&v);
                    let (norms, scrubbed) = buffers.solve(&y, &vinv, a, ropts.is_some());
                    stats.nan_resets += scrubbed;
                    lambda = norms;
                    let cols = buffers.normalize(a, &lambda, &mut grams[mode], last);
                    guard_lambda(&mut lambda, ropts.is_some());
                    cols
                }
                UpdateRule::Nonneg => {
                    nonneg_update(a, &y, &v, &mut denom, &mut buffers);
                    if ropts.is_some() {
                        stats.nan_resets += scrub_nonfinite(a);
                    }
                    buffers.gram_into(a, &mut grams[mode], last)
                }
            };
            if last.is_some() {
                inner = inner_from_last_mode(cols, &lambda);
            }
            chain.advance(&grams[mode]);
        }
        iterations += 1;

        // Under guards `inner` may come from a corrupt last-mode output. A
        // residual further below zero than the fit tolerance allows is no
        // fit at all: it reads as NaN, so it regresses and is never
        // adopted as the best fit or checkpointed.
        let resid_sq = residual_sq(inner, &lambda, &grams, norm_x);
        let fit = match ropts {
            Some(r) if -resid_sq > (r.fit_drop_tol * norm_x).powi(2) => f64::NAN,
            _ => fit_from_residual(resid_sq, norm_x),
        };
        fits.push(fit);
        if let Some(m) = manifest.as_deref_mut() {
            m.push_iteration(fit, mode_timings, iter_start.elapsed().as_secs_f64());
        }
        if let Some(c) = ctx {
            // The simulated clock moves only when kernels replay through
            // the context, so the delta is the iteration's simulated kernel
            // time: deterministic, unlike the manifest's wall times.
            let sim_us = (c.telemetry.now_us() - iter_sim_start).max(0.0);
            c.registry.observe("cpd.iter_sim_us", sim_us.round() as u64);
            let fields = [
                ("iteration", FieldValue::from(iterations - 1)),
                ("fit", FieldValue::from(fit)),
                ("iter_sim_us", FieldValue::from(sim_us)),
            ];
            emit(ctx, "iteration", &fields);
        }

        if let Some(r) = ropts {
            let regressed = fit.is_nan() || fit < best_fit - r.fit_drop_tol;
            let rollback_target = if regressed && stats.rollbacks < r.max_rollbacks {
                checkpoint.as_ref()
            } else {
                None
            };
            if let Some(cp) = rollback_target {
                // Roll back and re-jitter so the retried trajectory draws
                // different fault sites than the one that regressed.
                factors = cp.factors.clone();
                lambda = cp.lambda.clone();
                prev_fit = cp.fit;
                stats.rollbacks += 1;
                let jitter_seed = opts.seed.wrapping_add(0x5EED).wrapping_add(stats.rollbacks);
                for (m, f) in factors.iter_mut().enumerate() {
                    let noise = Matrix::random(f.rows(), f.cols(), jitter_seed + m as u64);
                    for (v, &nz) in f.data_mut().iter_mut().zip(noise.data()) {
                        *v += 1e-3 * nz;
                    }
                }
                grams = factors.iter().map(Matrix::gram).collect();
                continue;
            }
            if fit.is_finite() && fit > best_fit {
                best_fit = fit;
            }
            if r.checkpoint_every > 0 && iterations % r.checkpoint_every == 0 && fit.is_finite() {
                checkpoint = Some(Checkpoint {
                    factors: factors.clone(),
                    lambda: lambda.clone(),
                    fit,
                });
                stats.checkpoints += 1;
                if let Some(d) = durable.as_deref_mut() {
                    if !d.write(iterations, &factors, &lambda, &fits, ctx) {
                        break;
                    }
                }
            }
        }
        if iterations > 1 && (fit - prev_fit).abs() < opts.tol {
            break;
        }
        prev_fit = fit;
    }
    if let Some(m) = manifest {
        m.total_seconds = run_start.elapsed().as_secs_f64();
        m.resilience.merge(&ResilienceRecord {
            rollbacks: stats.rollbacks,
            nan_resets: stats.nan_resets,
            tikhonov_fallbacks: stats.tikhonov_fallbacks,
            checkpoints: stats.checkpoints,
            ..ResilienceRecord::default()
        });
    }
    if rule == UpdateRule::Nonneg {
        if let Some(last) = factors.last_mut() {
            lambda = last.normalize_columns();
            guard_lambda(&mut lambda, ropts.is_some());
        }
    }

    Ok((
        CpdResult {
            factors,
            lambda,
            fits,
            iterations,
        },
        stats,
    ))
}

/// Keeps zero columns from collapsing the decomposition: a zero weight
/// becomes `1e-30`, and under guards so does a non-finite one.
fn guard_lambda(lambda: &mut [f32], guarded: bool) {
    for l in lambda {
        if *l == 0.0 || (guarded && !l.is_finite()) {
            *l = 1e-30;
        }
    }
}

/// Replaces non-finite entries with zero; returns how many were scrubbed.
fn scrub_nonfinite(m: &mut Matrix) -> u64 {
    let mut n = 0u64;
    for v in m.data_mut() {
        if !v.is_finite() {
            *v = 0.0;
            n += 1;
        }
    }
    n
}

/// A rollback target: everything ALS needs to resume from an iteration
/// (grams are recomputed after the rollback jitter, so not stored).
#[derive(Clone)]
struct Checkpoint {
    factors: Vec<Matrix>,
    lambda: Vec<f32>,
    fit: f64,
}

/// Emits a `kind` event on the context's telemetry stream, if enabled.
fn emit(ctx: Option<&GpuContext>, kind: &str, fields: &[(&str, FieldValue)]) {
    if let Some(tel) = ctx.map(|c| &c.telemetry).filter(|tel| tel.enabled()) {
        tel.emit(kind, None, tel.new_span(), fields);
    }
}

/// Adds `Σ v²` over `vals` to `acc` in `f64`, one entry at a time in
/// order. `fold_squares(0.0, t.values()).sqrt()` is `‖X‖`; the streamed
/// driver carries `acc` across spill chunks, so its `‖X‖` equals the
/// resident one bit for bit on the same entry order.
pub(crate) fn fold_squares(acc: f64, vals: &[f32]) -> f64 {
    vals.iter().fold(acc, |s, &v| s + (v as f64) * (v as f64))
}

/// `⟨X, X̃⟩` from the last mode's MTTKRP, with no pass over the nonzeros.
///
/// With `X̃ = Σ_r λ_r a₁ᵣ ∘ … ∘ a_Nᵣ`,
/// `⟨X, X̃⟩ = Σ_z val_z Σ_r λ_r Π_m Aₘ(i_m, r) = Σ_r λ_r Σ_i Y(i, r)·A_N(i, r)`,
/// where `Y = X₍N₎ ⨀ₘ≠N Aₘ` is the last mode's MTTKRP and `A_N` its
/// updated factor. The identity is exact when `Y` was computed from the
/// factors the model ends the iteration with — true at the last mode of
/// every ALS sweep. `cols` holds `Σ_i Y(i, r)·A_N(i, r)` per column, each
/// accumulated in `f64` in row order by the update's second pass
/// ([`UpdateBuffers::normalize`] or [`UpdateBuffers::gram_into`]); here
/// they are weighted by λ.
fn inner_from_last_mode(cols: &[f64], lambda: &[f32]) -> f64 {
    cols.iter().zip(lambda).map(|(&c, &l)| l as f64 * c).sum()
}

/// `‖X − X̃‖² = ‖X‖² − 2⟨X, X̃⟩ + ‖X̃‖²`, with
/// `‖X̃‖² = Σ_{r,s} λ_r λ_s Π_m (AₘᵀAₘ)_{r,s}` folded from the grams.
/// Paired with [`inner_from_last_mode`], a fit costs `O(I_N·R + N·R²)`
/// per iteration and no pass over the nonzeros. Unclamped: rounding can
/// leave it slightly below zero, and a corrupt `inner` can leave it far
/// below.
fn residual_sq(inner: f64, lambda: &[f32], grams: &[Matrix], norm_x: f64) -> f64 {
    let r = lambda.len();
    // ‖X̃‖²
    let mut model_sq = 0.0f64;
    for a in 0..r {
        for b in 0..r {
            let mut g = lambda[a] as f64 * lambda[b] as f64;
            for gram in grams {
                g *= gram.get(a, b) as f64;
            }
            model_sq += g;
        }
    }
    norm_x * norm_x - 2.0 * inner + model_sq
}

/// Fit = `1 − ‖X − X̃‖ / ‖X‖` from [`residual_sq`], clamped at zero.
fn fit_from_residual(resid_sq: f64, norm_x: f64) -> f64 {
    if norm_x == 0.0 {
        return 1.0;
    }
    1.0 - resid_sq.max(0.0).sqrt() / norm_x
}

/// Factor match score between two decompositions: greedy one-to-one
/// matching of components by the product of per-mode column cosines
/// (1.0 = identical up to column permutation and scaling). The standard
/// metric for "did CPD recover the planted factors".
pub fn factor_match_score(a: &[Matrix], b: &[Matrix]) -> f64 {
    assert_eq!(a.len(), b.len(), "factor sets must have the same order");
    let r = a[0].cols();
    assert!(
        b.iter().all(|m| m.cols() == r) && a.iter().all(|m| m.cols() == r),
        "factor sets must share the rank"
    );
    let cosine = |m1: &Matrix, m2: &Matrix, c1: usize, c2: usize| -> f64 {
        let (mut dot, mut n1, mut n2) = (0.0f64, 0.0f64, 0.0f64);
        for i in 0..m1.rows() {
            let (x, y) = (m1.get(i, c1) as f64, m2.get(i, c2) as f64);
            dot += x * y;
            n1 += x * x;
            n2 += y * y;
        }
        if n1 == 0.0 || n2 == 0.0 {
            0.0
        } else {
            (dot / (n1.sqrt() * n2.sqrt())).abs()
        }
    };
    // Pairwise component scores = product of per-mode cosines.
    let mut score = vec![vec![0.0f64; r]; r];
    for (ca, row) in score.iter_mut().enumerate() {
        for (cb, s) in row.iter_mut().enumerate() {
            *s = a
                .iter()
                .zip(b)
                .map(|(ma, mb)| cosine(ma, mb, ca, cb))
                .product();
        }
    }
    // Greedy assignment (r is small; Hungarian is overkill here).
    let mut used = vec![false; r];
    let mut total = 0.0;
    for row in score.iter() {
        let best = (0..r)
            .filter(|&cb| !used[cb])
            .max_by(|&x, &y| row[x].partial_cmp(&row[y]).unwrap());
        if let Some(cb) = best {
            used[cb] = true;
            total += row[cb];
        }
    }
    total / r as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::CooTensor;

    /// [`run`] over the reference kernel.
    fn reference_run(t: &CooTensor, spec: RunSpec<'_>) -> Result<RunOutput, CpdError> {
        run(t, spec, from_fn(|f, m| reference::mttkrp(t, f, m)))
    }

    /// A plain least-squares run over the reference kernel.
    fn plain_run(t: &CooTensor, opts: &CpdOptions) -> CpdResult {
        reference_run(t, RunSpec::new(*opts)).unwrap().result
    }

    /// A non-negative run over the reference kernel.
    fn nonneg_run(t: &CooTensor, opts: &CpdOptions) -> Result<CpdResult, CpdError> {
        let spec = RunSpec {
            rule: UpdateRule::Nonneg,
            ..RunSpec::new(*opts)
        };
        reference_run(t, spec).map(|out| out.result)
    }

    /// A guarded run over `mttkrp`, optionally recorded into `manifest`.
    fn resilient_run(
        t: &CooTensor,
        opts: &CpdOptions,
        ropts: &ResilienceOptions,
        mttkrp: impl FnMut(&[Matrix], usize) -> Matrix,
        manifest: Option<&mut RunManifest>,
    ) -> (CpdResult, ResilienceStats) {
        let spec = RunSpec {
            resilience: Some(ropts),
            manifest,
            ..RunSpec::new(*opts)
        };
        let out = run(t, spec, from_fn(mttkrp)).unwrap();
        (out.result, out.stats)
    }

    /// A tensor that *is* rank-1: CPD must fit it almost exactly.
    fn rank_one_tensor() -> CooTensor {
        let a = [1.0f32, 2.0, 0.5, 1.5];
        let b = [0.5f32, 1.0, 2.0];
        let c = [1.0f32, 3.0];
        let mut t = CooTensor::new(vec![4, 3, 2]);
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                for (k, &ck) in c.iter().enumerate() {
                    t.push(&[i as u32, j as u32, k as u32], ai * bj * ck);
                }
            }
        }
        t
    }

    #[test]
    fn recovers_rank_one_tensor() {
        let t = rank_one_tensor();
        let opts = CpdOptions {
            rank: 2,
            max_iters: 40,
            tol: 1e-9,
            seed: 7,
        };
        let res = plain_run(&t, &opts);
        assert!(
            res.final_fit() > 0.999,
            "fit {} after {} iters",
            res.final_fit(),
            res.iterations
        );
    }

    #[test]
    fn fit_is_monotonically_non_decreasing() {
        let t = sptensor::synth::uniform_random(&[8, 9, 10], 200, 3);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 15,
            tol: 0.0,
            seed: 11,
        };
        let res = plain_run(&t, &opts);
        for w in res.fits.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-4,
                "fit decreased: {} -> {} ({:?})",
                w[0],
                w[1],
                res.fits
            );
        }
    }

    #[test]
    fn converges_and_stops_early() {
        let t = rank_one_tensor();
        let opts = CpdOptions {
            rank: 2,
            max_iters: 100,
            tol: 1e-7,
            seed: 5,
        };
        let res = plain_run(&t, &opts);
        assert!(res.iterations < 100, "should converge before max_iters");
    }

    #[test]
    fn backends_agree() {
        // CPD driven by the SPLATT backend lands at the same fit as the
        // reference backend.
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 10,
            tol: 0.0,
            seed: 21,
        };
        let r_ref = plain_run(&t, &opts);
        let splatt = from_fn(|f, m| {
            crate::cpu::splatt::mttkrp(&t, f, m, crate::cpu::splatt::SplattOptions::nontiled())
        });
        let r_splatt = run(&t, RunSpec::new(opts), splatt).unwrap().result;
        assert!(
            (r_ref.final_fit() - r_splatt.final_fit()).abs() < 1e-3,
            "ref {} vs splatt {}",
            r_ref.final_fit(),
            r_splatt.final_fit()
        );
    }

    #[test]
    fn fms_identical_is_one_and_permutation_invariant() {
        let a = vec![
            Matrix::random(6, 3, 1),
            Matrix::random(7, 3, 2),
            Matrix::random(8, 3, 3),
        ];
        assert!((factor_match_score(&a, &a) - 1.0).abs() < 1e-9);
        // Permute columns consistently: score stays 1.
        let perm = [2usize, 0, 1];
        let b: Vec<Matrix> = a
            .iter()
            .map(|m| {
                let mut out = Matrix::zeros(m.rows(), 3);
                for i in 0..m.rows() {
                    for (c_new, &c_old) in perm.iter().enumerate() {
                        out.set(i, c_new, m.get(i, c_old));
                    }
                }
                out
            })
            .collect();
        assert!((factor_match_score(&a, &b) - 1.0).abs() < 1e-6);
        // Column scaling is also invisible (cosines are scale-free).
        let c: Vec<Matrix> = a
            .iter()
            .map(|m| {
                let mut out = m.clone();
                for i in 0..out.rows() {
                    let v = out.get(i, 0) * 5.0;
                    out.set(i, 0, v);
                }
                out
            })
            .collect();
        assert!((factor_match_score(&a, &c) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fms_unrelated_factors_score_low() {
        let a = vec![Matrix::random(50, 4, 10), Matrix::random(60, 4, 11)];
        let b = vec![Matrix::random(50, 4, 20), Matrix::random(60, 4, 21)];
        let s = factor_match_score(&a, &b);
        // Random positive matrices are not orthogonal, but the per-mode
        // product suppresses the score well below a true match.
        assert!(s < 0.9, "unrelated factors scored {s}");
    }

    #[test]
    fn cpd_recovery_measured_by_fms() {
        // CPD on a rank-1 tensor must recover the planted factors.
        let t = rank_one_tensor();
        let opts = CpdOptions {
            rank: 1,
            max_iters: 40,
            tol: 1e-9,
            seed: 3,
        };
        let res = plain_run(&t, &opts);
        let planted = vec![
            Matrix::from_vec(4, 1, vec![1.0, 2.0, 0.5, 1.5]),
            Matrix::from_vec(3, 1, vec![0.5, 1.0, 2.0]),
            Matrix::from_vec(2, 1, vec![1.0, 3.0]),
        ];
        let s = factor_match_score(&res.factors, &planted);
        assert!(s > 0.999, "recovered factors score {s}");
    }

    #[test]
    fn nonneg_factors_stay_nonnegative_and_fit_improves() {
        let t = sptensor::synth::uniform_random(&[8, 9, 10], 250, 13);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 20,
            tol: 0.0,
            seed: 14,
        };
        let res = nonneg_run(&t, &opts).unwrap();
        for f in &res.factors {
            assert!(f.data().iter().all(|&v| v >= 0.0), "negative factor entry");
        }
        assert!(
            res.fits.last().unwrap() > res.fits.first().unwrap(),
            "fit did not improve: {:?}",
            res.fits
        );
    }

    #[test]
    fn nonneg_recovers_nonneg_rank_one() {
        let t = rank_one_tensor(); // strictly positive by construction
        let opts = CpdOptions {
            rank: 2,
            max_iters: 120,
            tol: 1e-10,
            seed: 15,
        };
        let res = nonneg_run(&t, &opts).unwrap();
        assert!(
            res.final_fit() > 0.99,
            "fit {} after {} iters",
            res.final_fit(),
            res.iterations
        );
    }

    #[test]
    fn nonneg_rejects_negative_tensor() {
        let mut t = rank_one_tensor();
        t.values_mut()[3] = -1.0;
        let opts = CpdOptions::default();
        let err = nonneg_run(&t, &opts).unwrap_err();
        assert_eq!(
            err,
            CpdError::NegativeValue(NegativeValue {
                index: 3,
                value: -1.0
            })
        );
        assert!(err.to_string().contains("non-negative"), "{err}");
    }

    #[test]
    fn unsupported_combinations_are_typed_errors() {
        use crate::gpu::{GpuContext, ModePlans, OocOptions};

        let t = rank_one_tensor();
        let opts = CpdOptions::default();
        let ropts = ResilienceOptions::default();
        let dopts = DurableOptions {
            dir: std::env::temp_dir().join("sptk_cpd_unsupported"),
            label: "unsupported".to_string(),
            resume: false,
            halt_on_crash: false,
        };
        let durable_alone = RunSpec {
            durable: Some(&dopts),
            ..RunSpec::new(opts)
        };
        let guarded_nonneg = RunSpec {
            rule: UpdateRule::Nonneg,
            resilience: Some(&ropts),
            ..RunSpec::new(opts)
        };
        for spec in [durable_alone, guarded_nonneg] {
            let err = reference_run(&t, spec).unwrap_err();
            assert!(matches!(err, CpdError::Unsupported(_)), "{err}");
        }
        assert!(!dopts.dir.exists(), "a refused run opened its store");

        let ctx = GpuContext::tiny();
        let plans = ModePlans::build_hbcsf(&ctx, &t, opts.rank, Default::default());
        let oopts = OocOptions::default();
        let source = &mut PlanSource::new(&t, &ctx, &plans).out_of_core(&oopts);
        let err = run(&t, RunSpec::new(opts), source).unwrap_err();
        assert!(matches!(err, CpdError::Unsupported(_)), "{err}");
    }

    #[test]
    fn adaptive_matches_planned_in_core_and_under_pressure() {
        use crate::gpu::{GpuContext, ModePlans, OocOptions};
        use gpu_sim::DeviceMemory;
        use std::sync::Arc;
        use tensor_formats::BcsfOptions;

        let t = sptensor::synth::uniform_random(&[12, 14, 16], 600, 31);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 4,
            tol: 0.0,
            seed: 17,
        };
        let ropts = ResilienceOptions::default();
        let oopts = OocOptions::default();
        let ctx = GpuContext::tiny();
        let plans = ModePlans::build_hbcsf(&ctx, &t, opts.rank, BcsfOptions::default());
        let plain = cpd_als_planned(&t, &opts, &ctx, &plans);
        let adaptive = |ctx: &GpuContext, manifest: Option<&mut RunManifest>| {
            let spec = RunSpec {
                resilience: Some(&ropts),
                manifest,
                ctx: Some(ctx),
                ..RunSpec::new(opts)
            };
            let out = run(
                &t,
                spec,
                &mut PlanSource::new(&t, ctx, &plans).out_of_core(&oopts),
            );
            let out = out.unwrap();
            (out.result, out.stats, out.memory)
        };

        // Unconstrained: every launch takes the full-device rung and the
        // decomposition is bit-identical to the plain planned driver.
        let (res, stats, mem) = adaptive(&ctx, None);
        assert_eq!(res.fits, plain.fits, "in-core adaptive must be bit-exact");
        // Proactive checkpoints still fire on a clean run; every corrective
        // counter must stay at zero.
        assert_eq!(stats.nan_resets, 0);
        assert_eq!(stats.tikhonov_fallbacks, 0);
        assert_eq!(stats.rollbacks, 0);
        assert!(mem.in_core_launches > 0);
        assert_eq!(mem.tiled_launches + mem.cpu_fallbacks + mem.oom_events, 0);

        // Capacity below the worst plan's footprint: the tiled rung must
        // engage, and the clean tiled fold is still bit-exact.
        let worst = (0..t.order())
            .map(|m| *plans.plan(m).footprint())
            .max_by_key(|fp| fp.total_bytes())
            .unwrap();
        let capacity = worst.total_bytes() - worst.format_bytes / 8;
        let small = GpuContext::tiny().with_memory(Arc::new(DeviceMemory::with_capacity(capacity)));
        let (res2, _, mem2) = adaptive(&small, None);
        assert_eq!(res2.fits, plain.fits, "tiled adaptive must be bit-exact");
        assert!(mem2.tiled_launches > 0, "tiling never engaged: {mem2:?}");
        assert_eq!(mem2.cpu_fallbacks, 0);
        assert!(mem2.high_water_bytes <= capacity, "capacity was breached");

        // The manifest absorbs the same memory story.
        let mut manifest = RunManifest::new("hb-csf", "synth", 0, 0, 0.0, 0);
        let (_, _, mem3) = adaptive(&small, Some(&mut manifest));
        assert_eq!(manifest.memory.tiled_launches, mem3.tiled_launches);
        assert!(manifest.memory.any());
    }

    #[test]
    fn sharded_matches_planned_for_any_device_count() {
        use crate::gpu::{GpuContext, GridSpec, ModePlans, OocOptions};
        use gpu_sim::Interconnect;
        use tensor_formats::BcsfOptions;

        let t = sptensor::synth::uniform_random(&[12, 14, 16], 600, 31);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 4,
            tol: 0.0,
            seed: 17,
        };
        let ropts = ResilienceOptions::default();
        let oopts = OocOptions::default();
        let ctx = GpuContext::tiny();
        let plans = ModePlans::build_hbcsf(&ctx, &t, opts.rank, BcsfOptions::default());
        let plain = cpd_als_planned(&t, &opts, &ctx, &plans);

        let mut records = Vec::new();
        for devices in [1usize, 3, 4] {
            let grid = GridSpec::new(devices, Interconnect::nvlink());
            let mut manifest = RunManifest::new("hb-csf", "synth", 0, 0, 0.0, 0);
            let spec = RunSpec {
                resilience: Some(&ropts),
                manifest: Some(&mut manifest),
                ctx: Some(&ctx),
                ..RunSpec::new(opts)
            };
            let source = &mut PlanSource::new(&t, &ctx, &plans).grid(&grid, &oopts);
            let out = run(&t, spec, source).unwrap();
            let (res, stats, rec) = (out.result, out.stats, out.grid);
            assert_eq!(
                res.fits, plain.fits,
                "{devices}-device sharded CPD must be bit-exact"
            );
            assert_eq!(stats.nan_resets + stats.rollbacks, 0);
            assert_eq!(rec.devices, devices);
            // 4 iterations × 3 modes = 12 sharded launches recorded.
            assert_eq!(rec.launches, 12);
            assert_eq!(rec.per_device.len(), devices);
            assert!(manifest.grid.any());
            assert_eq!(manifest.grid.devices, devices);
            records.push(rec);
        }
        // Interconnect cost is zero alone and strictly increases with
        // device count for a fixed tensor.
        assert_eq!(records[0].allreduce_seconds, 0.0);
        assert!(records[1].allreduce_seconds > 0.0);
        assert!(records[2].allreduce_seconds > records[1].allreduce_seconds);
    }

    #[test]
    fn profiled_run_fills_manifest_and_matches_unprofiled() {
        let t = sptensor::synth::uniform_random(&[8, 9, 10], 200, 3);
        let opts = CpdOptions {
            rank: 4,
            max_iters: 6,
            tol: 0.0,
            seed: 11,
        };
        let plain = plain_run(&t, &opts);
        let mut manifest = RunManifest::new("reference", "uniform-200", 0, 0, 0.0, 0);
        let spec = RunSpec {
            manifest: Some(&mut manifest),
            ..RunSpec::new(opts)
        };
        let prof = reference_run(&t, spec).unwrap().result;
        // Telemetry is observational: the math is unchanged.
        assert_eq!(plain.fits, prof.fits);
        assert_eq!(plain.factors, prof.factors);
        assert_eq!(plain.lambda, prof.lambda);
        assert_eq!(plain.iterations, prof.iterations);
        // Options were stamped into the manifest.
        assert_eq!(manifest.rank, 4);
        assert_eq!(manifest.max_iters, 6);
        assert_eq!(manifest.seed, 11);
        // One record per iteration, one timing per mode, fits verbatim.
        assert_eq!(manifest.iterations_run, prof.iterations);
        assert_eq!(manifest.iterations.len(), prof.iterations);
        for (rec, &fit) in manifest.iterations.iter().zip(&prof.fits) {
            assert_eq!(rec.fit, fit);
            assert_eq!(rec.modes.len(), 3);
            for (mi, mt) in rec.modes.iter().enumerate() {
                assert_eq!(mt.mode, mi);
                assert!(mt.mttkrp_seconds >= 0.0);
            }
            assert!(rec.seconds >= 0.0);
        }
        assert_eq!(manifest.final_fit, prof.final_fit());
        assert!(manifest.total_seconds > 0.0);
    }

    #[test]
    fn nonneg_profiled_fills_manifest() {
        let t = sptensor::synth::uniform_random(&[6, 7, 8], 150, 5);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 4,
            tol: 0.0,
            seed: 9,
        };
        let plain = nonneg_run(&t, &opts).unwrap();
        let mut manifest = RunManifest::new("reference-nonneg", "uniform-150", 0, 0, 0.0, 0);
        let spec = RunSpec {
            rule: UpdateRule::Nonneg,
            manifest: Some(&mut manifest),
            ..RunSpec::new(opts)
        };
        let prof = reference_run(&t, spec).unwrap().result;
        // Telemetry is observational: the math is unchanged.
        assert_eq!(plain.fits, prof.fits);
        assert_eq!(plain.factors, prof.factors);
        assert_eq!(plain.lambda, prof.lambda);
        assert_eq!(manifest.iterations_run, prof.iterations);
        assert_eq!(manifest.final_fit, prof.final_fit());
        assert!(manifest.iterations.iter().all(|rec| rec.modes.len() == 3));
    }

    #[test]
    fn resilient_matches_plain_on_clean_backend() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 8,
            tol: 0.0,
            seed: 21,
        };
        let plain = plain_run(&t, &opts);
        let (res, stats) = resilient_run(
            &t,
            &opts,
            &ResilienceOptions::default(),
            |f, m| reference::mttkrp(&t, f, m),
            None,
        );
        assert_eq!(plain.fits, res.fits, "clean backend: guards must be inert");
        assert_eq!(plain.factors, res.factors);
        assert_eq!(plain.lambda, res.lambda);
        assert_eq!(stats.nan_resets, 0);
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.tikhonov_fallbacks, 0);
        assert!(stats.checkpoints > 0);
    }

    #[test]
    fn checkpoint_every_zero_disables_checkpointing() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 8,
            tol: 0.0,
            seed: 21,
        };
        let ropts = ResilienceOptions {
            checkpoint_every: 0,
            ..ResilienceOptions::default()
        };
        let plain = plain_run(&t, &opts);
        let (res, stats) =
            resilient_run(&t, &opts, &ropts, |f, m| reference::mttkrp(&t, f, m), None);
        assert_eq!(
            stats.checkpoints, 0,
            "checkpoint_every: 0 must take no checkpoints"
        );
        assert_eq!(
            stats.rollbacks, 0,
            "without checkpoints there is no rollback target"
        );
        assert_eq!(
            plain.fits, res.fits,
            "disabling checkpoints changes nothing"
        );
        assert_eq!(plain.factors, res.factors);
    }

    #[test]
    fn durable_crash_restart_reaches_the_uninterrupted_fit_exactly() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 8,
            tol: 0.0,
            seed: 21,
        };
        let ropts = ResilienceOptions::default();
        let (uninterrupted, _) =
            resilient_run(&t, &opts, &ropts, |f, m| reference::mttkrp(&t, f, m), None);

        let dir = std::env::temp_dir().join("sptk_cpd_durable_restart");
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = crate::gpu::GpuContext::tiny()
            .with_faults(gpu_sim::FaultPlan::parse("crash:0.6", 0xC4A5).unwrap());
        let dopts = DurableOptions {
            dir: dir.clone(),
            label: "restart-test".to_string(),
            resume: true,
            halt_on_crash: true,
        };
        let mut crashes = 0u64;
        let mut torn_skipped = 0u64;
        let mut resumes = 0u64;
        let mut last = None;
        for _restart in 0..32 {
            let spec = RunSpec {
                resilience: Some(&ropts),
                durable: Some(&dopts),
                ctx: Some(&ctx),
                ..RunSpec::new(opts)
            };
            let out = reference_run(&t, spec).expect("no genuine I/O errors in temp dir");
            let (res, record) = (out.result, out.checkpointing);
            crashes += record.crashes;
            torn_skipped += record.torn_skipped;
            resumes += record.resumes;
            if !record.halted {
                last = Some(res);
                break;
            }
        }
        let resumed = last.expect("restart cycle must eventually complete");
        assert!(crashes >= 1, "crash:0.6 must tear at least one write");
        assert!(torn_skipped >= 1, "resume must scan past the torn file(s)");
        assert!(resumes >= 1, "at least one warm restart must happen");
        assert_eq!(
            resumed.final_fit(),
            uninterrupted.final_fit(),
            "warm restart must converge to the uninterrupted fit exactly"
        );
        assert_eq!(resumed.fits, uninterrupted.fits);
        assert_eq!(resumed.factors, uninterrupted.factors);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes rank-3 checkpoints of a 10×12×14 run into a fresh `dir`,
    /// then resumes from them with `t` at `rank`.
    fn resume_foreign_checkpoint(
        dir: &std::path::Path,
        t: &CooTensor,
        rank: usize,
    ) -> Result<CpdResult, CpdError> {
        let _ = std::fs::remove_dir_all(dir);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 4,
            tol: 0.0,
            seed: 21,
        };
        let ropts = ResilienceOptions::default();
        let mut dopts = DurableOptions {
            dir: dir.to_path_buf(),
            label: "foreign".to_string(),
            resume: false,
            halt_on_crash: false,
        };
        let first = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let spec = RunSpec {
            resilience: Some(&ropts),
            durable: Some(&dopts),
            ..RunSpec::new(opts)
        };
        let rec = reference_run(&first, spec).unwrap().checkpointing;
        assert!(rec.writes > 0);
        dopts.resume = true;
        let opts = CpdOptions { rank, ..opts };
        let spec = RunSpec {
            resilience: Some(&ropts),
            durable: Some(&dopts),
            ..RunSpec::new(opts)
        };
        let out = reference_run(t, spec);
        std::fs::remove_dir_all(dir).unwrap();
        out.map(|out| out.result)
    }

    #[test]
    fn resume_rejects_checkpoint_of_another_rank() {
        use crate::checkpoint::CheckpointError;
        let dir = std::env::temp_dir().join("sptk_cpd_resume_rank");
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let err = resume_foreign_checkpoint(&dir, &t, 4).unwrap_err();
        assert!(
            matches!(&err, CpdError::Checkpoint(CheckpointError::ShapeMismatch { detail, .. }) if detail.contains("rank 3")),
            "{err}"
        );
    }

    #[test]
    fn resume_rejects_checkpoint_of_another_shape() {
        use crate::checkpoint::CheckpointError;
        let dir = std::env::temp_dir().join("sptk_cpd_resume_dims");
        let t = sptensor::synth::uniform_random(&[10, 40, 14], 300, 9);
        let err = resume_foreign_checkpoint(&dir, &t, 3).unwrap_err();
        assert!(
            matches!(&err, CpdError::Checkpoint(CheckpointError::ShapeMismatch { detail, .. }) if detail.contains("mode 1")),
            "{err}"
        );
        let t4 = sptensor::synth::uniform_random(&[10, 12, 14, 5], 300, 9);
        let dir4 = std::env::temp_dir().join("sptk_cpd_resume_order");
        let err = resume_foreign_checkpoint(&dir4, &t4, 3).unwrap_err();
        assert!(
            matches!(&err, CpdError::Checkpoint(CheckpointError::ShapeMismatch { detail, .. }) if detail.contains("order 3")),
            "{err}"
        );
    }

    #[test]
    fn resilient_scrubs_nan_poisoned_mttkrp() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 300, 9);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 8,
            tol: 0.0,
            seed: 21,
        };
        // Every 5th MTTKRP output has one entry poisoned with NaN.
        let calls = std::cell::Cell::new(0usize);
        let poisoned = |f: &[Matrix], m: usize| {
            let mut y = reference::mttkrp(&t, f, m);
            let n = calls.get();
            calls.set(n + 1);
            if n % 5 == 4 {
                y.set(0, 0, f32::NAN);
            }
            y
        };
        let (res, stats) = resilient_run(&t, &opts, &ResilienceOptions::default(), poisoned, None);
        assert!(stats.nan_resets > 0, "poisoned entries must be scrubbed");
        assert!(
            res.final_fit().is_finite() && res.final_fit() > 0.0,
            "fit {} must stay finite",
            res.final_fit()
        );
    }

    #[test]
    fn resilient_rolls_back_on_fit_regression() {
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 400, 31);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 10,
            tol: 0.0,
            seed: 33,
        };
        let clean = plain_run(&t, &opts);
        // One catastrophic kernel execution mid-run (iteration 4, mode 0):
        // a third of the output entries sign-flipped and blown up 30× —
        // structural corruption normalization cannot absorb.
        let calls = std::cell::Cell::new(0usize);
        let corrupting = |f: &[Matrix], m: usize| {
            let mut y = reference::mttkrp(&t, f, m);
            let n = calls.get();
            calls.set(n + 1);
            if n == 9 {
                for (idx, v) in y.data_mut().iter_mut().enumerate() {
                    if idx % 3 == 0 {
                        *v *= -30.0;
                    }
                }
            }
            y
        };
        let mut manifest = RunManifest::new("reference", "uniform-400", 0, 0, 0.0, 0);
        let (res, stats) = resilient_run(
            &t,
            &opts,
            &ResilienceOptions::default(),
            corrupting,
            Some(&mut manifest),
        );
        assert!(stats.rollbacks >= 1, "regression must trigger a rollback");
        assert_eq!(manifest.resilience.rollbacks, stats.rollbacks);
        assert_eq!(manifest.resilience.checkpoints, stats.checkpoints);
        assert!(
            (res.final_fit() - clean.final_fit()).abs() < 0.01,
            "healed fit {} vs clean {}",
            res.final_fit(),
            clean.final_fit()
        );
    }

    #[test]
    fn resilient_rolls_back_on_last_mode_corruption() {
        // Same blow-up as above, but in the last mode (iteration 4,
        // mode 2): the fit is taken from this very MTTKRP output, so the
        // corruption inflates the reported fit instead of dropping it.
        let t = sptensor::synth::uniform_random(&[10, 12, 14], 400, 31);
        let opts = CpdOptions {
            rank: 3,
            max_iters: 10,
            tol: 0.0,
            seed: 33,
        };
        let clean = plain_run(&t, &opts);
        let calls = std::cell::Cell::new(0usize);
        let corrupting = |f: &[Matrix], m: usize| {
            let mut y = reference::mttkrp(&t, f, m);
            let n = calls.get();
            calls.set(n + 1);
            if n == 11 {
                for (idx, v) in y.data_mut().iter_mut().enumerate() {
                    if idx % 3 == 0 {
                        *v *= -30.0;
                    }
                }
            }
            y
        };
        let (res, stats) =
            resilient_run(&t, &opts, &ResilienceOptions::default(), corrupting, None);
        assert!(
            res.fits[3].is_nan() && !res.fits.iter().any(|&f| f >= 1.0),
            "an impossible residual must read as NaN, not as a perfect fit: {:?}",
            res.fits
        );
        assert!(stats.rollbacks >= 1, "regression must trigger a rollback");
        assert!(
            (res.final_fit() - clean.final_fit()).abs() < 0.01,
            "healed fit {} vs clean {}",
            res.final_fit(),
            clean.final_fit()
        );
    }

    #[test]
    fn empty_tensor_is_fit_one() {
        let t = CooTensor::new(vec![3, 3, 3]);
        let opts = CpdOptions::default();
        let res = plain_run(&t, &opts);
        assert!(res.final_fit() >= 1.0 - 1e-12);
    }
}
