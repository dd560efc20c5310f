//! The execution facade: one entry point owning the context and the
//! whole degradation ladder — full-device, out-of-core tiled,
//! multi-device sharded, ABFT-verified, CPU fallback — behind validated,
//! typed launches.
//!
//! [`Executor`] is what drivers hold. Configure it once (memory, faults,
//! ABFT, grid, format options), then [`Executor::run`] any
//! [`MttkrpKernel`] or [`Executor::execute`] any captured [`Plan`].
//! Every launch — the executor's and
//! [`PlanSource`](crate::cpd::PlanSource)'s — goes through one private
//! launch path over a route (plain replay, the out-of-core ladder, or a
//! grid's [`ShardModel`]), the one place a launch is ABFT-verified.

use std::sync::Arc;

use dense::Matrix;
use sptensor::CooTensor;

use crate::abft::{self, AbftOptions, KernelReport};

use super::common::{GpuContext, GpuRun};
use super::kernel::{AnyFormat, BuildOptions, KernelKind, MttkrpKernel};
use super::ooc::{self, MemReport, OocOptions};
use super::plan::Plan;
use super::sharded::{GridReport, GridSpec, ShardModel};

/// A launch rejected before touching the simulator — every condition the
/// old free functions turned into an `assert!` deep inside a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// `factors.len()` disagrees with the tensor order.
    FactorCount { expected: usize, got: usize },
    /// A factor's column count disagrees with the (captured) rank.
    RankMismatch { expected: usize, got: usize },
    /// A factor's row count disagrees with the tensor extent of its mode.
    FactorShape {
        mode: usize,
        expected_rows: usize,
        got_rows: usize,
    },
    /// The requested output mode does not exist for this order.
    ModeOutOfRange { mode: usize, order: usize },
    /// The kernel cannot handle tensors of this order (COO/F-COO are
    /// third-order only, per the paper's figures; B-CSF and HB-CSF need
    /// order 3, CSF and CSL order 2).
    OrderUnsupported { kernel: &'static str, order: usize },
    /// The configured ladder can reach the CPU reference rung (limited
    /// memory, memory faults, or a sharded fallback), which needs the
    /// COO tensor — attach it with [`LaunchArgs::with_tensor`].
    TensorRequired,
    /// A kernel name that parses to none of the six kinds.
    UnknownKernel(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::FactorCount { expected, got } => {
                write!(f, "expected {expected} factor matrices, got {got}")
            }
            LaunchError::RankMismatch { expected, got } => {
                write!(f, "factors must all have rank {expected}, got {got}")
            }
            LaunchError::FactorShape {
                mode,
                expected_rows,
                got_rows,
            } => write!(
                f,
                "factor for mode {mode} must have {expected_rows} rows, got {got_rows}"
            ),
            LaunchError::ModeOutOfRange { mode, order } => {
                write!(f, "mode {mode} out of range for an order-{order} tensor")
            }
            LaunchError::OrderUnsupported { kernel, order } => {
                write!(
                    f,
                    "kernel '{kernel}' does not support order-{order} tensors"
                )
            }
            LaunchError::TensorRequired => write!(
                f,
                "this configuration can degrade to the CPU reference and needs \
                 the COO tensor (LaunchArgs::with_tensor)"
            ),
            LaunchError::UnknownKernel(s) => write!(f, "unknown kernel '{s}'"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// The validated inputs of one MTTKRP launch, replacing the positional
/// `(ctx, format, factors, mode, rank)` sprawl of the old free
/// functions. The tensor is optional: it is only needed when the ladder
/// can reach the CPU reference rung.
#[derive(Debug, Clone, Copy)]
pub struct LaunchArgs<'a> {
    factors: &'a [Matrix],
    tensor: Option<&'a CooTensor>,
}

impl<'a> LaunchArgs<'a> {
    /// A launch computing MTTKRP against `factors` (one per mode, rank =
    /// column count of each).
    pub fn new(factors: &'a [Matrix]) -> LaunchArgs<'a> {
        LaunchArgs {
            factors,
            tensor: None,
        }
    }

    /// Attaches the COO tensor, enabling the adaptive (out-of-core /
    /// ABFT-verified / CPU-fallback) rungs of the ladder.
    pub fn with_tensor(mut self, t: &'a CooTensor) -> LaunchArgs<'a> {
        self.tensor = Some(t);
        self
    }

    pub fn factors(&self) -> &'a [Matrix] {
        self.factors
    }

    pub fn tensor(&self) -> Option<&'a CooTensor> {
        self.tensor
    }

    /// Checks the factors against a kernel's shape before capture and
    /// returns the launch rank.
    fn validate_for_kernel(&self, kernel: &dyn MttkrpKernel) -> Result<usize, LaunchError> {
        let dims = kernel.dims();
        let order = dims.len();
        if self.factors.len() != order {
            return Err(LaunchError::FactorCount {
                expected: order,
                got: self.factors.len(),
            });
        }
        let mode = kernel.output_mode();
        if mode >= order {
            return Err(LaunchError::ModeOutOfRange { mode, order });
        }
        let rank = self.factors[0].cols();
        for (m, f) in self.factors.iter().enumerate() {
            if f.cols() != rank {
                return Err(LaunchError::RankMismatch {
                    expected: rank,
                    got: f.cols(),
                });
            }
            if f.rows() != dims[m] as usize {
                return Err(LaunchError::FactorShape {
                    mode: m,
                    expected_rows: dims[m] as usize,
                    got_rows: f.rows(),
                });
            }
        }
        Ok(rank)
    }

    /// Checks the factors against an already-captured plan (rank and
    /// output shape are frozen at capture).
    fn validate_for_plan(&self, plan: &Plan) -> Result<(), LaunchError> {
        let mode = plan.mode();
        if mode >= self.factors.len() {
            return Err(LaunchError::ModeOutOfRange {
                mode,
                order: self.factors.len(),
            });
        }
        for f in self.factors {
            if f.cols() != plan.rank() {
                return Err(LaunchError::RankMismatch {
                    expected: plan.rank(),
                    got: f.cols(),
                });
            }
        }
        if self.factors[mode].rows() != plan.out_rows() {
            return Err(LaunchError::FactorShape {
                mode,
                expected_rows: plan.out_rows(),
                got_rows: self.factors[mode].rows(),
            });
        }
        Ok(())
    }
}

/// Everything one launch produced: the run itself plus whichever ladder
/// reports the configuration activated.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Output, node-level simulation, optional profile, optional ABFT
    /// checksums.
    pub run: GpuRun,
    /// Memory ladder stories (one per attempt; ABFT retries append).
    pub mem: Vec<MemReport>,
    /// ABFT verification report, when verification ran.
    pub abft: Option<KernelReport>,
    /// Multi-device report, when a grid was configured.
    pub grid: Option<GridReport>,
}

impl Execution {
    /// The MTTKRP output.
    pub fn y(&self) -> &Matrix {
        &self.run.y
    }

    /// Folds every report this execution produced into a run's records:
    /// memory ladder stories into `memory`, the grid report into `grid`,
    /// and ABFT verification counts into `kernel` — the records
    /// [`RunManifest`](simprof::RunManifest) keeps as `memory`, `grid` and
    /// `resilience`. Call once per launch — records are additive.
    pub fn absorb_into(
        &self,
        kernel: &mut simprof::ResilienceRecord,
        memory: &mut simprof::MemoryRecord,
        grid: &mut simprof::GridRecord,
    ) {
        for mem in &self.mem {
            mem.absorb_into(memory);
        }
        if let Some(g) = &self.grid {
            grid.merge(&g.to_record());
        }
        if let Some(r) = &self.abft {
            kernel.merge(&r.to_record());
        }
    }
}

/// The route one launch takes: plain replay, the out-of-core ladder, or a
/// grid's [`ShardModel`], held as `G`.
pub(crate) enum Route<G> {
    Replay,
    OutOfCore(OocOptions),
    Grid(G),
}

impl<G> Route<G> {
    /// The same route with its grid mapped through `f`.
    pub(crate) fn map_grid<'r, H>(&'r self, f: impl FnOnce(&'r G) -> H) -> Route<H> {
        match self {
            Route::Replay => Route::Replay,
            Route::OutOfCore(opts) => Route::OutOfCore(*opts),
            Route::Grid(g) => Route::Grid(f(g)),
        }
    }
}

/// One launch of `plan` down `route`: the one place a launch is
/// ABFT-verified. With `abft`, an attached tensor and an active
/// execution-fault plan, every attempt runs inside
/// [`abft::run_verified`], which re-runs the route on retry contexts;
/// attempts that end on the CPU rung carry no checksums, which
/// verification reads as "nothing to verify", so the memory ladder and
/// the checksum ladder compose without special cases. Returns the
/// execution, with every attempt's memory report and without a grid
/// report, plus the grid report of every attempt.
///
/// Refuses factors that disagree with the captured plan, and a route
/// that needs the CPU rung without the tensor to run it on.
pub(crate) fn launch(
    ctx: &GpuContext,
    plan: &Plan,
    factors: &[Matrix],
    t: Option<&CooTensor>,
    abft: Option<&AbftOptions>,
    route: Route<&ShardModel>,
) -> Result<(Execution, Vec<GridReport>), LaunchError> {
    plan.validate_factors(factors)?;
    let mut mem = Vec::new();
    let mut grids = Vec::new();
    let mut attempt = |c: &GpuContext| -> Result<GpuRun, LaunchError> {
        Ok(match &route {
            Route::Replay => plan.execute_validated(c, factors),
            Route::OutOfCore(opts) => {
                let t = t.ok_or(LaunchError::TensorRequired)?;
                let (run, report) = ooc::execute_adaptive(c, plan, factors, t, opts);
                mem.push(report);
                run
            }
            Route::Grid(model) => {
                let (run, report) = model.execute(c, plan, factors, t)?;
                grids.push(report);
                run
            }
        })
    };
    let (run, abft) = match (t, abft) {
        (Some(t), Some(opts)) if ctx.fault_plan().is_some() => {
            let (run, report) = abft::run_verified(ctx, t, factors, plan.mode(), opts, |c| {
                attempt(c).expect("no attempt is refused with the tensor attached")
            });
            (run, Some(report))
        }
        _ => (attempt(ctx)?, None),
    };
    let exec = Execution {
        run,
        mem,
        abft,
        grid: None,
    };
    Ok((exec, grids))
}

/// The unified executor: owns a [`GpuContext`] plus the launch policy
/// (ABFT verification, a multi-device grid, format build options) and
/// dispatches every launch down the right ladder, whose out-of-core
/// rungs run with [`OocOptions::default`].
#[derive(Debug, Clone)]
pub struct Executor {
    ctx: GpuContext,
    abft: Option<AbftOptions>,
    grid: Option<GridSpec>,
    build: BuildOptions,
}

impl Executor {
    /// An executor over `ctx` with default policy: adaptive out-of-core
    /// when a tensor is attached, no ABFT verification, single device.
    pub fn new(ctx: GpuContext) -> Executor {
        Executor {
            ctx,
            abft: None,
            grid: None,
            build: BuildOptions::default(),
        }
    }

    /// Enables ABFT verification (checksum + recompute-retry) for
    /// launches under an active execution-fault plan. Without this,
    /// faulted launches return their raw (possibly corrupted) output —
    /// the historical `run()` semantics.
    pub fn with_abft(mut self, opts: AbftOptions) -> Executor {
        self.abft = Some(opts);
        self
    }

    /// Routes launches through the multi-device sharded engine.
    pub fn with_grid(mut self, spec: GridSpec) -> Executor {
        self.grid = Some(spec);
        self
    }

    /// Overrides format-construction options for [`Executor::build_run`].
    pub fn with_build(mut self, opts: BuildOptions) -> Executor {
        self.build = opts;
        self
    }

    pub fn ctx(&self) -> &GpuContext {
        &self.ctx
    }

    pub fn grid(&self) -> Option<&GridSpec> {
        self.grid.as_ref()
    }

    /// Validates `args` against `kernel` and captures its [`Plan`].
    pub fn capture(
        &self,
        kernel: &dyn MttkrpKernel,
        args: &LaunchArgs<'_>,
    ) -> Result<Plan, LaunchError> {
        let rank = args.validate_for_kernel(kernel)?;
        Ok(kernel.capture(&self.ctx, rank))
    }

    /// Captures and executes in one call.
    pub fn run(
        &self,
        kernel: &dyn MttkrpKernel,
        args: &LaunchArgs<'_>,
    ) -> Result<Execution, LaunchError> {
        let plan = self.capture(kernel, args)?;
        self.execute(&plan, args)
    }

    /// Builds the `kind` layout of `t` for `mode` (using the executor's
    /// [`BuildOptions`]) and runs it — the one-stop replacement for the
    /// per-module `build_and_run` functions. The tensor is attached
    /// automatically, so the full ladder is available.
    pub fn build_run(
        &self,
        kind: KernelKind,
        t: &CooTensor,
        factors: &[Matrix],
        mode: usize,
    ) -> Result<Execution, LaunchError> {
        let format = Arc::new(AnyFormat::build(kind, t, mode, &self.build)?);
        let args = LaunchArgs::new(factors).with_tensor(t);
        let rank = args.validate_for_kernel(&*format)?;
        self.execute(&format.capture_shared(&self.ctx, rank), &args)
    }

    /// Executes a captured plan down the configured route:
    ///
    /// 1. **Sharded** when a grid is set (a one-device grid still routes
    ///    here so device-count sweeps compare like with like). One
    ///    [`ShardModel`] is built per launch and reused by every ABFT
    ///    retry.
    /// 2. **Out-of-core** (full-device / tiled / CPU) when the tensor is
    ///    attached.
    /// 3. **Plain in-core replay** otherwise — requires unlimited,
    ///    fault-free memory, else [`LaunchError::TensorRequired`].
    ///
    /// With ABFT enabled, an active execution-fault plan and the tensor
    /// attached, the route runs verified.
    pub fn execute(&self, plan: &Plan, args: &LaunchArgs<'_>) -> Result<Execution, LaunchError> {
        args.validate_for_plan(plan)?;
        let ctx = &self.ctx;
        let route = match (&self.grid, args.tensor) {
            (Some(spec), _) => Route::Grid(spec),
            (None, Some(_)) => Route::OutOfCore(OocOptions::default()),
            (None, None) => Route::Replay,
        };
        self.note_dispatch(plan, &route);
        // No tensor: no CPU rung exists, so refuse configurations that
        // could need one instead of failing mid-ladder.
        if matches!(route, Route::Replay)
            && (!ctx.memory.is_unlimited() || ctx.mem_fault_plan().is_some())
        {
            return Err(LaunchError::TensorRequired);
        }
        let route =
            route.map_grid(|spec| ShardModel::build(ctx, plan, spec, &OocOptions::default()));
        let abft = self.abft.as_ref();
        let (mut exec, grids) = launch(
            ctx,
            plan,
            args.factors,
            args.tensor,
            abft,
            route.map_grid(|m| m),
        )?;
        exec.grid = merge_grid_reports(grids);
        Ok(exec)
    }

    /// Emits a `dispatch` event naming the rung of `route`, before the
    /// launch runs.
    fn note_dispatch<G>(&self, plan: &Plan, route: &Route<G>) {
        let tel = &self.ctx.telemetry;
        if !tel.enabled() {
            return;
        }
        let rung = match route {
            Route::Grid(_) => "gridded",
            Route::OutOfCore(_) if self.ctx.fault_plan().is_some() && self.abft.is_some() => {
                "verified-adaptive"
            }
            Route::OutOfCore(_) => "adaptive",
            Route::Replay => "plain",
        };
        let mut fields = vec![
            ("kernel", simprof::FieldValue::from(plan.name())),
            ("mode", simprof::FieldValue::from(plan.mode())),
            ("rung", simprof::FieldValue::from(rung)),
        ];
        if let Some(spec) = &self.grid {
            fields.push(("devices", simprof::FieldValue::from(spec.devices)));
        }
        tel.emit("dispatch", None, tel.new_span(), &fields);
    }
}

/// Folds the grid reports of ABFT retries into one: times, wire volume,
/// and per-device run counters accumulate across attempts (the attempts
/// really ran back to back), high-water marks take the max, and a CPU
/// fallback on any attempt marks the merged report. The attempts replay
/// one model, whose OOM refusals and lost devices happened once, at its
/// build, so they count once: the compute a lost device wasted before
/// dying is in the first attempt's times only. Attempt reports share the
/// grid spec, so shards line up by position (= device ordinal).
fn merge_grid_reports(reports: Vec<GridReport>) -> Option<GridReport> {
    let mut it = reports.into_iter();
    let mut acc = it.next()?;
    for r in it {
        acc.compute_seconds += r.compute_seconds - r.wasted_seconds;
        acc.allreduce_seconds += r.allreduce_seconds;
        acc.allreduce_bytes += r.allreduce_bytes;
        acc.total_seconds += r.total_seconds - r.wasted_seconds;
        acc.cpu_fallback |= r.cpu_fallback;
        for d in r.lost_devices {
            if !acc.lost_devices.contains(&d) {
                acc.lost_devices.push(d);
            }
        }
        acc.lost_devices.sort_unstable();
        for (a, b) in acc.shards.iter_mut().zip(&r.shards) {
            a.tiles_run += b.tiles_run;
            a.high_water_bytes = a.high_water_bytes.max(b.high_water_bytes);
            a.sim_time_s += b.sim_time_s;
            a.makespan_cycles += b.makespan_cycles;
            a.total_flops += b.total_flops;
            a.in_core &= b.in_core;
        }
    }
    Some(acc)
}
