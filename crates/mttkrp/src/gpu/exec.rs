//! The execution facade: one entry point owning the context and the
//! whole degradation ladder — full-device, out-of-core tiled,
//! multi-device sharded, ABFT-verified, CPU fallback — behind validated,
//! typed launches.
//!
//! [`Executor`] is what drivers hold. Configure it once (memory, faults,
//! ABFT, grid, format options), then [`Executor::run`] any
//! [`MttkrpKernel`] or [`Executor::execute`] any captured [`Plan`]. This
//! is the only public entry point — the historical per-module
//! `run`/`plan`/`build_and_run` free functions have been removed.

use std::cell::RefCell;

use dense::Matrix;
use sptensor::CooTensor;

use crate::abft::{self, AbftOptions, KernelReport};

use super::common::{GpuContext, GpuRun};
use super::kernel::{AnyFormat, BuildOptions, KernelKind, MttkrpKernel};
use super::ooc::{self, MemReport, OocOptions};
use super::plan::Plan;
use super::sharded::{self, GridReport, GridSpec};

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

/// `kernel` on `ctx` as one [`Execution`]; with `abft`, inside
/// [`abft::run_verified`], which re-runs it on retry contexts.
pub(crate) fn verified(
    ctx: &GpuContext,
    t: &CooTensor,
    factors: &[Matrix],
    mode: usize,
    abft: Option<&AbftOptions>,
    kernel: impl Fn(&GpuContext) -> GpuRun,
) -> Execution {
    let (run, abft) = match abft {
        Some(opts) => {
            let (run, report) = abft::run_verified(ctx, t, factors, mode, opts, kernel);
            (run, Some(report))
        }
        None => (kernel(ctx), None),
    };
    Execution {
        run,
        mem: Vec::new(),
        abft,
        grid: None,
    }
}

/// The single-device ladder with the tensor attached: every attempt runs
/// `plan` through [`ooc::execute_adaptive`], so allocation pressure and
/// injected OOMs degrade gracefully inside each attempt, while with
/// `abft` checksum verification repairs data corruption across attempts.
/// Attempts that end on the CPU rung produce no ABFT data (the reference
/// path is trusted), which verification treats as "nothing to verify" —
/// so the two ladders compose without special cases.
pub(crate) fn execute_ladder(
    ctx: &GpuContext,
    plan: &Plan,
    factors: &[Matrix],
    t: &CooTensor,
    abft: Option<&AbftOptions>,
    oopts: &OocOptions,
) -> Execution {
    let mems = RefCell::new(Vec::new());
    let mut exec = verified(ctx, t, factors, plan.mode(), abft, |c| {
        let (run, mem) = ooc::execute_adaptive(c, plan, factors, t, oopts);
        mems.borrow_mut().push(mem);
        run
    });
    exec.mem = mems.into_inner();
    exec
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
        let format = AnyFormat::build(kind, t, mode, &self.build)?;
        self.run(&format, &LaunchArgs::new(factors).with_tensor(t))
    }

    /// Executes a captured plan down the configured ladder:
    ///
    /// 1. **Sharded** when a grid with more than one device is set (or
    ///    any grid at all — a one-device grid still routes here so
    ///    device-count sweeps compare like with like).
    /// 2. **ABFT-verified adaptive** when verification is enabled, an
    ///    execution-fault plan is active, and the tensor is attached.
    /// 3. **Adaptive** (full-device / tiled / CPU) when the tensor is
    ///    attached.
    /// 4. **Plain in-core replay** otherwise — requires unlimited,
    ///    fault-free memory, else [`LaunchError::TensorRequired`].
    pub fn execute(&self, plan: &Plan, args: &LaunchArgs<'_>) -> Result<Execution, LaunchError> {
        args.validate_for_plan(plan)?;
        let ctx = &self.ctx;
        let ooc_opts = OocOptions::default();
        self.note_dispatch(plan, args);

        if let Some(spec) = &self.grid {
            return self.execute_gridded(plan, args, spec);
        }

        match args.tensor {
            Some(t) => {
                let abft = self.abft.as_ref().filter(|_| ctx.fault_plan().is_some());
                Ok(execute_ladder(ctx, plan, args.factors, t, abft, &ooc_opts))
            }
            None => {
                // No tensor: no CPU rung exists, so refuse configurations
                // that could need one instead of failing mid-ladder.
                if !ctx.memory.is_unlimited() || ctx.mem_fault_plan().is_some() {
                    return Err(LaunchError::TensorRequired);
                }
                let run = plan.execute(ctx, args.factors)?;
                Ok(Execution {
                    run,
                    mem: Vec::new(),
                    abft: None,
                    grid: None,
                })
            }
        }
    }

    /// Emits a `dispatch` event naming the ladder rung the executor chose
    /// for this launch, before the rung runs.
    fn note_dispatch(&self, plan: &Plan, args: &LaunchArgs<'_>) {
        let tel = &self.ctx.telemetry;
        if !tel.enabled() {
            return;
        }
        let rung = if self.grid.is_some() {
            "gridded"
        } else if args.tensor.is_some() && self.ctx.fault_plan().is_some() && self.abft.is_some() {
            "verified-adaptive"
        } else if args.tensor.is_some() {
            "adaptive"
        } else {
            "plain"
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

    fn execute_gridded(
        &self,
        plan: &Plan,
        args: &LaunchArgs<'_>,
        spec: &GridSpec,
    ) -> Result<Execution, LaunchError> {
        let ctx = &self.ctx;
        let ooc_opts = OocOptions::default();
        if let (Some(t), Some(abft_opts), true) =
            (args.tensor, self.abft.as_ref(), ctx.fault_plan().is_some())
        {
            // Verified sharded execution: the sharded engine is the
            // kernel under test; ABFT wraps it with the same
            // checksum/retry loop as the single-device path. Sharding
            // fails only without a tensor, and one is attached here.
            let grids = RefCell::new(Vec::new());
            let mut exec = verified(ctx, t, args.factors, plan.mode(), Some(abft_opts), |c| {
                let (run, grid) =
                    sharded::execute_sharded(c, plan, args.factors, Some(t), spec, &ooc_opts)
                        .expect("the tensor is attached");
                grids.borrow_mut().push(grid);
                run
            });
            exec.grid = merge_grid_reports(grids.into_inner());
            return Ok(exec);
        }
        let (run, grid) =
            sharded::execute_sharded(ctx, plan, args.factors, args.tensor, spec, &ooc_opts)?;
        Ok(Execution {
            run,
            mem: Vec::new(),
            abft: None,
            grid: Some(grid),
        })
    }
}

/// Folds the grid reports of ABFT retries into one: times, wire volume,
/// and per-device counters accumulate across attempts (the attempts
/// really ran back to back), high-water marks take the max, and a CPU
/// fallback on any attempt marks the merged report. Attempt reports
/// share the grid spec, so shards line up by position (= device
/// ordinal).
fn merge_grid_reports(reports: Vec<GridReport>) -> Option<GridReport> {
    let mut it = reports.into_iter();
    let mut acc = it.next()?;
    for r in it {
        acc.compute_seconds += r.compute_seconds;
        acc.allreduce_seconds += r.allreduce_seconds;
        acc.allreduce_bytes += r.allreduce_bytes;
        acc.total_seconds += r.total_seconds;
        acc.cpu_fallback |= r.cpu_fallback;
        acc.wasted_seconds += r.wasted_seconds;
        for d in r.lost_devices {
            if !acc.lost_devices.contains(&d) {
                acc.lost_devices.push(d);
            }
        }
        acc.lost_devices.sort_unstable();
        for (a, b) in acc.shards.iter_mut().zip(&r.shards) {
            a.tiles_run += b.tiles_run;
            a.oom_events += b.oom_events;
            a.high_water_bytes = a.high_water_bytes.max(b.high_water_bytes);
            a.sim_time_s += b.sim_time_s;
            a.makespan_cycles += b.makespan_cycles;
            a.total_flops += b.total_flops;
            a.in_core &= b.in_core;
        }
    }
    Some(acc)
}
