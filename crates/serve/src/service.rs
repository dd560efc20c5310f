//! The service core: admission control, the bounded queue, dispatch, the
//! retry ladder, and per-tenant accounting — all in deterministic
//! virtual time.
//!
//! # Admission (in check order)
//!
//! 1. **Catalog** — the dataset must be registered, else
//!    [`RejectReason::UnknownDataset`].
//! 2. **Validation** — plan capture through the shared [`PlanCache`]
//!    must succeed, else [`RejectReason::InvalidLaunch`] (e.g. a
//!    third-order-only kernel against an order-4 tensor).
//! 3. **Memory** — the plan's resident set (factors + output, the part
//!    no tiling can evict) must fit one device, else
//!    [`RejectReason::InsufficientMemory`].
//! 4. **Backpressure** — the bounded queue must have room, else
//!    [`ShedReason::QueueFull`].
//!
//! Admitted jobs wait FIFO; a job whose deadline passes while queued is
//! shed with [`ShedReason::DeadlineExpired`] instead of being launched
//! into guaranteed-late work.
//!
//! # The retry ladder
//!
//! Each dispatched job walks down until a rung finishes inside its
//! timeout: **sharded** (requested devices; device losses are re-sharded
//! around) → **single-device** (skipped unless the footprint fits one
//! device) → **ooc-tiled** (capacity-capped memory, tiling ladder) →
//! **cpu-reference** (always accepted — the terminal rung cannot time
//! out, so every dispatched job completes). A timed-out attempt charges
//! its full timeout plus exponential backoff and emits a `job-retry`
//! event; each attempt re-rolls fault draws via
//! [`FaultPlan::with_attempt`](gpu_sim::FaultPlan::with_attempt).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dense::Matrix;
use gpu_sim::DeviceMemory;
use gpu_sim::Interconnect;
use mttkrp::cpd::{self, from_fn, CpdOptions, DurableOptions, ResilienceOptions, RunSpec};
use mttkrp::gpu::{
    Executor, GpuContext, GridSpec, KernelKind, LaunchArgs, OocOptions, Plan, ShardModel,
};
use simprof::{CheckpointRecord, FieldValue, Histogram, ServiceRecord, TenantRecord};
use sptensor::CooTensor;

use crate::cache::{structure_hash, PlanCache, PlanKey};
use crate::job::{JobKind, JobOutcome, JobRecord, JobSpec, RejectReason, ShedReason};
use crate::report::ServiceReport;

/// Service-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Devices in the simulated grid (jobs requesting more are clamped).
    pub devices: usize,
    /// Inter-device link model for sharded jobs.
    pub interconnect: Interconnect,
    /// Per-device memory capacity in bytes (`u64::MAX` = unlimited).
    pub capacity_per_device: u64,
    /// Bounded admission queue depth; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// First retry backoff, µs (doubles per retry).
    pub backoff_base_us: f64,
    /// CPU-reference rung slowdown relative to the modeled GPU time.
    pub cpu_slowdown: f64,
    /// When set, CPD jobs write durable, crash-consistent checkpoints
    /// under this directory (per-job subdirectories) and warm-restart
    /// from the newest valid file on every attempt. Each [`Service::run`]
    /// starts from a clean `run/` namespace so same-seed runs stay
    /// byte-identical; [`Service::standalone_check`] replays against its
    /// own cleaned `check/` namespace so verification holds exactly even
    /// when `crash:RATE` faults tear files mid-write.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            devices: 4,
            interconnect: Interconnect::nvlink(),
            capacity_per_device: u64::MAX,
            queue_depth: 8,
            backoff_base_us: 50.0,
            cpu_slowdown: 25.0,
            checkpoint_dir: None,
        }
    }
}

/// A dispatched job in flight: done at `finish_us` virtual time, holding
/// `devices` of the pool until then.
struct Running {
    finish_us: f64,
    devices: usize,
    spec: JobSpec,
    outcome: JobOutcome,
}

/// What one trip down the retry ladder produced.
struct LadderResult {
    rung: &'static str,
    retries: u32,
    device_losses: u64,
    /// Modeled execution time of the *successful* rung, µs.
    duration_us: f64,
    /// Virtual µs charged to timed-out attempts (timeouts + backoff).
    charged_us: f64,
    check: f64,
}

/// The multi-tenant CPD/MTTKRP service over a simulated device grid.
///
/// Register tensors, then [`Service::run`] a batch of [`JobSpec`]s: the
/// whole run — admission, queueing, the ladder, fault draws, the report —
/// is a deterministic discrete-event simulation in virtual time.
pub struct Service {
    cfg: ServiceConfig,
    ctx: GpuContext,
    cache: PlanCache,
    tensors: BTreeMap<String, Arc<CooTensor>>,
}

impl Service {
    /// A service over `ctx` (faults, telemetry, and registry all flow
    /// from it) with policy `cfg`.
    pub fn new(cfg: ServiceConfig, ctx: GpuContext) -> Service {
        Service {
            cfg,
            ctx,
            cache: PlanCache::new(),
            tensors: BTreeMap::new(),
        }
    }

    /// Registers `tensor` under `name` in the dataset catalog.
    pub fn register(&mut self, name: &str, tensor: CooTensor) {
        self.tensors.insert(name.to_string(), Arc::new(tensor));
    }

    pub fn tensor(&self, name: &str) -> Option<&Arc<CooTensor>> {
        self.tensors.get(name)
    }

    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    pub fn ctx(&self) -> &GpuContext {
        &self.ctx
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Runs `jobs` to completion through the discrete-event loop and
    /// returns the deterministic report. Jobs are processed in
    /// `(arrival_us, id)` order; completions at time `t` free their
    /// devices before arrivals at the same `t` are admitted.
    pub fn run(&self, jobs: &[JobSpec]) -> ServiceReport {
        // Durable checkpoints are scratch state scoped to one run; start
        // from an empty namespace so crash draws (keyed on file sequence
        // numbers) and warm restarts evolve identically on every
        // same-seed run.
        if let Some(root) = &self.cfg.checkpoint_dir {
            let _ = std::fs::remove_dir_all(root.join("run"));
        }
        let mut arrivals: Vec<&JobSpec> = jobs.iter().collect();
        arrivals.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us).then(a.id.cmp(&b.id)));
        let mut next_arrival = 0usize;

        let mut queue: VecDeque<JobSpec> = VecDeque::new();
        let mut running: Vec<Running> = Vec::new();
        let mut free = self.cfg.devices;
        let mut finished: Vec<(JobSpec, JobOutcome)> = Vec::new();

        loop {
            // Earliest completion, ties broken by job id for determinism.
            let next_done = running
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.finish_us
                        .total_cmp(&b.finish_us)
                        .then(a.spec.id.cmp(&b.spec.id))
                })
                .map(|(i, r)| (i, r.finish_us));

            let arrival_due = next_arrival < arrivals.len();
            let (completion_first, now) = match (next_done, arrival_due) {
                (Some((_, t_done)), true) => {
                    let t_arr = arrivals[next_arrival].arrival_us;
                    // Completions win ties: devices free up before the
                    // simultaneous arrival is considered for dispatch.
                    (t_done <= t_arr, t_done.min(t_arr))
                }
                (Some((_, t_done)), false) => (true, t_done),
                (None, true) => (false, arrivals[next_arrival].arrival_us),
                (None, false) => {
                    if queue.is_empty() {
                        break;
                    }
                    // Nothing running, nothing arriving, jobs queued:
                    // only possible transiently; dispatch below drains it.
                    (false, 0.0)
                }
            };

            if completion_first {
                if let Some((idx, _)) = next_done {
                    let done = running.swap_remove(idx);
                    free += done.devices;
                    finished.push((done.spec, done.outcome));
                }
            } else if arrival_due {
                let spec = arrivals[next_arrival].clone();
                next_arrival += 1;
                match self.admit(&spec, queue.len()) {
                    Ok(()) => {
                        self.emit_event(
                            "job-admitted",
                            &spec,
                            &[("queue_depth", FieldValue::from(queue.len()))],
                        );
                        queue.push_back(spec);
                    }
                    Err(outcome) => {
                        if let JobOutcome::Shed(reason) = &outcome {
                            self.emit_event(
                                "job-shed",
                                &spec,
                                &[("reason", FieldValue::from(reason.to_string()))],
                            );
                        }
                        finished.push((spec, outcome));
                    }
                }
            }

            // Dispatch FIFO while the head job's device ask fits the pool.
            while let Some(head) = queue.front() {
                if now >= head.deadline_us {
                    // Guaranteed-late: shed instead of launching.
                    let spec = match queue.pop_front() {
                        Some(s) => s,
                        None => break,
                    };
                    self.emit_event(
                        "job-shed",
                        &spec,
                        &[(
                            "reason",
                            FieldValue::from(ShedReason::DeadlineExpired.to_string()),
                        )],
                    );
                    finished.push((spec, JobOutcome::Shed(ShedReason::DeadlineExpired)));
                    continue;
                }
                let want = head.devices.clamp(1, self.cfg.devices);
                if want > free {
                    break;
                }
                let spec = match queue.pop_front() {
                    Some(s) => s,
                    None => break,
                };
                free -= want;
                let ladder = self.run_ladder(&spec, want, "run");
                let finish_us = now + ladder.charged_us + ladder.duration_us;
                let latency_us = finish_us - spec.arrival_us;
                let outcome = JobOutcome::Completed {
                    rung: ladder.rung,
                    retries: ladder.retries,
                    device_losses: ladder.device_losses,
                    latency_us,
                    deadline_met: finish_us <= spec.deadline_us,
                    check: ladder.check,
                };
                running.push(Running {
                    finish_us,
                    devices: want,
                    spec,
                    outcome,
                });
            }
        }

        self.build_report(jobs.len(), finished)
    }

    /// Runs `spec` alone — no queue, no other tenants — and returns the
    /// check value its ladder produces (`‖Y‖_F` / final fit). Ladder
    /// decisions and fault draws depend only on the spec and the
    /// context, so a job the service completed must reproduce this value
    /// exactly; [`ServiceReport::verify`](crate::ServiceReport::verify)
    /// compares the two within 1e-9 relative.
    pub fn standalone_check(&self, spec: &JobSpec) -> f64 {
        // Replay against a fresh per-job checkpoint namespace: starting
        // from the same empty state the service run started from makes
        // the crash-draw and warm-restart sequence — and therefore the
        // check value — reproduce exactly.
        if let Some(root) = &self.cfg.checkpoint_dir {
            let _ = std::fs::remove_dir_all(root.join("check").join(format!("job{}", spec.id)));
        }
        let want = spec.devices.clamp(1, self.cfg.devices);
        self.run_ladder(spec, want, "check").check
    }

    /// Admission checks, in documented order. `Ok(())` means enqueue.
    fn admit(&self, spec: &JobSpec, queue_len: usize) -> Result<(), JobOutcome> {
        let Some(t) = self.tensors.get(&spec.dataset) else {
            return Err(JobOutcome::Rejected(RejectReason::UnknownDataset(
                spec.dataset.clone(),
            )));
        };
        // Capture (or replay from cache) the plan every rung will share.
        // CPD jobs are admitted on their mode-0 plan; the remaining modes
        // are captured at dispatch through the same cache.
        let mode = match spec.kind {
            JobKind::Mttkrp { mode } => mode,
            JobKind::Cpd { .. } => 0,
        };
        let plan = self
            .plan_for(t, spec.kernel, mode, spec.rank)
            .map_err(|e| JobOutcome::Rejected(RejectReason::InvalidLaunch(e)))?;
        let resident = plan.footprint().resident_bytes();
        if resident > self.cfg.capacity_per_device {
            return Err(JobOutcome::Rejected(RejectReason::InsufficientMemory {
                resident_bytes: resident,
                capacity_bytes: self.cfg.capacity_per_device,
            }));
        }
        if queue_len >= self.cfg.queue_depth {
            return Err(JobOutcome::Shed(ShedReason::QueueFull { depth: queue_len }));
        }
        Ok(())
    }

    fn plan_for(
        &self,
        t: &CooTensor,
        kernel: KernelKind,
        mode: usize,
        rank: usize,
    ) -> Result<Arc<Plan>, mttkrp::gpu::LaunchError> {
        let key = PlanKey {
            structure: structure_hash(t),
            kernel,
            mode,
            rank,
        };
        self.cache.get_or_capture(&self.ctx, t, key)
    }

    /// The context one attempt executes under: fault draws re-rolled per
    /// `(job, retry)` so a straggler that killed attempt 0 doesn't
    /// deterministically kill every retry.
    fn attempt_ctx(&self, spec: &JobSpec, retries: u32) -> GpuContext {
        match &self.ctx.faults {
            Some(fp) => {
                let attempt = (spec.id as u32)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(retries);
                self.ctx.clone().with_faults(fp.with_attempt(attempt))
            }
            None => self.ctx.clone(),
        }
    }

    /// Walks the degradation ladder for one dispatched job. The terminal
    /// CPU rung always completes, so this cannot fail. `scope` names the
    /// checkpoint namespace (`"run"` for service runs, `"check"` for
    /// standalone replays) so the two never share files.
    fn run_ladder(&self, spec: &JobSpec, want: usize, scope: &str) -> LadderResult {
        let mut retries: u32 = 0;
        let mut device_losses: u64 = 0;
        let mut charged_us: f64 = 0.0;

        // Rung order; single-device is skipped when the resident set
        // cannot fit one device in-core.
        let mut rungs: Vec<&'static str> = Vec::new();
        if want > 1 {
            rungs.push("sharded");
        }
        rungs.push("single-device");
        rungs.push("ooc-tiled");
        rungs.push("cpu-reference");

        for (i, rung) in rungs.iter().enumerate() {
            let last = i + 1 == rungs.len();
            let Some((seconds, losses, check)) = self.run_rung(spec, want, rung, retries, scope)
            else {
                continue; // rung not applicable (e.g. footprint too big)
            };
            device_losses += losses;
            let duration_us = seconds * 1e6;
            if duration_us <= spec.timeout_us || last {
                return LadderResult {
                    rung,
                    retries,
                    device_losses,
                    duration_us,
                    charged_us,
                    check,
                };
            }
            // Timed out: charge the budget plus backoff, descend.
            let backoff = self.cfg.backoff_base_us * f64::from(1u32 << retries.min(20));
            charged_us += spec.timeout_us + backoff;
            self.emit_event(
                "job-retry",
                spec,
                &[
                    ("rung", FieldValue::from(*rung)),
                    ("retries", FieldValue::from(u64::from(retries) + 1)),
                    ("backoff_us", FieldValue::from(backoff)),
                ],
            );
            retries += 1;
        }
        // Unreachable: the CPU rung always returns. Keep a typed result
        // anyway so this path cannot panic.
        LadderResult {
            rung: "cpu-reference",
            retries,
            device_losses,
            duration_us: 0.0,
            charged_us,
            check: 0.0,
        }
    }

    /// Executes one rung: returns `(modeled seconds, device losses,
    /// check value)`, or `None` if the rung is not applicable.
    fn run_rung(
        &self,
        spec: &JobSpec,
        want: usize,
        rung: &str,
        retries: u32,
        scope: &str,
    ) -> Option<(f64, u64, f64)> {
        let t = Arc::clone(self.tensors.get(&spec.dataset)?);
        let ctx = self.attempt_ctx(spec, retries);
        match spec.kind {
            JobKind::Mttkrp { mode } => {
                let plan = self.plan_for(&t, spec.kernel, mode, spec.rank).ok()?;
                let factors = mttkrp::reference::random_factors(&t, spec.rank, spec.seed);
                self.run_rung_mttkrp(&ctx, &t, &plan, &factors, want, rung)
                    .map(|(s, l, y)| (s, l, y.fro_norm()))
            }
            JobKind::Cpd { iters } => {
                let opts = CpdOptions {
                    rank: spec.rank,
                    max_iters: iters,
                    tol: 0.0, // fixed-length runs keep durations comparable
                    seed: spec.seed,
                };
                let mut plans: Vec<Arc<Plan>> = Vec::with_capacity(t.order());
                for mode in 0..t.order() {
                    plans.push(self.plan_for(&t, spec.kernel, mode, spec.rank).ok()?);
                }
                let mut seconds = 0.0f64;
                let mut losses = 0u64;
                let mut failed = false;
                let mut mttkrp_fn = |factors: &[Matrix], mode: usize| {
                    if failed {
                        return Matrix::zeros(plans[mode].out_rows(), spec.rank);
                    }
                    match self.run_rung_mttkrp(&ctx, &t, &plans[mode], factors, want, rung) {
                        Some((s, l, y)) => {
                            seconds += s;
                            losses += l;
                            y
                        }
                        None => {
                            failed = true;
                            Matrix::zeros(plans[mode].out_rows(), spec.rank)
                        }
                    }
                };
                // A least-squares run without a store never fails.
                let plain = |mttkrp_fn| cpd::run(&t, RunSpec::new(opts), from_fn(mttkrp_fn));
                let result = match self.durable_opts(spec, scope) {
                    Some((ropts, dopts)) => {
                        let durable = RunSpec {
                            resilience: Some(&ropts),
                            durable: Some(&dopts),
                            ctx: Some(&ctx),
                            ..RunSpec::new(opts)
                        };
                        match cpd::run(&t, durable, from_fn(&mut mttkrp_fn)) {
                            Ok(out) => {
                                self.record_checkpointing(&out.checkpointing);
                                Ok(out)
                            }
                            Err(e) => {
                                // Checkpoint I/O failed outright (not an
                                // injected crash — those are absorbed).
                                // Losing durability must not lose the job.
                                self.emit_event(
                                    "checkpoint-error",
                                    spec,
                                    &[("detail", FieldValue::from(e.to_string()))],
                                );
                                plain(&mut mttkrp_fn)
                            }
                        }
                    }
                    None => plain(&mut mttkrp_fn),
                };
                if failed {
                    return None;
                }
                Some((seconds, losses, result.ok()?.result.final_fit()))
            }
        }
    }

    /// Checkpointing knobs for one CPD attempt, or `None` when the
    /// service runs without a checkpoint directory. The label keys the
    /// crash-fault draws per job; `resume` makes every attempt (retry or
    /// standalone replay) warm-restart from the newest valid file.
    fn durable_opts(
        &self,
        spec: &JobSpec,
        scope: &str,
    ) -> Option<(ResilienceOptions, DurableOptions)> {
        let root = self.cfg.checkpoint_dir.as_ref()?;
        let label = format!("job{}", spec.id);
        let ropts = ResilienceOptions {
            checkpoint_every: 1,
            ..ResilienceOptions::default()
        };
        let dopts = DurableOptions {
            dir: root.join(scope).join(&label),
            label,
            resume: true,
            // A torn write is a lost snapshot, not a dead job: the
            // computation keeps going so every admitted job still
            // reaches a typed terminal state.
            halt_on_crash: false,
        };
        Some((ropts, dopts))
    }

    fn record_checkpointing(&self, rec: &CheckpointRecord) {
        let reg = &self.ctx.registry;
        if !reg.enabled() {
            return;
        }
        reg.add("serve.checkpoint.writes", rec.writes);
        reg.add("serve.checkpoint.crashes", rec.crashes);
        reg.add("serve.checkpoint.resumes", rec.resumes);
        reg.add("serve.checkpoint.torn_skipped", rec.torn_skipped);
    }

    /// One MTTKRP through the named rung. `None` = rung not applicable.
    fn run_rung_mttkrp(
        &self,
        ctx: &GpuContext,
        t: &CooTensor,
        plan: &Plan,
        factors: &[Matrix],
        want: usize,
        rung: &str,
    ) -> Option<(f64, u64, Matrix)> {
        match rung {
            "sharded" => {
                let grid = GridSpec {
                    devices: want,
                    interconnect: self.cfg.interconnect.clone(),
                    capacity_per_device: self.cfg.capacity_per_device,
                };
                let model = ShardModel::build(ctx, plan, &grid, &OocOptions::default());
                let (run, report) = model.execute(ctx, plan, factors, Some(t)).ok()?;
                Some((
                    report.total_seconds.max(run.sim.time_s),
                    report.lost_devices.len() as u64,
                    run.y,
                ))
            }
            "single-device" => {
                if !plan.footprint().fits_within(self.cfg.capacity_per_device) {
                    return None;
                }
                let exec = Executor::new(ctx.clone());
                let done = exec
                    .execute(plan, &LaunchArgs::new(factors).with_tensor(t))
                    .ok()?;
                Some((done.run.sim.time_s, 0, done.run.y))
            }
            "ooc-tiled" => {
                let capped = ctx.clone().with_memory(Arc::new(
                    if self.cfg.capacity_per_device == u64::MAX {
                        DeviceMemory::unlimited()
                    } else {
                        DeviceMemory::with_capacity(self.cfg.capacity_per_device)
                    },
                ));
                let exec = Executor::new(capped);
                let done = exec
                    .execute(plan, &LaunchArgs::new(factors).with_tensor(t))
                    .ok()?;
                Some((done.run.sim.time_s, 0, done.run.y))
            }
            _ => {
                // cpu-reference: exact values, modeled as a fixed
                // slowdown over the clean single-device simulation.
                let y = mttkrp::reference::mttkrp(t, factors, plan.mode());
                let seconds = plan.clean_sim(ctx).time_s * self.cfg.cpu_slowdown;
                Some((seconds, 0, y))
            }
        }
    }

    fn emit_event(&self, kind: &str, spec: &JobSpec, extra: &[(&str, FieldValue)]) {
        let tel = &self.ctx.telemetry;
        if !tel.enabled() {
            return;
        }
        let mut fields: Vec<(&str, FieldValue)> = vec![
            ("job", FieldValue::from(spec.id)),
            ("tenant", FieldValue::from(spec.tenant)),
            ("kind", FieldValue::from(spec.kind.as_str())),
            ("kernel", FieldValue::from(spec.kernel.as_str())),
        ];
        fields.extend(extra.iter().cloned());
        tel.emit(kind, None, tel.new_span(), &fields);
    }

    /// Aggregates finished jobs into the deterministic report, sorted by
    /// job id, with per-tenant latency percentiles.
    fn build_report(
        &self,
        submitted: usize,
        mut finished: Vec<(JobSpec, JobOutcome)>,
    ) -> ServiceReport {
        finished.sort_by_key(|(s, _)| s.id);

        let mut record = ServiceRecord {
            submitted: submitted as u64,
            plan_cache_hits: self.cache.hits(),
            plan_cache_misses: self.cache.misses(),
            ..ServiceRecord::default()
        };
        let mut tenants: BTreeMap<usize, (TenantRecord, Histogram)> = BTreeMap::new();
        let mut jobs = Vec::with_capacity(finished.len());

        for (spec, outcome) in &finished {
            let (tenant, hist) = tenants.entry(spec.tenant).or_insert_with(|| {
                (
                    TenantRecord {
                        tenant: spec.tenant,
                        ..TenantRecord::default()
                    },
                    Histogram::new(),
                )
            });
            tenant.submitted += 1;
            match outcome {
                JobOutcome::Completed {
                    retries,
                    device_losses,
                    latency_us,
                    deadline_met,
                    ..
                } => {
                    record.admitted += 1;
                    record.completed += 1;
                    record.retries += u64::from(*retries);
                    record.device_losses += device_losses;
                    tenant.completed += 1;
                    let us = latency_us.max(0.0).round() as u64;
                    hist.observe(us);
                    if self.ctx.registry.enabled() {
                        self.ctx
                            .registry
                            .observe(&format!("serve.tenant{}.latency_us", spec.tenant), us);
                    }
                    if !deadline_met {
                        record.deadline_misses += 1;
                        tenant.deadline_misses += 1;
                    }
                }
                JobOutcome::Rejected(_) => {
                    record.rejected += 1;
                    tenant.rejected += 1;
                }
                JobOutcome::Shed(_) => {
                    record.shed += 1;
                    tenant.shed += 1;
                }
            }
            jobs.push(JobRecord::new(spec, outcome));
        }

        record.per_tenant = tenants
            .into_values()
            .map(|(mut t, h)| {
                t.latency = h.snapshot();
                t
            })
            .collect();

        ServiceReport {
            devices: self.cfg.devices,
            queue_depth: self.cfg.queue_depth,
            interconnect: self.cfg.interconnect.to_string(),
            record,
            jobs,
        }
    }
}
