//! The chaos runner: drive the service under composed faults, check
//! the invariants, and exercise the crash-restart cycle.

use std::path::Path;
use std::sync::Arc;

use gpu_sim::{DeviceMemory, FaultPlan, FaultSpecError};
use mttkrp::cpd::{
    self, from_fn, CpdError, CpdOptions, DurableOptions, ResilienceOptions, RunSpec,
};
use mttkrp::gpu::GpuContext;
use serve::{Service, ServiceConfig, Workload, WorkloadConfig};
use simprof::{RingSink, Telemetry, TelemetrySink};
use sptensor::hash::splitmix64;
use sptensor::synth::uniform_random;

use crate::report::{ChaosReport, CrashCycleReport, ScheduleReport};
use crate::schedule::{ChaosConfig, ChaosSchedule};

/// Why the harness itself (not an invariant) failed.
#[derive(Debug)]
pub enum ChaosError {
    /// A fault spec failed to parse.
    Spec(FaultSpecError),
    /// A durable run's checkpoint I/O failed outright (disk full,
    /// permissions — never an injected crash; those are part of the
    /// experiment).
    Checkpoint(CpdError),
    /// Report serialization failed.
    Json(String),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Spec(e) => write!(f, "fault spec: {e}"),
            ChaosError::Checkpoint(e) => write!(f, "checkpoint store: {e}"),
            ChaosError::Json(e) => write!(f, "report serialization: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<FaultSpecError> for ChaosError {
    fn from(e: FaultSpecError) -> Self {
        ChaosError::Spec(e)
    }
}

impl From<CpdError> for ChaosError {
    fn from(e: CpdError) -> Self {
        ChaosError::Checkpoint(e)
    }
}

/// One measured pass of one schedule.
struct Pass {
    json: String,
    events: Vec<String>,
    row: ScheduleReport,
}

/// Runs the whole harness: every schedule twice (for the determinism
/// invariant) plus the crash-restart cycle. `scratch` holds checkpoint
/// files; each pass cleans its own namespace, so a reused directory
/// never perturbs results. Invariant violations land in the report —
/// only harness-level failures (unparseable spec, real I/O errors)
/// return `Err`.
pub fn run_chaos(cfg: &ChaosConfig, scratch: &Path) -> Result<ChaosReport, ChaosError> {
    let schedules = ChaosSchedule::generate(cfg)?;
    let mut rows = Vec::with_capacity(schedules.len());
    let mut violations = Vec::new();

    for sched in &schedules {
        let a = run_pass(cfg, sched, scratch, "a")?;
        let b = run_pass(cfg, sched, scratch, "b")?;
        let mut row = a.row;
        row.deterministic = a.json == b.json && a.events == b.events;
        if !row.deterministic {
            row.violations.push(format!(
                "{}: same-seed passes diverged (report {} vs {} bytes, \
                 events {} vs {} lines)",
                sched.name,
                a.json.len(),
                b.json.len(),
                a.events.len(),
                b.events.len()
            ));
        }
        violations.extend(row.violations.iter().cloned());
        rows.push(row);
    }

    let cycle = crash_restart_cycle(&scratch.join("crash-cycle"), cfg.seed)?;
    if !cycle.within_tol {
        violations.push(format!(
            "crash cycle: restarted fit {:.17} diverged from uninterrupted {:.17} \
             (delta {:.3e})",
            cycle.fit_restarted, cycle.fit_uninterrupted, cycle.fit_delta
        ));
    }

    let mut coverage_gaps = Vec::new();
    if rows
        .iter()
        .map(|r| r.link_degrades + r.link_losses)
        .sum::<u64>()
        == 0
    {
        coverage_gaps.push("no interconnect fault ever fired".to_string());
    }
    if rows.iter().map(|r| r.checkpoint_crashes).sum::<u64>() + cycle.crashes == 0 {
        coverage_gaps.push("no mid-write crash ever fired".to_string());
    }
    if cycle.resumes == 0 && rows.iter().all(|r| r.checkpoint_resumes == 0) {
        coverage_gaps.push("no warm restart ever happened".to_string());
    }

    Ok(ChaosReport {
        seed: cfg.seed,
        schedules: rows,
        crash_cycle: cycle,
        violations,
        coverage_gaps,
    })
}

/// Drives one full service workload under `sched` and checks invariants
/// 1–3 (terminal states, standalone verification, ledger balance).
/// Invariant 4 (determinism) is the caller's diff of two passes.
fn run_pass(
    cfg: &ChaosConfig,
    sched: &ChaosSchedule,
    scratch: &Path,
    pass: &str,
) -> Result<Pass, ChaosError> {
    let plan = FaultPlan::parse(&sched.spec, sched.fault_seed)?;
    let ring = Arc::new(RingSink::new(1 << 16));
    let sink: Arc<dyn TelemetrySink> = Arc::clone(&ring) as Arc<dyn TelemetrySink>;
    let mem = Arc::new(DeviceMemory::unlimited());
    let ctx = GpuContext::tiny()
        .with_profiling()
        .with_faults(plan)
        .with_memory(Arc::clone(&mem))
        .with_events(Arc::new(Telemetry::with_sink(sink)));

    let scfg = ServiceConfig {
        devices: cfg.devices,
        checkpoint_dir: Some(scratch.join(&sched.name).join(pass)),
        ..ServiceConfig::default()
    };
    let Workload { tensors, jobs } = Workload::generate(&WorkloadConfig {
        seed: sched.workload_seed,
        jobs: cfg.jobs,
        ..WorkloadConfig::default()
    });
    let mut service = Service::new(scfg, ctx);
    for (name, t) in tensors {
        service.register(&name, t);
    }
    let report = service.run(&jobs);

    let mut violations = Vec::new();

    // Invariant 1: every job reaches a typed terminal state and the
    // aggregate counts reconcile.
    if report.jobs.len() != jobs.len() {
        violations.push(format!(
            "{}: {} jobs submitted but {} accounted for",
            sched.name,
            jobs.len(),
            report.jobs.len()
        ));
    }
    let r = &report.record;
    if r.completed + r.rejected + r.shed != r.submitted {
        violations.push(format!(
            "{}: outcome counts don't reconcile ({} completed + {} rejected + \
             {} shed != {} submitted)",
            sched.name, r.completed, r.rejected, r.shed, r.submitted
        ));
    }
    for j in &report.jobs {
        match j.outcome.as_str() {
            "completed" | "rejected" | "shed" => {}
            other => violations.push(format!(
                "{}: job {} ended in untyped state '{other}'",
                sched.name, j.id
            )),
        }
    }

    // Invariant 2: every completed job re-verifies standalone.
    let verified = match report.verify(&service, &jobs, cfg.verify_tol) {
        Ok(n) => n as u64,
        Err(e) => {
            violations.push(format!("{}: verification failed: {e}", sched.name));
            0
        }
    };

    // Invariant 3: the memory ledger balances to zero.
    let leaked = mem.ledger().iter().filter(|a| !a.freed).count();
    let ledger_balanced = mem.in_use() == 0 && leaked == 0;
    if !ledger_balanced {
        violations.push(format!(
            "{}: memory ledger unbalanced ({} B in use, {} allocations never freed)",
            sched.name,
            mem.in_use(),
            leaked
        ));
    }

    let reg = &service.ctx().registry;
    let json = report
        .to_json_string()
        .map_err(|e| ChaosError::Json(e.to_string()))?;
    let events = ring.lines();
    let row = ScheduleReport {
        name: sched.name.clone(),
        spec: sched.spec.clone(),
        submitted: r.submitted,
        completed: r.completed,
        rejected: r.rejected,
        shed: r.shed,
        retries: r.retries,
        device_losses: r.device_losses,
        link_degrades: reg.counter("sharded.link_degrades"),
        link_losses: reg.counter("sharded.link_losses"),
        checkpoint_writes: reg.counter("serve.checkpoint.writes"),
        checkpoint_crashes: reg.counter("serve.checkpoint.crashes"),
        checkpoint_resumes: reg.counter("serve.checkpoint.resumes"),
        torn_skipped: reg.counter("serve.checkpoint.torn_skipped"),
        events: events.len() as u64,
        verified,
        deterministic: true, // the caller diffs two passes and fills this
        ledger_balanced,
        violations,
    };
    Ok(Pass { json, events, row })
}

/// The durable-checkpoint torture test: a CPD-ALS run under a hostile
/// `crash:0.6` plan with `halt_on_crash` — every injected mid-write
/// crash kills the "process", leaving a torn file — restarted until it
/// completes. The warm-restarted trajectory must reach the
/// uninterrupted same-seed run's final fit within 1e-9 (it is
/// bit-identical in practice: resume restores the exact factor state
/// and ALS is deterministic).
pub fn crash_restart_cycle(dir: &Path, seed: u64) -> Result<CrashCycleReport, ChaosError> {
    let t = uniform_random(&[10, 12, 14], 300, splitmix64(seed));
    let opts = CpdOptions {
        rank: 3,
        max_iters: 8,
        tol: 0.0,
        seed: splitmix64(seed ^ 0x5eed),
    };
    let ropts = ResilienceOptions::default();

    let reference = || from_fn(|factors, mode| mttkrp::reference::mttkrp(&t, factors, mode));
    let guarded = RunSpec {
        resilience: Some(&ropts),
        ..RunSpec::new(opts)
    };
    let clean = cpd::run(&t, guarded, reference())?.result;

    let ctx = GpuContext::tiny().with_faults(FaultPlan::parse("crash:0.6", seed)?);
    let _ = std::fs::remove_dir_all(dir);
    let dopts = DurableOptions {
        dir: dir.to_path_buf(),
        label: "crash-cycle".to_string(),
        resume: true,
        halt_on_crash: true,
    };

    let mut restarts = 0u64;
    let mut crashes = 0u64;
    let mut torn_skipped = 0u64;
    let mut resumes = 0u64;
    let mut fit_restarted = f64::NAN;
    // Crashed sequence numbers are never reused, so every restart burns
    // through fresh draws and the loop terminates with probability 1;
    // the bound only guards against a pathological plan.
    while restarts < 64 {
        restarts += 1;
        let durable = RunSpec {
            resilience: Some(&ropts),
            durable: Some(&dopts),
            ctx: Some(&ctx),
            ..RunSpec::new(opts)
        };
        let out = cpd::run(&t, durable, reference())?;
        let (res, rec) = (out.result, out.checkpointing);
        crashes += rec.crashes;
        torn_skipped += rec.torn_skipped;
        resumes += rec.resumes;
        if !rec.halted {
            fit_restarted = res.final_fit();
            break;
        }
    }

    let fit_uninterrupted = clean.final_fit();
    let fit_delta = (fit_restarted - fit_uninterrupted).abs();
    Ok(CrashCycleReport {
        restarts,
        crashes,
        torn_skipped,
        resumes,
        fit_uninterrupted,
        fit_restarted,
        fit_delta,
        within_tol: fit_delta.is_finite() && fit_delta <= 1e-9,
    })
}
