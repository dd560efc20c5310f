//! Telemetry determinism contract: the structured event stream and the
//! distribution metrics are pure functions of the simulated work.
//!
//! * Two identical runs must produce **byte-identical** JSONL (including
//!   `seq` and the simulated clock).
//! * Sharding across devices must not perturb the fold-level story:
//!   the `kernel-launch` / `kernel-replay` / `plan-cache-hit` /
//!   `iteration` events — and the simulated clock they carry — are
//!   identical across `--devices 1` and `--devices 4` once `seq` is
//!   ignored (device-detail events interleave extra lines, shifting
//!   sequence numbers but nothing else).
//! * Launch-derived histograms (`sim.block_cycles`, `cpd.iter_sim_us`)
//!   must be identical across device counts.

use std::sync::Arc;

use mttkrp_repro::gpu_sim::Interconnect;
use mttkrp_repro::mttkrp::cpd::{cpd_als_planned, cpd_als_sharded, CpdOptions, ResilienceOptions};
use mttkrp_repro::mttkrp::gpu::{AnyFormat, GpuContext, GridSpec, ModePlans, OocOptions};
use mttkrp_repro::simprof::{RingSink, Telemetry, TelemetrySink, EVENT_SCHEMA_VERSION};
use mttkrp_repro::sptensor;
use mttkrp_repro::sptensor::synth::{standin, SynthConfig};
use mttkrp_repro::sptensor::CooTensor;
use mttkrp_repro::tensor_formats::{BcsfOptions, Hbcsf};

fn tensor() -> CooTensor {
    standin("nell2").unwrap().generate(&SynthConfig::tiny())
}

fn opts() -> CpdOptions {
    CpdOptions {
        rank: 4,
        max_iters: 3,
        tol: 0.0,
        seed: 42,
    }
}

/// A profiling context whose events land in the returned ring.
fn ring_ctx() -> (GpuContext, Arc<RingSink>) {
    let ring = Arc::new(RingSink::new(4096));
    let tel = Telemetry::with_sink(Arc::clone(&ring) as Arc<dyn TelemetrySink>);
    let ctx = GpuContext::default()
        .with_profiling()
        .with_events(Arc::new(tel));
    (ctx, ring)
}

fn run_planned(t: &CooTensor) -> (Vec<String>, GpuContext) {
    let (ctx, ring) = ring_ctx();
    let plans = ModePlans::build_hbcsf(&ctx, t, opts().rank, BcsfOptions::default());
    let res = cpd_als_planned(t, &opts(), &ctx, &plans);
    assert_eq!(res.iterations, 3);
    (ring.lines(), ctx)
}

fn run_sharded(t: &CooTensor, devices: usize) -> (Vec<String>, GpuContext) {
    let (ctx, ring) = ring_ctx();
    let plans = ModePlans::build_hbcsf(&ctx, t, opts().rank, BcsfOptions::default());
    let grid = GridSpec::new(devices, Interconnect::parse("nvlink").unwrap());
    let (res, _, _) = cpd_als_sharded(
        t,
        &opts(),
        &ResilienceOptions::default(),
        &ctx,
        &plans,
        &grid,
        &OocOptions::default(),
        None,
    );
    assert_eq!(res.iterations, 3);
    (ring.lines(), ctx)
}

/// Event kinds that must be stable across device counts. Device-detail
/// kinds (`shard-compute`, `shard-allreduce`, `dispatch`) legitimately
/// vary with the grid shape and are excluded from the contract.
const FOLD_KINDS: [&str; 4] = [
    "\"kind\":\"kernel-launch\"",
    "\"kind\":\"kernel-replay\"",
    "\"kind\":\"plan-cache-hit\"",
    "\"kind\":\"iteration\"",
];

fn fold_events(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| FOLD_KINDS.iter().any(|k| l.contains(k)))
        .map(|l| {
            // seq counts every emitted line, so extra shard-detail events
            // shift it; everything else must match byte for byte.
            let start = l.find("\"seq\":").expect("event has a seq field");
            let end = start + l[start..].find(',').expect("seq is not last") + 1;
            format!("{}{}", &l[..start], &l[end..])
        })
        .collect()
}

#[test]
fn event_stream_is_byte_identical_across_runs() {
    let t = tensor();
    let (a, _) = run_planned(&t);
    let (b, _) = run_planned(&t);
    assert!(!a.is_empty(), "planned CPD emitted no events");
    assert_eq!(a, b, "same run, different event bytes");
}

#[test]
fn events_are_versioned_with_monotone_seq_and_clock() {
    let t = tensor();
    let (lines, _) = run_planned(&t);
    let mut last_seq = -1i64;
    let mut last_sim_us = -1.0f64;
    for line in &lines {
        let v = serde_json::from_str(line).expect("event line parses as JSON");
        assert_eq!(
            v["v"].as_u64(),
            Some(u64::from(EVENT_SCHEMA_VERSION)),
            "schema version missing on {line}"
        );
        let seq = v["seq"].as_u64().expect("seq") as i64;
        assert!(seq > last_seq, "seq not strictly increasing at {line}");
        last_seq = seq;
        let sim_us = v["sim_us"].as_f64().expect("sim_us");
        assert!(sim_us >= last_sim_us, "sim clock went backwards at {line}");
        last_sim_us = sim_us;
        assert!(v["span"].as_u64().is_some(), "span id missing on {line}");
        assert!(v["kind"].as_str().is_some(), "kind missing on {line}");
    }
    // The planned run must tell the whole story: one iteration event per
    // ALS sweep and one kernel replay per (iteration, mode).
    let count = |k: &str| lines.iter().filter(|l| l.contains(k)).count();
    assert_eq!(count("\"kind\":\"iteration\""), 3);
    assert_eq!(count("\"kind\":\"kernel-replay\""), 9);
}

#[test]
fn fold_events_are_stable_across_device_counts() {
    let t = tensor();
    let (d1, _) = run_sharded(&t, 1);
    let (d4, _) = run_sharded(&t, 4);
    let (f1, f4) = (fold_events(&d1), fold_events(&d4));
    assert!(!f1.is_empty());
    assert_eq!(f1, f4, "fold-level events drifted with the device count");
    // The 4-device run must carry *more* device-detail events, each
    // annotated with its device index.
    let shard_lines = |ls: &[String]| {
        ls.iter()
            .filter(|l| l.contains("\"kind\":\"shard-compute\""))
            .count()
    };
    assert_eq!(shard_lines(&d1) * 4, shard_lines(&d4));
    assert!(d4
        .iter()
        .filter(|l| l.contains("\"kind\":\"shard-compute\""))
        .all(|l| l.contains("\"device\":")));
}

#[test]
fn launch_histograms_are_stable_across_device_counts() {
    let t = tensor();
    let (_, c1) = run_sharded(&t, 1);
    let (_, c4) = run_sharded(&t, 4);
    // The canonical whole-launch simulation drives both metrics, so the
    // distributions must not depend on the shard decomposition.
    for metric in ["sim.block_cycles", "cpd.iter_sim_us"] {
        let h1 = c1.registry.histogram(metric);
        let h4 = c4.registry.histogram(metric);
        assert_eq!(h1, h4, "{metric} drifted with the device count");
        assert!(h1.is_some(), "{metric} never observed");
    }
}

#[test]
fn capture_counts_resident_plan_bytes() {
    let t = tensor();
    let ctx = GpuContext::default().with_profiling();
    let plans = ModePlans::build_hbcsf(&ctx, &t, opts().rank, BcsfOptions::default());
    let sum = |bytes: &dyn Fn(usize) -> u64| (0..plans.len()).map(bytes).sum::<u64>();
    let costs = sum(&|m| plans.plan(m).costs().bytes() as u64);
    let schedule = sum(&|m| plans.plan(m).schedule().bytes() as u64);
    let format = sum(&|m| {
        let perm = sptensor::mode_orientation(t.order(), m);
        AnyFormat::Hbcsf(Hbcsf::build(&t, &perm, BcsfOptions::default())).array_bytes()
    });
    assert!(costs > 0 && format > 0 && schedule > 0);
    assert_eq!(ctx.registry.counter("plan.cost_bytes"), costs);
    assert_eq!(ctx.registry.counter("plan.format_bytes"), format);
    assert_eq!(ctx.registry.counter("plan.schedule_bytes"), schedule);
    // The instruction stream is not resident: nothing counts it.
    assert_eq!(ctx.registry.counter("plan.launch_bytes"), 0);

    // A disabled registry records nothing.
    let plain = GpuContext::default();
    ModePlans::build_hbcsf(&plain, &t, opts().rank, BcsfOptions::default());
    assert!(plain.registry.counters().is_empty());
}
