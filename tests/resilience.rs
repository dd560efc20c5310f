//! Cross-crate resilience properties of the simfault stack: disabled fault
//! plans must be bit-for-bit invisible, ABFT checksums must detect injected
//! exponent flips, the retry/degrade ladder must restore reference-matching
//! output, and self-healing CPD-ALS must converge under faults to within 1%
//! of the fault-free fit while recording its recovery events.

use mttkrp_repro::gpu_sim::FaultPlan;
use mttkrp_repro::mttkrp::abft::{run_verified, AbftOptions};
use mttkrp_repro::mttkrp::cpd::{from_fn, run, RunSpec};
use mttkrp_repro::mttkrp::gpu::{GpuContext, KernelKind};
use mttkrp_repro::mttkrp::{outputs_match, reference, CpdOptions, ResilienceOptions};
use mttkrp_repro::simprof::RunManifest;
use mttkrp_repro::sptensor::mode_orientation;
use mttkrp_repro::sptensor::synth::uniform_random;
use mttkrp_repro::tensor_formats::{BcsfOptions, Hbcsf};

mod util;
use util::{build_run_default, run_kernel};

/// Property: a rate-zero (inactive) fault plan leaves every GPU kernel's
/// output AND simulator counters bit-for-bit identical to a plain run, and
/// attaches no ABFT record.
#[test]
fn disabled_faults_are_bit_for_bit_invisible_on_every_kernel() {
    let t = uniform_random(&[24, 20, 22], 3_000, 41);
    let plain = GpuContext::tiny();
    let zeroed = GpuContext::tiny().with_faults(FaultPlan::bitflips(0.0, 0xFA17));
    let none = GpuContext::tiny()
        .with_faults(FaultPlan::parse("none", 0xFA17).expect("'none' spec must parse"));

    let kernels: Vec<(&str, KernelKind)> = vec![
        ("gpu-csf", KernelKind::Csf),
        ("b-csf", KernelKind::Bcsf),
        ("csl", KernelKind::Csl),
        ("hb-csf", KernelKind::Hbcsf),
        ("parti-coo", KernelKind::Coo),
        ("f-coo", KernelKind::Fcoo),
    ];
    let run = |c: &GpuContext, t: &mttkrp_repro::sptensor::CooTensor, kind| {
        let f = reference::random_factors(t, 8, 5);
        build_run_default(c, kind, t, &f, 0)
    };

    for (name, kind) in kernels {
        let base = run(&plain, &t, kind);
        for (label, ctx) in [("rate-0", &zeroed), ("spec 'none'", &none)] {
            let faulted = run(ctx, &t, kind);
            assert_eq!(
                base.y.data(),
                faulted.y.data(),
                "{name}: {label} plan must be bit-for-bit identical"
            );
            assert_eq!(
                base.sim.makespan_cycles, faulted.sim.makespan_cycles,
                "{name}: {label} plan must not perturb simulated timing"
            );
            assert!(
                faulted.abft.is_none(),
                "{name}: {label} plan must not attach ABFT data"
            );
        }
    }
}

/// Property: under an active bit-flip plan the column checksums flag at
/// least 99% of corrupted rows, and the retry/degrade ladder restores an
/// output matching the sequential reference.
#[test]
fn abft_detects_flips_and_recovery_restores_reference_output() {
    let t = uniform_random(&[24, 20, 22], 4_000, 91);
    let factors = reference::random_factors(&t, 8, 9);
    let expected = reference::mttkrp(&t, &factors, 0);
    let perm = mode_orientation(t.order(), 0);
    let h = Hbcsf::build(&t, &perm, BcsfOptions::default());

    let mut total_corrupted = 0usize;
    let mut total_flips = 0u64;
    for seed in [7u64, 11, 13] {
        let ctx = GpuContext::tiny().with_faults(FaultPlan::bitflips(0.15, seed));
        let (run, report) = run_verified(&ctx, &t, &factors, 0, &AbftOptions::default(), |c| {
            run_kernel(c, &h, &factors)
        });
        total_flips += report.flips_applied;
        total_corrupted += report.corrupted_rows.len();
        assert!(
            report.detection_rate() >= 0.99,
            "seed {seed}: detection rate {} below 99%",
            report.detection_rate()
        );
        assert!(
            outputs_match(&run.y, &expected),
            "seed {seed}: recovered output off by {}",
            run.y.rel_fro_diff(&expected)
        );
        assert_eq!(
            report.recovered_rows + report.degraded_rows,
            report.detected_rows.len() as u64,
            "seed {seed}: every detected row must be recovered or degraded"
        );
    }
    assert!(
        total_flips > 0 && total_corrupted > 0,
        "fault plans must actually land flips for this test to mean anything"
    );
}

/// Property: self-healing CPD-ALS over a faulted HB-CSF backend converges
/// to within 1% of the fault-free fit, and its manifest records the
/// checkpoint/recovery events.
#[test]
fn resilient_cpd_under_faults_stays_within_one_percent_of_clean_fit() {
    let t = uniform_random(&[24, 20, 22], 3_000, 77);
    let formats: Vec<Hbcsf> = (0..t.order())
        .map(|m| Hbcsf::build(&t, &mode_orientation(t.order(), m), BcsfOptions::default()))
        .collect();
    let opts = CpdOptions {
        rank: 8,
        max_iters: 6,
        tol: 0.0,
        seed: 3,
    };

    let clean_ctx = GpuContext::tiny();
    let clean = from_fn(|f, m| run_kernel(&clean_ctx, &formats[m], f).y);
    let clean_fit = run(&t, RunSpec::new(opts), clean)
        .unwrap()
        .result
        .final_fit();

    let ctx = GpuContext::tiny().with_faults(FaultPlan::bitflips(1e-3, 0xFA17));
    let mut manifest = RunManifest::new("hbcsf", "uniform", opts.rank, opts.max_iters, 0.0, 3);
    let ropts = ResilienceOptions::default();
    let spec = RunSpec {
        resilience: Some(&ropts),
        manifest: Some(&mut manifest),
        ctx: Some(&ctx),
        ..RunSpec::new(opts)
    };
    let verified = from_fn(|f, m| {
        run_verified(&ctx, &t, f, m, &AbftOptions::default(), |c| {
            run_kernel(c, &formats[m], f)
        })
        .0
        .y
    });
    let out = run(&t, spec, verified).unwrap();
    let (result, stats) = (out.result, out.stats);

    let fit = result.final_fit();
    assert!(
        (clean_fit - fit).abs() <= 0.01 * clean_fit.abs().max(1e-12),
        "faulted fit {fit} strays more than 1% from clean fit {clean_fit}"
    );
    assert!(
        stats.checkpoints > 0,
        "resilient ALS must take checkpoints while converging"
    );
    assert_eq!(
        manifest.resilience.checkpoints, stats.checkpoints,
        "manifest must mirror the run's checkpoint count"
    );
    assert_eq!(
        manifest.resilience.rollbacks, stats.rollbacks,
        "manifest must mirror the run's rollback count"
    );
    assert_eq!(manifest.final_fit, fit, "manifest records the final fit");
}
