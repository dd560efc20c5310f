//! End-to-end assertions of the paper's headline claims, at miniature
//! scale: these are the conclusions every figure exists to support.

use experiments::calibrate::{self, FleetConfig};
use mttkrp_repro::mttkrp::gpu::{BuildOptions, GpuContext, KernelKind};
use mttkrp_repro::mttkrp::reference;
use mttkrp_repro::sptensor::synth::{standin, SynthConfig};
use mttkrp_repro::sptensor::{identity_perm, mode_orientation};
use mttkrp_repro::tensor_formats::{Bcsf, BcsfOptions, Csf, Hbcsf, IndexBytes};

mod util;
use util::{build_run, build_run_default, run_kernel};

fn cfg() -> SynthConfig {
    SynthConfig::tiny().with_nnz(20_000)
}

/// Paper Section IV / Fig. 5: splitting rebalances darpa-like tensors —
/// higher sm_efficiency and a materially shorter makespan.
#[test]
fn splitting_rebalances_skewed_tensors() {
    let ctx = GpuContext::default();
    let t = standin("darpa").unwrap().generate(&cfg());
    let factors = reference::random_factors(&t, 16, 1);
    let nosplit = BuildOptions {
        bcsf: BcsfOptions::unsplit(),
        ..Default::default()
    };
    let unsplit = build_run(&ctx, KernelKind::Bcsf, &t, &factors, 0, &nosplit);
    let split = build_run_default(&ctx, KernelKind::Bcsf, &t, &factors, 0);
    assert!(
        split.sim.makespan_cycles * 2.0 < unsplit.sim.makespan_cycles,
        "expected >=2x from splitting: {} vs {}",
        unsplit.sim.makespan_cycles,
        split.sim.makespan_cycles
    );
    assert!(split.sim.sm_efficiency > unsplit.sim.sm_efficiency);
}

/// Paper Section V / Fig. 8: on ultra-sparse (singleton-fiber) tensors the
/// hybrid beats B-CSF by a wide margin, and is never materially worse than
/// the best alternative on any 3-D stand-in.
#[test]
fn hybrid_wins_on_ultra_sparse_and_never_collapses() {
    let ctx = GpuContext::default();
    let t = standin("fr_s").unwrap().generate(&cfg());
    let factors = reference::random_factors(&t, 16, 2);
    let bcsf = build_run_default(&ctx, KernelKind::Bcsf, &t, &factors, 0);
    let hb = build_run_default(&ctx, KernelKind::Hbcsf, &t, &factors, 0);
    assert!(
        hb.sim.time_s * 1.5 < bcsf.sim.time_s,
        "hybrid should clearly beat B-CSF on fr_s: {} vs {}",
        hb.sim.time_s,
        bcsf.sim.time_s
    );
    for name in ["deli", "nell2", "darpa"] {
        let t = standin(name).unwrap().generate(&cfg());
        let factors = reference::random_factors(&t, 16, 3);
        let bcsf = build_run_default(&ctx, KernelKind::Bcsf, &t, &factors, 0);
        let hb = build_run_default(&ctx, KernelKind::Hbcsf, &t, &factors, 0);
        assert!(
            hb.sim.time_s < 1.2 * bcsf.sim.time_s,
            "{name}: hybrid must not collapse ({} vs {})",
            hb.sim.time_s,
            bcsf.sim.time_s
        );
    }
}

/// Paper Fig. 16 / Section V: HB-CSF never stores more index data than CSF.
#[test]
fn hbcsf_storage_never_exceeds_csf() {
    for spec in mttkrp_repro::sptensor::synth::standins() {
        let t = spec.generate(&SynthConfig::tiny());
        for mode in 0..t.order() {
            let perm = mode_orientation(t.order(), mode);
            let csf = Csf::build(&t, &perm);
            let hb = Hbcsf::build(&t, &perm, BcsfOptions::unsplit());
            assert!(
                hb.index_bytes() <= csf.index_bytes(),
                "{} mode {mode}: {} > {}",
                spec.name,
                hb.index_bytes(),
                csf.index_bytes()
            );
        }
    }
}

/// Fiber splitting is value-preserving: the B-CSF tree reproduces the
/// exact tensor for every stand-in.
#[test]
fn bcsf_round_trips_every_standin() {
    for spec in mttkrp_repro::sptensor::synth::standins() {
        let t = spec.generate(&SynthConfig::tiny());
        let perm = identity_perm(t.order());
        let b = Bcsf::build(&t, &perm, BcsfOptions::default());
        b.validate().unwrap();
        let mut back = b.csf.to_coo();
        back.sort_by_perm(&perm);
        let mut orig = t.clone();
        orig.sort_by_perm(&perm);
        assert_eq!(back, orig, "{}", spec.name);
    }
}

/// Paper Fig. 15's direction: HB-CSF beats the F-COO baseline on fibrous
/// 3-D tensors (F-COO's lane-per-nonzero rank loop pays replay traffic the
/// rank-on-lanes kernels avoid).
#[test]
fn hybrid_beats_fcoo_on_fibrous_tensors() {
    let ctx = GpuContext::default();
    for name in ["deli", "nell2"] {
        let t = standin(name).unwrap().generate(&cfg());
        let factors = reference::random_factors(&t, 16, 4);
        let hb = build_run_default(&ctx, KernelKind::Hbcsf, &t, &factors, 0);
        let fc = build_run_default(&ctx, KernelKind::Fcoo, &t, &factors, 0);
        assert!(
            hb.sim.time_s < fc.sim.time_s,
            "{name}: HB-CSF {} should beat F-COO {}",
            hb.sim.time_s,
            fc.sim.time_s
        );
    }
}

/// CPD-ALS driven by the simulated-GPU HB-CSF kernel converges with
/// non-decreasing fit — the full pipeline of the paper, end to end.
#[test]
fn cpd_with_gpu_backend_converges() {
    use mttkrp_repro::mttkrp::cpd::{from_fn, run, CpdOptions, RunSpec};
    let t = standin("uber").unwrap().generate(&SynthConfig::tiny());
    let ctx = GpuContext::tiny();
    let formats: Vec<Hbcsf> = (0..t.order())
        .map(|m| Hbcsf::build(&t, &mode_orientation(t.order(), m), BcsfOptions::default()))
        .collect();
    let opts = CpdOptions {
        rank: 4,
        max_iters: 8,
        tol: 0.0,
        seed: 5,
    };
    let gpu = from_fn(|factors, mode| run_kernel(&ctx, &formats[mode], factors).y);
    let res = run(&t, RunSpec::new(opts), gpu).unwrap().result;
    assert_eq!(res.iterations, 8);
    for w in res.fits.windows(2) {
        assert!(w[1] >= w[0] - 1e-4, "fit decreased: {:?}", res.fits);
    }
    assert!(res.final_fit() > 0.0);
}

/// A reduced calibration fleet keeps these tests fast; `sptk calibrate`
/// runs the full default fleet.
fn smoke_fleet() -> FleetConfig {
    FleetConfig {
        datasets: vec!["darpa".into(), "flick-3d".into(), "flick-4d".into()],
        nnz: 20_000,
        ..FleetConfig::default()
    }
}

#[test]
fn fleet_measures_and_replays() {
    let report = calibrate::run(&smoke_fleet()).unwrap();
    // 2 three-D datasets x 6 formats + 1 four-D dataset x 4 formats.
    assert_eq!(report.cells.len(), 2 * 6 + 4);
    assert_eq!(report.skipped.len(), 2);
    assert!(report.trace_check.exact, "{:?}", report.trace_check);
    // Every format that ran has a latency histogram with one
    // observation per (dataset, mode) it covered.
    let h = &report.latency_histograms["fleet.hbcsf.kernel_us"];
    assert_eq!(h.count, 2 * 3 + 4);
    assert!(h.p50 <= h.p99 && h.p99 <= h.max);
}

/// Table II / Figs. 5-8: the calibration fleet's encoded orderings.
#[test]
fn ordering_expectations_hold_on_smoke_fleet() {
    // Two expectations are excluded at smoke scale: the fleet-wide
    // minimum needs the whole fleet, and darpa's occupancy gap is a thin
    // margin that only stabilizes at the default nnz. `sptk calibrate`
    // enforces all six at the default config.
    let fragile = ["darpa-is-csf-worst-case", "bcsf-raises-occupancy-on-darpa"];
    let report = calibrate::run(&smoke_fleet()).unwrap();
    for v in report.verdicts.iter().filter(|v| !fragile.contains(&v.id)) {
        assert!(v.pass, "{}: {}", v.id, v.detail);
    }
}
