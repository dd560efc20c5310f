//! The plan-backed CPD drivers against the plain planned driver, bit for
//! bit: factor bits, λ bits and fit bits. The out-of-core ladder and the
//! grid only re-batch or re-partition the captured schedules, so on a
//! fault-free context neither may move a single bit — in core, tiled, or
//! sharded over any device count.

use std::sync::Arc;

use mttkrp_repro::gpu_sim::{DeviceMemory, Interconnect};
use mttkrp_repro::mttkrp::cpd::{
    cpd_als_planned, from_fn, run, CpdError, CpdOptions, CpdResult, NegativeValue, PlanSource,
    ResilienceOptions, RunSpec, UpdateRule,
};
use mttkrp_repro::mttkrp::gpu::{GpuContext, GridSpec, ModePlans, OocOptions};
use mttkrp_repro::mttkrp::reference;
use mttkrp_repro::simprof::MemoryRecord;
use mttkrp_repro::sptensor::synth::uniform_random;
use mttkrp_repro::sptensor::CooTensor;

const OPTS: CpdOptions = CpdOptions {
    rank: 4,
    max_iters: 4,
    tol: 0.0,
    seed: 17,
};

/// A 3-mode and a 4-mode stand-in.
fn tensors() -> [CooTensor; 2] {
    [
        uniform_random(&[12, 14, 16], 600, 31),
        uniform_random(&[8, 9, 10, 11], 700, 32),
    ]
}

/// Every bit a decomposition reports.
fn bits(res: &CpdResult) -> (Vec<Vec<u32>>, Vec<u32>, Vec<u64>) {
    (
        res.factors
            .iter()
            .map(|f| f.data().iter().map(|v| v.to_bits()).collect())
            .collect(),
        res.lambda.iter().map(|v| v.to_bits()).collect(),
        res.fits.iter().map(|v| v.to_bits()).collect(),
    )
}

/// A guarded run observed by `ctx`, as the plan-backed drivers run.
fn guarded<'a>(ctx: &'a GpuContext, ropts: &'a ResilienceOptions) -> RunSpec<'a> {
    RunSpec {
        resilience: Some(ropts),
        ctx: Some(ctx),
        ..RunSpec::new(OPTS)
    }
}

/// The adaptive driver: a guarded run down `ctx`'s out-of-core ladder.
fn adaptive(t: &CooTensor, ctx: &GpuContext, plans: &ModePlans) -> (CpdResult, MemoryRecord) {
    let (ropts, oopts) = (ResilienceOptions::default(), OocOptions::default());
    let source = &mut PlanSource::new(t, ctx, plans).out_of_core(&oopts);
    let out = run(t, guarded(ctx, &ropts), source).unwrap();
    (out.result, out.memory)
}

#[test]
fn adaptive_driver_in_core_equals_planned() {
    for t in tensors() {
        let ctx = GpuContext::tiny();
        let plans = ModePlans::build_hbcsf(&ctx, &t, OPTS.rank, Default::default());
        let planned = cpd_als_planned(&t, &OPTS, &ctx, &plans);
        let (res, mem) = adaptive(&t, &ctx, &plans);
        assert_eq!(bits(&res), bits(&planned), "order {}", t.order());
        assert_eq!(mem.tiled_launches + mem.cpu_fallbacks, 0);
        assert_eq!(mem.in_core_launches as usize, OPTS.max_iters * t.order());
    }
}

#[test]
fn adaptive_driver_tiled_equals_planned() {
    for t in tensors() {
        let ctx = GpuContext::tiny();
        let plans = ModePlans::build_hbcsf(&ctx, &t, OPTS.rank, Default::default());
        let planned = cpd_als_planned(&t, &OPTS, &ctx, &plans);
        let worst = (0..t.order())
            .map(|m| *plans.plan(m).footprint())
            .max_by_key(|fp| fp.total_bytes())
            .unwrap();
        let capacity = worst.total_bytes() - worst.format_bytes / 8;
        let small = GpuContext::tiny().with_memory(Arc::new(DeviceMemory::with_capacity(capacity)));
        let (res, mem) = adaptive(&t, &small, &plans);
        assert!(mem.tiled_launches > 0, "order {}: never tiled", t.order());
        assert_eq!(mem.cpu_fallbacks, 0);
        assert_eq!(bits(&res), bits(&planned), "order {}", t.order());
    }
}

#[test]
fn sharded_driver_equals_planned_at_one_and_four_devices() {
    for t in tensors() {
        let ctx = GpuContext::tiny();
        let plans = ModePlans::build_hbcsf(&ctx, &t, OPTS.rank, Default::default());
        let planned = cpd_als_planned(&t, &OPTS, &ctx, &plans);
        for devices in [1, 4] {
            let grid = GridSpec::new(devices, Interconnect::pcie());
            let source = &mut PlanSource::new(&t, &ctx, &plans).grid(&grid, &OocOptions::default());
            let out = run(&t, guarded(&ctx, &ResilienceOptions::default()), source).unwrap();
            let (res, grid) = (out.result, out.grid);
            assert_eq!(
                bits(&res),
                bits(&planned),
                "order {} on {devices} devices",
                t.order()
            );
            assert_eq!(grid.devices, devices);
            assert_eq!(grid.launches as usize, OPTS.max_iters * t.order());
        }
    }
}

#[test]
fn nonneg_names_the_first_negative_value() {
    let mut t = uniform_random(&[6, 7, 8], 150, 5);
    t.values_mut()[40] = -0.5;
    t.values_mut()[90] = -2.0;
    let spec = RunSpec {
        rule: UpdateRule::Nonneg,
        ..RunSpec::new(OPTS)
    };
    let err = run(&t, spec, from_fn(|f, m| reference::mttkrp(&t, f, m))).unwrap_err();
    assert_eq!(
        err,
        CpdError::NegativeValue(NegativeValue {
            index: 40,
            value: -0.5
        })
    );
}
