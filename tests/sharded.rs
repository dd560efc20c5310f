//! Multi-device sharding property tests: sharding a captured [`Plan`]
//! across N simulated devices is a *modeling* transform — the values must
//! be bit-for-bit identical to the single-device replay for every kernel,
//! every order, every mode, and any device count, with or without
//! injected faults. The interconnect model must price communication
//! monotonically in the device count and charge nothing on one device.

use mttkrp_repro::gpu_sim::{FaultPlan, Interconnect};
use mttkrp_repro::mttkrp::cpd::cpd_als_sharded;
use mttkrp_repro::mttkrp::gpu::{
    AnyFormat, BuildOptions, Executor, GpuContext, GridSpec, KernelKind, LaunchArgs, ModePlans,
    OocOptions, ShardModel,
};
use mttkrp_repro::mttkrp::reference::random_factors;
use mttkrp_repro::mttkrp::{AbftOptions, CpdOptions, ResilienceOptions};
use mttkrp_repro::simprof::RunManifest;
use mttkrp_repro::sptensor::synth::{standin, uniform_random, SynthConfig};
use mttkrp_repro::sptensor::CooTensor;

const RANK: usize = 8;

/// Every simulated-GPU kernel and the tensor orders it supports
/// (COO/F-COO are third-order only, per the paper's figures).
const KERNELS: &[(&str, KernelKind, &[usize])] = &[
    ("parti-coo", KernelKind::Coo, &[3]),
    ("f-coo", KernelKind::Fcoo, &[3]),
    ("gpu-csf", KernelKind::Csf, &[3, 4]),
    ("b-csf", KernelKind::Bcsf, &[3, 4]),
    ("csl", KernelKind::Csl, &[3, 4]),
    ("hb-csf", KernelKind::Hbcsf, &[3, 4]),
];

fn tensor(order: usize) -> CooTensor {
    match order {
        3 => uniform_random(&[15, 18, 21], 900, 271),
        4 => uniform_random(&[10, 8, 12, 9], 700, 272),
        _ => unreachable!(),
    }
}

/// Bit-level f32 equality (`==` would treat flipped-to-NaN entries as
/// unequal to themselves).
fn bits(m: &mttkrp_repro::dense::Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// Runs `check(kernel_label, format, tensor, factors, mode)` for every
/// (kernel, order, mode) combination.
fn for_each_case(
    mut check: impl FnMut(&str, &AnyFormat, &CooTensor, &[mttkrp_repro::dense::Matrix], usize),
) {
    for &(name, kind, orders) in KERNELS {
        for &order in orders {
            let t = tensor(order);
            let factors = random_factors(&t, RANK, 11);
            for mode in 0..order {
                let format = AnyFormat::build(kind, &t, mode, &BuildOptions::default())
                    .expect("valid build");
                check(name, &format, &t, &factors, mode);
            }
        }
    }
}

/// Property: a clean sharded run is bit-identical to the plain
/// single-device replay for any device count, and its shard ranges
/// partition the whole schedule.
#[test]
fn sharding_is_bit_exact_clean() {
    let ctx = GpuContext::tiny();
    for_each_case(|name, format, t, factors, mode| {
        let base = Executor::new(ctx.clone())
            .run(format, &LaunchArgs::new(factors))
            .expect("valid launch");
        for devices in [1usize, 2, 3, 5] {
            let exec = Executor::new(ctx.clone())
                .with_grid(GridSpec::new(devices, Interconnect::nvlink()));
            let sharded = exec
                .run(format, &LaunchArgs::new(factors).with_tensor(t))
                .expect("valid launch");
            assert_eq!(
                bits(&base.run.y),
                bits(&sharded.run.y),
                "{name} mode {mode} x{devices}: sharded output diverged"
            );
            let grid = sharded.grid.expect("grid report present");
            assert_eq!(grid.devices, devices, "{name} mode {mode}");
            assert!(!grid.cpu_fallback, "{name} mode {mode} x{devices}");
            assert_eq!(grid.shards.len(), devices);
            // The shard ranges tile the schedule in device order.
            let mut next = 0usize;
            for s in &grid.shards {
                assert_eq!(s.block_begin, next, "{name} mode {mode} x{devices}");
                assert!(s.block_end >= s.block_begin);
                next = s.block_end;
            }
            if devices == 1 {
                assert_eq!(grid.allreduce_seconds, 0.0, "{name}: no comm on 1 device");
                assert_eq!(grid.allreduce_bytes, 0, "{name}: no comm on 1 device");
            } else {
                assert!(
                    grid.allreduce_seconds > 0.0,
                    "{name} x{devices}: all-reduce must cost time"
                );
            }
        }
    });
}

/// Property: injected allocation refusals (OOM) change how shards are
/// tiled, never what they compute — outputs stay bit-identical to the
/// clean single-device replay and the ladder absorbs every refusal
/// without reaching the CPU rung.
#[test]
fn sharding_is_bit_exact_under_injected_oom() {
    let clean = GpuContext::tiny();
    let faulted =
        GpuContext::tiny().with_faults(FaultPlan::parse("oom:0.25", 0xBEEF).expect("spec parses"));
    let mut oom_seen = 0u64;
    for_each_case(|name, format, t, factors, mode| {
        let base = Executor::new(clean.clone())
            .run(format, &LaunchArgs::new(factors))
            .expect("valid launch");
        for devices in [1usize, 3] {
            let exec = Executor::new(faulted.clone())
                .with_grid(GridSpec::new(devices, Interconnect::nvlink()));
            let sharded = exec
                .run(format, &LaunchArgs::new(factors).with_tensor(t))
                .expect("valid launch");
            assert_eq!(
                bits(&base.run.y),
                bits(&sharded.run.y),
                "{name} mode {mode} x{devices}: OOM must not change values"
            );
            let grid = sharded.grid.expect("grid report present");
            assert!(
                !grid.cpu_fallback,
                "{name} mode {mode} x{devices}: ladder must absorb oom:0.25"
            );
            oom_seen += grid.shards.iter().map(|s| s.oom_events).sum::<u64>();
        }
    });
    assert!(oom_seen > 0, "oom:0.25 must actually inject refusals");
}

/// Property: under an active bit-flip plan the sharded engine routes
/// every contribution through one globally-ordered ABFT sink, so the
/// faulted output is bit-identical to the faulted single-device replay —
/// the fault stream itself is shard-invariant.
#[test]
fn sharding_is_bit_exact_under_bitflips() {
    let ctx = GpuContext::tiny().with_faults(FaultPlan::bitflips(0.05, 0xFA17));
    for_each_case(|name, format, t, factors, mode| {
        let base = Executor::new(ctx.clone())
            .run(format, &LaunchArgs::new(factors))
            .expect("valid launch");
        assert!(
            base.run.abft.is_some(),
            "{name} mode {mode}: faulted replay must carry checksum data"
        );
        for devices in [1usize, 4] {
            let exec = Executor::new(ctx.clone())
                .with_grid(GridSpec::new(devices, Interconnect::nvlink()));
            let sharded = exec
                .run(format, &LaunchArgs::new(factors).with_tensor(t))
                .expect("valid launch");
            assert_eq!(
                bits(&base.run.y),
                bits(&sharded.run.y),
                "{name} mode {mode} x{devices}: faulted output diverged"
            );
        }
    });
}

/// Property: the modeled ring all-reduce is monotone in the device count
/// (more devices, more steps) and PCIe never beats NVLink at equal count.
#[test]
fn interconnect_cost_is_monotone_in_device_count() {
    let ctx = GpuContext::tiny();
    let t = tensor(3);
    let factors = random_factors(&t, RANK, 19);
    let format =
        AnyFormat::build(KernelKind::Hbcsf, &t, 0, &BuildOptions::default()).expect("valid build");
    for link in [Interconnect::nvlink(), Interconnect::pcie()] {
        let mut prev = 0.0f64;
        for devices in 1..=6 {
            let exec = Executor::new(ctx.clone()).with_grid(GridSpec::new(devices, link.clone()));
            let grid = exec
                .run(&format, &LaunchArgs::new(&factors).with_tensor(&t))
                .expect("valid launch")
                .grid
                .expect("grid report present");
            assert!(
                grid.allreduce_seconds >= prev,
                "{link:?}: all-reduce time fell from {prev} to {} at {devices} devices",
                grid.allreduce_seconds
            );
            prev = grid.allreduce_seconds;
        }
    }
    for devices in [2usize, 4] {
        let time_of = |link: Interconnect| {
            Executor::new(ctx.clone())
                .with_grid(GridSpec::new(devices, link))
                .run(&format, &LaunchArgs::new(&factors).with_tensor(&t))
                .expect("valid launch")
                .grid
                .expect("grid report present")
                .allreduce_seconds
        };
        assert!(
            time_of(Interconnect::pcie()) > time_of(Interconnect::nvlink()),
            "PCIe must not beat NVLink at {devices} devices"
        );
    }
}

/// The CLI-facing spec grammar round-trips into the same costs the
/// engine uses.
#[test]
fn interconnect_specs_parse_and_price() {
    let nv = Interconnect::parse("nvlink").expect("named spec");
    assert_eq!(nv, Interconnect::nvlink());
    let custom = Interconnect::parse("pcie:24:2").expect("custom spec");
    assert!(custom.transfer_seconds(1 << 20) < Interconnect::pcie().transfer_seconds(1 << 20));
    assert!(Interconnect::parse("warp-drive").is_err());
    assert!(Interconnect::parse("nvlink:0:1").is_err());
}

/// Sharded replays carry no simulator profile, so the injected-fault count
/// in the CPD manifest must come from the ABFT sink's applied flips.
#[test]
fn sharded_cpd_records_injected_bitflips() {
    let t = uniform_random(&[12, 14, 16], 600, 31);
    let opts = CpdOptions {
        rank: 4,
        max_iters: 3,
        tol: 0.0,
        seed: 17,
    };
    let plans = ModePlans::build_hbcsf(&GpuContext::tiny(), &t, opts.rank, Default::default());
    let ctx = GpuContext::tiny().with_faults(FaultPlan::parse("bitflip:5e-2", 7).unwrap());
    let mut manifest = RunManifest::new("hb-csf", "synth", 0, 0, 0.0, 0);
    cpd_als_sharded(
        &t,
        &opts,
        &ResilienceOptions::default(),
        &ctx,
        &plans,
        &GridSpec::new(2, Interconnect::pcie()),
        &OocOptions::default(),
        Some(&mut manifest),
    );
    assert!(manifest.resilience.rows_detected > 0, "flips must land");
    assert!(
        manifest.resilience.faults_injected > 0,
        "sharded run recorded no injected faults: {:?}",
        manifest.resilience
    );
}

/// Device capacity holding the padded resident set (factors + output)
/// plus `num/den` of the padded format arrays.
fn capacity_for(fp: &mttkrp_repro::mttkrp::gpu::MemoryFootprint, num: u64, den: u64) -> u64 {
    let pad = |b: u64| b.div_ceil(256).max(1) * 256;
    pad(fp.factor_bytes) + pad(fp.output_bytes) + pad(fp.format_bytes) * num / den
}

/// Property: the shard fit of a one-device grid and the out-of-core
/// ladder are one memory walker — under injected OOM and fragmentation,
/// at capacities from a whole footprint down to a fifth of the format
/// arrays, both report the same in-core decision, tile count, OOM count
/// and CPU fallback for every kernel, order and mode.
#[test]
fn one_device_grid_fits_like_the_out_of_core_ladder() {
    let mut tiled_or_cpu = 0usize;
    for spec in ["oom:0.25", "oom:0.6", "oom:1.0", "frag:0.5"] {
        let faults = FaultPlan::parse(spec, 0xBEEF).expect("spec parses");
        for_each_case(|name, format, t, factors, mode| {
            let ctx = GpuContext::tiny().with_faults(faults.clone());
            let plan = Executor::new(ctx.clone())
                .capture(format, &LaunchArgs::new(factors))
                .expect("valid launch");
            for (num, den) in [(1u64, 1u64), (1, 2), (1, 5)] {
                let cap = capacity_for(plan.footprint(), num, den);
                let capped = ctx.clone().with_memory(std::sync::Arc::new(
                    mttkrp_repro::gpu_sim::DeviceMemory::with_capacity(cap),
                ));
                let (_, mem) = mttkrp_repro::mttkrp::gpu::execute_adaptive(
                    &capped,
                    &plan,
                    factors,
                    t,
                    &OocOptions::default(),
                );
                let grid = Executor::new(ctx.clone())
                    .with_grid(GridSpec::new(1, Interconnect::nvlink()).with_capacity(cap))
                    .execute(&plan, &LaunchArgs::new(factors).with_tensor(t))
                    .expect("valid launch")
                    .grid
                    .expect("grid report present");
                let shard = &grid.shards[0];
                let case = format!("{name} mode {mode} {spec} cap {num}/{den}");
                assert_eq!(shard.in_core, mem.in_core, "{case}: in_core");
                assert_eq!(grid.cpu_fallback, mem.cpu_fallback, "{case}: cpu_fallback");
                assert_eq!(shard.oom_events, mem.oom_events, "{case}: oom_events");
                if !mem.in_core {
                    tiled_or_cpu += 1;
                    assert_eq!(shard.tiles_run, mem.tiles_run, "{case}: tiles");
                }
            }
        });
    }
    assert!(
        tiled_or_cpu > 0,
        "the capacities must force tiling or fallback"
    );
}

/// Property: ABFT verification through the executor does not depend on
/// the route a launch takes. Under `bitflip:0.05`, the in-core, tiled,
/// one-device grid and four-device grid routes return the same output
/// bits and the same detected, retried, recovered and degraded rows.
///
/// The tiled route runs at the smallest listed capacity below the
/// footprint that the packer splits into two or more tiles. F-COO's
/// schedules on these small tensors put nearly all their weight in one
/// block, so no capacity below the footprint tiles them; their capped
/// route would be the CPU rung, which is not bit-identical by design.
#[test]
fn verified_launches_agree_across_routes() {
    use mttkrp_repro::gpu_sim::DeviceMemory;
    use mttkrp_repro::mttkrp::gpu::ooc::plan_tiles;
    let ctx = GpuContext::tiny().with_faults(FaultPlan::bitflips(0.05, 0xFA17));
    let (mut detected, mut tiled) = (0usize, 0usize);
    for_each_case(|name, format, t, factors, mode| {
        let args = LaunchArgs::new(factors).with_tensor(t);
        let plan = Executor::new(ctx.clone())
            .capture(format, &args)
            .expect("valid launch");
        let verified = |exec: Executor| {
            let out = exec
                .with_abft(AbftOptions::default())
                .execute(&plan, &args)
                .expect("valid launch");
            let r = out.abft.expect("an ABFT report under exec faults");
            let rows = (
                r.detected_rows,
                r.retries,
                r.recovered_rows,
                r.degraded_rows,
            );
            (bits(&out.run.y), rows, out.mem)
        };
        let base = verified(Executor::new(ctx.clone()));
        detected += base.1 .0.len();
        let mut routes = Vec::new();
        let capped = [(1u64, 2u64), (3, 4), (9, 10), (99, 100)]
            .into_iter()
            .map(|(num, den)| {
                let cap = capacity_for(plan.footprint(), num, den);
                std::sync::Arc::new(DeviceMemory::with_capacity(cap))
            })
            .find(|mem| plan_tiles(&plan, mem.capacity(), mem).is_some_and(|t| t.len() > 1));
        if let Some(mem) = capped {
            let run = verified(Executor::new(ctx.clone().with_memory(mem)));
            assert!(
                run.2.iter().all(|m| !m.in_core && !m.cpu_fallback),
                "{name} mode {mode}: the capped route must tile"
            );
            tiled += 1;
            routes.push(("tiled".to_string(), run));
        }
        for devices in [1usize, 4] {
            let grid = Executor::new(ctx.clone())
                .with_grid(GridSpec::new(devices, Interconnect::nvlink()));
            routes.push((format!("x{devices}"), verified(grid)));
        }
        for (route, (y, rows, _)) in routes {
            assert_eq!(base.0, y, "{name} mode {mode} {route}: y");
            assert_eq!(base.1, rows, "{name} mode {mode} {route}: rows");
        }
    });
    assert!(detected > 0, "bitflip:0.05 must corrupt detectable rows");
    assert_eq!(tiled, 31, "every case but F-COO's three must tile");
}

/// A grid whose shard fit fell back to the CPU reference ran no device,
/// so it prices no all-reduce: no seconds, no bytes on the wire.
#[test]
fn cpu_fallback_grid_prices_no_allreduce() {
    let ctx = GpuContext::tiny().with_faults(FaultPlan::parse("oom:1.0", 0xBEEF).unwrap());
    let t = tensor(3);
    let factors = random_factors(&t, RANK, 11);
    let format = AnyFormat::build(KernelKind::Hbcsf, &t, 0, &BuildOptions::default()).unwrap();
    let grid = Executor::new(ctx)
        .with_grid(GridSpec::new(4, Interconnect::pcie()))
        .run(&format, &LaunchArgs::new(&factors).with_tensor(&t))
        .expect("valid launch")
        .grid
        .expect("grid report present");
    assert!(grid.cpu_fallback, "oom:1.0 must refuse every rung");
    assert_eq!(grid.allreduce_bytes, 0);
    assert_eq!(grid.allreduce_seconds, 0.0);
    assert_eq!(grid.total_seconds, grid.compute_seconds);
}

/// A grid model's OOM refusals happen once, at its build. Neither the
/// ABFT retries of one launch nor a CPD's launches over a mode's model
/// may count them again.
#[test]
fn build_time_ooms_count_once_per_model() {
    let faulted = FaultPlan::parse("bitflip:0.05,oom:0.3", 7).unwrap();
    let ctx = GpuContext::tiny().with_faults(faulted);
    let grid = GridSpec::new(4, Interconnect::nvlink());
    let t = tensor(3);
    let factors = random_factors(&t, RANK, 11);
    let format = AnyFormat::build(KernelKind::Hbcsf, &t, 0, &BuildOptions::default()).unwrap();
    let args = LaunchArgs::new(&factors).with_tensor(&t);
    let plan = Executor::new(ctx.clone()).capture(&format, &args).unwrap();
    let build_ooms = |plan| {
        let model = ShardModel::build(&ctx, plan, &grid, &OocOptions::default());
        model
            .report()
            .shards
            .iter()
            .map(|s| s.oom_events)
            .collect::<Vec<_>>()
    };
    let once = build_ooms(&plan);
    assert!(once.iter().sum::<u64>() > 0, "oom:0.3 must refuse a lease");
    let out = Executor::new(ctx.clone())
        .with_grid(grid.clone())
        .with_abft(AbftOptions::default())
        .execute(&plan, &args)
        .expect("valid launch");
    assert!(
        out.abft.expect("verified").retries > 0,
        "the launch must retry"
    );
    let merged: Vec<u64> = out
        .grid
        .unwrap()
        .shards
        .iter()
        .map(|s| s.oom_events)
        .collect();
    assert_eq!(merged, once, "retries re-counted the build's refusals");

    let opts = CpdOptions {
        rank: 4,
        max_iters: 3,
        tol: 0.0,
        seed: 17,
    };
    let plans = ModePlans::build_hbcsf(&GpuContext::tiny(), &t, opts.rank, Default::default());
    let (_, _, record) = cpd_als_sharded(
        &t,
        &opts,
        &ResilienceOptions::default(),
        &ctx,
        &plans,
        &grid,
        &OocOptions::default(),
        None,
    );
    let mut per_device = vec![0u64; 4];
    for mode in 0..3 {
        for (d, n) in build_ooms(plans.plan(mode)).into_iter().enumerate() {
            per_device[d] += n;
        }
    }
    let recorded: Vec<u64> = record.per_device.iter().map(|d| d.oom_events).collect();
    assert!(record.launches > 3, "one launch per mode and iteration");
    assert_eq!(
        recorded, per_device,
        "launches re-counted the build's refusals"
    );
}

/// A lost device's wasted compute is drawn once, when its grid model is
/// built: neither the ABFT retries of one launch nor a CPD's launches over
/// a mode's model may charge it again. Pinned on the darpa stand-in at
/// 60k entries, rank 32, four devices, `bitflip:0.05,device-loss:0.5`
/// seed 7 — three attempts on two survivors.
#[test]
fn lost_device_time_counts_once_per_model() {
    let faults = FaultPlan::parse("bitflip:0.05,device-loss:0.5", 7).unwrap();
    let ctx = GpuContext::default().with_faults(faults);
    let grid = GridSpec::new(4, Interconnect::nvlink());
    let t = standin("darpa")
        .unwrap()
        .generate(&SynthConfig::default().with_nnz(60_000));
    let factors = random_factors(&t, 32, 42);
    let format = AnyFormat::build(KernelKind::Hbcsf, &t, 0, &BuildOptions::default()).unwrap();
    let args = LaunchArgs::new(&factors).with_tensor(&t);
    let plan = Executor::new(ctx.clone()).capture(&format, &args).unwrap();
    let model = ShardModel::build(&ctx, &plan, &grid, &OocOptions::default()).report();
    assert_eq!(model.devices, 2, "two devices lost");
    assert!(model.wasted_seconds > 0.0);
    let clean = model.compute_seconds - model.wasted_seconds;

    let out = Executor::new(ctx.clone())
        .with_grid(grid.clone())
        .with_abft(AbftOptions::default())
        .execute(&plan, &args)
        .expect("valid launch");
    assert_eq!(out.abft.expect("verified").attempts, 3);
    let merged = out.grid.unwrap();
    assert_eq!(merged.wasted_seconds, model.wasted_seconds);
    let once = model.wasted_seconds + 3.0 * clean;
    assert!((merged.compute_seconds - once).abs() <= 1e-12 * once);
    let total = once + merged.allreduce_seconds;
    assert!((merged.total_seconds - total).abs() <= 1e-12 * total);

    // A CPD charges each mode model's waste once, however many launches
    // run over it (device loss alone: one attempt per launch).
    let lossy = GpuContext::default().with_faults(FaultPlan::parse("device-loss:0.5", 7).unwrap());
    let opts = CpdOptions {
        rank: 4,
        max_iters: 2,
        tol: 0.0,
        seed: 17,
    };
    let plans = ModePlans::build_hbcsf(&GpuContext::default(), &t, opts.rank, Default::default());
    let (_, _, record) = cpd_als_sharded(
        &t,
        &opts,
        &ResilienceOptions::default(),
        &lossy,
        &plans,
        &grid,
        &OocOptions::default(),
        None,
    );
    let models: Vec<_> = (0..t.order())
        .map(|m| ShardModel::build(&lossy, plans.plan(m), &grid, &OocOptions::default()).report())
        .collect();
    assert!(models.iter().all(|m| m.wasted_seconds > 0.0));
    let per_mode = record.launches as f64 / t.order() as f64;
    assert_eq!(per_mode, 2.0, "one launch per mode and iteration");
    let expect: f64 = models
        .iter()
        .map(|m| m.wasted_seconds + per_mode * (m.compute_seconds - m.wasted_seconds))
        .sum();
    assert!((record.compute_seconds - expect).abs() <= 1e-12 * expect);
}
