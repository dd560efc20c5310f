//! Out-of-core tiled execution property tests: for every simulated-GPU
//! kernel, streaming a captured [`Plan`] through capacity-constrained
//! tiles must be bit-for-bit identical to the untiled replay — tiling
//! only re-batches the captured schedule, it never changes the ordered
//! fold into `y`. The degradation ladder must reach the CPU rung only
//! under injected OOM, and every memory decision must be deterministic
//! under a fixed seed.

use mttkrp_repro::gpu_sim::{DeviceMemory, FaultPlan};
use mttkrp_repro::mttkrp::cpd::{cpd_als_planned, from_fn, run, CpdOptions, RunSpec};
use mttkrp_repro::mttkrp::gpu::{self, GpuContext, KernelKind, ModePlans, OocOptions, Plan};
use mttkrp_repro::mttkrp::reference::{self, random_factors};
use mttkrp_repro::sptensor::synth::{standin, uniform_random, SynthConfig};
use mttkrp_repro::sptensor::CooTensor;
use mttkrp_repro::tensor_formats::BcsfOptions;
mod util;
use proptest::prelude::*;
use std::sync::Arc;
use util::capture_plan;

/// One kernel's capture entry point, over a COO tensor.
struct KernelCase {
    name: &'static str,
    /// Tensor orders the kernel supports (F-COO/ParTI-COO are 3-D only).
    orders: &'static [usize],
    plan: fn(&GpuContext, &CooTensor, usize, usize) -> Plan,
}

const CASES: &[KernelCase] = &[
    KernelCase {
        name: "parti-coo",
        orders: &[3],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Coo, t, mode, rank),
    },
    KernelCase {
        name: "f-coo",
        orders: &[3],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Fcoo, t, mode, rank),
    },
    KernelCase {
        name: "gpu-csf",
        orders: &[3, 4],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Csf, t, mode, rank),
    },
    KernelCase {
        name: "b-csf",
        orders: &[3, 4],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Bcsf, t, mode, rank),
    },
    KernelCase {
        name: "csl",
        orders: &[3, 4],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Csl, t, mode, rank),
    },
    KernelCase {
        name: "hb-csf",
        orders: &[3, 4],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Hbcsf, t, mode, rank),
    },
];

const RANK: usize = 8;

fn tensor(order: usize) -> CooTensor {
    match order {
        3 => uniform_random(&[15, 18, 21], 900, 171),
        4 => uniform_random(&[10, 8, 12, 9], 700, 172),
        _ => unreachable!(),
    }
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `check` for every (kernel, order, mode) the kernel supports.
fn for_all_cases(mut check: impl FnMut(&KernelCase, &CooTensor, usize, String)) {
    for case in CASES {
        for &order in case.orders {
            let t = tensor(order);
            for mode in 0..order {
                let what = format!("{} order-{order} mode-{mode}", case.name);
                check(case, &t, mode, what);
            }
        }
    }
}

/// A capacity that admits the resident set plus `num`/`den` of the format
/// bytes, padded the way the allocator pads (so the packer's view and the
/// lease's view agree).
fn capacity_with_format_fraction(plan: &Plan, mem: &DeviceMemory, num: u64, den: u64) -> u64 {
    let fp = plan.footprint();
    let pad = |b: u64| mem.pad(b).expect("small test sizes never overflow");
    pad(fp.factor_bytes) + pad(fp.output_bytes) + fp.format_bytes * num / den
}

#[test]
fn tiled_replay_is_bit_identical_to_untiled_clean() {
    let unlimited = GpuContext::tiny();
    let oopts = OocOptions::default();
    let mut tiled_cases = 0usize;
    for_all_cases(|case, t, mode, what| {
        let factors = random_factors(t, RANK, 171 + mode as u64);
        let plan = (case.plan)(&unlimited, t, mode, RANK);
        let untiled = plan.execute(&unlimited, &factors).unwrap();

        // Shrinking capacities: ever more of the format bytes must be
        // streamed, so tile counts grow; the output must never change.
        for (num, den) in [(3, 4), (1, 2), (1, 4)] {
            let dm = Arc::new(DeviceMemory::with_capacity(u64::MAX));
            let cap = capacity_with_format_fraction(&plan, &dm, num, den);
            let dm = Arc::new(DeviceMemory::with_capacity(cap));
            let ctx = GpuContext::tiny().with_memory(dm.clone());
            let tiles = gpu::ooc::plan_tiles(&plan, cap, &dm);
            let (run, report) = gpu::execute_adaptive(&ctx, &plan, &factors, t, &oopts);
            let tag = format!("{what} @{num}/{den} format");
            assert!(
                !report.in_core,
                "{tag}: capacity below footprint must not run in-core"
            );
            match tiles {
                // Tileable budget: the tiled rung must win, cleanly and
                // bit-exactly, within capacity.
                Some(tiles) => {
                    tiled_cases += 1;
                    assert!(
                        !report.cpu_fallback,
                        "{tag}: tileable budget fell to the CPU (ladder: {:?})",
                        report.ladder
                    );
                    assert_eq!(report.tiles_run, tiles.len(), "{tag}: tile count");
                    assert_eq!(
                        bits32(run.y.data()),
                        bits32(untiled.y.data()),
                        "{tag}: tiled y must be bit-identical to untiled"
                    );
                    assert_eq!(report.oom_events, 0, "{tag}: clean run saw an OOM");
                    assert!(
                        report.high_water_bytes <= cap,
                        "{tag}: high water {} breached capacity {cap}",
                        report.high_water_bytes
                    );
                }
                // A budget that cannot hold even one schedule block (a
                // single-block capture, e.g. small F-COO) must degrade to
                // the CPU reference rather than fail.
                None => {
                    assert!(
                        report.cpu_fallback,
                        "{tag}: untileable budget must reach the CPU rung"
                    );
                    assert_eq!(
                        bits32(run.y.data()),
                        bits32(reference::mttkrp(t, &factors, mode).data()),
                        "{tag}: CPU rung must be the sequential reference"
                    );
                }
            }
        }
    });
    assert!(
        tiled_cases >= 60,
        "only {tiled_cases} tiled cases ran — the tiling path is under-exercised"
    );
}

#[test]
fn unconstrained_adaptive_runs_in_core_and_matches_execute() {
    let ctx = GpuContext::tiny();
    let oopts = OocOptions::default();
    for_all_cases(|case, t, mode, what| {
        let factors = random_factors(t, RANK, 172 + mode as u64);
        let plan = (case.plan)(&ctx, t, mode, RANK);
        let direct = plan.execute(&ctx, &factors).unwrap();
        let (run, report) = gpu::execute_adaptive(&ctx, &plan, &factors, t, &oopts);
        assert!(report.in_core, "{what}: unlimited memory must run in-core");
        assert_eq!(report.tiles_run, 0);
        assert_eq!(report.oom_events, 0);
        assert_eq!(
            bits32(run.y.data()),
            bits32(direct.y.data()),
            "{what}: in-core adaptive y differs from plain execute"
        );
        assert_eq!(run.sim, direct.sim, "{what}: SimResult differs");
    });
}

#[test]
fn tiled_replay_under_exec_faults_matches_untiled_fault_stream() {
    // One ABFT sink spans all tiles with global block ordinals, so the
    // injected fault stream and checksum data must equal the untiled
    // faulted replay bit-for-bit.
    let faults = FaultPlan::parse("bitflip:0.5,abort:0.2", 0xFA17).expect("spec parses");
    let unlimited = GpuContext::tiny().with_faults(faults.clone());
    let oopts = OocOptions::default();
    for_all_cases(|case, t, mode, what| {
        let factors = random_factors(t, RANK, 173 + mode as u64);
        let plan = (case.plan)(&unlimited, t, mode, RANK);
        let untiled = plan.execute(&unlimited, &factors).unwrap();

        let mem = Arc::new(DeviceMemory::with_capacity(u64::MAX));
        let cap = capacity_with_format_fraction(&plan, &mem, 1, 2);
        let dm = Arc::new(DeviceMemory::with_capacity(cap));
        if gpu::ooc::plan_tiles(&plan, cap, &dm).is_none() {
            // Single-block captures (small F-COO) cannot tile below their
            // footprint at all; their CPU-rung behavior is covered by the
            // clean test above. The faulted-stream property needs a GPU
            // tiled run to compare against.
            return;
        }
        let ctx = GpuContext::tiny()
            .with_faults(faults.clone())
            .with_memory(dm);
        let (run, report) = gpu::execute_adaptive(&ctx, &plan, &factors, t, &oopts);
        assert!(
            report.tiles_run >= 1 && !report.cpu_fallback,
            "{what}: expected a tiled faulted run (ladder: {:?})",
            report.ladder
        );
        assert_eq!(
            bits32(run.y.data()),
            bits32(untiled.y.data()),
            "{what}: faulted tiled y differs from faulted untiled"
        );
        match (&run.abft, &untiled.abft) {
            (Some(a), Some(b)) => {
                assert_eq!(bits64(&a.check), bits64(&b.check), "{what}: abft check");
                assert_eq!(bits64(&a.abs), bits64(&b.abs), "{what}: abft abs");
                assert_eq!(a.corrupted_rows, b.corrupted_rows, "{what}: corrupted rows");
                assert_eq!(a.flips_applied, b.flips_applied, "{what}: flips applied");
            }
            (None, None) => {}
            _ => panic!("{what}: abft presence differs"),
        }
    });
}

#[test]
fn injected_oom_exhausts_ladder_to_cpu_reference() {
    // oom:1.0 refuses every allocation: full-device fails, every tiled
    // shrink fails, and the run lands on the CPU rung — whose output is
    // exactly the sequential reference kernel.
    let faults = FaultPlan::parse("oom:1.0", 0xBEEF).expect("spec parses");
    let oopts = OocOptions::default();
    for_all_cases(|case, t, mode, what| {
        let ctx = GpuContext::tiny().with_faults(faults.clone());
        let factors = random_factors(t, RANK, 174 + mode as u64);
        let plan = (case.plan)(&ctx, t, mode, RANK);
        let (run, report) = gpu::execute_adaptive(&ctx, &plan, &factors, t, &oopts);
        assert!(report.cpu_fallback, "{what}: expected the CPU rung");
        assert!(
            report.oom_events as usize > report.ladder.len().saturating_sub(2),
            "{what}: every GPU rung must have recorded a refusal"
        );
        let expect = reference::mttkrp(t, &factors, mode);
        assert_eq!(
            bits32(run.y.data()),
            bits32(expect.data()),
            "{what}: CPU rung must be the sequential reference"
        );
        // The ladder must attempt full-device first and end on the CPU.
        assert_eq!(
            report.ladder.first().map(|s| s.rung.as_str()),
            Some("full-device")
        );
        assert_eq!(report.ladder.last().map(|s| s.rung.as_str()), Some("cpu"));

        // Determinism: the same seed reproduces the same story, bit for
        // bit, on a fresh context.
        let ctx2 = GpuContext::tiny().with_faults(faults.clone());
        let (run2, report2) = gpu::execute_adaptive(&ctx2, &plan, &factors, t, &oopts);
        assert_eq!(report, report2, "{what}: MemReport must be deterministic");
        assert_eq!(bits32(run.y.data()), bits32(run2.y.data()));
    });
}

#[test]
fn fragmentation_shrinks_effective_capacity_deterministically() {
    // frag:0.5 halves what the allocator will grant. A device sized
    // exactly to the padded footprint fits without fragmentation and must
    // degrade (but never to the CPU) with it.
    let frag = FaultPlan::parse("frag:0.5", 0x5EED).expect("spec parses");
    let oopts = OocOptions::default();
    for_all_cases(|case, t, mode, what| {
        let clean = GpuContext::tiny();
        let plan = (case.plan)(&clean, t, mode, RANK);
        let factors = random_factors(t, RANK, 175 + mode as u64);
        let untiled = plan.execute(&clean, &factors).unwrap();

        let mem = Arc::new(DeviceMemory::with_capacity(u64::MAX));
        let fp = plan.footprint();
        let pad = |b: u64| mem.pad(b).expect("small sizes");
        let padded_total = pad(fp.factor_bytes) + pad(fp.output_bytes) + pad(fp.format_bytes);

        let fits =
            GpuContext::tiny().with_memory(Arc::new(DeviceMemory::with_capacity(padded_total)));
        let (_, report) = gpu::execute_adaptive(&fits, &plan, &factors, t, &oopts);
        assert!(report.in_core, "{what}: padded footprint must fit exactly");

        let frag_ctx = GpuContext::tiny()
            .with_faults(frag.clone())
            .with_memory(Arc::new(DeviceMemory::with_capacity(padded_total)));
        let (run, report) = gpu::execute_adaptive(&frag_ctx, &plan, &factors, t, &oopts);
        assert!(
            !report.in_core,
            "{what}: fragmentation holdback must refuse the full footprint"
        );
        if !report.cpu_fallback {
            assert_eq!(
                bits32(run.y.data()),
                bits32(untiled.y.data()),
                "{what}: fragmented tiled y must still be bit-identical"
            );
        }
    });
}

#[test]
fn capacity_capped_cpd_tiles_and_matches_in_core_fits() {
    // The device holds every mode's resident set (factors + output, which
    // tiling cannot shrink) plus half its format bytes. So the worst mode
    // must stream tiles, and no mode drops below its tiling floor to the
    // CPU rung, whose summation order would move the fit.
    let t = standin("nell2")
        .unwrap()
        .generate(&SynthConfig::default().with_nnz(20_000));
    let opts = CpdOptions {
        rank: RANK,
        max_iters: 4,
        tol: 0.0,
        seed: 42,
    };
    let unlimited = GpuContext::default();
    let plans = ModePlans::build_hbcsf(&unlimited, &t, RANK, BcsfOptions::default());
    let in_core = cpd_als_planned(&t, &opts, &unlimited, &plans);

    let capacity = (0..t.order())
        .map(|m| {
            let fp = plans.plan(m).footprint();
            fp.resident_bytes() + fp.format_bytes / 2
        })
        .max()
        .unwrap();
    let capped = GpuContext::default().with_memory(Arc::new(DeviceMemory::with_capacity(capacity)));
    let oopts = OocOptions::default();
    let (mut tiled, mut cpu) = (0usize, 0usize);
    let adaptive = from_fn(|factors, mode| {
        let (run, report) = gpu::execute_adaptive(&capped, plans.plan(mode), factors, &t, &oopts);
        tiled += usize::from(!report.in_core && !report.cpu_fallback);
        cpu += usize::from(report.cpu_fallback);
        run.y
    });
    let streamed = run(&t, RunSpec::new(opts), adaptive).unwrap().result;
    assert!(
        tiled >= 1,
        "capacity {capacity} B never forced a tiled launch"
    );
    assert_eq!(cpu, 0, "a launch fell to the CPU rung");
    assert_eq!(
        bits64(&streamed.fits),
        bits64(&in_core.fits),
        "tiled CPD fits differ from in-core"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any budget that yields a clean tiled run yields the untiled bits.
    #[test]
    fn any_tileable_budget_is_bit_exact(
        case_idx in 0usize..6,
        order_sel in 0usize..2,
        mode_sel in 0usize..4,
        sixteenths in 1u64..16,
    ) {
        let case = &CASES[case_idx];
        let order = case.orders[order_sel % case.orders.len()];
        let mode = mode_sel % order;
        let t = tensor(order);
        let ctx = GpuContext::tiny();
        let factors = random_factors(&t, RANK, 176 + mode as u64);
        let plan = (case.plan)(&ctx, &t, mode, RANK);
        let untiled = plan.execute(&ctx, &factors).unwrap();

        let mem = Arc::new(DeviceMemory::with_capacity(u64::MAX));
        let cap = capacity_with_format_fraction(&plan, &mem, sixteenths, 16);
        let capped = GpuContext::tiny()
            .with_memory(Arc::new(DeviceMemory::with_capacity(cap)));
        let (run, report) =
            gpu::execute_adaptive(&capped, &plan, &factors, &t, &OocOptions::default());
        prop_assert!(!report.in_core, "capacity below footprint ran in-core");
        // Tiny budgets may legitimately refuse (a single block's padded
        // share can exceed the headroom); GPU rungs must stay bit-exact.
        if !report.cpu_fallback {
            prop_assert_eq!(bits32(run.y.data()), bits32(untiled.y.data()));
            prop_assert!(report.high_water_bytes <= cap);
        }
    }
}
