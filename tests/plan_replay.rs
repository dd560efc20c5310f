//! Launch capture & replay property tests: for every simulated-GPU
//! kernel, a captured [`Plan`] replayed against factor matrices must be
//! bit-for-bit indistinguishable from the pre-capture emit-and-simulate
//! path — output `y`, memoized [`SimResult`], injected fault stream, and
//! ABFT checksum data alike.

use std::time::Instant;

use mttkrp_repro::dense::Matrix;
use mttkrp_repro::gpu_sim::FaultPlan;
use mttkrp_repro::mttkrp::cpd::{cpd_als_planned, from_fn, run, CpdOptions, RunSpec};
use mttkrp_repro::mttkrp::gpu::{
    GpuContext, GpuRun, KernelKind, LaunchError, ModePlans, MttkrpKernel, Plan, RankDispatch,
};
use mttkrp_repro::mttkrp::reference::random_factors;
use mttkrp_repro::sptensor::synth::{standin, uniform_random, SynthConfig};
use mttkrp_repro::sptensor::{mode_orientation, CooTensor};
use mttkrp_repro::tensor_formats::{BcsfOptions, Hbcsf};
use proptest::prelude::*;
mod util;
use util::{build_run_default, capture_plan};

/// One kernel's capture and one-shot entry points, over a COO tensor.
struct KernelCase {
    name: &'static str,
    /// Tensor orders the kernel supports (F-COO/ParTI-COO are 3-D only).
    orders: &'static [usize],
    plan: fn(&GpuContext, &CooTensor, usize, usize) -> Plan,
    run: fn(&GpuContext, &CooTensor, &[Matrix], usize) -> GpuRun,
}

const CASES: &[KernelCase] = &[
    KernelCase {
        name: "parti-coo",
        orders: &[3],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Coo, t, mode, rank),
        run: |ctx, t, f, mode| build_run_default(ctx, KernelKind::Coo, t, f, mode),
    },
    KernelCase {
        name: "f-coo",
        orders: &[3],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Fcoo, t, mode, rank),
        run: |ctx, t, f, mode| build_run_default(ctx, KernelKind::Fcoo, t, f, mode),
    },
    KernelCase {
        name: "gpu-csf",
        orders: &[3, 4],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Csf, t, mode, rank),
        run: |ctx, t, f, mode| build_run_default(ctx, KernelKind::Csf, t, f, mode),
    },
    KernelCase {
        name: "b-csf",
        orders: &[3, 4],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Bcsf, t, mode, rank),
        run: |ctx, t, f, mode| build_run_default(ctx, KernelKind::Bcsf, t, f, mode),
    },
    KernelCase {
        name: "csl",
        orders: &[3, 4],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Csl, t, mode, rank),
        run: |ctx, t, f, mode| build_run_default(ctx, KernelKind::Csl, t, f, mode),
    },
    KernelCase {
        name: "hb-csf",
        orders: &[3, 4],
        plan: |ctx, t, mode, rank| capture_plan(ctx, KernelKind::Hbcsf, t, mode, rank),
        run: |ctx, t, f, mode| build_run_default(ctx, KernelKind::Hbcsf, t, f, mode),
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

/// Bit-level f32/f64 slice equality (`==` would treat flipped-to-NaN
/// entries as unequal to themselves).
fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Full bit-for-bit comparison of two kernel executions.
fn assert_runs_equal(a: &GpuRun, b: &GpuRun, what: &str) {
    assert_eq!(bits32(a.y.data()), bits32(b.y.data()), "{what}: y differs");
    assert_eq!(a.sim, b.sim, "{what}: SimResult differs");
    match (&a.profile, &b.profile) {
        (Some(pa), Some(pb)) => {
            assert_eq!(pa.faults, pb.faults, "{what}: fault stream differs")
        }
        (None, None) => {}
        _ => panic!("{what}: profile presence differs"),
    }
    match (&a.abft, &b.abft) {
        (Some(xa), Some(xb)) => {
            assert_eq!(xa.kernel, xb.kernel, "{what}: abft kernel differs");
            assert_eq!(bits64(&xa.check), bits64(&xb.check), "{what}: abft check");
            assert_eq!(bits64(&xa.abs), bits64(&xb.abs), "{what}: abft abs");
            assert_eq!(
                xa.corrupted_rows, xb.corrupted_rows,
                "{what}: abft corrupted rows"
            );
            assert_eq!(
                xa.flips_applied, xb.flips_applied,
                "{what}: abft flips applied"
            );
        }
        (None, None) => {}
        _ => panic!("{what}: abft presence differs"),
    }
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

#[test]
fn replay_matches_fresh_emission_clean() {
    let ctx = GpuContext::tiny();
    for_all_cases(|case, t, mode, what| {
        let factors = random_factors(t, RANK, 91 + mode as u64);
        let plan = (case.plan)(&ctx, t, mode, RANK);
        let replayed = plan.execute(&ctx, &factors).unwrap();
        let fresh = (case.run)(&ctx, t, &factors, mode);
        assert_runs_equal(&replayed, &fresh, &what);
    });
}

#[test]
fn replay_is_deterministic_and_sim_is_memoized() {
    let ctx = GpuContext::tiny();
    for_all_cases(|case, t, mode, what| {
        let factors = random_factors(t, RANK, 92 + mode as u64);
        let plan = (case.plan)(&ctx, t, mode, RANK);
        let first = plan.execute(&ctx, &factors).unwrap();
        let second = plan.execute(&ctx, &factors).unwrap();
        assert_runs_equal(&first, &second, &format!("{what} repeat"));

        // New factor values through the same plan still match a fresh
        // emission with those values: capture is value-independent.
        let other = random_factors(t, RANK, 920 + mode as u64);
        let replayed = plan.execute(&ctx, &other).unwrap();
        let fresh = (case.run)(&ctx, t, &other, mode);
        assert_runs_equal(&replayed, &fresh, &format!("{what} new factors"));
    });
}

#[test]
fn replay_matches_fresh_emission_under_faults() {
    let plan_spec =
        FaultPlan::parse("bitflip:0.5,abort:0.2,straggler:0.2", 0xFA17).expect("spec parses");
    let ctx = GpuContext::tiny().with_faults(plan_spec);
    for_all_cases(|case, t, mode, what| {
        let factors = random_factors(t, RANK, 93 + mode as u64);
        let plan = (case.plan)(&ctx, t, mode, RANK);
        let replayed = plan.execute(&ctx, &factors).unwrap();
        let fresh = (case.run)(&ctx, t, &factors, mode);
        assert_runs_equal(&replayed, &fresh, &format!("{what} faulted"));
    });
}

#[test]
fn faulted_sim_cache_rekeys_across_retry_attempts() {
    // run_verified's retries execute the same plan under a *different*
    // FaultPlan (attempt is mixed into every draw); the memoized faulted
    // simulation must re-key, and flipping back must still be exact.
    let base = FaultPlan::parse("bitflip:0.5,abort:0.2", 0xFA17).expect("spec parses");
    let ctx0 = GpuContext::tiny().with_faults(base.clone());
    let ctx1 = GpuContext::tiny().with_faults(base.with_attempt(1));
    for_all_cases(|case, t, mode, what| {
        let factors = random_factors(t, RANK, 94 + mode as u64);
        let plan = (case.plan)(&ctx0, t, mode, RANK);
        let a0 = plan.execute(&ctx0, &factors).unwrap();
        let a1 = plan.execute(&ctx1, &factors).unwrap();
        let a0_again = plan.execute(&ctx0, &factors).unwrap();
        assert_runs_equal(&a0, &a0_again, &format!("{what} attempt-0 re-key"));
        assert_runs_equal(
            &a1,
            &(case.run)(&ctx1, t, &factors, mode),
            &format!("{what} attempt-1"),
        );
        assert_ne!(
            a0.sim.makespan_cycles, 0.0,
            "{what}: simulated makespan must be populated"
        );
    });
}

/// Ranks with a const-generic value phase (the dispatch table's keys).
const SPECIALIZED_RANKS: &[usize] = &[8, 16, 32];

/// Executes `plan` twice — specialized dispatch vs. forced generic — and
/// asserts the full runs (y bits, sim, faults, ABFT) are identical.
fn assert_dispatch_arms_equal(
    ctx: &GpuContext,
    mut plan: Plan,
    factors: &[Matrix],
    rank: usize,
    what: &str,
) {
    plan.set_rank_specialization(true);
    assert_eq!(
        plan.dispatch(),
        RankDispatch::for_rank(rank),
        "{what}: rank {rank} must key a specialized dispatch"
    );
    assert!(plan.dispatch().is_specialized(), "{what}: rank {rank}");
    let specialized = plan.execute(ctx, factors).unwrap();
    plan.set_rank_specialization(false);
    assert_eq!(plan.dispatch(), RankDispatch::Generic, "{what}");
    let generic = plan.execute(ctx, factors).unwrap();
    assert_runs_equal(&specialized, &generic, what);
}

#[test]
fn specialized_replay_is_bit_identical_to_generic_clean() {
    let ctx = GpuContext::tiny();
    for &rank in SPECIALIZED_RANKS {
        for_all_cases(|case, t, mode, what| {
            let factors = random_factors(t, rank, 95 + mode as u64);
            let plan = (case.plan)(&ctx, t, mode, rank);
            assert_dispatch_arms_equal(&ctx, plan, &factors, rank, &format!("{what} r{rank}"));
        });
    }
}

#[test]
fn specialized_replay_is_bit_identical_to_generic_under_faults() {
    let plan_spec =
        FaultPlan::parse("bitflip:0.5,abort:0.2,straggler:0.2", 0xFA17).expect("spec parses");
    let ctx = GpuContext::tiny().with_faults(plan_spec);
    for &rank in SPECIALIZED_RANKS {
        for_all_cases(|case, t, mode, what| {
            let factors = random_factors(t, rank, 96 + mode as u64);
            let plan = (case.plan)(&ctx, t, mode, rank);
            assert_dispatch_arms_equal(
                &ctx,
                plan,
                &factors,
                rank,
                &format!("{what} r{rank} faulted"),
            );
        });
    }
}

#[test]
fn odd_ranks_dispatch_generic() {
    let ctx = GpuContext::tiny();
    let t = tensor(3);
    for rank in [1usize, 7, 12, 17, 33] {
        let plan = capture_plan(&ctx, KernelKind::Hbcsf, &t, 0, rank);
        assert_eq!(plan.dispatch(), RankDispatch::Generic, "rank {rank}");
        let factors = random_factors(&t, rank, 97);
        let run = plan.execute(&ctx, &factors).unwrap();
        let fresh = build_run_default(&ctx, KernelKind::Hbcsf, &t, &factors, 0);
        assert_runs_equal(&run, &fresh, &format!("generic rank {rank}"));
    }
}

#[test]
fn rank_mismatch_is_a_typed_error_not_a_panic() {
    let ctx = GpuContext::tiny();
    let t = tensor(3);
    let plan = capture_plan(&ctx, KernelKind::Hbcsf, &t, 0, 16);
    let wrong = random_factors(&t, 8, 98);
    match plan.execute(&ctx, &wrong) {
        Err(LaunchError::RankMismatch { expected, got }) => {
            assert_eq!((expected, got), (16, 8));
        }
        other => panic!("expected RankMismatch, got {other:?}"),
    }
    // Empty factor lists are a rank mismatch too, not an index panic.
    match plan.execute(&ctx, &[]) {
        Err(LaunchError::RankMismatch { expected, got }) => {
            assert_eq!((expected, got), (16, 0));
        }
        other => panic!("expected RankMismatch on empty factors, got {other:?}"),
    }
}

/// A fixed-length CPD (`tol` 0), so every arm runs the same iterations.
fn cpd_opts(rank: usize, max_iters: usize) -> CpdOptions {
    CpdOptions {
        rank,
        max_iters,
        tol: 0.0,
        seed: 42,
    }
}

fn standin_tensor(name: &str, nnz: usize, seed: u64) -> CooTensor {
    standin(name)
        .unwrap()
        .generate(&SynthConfig::default().with_nnz(nnz).with_seed(seed))
}

#[test]
fn recapturing_every_call_matches_planned_cpd_fits() {
    // Capture is value-independent, so a CPD that re-captures each mode's
    // HB-CSF plan on every MTTKRP must trace the exact fit trajectory of
    // one that replays plans captured once.
    let ctx = GpuContext::default();
    let t = standin_tensor("nell2", 20_000, 0xBE7C);
    let opts = cpd_opts(8, 4);
    let formats: Vec<Hbcsf> = (0..t.order())
        .map(|m| Hbcsf::build(&t, &mode_orientation(t.order(), m), BcsfOptions::default()))
        .collect();
    let recapture = from_fn(|factors, mode| {
        formats[mode]
            .capture(&ctx, opts.rank)
            .execute(&ctx, factors)
            .unwrap()
            .y
    });
    let recaptured = run(&t, RunSpec::new(opts), recapture).unwrap().result;
    let plans = ModePlans::build_hbcsf(&ctx, &t, opts.rank, BcsfOptions::default());
    let planned = cpd_als_planned(&t, &opts, &ctx, &plans);
    assert_eq!(planned.iterations, opts.max_iters);
    assert_eq!(bits64(&recaptured.fits), bits64(&planned.fits));
}

#[test]
fn specialized_planned_cpd_matches_generic_fits() {
    // One 3rd-order and one 4th-order stand-in through the R=16 value
    // phase: toggling the specialization must not move a fit bit.
    let ctx = GpuContext::default();
    for name in ["nell2", "uber"] {
        let t = standin_tensor(name, 10_000, 11);
        let opts = cpd_opts(16, 3);
        let mut plans = ModePlans::build_hbcsf(&ctx, &t, opts.rank, BcsfOptions::default());
        plans.set_rank_specialization(true);
        assert!(plans.plan(0).dispatch().is_specialized(), "{name}");
        let specialized = cpd_als_planned(&t, &opts, &ctx, &plans);
        plans.set_rank_specialization(false);
        assert_eq!(plans.plan(0).dispatch(), RankDispatch::Generic, "{name}");
        let generic = cpd_als_planned(&t, &opts, &ctx, &plans);
        assert_eq!(
            bits64(&specialized.fits),
            bits64(&generic.fits),
            "{name}: fit trajectories diverged"
        );
    }
}

/// Each stand-in's floor on the generic/specialized replay-time ratio:
/// 0.9 x the ratio it reached at 1M nonzeros and R=16 when the
/// specialization landed. The ratio compares identical work on the same
/// host in one run, so it holds across machines and at 200k nonzeros.
const REPLAY_SPEEDUP_FLOORS: &[(&str, f64)] = &[
    ("darpa", 1.132),
    ("nell2", 1.263),
    ("flick-3d", 1.280),
    ("fr_m", 1.415),
    ("fr_s", 1.121),
    ("deli", 1.096),
    ("uber", 1.193),
    ("flick-4d", 1.157),
];

/// Seconds for `sweeps` all-mode replay sweeps against `factors`.
fn time_sweeps(ctx: &GpuContext, plans: &ModePlans, factors: &[Matrix], sweeps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..sweeps {
        for mode in 0..plans.len() {
            std::hint::black_box(plans.execute(ctx, factors, mode).unwrap().y);
        }
    }
    start.elapsed().as_secs_f64()
}

/// The median generic/specialized ratio over `pairs` back-to-back pairs
/// of 5-sweep timings, alternating which arm runs first. One pair alone
/// swings by more than the floors' 10% margin on a shared host.
fn replay_speedup(
    ctx: &GpuContext,
    plans: &mut ModePlans,
    factors: &[Matrix],
    pairs: usize,
) -> f64 {
    let mut arm = |specialized: bool| {
        plans.set_rank_specialization(specialized);
        time_sweeps(ctx, plans, factors, 5)
    };
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|p| {
            let (generic, specialized) = if p % 2 == 0 {
                let g = arm(false);
                (g, arm(true))
            } else {
                let s = arm(true);
                (arm(false), s)
            };
            generic / specialized.max(1e-12)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[pairs / 2]
}

#[test]
#[ignore = "host timing: CI runs it in release with `--ignored`"]
fn specialized_replay_keeps_its_speedup_on_every_standin() {
    let ctx = GpuContext::default();
    let (rank, seed) = (16, 0xF1EE7);
    let mut below = Vec::new();
    for &(name, floor) in REPLAY_SPEEDUP_FLOORS {
        let t = standin_tensor(name, 200_000, seed);
        let factors = random_factors(&t, rank, seed ^ 0xFAC7);
        let mut plans = ModePlans::build_hbcsf(&ctx, &t, rank, BcsfOptions::default());
        // Warm both arms once per mode (memoizing the structure
        // simulation) and check their outputs agree before timing.
        let y = |plans: &ModePlans, m: usize| {
            bits32(plans.execute(&ctx, &factors, m).unwrap().y.data())
        };
        plans.set_rank_specialization(true);
        let specialized_y: Vec<Vec<u32>> = (0..t.order()).map(|m| y(&plans, m)).collect();
        plans.set_rank_specialization(false);
        for (m, spec) in specialized_y.iter().enumerate() {
            assert_eq!(&y(&plans, m), spec, "{name} mode {m}: y differs");
        }
        let speedup = replay_speedup(&ctx, &mut plans, &factors, 5);
        println!("{name}: specialized replay {speedup:.2}x faster (floor {floor:.3}x)");
        if speedup < floor {
            below.push(format!("{name} {speedup:.3}x < {floor:.3}x"));
        }
    }
    assert!(
        below.is_empty(),
        "replay speedup below its floor: {below:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (kernel, order, mode, specialized rank, factor seed): the
    /// const-generic value phase replays the generic path's exact bits,
    /// clean and faulted.
    #[test]
    fn specialized_dispatch_is_bit_exact_for_any_case(
        case_idx in 0usize..6,
        order_sel in 0usize..2,
        mode_sel in 0usize..4,
        rank_sel in 0usize..3,
        seed in 0u64..1_000,
        faulted in any::<bool>(),
    ) {
        let case = &CASES[case_idx];
        let order = case.orders[order_sel % case.orders.len()];
        let mode = mode_sel % order;
        let rank = SPECIALIZED_RANKS[rank_sel];
        let ctx = if faulted {
            let spec = FaultPlan::parse("bitflip:0.3,abort:0.1", 0xFA17 ^ seed)
                .expect("spec parses");
            GpuContext::tiny().with_faults(spec)
        } else {
            GpuContext::tiny()
        };
        let t = tensor(order);
        let factors = random_factors(&t, rank, seed);
        let plan = (case.plan)(&ctx, &t, mode, rank);
        let what = format!(
            "{} order-{order} mode-{mode} r{rank} seed {seed} faulted {faulted}",
            case.name
        );
        assert_dispatch_arms_equal(&ctx, plan, &factors, rank, &what);
    }
}
