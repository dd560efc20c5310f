//! Model-robustness checks: the paper's headline orderings must not hinge
//! on the simulator's scheduling pessimism. `simulate` serializes blocks
//! per SM (pessimistic: co-residency hides nothing); `co_resident_makespan`
//! overlaps co-resident blocks for free (optimistic). Real hardware sits
//! between. Every conclusion below must hold at BOTH bounds.

use mttkrp_repro::gpu_sim::{
    co_resident_makespan, simulate, simulate_faulted, CostModel, FaultPlan,
};
use mttkrp_repro::mttkrp::gpu::{GpuContext, MttkrpKernel};
use mttkrp_repro::mttkrp::reference::random_factors;
use mttkrp_repro::sptensor::mode_orientation;
use mttkrp_repro::sptensor::synth::{standin, SynthConfig};
use mttkrp_repro::tensor_formats::{Bcsf, BcsfOptions};

/// Capture a B-CSF launch through the unified kernel API.
fn emit_launch(
    ctx: &GpuContext,
    bcsf: &Bcsf,
    factors: &[mttkrp_repro::dense::Matrix],
) -> mttkrp_repro::gpu_sim::KernelLaunch {
    bcsf.capture(ctx, factors[0].cols()).into_launch()
}

fn both_bounds(ctx: &GpuContext, launch: &mttkrp_repro::gpu_sim::KernelLaunch) -> (f64, f64) {
    let serial = simulate(&ctx.device, &ctx.cost, launch).makespan_cycles;
    let co = co_resident_makespan(&ctx.device, &ctx.cost, launch, ctx.warps_per_block);
    (serial, co)
}

#[test]
fn splitting_wins_at_both_scheduling_bounds() {
    let ctx = GpuContext::default();
    let t = standin("darpa")
        .unwrap()
        .generate(&SynthConfig::tiny().with_nnz(20_000));
    let factors = random_factors(&t, 16, 1);
    let perm = mode_orientation(3, 0);
    let unsplit = emit_launch(
        &ctx,
        &Bcsf::build(&t, &perm, BcsfOptions::unsplit()),
        &factors,
    );
    let split = emit_launch(
        &ctx,
        &Bcsf::build(&t, &perm, BcsfOptions::default()),
        &factors,
    );

    let (us, uc) = both_bounds(&ctx, &unsplit);
    let (ss, sc) = both_bounds(&ctx, &split);
    assert!(
        ss < us,
        "pessimistic bound: split {ss} must beat unsplit {us}"
    );
    assert!(
        sc < uc,
        "optimistic bound: split {sc} must beat unsplit {uc}"
    );
    // And the bounds bracket sanely.
    assert!(sc <= ss + 1e-6);
    assert!(uc <= us + 1e-6);
}

#[test]
fn balanced_launches_are_insensitive_to_the_bound() {
    // A well-split kernel saturates SM throughput, so extra co-residency
    // buys little: the two bounds should be within ~2x of each other,
    // while the unsplit kernel's bounds diverge much more.
    let ctx = GpuContext::default();
    let t = standin("darpa")
        .unwrap()
        .generate(&SynthConfig::tiny().with_nnz(20_000));
    let factors = random_factors(&t, 16, 2);
    let perm = mode_orientation(3, 0);
    let split = emit_launch(
        &ctx,
        &Bcsf::build(&t, &perm, BcsfOptions::default()),
        &factors,
    );
    let (ss, sc) = both_bounds(&ctx, &split);
    assert!(
        ss / sc.max(1.0) < 4.5,
        "split kernel bounds too far apart: {ss} vs {sc}"
    );
}

#[test]
fn disabled_fault_plans_do_not_perturb_the_schedule() {
    // The fault path must be invisible when no fault can fire: an inert
    // plan through `simulate_faulted` must reproduce `simulate` exactly
    // and inject nothing.
    let ctx = GpuContext::default();
    let t = standin("darpa")
        .unwrap()
        .generate(&SynthConfig::tiny().with_nnz(20_000));
    let factors = random_factors(&t, 16, 4);
    let perm = mode_orientation(3, 0);
    let launch = emit_launch(
        &ctx,
        &Bcsf::build(&t, &perm, BcsfOptions::default()),
        &factors,
    );
    let (serial, co) = both_bounds(&ctx, &launch);
    let (inert, profile) = simulate_faulted(
        &ctx.device,
        &ctx.cost,
        &launch,
        &ctx.registry,
        &FaultPlan::disabled(),
    );
    assert_eq!(
        inert.makespan_cycles, serial,
        "inert plan must match the plain simulation bit-for-bit"
    );
    assert!(profile.faults.is_empty(), "inert plan must inject nothing");
    assert!(co <= serial + 1e-6, "bounds must still bracket");
}

#[test]
fn splitting_still_wins_under_timing_faults() {
    // The paper's headline ordering (split beats unsplit) must survive
    // fault injection: stragglers and ECC aborts stretch the makespan but
    // never shrink it, and hit both launches even-handedly.
    let ctx = GpuContext::default();
    let t = standin("darpa")
        .unwrap()
        .generate(&SynthConfig::tiny().with_nnz(20_000));
    let factors = random_factors(&t, 16, 5);
    let perm = mode_orientation(3, 0);
    let unsplit = emit_launch(
        &ctx,
        &Bcsf::build(&t, &perm, BcsfOptions::unsplit()),
        &factors,
    );
    let split = emit_launch(
        &ctx,
        &Bcsf::build(&t, &perm, BcsfOptions::default()),
        &factors,
    );
    let plan = FaultPlan::parse("straggler:0.3,abort:0.05,slowdown:2.0", 11)
        .expect("fault spec must parse");
    let (uf, up) = simulate_faulted(&ctx.device, &ctx.cost, &unsplit, &ctx.registry, &plan);
    let (sf, sp) = simulate_faulted(&ctx.device, &ctx.cost, &split, &ctx.registry, &plan);
    let (us, _) = both_bounds(&ctx, &unsplit);
    let (ss, _) = both_bounds(&ctx, &split);

    assert!(
        !up.faults.is_empty() || !sp.faults.is_empty(),
        "this plan and seed must actually inject timing faults"
    );
    assert!(
        uf.makespan_cycles >= us && sf.makespan_cycles >= ss,
        "timing faults can only lengthen the pessimistic bound"
    );
    assert!(
        sf.makespan_cycles <= ss * 2.0 * plan.straggler_slowdown + 1e-6,
        "faulted makespan must stay within the abort+straggler stretch bound"
    );
    assert!(
        sf.makespan_cycles < uf.makespan_cycles,
        "split {} must still beat unsplit {} under faults",
        sf.makespan_cycles,
        uf.makespan_cycles
    );
}

#[test]
fn splitting_wins_at_every_latency_hiding_factor() {
    // The headline ordering (split B-CSF beats unsplit on darpa) must not
    // hinge on how much memory latency one warp can hide (`warp_mlp`).
    let t = standin("darpa")
        .unwrap()
        .generate(&SynthConfig::default().with_nnz(60_000));
    let factors = random_factors(&t, 32, 7);
    let perm = mode_orientation(3, 0);
    let split = Bcsf::build(&t, &perm, BcsfOptions::default());
    let unsplit = Bcsf::build(&t, &perm, BcsfOptions::unsplit());
    for mlp in [1.0f64, 1.5, 4.0, 8.0] {
        let ctx = GpuContext {
            cost: CostModel {
                warp_mlp: mlp,
                ..Default::default()
            },
            ..Default::default()
        };
        let makespan = |bcsf: &Bcsf| {
            let launch = emit_launch(&ctx, bcsf, &factors);
            simulate(&ctx.device, &ctx.cost, &launch).makespan_cycles
        };
        let (s, u) = (makespan(&split), makespan(&unsplit));
        assert!(
            s < u,
            "splitting must win at warp_mlp={mlp}: split {s} vs unsplit {u}"
        );
    }
}
