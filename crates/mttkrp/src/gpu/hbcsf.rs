//! HB-CSF composite GPU MTTKRP — paper Algorithm 5 lines 18-20.
//!
//! One fused launch containing the three specialized sub-kernels:
//!
//! * **B-CSF blocks** for the multi-leaf-fiber slices (heavy end),
//! * **CSL warps** for all-singleton-fiber slices (no fiber indirection,
//!   many slices packed per warp),
//! * **COO warps** for single-nonzero slices (full coordinates, one plain
//!   store each — the row is touched exactly once, so no atomics).
//!
//! The three groups write disjoint output rows by construction, so the only
//! atomics are B-CSF's slc-split commits.

use gpu_sim::{AddressSpace, BlockWork, Op, WarpWork};
use tensor_formats::Hbcsf;

use super::bcsf::BcsfSpans;
use super::common::{load_u32s, FactorAddrs, GpuContext};
use super::csl::CslSpans;
use super::plan::{MemoryFootprint, Plan, PlanBuilder};

/// Captures the composite kernel as a replayable [`Plan`] for rank
/// `rank`: one fused launch, block indices running across the three
/// groups, output mode `h.perm[0]`. The capture body behind [`Hbcsf`]'s
/// `MttkrpKernel` impl and [`super::plan::ModePlans`].
pub(crate) fn plan_impl(ctx: &GpuContext, h: &Hbcsf, rank: usize) -> Plan {
    let mode = h.perm[0];
    let mut pb = PlanBuilder::new("hb-csf", mode, rank, h.dims[mode] as usize);
    capture_into(ctx, h, rank, &mut pb);
    pb.finish(ctx)
}

/// The capture body behind [`plan_impl`], parameterized over the builder
/// so the streaming capture (`super::stream`) can run it with a
/// weights-only or a sharded builder. The emit sequence — and with
/// it every block ordinal and weight — is identical regardless of what
/// the builder retains.
pub(crate) fn capture_into(ctx: &GpuContext, h: &Hbcsf, rank: usize, pb: &mut PlanBuilder) {
    let mode = h.perm[0];
    let mut space = AddressSpace::new();
    let fa = FactorAddrs::layout(&mut space, &h.dims, rank, mode);
    let bcsf_spans = BcsfSpans::alloc(&mut space, &h.bcsf);
    let csl_spans = CslSpans::alloc(&mut space, &h.csl);
    let coo_spans: Vec<_> = h
        .coo_coord
        .iter()
        .map(|a| space.alloc_elems(a.len(), 4))
        .collect();
    let coo_vals_span = space.alloc_elems(h.coo_vals.len(), 4);

    // One builder across all three groups: fault draws key on the fused
    // launch's name and launch-wide block index, matching the scheduler.
    pb.set_footprint(MemoryFootprint::from_layout(&space, &fa));

    // Heavy group first: the longest blocks enter the SM schedule earliest,
    // which is the standard heavy-first heuristic a real launch order uses.
    super::bcsf::emit(ctx, &h.bcsf, &fa, &bcsf_spans, pb);
    super::csl::emit(ctx, &h.csl, &fa, &csl_spans, pb);
    emit_coo_group(ctx, h, &fa, &coo_spans, coo_vals_span, pb);
}

/// COO group: warps of 32 single-nonzero slices, plain stores.
fn emit_coo_group(
    ctx: &GpuContext,
    h: &Hbcsf,
    fa: &FactorAddrs,
    coord_spans: &[gpu_sim::ArraySpan],
    vals_span: gpu_sim::ArraySpan,
    pb: &mut PlanBuilder,
) {
    let m = h.coo_vals.len();
    let per_block = 32 * ctx.warps_per_block;
    for block_start in (0..m).step_by(per_block) {
        pb.begin_block();
        let mut block = BlockWork::new();
        let block_end = (block_start + per_block).min(m);
        for warp_start in (block_start..block_end).step_by(32) {
            let warp_end = (warp_start + 32).min(block_end);
            let len = warp_end - warp_start;
            let mut w = WarpWork::new();
            for span in coord_spans {
                load_u32s(&mut w, *span, warp_start, len);
            }
            load_u32s(&mut w, vals_span, warp_start, len);
            for e in warp_start..warp_end {
                let i = h.coo_coord[0][e] as usize;
                pb.contrib(i, h.coo_vals[e]);
                for (l, &pm) in h.perm[1..].iter().enumerate() {
                    let c = h.coo_coord[l + 1][e] as usize;
                    fa.load_row(&mut w, pm, c);
                    w.push(Op::Fma(fa.rank_steps));
                    pb.chain(pm, c);
                }
                // Single-nonzero slice: the row is written exactly once.
                fa.store_y(&mut w, i);
            }
            block.warps.push(w);
        }
        pb.launch.blocks.push(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{BuildOptions, Executor, GpuRun, KernelKind};
    use crate::reference;
    use dense::Matrix;
    use sptensor::synth::{standin, uniform_random, SynthConfig};
    use sptensor::CooTensor;
    use tensor_formats::BcsfOptions;

    fn build_and_run(
        ctx: &GpuContext,
        t: &CooTensor,
        factors: &[Matrix],
        mode: usize,
        opts: BcsfOptions,
    ) -> GpuRun {
        let build = BuildOptions {
            bcsf: opts,
            ..BuildOptions::default()
        };
        Executor::new(ctx.clone())
            .with_build(build)
            .build_run(KernelKind::Hbcsf, t, factors, mode)
            .unwrap()
            .run
    }

    #[test]
    fn matches_reference_all_modes_3d() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[16, 20, 24], 1_000, 101);
        let factors = reference::random_factors(&t, 8, 71);
        for mode in 0..3 {
            let run = build_and_run(&ctx, &t, &factors, mode, BcsfOptions::default());
            let seq = reference::mttkrp(&t, &factors, mode);
            assert!(
                crate::outputs_match(&run.y, &seq),
                "mode {mode} diff {}",
                run.y.rel_fro_diff(&seq)
            );
        }
    }

    #[test]
    fn matches_reference_order4() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[10, 8, 12, 9], 800, 102);
        let factors = reference::random_factors(&t, 6, 72);
        for mode in 0..4 {
            let run = build_and_run(&ctx, &t, &factors, mode, BcsfOptions::default());
            let seq = reference::mttkrp(&t, &factors, mode);
            assert!(crate::outputs_match(&run.y, &seq), "mode {mode}");
        }
    }

    #[test]
    fn correct_on_every_3d_standin() {
        let ctx = GpuContext::tiny();
        let cfg = SynthConfig::tiny();
        for name in sptensor::synth::standin_names_3d() {
            let t = standin(name).unwrap().generate(&cfg);
            let factors = reference::random_factors(&t, 8, 73);
            let run = build_and_run(&ctx, &t, &factors, 0, BcsfOptions::default());
            let seq = reference::mttkrp(&t, &factors, 0);
            assert!(
                crate::outputs_match(&run.y, &seq),
                "{name} diff {}",
                run.y.rel_fro_diff(&seq)
            );
        }
    }

    #[test]
    fn beats_naive_csf_on_singleton_dominated_tensor() {
        // flick-like data: GPU-CSF launches a micro-block per slice while
        // HB-CSF packs the CSL/COO groups densely — Fig. 8's mechanism.
        let ctx = GpuContext::tiny();
        let t = standin("flick-3d").unwrap().generate(&SynthConfig::tiny());
        let factors = reference::random_factors(&t, 8, 74);
        let hb = build_and_run(&ctx, &t, &factors, 0, BcsfOptions::default());
        let naive = Executor::new(ctx.clone())
            .build_run(KernelKind::Csf, &t, &factors, 0)
            .unwrap()
            .run;
        assert!(crate::outputs_match(&hb.y, &naive.y));
        assert!(
            hb.sim.makespan_cycles < naive.sim.makespan_cycles,
            "hb {} vs naive {}",
            hb.sim.makespan_cycles,
            naive.sim.makespan_cycles
        );
    }

    #[test]
    fn coo_and_csl_groups_emit_no_atomics() {
        let ctx = GpuContext::tiny();
        // Hand-built tensor: slice 0..9 hold one nonzero each (COO group),
        // slices 10..19 hold 8 singleton fibers each (CSL group, all far
        // below the warp quota). No B-CSF group, no chunking -> no atomics.
        let mut t = CooTensor::new(vec![20, 500, 50]);
        for s in 0..10u32 {
            t.push(&[s, s * 3, s % 50], 1.0);
        }
        for s in 10..20u32 {
            for f in 0..8u32 {
                t.push(&[s, 20 * s + f, (s + f) % 50], 1.0);
            }
        }
        let factors = reference::random_factors(&t, 8, 75);
        let run = build_and_run(&ctx, &t, &factors, 0, BcsfOptions::default());
        assert_eq!(run.sim.atomic_ops, 0);
        let seq = reference::mttkrp(&t, &factors, 0);
        assert!(crate::outputs_match(&run.y, &seq));
    }

    #[test]
    fn empty_tensor() {
        let ctx = GpuContext::tiny();
        let t = CooTensor::new(vec![3, 3, 3]);
        let factors = reference::random_factors(&t, 4, 76);
        let run = build_and_run(&ctx, &t, &factors, 0, BcsfOptions::default());
        assert_eq!(run.sim.num_blocks, 0);
    }
}
