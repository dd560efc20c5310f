//! B-CSF GPU MTTKRP kernel — paper Section IV.
//!
//! Work mapping: one thread block per
//! [`BlockAssignment`](tensor_formats::BlockAssignment) (a slice, or a
//! binned piece of a heavy slice), fiber-segments dealt round-robin to the
//! block's warps, rank across lanes. Per fiber-segment a warp reduces its
//! leaves against the leaf-mode factor (Algorithm 3 line 11), folds the
//! result through the fiber's ancestor-chain factor rows (line 13), and
//! accumulates into the block's output-row partial (shared memory). The
//! block commits the partial with a plain store when it owns its slice, or
//! an `atomicAdd` when slc-split shared the slice across blocks — the
//! "extra atomic operations … well tolerated" trade of Section IV-A.
//!
//! With [`BcsfOptions::unsplit`](tensor_formats::BcsfOptions::unsplit) this
//! same kernel *is* the naive GPU-CSF of Table II (see [`crate::gpu::csf`]).

use gpu_sim::{AddressSpace, ArraySpan, BlockWork, Op, WarpWork};
use sptensor::Index;
use tensor_formats::Bcsf;

use super::common::{load_u32s, FactorAddrs};
use super::plan::{MemoryFootprint, PlanBuilder};

/// Synthetic addresses of the B-CSF arrays.
pub(crate) struct BcsfSpans {
    pub level_ptr: Vec<ArraySpan>,
    pub level_idx: Vec<ArraySpan>,
    pub leaf_idx: ArraySpan,
    pub vals: ArraySpan,
}

impl BcsfSpans {
    pub fn alloc(space: &mut AddressSpace, b: &Bcsf) -> BcsfSpans {
        BcsfSpans {
            level_ptr: b
                .csf
                .level_ptr
                .iter()
                .map(|p| space.alloc_elems(p.len(), 4))
                .collect(),
            level_idx: b
                .csf
                .level_idx
                .iter()
                .map(|i| space.alloc_elems(i.len(), 4))
                .collect(),
            leaf_idx: space.alloc_elems(b.csf.leaf_idx.len(), 4),
            vals: space.alloc_elems(b.csf.vals.len(), 4),
        }
    }
}

/// The B-CSF capture body (also the naive GPU-CSF's, over an unsplit
/// B-CSF): lays out the arrays for rank `rank` and emits every block into
/// `pb`, `warps_per_block` warps at most per block. The output mode is
/// `bcsf.csf.perm[0]`.
pub(crate) fn capture_into(bcsf: &Bcsf, rank: usize, warps_per_block: usize, pb: &mut PlanBuilder) {
    let mode = bcsf.csf.perm[0];
    let mut space = AddressSpace::new();
    let fa = FactorAddrs::layout(&mut space, &bcsf.csf.dims, rank, mode);
    let spans = BcsfSpans::alloc(&mut space, bcsf);
    pb.set_footprint(MemoryFootprint::from_layout(&space, &fa));
    emit(warps_per_block, bcsf, &fa, &spans, pb);
}

/// Emits the kernel's blocks into the builder's launch and records the
/// replay schedule (callable from the HB-CSF composite kernel).
pub(crate) fn emit(
    warps_per_block: usize,
    bcsf: &Bcsf,
    fa: &FactorAddrs,
    spans: &BcsfSpans,
    pb: &mut PlanBuilder,
) {
    let csf = &bcsf.csf;
    let order = csf.order();
    let fl = order - 2;
    let leaf_mode = csf.perm[order - 1];
    pb.set_leaf_mode(leaf_mode);
    let anc = fiber_ancestors(bcsf);

    for asg in &bcsf.blocks {
        pb.begin_block();
        let mut block = BlockWork::new();
        let i = csf.level_idx[0][asg.slice as usize] as usize;
        let fibers = asg.fibers();
        let nfibers = fibers.len();
        let nwarps = warps_per_block.min(nfibers).max(1);
        // `.max(1)`: a zero-fiber assignment must not turn into
        // `step_by(0)` (panic) — it emits an empty block instead.
        let per_warp = nfibers.div_ceil(nwarps).max(1);
        let mut warps: Vec<WarpWork> = Vec::with_capacity(nwarps);

        // Contiguous fiber ranges per warp: metadata and leaf streams are
        // then coalesced exactly as the CUDA kernel's batched loads are.
        for chunk_start in (fibers.start..fibers.end).step_by(per_warp) {
            let chunk_end = (chunk_start + per_warp).min(fibers.end);
            let mut w = WarpWork::new();
            // One batched fetch of this warp's fiber pointers + indices.
            load_u32s(
                &mut w,
                spans.level_ptr[fl],
                chunk_start,
                chunk_end - chunk_start + 1,
            );
            load_u32s(
                &mut w,
                spans.level_idx[fl],
                chunk_start,
                chunk_end - chunk_start,
            );
            // One streamed fetch of the warp's whole leaf range.
            let leaf_lo = csf.level_ptr[fl][chunk_start] as usize;
            let leaf_hi = csf.level_ptr[fl][chunk_end] as usize;
            load_u32s(&mut w, spans.leaf_idx, leaf_lo, leaf_hi - leaf_lo);
            load_u32s(&mut w, spans.vals, leaf_lo, leaf_hi - leaf_lo);

            for f in chunk_start..chunk_end {
                let lo = csf.level_ptr[fl][f] as usize;
                let hi = csf.level_ptr[fl][f + 1] as usize;
                // Leaf reduction against the last-mode factor (rank on
                // lanes, Alg. 3 line 11).
                pb.contrib(i, 0.0);
                for z in lo..hi {
                    let k = csf.leaf_idx[z] as usize;
                    fa.load_row(&mut w, leaf_mode, k);
                    w.push(Op::Fma(fa.rank_steps));
                    pb.leaf(csf.vals[z], k);
                }
                // Fold through the fiber's own row and its ancestors' rows
                // (Alg. 3 line 13, generalized to order N).
                let j = csf.level_idx[fl][f] as usize;
                fa.load_row(&mut w, csf.perm[fl], j);
                w.push(Op::Fma(fa.rank_steps));
                pb.chain(csf.perm[fl], j);
                for l in (1..fl).rev() {
                    let c = anc[l - 1][f] as usize;
                    fa.load_row(&mut w, csf.perm[l], c);
                    w.push(Op::Fma(fa.rank_steps));
                    pb.chain(csf.perm[l], c);
                }
            }
            warps.push(w);
        }

        // Cross-warp reduction of the slice partial, committed by warp 0
        // (absent for a zero-fiber block, which emitted no warps at all).
        if let Some(commit) = warps.first_mut() {
            commit.push(Op::Sync(2 * nwarps as u32 * fa.rank_steps));
            if asg.needs_atomic {
                fa.atomic_y(commit, i);
            } else {
                fa.store_y(commit, i);
            }
        }
        block.warps = warps;
        pb.push_block(block);
    }
}

/// `anc[l-1][f]` = the level-`l` coordinate above fiber `f`, for internal
/// levels `1 <= l < fiber level` (empty for third-order tensors).
fn fiber_ancestors(bcsf: &Bcsf) -> Vec<Vec<Index>> {
    let csf = &bcsf.csf;
    let order = csf.order();
    let fl = order - 2;
    let num_fibers = csf.level_idx[fl].len();
    let mut anc: Vec<Vec<Index>> = Vec::new();
    for l in 1..fl {
        let mut arr = vec![0 as Index; num_fibers];
        for g in 0..csf.level_idx[l].len() {
            // Fiber range under group g: descend pointers to the fiber level.
            let (mut lo, mut hi) = (g, g + 1);
            for ll in l..fl {
                lo = csf.level_ptr[ll][lo] as usize;
                hi = csf.level_ptr[ll][hi] as usize;
            }
            let c = csf.level_idx[l][g];
            for a in &mut arr[lo..hi] {
                *a = c;
            }
        }
        anc.push(arr);
    }
    anc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{BuildOptions, Executor, GpuContext, GpuRun, KernelKind, LaunchArgs};
    use crate::reference;
    use dense::Matrix;
    use sptensor::synth::{standin, uniform_random, SynthConfig};
    use tensor_formats::BcsfOptions;

    fn build_and_run(
        ctx: &GpuContext,
        t: &sptensor::CooTensor,
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
            .build_run(KernelKind::Bcsf, t, factors, mode)
            .unwrap()
            .run
    }

    #[test]
    fn matches_reference_all_modes_3d() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[20, 24, 28], 1_200, 61);
        let factors = reference::random_factors(&t, 8, 31);
        for mode in 0..3 {
            for opts in [BcsfOptions::default(), BcsfOptions::unsplit()] {
                let run = build_and_run(&ctx, &t, &factors, mode, opts);
                let seq = reference::mttkrp(&t, &factors, mode);
                assert!(
                    crate::outputs_match(&run.y, &seq),
                    "mode {mode} {opts:?} diff {}",
                    run.y.rel_fro_diff(&seq)
                );
            }
        }
    }

    #[test]
    fn matches_reference_order4() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[10, 12, 8, 14], 900, 62);
        let factors = reference::random_factors(&t, 6, 32);
        for mode in 0..4 {
            let run = build_and_run(&ctx, &t, &factors, mode, BcsfOptions::default());
            let seq = reference::mttkrp(&t, &factors, mode);
            assert!(crate::outputs_match(&run.y, &seq), "mode {mode}");
        }
    }

    #[test]
    fn splitting_improves_skewed_tensor() {
        let ctx = GpuContext::tiny();
        let t = standin("darpa")
            .unwrap()
            .generate(&SynthConfig::tiny().with_nnz(20_000));
        let factors = reference::random_factors(&t, 8, 33);
        let unsplit = build_and_run(&ctx, &t, &factors, 0, BcsfOptions::unsplit());
        let split = build_and_run(&ctx, &t, &factors, 0, BcsfOptions::default());
        assert!(crate::outputs_match(&split.y, &unsplit.y));
        assert!(
            split.sim.makespan_cycles < unsplit.sim.makespan_cycles,
            "split {} should beat unsplit {}",
            split.sim.makespan_cycles,
            unsplit.sim.makespan_cycles
        );
        assert!(split.sim.sm_efficiency > unsplit.sim.sm_efficiency);
    }

    #[test]
    fn split_slices_use_atomics_unsplit_do_not() {
        let ctx = GpuContext::tiny();
        let mut t = sptensor::CooTensor::new(vec![4, 64, 128]);
        for j in 0..64u32 {
            for k in 0..32u32 {
                t.push(&[0, j, k], 1.0); // heavy slice: 2048 nnz
            }
        }
        t.push(&[1, 0, 0], 1.0);
        let factors = reference::random_factors(&t, 4, 34);
        let split = build_and_run(&ctx, &t, &factors, 0, BcsfOptions::default());
        assert!(split.sim.atomic_ops > 0);
        let unsplit = build_and_run(&ctx, &t, &factors, 0, BcsfOptions::unsplit());
        assert_eq!(unsplit.sim.atomic_ops, 0);
        assert!(crate::outputs_match(&split.y, &unsplit.y));
    }

    #[test]
    fn empty_tensor() {
        let ctx = GpuContext::tiny();
        let t = sptensor::CooTensor::new(vec![3, 3, 3]);
        let factors = reference::random_factors(&t, 4, 35);
        let run = build_and_run(&ctx, &t, &factors, 0, BcsfOptions::default());
        assert!(run.y.data().iter().all(|&v| v == 0.0));
        assert_eq!(run.sim.num_blocks, 0);
    }

    #[test]
    fn zero_fiber_block_assignment_does_not_panic() {
        // Regression: an empty fiber range used to make `per_warp == 0`
        // and panic in `step_by(0)`. It must emit an empty block instead.
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[10, 12, 14], 300, 63);
        let factors = reference::random_factors(&t, 4, 36);
        let perm = sptensor::mode_orientation(3, 0);
        let mut bcsf = Bcsf::build(&t, &perm, BcsfOptions::default());
        let f = bcsf.blocks[0].fiber_begin;
        bcsf.blocks.insert(
            0,
            tensor_formats::BlockAssignment {
                slice: 0,
                fiber_begin: f,
                fiber_end: f,
                needs_atomic: true,
            },
        );
        let run = Executor::new(ctx)
            .run(&bcsf, &LaunchArgs::new(&factors))
            .unwrap()
            .run;
        let seq = reference::mttkrp(&t, &factors, 0);
        assert!(crate::outputs_match(&run.y, &seq));
    }
}
