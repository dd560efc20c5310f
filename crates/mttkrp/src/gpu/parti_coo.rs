//! ParTI-style GPU COO MTTKRP: parallelize over nonzeros, `atomicAdd` the
//! output row of every nonzero ("ParTI! stores the input tensor in COO
//! format and parallelizes over nonzeros. It performs an atomic add when
//! combining nonzero products to the same data").
//!
//! Like the real framework, this kernel supports third-order tensors only —
//! the missing 4-D bars of Fig. 14 are reproduced by construction.

use gpu_sim::{AddressSpace, BlockWork, Op, WarpWork};
use sptensor::CooTensor;

use super::common::{load_u32s, FactorAddrs};
use super::plan::{MemoryFootprint, PlanBuilder};

/// Nonzeros handled by one warp (rank across lanes; nonzeros serial).
const NNZ_PER_WARP: usize = 32;

/// The ParTI-COO capture body for output mode `mode` and rank `rank`,
/// behind [`AnyFormat::Coo`](super::AnyFormat).
///
/// # Panics
/// If the tensor is not third-order (the ParTI-GPU limitation).
pub(crate) fn capture_into(
    t: &CooTensor,
    mode: usize,
    rank: usize,
    warps_per_block: usize,
    pb: &mut PlanBuilder,
) {
    assert_eq!(
        t.order(),
        3,
        "ParTI-GPU supports only third-order tensors (paper Fig. 14)"
    );
    let mut space = AddressSpace::new();
    let fa = FactorAddrs::layout(&mut space, t.dims(), rank, mode);
    let idx_spans: Vec<_> = (0..3).map(|_| space.alloc_elems(t.nnz(), 4)).collect();
    let vals_span = space.alloc_elems(t.nnz(), 4);

    let product_modes: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
    let nnz_per_block = NNZ_PER_WARP * warps_per_block;

    pb.set_footprint(MemoryFootprint::from_layout(&space, &fa));
    for block_start in (0..t.nnz()).step_by(nnz_per_block) {
        pb.begin_block();
        let mut block = BlockWork::new();
        let block_end = (block_start + nnz_per_block).min(t.nnz());
        for warp_start in (block_start..block_end).step_by(NNZ_PER_WARP) {
            let warp_end = (warp_start + NNZ_PER_WARP).min(block_end);
            let len = warp_end - warp_start;
            let mut w = WarpWork::new();
            // Stream the index tuples and values for this warp's chunk.
            for span in &idx_spans {
                load_u32s(&mut w, *span, warp_start, len);
            }
            load_u32s(&mut w, vals_span, warp_start, len);
            for z in warp_start..warp_end {
                // Product across the non-output factor rows, rank across
                // lanes, then one atomic row update per nonzero.
                let i = t.mode_indices(mode)[z] as usize;
                pb.contrib(i, t.values()[z]);
                for &m in &product_modes {
                    let j = t.mode_indices(m)[z] as usize;
                    fa.load_row(&mut w, m, j);
                    w.push(Op::Fma(fa.rank_steps));
                    pb.chain(m, j);
                }
                fa.atomic_y(&mut w, i);
            }
            block.warps.push(w);
        }
        pb.push_block(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{
        AnyFormat, BuildOptions, Executor, GpuContext, GpuRun, KernelKind, LaunchError,
    };
    use crate::reference;
    use dense::Matrix;
    use sptensor::synth::{standin, uniform_random, SynthConfig};

    fn run(ctx: &GpuContext, t: &CooTensor, factors: &[Matrix], mode: usize) -> GpuRun {
        Executor::new(ctx.clone())
            .build_run(KernelKind::Coo, t, factors, mode)
            .unwrap()
            .run
    }

    #[test]
    fn matches_reference_all_modes() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[20, 25, 30], 1_000, 51);
        let factors = reference::random_factors(&t, 8, 21);
        for mode in 0..3 {
            let run = run(&ctx, &t, &factors, mode);
            let seq = reference::mttkrp(&t, &factors, mode);
            assert!(
                crate::outputs_match(&run.y, &seq),
                "mode {mode} diff {}",
                run.y.rel_fro_diff(&seq)
            );
            assert!(run.sim.atomic_ops as usize >= t.nnz());
        }
    }

    #[test]
    fn rejects_4d_like_the_real_framework() {
        // The unified builder turns the old panic into a typed error.
        let t = uniform_random(&[5, 5, 5, 5], 50, 52);
        assert!(matches!(
            AnyFormat::build(KernelKind::Coo, &t, 0, &BuildOptions::default()),
            Err(LaunchError::OrderUnsupported { order: 4, .. })
        ));
    }

    #[test]
    fn hot_rows_pay_conflict_surcharge() {
        let ctx = GpuContext::tiny();
        // All nonzeros share output row 0 vs. spread rows.
        let mut hot = sptensor::CooTensor::new(vec![512, 64, 64]);
        let mut cold = sptensor::CooTensor::new(vec![512, 64, 64]);
        for n in 0..512u32 {
            hot.push(&[0, n % 64, (n / 64) % 64], 1.0);
            cold.push(&[n % 512, n % 64, (n / 64) % 64], 1.0);
        }
        let f_hot = reference::random_factors(&hot, 8, 23);
        let r_hot = run(&ctx, &hot, &f_hot, 0);
        let r_cold = run(&ctx, &cold, &f_hot, 0);
        assert!(
            r_hot.sim.makespan_cycles > 1.2 * r_cold.sim.makespan_cycles,
            "hot {} cold {}",
            r_hot.sim.makespan_cycles,
            r_cold.sim.makespan_cycles
        );
    }

    #[test]
    fn block_count_matches_packing() {
        let ctx = GpuContext::tiny(); // 4 warps/block × 32 = 128 nnz/block
        let t = uniform_random(&[30, 30, 30], 1_000, 53);
        let factors = reference::random_factors(&t, 4, 24);
        let run = run(&ctx, &t, &factors, 0);
        assert_eq!(run.sim.num_blocks, t.nnz().div_ceil(128));
    }

    #[test]
    fn correct_on_skewed_standin() {
        let ctx = GpuContext::tiny();
        let t = standin("darpa").unwrap().generate(&SynthConfig::tiny());
        let factors = reference::random_factors(&t, 8, 25);
        let run = run(&ctx, &t, &factors, 0);
        let seq = reference::mttkrp(&t, &factors, 0);
        assert!(crate::outputs_match(&run.y, &seq));
    }
}
