//! Naive GPU-CSF MTTKRP — the direct port of SPLATT's work mapping that
//! Table II profiles: one thread block per slice, fibers across warps, no
//! splitting. Structurally this is the B-CSF kernel with both splits
//! disabled, which is exactly how the paper frames it ("we term our GPU
//! implementation of CSF as B-CSF" after fixing this kernel's imbalance):
//! a [`Csf`](tensor_formats::Csf) captures as an unsplit
//! [`Bcsf`](tensor_formats::Bcsf) under the name `gpu-csf`, and its plan
//! keeps that B-CSF to re-emit from.

#[cfg(test)]
mod tests {
    use crate::gpu::{Executor, GpuContext, GpuRun, KernelKind, LaunchArgs};
    use crate::reference;
    use dense::Matrix;
    use sptensor::synth::{standin, uniform_random, SynthConfig};
    use sptensor::CooTensor;
    use tensor_formats::Csf;

    fn build_and_run(ctx: &GpuContext, t: &CooTensor, factors: &[Matrix], mode: usize) -> GpuRun {
        Executor::new(ctx.clone())
            .build_run(KernelKind::Csf, t, factors, mode)
            .unwrap()
            .run
    }

    #[test]
    fn matches_reference() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[15, 18, 21], 800, 71);
        let factors = reference::random_factors(&t, 8, 41);
        for mode in 0..3 {
            let run = build_and_run(&ctx, &t, &factors, mode);
            let seq = reference::mttkrp(&t, &factors, mode);
            assert!(crate::outputs_match(&run.y, &seq), "mode {mode}");
        }
    }

    #[test]
    fn one_block_per_slice_and_no_atomics() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[12, 20, 20], 500, 72);
        let factors = reference::random_factors(&t, 4, 42);
        let perm = sptensor::mode_orientation(3, 0);
        let csf = Csf::build(&t, &perm);
        let run = Executor::new(ctx)
            .run(&csf, &LaunchArgs::new(&factors))
            .unwrap()
            .run;
        assert_eq!(run.sim.num_blocks, csf.num_slices());
        assert_eq!(run.sim.atomic_ops, 0);
    }

    #[test]
    fn skewed_tensor_shows_low_sm_efficiency() {
        // The Table II signature: high slice-volume stdev -> poor balance.
        let ctx = GpuContext::tiny();
        let skew = standin("darpa")
            .unwrap()
            .generate(&SynthConfig::tiny().with_nnz(20_000));
        let uniform = uniform_random(&[236, 236, 2000], skew.nnz(), 73);
        let f_skew = reference::random_factors(&skew, 8, 43);
        let f_uni = reference::random_factors(&uniform, 8, 43);
        let r_skew = build_and_run(&ctx, &skew, &f_skew, 0);
        let r_uni = build_and_run(&ctx, &uniform, &f_uni, 0);
        assert!(
            r_skew.sim.sm_efficiency < r_uni.sim.sm_efficiency,
            "skewed {} should trail uniform {}",
            r_skew.sim.sm_efficiency,
            r_uni.sim.sm_efficiency
        );
    }
}
