//! CSL GPU MTTKRP — paper Algorithm 4.
//!
//! CSL slices are flat nonzero runs (no fiber level), so the kernel packs
//! *multiple slices per warp* (cutting at slice boundaries, ~128 nonzeros
//! per warp) instead of dedicating a block per slice — this packing is why
//! the ultra-sparse groups of HB-CSF keep the GPU occupied where GPU-CSF's
//! block-per-slice mapping starves it. A slice fully owned by one warp is
//! committed with a plain store; slices bigger than a warp's quota are
//! chunked across warps with atomic commits.

use gpu_sim::{AddressSpace, ArraySpan, BlockWork, Op, WarpWork};
use tensor_formats::Csl;

use super::common::{load_u32s, FactorAddrs};
use super::plan::{MemoryFootprint, PlanBuilder};

/// Target nonzeros per warp. One 32-wide chunk keeps CSL's block
/// granularity (16 warps × 32 = 512 nonzeros) identical to B-CSF's binning,
/// so the hybrid's groups balance against each other on the SM schedule.
pub const NNZ_PER_WARP: usize = 32;

pub(crate) struct CslSpans {
    pub slice_ptr: ArraySpan,
    pub slice_idx: ArraySpan,
    pub coord: Vec<ArraySpan>,
    pub vals: ArraySpan,
}

impl CslSpans {
    pub fn alloc(space: &mut AddressSpace, c: &Csl) -> CslSpans {
        CslSpans {
            slice_ptr: space.alloc_elems(c.slice_ptr.len(), 4),
            slice_idx: space.alloc_elems(c.slice_idx.len(), 4),
            coord: c
                .coord
                .iter()
                .map(|a| space.alloc_elems(a.len(), 4))
                .collect(),
            vals: space.alloc_elems(c.vals.len(), 4),
        }
    }
}

/// One warp's packed work: `(slice, z_lo, z_hi, atomic_commit)` items.
type WarpJob = Vec<(usize, usize, usize, bool)>;

/// Packs slices into warp jobs: whole small slices share warps; oversized
/// slices are chunked with atomic commits.
fn pack_warps(csl: &Csl, quota: usize) -> Vec<WarpJob> {
    let mut jobs: Vec<WarpJob> = Vec::new();
    let mut cur: WarpJob = Vec::new();
    let mut cur_nnz = 0usize;
    for s in 0..csl.num_slices() {
        let range = csl.slice_range(s);
        let len = range.len();
        if len > quota {
            if !cur.is_empty() {
                jobs.push(std::mem::take(&mut cur));
                cur_nnz = 0;
            }
            let mut lo = range.start;
            while lo < range.end {
                let hi = (lo + quota).min(range.end);
                jobs.push(vec![(s, lo, hi, true)]);
                lo = hi;
            }
            continue;
        }
        if cur_nnz + len > quota && !cur.is_empty() {
            jobs.push(std::mem::take(&mut cur));
            cur_nnz = 0;
        }
        cur.push((s, range.start, range.end, false));
        cur_nnz += len;
    }
    if !cur.is_empty() {
        jobs.push(cur);
    }
    jobs
}

/// The CSL capture body: lays out the arrays for rank `rank` and emits
/// every block into `pb`. The output mode is `csl.perm[0]`.
pub(crate) fn capture_into(csl: &Csl, rank: usize, warps_per_block: usize, pb: &mut PlanBuilder) {
    let mode = csl.perm[0];
    let mut space = AddressSpace::new();
    let fa = FactorAddrs::layout(&mut space, &csl.dims, rank, mode);
    let spans = CslSpans::alloc(&mut space, csl);
    pb.set_footprint(MemoryFootprint::from_layout(&space, &fa));
    emit(warps_per_block, csl, &fa, &spans, pb);
}

/// Emits the CSL kernel into the builder's launch and replay schedule.
pub(crate) fn emit(
    warps_per_block: usize,
    csl: &Csl,
    fa: &FactorAddrs,
    spans: &CslSpans,
    pb: &mut PlanBuilder,
) {
    let jobs = pack_warps(csl, NNZ_PER_WARP);

    for block_jobs in jobs.chunks(warps_per_block) {
        pb.begin_block();
        let mut block = BlockWork::new();
        for job in block_jobs {
            let mut w = WarpWork::new();
            // Batched metadata fetch: a job's slices are consecutive, so
            // one coalesced load covers all its pointers and indices, and
            // one streamed span covers its whole nonzero range.
            if let (Some(&(s0, z0, _, _)), Some(&(s1, _, z1, _))) = (job.first(), job.last()) {
                load_u32s(&mut w, spans.slice_ptr, s0, s1 - s0 + 2);
                load_u32s(&mut w, spans.slice_idx, s0, s1 - s0 + 1);
                for span in &spans.coord {
                    load_u32s(&mut w, *span, z0, z1 - z0);
                }
                load_u32s(&mut w, spans.vals, z0, z1 - z0);
            }
            for &(s, lo, hi, atomic) in job {
                let i = csl.slice_idx[s] as usize;
                for z in lo..hi {
                    // Alg. 4 line 9: Y(i,:) += val × Π product-mode rows —
                    // no per-fiber reduction, no extra addition.
                    pb.contrib(i, csl.vals[z]);
                    for (l, span_mode) in csl.perm[1..].iter().enumerate() {
                        let c = csl.coord[l][z] as usize;
                        fa.load_row(&mut w, *span_mode, c);
                        w.push(Op::Fma(fa.rank_steps));
                        pb.chain(*span_mode, c);
                    }
                }
                if atomic {
                    fa.atomic_y(&mut w, i);
                } else {
                    fa.store_y(&mut w, i);
                }
            }
            block.warps.push(w);
        }
        pb.push_block(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{Executor, GpuContext, GpuRun, KernelKind};
    use crate::reference;
    use dense::Matrix;
    use sptensor::synth::{standin, uniform_random, SynthConfig};

    fn build_and_run(
        ctx: &GpuContext,
        t: &sptensor::CooTensor,
        factors: &[Matrix],
        mode: usize,
    ) -> GpuRun {
        Executor::new(ctx.clone())
            .build_run(KernelKind::Csl, t, factors, mode)
            .unwrap()
            .run
    }

    #[test]
    fn matches_reference_all_modes() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[20, 22, 24], 900, 81);
        let factors = reference::random_factors(&t, 8, 51);
        for mode in 0..3 {
            let run = build_and_run(&ctx, &t, &factors, mode);
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
        let t = uniform_random(&[8, 10, 12, 14], 700, 82);
        let factors = reference::random_factors(&t, 4, 52);
        for mode in 0..4 {
            let run = build_and_run(&ctx, &t, &factors, mode);
            let seq = reference::mttkrp(&t, &factors, mode);
            assert!(crate::outputs_match(&run.y, &seq), "mode {mode}");
        }
    }

    #[test]
    fn small_slices_pack_many_per_warp() {
        let t = standin("fr_m")
            .unwrap()
            .generate(&SynthConfig::tiny().with_nnz(20_000));
        let perm = sptensor::mode_orientation(3, 0);
        let csl = Csl::build(&t, &perm);
        let jobs = pack_warps(&csl, NNZ_PER_WARP);
        // Warps that pack whole slices must dominate, and within them the
        // mean slices per warp must be well above 1 for freebase-like data.
        let packed: Vec<&WarpJob> = jobs.iter().filter(|j| !j[0].3).collect();
        let packed_slices: usize = packed.iter().map(|j| j.len()).sum();
        assert!(
            packed_slices as f64 / packed.len() as f64 > 3.0,
            "mean slices per packed warp too low"
        );
        // Only the rare over-quota slices are chunked with atomics: the
        // number of *distinct* chunked slices must be a tiny fraction of
        // all slices (their chunk counts can be large — that is the heavy
        // tail itself, not a packing defect).
        let chunked: std::collections::HashSet<usize> = jobs
            .iter()
            .flatten()
            .filter(|&&(_, _, _, a)| a)
            .map(|&(s, _, _, _)| s)
            .collect();
        assert!(
            (chunked.len() as f64) < 0.05 * csl.num_slices() as f64,
            "{} of {} slices chunked",
            chunked.len(),
            csl.num_slices()
        );
    }

    #[test]
    fn oversized_slice_is_chunked_with_atomics() {
        let mut t = sptensor::CooTensor::new(vec![2, 600, 2]);
        for j in 0..600u32 {
            t.push(&[0, j, 0], 1.0);
        }
        let ctx = GpuContext::tiny();
        let factors = reference::random_factors(&t, 4, 53);
        let run = build_and_run(&ctx, &t, &factors, 0);
        assert!(run.sim.atomic_ops > 0);
        let seq = reference::mttkrp(&t, &factors, 0);
        assert!(crate::outputs_match(&run.y, &seq));
    }

    #[test]
    fn empty_tensor() {
        let ctx = GpuContext::tiny();
        let t = sptensor::CooTensor::new(vec![3, 3, 3]);
        let factors = reference::random_factors(&t, 4, 54);
        let run = build_and_run(&ctx, &t, &factors, 0);
        assert_eq!(run.sim.num_blocks, 0);
        assert!(run.y.data().iter().all(|&v| v == 0.0));
    }
}
