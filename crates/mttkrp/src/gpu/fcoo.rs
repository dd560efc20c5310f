//! F-COO GPU MTTKRP — the segmented-scan baseline of Liu et al.
//!
//! Work mapping (per the F-COO paper): each thread owns `threadlen`
//! *consecutive* nonzeros; a warp therefore covers `32 × threadlen`
//! nonzeros but reads the index/value arrays with a `threadlen`-strided
//! pattern (lane `l` starts at `base + l·threadlen`) — less coalesced than
//! the chunked kernels, which the emission reproduces faithfully. Partial
//! products are combined by a warp segmented scan keyed on the bit flags;
//! interior output rows are stored directly, while first/last (possibly
//! warp-spanning) rows spill R-wide partials to global memory for a second
//! reduction pass — F-COO's two-kernel structure.
//!
//! The lane-per-nonzero layout has a second cost the rank-on-lanes kernels
//! avoid: each thread's sequential rank loop fetches its factor rows as
//! per-lane float4 transactions (8 per 32-float row) instead of one
//! coalesced segment. The emission charges these as [`Op::Replay`]
//! transactions; this is the documented model behind Fig. 15's 3-4×
//! HB-CSF advantage (see EXPERIMENTS.md).
//!
//! Third-order only, like the real framework (missing 4-D bars in Fig. 15).

use gpu_sim::{AddressSpace, ArraySpan, BlockWork, Op, WarpWork};
use tensor_formats::Fcoo;

use super::common::{FactorAddrs, GpuContext};
use super::plan::{MemoryFootprint, Plan, PlanBuilder};

/// Default per-thread chunk length (the framework's tuning sweet spot in
/// our packing; the paper tunes over {8, 16, 32, 64}).
pub const DEFAULT_THREADLEN: usize = 8;

/// Captures the F-COO kernel (both passes) as a replayable [`Plan`];
/// output mode is `fcoo.perm[0]`. The capture body behind [`Fcoo`]'s
/// `MttkrpKernel` impl.
///
/// # Panics
/// If the tensor is not third-order.
pub(crate) fn plan_impl(ctx: &GpuContext, fcoo: &Fcoo, rank: usize) -> Plan {
    assert_eq!(
        fcoo.order(),
        3,
        "F-COO supports only third-order tensors (paper Fig. 15)"
    );
    let r = rank;
    let mode = fcoo.perm[0];
    let mut space = AddressSpace::new();
    let fa = FactorAddrs::layout(&mut space, &fcoo.dims, r, mode);
    let coord_spans: Vec<ArraySpan> = fcoo
        .coord
        .iter()
        .map(|a| space.alloc_elems(a.len(), 4))
        .collect();
    let vals_span = space.alloc_elems(fcoo.vals.len(), 4);
    let flag_span = space.alloc(2 * (fcoo.nnz() as u64).div_ceil(8));
    // Per-warp boundary-partial spill buffer (two R-wide rows per warp):
    // F-COO's first pass cannot commit its first/last segments because a
    // slice can span warps, so they go to global memory and a second
    // reduction pass folds them into Y.
    let warp_span_len = 32 * fcoo.threadlen;
    let num_warps = fcoo.nnz().div_ceil(warp_span_len.max(1));
    let partials_span = space.alloc(
        (num_warps as u64)
            .saturating_mul(r as u64)
            .saturating_mul(2 * 4),
    );

    let tl = fcoo.threadlen;
    let warp_span = 32 * tl;

    let mut pb = PlanBuilder::new("f-coo-gpu", mode, rank, fcoo.dims[mode] as usize);
    pb.set_footprint(MemoryFootprint::from_layout(&space, &fa));
    let mut warp_base = 0usize;
    let mut boundary_rows: Vec<u32> = Vec::new();
    'outer: loop {
        pb.begin_block();
        let mut block = BlockWork::new();
        for _ in 0..ctx.warps_per_block {
            if warp_base >= fcoo.nnz() {
                if !block.warps.is_empty() {
                    pb.launch.blocks.push(block);
                }
                break 'outer;
            }
            let warp_end = (warp_base + warp_span).min(fcoo.nnz());
            let mut w = WarpWork::new();

            // Flag bits for the span (tiny, coalesced).
            w.load_span(
                flag_span.base + warp_base as u64 / 8,
                ((warp_end - warp_base) as u64).div_ceil(8),
            );

            // Strided index/value loads: one pass per of the `threadlen`
            // per-thread steps, lanes `threadlen` entries apart.
            for step in 0..tl {
                for span in coord_spans.iter().chain(std::iter::once(&vals_span)) {
                    emit_strided_step(&mut w, *span, warp_base, warp_end, tl, step);
                }
            }

            // Per nonzero: product-mode factor rows (uncoalesced across
            // lanes) and the sequential rank loop's FMAs per step.
            for step in 0..tl {
                let mut any = false;
                for lane in 0..32 {
                    let z = warp_base + lane * tl + step;
                    if z >= warp_end {
                        break;
                    }
                    any = true;
                    for (l, &pm) in fcoo.perm[1..].iter().enumerate() {
                        fa.load_row(&mut w, pm, fcoo.coord[l][z] as usize);
                        // Lane-per-nonzero layout: the thread's sequential
                        // rank loop re-fetches its row as per-lane float4
                        // transactions — 8 per 32-float row — instead of
                        // one coalesced segment. 7 replays per row per
                        // rank-step beyond the initial fetch.
                        w.push(Op::Replay(7 * fa.rank_steps));
                    }
                }
                if any {
                    w.push(Op::Fma(r as u32 * 2));
                }
            }

            // Warp segmented scan (log2(32) shuffle rounds per rank step).
            w.push(Op::Sync(5 * fa.rank_steps));

            // Semantic accumulation + commits. Interior output rows (fully
            // contained in this warp's span) are written directly; the
            // first and last rows may span warps, so their partials spill
            // to global memory for the second reduction pass.
            let first_chunk = warp_base / tl;
            let warp_id = warp_base / warp_span;
            let mut ordinal = fcoo.chunk_start_slice[first_chunk] as i64;
            if fcoo.slice_flag.get(warp_base) {
                ordinal -= 1; // flag at the base re-increments below
            }
            let first_ordinal = fcoo.chunk_start_slice[first_chunk] as i64;
            let last_ordinal = {
                // Ordinal of the row active at the last nonzero.
                let mut o = ordinal;
                for z in warp_base..warp_end {
                    if fcoo.slice_flag.get(z) {
                        o += 1;
                    }
                }
                o
            };
            let mut committed: i64 = -1;
            for z in warp_base..warp_end {
                if fcoo.slice_flag.get(z) {
                    ordinal += 1;
                }
                let i = fcoo.slice_ids[ordinal as usize] as usize;
                pb.contrib(i, fcoo.vals[z]);
                for (l, &pm) in fcoo.perm[1..].iter().enumerate() {
                    pb.chain(pm, fcoo.coord[l][z] as usize);
                }
                if ordinal != committed {
                    if ordinal == first_ordinal || ordinal == last_ordinal {
                        // Boundary partial: spill one R-wide row per end.
                        let slot = 2 * warp_id + usize::from(ordinal == last_ordinal);
                        let off = (slot as u64).saturating_mul(r as u64).saturating_mul(4);
                        w.store_span(partials_span.base + off, fa.row_bytes);
                        boundary_rows.push(i as u32);
                    } else {
                        fa.store_y(&mut w, i);
                    }
                    committed = ordinal;
                }
            }

            block.warps.push(w);
            warp_base = warp_end;
        }
        pb.launch.blocks.push(block);
    }

    // ---- Pass 2: global segmented reduction of the spilled boundary
    // partials (F-COO's second kernel): load each partial row, fold it
    // into Y atomically.
    // These reduction blocks commit no semantic contributions, so a flip
    // drawn for one of them lands in dead state — the realistic fate of a
    // flip hitting a block with no live accumulator.
    let mut idx = 0usize;
    while idx < boundary_rows.len() {
        pb.begin_block();
        let mut block = BlockWork::new();
        for _ in 0..ctx.warps_per_block {
            if idx >= boundary_rows.len() {
                break;
            }
            let end = (idx + 32).min(boundary_rows.len());
            let mut w = WarpWork::new();
            for (off, &row) in boundary_rows[idx..end].iter().enumerate() {
                let poff = ((idx + off) as u64)
                    .saturating_mul(r as u64)
                    .saturating_mul(4);
                w.load_span(partials_span.base + poff, fa.row_bytes);
                fa.atomic_y(&mut w, row as usize);
            }
            block.warps.push(w);
            idx = end;
        }
        pb.launch.blocks.push(block);
    }

    pb.finish(ctx)
}

/// Emits the segments touched when 32 lanes read 4-byte entries at
/// positions `base + lane·threadlen + step` (deduplicating within the
/// instruction, as the hardware coalescer would).
fn emit_strided_step(
    w: &mut WarpWork,
    span: ArraySpan,
    base: usize,
    end: usize,
    threadlen: usize,
    step: usize,
) {
    let mut prev = u64::MAX;
    for lane in 0..32 {
        let z = base + lane * threadlen + step;
        if z >= end {
            break;
        }
        let seg = span.elem(z, 4) / gpu_sim::grid::SEG_BYTES;
        if seg != prev {
            w.push(Op::Load(seg));
            prev = seg;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{
        AnyFormat, BuildOptions, Executor, GpuRun, KernelKind, LaunchArgs, LaunchError,
        MttkrpKernel,
    };
    use crate::reference;
    use dense::Matrix;
    use sptensor::synth::{standin, uniform_random, SynthConfig};

    fn build_and_run(
        ctx: &GpuContext,
        t: &sptensor::CooTensor,
        factors: &[Matrix],
        mode: usize,
        threadlen: usize,
    ) -> GpuRun {
        let opts = BuildOptions {
            fcoo_threadlen: threadlen,
            ..BuildOptions::default()
        };
        Executor::new(ctx.clone())
            .with_build(opts)
            .build_run(KernelKind::Fcoo, t, factors, mode)
            .unwrap()
            .run
    }

    #[test]
    fn matches_reference_all_modes_and_threadlens() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[18, 20, 22], 900, 91);
        let factors = reference::random_factors(&t, 8, 61);
        for mode in 0..3 {
            for tl in [1, 4, 8, 32] {
                let run = build_and_run(&ctx, &t, &factors, mode, tl);
                let seq = reference::mttkrp(&t, &factors, mode);
                assert!(
                    crate::outputs_match(&run.y, &seq),
                    "mode {mode} threadlen {tl} diff {}",
                    run.y.rel_fro_diff(&seq)
                );
            }
        }
    }

    #[test]
    fn rejects_4d() {
        // The unified builder turns the old panic into a typed error.
        let t = uniform_random(&[4, 4, 4, 4], 50, 92);
        assert!(matches!(
            AnyFormat::build(KernelKind::Fcoo, &t, 0, &BuildOptions::default()),
            Err(LaunchError::OrderUnsupported { order: 4, .. })
        ));
    }

    #[test]
    fn fewer_atomics_than_parti_on_long_slices() {
        let ctx = GpuContext::tiny();
        // Long slices: segmented scan folds most updates in-warp.
        let mut t = sptensor::CooTensor::new(vec![8, 400, 4]);
        for i in 0..8u32 {
            for j in 0..300u32 {
                t.push(&[i, j, (j % 4)], 1.0);
            }
        }
        let factors = reference::random_factors(&t, 8, 63);
        let f = build_and_run(&ctx, &t, &factors, 0, 8);
        let coo = AnyFormat::build(KernelKind::Coo, &t, 0, &BuildOptions::default()).unwrap();
        let p = Executor::new(ctx.clone())
            .run(&coo, &LaunchArgs::new(&factors))
            .unwrap()
            .run;
        assert_eq!(coo.kernel_name(), "parti-coo-gpu");
        assert!(crate::outputs_match(&f.y, &p.y));
        assert!(
            f.sim.atomic_ops * 4 < p.sim.atomic_ops,
            "fcoo {} vs parti {}",
            f.sim.atomic_ops,
            p.sim.atomic_ops
        );
    }

    #[test]
    fn correct_on_singleton_standin() {
        let ctx = GpuContext::tiny();
        let t = standin("fr_s").unwrap().generate(&SynthConfig::tiny());
        let factors = reference::random_factors(&t, 8, 64);
        let run = build_and_run(&ctx, &t, &factors, 0, DEFAULT_THREADLEN);
        let seq = reference::mttkrp(&t, &factors, 0);
        assert!(crate::outputs_match(&run.y, &seq));
    }

    #[test]
    fn empty_tensor() {
        let ctx = GpuContext::tiny();
        let t = sptensor::CooTensor::new(vec![3, 3, 3]);
        let factors = reference::random_factors(&t, 4, 65);
        let run = build_and_run(&ctx, &t, &factors, 0, 8);
        assert_eq!(run.sim.num_blocks, 0);
    }
}
