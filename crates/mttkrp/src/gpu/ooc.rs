//! Out-of-core tiled MTTKRP execution with a graceful-degradation ladder.
//!
//! When a captured [`Plan`]'s [`MemoryFootprint`] exceeds the context's
//! device-memory capacity — or a seeded OOM fault refuses an allocation
//! mid-run — [`execute_adaptive`] degrades instead of failing:
//!
//! 1. **Full device.** If the whole footprint fits, lease it (checked)
//!    and run the ordinary replay.
//! 2. **Tiled.** Partition the captured
//!    [`ReplaySchedule`](super::ReplaySchedule) into consecutive
//!    *block ranges* whose resident set (factors + output)
//!    plus format share each fit the byte budget, and stream the tiles
//!    through the simulator one lease at a time. If an injected OOM kills
//!    a tile, discard the partial output and retry the whole attempt at
//!    half the budget, up to [`OocOptions::max_shrinks`] times.
//! 3. **CPU.** Fall back to the sequential [`crate::reference::mttkrp`].
//!
//! Tiles are ranges of the *captured schedule*, never rebuilt sub-tensor
//! formats: tiling only moves the parallel batch boundaries, while the
//! ordered per-contribution fold into `y` is unchanged — so tiled output
//! is bit-for-bit identical to untiled replay for every kernel, any tile
//! size, by construction. Under an active execution-fault plan the tiles
//! route through one [`AbftSink`](super::AbftSink) using *global* block
//! ordinals, so injected faults and checksums also match the untiled run
//! exactly. The CPU rung uses a different summation order and is
//! therefore *not* bit-identical — clean capacity-constrained runs never
//! reach it (the packer only refuses when a budget cannot hold even one
//! block, and budgets start at the effective capacity), only
//! injected-OOM runs can be driven there.
//!
//! Every decision is recorded in a [`MemReport`]: the ladder steps taken,
//! tile counts, budgets, OOM events, and the high-water mark — all
//! deterministic under a fixed seed.

use dense::Matrix;
use gpu_sim::{MemError, SimResult};
use simprof::FieldValue;
use sptensor::CooTensor;

use super::common::{GpuContext, GpuRun};
use super::plan::{MemoryFootprint, Plan};

/// Knobs for the degradation ladder.
#[derive(Debug, Clone, Copy)]
pub struct OocOptions {
    /// Budget halvings to attempt after the first tiled rung fails
    /// (injected OOM) before falling back to the CPU reference.
    pub max_shrinks: u32,
}

impl Default for OocOptions {
    fn default() -> Self {
        OocOptions { max_shrinks: 3 }
    }
}

/// One rung attempted on the degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct LadderStep {
    /// `"full-device"`, `"tiled"`, or `"cpu"`.
    pub rung: String,
    /// Byte budget the rung ran under (0 for the CPU rung).
    pub budget_bytes: u64,
    /// Tiles the rung planned (1 for full-device, 0 for CPU).
    pub tiles: usize,
    /// `"ok"`, `"oom-injected"`, `"exceeds-capacity"`,
    /// `"budget-too-small"`, or `"untileable"` (single-block schedule
    /// that no budget could split further).
    pub outcome: String,
}

/// The memory story of one adaptive execution, deterministic under a
/// fixed seed.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct MemReport {
    pub kernel: String,
    pub mode: usize,
    /// The plan's full-device footprint.
    pub footprint_bytes: u64,
    /// Configured device capacity (`u64::MAX` = unlimited).
    pub capacity_bytes: u64,
    /// Whether the run completed on the full-device rung.
    pub in_core: bool,
    /// Tiles executed by the successful tiled attempt (0 otherwise).
    pub tiles_run: usize,
    /// Byte budget of the successful tiled attempt (0 otherwise).
    pub tile_budget_bytes: u64,
    /// Allocation refusals across all rungs (injected + genuine).
    pub oom_events: u64,
    /// Whether the run ended on the CPU reference rung.
    pub cpu_fallback: bool,
    /// Device high-water mark after the run.
    pub high_water_bytes: u64,
    /// Every rung attempted, in order.
    pub ladder: Vec<LadderStep>,
}

impl MemReport {
    /// Folds this execution into an accumulating manifest record.
    pub fn absorb_into(&self, rec: &mut simprof::MemoryRecord) {
        rec.footprint_bytes = rec.footprint_bytes.max(self.footprint_bytes);
        if self.capacity_bytes != u64::MAX {
            rec.capacity_bytes = rec.capacity_bytes.max(self.capacity_bytes);
        }
        rec.high_water_bytes = rec.high_water_bytes.max(self.high_water_bytes);
        rec.oom_events += self.oom_events;
        if self.in_core {
            rec.in_core_launches += 1;
        } else if self.cpu_fallback {
            rec.cpu_fallbacks += 1;
        } else {
            rec.tiled_launches += 1;
            rec.tiles_run += self.tiles_run as u64;
        }
        rec.ladder_shrinks += self
            .ladder
            .iter()
            .filter(|s| s.rung == "tiled" && s.outcome != "ok")
            .count() as u64;
        for step in &self.ladder {
            rec.events.push(simprof::MemEventRecord {
                kernel: self.kernel.clone(),
                mode: self.mode,
                rung: step.rung.clone(),
                budget_bytes: step.budget_bytes,
                tiles: step.tiles,
                outcome: step.outcome.clone(),
            });
        }
    }
}

/// Packs schedule blocks `0..len(weights)-1` into consecutive tiles whose
/// bytes fit `budget`: each tile pays the resident set (factors + output)
/// plus its weight-proportional share of the format arrays. Every part is
/// rounded up to `mem`'s allocation granularity — the lease that backs
/// the tile pads the same way, so a packing that ignored padding would
/// OOM at the budget boundary. Returns `None` when even a single block
/// cannot fit — the caller must degrade.
pub fn plan_tiles(
    plan: &Plan,
    budget: u64,
    mem: &gpu_sim::DeviceMemory,
) -> Option<Vec<(usize, usize)>> {
    let nblocks = plan.block_weight_prefix().len() - 1;
    plan_tiles_range(plan, budget, mem, 0, nblocks)
}

/// [`plan_tiles`] restricted to the schedule-block range `range_b0 ..
/// range_b1` — the per-device packer of the sharded engine, which carves
/// one device's shard into tiles that fit that device's memory. The
/// resident set (factors + output) is charged in full per tile; format
/// bytes are charged by weight share exactly as in the whole-plan case.
pub(crate) fn plan_tiles_range(
    plan: &Plan,
    budget: u64,
    mem: &gpu_sim::DeviceMemory,
    range_b0: usize,
    range_b1: usize,
) -> Option<Vec<(usize, usize)>> {
    let fp = plan.footprint();
    let prefix = plan.block_weight_prefix();
    let nblocks = prefix.len() - 1;
    let range_b1 = range_b1.min(nblocks);
    if range_b0 >= range_b1 {
        return Some(vec![]);
    }
    let pad = |b: u64| mem.pad(b).unwrap_or(u64::MAX);
    let resident = pad(fp.factor_bytes).saturating_add(pad(fp.output_bytes));
    if resident >= budget {
        return None;
    }
    let avail = budget - resident;
    let share = |b0: usize, b1: usize| pad(format_share(fp, &prefix, b0, b1));
    let mut tiles = Vec::new();
    let mut b0 = range_b0;
    while b0 < range_b1 {
        if share(b0, b0 + 1) > avail {
            return None;
        }
        // Greedy: extend while the format share still fits (the share is
        // monotone in b1, so the first overflow ends the tile).
        let mut b1 = b0 + 1;
        while b1 < range_b1 && share(b0, b1 + 1) <= avail {
            b1 += 1;
        }
        tiles.push((b0, b1));
        b0 = b1;
    }
    Some(tiles)
}

/// Bytes of the format arrays attributed to schedule blocks `b0..b1`:
/// `ceil(format_bytes × (W[b1] − W[b0]) / W_total)`, exact in u128.
pub(crate) fn format_share(fp: &MemoryFootprint, prefix: &[u64], b0: usize, b1: usize) -> u64 {
    let total = prefix[prefix.len() - 1].max(1);
    let w = prefix[b1] - prefix[b0];
    let num = u128::from(fp.format_bytes) * u128::from(w);
    let den = u128::from(total);
    u64::try_from(num.div_ceil(den)).unwrap_or(u64::MAX)
}

/// Fault-draw site for checked leases: rung 0 is the full-device lease,
/// tiled rung `r` (0-based shrink count) uses `((r + 1) << 32) | tile`.
fn lease_site(shrink_rung: u64, tile: u64) -> u64 {
    ((shrink_rung + 1) << 32) | tile
}

/// Runs `plan` under the degradation ladder; see the module docs. Returns
/// the run (bit-identical to [`Plan::execute`] whenever a GPU rung wins)
/// and the full memory story.
pub fn execute_adaptive(
    ctx: &GpuContext,
    plan: &Plan,
    factors: &[Matrix],
    t: &CooTensor,
    opts: &OocOptions,
) -> (GpuRun, MemReport) {
    let fp = *plan.footprint();
    let mem_plan = ctx.mem_fault_plan().cloned();
    let capacity = ctx.memory.effective_capacity(mem_plan.as_ref());
    let mut report = MemReport {
        kernel: plan.name().to_string(),
        mode: plan.mode(),
        footprint_bytes: fp.total_bytes(),
        capacity_bytes: ctx.memory.capacity(),
        ..MemReport::default()
    };

    // Rung 0: the whole footprint at once (padded the way the lease will
    // pad it, so the check and the allocation agree at the boundary).
    let padded_footprint = [fp.factor_bytes, fp.output_bytes, fp.format_bytes]
        .iter()
        .map(|&b| ctx.memory.pad(b).unwrap_or(u64::MAX))
        .fold(0u64, u64::saturating_add);
    if padded_footprint <= capacity {
        match ctx
            .memory
            .try_lease(plan.name(), &plan.footprint_parts(), mem_plan.as_ref(), 0)
        {
            Ok(_lease) => {
                let run = plan.execute_inner(ctx, factors);
                report.in_core = true;
                push_step(&mut report, "full-device", capacity, 1, "ok");
                return finish(ctx, run, report);
            }
            Err(e) => {
                report.oom_events += 1;
                push_step(&mut report, "full-device", capacity, 1, outcome_of(&e));
            }
        }
    } else {
        push_step(&mut report, "full-device", capacity, 1, "exceeds-capacity");
    }

    // Tiled rungs: capacity budget, then halvings.
    let mut budget = capacity;
    for shrink in 0..=u64::from(opts.max_shrinks) {
        if shrink > 0 {
            budget /= 2;
        }
        let Some(tiles) = plan_tiles(plan, budget, &ctx.memory) else {
            // Distinguish "no budget would ever help" from "this budget is
            // too small": a single-block schedule cannot be split, so the
            // halving loop would only re-discover the same failure.
            if plan.block_weight_prefix().len() - 1 <= 1 {
                push_step(&mut report, "tiled", budget, 0, "untileable");
            } else {
                push_step(&mut report, "tiled", budget, 0, "budget-too-small");
            }
            break;
        };
        match run_tiled(
            ctx,
            plan,
            factors,
            &tiles,
            budget,
            shrink,
            mem_plan.as_ref(),
        ) {
            Ok(run) => {
                report.tiles_run = tiles.len();
                report.tile_budget_bytes = budget;
                push_step(&mut report, "tiled", budget, tiles.len(), "ok");
                return finish(ctx, run, report);
            }
            Err(e) => {
                report.oom_events += 1;
                push_step(&mut report, "tiled", budget, tiles.len(), outcome_of(&e));
            }
        }
    }

    // Final rung: the sequential CPU reference (different summation order
    // — correct to f32 tolerance, not bit-identical to the GPU fold).
    report.cpu_fallback = true;
    push_step(&mut report, "cpu", 0, 0, "ok");
    let y = crate::reference::mttkrp(t, factors, plan.mode());
    let run = GpuRun {
        y,
        sim: cpu_fallback_sim(plan),
        profile: None,
        abft: None,
    };
    finish(ctx, run, report)
}

fn push_step(report: &mut MemReport, rung: &str, budget: u64, tiles: usize, outcome: &str) {
    report.ladder.push(LadderStep {
        rung: rung.to_string(),
        budget_bytes: budget,
        tiles,
        outcome: outcome.to_string(),
    });
}

fn outcome_of(e: &MemError) -> &'static str {
    match e {
        MemError::Injected { .. } => "oom-injected",
        _ => "exceeds-capacity",
    }
}

fn finish(ctx: &GpuContext, run: GpuRun, mut report: MemReport) -> (GpuRun, MemReport) {
    report.high_water_bytes = ctx.memory.high_water();
    if ctx.profiling() {
        ctx.registry.add("ooc.executions", 1);
        if !report.in_core {
            ctx.registry.add("ooc.tiles", report.tiles_run as u64);
        }
        if report.cpu_fallback {
            ctx.registry.add("ooc.cpu_fallbacks", 1);
        }
        ctx.registry.add("ooc.oom_events", report.oom_events);
    }
    let tel = &ctx.telemetry;
    if tel.enabled() {
        // One span covers the whole adaptive decision: every rung
        // attempted, in order, plus the replay event when a non-in-core
        // rung produced the result.
        let span = tel.new_span();
        for step in &report.ladder {
            tel.emit(
                "ladder-step",
                None,
                span,
                &[
                    ("kernel", FieldValue::from(report.kernel.as_str())),
                    ("mode", FieldValue::from(report.mode)),
                    ("rung", FieldValue::from(step.rung.as_str())),
                    ("budget_bytes", FieldValue::from(step.budget_bytes)),
                    ("tiles", FieldValue::from(step.tiles)),
                    ("outcome", FieldValue::from(step.outcome.as_str())),
                ],
            );
        }
        if !report.in_core && !report.cpu_fallback {
            tel.emit(
                "kernel-replay",
                None,
                span,
                &[
                    ("kernel", FieldValue::from(run.sim.kernel.as_str())),
                    ("mode", FieldValue::from(report.mode)),
                    ("sim_kernel_us", FieldValue::from(run.sim.time_s * 1e6)),
                    ("tiles", FieldValue::from(report.tiles_run)),
                    ("faulted", FieldValue::from(ctx.fault_plan().is_some())),
                ],
            );
        }
    }
    // The in-core rung replays through `Plan::execute_inner`, which
    // already advanced the simulated clock; tiled (and zero-time CPU)
    // rungs bypass it, so account for their simulated time here.
    if !report.in_core {
        tel.advance_us(run.sim.time_s * 1e6);
    }
    (run, report)
}

/// One tiled attempt: leases each tile (checked), replays its block range
/// into the shared `y`, and aggregates per-tile simulations. Any lease
/// refusal aborts the attempt — the partially accumulated `y` is
/// discarded by the caller retrying at a smaller budget.
fn run_tiled(
    ctx: &GpuContext,
    plan: &Plan,
    factors: &[Matrix],
    tiles: &[(usize, usize)],
    budget: u64,
    shrink_rung: u64,
    mem_plan: Option<&gpu_sim::FaultPlan>,
) -> Result<GpuRun, MemError> {
    let fp = plan.footprint();
    let prefix = plan.block_weight_prefix();
    let mut y = Matrix::zeros(plan.out_rows(), plan.rank());
    // Under execution faults every contribution routes through ONE sink
    // spanning all tiles, with global block ordinals: the injected fault
    // stream and checksums match the untiled faulted replay bit-for-bit.
    let mut sink = ctx
        .fault_plan()
        .is_some()
        .then(|| ctx.abft_sink(plan.name(), plan.out_rows()));

    for (k, &(b0, b1)) in tiles.iter().enumerate() {
        let parts = vec![
            (format!("{}.factors", plan.name()), fp.factor_bytes),
            (format!("{}.output", plan.name()), fp.output_bytes),
            (
                format!("{}.format.tile{k}", plan.name()),
                format_share(fp, &prefix, b0, b1),
            ),
        ];
        let site = lease_site(shrink_rung, k as u64);
        let _lease = ctx.memory.try_lease(plan.name(), &parts, mem_plan, site)?;
        match &mut sink {
            Some(s) => plan.replay_range_sequential(&mut y, factors, s, b0, b1),
            None => plan.replay_range_parallel(&mut y, factors, b0, b1),
        }
    }

    let abft = match sink {
        Some(mut s) => {
            s.flush(&mut y);
            s.into_data()
        }
        None => None,
    };
    let sim = plan.tiled_sim_cached(budget, || aggregate_tiled_sim(ctx, plan, tiles));
    // Tiled runs return no per-block profile: placements/timelines of the
    // sub-launches do not concatenate into a meaningful whole-run profile.
    Ok(GpuRun {
        y,
        sim,
        profile: None,
        abft,
    })
}

/// Simulates each tile's sub-launch and folds the metrics: streamed tiles
/// run back-to-back, so cycle/time/flop counts add, rate metrics average
/// time-weighted, and extrema take the max. Deterministic (tile order is
/// fixed by the packing).
pub(crate) fn aggregate_tiled_sim(
    ctx: &GpuContext,
    plan: &Plan,
    tiles: &[(usize, usize)],
) -> SimResult {
    let mut agg = cpu_fallback_sim(plan);
    agg.kernel = format!("{}+tiled", plan.name());
    let mut weighted_eff = 0.0f64;
    let mut weighted_occ = 0.0f64;
    let mut weighted_l2 = 0.0f64;
    let mut weighted_mean_block = 0.0f64;
    for &(b0, b1) in tiles {
        let sub = plan.sub_launch(b0, b1);
        if sub.blocks.is_empty() {
            continue;
        }
        let sim = ctx.simulate(&sub);
        // Histogram-only (no events): bucket increments are
        // order-independent, so this stays safe if tiles are ever
        // estimated in parallel.
        ctx.registry
            .observe("ooc.tile_us", (sim.time_s * 1e6).round() as u64);
        agg.makespan_cycles += sim.makespan_cycles;
        agg.time_s += sim.time_s;
        agg.total_flops += sim.total_flops;
        agg.num_blocks += sim.num_blocks;
        agg.num_warps += sim.num_warps;
        agg.mem_segments += sim.mem_segments;
        agg.atomic_ops += sim.atomic_ops;
        agg.max_block_cycles = agg.max_block_cycles.max(sim.max_block_cycles);
        weighted_eff += sim.sm_efficiency * sim.time_s;
        weighted_occ += sim.achieved_occupancy * sim.time_s;
        weighted_l2 += sim.l2_hit_rate * sim.time_s;
        weighted_mean_block += sim.mean_block_cycles * sim.num_blocks as f64;
    }
    if agg.time_s > 0.0 {
        agg.sm_efficiency = weighted_eff / agg.time_s;
        agg.achieved_occupancy = weighted_occ / agg.time_s;
        agg.l2_hit_rate = weighted_l2 / agg.time_s;
        agg.gflops = agg.total_flops as f64 / agg.time_s / 1e9;
    }
    if agg.num_blocks > 0 {
        agg.mean_block_cycles = weighted_mean_block / agg.num_blocks as f64;
    }
    agg
}

/// A zeroed [`SimResult`] for executions that never reached the
/// simulator (the CPU rung), and the aggregation seed for tiled runs.
pub(crate) fn cpu_fallback_sim(plan: &Plan) -> SimResult {
    SimResult {
        kernel: format!("{}+cpu-fallback", plan.name()),
        makespan_cycles: 0.0,
        time_s: 0.0,
        sm_efficiency: 0.0,
        achieved_occupancy: 0.0,
        l2_hit_rate: 0.0,
        total_flops: 0,
        gflops: 0.0,
        num_blocks: 0,
        num_warps: 0,
        mem_segments: 0,
        atomic_ops: 0,
        max_block_cycles: 0.0,
        mean_block_cycles: 0.0,
    }
}
