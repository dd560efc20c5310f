//! Out-of-core tiled MTTKRP execution with a graceful-degradation ladder.
//!
//! When a captured [`Plan`]'s [`MemoryFootprint`] exceeds the context's
//! device-memory capacity — or a seeded OOM fault refuses an allocation
//! — [`execute_adaptive`] degrades instead of failing. One memory walker
//! (`fit_range`) decides what fits for any block range of the schedule:
//!
//! 1. **Full device.** One checked lease of the whole range.
//! 2. **Tiled.** Partition the range of the captured
//!    [`ReplaySchedule`](super::ReplaySchedule) into consecutive
//!    *block ranges* whose resident set (factors + output)
//!    plus format share each fit the byte budget, and lease each tile.
//!    If a lease is refused, retry at half the budget, up to
//!    [`OocOptions::max_shrinks`] times.
//! 3. **Refuse.** The caller runs the sequential
//!    [`crate::reference::mttkrp`].
//!
//! [`execute_adaptive`] runs the walker over the whole schedule and
//! replays what it chose; the sharded engine runs it over each device's
//! shard.
//!
//! Tiles are ranges of the *captured schedule*, never rebuilt sub-tensor
//! formats: tiling only moves the parallel batch boundaries, while the
//! ordered per-contribution fold into `y` is unchanged — so tiled output
//! is bit-for-bit identical to untiled replay for every kernel, any tile
//! size, by construction. Under an active execution-fault plan the tiles
//! route through one [`AbftSink`](super::AbftSink) using *global* block
//! ordinals, so injected faults and checksums also match the untiled run
//! exactly. The CPU rung uses a different summation order and is
//! therefore *not* bit-identical. A clean capacity-constrained run
//! reaches it only when the capacity cannot hold the resident set plus
//! one block's format share; otherwise only injected OOMs drive a run
//! there.
//!
//! Every decision is recorded in a [`MemReport`]: the ladder steps taken,
//! tile counts, budgets, OOM events, and the high-water mark — all
//! deterministic under a fixed seed.

use std::sync::Arc;

use dense::Matrix;
use gpu_sim::{DeviceMemory, FaultPlan, MemError, SimResult};
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
    let prefix = plan.block_weight_prefix();
    plan_tiles_range(plan, &prefix, budget, mem, 0, prefix.len() - 1)
}

/// [`plan_tiles`] restricted to the schedule-block range `range_b0 ..
/// range_b1`, over the plan's weight `prefix`. The resident set (factors
/// and output) is charged in full per tile; format bytes are charged by
/// weight share exactly as in the whole-plan case.
fn plan_tiles_range(
    plan: &Plan,
    prefix: &[u64],
    budget: u64,
    mem: &gpu_sim::DeviceMemory,
    range_b0: usize,
    range_b1: usize,
) -> Option<Vec<(usize, usize)>> {
    let fp = plan.footprint();
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
    let share = |b0: usize, b1: usize| pad(format_share(fp, prefix, b0, b1));
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
/// `ceil(format_bytes × (W[b1] − W[b0]) / W_total)`, exact in u128. A
/// range holding the whole weight (the whole schedule, even an empty one)
/// holds the whole format.
fn format_share(fp: &MemoryFootprint, prefix: &[u64], b0: usize, b1: usize) -> u64 {
    let total = prefix[prefix.len() - 1];
    let w = prefix[b1] - prefix[b0];
    if w == total {
        return fp.format_bytes;
    }
    let num = u128::from(fp.format_bytes) * u128::from(w);
    u64::try_from(num.div_ceil(u128::from(total))).unwrap_or(u64::MAX)
}

/// What [`fit_range`] chose for one block range.
pub(crate) struct RangeFit {
    /// Every rung attempted, in order.
    pub(crate) ladder: Vec<LadderStep>,
    /// The block ranges the winning rung leased — the whole range as one
    /// tile in core — or `None` when every GPU rung refused.
    pub(crate) tiles: Option<Vec<(usize, usize)>>,
    /// Allocation refusals across all rungs (injected + genuine).
    pub(crate) oom_events: u64,
}

impl RangeFit {
    /// Whether the whole-range lease won.
    pub(crate) fn in_core(&self) -> bool {
        self.ladder[0].outcome == "ok"
    }

    fn step(&mut self, rung: &str, budget: u64, tiles: usize, outcome: &str) {
        self.ladder.push(LadderStep {
            rung: rung.to_string(),
            budget_bytes: budget,
            tiles,
            outcome: outcome.to_string(),
        });
    }
}

/// The memory walker: fits schedule blocks `b0..b1` of `plan` to `mem`.
/// It tries one lease of the whole range, then tiles at the effective
/// capacity, then up to [`OocOptions::max_shrinks`] budget halvings, then
/// refuses (the caller's CPU rung). Leases are released as soon as they
/// are granted: they decide what fits, and the caller replays the tiles
/// chosen. Fault draws key on lease sites in `device`'s namespace —
/// device 0 holds the single-device sites, so a one-device grid draws the
/// out-of-core ladder's exact OOM stream.
pub(crate) fn fit_range(
    plan: &Plan,
    mem: &Arc<DeviceMemory>,
    faults: Option<&FaultPlan>,
    device: usize,
    (b0, b1): (usize, usize),
    opts: &OocOptions,
) -> RangeFit {
    let fp = plan.footprint();
    let name = plan.name();
    let prefix = plan.block_weight_prefix();
    let capacity = mem.effective_capacity(faults);
    let mut fit = RangeFit {
        ladder: Vec::new(),
        tiles: None,
        oom_events: 0,
    };
    // Site `rung` shifted into the device's namespace: rung 0 is the
    // whole-range lease, tiled rung `r` (0-based shrink count) uses
    // `((r + 1) << 32) | tile`.
    let lease = |format: (String, u64), rung: u64| {
        let parts = [
            (format!("{name}.factors"), fp.factor_bytes),
            (format!("{name}.output"), fp.output_bytes),
            format,
        ];
        let site = ((device as u64) << 44) | rung;
        mem.try_lease(name, &parts, faults, site).map(drop)
    };

    // The whole range at once, checked padded (the way the lease pads)
    // so the check and the allocation agree at the boundary.
    let pad = |b: u64| mem.pad(b).unwrap_or(u64::MAX);
    let whole = format_share(fp, &prefix, b0, b1);
    let padded = [fp.factor_bytes, fp.output_bytes, whole]
        .map(pad)
        .into_iter()
        .fold(0u64, u64::saturating_add);
    let outcome = if padded > capacity {
        "exceeds-capacity"
    } else {
        match lease((format!("{name}.format"), whole), 0) {
            Ok(()) => "ok",
            Err(e) => {
                fit.oom_events += 1;
                outcome_of(&e)
            }
        }
    };
    fit.step("full-device", capacity, 1, outcome);
    if outcome == "ok" {
        fit.tiles = Some(vec![(b0, b1)]);
        return fit;
    }

    let mut budget = capacity;
    for shrink in 0..=u64::from(opts.max_shrinks) {
        if shrink > 0 {
            budget /= 2;
        }
        let Some(tiles) = plan_tiles_range(plan, &prefix, budget, mem, b0, b1) else {
            // A single block cannot be split, so halving would only
            // re-discover the same failure.
            let why = if b1 - b0 <= 1 {
                "untileable"
            } else {
                "budget-too-small"
            };
            fit.step("tiled", budget, 0, why);
            break;
        };
        let refusal = tiles.iter().enumerate().find_map(|(k, &(t0, t1))| {
            let part = format_share(fp, &prefix, t0, t1);
            let rung = ((shrink + 1) << 32) | k as u64;
            lease((format!("{name}.format.tile{k}"), part), rung).err()
        });
        match refusal {
            None => {
                fit.step("tiled", budget, tiles.len(), "ok");
                fit.tiles = Some(tiles);
                return fit;
            }
            Some(e) => {
                fit.oom_events += 1;
                fit.step("tiled", budget, tiles.len(), outcome_of(&e));
            }
        }
    }
    fit.step("cpu", 0, 0, "ok");
    fit
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
    let whole = (0, plan.schedule().num_blocks());
    let fit = fit_range(plan, &ctx.memory, ctx.mem_fault_plan(), 0, whole, opts);
    let mut report = MemReport {
        kernel: plan.name().to_string(),
        mode: plan.mode(),
        footprint_bytes: plan.footprint().total_bytes(),
        capacity_bytes: ctx.memory.capacity(),
        in_core: fit.in_core(),
        oom_events: fit.oom_events,
        cpu_fallback: fit.tiles.is_none(),
        ..MemReport::default()
    };
    let run = match fit.tiles {
        Some(_) if report.in_core => plan.execute_inner(ctx, factors),
        Some(tiles) => {
            report.tiles_run = tiles.len();
            report.tile_budget_bytes = fit.ladder[fit.ladder.len() - 1].budget_bytes;
            let (y, abft) = plan.replay_ranges(ctx, factors, &tiles);
            let sim = plan.tiled_sim_cached(report.tile_budget_bytes, || {
                aggregate_tiled_sim(ctx, plan, &tiles)
            });
            // Tiled runs return no per-block profile: the sub-launches'
            // timelines do not concatenate into one whole-run profile.
            GpuRun {
                y,
                sim,
                profile: None,
                abft,
            }
        }
        // The sequential CPU reference: a different summation order,
        // correct to f32 tolerance but not bit-identical to the GPU fold.
        None => GpuRun {
            y: crate::reference::mttkrp(t, factors, plan.mode()),
            sim: cpu_fallback_sim(plan),
            profile: None,
            abft: None,
        },
    };
    report.ladder = fit.ladder;
    finish(ctx, run, report)
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
