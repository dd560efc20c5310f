//! The two-level scheduler and metric computation.
//!
//! **Warp level.** Each warp's instruction stream is folded into three
//! numbers: compute cycles, memory-latency cycles (its serial critical
//! path), and memory-throughput cycles (segment-cycles consumed on the
//! SM's load/store path, L2-aware).
//!
//! **Block level.** A block's duration is a roofline-style max of
//! (a) total compute / the SM's warp issue width, (b) total memory
//! throughput cycles, and (c) the critical (slowest) warp. (c) is where
//! *inter-warp* imbalance appears: one heavy fiber makes one warp's latency
//! chain dominate the whole block — the paper's Section IV-B pathology.
//!
//! **Grid level.** Blocks are greedily list-scheduled onto SMs in launch
//! order. *Inter-thread-block* imbalance appears here: one heavy slice
//! keeps one SM busy long after the rest drained — the Section IV-A
//! pathology, visible as low `sm_efficiency`.
//!
//! Atomic updates carry a serialization surcharge proportional to the
//! number of *other* blocks that update the same output row, which is what
//! makes unsplit COO kernels (ParTI) pay for hot rows and makes slc-split's
//! extra atomics "well tolerated" (few writers per row).

use std::collections::BinaryHeap;
use std::collections::HashMap;

use simprof::{FieldValue, Registry, Telemetry};

use crate::cache::L2Cache;
use crate::cost::CostModel;
use crate::device::DeviceProfile;
use crate::fault::{FaultKind, FaultPlan, InjectedFault};
use crate::grid::{KernelLaunch, Op};
use crate::memtrace::{LaunchTrace, MemTraceRecorder, TraceAccess};

/// Optional observability hooks threaded through
/// [`simulate_instrumented`]: a telemetry event stream and a memory-trace
/// recorder. Both are purely observational — attaching either never
/// changes a single simulated number (the bit-for-bit equivalence tests
/// below enforce it).
#[derive(Clone, Copy, Default)]
pub struct SimInstruments<'a> {
    pub telemetry: Option<&'a Telemetry>,
    pub trace: Option<&'a MemTraceRecorder>,
}

/// Simulation output: the nvprof-style metrics Table II reports, plus
/// derived throughput.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SimResult {
    pub kernel: String,
    pub makespan_cycles: f64,
    /// Seconds at the device clock.
    pub time_s: f64,
    /// Percentage of time the average SM was busy (nvprof `sm_efficiency`).
    pub sm_efficiency: f64,
    /// Active warps per active cycle / max warps, in percent
    /// (nvprof `achieved_occupancy`).
    pub achieved_occupancy: f64,
    /// L2 hit rate in percent.
    pub l2_hit_rate: f64,
    /// Useful floating-point operations executed (FMA = 2 flops).
    pub total_flops: u64,
    pub gflops: f64,
    pub num_blocks: usize,
    pub num_warps: usize,
    pub mem_segments: u64,
    pub atomic_ops: u64,
    pub max_block_cycles: f64,
    pub mean_block_cycles: f64,
}

/// Per-SM busy intervals of a simulated launch: `spans[sm]` is the ordered
/// list of `(start_cycle, end_cycle)` of each block that SM executed.
/// Produced by [`simulate_with_timeline`]; the raw material for Gantt-style
/// load-balance visualizations (see the `balance_viz` example).
#[derive(Debug, Clone)]
pub struct Timeline {
    pub spans: Vec<Vec<(f64, f64)>>,
}

impl Timeline {
    /// Fraction of `[0, makespan]` during which SM `sm` was busy.
    /// An out-of-range `sm` (or an empty/degenerate window) is 0.0, never
    /// a panic: callers probe SM indices from configs that may not match
    /// the device that produced the timeline.
    pub fn busy_fraction(&self, sm: usize, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            return 0.0;
        }
        match self.spans.get(sm) {
            Some(spans) => spans.iter().map(|(s, e)| e - s).sum::<f64>() / makespan,
            None => 0.0,
        }
    }

    /// Busy fraction of SM `sm` within the window `[t0, t1)`. Out-of-range
    /// `sm` or an empty window yields 0.0.
    pub fn busy_in_window(&self, sm: usize, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let Some(spans) = self.spans.get(sm) else {
            return 0.0;
        };
        let overlap: f64 = spans
            .iter()
            .map(|&(s, e)| (e.min(t1) - s.max(t0)).max(0.0))
            .sum();
        overlap / (t1 - t0)
    }
}

/// Which leg of the roofline `max` determined a block's duration — the
/// per-block answer to "why was this block slow".
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum StallReason {
    /// Aggregate compute over the SM's warp issue width was the ceiling.
    ComputeBound,
    /// Segment-cycles on the load/store path were the ceiling.
    MemoryThroughputBound,
    /// One slow warp's serial latency chain was the ceiling — the paper's
    /// inter-warp (fiber) imbalance pathology.
    CriticalWarpBound,
}

impl StallReason {
    /// Kebab-case label, used as the Chrome-trace `cat` so Perfetto can
    /// color slices by bottleneck.
    pub fn as_str(&self) -> &'static str {
        match self {
            StallReason::ComputeBound => "compute-bound",
            StallReason::MemoryThroughputBound => "memory-throughput-bound",
            StallReason::CriticalWarpBound => "critical-warp-bound",
        }
    }
}

/// The roofline decomposition of one scheduled block: every leg of the
/// cost `max`, plus the block's share of the launch-wide counters.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BlockCost {
    /// Aggregate compute cycles / SM issue width (roofline leg a).
    pub compute_cycles: f64,
    /// Memory-throughput segment-cycles (roofline leg b).
    pub mem_throughput_cycles: f64,
    /// The critical (slowest) warp's compute+latency chain (roofline leg c).
    pub critical_warp_cycles: f64,
    /// Fixed launch/drain overhead added on top of the max.
    pub overhead_cycles: f64,
    /// Total block duration: `max(a, b, c) + overhead`.
    pub cycles: f64,
    pub warps: usize,
    pub flops: u64,
    pub mem_segments: u64,
    pub atomic_ops: u64,
    /// Atomic serialization surcharge cycles charged to this block
    /// (accumulated over its atomics' conflict terms).
    pub atomic_conflict_cycles: f64,
}

impl BlockCost {
    /// Which roofline leg won the `max` (ties resolve compute over
    /// memory over critical-warp, matching the order of the cost terms).
    pub fn stall_reason(&self) -> StallReason {
        if self.compute_cycles >= self.mem_throughput_cycles
            && self.compute_cycles >= self.critical_warp_cycles
        {
            StallReason::ComputeBound
        } else if self.mem_throughput_cycles >= self.critical_warp_cycles {
            StallReason::MemoryThroughputBound
        } else {
            StallReason::CriticalWarpBound
        }
    }
}

/// Where one block ran: produced by the list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct BlockPlacement {
    /// Index into [`SimProfile::blocks`] (scheduled-block order).
    pub block: usize,
    pub sm: usize,
    /// Start cycle on that SM.
    pub start: f64,
    /// End cycle (`start + cycles`).
    pub end: f64,
}

/// Atomic serialization charges attributed to one output row.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct AtomicRowCharge {
    pub row: u32,
    /// Distinct thread blocks updating this row.
    pub writer_blocks: u32,
    /// Atomic operations issued against this row.
    pub ops: u64,
    /// Total conflict-surcharge cycles charged for this row.
    pub conflict_cycles: f64,
}

/// Everything [`simulate_profiled`] knows beyond the [`SimResult`]: the
/// per-SM timeline, per-block cost decompositions, block→SM placements,
/// and per-output-row atomic serialization charges (hottest rows first).
#[derive(Debug, Clone)]
pub struct SimProfile {
    pub timeline: Timeline,
    pub blocks: Vec<BlockCost>,
    pub placements: Vec<BlockPlacement>,
    pub atomic_rows: Vec<AtomicRowCharge>,
    /// Faults injected into this launch, per block, in scheduling order.
    /// Always empty without an active [`FaultPlan`] (see
    /// [`simulate_faulted`]).
    pub faults: Vec<InjectedFault>,
}

/// Shared first half of the machine model: replay the launch through the
/// L2 in launch order, apply the instruction cost model, and fold every
/// block into its roofline cost. Both schedulers ([`simulate`] and
/// [`co_resident_makespan`]) consume this.
struct CostPass {
    blocks: Vec<BlockCost>,
    total_flops: u64,
    mem_segments: u64,
    atomic_ops: u64,
    num_warps: usize,
    l2_hit_rate: f64,
    /// Per-row atomic charges, hottest first. Only populated when the
    /// pass runs with `detail = true`; empty otherwise.
    atomic_rows: Vec<AtomicRowCharge>,
}

fn compute_block_costs(
    dev: &DeviceProfile,
    cost: &CostModel,
    launch: &KernelLaunch,
    detail: bool,
    trace: Option<&MemTraceRecorder>,
) -> CostPass {
    assert_eq!(
        dev.line_bytes as u64,
        crate::grid::SEG_BYTES,
        "device line size must match the coalescing segment size"
    );
    let mut cache = L2Cache::new(dev.l2_bytes, dev.line_bytes, dev.l2_assoc);
    // Address-stream recording buffer: filled alongside the L2 replay and
    // pushed to the recorder wholesale at the end of the pass, so the
    // replay loop itself takes no lock and the cache walk is untouched.
    let mut recording: Option<(LaunchTrace, u64)> = trace.map(|r| {
        (
            LaunchTrace {
                kernel: launch.name.clone(),
                capacity_bytes: dev.l2_bytes,
                line_bytes: dev.line_bytes,
                assoc: dev.l2_assoc,
                sample_every: r.sample_every(),
                live_hits: 0,
                live_misses: 0,
                accesses: Vec::new(),
            },
            0u64,
        )
    });

    // ---- Pass 1: distinct writer blocks per atomic output row. ----
    let mut writers: HashMap<u32, (u32, u32)> = HashMap::new(); // row -> (last block, count)
    for (b, block) in launch.blocks.iter().enumerate() {
        for warp in &block.warps {
            for op in warp.ops() {
                if let Op::AtomicAdd { row, .. } = op {
                    let e = writers.entry(row).or_insert((u32::MAX, 0));
                    if e.0 != b as u32 {
                        *e = (b as u32, e.1 + 1);
                    }
                }
            }
        }
    }

    // ---- Pass 2a: L2 replay, sequential in launch order. ----
    // The cache is a set-associative LRU whose hit/miss answers depend on
    // the *global* access order, so this walk cannot be parallelized; it
    // records one verdict per memory op for pass 2b to consume. Per-row
    // atomic charges are also folded here so their f64 summation order is
    // exactly the historical one-pass order.
    let mut hits: Vec<bool> = Vec::new();
    let mut hit_ptr: Vec<usize> = Vec::with_capacity(launch.blocks.len() + 1);
    // row -> (ops, conflict cycles); filled only when detail is requested.
    let mut row_charges: HashMap<u32, (u64, f64)> = HashMap::new();
    for (b, block) in launch.blocks.iter().enumerate() {
        hit_ptr.push(hits.len());
        for (w, warp) in block.warps.iter().enumerate() {
            for op in warp.ops() {
                let seg = match op {
                    Op::Load(seg) | Op::Store(seg) => seg,
                    Op::AtomicAdd { row, seg } => {
                        if detail {
                            let conflict =
                                cost.conflict_surcharge(writers.get(&row).map_or(1, |e| e.1));
                            let e = row_charges.entry(row).or_insert((0, 0.0));
                            e.0 += 1;
                            e.1 += conflict;
                        }
                        seg
                    }
                    _ => continue,
                };
                let hit = cache.access(seg);
                hits.push(hit);
                if let Some((tr, seen)) = recording.as_mut() {
                    if *seen % tr.sample_every == 0 {
                        tr.accesses.push(TraceAccess {
                            block: b as u32,
                            warp: w as u32,
                            seg,
                            set: cache.set_index(seg) as u32,
                            hit,
                        });
                    }
                    *seen += 1;
                }
            }
        }
    }
    hit_ptr.push(hits.len());
    if let (Some((mut tr, _)), Some(recorder)) = (recording.take(), trace) {
        tr.live_hits = cache.hits();
        tr.live_misses = cache.misses();
        recorder.push(tr);
    }

    // ---- Pass 2b: per-block roofline folds, independent given the cache
    // verdicts — fanned out over rayon. Each fold accumulates its f64 terms
    // in the same op order as the historical single pass, so every
    // `BlockCost` is bit-for-bit identical to the sequential result.
    use rayon::prelude::*;
    let folded: Vec<Option<BlockCost>> = launch
        .blocks
        .par_iter()
        .enumerate()
        .map(|(b, block)| {
            fold_block(
                dev,
                cost,
                block,
                &writers,
                &hits[hit_ptr[b]..hit_ptr[b + 1]],
            )
        })
        .collect();

    // Deterministic sequential merge in launch order.
    let mut blocks: Vec<BlockCost> = Vec::with_capacity(launch.blocks.len());
    let mut total_flops: u64 = 0;
    let mut mem_segments: u64 = 0;
    let mut atomic_ops: u64 = 0;
    let mut num_warps = 0usize;
    for bc in folded.into_iter().flatten() {
        total_flops += bc.flops;
        mem_segments += bc.mem_segments;
        atomic_ops += bc.atomic_ops;
        num_warps += bc.warps;
        blocks.push(bc);
    }

    let mut atomic_rows: Vec<AtomicRowCharge> = row_charges
        .into_iter()
        .map(|(row, (ops, conflict_cycles))| AtomicRowCharge {
            row,
            writer_blocks: writers.get(&row).map_or(0, |e| e.1),
            ops,
            conflict_cycles,
        })
        .collect();
    atomic_rows.sort_by(|a, b| {
        b.conflict_cycles
            .partial_cmp(&a.conflict_cycles)
            .unwrap()
            .then(a.row.cmp(&b.row))
    });

    CostPass {
        blocks,
        total_flops,
        mem_segments,
        atomic_ops,
        num_warps,
        l2_hit_rate: cache.hit_rate(),
        atomic_rows,
    }
}

/// Folds one block's instruction stream into its roofline [`BlockCost`],
/// consuming the pre-replayed cache verdicts for its memory ops (`hits`,
/// one entry per `Load`/`Store`/`AtomicAdd` in op order). Pure per-block
/// given those verdicts; `None` for blocks with no non-empty warps.
fn fold_block(
    dev: &DeviceProfile,
    cost: &CostModel,
    block: &crate::grid::BlockWork,
    writers: &HashMap<u32, (u32, u32)>,
    hits: &[bool],
) -> Option<BlockCost> {
    let mut next_hit = hits.iter().copied();
    let mut sum_compute = 0.0f64;
    let mut sum_tp = 0.0f64;
    let mut max_warp = 0.0f64;
    let mut warps_in_block = 0usize;
    let mut block_flops: u64 = 0;
    let mut block_segments: u64 = 0;
    let mut block_atomics: u64 = 0;
    let mut block_conflict = 0.0f64;
    for warp in &block.warps {
        if warp.is_empty() {
            continue;
        }
        warps_in_block += 1;
        let mut compute = 0.0f64;
        let mut latency = 0.0f64;
        for op in warp.ops() {
            match op {
                Op::Fma(n) => {
                    compute += n as f64 * cost.fma_cycles;
                    block_flops += n as u64 * dev.warp_size as u64 * 2;
                }
                Op::Alu(n) => compute += n as f64,
                Op::Load(_) | Op::Store(_) => {
                    let hit = next_hit.next().expect("cache verdict per memory op");
                    latency += cost.mem_latency(hit);
                    sum_tp += cost.mem_throughput(hit);
                    block_segments += 1;
                }
                Op::AtomicAdd { row, .. } => {
                    let hit = next_hit.next().expect("cache verdict per memory op");
                    let conflict = cost.conflict_surcharge(writers.get(&row).map_or(1, |e| e.1));
                    latency += cost.mem_latency(hit) + cost.atomic_latency + conflict;
                    sum_tp += cost.mem_throughput(hit) + cost.atomic_throughput + conflict;
                    block_segments += 1;
                    block_atomics += 1;
                    block_conflict += conflict;
                }
                Op::Replay(n) => {
                    // Extra transactions against resident lines: pure
                    // LSU pressure plus pipelined-hit latency.
                    latency += n as f64 * cost.mem_latency(true);
                    sum_tp += n as f64 * cost.l2_hit_throughput;
                    block_segments += n as u64;
                }
                Op::Sync(n) => {
                    compute += n as f64;
                }
            }
        }
        let warp_cost = compute + latency;
        sum_compute += compute;
        max_warp = max_warp.max(warp_cost);
    }
    if warps_in_block == 0 {
        return None;
    }
    let compute_leg = sum_compute / dev.compute_width_warps;
    let cycles = compute_leg.max(sum_tp).max(max_warp) + cost.block_overhead_cycles;
    Some(BlockCost {
        compute_cycles: compute_leg,
        mem_throughput_cycles: sum_tp,
        critical_warp_cycles: max_warp,
        overhead_cycles: cost.block_overhead_cycles,
        cycles,
        warps: warps_in_block,
        flops: block_flops,
        mem_segments: block_segments,
        atomic_ops: block_atomics,
        atomic_conflict_cycles: block_conflict,
    })
}

/// Runs a kernel launch through the machine model. Deterministic.
///
/// ```
/// use gpu_sim::{simulate, BlockWork, CostModel, DeviceProfile, KernelLaunch, Op, WarpWork};
///
/// let mut launch = KernelLaunch::new("demo");
/// let mut block = BlockWork::new();
/// let mut warp = WarpWork::new();
/// warp.push(Op::Fma(10));      // 10 warp-wide FMAs = 640 flops
/// warp.load_span(0, 256);      // two 128-B segments
/// block.warps.push(warp);
/// launch.blocks.push(block);
///
/// let r = simulate(&DeviceProfile::p100(), &CostModel::zero_overhead(), &launch);
/// assert_eq!(r.total_flops, 10 * 32 * 2);
/// assert_eq!(r.mem_segments, 2);
/// assert!(r.makespan_cycles > 0.0);
/// ```
pub fn simulate(dev: &DeviceProfile, cost: &CostModel, launch: &KernelLaunch) -> SimResult {
    simulate_with_timeline(dev, cost, launch).0
}

/// Like [`simulate`] but also returns the per-SM busy timeline.
pub fn simulate_with_timeline(
    dev: &DeviceProfile,
    cost: &CostModel,
    launch: &KernelLaunch,
) -> (SimResult, Timeline) {
    let (result, profile) = simulate_profiled(dev, cost, launch, &Registry::disabled());
    (result, profile.timeline)
}

/// [`simulate`] with full observability: returns the per-block/per-SM
/// [`SimProfile`] and, when `registry` is enabled, records the launch's
/// aggregate counters (`sim.*`, including the stall-reason breakdown and
/// atomic serialization charges) plus a host-time span into it. With a
/// disabled registry the extra cost is one relaxed atomic load — the
/// simulated numbers are bit-for-bit those of [`simulate`] either way.
pub fn simulate_profiled(
    dev: &DeviceProfile,
    cost: &CostModel,
    launch: &KernelLaunch,
    registry: &Registry,
) -> (SimResult, SimProfile) {
    simulate_inner(dev, cost, launch, registry, None, SimInstruments::default())
}

/// The fully-instrumented entry point: [`simulate_profiled`] plus an
/// optional [`FaultPlan`] and the [`SimInstruments`] hooks — a telemetry
/// event stream (one `kernel-launch` event per simulation) and a memory
/// trace recorder capturing the sampled L2 address stream. An inactive or
/// absent fault plan takes exactly the fault-free code path, and the
/// instruments are purely observational: the returned numbers are
/// bit-for-bit those of [`simulate`] / [`simulate_faulted`].
pub fn simulate_instrumented(
    dev: &DeviceProfile,
    cost: &CostModel,
    launch: &KernelLaunch,
    registry: &Registry,
    plan: Option<&FaultPlan>,
    instruments: SimInstruments<'_>,
) -> (SimResult, SimProfile) {
    let plan = plan.filter(|p| p.is_active());
    simulate_inner(dev, cost, launch, registry, plan, instruments)
}

/// [`simulate_profiled`] under a [`FaultPlan`]: straggler SMs stretch the
/// blocks placed on them, aborted blocks pay for an ECC re-execution, and
/// drawn bit flips are reported per block in [`SimProfile::faults`] (the
/// timing model itself is not perturbed by a flip — it is silent data
/// corruption; kernels consult the same plan to corrupt their data).
/// An inactive plan (all rates zero) takes exactly the fault-free code
/// path: results are bit-for-bit those of [`simulate_profiled`].
pub fn simulate_faulted(
    dev: &DeviceProfile,
    cost: &CostModel,
    launch: &KernelLaunch,
    registry: &Registry,
    plan: &FaultPlan,
) -> (SimResult, SimProfile) {
    let plan = if plan.is_active() { Some(plan) } else { None };
    simulate_inner(dev, cost, launch, registry, plan, SimInstruments::default())
}

fn simulate_inner(
    dev: &DeviceProfile,
    cost: &CostModel,
    launch: &KernelLaunch,
    registry: &Registry,
    plan: Option<&FaultPlan>,
    instruments: SimInstruments<'_>,
) -> (SimResult, SimProfile) {
    let profiling = registry.enabled();
    let _span = if profiling {
        Some(registry.span(&format!("simulate {}", launch.name), "sim"))
    } else {
        None
    };
    let CostPass {
        blocks,
        total_flops,
        mem_segments,
        atomic_ops,
        num_warps,
        l2_hit_rate,
        atomic_rows,
    } = compute_block_costs(dev, cost, launch, profiling, instruments.trace);

    // ---- Pass 3: greedy list scheduling of blocks onto SMs. ----
    #[derive(PartialEq)]
    struct SmSlot(f64, usize); // (available time, sm id) — min-heap
    impl Eq for SmSlot {}
    impl Ord for SmSlot {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; times are finite and non-negative.
            other
                .0
                .partial_cmp(&self.0)
                .unwrap()
                .then(other.1.cmp(&self.1))
        }
    }
    impl PartialOrd for SmSlot {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap: BinaryHeap<SmSlot> = (0..dev.num_sms).map(|i| SmSlot(0.0, i)).collect();
    let mut busy = vec![0.0f64; dev.num_sms];
    let mut timeline = Timeline {
        spans: vec![Vec::new(); dev.num_sms],
    };
    let mut occ_num = 0.0f64; // Σ active warps × cycles
                              // Occupancy accounts for block co-residency: while the launch queue is
                              // deep, each SM hosts roughly queue_depth/num_sms blocks concurrently
                              // (bounded by hardware block slots). The makespan itself stays a
                              // one-block-per-SM list schedule — co-residency hides latency, which
                              // the roofline block cost already credits via its throughput terms.
    let co_res = (blocks.len() as f64 / dev.num_sms as f64)
        .floor()
        .clamp(1.0, dev.max_blocks_per_sm as f64);
    let mut placements: Vec<BlockPlacement> = Vec::with_capacity(blocks.len());
    // Per-SM straggler decisions are drawn once per launch; block-level
    // faults are drawn as each block is placed. With no active plan none
    // of this runs and `cycles` is untouched — bit-for-bit fault-free.
    let stragglers: Vec<bool> = match plan {
        Some(p) => (0..dev.num_sms)
            .map(|sm| p.sm_straggler(&launch.name, sm))
            .collect(),
        None => Vec::new(),
    };
    let mut faults: Vec<InjectedFault> = Vec::new();
    let mut fault_extra_cycles = 0.0f64;
    for (b, block) in blocks.iter().enumerate() {
        let mut cycles = block.cycles;
        if let Some(p) = plan {
            if p.block_aborts(&launch.name, b) {
                // ECC retire: the first execution is wasted, the retry
                // lands on the same SM right after.
                faults.push(InjectedFault {
                    block: b,
                    kind: FaultKind::Abort,
                });
                fault_extra_cycles += cycles;
                cycles *= 2.0;
            }
        }
        let SmSlot(t, sm) = heap.pop().unwrap();
        if let Some(p) = plan {
            if stragglers[sm] {
                faults.push(InjectedFault {
                    block: b,
                    kind: FaultKind::Straggler { sm },
                });
                fault_extra_cycles += cycles * (p.straggler_slowdown - 1.0);
                cycles *= p.straggler_slowdown;
            }
            if let Some(flip) = p.block_bitflip(&launch.name, b) {
                faults.push(InjectedFault {
                    block: b,
                    kind: FaultKind::BitFlip { bit: flip.bit },
                });
            }
        }
        busy[sm] += cycles;
        timeline.spans[sm].push((t, t + cycles));
        placements.push(BlockPlacement {
            block: b,
            sm,
            start: t,
            end: t + cycles,
        });
        occ_num += (block.warps as f64 * co_res).min(dev.max_warps_per_sm as f64) * cycles;
        heap.push(SmSlot(t + cycles, sm));
    }
    let makespan = heap.iter().map(|s| s.0).fold(0.0f64, f64::max);
    let busy_total: f64 = busy.iter().sum();

    let sm_efficiency = if makespan > 0.0 {
        100.0 * busy_total / (dev.num_sms as f64 * makespan)
    } else {
        0.0
    };
    let achieved_occupancy = if busy_total > 0.0 {
        100.0 * occ_num / (dev.max_warps_per_sm as f64 * busy_total)
    } else {
        0.0
    };
    let time_s = makespan / (dev.clock_ghz * 1e9);
    let gflops = if time_s > 0.0 {
        total_flops as f64 / time_s / 1e9
    } else {
        0.0
    };
    let max_block_cycles = blocks.iter().map(|b| b.cycles).fold(0.0f64, f64::max);
    let mean_block_cycles = if blocks.is_empty() {
        0.0
    } else {
        blocks.iter().map(|b| b.cycles).sum::<f64>() / blocks.len() as f64
    };

    let result = SimResult {
        kernel: launch.name.clone(),
        makespan_cycles: makespan,
        time_s,
        sm_efficiency,
        achieved_occupancy,
        l2_hit_rate,
        total_flops,
        gflops,
        num_blocks: blocks.len(),
        num_warps,
        mem_segments,
        atomic_ops,
        max_block_cycles,
        mean_block_cycles,
    };

    if profiling {
        registry.add("sim.launches", 1);
        registry.add("sim.blocks", blocks.len() as u64);
        registry.add("sim.warps", num_warps as u64);
        registry.add("sim.flops", total_flops);
        registry.add("sim.mem_segments", mem_segments);
        registry.add("sim.atomic_ops", atomic_ops);
        let mut conflict_cycles = 0.0f64;
        for b in &blocks {
            conflict_cycles += b.atomic_conflict_cycles;
            registry.add(
                match b.stall_reason() {
                    StallReason::ComputeBound => "sim.stall.compute_bound",
                    StallReason::MemoryThroughputBound => "sim.stall.memory_throughput_bound",
                    StallReason::CriticalWarpBound => "sim.stall.critical_warp_bound",
                },
                1,
            );
            // Distribution metrics: per-block duration, and the cycles a
            // block spent beyond its pure-compute roofline leg — the
            // block's stall time, whatever leg caused it.
            registry.observe("sim.block_cycles", b.cycles.round() as u64);
            registry.observe(
                "sim.block_stall_cycles",
                (b.cycles - b.compute_cycles).max(0.0).round() as u64,
            );
        }
        registry.add("sim.atomic_conflict_cycles", conflict_cycles.round() as u64);
        if plan.is_some() {
            let count =
                |k: fn(&FaultKind) -> bool| faults.iter().filter(|f| k(&f.kind)).count() as u64;
            registry.add(
                "sim.fault.bitflips",
                count(|k| matches!(k, FaultKind::BitFlip { .. })),
            );
            registry.add("sim.fault.aborts", count(|k| matches!(k, FaultKind::Abort)));
            registry.add(
                "sim.fault.straggler_blocks",
                count(|k| matches!(k, FaultKind::Straggler { .. })),
            );
            registry.add("sim.fault.extra_cycles", fault_extra_cycles.round() as u64);
        }
    }

    if let Some(tel) = instruments.telemetry {
        if tel.enabled() {
            tel.emit(
                "kernel-launch",
                None,
                tel.new_span(),
                &[
                    ("kernel", FieldValue::from(result.kernel.as_str())),
                    ("blocks", FieldValue::from(result.num_blocks)),
                    ("warps", FieldValue::from(result.num_warps)),
                    ("sim_kernel_us", FieldValue::from(result.time_s * 1e6)),
                    ("sm_efficiency", FieldValue::from(result.sm_efficiency)),
                    ("l2_hit_rate", FieldValue::from(result.l2_hit_rate)),
                    ("faulted", FieldValue::from(plan.is_some())),
                ],
            );
        }
    }

    let profile = SimProfile {
        timeline,
        blocks,
        placements,
        atomic_rows,
        faults,
    };
    (result, profile)
}

/// The *co-resident* makespan bound: blocks list-scheduled onto
/// `num_sms × k` virtual executors, where `k` is the SM's block slot count
/// under a `nominal_warps`-per-block footprint (CUDA blocks reserve their
/// full warp footprint even when most warps are idle).
///
/// The default schedule ([`simulate`]) serializes blocks per SM — a
/// pessimistic bound where co-residency hides nothing; this function is the
/// optimistic bound where co-resident blocks overlap for free. Real
/// hardware sits between the two. Model-robustness tests check that the
/// paper's orderings (split > unsplit, hybrid ≥ pure) hold at *both*
/// bounds, so no conclusion hinges on the scheduler's pessimism.
pub fn co_resident_makespan(
    dev: &DeviceProfile,
    cost: &CostModel,
    launch: &KernelLaunch,
    nominal_warps: usize,
) -> f64 {
    let k = (dev.max_warps_per_sm / nominal_warps.max(1))
        .clamp(1, dev.max_blocks_per_sm)
        .max(1);
    let executors = dev.num_sms * k;
    let pass = compute_block_costs(dev, cost, launch, false, None);
    let mut finish_times = vec![0.0f64; executors];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        (0..executors).map(|i| std::cmp::Reverse((0, i))).collect();
    for block in &pass.blocks {
        let cycles = block.cycles;
        let std::cmp::Reverse((_, ex)) = heap.pop().unwrap();
        finish_times[ex] += cycles;
        heap.push(std::cmp::Reverse((finish_times[ex].to_bits(), ex)));
    }
    finish_times.iter().cloned().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{BlockWork, WarpWork};

    fn dev() -> DeviceProfile {
        DeviceProfile::tiny() // 4 SMs
    }

    fn compute_block(fmas: u32, warps: usize) -> BlockWork {
        let mut b = BlockWork::new();
        for _ in 0..warps {
            let mut w = WarpWork::new();
            w.push(Op::Fma(fmas));
            b.warps.push(w);
        }
        b
    }

    #[test]
    fn single_block_uses_one_sm() {
        let mut launch = KernelLaunch::new("t");
        launch.blocks.push(compute_block(100, 1));
        let r = simulate(&dev(), &CostModel::zero_overhead(), &launch);
        assert_eq!(r.num_blocks, 1);
        // One of 4 SMs busy the whole time.
        assert!((r.sm_efficiency - 25.0).abs() < 1e-9);
        assert!((r.makespan_cycles - 100.0).abs() < 1e-9);
        assert_eq!(r.total_flops, 100 * 32 * 2);
    }

    #[test]
    fn balanced_blocks_fill_all_sms() {
        let mut launch = KernelLaunch::new("t");
        for _ in 0..8 {
            launch.blocks.push(compute_block(50, 1));
        }
        let r = simulate(&dev(), &CostModel::zero_overhead(), &launch);
        assert!((r.sm_efficiency - 100.0).abs() < 1e-9);
        assert!((r.makespan_cycles - 100.0).abs() < 1e-9);
    }

    #[test]
    fn one_heavy_block_tanks_sm_efficiency() {
        let mut launch = KernelLaunch::new("t");
        launch.blocks.push(compute_block(1000, 1));
        for _ in 0..3 {
            launch.blocks.push(compute_block(10, 1));
        }
        let r = simulate(&dev(), &CostModel::zero_overhead(), &launch);
        assert!((r.makespan_cycles - 1000.0).abs() < 1e-9);
        assert!(r.sm_efficiency < 30.0, "sm_eff {}", r.sm_efficiency);

        // Splitting the heavy block 4-ways restores balance.
        let mut split = KernelLaunch::new("t");
        for _ in 0..4 {
            split.blocks.push(compute_block(250, 1));
        }
        for _ in 0..3 {
            split.blocks.push(compute_block(10, 1));
        }
        let r2 = simulate(&dev(), &CostModel::zero_overhead(), &split);
        assert!(r2.makespan_cycles < r.makespan_cycles / 3.0);
        assert!(r2.sm_efficiency > 2.0 * r.sm_efficiency);
    }

    #[test]
    fn heavy_warp_dominates_block() {
        // 4 warps: one with 1000 FMAs, three with 10. On a device with
        // issue width 2 the throughput bound is (1030/2) = 515, so the
        // critical warp (1000) rules — inter-warp imbalance made visible.
        let mut b = BlockWork::new();
        for fmas in [1000u32, 10, 10, 10] {
            let mut w = WarpWork::new();
            w.push(Op::Fma(fmas));
            b.warps.push(w);
        }
        let mut launch = KernelLaunch::new("t");
        launch.blocks.push(b);
        let r = simulate(&DeviceProfile::p100(), &CostModel::zero_overhead(), &launch);
        assert!((r.makespan_cycles - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_scales_with_warps_per_block() {
        let mut thin = KernelLaunch::new("thin");
        thin.blocks.push(compute_block(100, 1));
        let mut wide = KernelLaunch::new("wide");
        wide.blocks.push(compute_block(100, 8));
        let d = dev(); // max 16 warps/SM
        let c = CostModel::zero_overhead();
        let r1 = simulate(&d, &c, &thin);
        let r2 = simulate(&d, &c, &wide);
        assert!(r2.achieved_occupancy > 4.0 * r1.achieved_occupancy);
        assert!((r1.achieved_occupancy - 100.0 / 16.0).abs() < 1e-6);
    }

    #[test]
    fn l2_reuse_raises_hit_rate() {
        let mut reuse = KernelLaunch::new("reuse");
        let mut stream = KernelLaunch::new("stream");
        for i in 0..4u64 {
            let mut br = BlockWork::new();
            let mut wr = WarpWork::new();
            let mut bs = BlockWork::new();
            let mut ws = WarpWork::new();
            for j in 0..100u64 {
                wr.push(Op::Load(j % 4)); // 4 hot segments
                ws.push(Op::Load(i * 1000 + j * 7)); // all distinct
            }
            br.warps.push(wr);
            reuse.blocks.push(br);
            bs.warps.push(ws);
            stream.blocks.push(bs);
        }
        let d = dev();
        let c = CostModel::zero_overhead();
        let r1 = simulate(&d, &c, &reuse);
        let r2 = simulate(&d, &c, &stream);
        assert!(r1.l2_hit_rate > 90.0);
        assert!(r2.l2_hit_rate < 5.0);
        // Hits are also faster.
        assert!(r1.makespan_cycles < r2.makespan_cycles);
    }

    #[test]
    fn atomic_conflicts_cost_cycles() {
        // 4 blocks all hammering the same output row vs. disjoint rows.
        let build = |shared: bool| {
            let mut l = KernelLaunch::new("a");
            for b in 0..4u32 {
                let mut blk = BlockWork::new();
                let mut w = WarpWork::new();
                for i in 0..50u64 {
                    let row = if shared { 0 } else { b };
                    w.push(Op::AtomicAdd {
                        row,
                        seg: 10_000 + row as u64 * 100 + i % 2,
                    });
                }
                blk.warps.push(w);
                l.blocks.push(blk);
            }
            l
        };
        let d = dev();
        let c = CostModel::zero_overhead();
        let hot = simulate(&d, &c, &build(true));
        let cold = simulate(&d, &c, &build(false));
        assert!(
            hot.makespan_cycles > 1.5 * cold.makespan_cycles,
            "hot {} vs cold {}",
            hot.makespan_cycles,
            cold.makespan_cycles
        );
        assert_eq!(hot.atomic_ops, 200);
    }

    #[test]
    fn replay_charges_lsu_without_cache_probes() {
        let mut plain = KernelLaunch::new("plain");
        let mut replayed = KernelLaunch::new("replayed");
        for launch in [&mut plain, &mut replayed] {
            let mut b = BlockWork::new();
            let mut w = WarpWork::new();
            w.push(Op::Load(1));
            if launch.name == "replayed" {
                w.push(Op::Replay(7));
            }
            b.warps.push(w);
            launch.blocks.push(b);
        }
        let d = dev();
        let c = CostModel::zero_overhead();
        let a = simulate(&d, &c, &plain);
        let b = simulate(&d, &c, &replayed);
        assert!(b.makespan_cycles > a.makespan_cycles);
        assert_eq!(b.mem_segments, a.mem_segments + 7);
        // Replays never touch the cache model: hit rates stay comparable
        // (here: both runs have exactly one cold miss).
        assert_eq!(a.l2_hit_rate, b.l2_hit_rate);
    }

    #[test]
    fn deterministic() {
        let mut launch = KernelLaunch::new("t");
        for i in 0..10 {
            launch.blocks.push(compute_block(10 + i, 2));
        }
        let d = dev();
        let c = CostModel::zero_overhead();
        let a = simulate(&d, &c, &launch);
        let b = simulate(&d, &c, &launch);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.l2_hit_rate, b.l2_hit_rate);
    }

    #[test]
    fn co_resident_bound_is_never_slower() {
        let mut launch = KernelLaunch::new("t");
        for i in 0..40 {
            launch.blocks.push(compute_block(10 + i, 2));
        }
        let d = dev();
        let c = CostModel::zero_overhead();
        let serial = simulate(&d, &c, &launch).makespan_cycles;
        let co = co_resident_makespan(&d, &c, &launch, 2);
        assert!(co <= serial + 1e-9, "co {co} vs serial {serial}");
        // With footprint = whole SM, the bounds coincide.
        let full = co_resident_makespan(&d, &c, &launch, d.max_warps_per_sm);
        assert!((full - serial).abs() < 1e-6);
    }

    #[test]
    fn empty_launch_is_zero() {
        let launch = KernelLaunch::new("empty");
        let r = simulate(&dev(), &CostModel::zero_overhead(), &launch);
        assert_eq!(r.makespan_cycles, 0.0);
        assert_eq!(r.gflops, 0.0);
        assert_eq!(r.num_blocks, 0);
    }

    #[test]
    fn throughput_bound_when_many_warps() {
        // 16 warps × 100 FMAs in one block: compute-throughput bound
        // (16*100/1 = 1600) exceeds the critical warp (100).
        let mut launch = KernelLaunch::new("t");
        launch.blocks.push(compute_block(100, 16));
        let r = simulate(&dev(), &CostModel::zero_overhead(), &launch);
        assert!((r.makespan_cycles - 1600.0).abs() < 1e-9);
    }

    /// A mixed launch exercising every op kind: compute, loads with reuse,
    /// atomics with a hot row, and a heavy-warp block.
    fn mixed_launch() -> KernelLaunch {
        let mut launch = KernelLaunch::new("mixed");
        for b in 0..6u32 {
            let mut blk = BlockWork::new();
            for wi in 0..3u32 {
                let mut w = WarpWork::new();
                w.push(Op::Fma(20 + 40 * wi * (b % 2)));
                for j in 0..8u64 {
                    w.push(Op::Load(b as u64 * 16 + j % 4));
                }
                w.push(Op::AtomicAdd {
                    row: b % 3,
                    seg: 50_000 + (b % 3) as u64,
                });
                blk.warps.push(w);
            }
            launch.blocks.push(blk);
        }
        launch
    }

    #[test]
    fn timeline_out_of_range_sm_is_zero_not_panic() {
        let mut launch = KernelLaunch::new("t");
        launch.blocks.push(compute_block(100, 1));
        let (r, tl) = simulate_with_timeline(&dev(), &CostModel::zero_overhead(), &launch);
        // In range: the single busy SM reports 1.0.
        assert!((tl.busy_fraction(0, r.makespan_cycles) - 1.0).abs() < 1e-9);
        // Out of range (device has 4 SMs): 0.0, not a panic.
        assert_eq!(tl.busy_fraction(100, r.makespan_cycles), 0.0);
        assert_eq!(tl.busy_in_window(100, 0.0, r.makespan_cycles), 0.0);
        assert_eq!(tl.busy_fraction(4, r.makespan_cycles), 0.0);
    }

    #[test]
    fn timeline_window_overlap_edge_cases() {
        // One block on SM 0 occupying [0, 100].
        let mut launch = KernelLaunch::new("t");
        launch.blocks.push(compute_block(100, 1));
        let (_, tl) = simulate_with_timeline(&dev(), &CostModel::zero_overhead(), &launch);
        // Full overlap.
        assert!((tl.busy_in_window(0, 0.0, 100.0) - 1.0).abs() < 1e-9);
        // Half overlap from either side.
        assert!((tl.busy_in_window(0, 50.0, 150.0) - 0.5).abs() < 1e-9);
        assert!((tl.busy_in_window(0, -100.0, 100.0) - 0.5).abs() < 1e-9);
        // Window fully after / fully before the span.
        assert_eq!(tl.busy_in_window(0, 100.0, 200.0), 0.0);
        assert_eq!(tl.busy_in_window(0, -50.0, 0.0), 0.0);
        // Degenerate and inverted windows.
        assert_eq!(tl.busy_in_window(0, 50.0, 50.0), 0.0);
        assert_eq!(tl.busy_in_window(0, 60.0, 40.0), 0.0);
        // Idle SM within range reports zero busy.
        assert_eq!(tl.busy_in_window(1, 0.0, 100.0), 0.0);
        // Degenerate makespan.
        assert_eq!(tl.busy_fraction(0, 0.0), 0.0);
    }

    #[test]
    fn metrics_stay_in_percent_range() {
        let d = dev();
        let c = CostModel::default();
        for launch in [mixed_launch(), KernelLaunch::new("empty")] {
            let r = simulate(&d, &c, &launch);
            for (name, v) in [
                ("sm_efficiency", r.sm_efficiency),
                ("achieved_occupancy", r.achieved_occupancy),
                ("l2_hit_rate", r.l2_hit_rate),
            ] {
                assert!(
                    (0.0..=100.0).contains(&v),
                    "{name} out of range: {v} ({})",
                    launch.name
                );
            }
            assert!(r.makespan_cycles >= 0.0);
            assert!(r.gflops >= 0.0);
        }
    }

    #[test]
    fn identical_launches_are_bit_for_bit_identical() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let a = simulate(&d, &c, &launch);
        let b = simulate(&d, &c, &launch);
        // Full-struct equality: every field, including every f64, must be
        // bit-for-bit reproducible between two simulate calls.
        assert_eq!(a, b);
    }

    #[test]
    fn profiled_result_matches_unprofiled() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let plain = simulate(&d, &c, &launch);
        let reg = Registry::new();
        let (profiled, profile) = simulate_profiled(&d, &c, &launch, &reg);
        assert_eq!(plain, profiled, "profiling must not perturb the model");
        // Block decomposition is consistent: every block's total equals
        // max(legs) + overhead, and the placement matches the timeline.
        assert_eq!(profile.blocks.len(), plain.num_blocks);
        assert_eq!(profile.placements.len(), plain.num_blocks);
        for p in &profile.placements {
            let b = &profile.blocks[p.block];
            let legs = b
                .compute_cycles
                .max(b.mem_throughput_cycles)
                .max(b.critical_warp_cycles);
            assert!((b.cycles - (legs + b.overhead_cycles)).abs() < 1e-9);
            assert!((p.end - p.start - b.cycles).abs() < 1e-9);
            assert!(profile.timeline.spans[p.sm].contains(&(p.start, p.end)));
        }
    }

    #[test]
    fn profiled_run_records_registry_counters() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let reg = Registry::new();
        let (r, profile) = simulate_profiled(&d, &c, &launch, &reg);
        assert_eq!(reg.counter("sim.launches"), 1);
        assert_eq!(reg.counter("sim.blocks"), r.num_blocks as u64);
        assert_eq!(reg.counter("sim.warps"), r.num_warps as u64);
        assert_eq!(reg.counter("sim.flops"), r.total_flops);
        assert_eq!(reg.counter("sim.atomic_ops"), r.atomic_ops);
        // Stall-reason breakdown partitions the blocks.
        let stalls = reg.counter("sim.stall.compute_bound")
            + reg.counter("sim.stall.memory_throughput_bound")
            + reg.counter("sim.stall.critical_warp_bound");
        assert_eq!(stalls, r.num_blocks as u64);
        // The host-time span of the simulate call was recorded.
        let spans = reg.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "simulate mixed");
        // Atomic charges per output row: 3 rows, each hit by 2 blocks.
        assert_eq!(profile.atomic_rows.len(), 3);
        for row in &profile.atomic_rows {
            assert_eq!(row.writer_blocks, 2);
            assert_eq!(row.ops, 6); // 2 blocks × 3 warps × 1 atomic
            assert!(row.conflict_cycles > 0.0);
        }
        // Hottest-first ordering.
        for pair in profile.atomic_rows.windows(2) {
            assert!(pair[0].conflict_cycles >= pair[1].conflict_cycles);
        }
    }

    #[test]
    fn disabled_registry_records_nothing_and_skips_detail() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let reg = Registry::disabled();
        let (r, profile) = simulate_profiled(&d, &c, &launch, &reg);
        assert!(r.atomic_ops > 0);
        assert!(reg.counters().is_empty());
        assert!(reg.spans().is_empty());
        // Per-row attribution is detail-gated; the rest of the profile
        // (timeline, blocks, placements) is always available.
        assert!(profile.atomic_rows.is_empty());
        assert_eq!(profile.blocks.len(), r.num_blocks);
    }

    #[test]
    fn instrumented_sim_is_bit_for_bit_and_trace_replays_exactly() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let plain = simulate(&d, &c, &launch);

        let reg = Registry::new();
        let ring = std::sync::Arc::new(simprof::RingSink::new(64));
        let tel = Telemetry::with_sink(ring.clone() as std::sync::Arc<dyn simprof::TelemetrySink>);
        let rec = MemTraceRecorder::new(1);
        let (instrumented, _) = simulate_instrumented(
            &d,
            &c,
            &launch,
            &reg,
            None,
            SimInstruments {
                telemetry: Some(&tel),
                trace: Some(&rec),
            },
        );
        assert_eq!(
            plain, instrumented,
            "instruments must not perturb the model"
        );

        // One kernel-launch event, valid JSON, carrying the sim numbers.
        let lines = ring.lines();
        assert_eq!(lines.len(), 1);
        let ev = serde_json::from_str(&lines[0]).expect("event line parses");
        assert_eq!(ev["kind"].as_str(), Some("kernel-launch"));
        assert_eq!(ev["kernel"].as_str(), Some("mixed"));
        assert_eq!(ev["blocks"].as_u64(), Some(plain.num_blocks as u64));
        assert_eq!(ev["faulted"].as_bool(), Some(false));

        // Per-block distributions were recorded.
        let h = reg.histogram("sim.block_cycles").expect("histogram");
        assert_eq!(h.count, plain.num_blocks as u64);

        // Replaying the emitted address stream re-derives the live L2
        // statistics exactly.
        let traces = rec.launches();
        assert_eq!(traces.len(), 1);
        let tr = &traces[0];
        assert_eq!(tr.accesses.len() as u64, tr.live_hits + tr.live_misses);
        let check = crate::memtrace::replay_launch(tr);
        assert!(check.exact);
        assert_eq!(check.verdict_mismatches, 0);
        assert_eq!(check.set_mismatches, 0);
        assert_eq!(check.hits, tr.live_hits);
        assert_eq!(check.misses, tr.live_misses);
        assert!((check.hit_rate - plain.l2_hit_rate).abs() < 1e-12);
    }

    #[test]
    fn sampled_trace_records_every_kth_access() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let full = MemTraceRecorder::new(1);
        let sampled = MemTraceRecorder::new(4);
        for rec in [&full, &sampled] {
            simulate_instrumented(
                &d,
                &c,
                &launch,
                &Registry::disabled(),
                None,
                SimInstruments {
                    telemetry: None,
                    trace: Some(rec),
                },
            );
        }
        let f = &full.launches()[0];
        let s = &sampled.launches()[0];
        assert_eq!(s.accesses.len(), f.accesses.len().div_ceil(4));
        // The sampled stream is a strided subset of the full one.
        for (i, a) in s.accesses.iter().enumerate() {
            assert_eq!(*a, f.accesses[i * 4]);
        }
        // Live counters still cover the full stream.
        assert_eq!(s.live_hits, f.live_hits);
        assert_eq!(s.live_misses, f.live_misses);
    }

    #[test]
    fn inactive_fault_plan_is_bit_for_bit_fault_free() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let plain = simulate(&d, &c, &launch);
        let plan = FaultPlan::disabled();
        let (faulted, profile) = simulate_faulted(&d, &c, &launch, &Registry::disabled(), &plan);
        assert_eq!(plain, faulted);
        assert!(profile.faults.is_empty());
        // A zero-rate parsed spec behaves identically.
        let plan = FaultPlan::parse("bitflip:0,abort:0,straggler:0", 7).expect("valid");
        let (faulted, profile) = simulate_faulted(&d, &c, &launch, &Registry::disabled(), &plan);
        assert_eq!(plain, faulted);
        assert!(profile.faults.is_empty());
    }

    #[test]
    fn aborts_and_stragglers_cost_cycles_and_are_reported() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let plain = simulate(&d, &c, &launch);

        // Every block aborts: makespan doubles exactly (serial per-SM
        // schedule, every block re-executed in place).
        let plan = FaultPlan::parse("abort:1.0", 1).expect("valid");
        let reg = Registry::new();
        let (aborted, profile) = simulate_faulted(&d, &c, &launch, &reg, &plan);
        assert!((aborted.makespan_cycles - 2.0 * plain.makespan_cycles).abs() < 1e-6);
        assert_eq!(profile.faults.len(), plain.num_blocks);
        assert_eq!(reg.counter("sim.fault.aborts"), plain.num_blocks as u64);
        assert!(reg.counter("sim.fault.extra_cycles") > 0);

        // Every SM a straggler at 3x: makespan triples.
        let plan = FaultPlan::parse("straggler:1.0,slowdown:3.0", 1).expect("valid");
        let (slow, _) = simulate_faulted(&d, &c, &launch, &Registry::disabled(), &plan);
        assert!((slow.makespan_cycles - 3.0 * plain.makespan_cycles).abs() < 1e-6);
    }

    #[test]
    fn bitflips_are_reported_but_do_not_perturb_timing() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let plain = simulate(&d, &c, &launch);
        let plan = FaultPlan::bitflips(1.0, 5);
        let reg = Registry::new();
        let (flipped, profile) = simulate_faulted(&d, &c, &launch, &reg, &plan);
        // Silent corruption: identical timing, every block reported hit.
        assert_eq!(plain, flipped);
        assert_eq!(profile.faults.len(), plain.num_blocks);
        assert!(profile
            .faults
            .iter()
            .all(|f| matches!(f.kind, FaultKind::BitFlip { .. })));
        assert_eq!(reg.counter("sim.fault.bitflips"), plain.num_blocks as u64);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let d = dev();
        let c = CostModel::default();
        let launch = mixed_launch();
        let plan = FaultPlan::parse("bitflip:0.3,abort:0.3,straggler:0.3", 11).expect("valid");
        let (a, pa) = simulate_faulted(&d, &c, &launch, &Registry::disabled(), &plan);
        let (b, pb) = simulate_faulted(&d, &c, &launch, &Registry::disabled(), &plan);
        assert_eq!(a, b);
        assert_eq!(pa.faults, pb.faults);
    }

    #[test]
    fn stall_reasons_label_the_winning_leg() {
        // Critical-warp bound: one 1000-FMA warp among light ones on a
        // wide-issue device.
        let mut b = BlockWork::new();
        for fmas in [1000u32, 10, 10, 10] {
            let mut w = WarpWork::new();
            w.push(Op::Fma(fmas));
            b.warps.push(w);
        }
        let mut launch = KernelLaunch::new("crit");
        launch.blocks.push(b);
        let reg = Registry::new();
        let (_, profile) = simulate_profiled(
            &DeviceProfile::p100(),
            &CostModel::zero_overhead(),
            &launch,
            &reg,
        );
        assert_eq!(
            profile.blocks[0].stall_reason(),
            StallReason::CriticalWarpBound
        );
        assert_eq!(reg.counter("sim.stall.critical_warp_bound"), 1);

        // Compute-throughput bound: 16 equal warps on the narrow device.
        let mut launch = KernelLaunch::new("comp");
        launch.blocks.push(compute_block(100, 16));
        let reg = Registry::new();
        let (_, profile) = simulate_profiled(&dev(), &CostModel::zero_overhead(), &launch, &reg);
        assert_eq!(profile.blocks[0].stall_reason(), StallReason::ComputeBound);

        // Memory-throughput bound: 16 streaming warps whose aggregate
        // segment-cycles (16×200×18) dwarf any single warp's latency chain.
        let mut blk = BlockWork::new();
        for wi in 0..16u64 {
            let mut w = WarpWork::new();
            for j in 0..200u64 {
                w.push(Op::Load(wi * 10_000 + j * 7));
            }
            blk.warps.push(w);
        }
        let mut launch = KernelLaunch::new("mem");
        launch.blocks.push(blk);
        let reg = Registry::new();
        let (_, profile) = simulate_profiled(&dev(), &CostModel::default(), &launch, &reg);
        assert_eq!(
            profile.blocks[0].stall_reason(),
            StallReason::MemoryThroughputBound
        );
    }
}
