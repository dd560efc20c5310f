//! `simgrid`: multi-device sharded MTTKRP over a modeled interconnect.
//!
//! A node of `N` identical simulated GPUs executes one captured [`Plan`]
//! cooperatively: the replay schedule's block range is carved into `N`
//! consecutive shards balanced by `Plan::block_weight_prefix` (the same
//! weights the out-of-core packer tiles by), each device runs its shard's
//! partial MTTKRP against its own [`DeviceMemory`] — tiling and shrinking
//! locally when the shard exceeds the per-device capacity — and the dense
//! partial outputs meet in a modeled ring all-reduce priced by the
//! configured [`Interconnect`].
//!
//! # Bit-exactness
//!
//! Sharding must not change the answer, for any device count, clean or
//! faulted. Elementwise summation of per-device partials would reorder
//! the floating-point fold, so the *committed* numerics here follow the
//! tiled engine instead: the model phase (shard fit, leases, per-device
//! simulation, all-reduce pricing) runs per device in parallel, while the
//! value phase folds every shard's contributions into one shared output
//! in global emission order —
//! `Plan::replay_range` per shard without a sink for clean runs, and
//! a single [`AbftSink`](super::AbftSink) spanning all shards with global
//! block ordinals under execution faults. Consecutive-range folds are
//! bit-identical to the untiled replay by construction, so
//! `shard(N) == shard(1) == Plan::execute` exactly, and the all-reduce is
//! pure accounting (time + volume) on the wire-level dense partials.
//!
//! Everything is deterministic: shard boundaries are arithmetic on the
//! weight prefix, lease fault draws key on `(kernel, site)` with
//! device-distinguished sites, and the rayon model phase only computes
//! per-device records that are order-independent.

use std::sync::Arc;

use dense::Matrix;
use gpu_sim::{DeviceMemory, Interconnect, SimResult};
use rayon::prelude::*;
use simprof::FieldValue;
use sptensor::CooTensor;

use super::common::{GpuContext, GpuRun};
use super::exec::LaunchError;
use super::ooc::{self, OocOptions};
use super::plan::Plan;

/// Bytes per output value (f32) on the modeled wire.
const VALUE_BYTES: u64 = 4;

/// Shape of the simulated multi-GPU node.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Number of simulated devices (1 = the single-GPU path, still run
    /// through the sharded engine for apples-to-apples comparisons).
    pub devices: usize,
    /// Inter-device link model pricing the all-reduce.
    pub interconnect: Interconnect,
    /// Per-device memory capacity in bytes (`u64::MAX` = unlimited).
    pub capacity_per_device: u64,
}

impl GridSpec {
    /// A node of `devices` GPUs with unlimited per-device memory.
    pub fn new(devices: usize, interconnect: Interconnect) -> GridSpec {
        assert!(devices >= 1, "a grid needs at least one device");
        GridSpec {
            devices,
            interconnect,
            capacity_per_device: u64::MAX,
        }
    }

    /// Caps every device at `bytes` of memory.
    pub fn with_capacity(mut self, bytes: u64) -> GridSpec {
        self.capacity_per_device = bytes;
        self
    }
}

/// One device's share of a sharded execution.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DeviceShardReport {
    pub device: usize,
    /// Schedule-block range `[block_begin, block_end)` this device owns.
    pub block_begin: usize,
    pub block_end: usize,
    /// Load-balance weight of the shard (contributions + leaves + chains).
    pub weight: u64,
    /// Whether the shard fit the device whole (no tiling).
    pub in_core: bool,
    /// Tiles the shard was carved into (1 when `in_core`).
    pub tiles_run: usize,
    /// Injected allocation refusals absorbed while fitting the shard.
    pub oom_events: u64,
    /// Peak bytes leased on this device.
    pub high_water_bytes: u64,
    /// Modeled compute time of the shard on this device.
    pub sim_time_s: f64,
    pub makespan_cycles: f64,
    pub total_flops: u64,
}

/// The communication + load-balance story of one sharded execution.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct GridReport {
    pub devices: usize,
    /// Human-readable interconnect description (name, bandwidth, latency).
    pub interconnect: String,
    pub shards: Vec<DeviceShardReport>,
    /// Modeled node compute time: max over devices (they run in parallel).
    pub compute_seconds: f64,
    /// Modeled ring all-reduce time over the dense partial outputs.
    pub allreduce_seconds: f64,
    /// Bytes crossing the interconnect during the all-reduce.
    pub allreduce_bytes: u64,
    /// `compute_seconds + allreduce_seconds`.
    pub total_seconds: f64,
    /// Whether a device failed every GPU rung and the whole run fell back
    /// to the CPU reference.
    pub cpu_fallback: bool,
    /// Original device ordinals that dropped out (`device-loss` faults)
    /// and were re-sharded around. `devices` and `shards` describe the
    /// *surviving* grid, which is exactly the clean grid of that size.
    pub lost_devices: Vec<usize>,
    /// Modeled compute time thrown away on lost devices (each ran its
    /// original shard to its drawn progress fraction before dying).
    /// Already included in `compute_seconds`/`total_seconds`.
    pub wasted_seconds: f64,
    /// Ring links that ran degraded (`link-degrade` faults): the
    /// all-reduce was priced on the degraded fabric (a ring is
    /// bottlenecked by its slowest link). Values are untouched.
    pub degraded_links: Vec<usize>,
    /// Ring links that were down (`link-loss` faults). A broken ring has
    /// no collective: the grid fell back to the bit-exact single-device
    /// path, so `devices`/`shards` describe that one-device execution.
    pub lost_links: Vec<usize>,
}

impl GridReport {
    /// Converts to the simprof manifest record (one launch).
    pub fn to_record(&self) -> simprof::GridRecord {
        simprof::GridRecord {
            devices: self.devices,
            interconnect: self.interconnect.clone(),
            allreduce_bytes: self.allreduce_bytes,
            allreduce_seconds: self.allreduce_seconds,
            compute_seconds: self.compute_seconds,
            launches: 1,
            device_losses: self.lost_devices.len() as u64,
            link_degrades: self.degraded_links.len() as u64,
            link_losses: self.lost_links.len() as u64,
            per_device: self
                .shards
                .iter()
                .map(|s| simprof::DeviceRecord {
                    device: s.device,
                    launches: 1,
                    tiles: s.tiles_run as u64,
                    sim_seconds: s.sim_time_s,
                    total_flops: s.total_flops,
                    oom_events: s.oom_events,
                    high_water_bytes: s.high_water_bytes,
                })
                .collect(),
        }
    }
}

/// Splits schedule blocks `0..nblocks` into `devices` consecutive ranges
/// with near-equal total weight: cut `d` lands at the first block whose
/// prefix weight reaches `d/devices` of the total. Ranges may be empty
/// (more devices than blocks); their union is always the full range, in
/// order — the invariant the bit-exact fold relies on.
pub(crate) fn shard_ranges(prefix: &[u64], devices: usize) -> Vec<(usize, usize)> {
    let nblocks = prefix.len() - 1;
    let total = prefix[nblocks];
    let mut cuts = Vec::with_capacity(devices + 1);
    cuts.push(0usize);
    let mut last = 0usize;
    for d in 1..devices {
        let target = (u128::from(total) * d as u128 / devices as u128) as u64;
        let b = prefix.partition_point(|&w| w < target).min(nblocks);
        last = b.max(last);
        cuts.push(last);
    }
    cuts.push(nblocks);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

/// The captured model of one plan sharded across a grid: shard ranges,
/// per-device tilings and memory ledgers, per-device simulations, and the
/// priced all-reduce. Building the model is the expensive phase; cloning
/// values out of it ([`ShardModel::execute`]) is cheap, so iterative
/// drivers (CPD-ALS) build one model per mode and replay it every
/// iteration.
///
/// Memory-fault draws happen at build time (the leases are modeled once),
/// so a model reused across iterations commits to one OOM story — the
/// same trade the plan-capture split already makes for structure.
pub struct ShardModel {
    spec: GridSpec,
    ranges: Vec<(usize, usize)>,
    device_mems: Vec<Arc<DeviceMemory>>,
    shards: Vec<DeviceShardReport>,
    node_sim: SimResult,
    compute_seconds: f64,
    allreduce_seconds: f64,
    allreduce_bytes: u64,
    cpu_fallback: bool,
    lost_devices: Vec<usize>,
    wasted_seconds: f64,
    degraded_links: Vec<usize>,
    lost_links: Vec<usize>,
}

/// Per-device model-phase result.
struct DeviceFit {
    report: DeviceShardReport,
    /// The tiles the memory walker chose; `None` when every GPU rung
    /// refused.
    tiles: Option<Vec<(usize, usize)>>,
}

impl ShardModel {
    /// Phase A: shard, fit each shard to its device (tiling + shrink
    /// ladder against the per-device capacity), simulate each device's
    /// launches, and price the all-reduce. Runs the per-device work on
    /// the rayon pool; every output is order-independent.
    ///
    /// When the context carries a `device-loss` fault plan, each device
    /// of a multi-device grid may drop out (drawn per device, at least
    /// one survivor guaranteed). Recovery is re-sharding: the model is
    /// rebuilt for the surviving device count, whose shard ranges — and
    /// therefore whose value fold — are *exactly* those of a clean run
    /// on that many devices, so the output stays bit-identical. The dead
    /// devices' partial work is charged as wasted compute time.
    pub fn build(ctx: &GpuContext, plan: &Plan, spec: &GridSpec, opts: &OocOptions) -> ShardModel {
        if spec.devices > 1 {
            if let Some(fp) = ctx.device_fault_plan() {
                let mut lost: Vec<usize> = Vec::new();
                for d in 0..spec.devices {
                    // Liveness: never lose the last remaining survivor.
                    if spec.devices - lost.len() <= 1 {
                        break;
                    }
                    if fp.device_lost(plan.name(), d) {
                        lost.push(d);
                    }
                }
                if !lost.is_empty() {
                    return Self::build_survivors(ctx, plan, spec, opts, lost);
                }
            }
        }
        Self::build_clean(ctx, plan, spec, opts)
    }

    /// Re-shards around `lost` devices: builds the clean model for the
    /// surviving device count (bit-identical to a clean run of that
    /// size — single level, survivors do not cascade-fail within one
    /// launch) and charges the time the dead devices burned on their
    /// original shards before dying.
    fn build_survivors(
        ctx: &GpuContext,
        plan: &Plan,
        spec: &GridSpec,
        opts: &OocOptions,
        lost: Vec<usize>,
    ) -> ShardModel {
        let survivor_spec = GridSpec {
            devices: spec.devices - lost.len(),
            interconnect: spec.interconnect.clone(),
            capacity_per_device: spec.capacity_per_device,
        };
        let mut model = Self::build_clean(ctx, plan, &survivor_spec, opts);
        // Wasted-time model: each lost device ran its share of the
        // *original* N-way sharding up to its drawn progress fraction.
        // Devices run concurrently, so the node loses the max, not the
        // sum.
        let prefix = plan.block_weight_prefix();
        let ranges = shard_ranges(&prefix, spec.devices);
        let total_weight = prefix[prefix.len() - 1].max(1);
        let clean_sim = plan.clean_sim_cached(ctx);
        let mut wasted = 0.0f64;
        if let Some(fp) = ctx.device_fault_plan() {
            for &d in &lost {
                let (b0, b1) = ranges[d];
                let share = (prefix[b1] - prefix[b0]) as f64 / total_weight as f64;
                let progress = fp.device_loss_progress(plan.name(), d);
                wasted = wasted.max(clean_sim.time_s * share * progress);
            }
        }
        model.lost_devices = lost;
        model.wasted_seconds = wasted;
        model.compute_seconds += wasted;
        model.node_sim.time_s += wasted;
        model
    }

    /// Clean build with link-fault handling: a multi-device grid first
    /// draws the state of its `n` ring links (link `l` connects device
    /// `l` to `(l+1) % n`). Any lost link breaks the ring — there is no
    /// collective — so the grid falls back to the bit-exact single-device
    /// path. Otherwise any degraded link re-prices the all-reduce on the
    /// degraded fabric (a ring moves every step over every link, so the
    /// slowest link sets the pace). Neither outcome perturbs committed
    /// values.
    fn build_clean(
        ctx: &GpuContext,
        plan: &Plan,
        spec: &GridSpec,
        opts: &OocOptions,
    ) -> ShardModel {
        if spec.devices > 1 {
            if let Some(fp) = ctx.link_fault_plan() {
                let name = plan.name();
                let lost: Vec<usize> = (0..spec.devices)
                    .filter(|&l| fp.link_lost(name, l))
                    .collect();
                if !lost.is_empty() {
                    let single = GridSpec {
                        devices: 1,
                        interconnect: spec.interconnect.clone(),
                        capacity_per_device: spec.capacity_per_device,
                    };
                    let mut model = Self::build_fabric(ctx, plan, &single, opts, None);
                    model.lost_links = lost;
                    return model;
                }
                let degraded: Vec<usize> = (0..spec.devices)
                    .filter(|&l| fp.link_degraded(name, l))
                    .collect();
                if !degraded.is_empty() {
                    let fabric = spec.interconnect.degraded(fp.link_degrade_factor);
                    let mut model = Self::build_fabric(ctx, plan, spec, opts, Some(fabric));
                    model.degraded_links = degraded;
                    return model;
                }
            }
        }
        Self::build_fabric(ctx, plan, spec, opts, None)
    }

    /// The fabric-parameterized model build: `fabric` (when present)
    /// prices the all-reduce in place of the configured interconnect —
    /// everything else (shards, leases, simulations) is fabric-blind.
    fn build_fabric(
        ctx: &GpuContext,
        plan: &Plan,
        spec: &GridSpec,
        opts: &OocOptions,
        fabric: Option<Interconnect>,
    ) -> ShardModel {
        let prefix = plan.block_weight_prefix();
        let ranges = shard_ranges(&prefix, spec.devices);
        let device_mems: Vec<Arc<DeviceMemory>> = (0..spec.devices)
            .map(|_| {
                if spec.capacity_per_device == u64::MAX {
                    Arc::new(DeviceMemory::unlimited())
                } else {
                    Arc::new(DeviceMemory::with_capacity(spec.capacity_per_device))
                }
            })
            .collect();

        let fits: Vec<DeviceFit> = ranges
            .par_iter()
            .enumerate()
            .map(|(d, &range)| fit_device(ctx, plan, opts, &prefix, d, range, &device_mems[d]))
            .collect();
        // One re-emission of the plan cuts every device's tiles: they are
        // consecutive ranges of the schedule, in device order.
        let tiles: Vec<(usize, usize)> = fits
            .iter()
            .flat_map(|f| f.tiles.iter().flatten().copied())
            .collect();
        let mut tile_sims = plan.simulate_ranges(ctx, &tiles).into_iter();

        let cpu_fallback = fits.iter().any(|f| f.tiles.is_none());
        let mut shards = Vec::with_capacity(spec.devices);
        let mut node_sim = ooc::cpu_fallback_sim(plan);
        node_sim.kernel = format!("{}+sharded[{}]", plan.name(), spec.devices);
        let mut weighted_eff = 0.0f64;
        let mut weighted_occ = 0.0f64;
        let mut weighted_l2 = 0.0f64;
        let mut weighted_mean_block = 0.0f64;
        let mut compute_seconds = 0.0f64;
        let mut busy_seconds = 0.0f64;
        for mut f in fits {
            let ran: Vec<Option<SimResult>> = tile_sims.by_ref().take(f.report.tiles_run).collect();
            let sim = &ooc::aggregate_tiled_sim(ctx, plan, &ran);
            f.report.sim_time_s = sim.time_s;
            f.report.makespan_cycles = sim.makespan_cycles;
            f.report.total_flops = sim.total_flops;
            // Devices run concurrently: the node's critical path is the
            // slowest device; counters still add across the node.
            compute_seconds = compute_seconds.max(sim.time_s);
            node_sim.makespan_cycles = node_sim.makespan_cycles.max(sim.makespan_cycles);
            node_sim.total_flops += sim.total_flops;
            node_sim.num_blocks += sim.num_blocks;
            node_sim.num_warps += sim.num_warps;
            node_sim.mem_segments += sim.mem_segments;
            node_sim.atomic_ops += sim.atomic_ops;
            node_sim.max_block_cycles = node_sim.max_block_cycles.max(sim.max_block_cycles);
            weighted_eff += sim.sm_efficiency * sim.time_s;
            weighted_occ += sim.achieved_occupancy * sim.time_s;
            weighted_l2 += sim.l2_hit_rate * sim.time_s;
            weighted_mean_block += sim.mean_block_cycles * sim.num_blocks as f64;
            busy_seconds += sim.time_s;
            shards.push(f.report);
        }
        let out_bytes = (plan.out_rows() as u64)
            .saturating_mul(plan.rank() as u64)
            .saturating_mul(VALUE_BYTES);
        // A grid that fell back to the CPU reference ran no device, so
        // nothing crosses the wire: price it as a ring of one.
        let pricing = fabric.as_ref().unwrap_or(&spec.interconnect);
        let ring = if cpu_fallback { 1 } else { spec.devices };
        let allreduce_seconds = pricing.all_reduce_seconds(out_bytes, ring);
        let allreduce_bytes = pricing.all_reduce_volume(out_bytes, ring);
        node_sim.time_s = compute_seconds + allreduce_seconds;
        if busy_seconds > 0.0 {
            node_sim.sm_efficiency = weighted_eff / busy_seconds;
            node_sim.achieved_occupancy = weighted_occ / busy_seconds;
            node_sim.l2_hit_rate = weighted_l2 / busy_seconds;
        }
        if node_sim.num_blocks > 0 {
            node_sim.mean_block_cycles = weighted_mean_block / node_sim.num_blocks as f64;
        }
        if node_sim.time_s > 0.0 {
            node_sim.gflops = node_sim.total_flops as f64 / node_sim.time_s / 1e9;
        }

        ShardModel {
            spec: spec.clone(),
            ranges,
            device_mems,
            shards,
            node_sim,
            compute_seconds,
            allreduce_seconds,
            allreduce_bytes,
            cpu_fallback,
            lost_devices: Vec::new(),
            wasted_seconds: 0.0,
            degraded_links: Vec::new(),
            lost_links: Vec::new(),
        }
    }

    /// The shard block ranges, in device order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Original device ordinals that dropped out at model build and were
    /// re-sharded around (empty for a clean model).
    pub fn lost_devices(&self) -> &[usize] {
        &self.lost_devices
    }

    /// Ring links that ran degraded for this model (empty when the fabric
    /// was clean).
    pub fn degraded_links(&self) -> &[usize] {
        &self.degraded_links
    }

    /// Ring links that were down for this model; non-empty means the grid
    /// fell back to the bit-exact single-device path.
    pub fn lost_links(&self) -> &[usize] {
        &self.lost_links
    }

    /// Phase B: produce values. Clean runs fold each shard's block range
    /// into one shared output in device order; faulted runs route every
    /// contribution through a single ABFT sink with global block
    /// ordinals. Either way the result is bit-identical to
    /// [`Plan::execute`] on one device.
    ///
    /// Errors with [`LaunchError::TensorRequired`] if the model fell
    /// back to the CPU reference and no COO tensor was attached.
    pub fn execute(
        &self,
        ctx: &GpuContext,
        plan: &Plan,
        factors: &[Matrix],
        tensor: Option<&CooTensor>,
    ) -> Result<(GpuRun, GridReport), LaunchError> {
        let run = if self.cpu_fallback {
            let Some(t) = tensor else {
                return Err(LaunchError::TensorRequired);
            };
            GpuRun {
                y: crate::reference::mttkrp(t, factors, plan.mode()),
                sim: ooc::cpu_fallback_sim(plan),
                profile: None,
                abft: None,
            }
        } else {
            let (y, abft) = plan.replay_ranges(ctx, factors, &self.ranges);
            GpuRun {
                y,
                sim: self.node_sim.clone(),
                // Per-device timelines do not concatenate into one
                // meaningful whole-node profile (same stance as tiling);
                // per-device stats live in the GridReport instead.
                profile: None,
                abft,
            }
        };
        if ctx.profiling() {
            ctx.registry.add("sharded.executions", 1);
            ctx.registry
                .add("sharded.devices", self.spec.devices as u64);
            let ooms: u64 = self.shards.iter().map(|s| s.oom_events).sum();
            ctx.registry.add("sharded.oom_events", ooms);
            if self.cpu_fallback {
                ctx.registry.add("sharded.cpu_fallbacks", 1);
            }
            if !self.lost_devices.is_empty() {
                ctx.registry
                    .add("sharded.device_losses", self.lost_devices.len() as u64);
            }
            if !self.degraded_links.is_empty() {
                ctx.registry
                    .add("sharded.link_degrades", self.degraded_links.len() as u64);
            }
            if !self.lost_links.is_empty() {
                ctx.registry
                    .add("sharded.link_losses", self.lost_links.len() as u64);
            }
            for s in &self.shards {
                ctx.registry
                    .observe("shard.compute_us", (s.sim_time_s * 1e6).round() as u64);
            }
        }
        if !self.cpu_fallback {
            // The *canonical* replay timing is the memoized fault-free
            // whole-launch simulation: it depends only on the captured
            // launch, never on the device count, so the simulated clock —
            // and every fold-order event stamped from it — is identical
            // across `--devices 1` and `--devices N`. Device-dependent
            // quantities (per-shard times, all-reduce pricing) are carried
            // by `shard-*` events instead, which are excluded from the
            // cross-device stability contract.
            let tel = &ctx.telemetry;
            let clean_sim = plan.clean_sim_cached(ctx);
            let canonical_us = clean_sim.time_s * 1e6;
            if tel.enabled() {
                let span = tel.new_span();
                tel.emit(
                    "kernel-replay",
                    None,
                    span,
                    &[
                        ("kernel", FieldValue::from(plan.name())),
                        ("mode", FieldValue::from(plan.mode())),
                        ("sim_kernel_us", FieldValue::from(canonical_us)),
                        ("faulted", FieldValue::from(ctx.fault_plan().is_some())),
                    ],
                );
                for &d in &self.lost_devices {
                    tel.emit(
                        "device-lost",
                        Some(d),
                        span,
                        &[
                            ("kernel", FieldValue::from(plan.name())),
                            ("survivors", FieldValue::from(self.spec.devices)),
                            ("wasted_us", FieldValue::from(self.wasted_seconds * 1e6)),
                        ],
                    );
                }
                for &l in &self.lost_links {
                    tel.emit(
                        "link-lost",
                        None,
                        span,
                        &[
                            ("kernel", FieldValue::from(plan.name())),
                            ("link", FieldValue::from(l)),
                            ("fallback_devices", FieldValue::from(self.spec.devices)),
                        ],
                    );
                }
                for &l in &self.degraded_links {
                    tel.emit(
                        "link-degraded",
                        None,
                        span,
                        &[
                            ("kernel", FieldValue::from(plan.name())),
                            ("link", FieldValue::from(l)),
                            (
                                "allreduce_us",
                                FieldValue::from(self.allreduce_seconds * 1e6),
                            ),
                        ],
                    );
                }
                for s in &self.shards {
                    tel.emit(
                        "shard-compute",
                        Some(s.device),
                        span,
                        &[
                            ("kernel", FieldValue::from(plan.name())),
                            ("block_begin", FieldValue::from(s.block_begin)),
                            ("block_end", FieldValue::from(s.block_end)),
                            ("weight", FieldValue::from(s.weight)),
                            ("tiles", FieldValue::from(s.tiles_run)),
                            ("sim_us", FieldValue::from(s.sim_time_s * 1e6)),
                        ],
                    );
                }
                tel.emit(
                    "shard-allreduce",
                    None,
                    span,
                    &[
                        ("kernel", FieldValue::from(plan.name())),
                        ("devices", FieldValue::from(self.spec.devices)),
                        ("bytes", FieldValue::from(self.allreduce_bytes)),
                        ("seconds", FieldValue::from(self.allreduce_seconds)),
                    ],
                );
            }
            tel.advance_us(canonical_us);
        }
        Ok((run, self.report()))
    }

    /// The grid report for the current model state (high-water marks are
    /// read from the per-device ledgers at call time).
    pub fn report(&self) -> GridReport {
        let mut shards = self.shards.clone();
        for s in &mut shards {
            s.high_water_bytes = self.device_mems[s.device].high_water();
        }
        GridReport {
            devices: self.spec.devices,
            interconnect: self.spec.interconnect.to_string(),
            shards,
            compute_seconds: self.compute_seconds,
            allreduce_seconds: self.allreduce_seconds,
            allreduce_bytes: self.allreduce_bytes,
            total_seconds: self.compute_seconds + self.allreduce_seconds,
            cpu_fallback: self.cpu_fallback,
            lost_devices: self.lost_devices.clone(),
            wasted_seconds: self.wasted_seconds,
            degraded_links: self.degraded_links.clone(),
            lost_links: self.lost_links.clone(),
        }
    }
}

/// Fits one device's shard with the memory walker ([`ooc::fit_range`]
/// in the device's namespace). The caller simulates the tiles it chose.
fn fit_device(
    ctx: &GpuContext,
    plan: &Plan,
    opts: &OocOptions,
    prefix: &[u64],
    device: usize,
    (b0, b1): (usize, usize),
    mem: &Arc<DeviceMemory>,
) -> DeviceFit {
    let mut report = DeviceShardReport {
        device,
        block_begin: b0,
        block_end: b1,
        weight: prefix[b1] - prefix[b0],
        in_core: true,
        tiles_run: 0,
        oom_events: 0,
        high_water_bytes: 0,
        sim_time_s: 0.0,
        makespan_cycles: 0.0,
        total_flops: 0,
    };
    // An empty shard (more devices than blocks) holds nothing and runs
    // nothing; a shard every rung refused runs on the CPU.
    let mut tiles = Some(Vec::new());
    if b0 < b1 {
        let fit = ooc::fit_range(plan, mem, ctx.mem_fault_plan(), device, (b0, b1), opts);
        report.in_core = fit.in_core();
        report.oom_events = fit.oom_events;
        tiles = fit.tiles;
    }
    report.tiles_run = tiles.as_ref().map_or(0, Vec::len);
    DeviceFit { report, tiles }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_and_balance() {
        // Uniform weights: 12 blocks over 4 devices -> 3 each.
        let prefix: Vec<u64> = (0..=12).map(|b| b as u64 * 5).collect();
        let r = shard_ranges(&prefix, 4);
        assert_eq!(r, vec![(0, 3), (3, 6), (6, 9), (9, 12)]);
        // One device owns everything.
        assert_eq!(shard_ranges(&prefix, 1), vec![(0, 12)]);
        // More devices than blocks: trailing shards are empty, coverage
        // stays exact and consecutive.
        let small: Vec<u64> = vec![0, 7, 9];
        let r = shard_ranges(&small, 4);
        assert_eq!(r.first().unwrap().0, 0);
        assert_eq!(r.last().unwrap().1, 2);
        for w in r.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn skewed_weights_split_by_weight_not_count() {
        // One huge block then many tiny ones: device 0 should get far
        // fewer blocks than device 1.
        let mut prefix = vec![0u64, 1000];
        for b in 1..=10 {
            prefix.push(1000 + b);
        }
        let r = shard_ranges(&prefix, 2);
        assert_eq!(r[0].1, r[1].0);
        assert!(r[0].1 <= 2, "heavy block should end the first shard early");
        assert_eq!(r[1].1, 11);
    }
}
