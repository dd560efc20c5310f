//! # gpu-sim — a deterministic GPU execution-model simulator
//!
//! The paper's contribution is a *scheduling* result: MTTKRP on a GPU is
//! slow when heavy fibers stall warps and heavy slices stall thread blocks,
//! and fast when work is rebalanced. Those phenomena live in the execution
//! model — warps in lockstep, blocks scheduled onto SMs, memory served in
//! coalesced 128-byte segments through a shared L2 — not in silicon. This
//! crate implements that execution model so the paper's kernels can be
//! "run" without CUDA hardware and report the same metrics nvprof does:
//!
//! * [`DeviceProfile`] — machine parameters (SM count, warp slots, L2
//!   geometry, clock); [`DeviceProfile::p100`] mirrors the paper's Tesla
//!   P100.
//! * [`grid`] — the work description a kernel emits: a grid of
//!   [`BlockWork`]s, each a set of [`WarpWork`] instruction streams over
//!   synthetic addresses from an [`AddressSpace`].
//! * [`L2Cache`] — a set-associative LRU model producing the Table II
//!   `L2 hit rate` column.
//! * [`simulate`] — the two-level scheduler: a roofline-style block cost
//!   (compute throughput vs. memory throughput vs. the critical warp) and
//!   greedy list scheduling of blocks onto SMs. Returns a [`SimResult`]
//!   with makespan, `sm_efficiency`, `achieved_occupancy`, L2 hit rate and
//!   GFLOPs. It runs [`cost_pass`] (the per-block costs, as a
//!   [`CostTable`]) then [`schedule_pass`] (the grid schedule and fault
//!   injection over that table); callers that keep the table schedule it
//!   again without the instruction stream.
//!
//! ## Fidelity envelope
//!
//! The model is throughput-calibrated, not cycle-accurate: absolute GFLOPs
//! depend on the [`CostModel`] constants (documented calibration in
//! EXPERIMENTS.md), but *orderings* between kernels and the response to
//! load imbalance — the quantities every figure of the paper reports — are
//! structural properties of the scheduler. Everything is deterministic:
//! same launch, same cycle counts.

pub mod cache;
pub mod cost;
pub mod device;
pub mod fault;
pub mod grid;
pub mod interconnect;
pub mod mem;
pub mod memtrace;
pub mod sched;
pub mod trace;

pub use cache::L2Cache;
pub use cost::CostModel;
pub use device::DeviceProfile;
pub use fault::{BitFlip, FaultKind, FaultPlan, FaultSpecError, InjectedFault};
pub use grid::{AddressSpace, ArraySpan, BlockWork, KernelLaunch, Op, WarpWork};
pub use interconnect::Interconnect;
pub use mem::{AllocRecord, DeviceMemory, MemError, MemLease, OomEvent};
pub use memtrace::{replay_launch, LaunchTrace, MemTraceRecorder, ReplayCheck, TraceAccess};
pub use sched::{
    co_resident_makespan, cost_pass, schedule_pass, simulate, simulate_faulted,
    simulate_instrumented, simulate_profiled, simulate_with_timeline, AtomicRowCharge, BlockCost,
    BlockPlacement, CostTable, SimInstruments, SimProfile, SimResult, StallReason, Timeline,
};
pub use trace::{append_chrome_trace, chrome_trace};
