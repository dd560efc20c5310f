//! Instruction cost model.
//!
//! Two views of every memory access are maintained:
//!
//! * a **latency** view (cycles a lone warp waits), which dominates blocks
//!   with too few warps to hide latency — the under-occupancy pathology of
//!   Table II; and
//! * a **throughput** view (segment-cycles consumed on the SM's memory
//!   path), which dominates well-occupied kernels.
//!
//! A block's duration is the max of the two aggregate views and its
//! critical warp (see [`crate::sched`]). Constants are calibrated so a
//! balanced, memory-bound MTTKRP lands in the paper's measured GFLOPs range
//! on the P100 profile (see EXPERIMENTS.md, "Calibration"); orderings
//! between kernels do not depend on the exact values — sensitivity to
//! `warp_mlp` is checked in `tests/model_robustness.rs`.

/// Cycle costs for the simulator. All per-warp-instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cycles per warp-wide FMA (throughput view divides by the device's
    /// `compute_width_warps`).
    pub fma_cycles: f64,
    /// Latency of an L2-hit 128-B segment access.
    pub l2_hit_latency: f64,
    /// Latency of a DRAM 128-B segment access.
    pub dram_latency: f64,
    /// Throughput cost (SM segment-cycles) of an L2-hit segment.
    pub l2_hit_throughput: f64,
    /// Throughput cost of a DRAM segment.
    pub dram_throughput: f64,
    /// Extra latency of an atomic RMW beyond the underlying access.
    pub atomic_latency: f64,
    /// Extra throughput cost of an atomic RMW.
    pub atomic_throughput: f64,
    /// Serialization surcharge per *other* thread block concurrently
    /// updating the same output row (applied per atomic instruction,
    /// capped by [`CostModel::conflict_cap`]).
    pub atomic_conflict_cycles: f64,
    /// Cap on the counted concurrent writers.
    pub conflict_cap: u32,
    /// How many outstanding memory accesses a single warp overlaps
    /// (instruction-level parallelism within one warp): the latency view
    /// divides by this.
    pub warp_mlp: f64,
    /// Fixed cycles per thread block: dispatch, prologue (range/pointer
    /// setup), `__syncthreads` epilogue, and tail-wave underutilization.
    /// This is the cost that sinks micro-block kernels — e.g. GPU-CSF's
    /// block-per-slice mapping on tensors with millions of tiny slices
    /// (the paper's freebase rows of Table II) — while being noise for
    /// kernels whose blocks carry hundreds of nonzeros.
    pub block_overhead_cycles: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            fma_cycles: 1.0,
            l2_hit_latency: 36.0,
            dram_latency: 220.0,
            l2_hit_throughput: 7.0,
            dram_throughput: 18.0,
            atomic_latency: 40.0,
            atomic_throughput: 14.0,
            atomic_conflict_cycles: 18.0,
            conflict_cap: 32,
            warp_mlp: 1.5,
            block_overhead_cycles: 1_000.0,
        }
    }
}

impl CostModel {
    /// A cost model without per-block overhead — useful in unit tests that
    /// assert exact cycle counts.
    pub fn zero_overhead() -> CostModel {
        CostModel {
            block_overhead_cycles: 0.0,
            ..Default::default()
        }
    }
}

impl CostModel {
    /// Latency contribution of one segment access.
    #[inline]
    pub fn mem_latency(&self, hit: bool) -> f64 {
        let raw = if hit {
            self.l2_hit_latency
        } else {
            self.dram_latency
        };
        raw / self.warp_mlp
    }

    /// Throughput contribution of one segment access.
    #[inline]
    pub fn mem_throughput(&self, hit: bool) -> f64 {
        if hit {
            self.l2_hit_throughput
        } else {
            self.dram_throughput
        }
    }

    /// Conflict surcharge for an atomic seen by `writers` distinct blocks.
    #[inline]
    pub fn conflict_surcharge(&self, writers: u32) -> f64 {
        let others = writers.saturating_sub(1).min(self.conflict_cap);
        self.atomic_conflict_cycles * others as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_sanely() {
        let c = CostModel::default();
        assert!(c.dram_latency > c.l2_hit_latency);
        assert!(c.dram_throughput > c.l2_hit_throughput);
        assert!(c.mem_latency(true) < c.mem_latency(false));
    }

    #[test]
    fn conflict_surcharge_caps() {
        let c = CostModel::default();
        assert_eq!(c.conflict_surcharge(1), 0.0);
        assert_eq!(c.conflict_surcharge(2), c.atomic_conflict_cycles);
        assert_eq!(
            c.conflict_surcharge(10_000),
            c.atomic_conflict_cycles * c.conflict_cap as f64
        );
    }
}
