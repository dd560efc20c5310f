//! Property-based invariants of the machine model: the makespan must obey
//! its scheduling-theoretic bounds and metrics must stay in range.

use gpu_sim::{
    simulate, simulate_faulted, BlockWork, CostModel, DeviceProfile, FaultPlan, KernelLaunch, Op,
    WarpWork,
};
use proptest::prelude::*;

fn warp(ops: &[Op]) -> WarpWork {
    let mut w = WarpWork::new();
    for &op in ops {
        w.push(op);
    }
    w
}

fn arb_launch() -> impl Strategy<Value = KernelLaunch> {
    let op = prop_oneof![
        (1u32..50).prop_map(Op::Fma),
        (1u32..20).prop_map(Op::Alu),
        (0u64..200).prop_map(Op::Load),
        (0u64..200).prop_map(Op::Store),
        ((0u32..8), (0u64..40)).prop_map(|(row, seg)| Op::AtomicAdd { row, seg }),
        (1u32..10).prop_map(Op::Sync),
    ];
    let warp = proptest::collection::vec(op, 1..20).prop_map(|ops| warp(&ops));
    let block = proptest::collection::vec(warp, 1..6).prop_map(|warps| BlockWork { warps });
    proptest::collection::vec(block, 0..20).prop_map(|blocks| KernelLaunch {
        name: "prop".into(),
        blocks,
    })
}

/// Every op variant over its whole operand range, with the extremes the
/// packed encoding must hold as arms of their own.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u32>().prop_map(Op::Fma),
        Just(Op::Fma(u32::MAX)),
        any::<u32>().prop_map(Op::Alu),
        (0u64..1 << 61).prop_map(Op::Load),
        (0u64..1 << 61).prop_map(Op::Store),
        (any::<u32>(), 0u64..1 << 57).prop_map(|(row, seg)| Op::AtomicAdd { row, seg }),
        Just(Op::AtomicAdd {
            row: u32::MAX,
            seg: (1 << 57) - 1
        }),
        any::<u32>().prop_map(Op::Replay),
        any::<u32>().prop_map(Op::Sync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packed_ops_round_trip(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let w = warp(&ops);
        prop_assert_eq!(w.ops().collect::<Vec<_>>(), ops.clone());
        // One word per op, two per atomic.
        let atomics = ops.iter().filter(|op| matches!(op, Op::AtomicAdd { .. })).count();
        prop_assert_eq!(w.bytes(), 8 * (ops.len() + atomics));
        prop_assert_eq!(w.is_empty(), ops.is_empty());
    }

    #[test]
    fn makespan_obeys_list_scheduling_bounds(launch in arb_launch()) {
        let dev = DeviceProfile::tiny();
        let cost = CostModel::default();
        let r = simulate(&dev, &cost, &launch);
        // Metrics in range.
        prop_assert!(r.sm_efficiency >= 0.0 && r.sm_efficiency <= 100.0 + 1e-9);
        prop_assert!(r.achieved_occupancy >= 0.0 && r.achieved_occupancy <= 100.0 + 1e-9);
        prop_assert!(r.l2_hit_rate >= 0.0 && r.l2_hit_rate <= 100.0);
        // Makespan at least the heaviest block, at most the serial sum.
        prop_assert!(r.makespan_cycles + 1e-9 >= r.max_block_cycles);
        let serial = r.mean_block_cycles * r.num_blocks as f64;
        prop_assert!(r.makespan_cycles <= serial + 1e-6);
        // Greedy list scheduling is within 2x of the lower bound
        // max(serial / machines, max block).
        let lower = (serial / dev.num_sms as f64).max(r.max_block_cycles);
        if r.num_blocks > 0 {
            prop_assert!(
                r.makespan_cycles <= 2.0 * lower + 1e-6,
                "makespan {} exceeds 2x lower bound {}",
                r.makespan_cycles,
                lower
            );
        }
    }

    #[test]
    fn more_sms_never_slower(launch in arb_launch()) {
        let cost = CostModel::default();
        let small = DeviceProfile::tiny();
        let mut big = DeviceProfile::tiny();
        big.num_sms *= 4;
        let rs = simulate(&small, &cost, &launch);
        let rb = simulate(&big, &cost, &launch);
        prop_assert!(rb.makespan_cycles <= rs.makespan_cycles + 1e-6);
    }

    #[test]
    fn flops_independent_of_device(launch in arb_launch()) {
        let cost = CostModel::default();
        let a = simulate(&DeviceProfile::tiny(), &cost, &launch);
        // Same warp size → same flops; scheduling must not change work.
        let mut dev2 = DeviceProfile::tiny();
        dev2.num_sms = 1;
        let b = simulate(&dev2, &cost, &launch);
        prop_assert_eq!(a.total_flops, b.total_flops);
        prop_assert_eq!(a.mem_segments, b.mem_segments);
        prop_assert_eq!(a.atomic_ops, b.atomic_ops);
    }

    #[test]
    fn cache_counters_are_conserved(segs in proptest::collection::vec(0u64..500, 0..400)) {
        let mut c = gpu_sim::L2Cache::new(16 * 1024, 128, 4);
        for &s in &segs {
            c.access(s);
        }
        prop_assert_eq!((c.hits() + c.misses()) as usize, segs.len());
    }

    #[test]
    fn cache_fitting_working_set_hits_on_second_pass(
        n in 1usize..32, // 16 KiB / 128 B = 128 lines; stay well inside
    ) {
        let mut c = gpu_sim::L2Cache::new(16 * 1024, 128, 4);
        // Use a stride of 1 so at most ceil(n/4) lines land per set (4-way).
        for pass in 0..2 {
            for s in 0..n as u64 {
                let hit = c.access(s);
                if pass == 1 {
                    prop_assert!(hit, "segment {s} missed on second pass");
                }
            }
        }
    }

    #[test]
    fn inert_fault_plans_stay_bit_identical(launch in arb_launch(), seed in any::<u64>()) {
        // An all-zero-rate plan — whatever its seed — must leave the
        // faulted entry point on the exact fault-free code path:
        // bit-for-bit identical metrics, not merely close ones.
        let dev = DeviceProfile::tiny();
        let cost = CostModel::default();
        let inert = FaultPlan::parse("none", seed).expect("'none' parses");
        prop_assert!(!inert.is_active());
        let registry = simprof::Registry::disabled();
        let clean = simulate(&dev, &cost, &launch);
        let (faulted, _) = simulate_faulted(&dev, &cost, &launch, &registry, &inert);
        prop_assert_eq!(clean, faulted);
    }

    #[test]
    fn cheaper_memory_never_slower(launch in arb_launch()) {
        let dev = DeviceProfile::tiny();
        let base = CostModel::default();
        let mut fast = CostModel::default();
        fast.l2_hit_throughput /= 2.0;
        fast.dram_throughput /= 2.0;
        fast.l2_hit_latency /= 2.0;
        fast.dram_latency /= 2.0;
        let a = simulate(&dev, &base, &launch);
        let b = simulate(&dev, &fast, &launch);
        prop_assert!(b.makespan_cycles <= a.makespan_cycles + 1e-6);
    }
}
