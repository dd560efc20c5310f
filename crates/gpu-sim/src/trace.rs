//! Bridges the simulator's [`SimProfile`] into
//! `simprof`'s exporters.
//!
//! [`chrome_trace`] turns one simulated launch into a Chrome-trace/Perfetto
//! document: the kernel is a process, every SM is a thread track, and every
//! scheduled block is one complete slice whose category is its
//! [`StallReason`](crate::sched::StallReason) (so Perfetto colors blocks by
//! bottleneck) and whose `args` carry the full roofline decomposition.
//! [`SimResult::metric_row`] produces the matching nvprof-table row, taken
//! verbatim from the result's fields so text and JSON never disagree.

use serde_json::json;
use simprof::ChromeTrace;

use crate::sched::{SimProfile, SimResult};

/// Microseconds of simulated time per cycle for this result (1.0 for a
/// degenerate empty launch, so traces stay well-formed).
fn us_per_cycle(result: &SimResult) -> f64 {
    if result.makespan_cycles > 0.0 {
        result.time_s * 1e6 / result.makespan_cycles
    } else {
        1.0
    }
}

/// Appends one simulated launch to `trace` under process `pid`.
///
/// Use this form to overlay several launches (e.g. unsplit vs. split) in
/// one document, one process group each; [`chrome_trace`] is the
/// single-launch convenience wrapper.
pub fn append_chrome_trace(
    trace: &mut ChromeTrace,
    pid: u64,
    result: &SimResult,
    profile: &SimProfile,
) {
    let scale = us_per_cycle(result);
    trace.name_process(pid, &format!("kernel: {}", result.kernel));
    for sm in 0..profile.timeline.spans.len() {
        trace.name_track(pid, sm as u64, &format!("SM {sm}"));
    }
    for p in &profile.placements {
        let b = &profile.blocks[p.block];
        trace.slice(
            &format!("block {}", p.block),
            b.stall_reason().as_str(),
            pid,
            p.sm as u64,
            p.start * scale,
            (p.end - p.start) * scale,
            json!({
                "cycles": b.cycles,
                "compute_cycles": b.compute_cycles,
                "mem_throughput_cycles": b.mem_throughput_cycles,
                "critical_warp_cycles": b.critical_warp_cycles,
                "overhead_cycles": b.overhead_cycles,
                "atomic_conflict_cycles": b.atomic_conflict_cycles,
                "warps": b.warps,
                "flops": b.flops,
                "mem_segments": b.mem_segments,
                "atomic_ops": b.atomic_ops,
            }),
        );
    }
}

/// One simulated launch as a complete Chrome-trace document: per-SM
/// tracks, one slice per scheduled block.
pub fn chrome_trace(result: &SimResult, profile: &SimProfile) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    append_chrome_trace(&mut trace, 0, result, profile);
    trace
}

impl SimResult {
    /// This result as one nvprof-table row (Table II columns). Values are
    /// copied verbatim from the result, so the rendered table always
    /// matches the machine-readable JSON numerically.
    pub fn metric_row(&self) -> simprof::MetricRow {
        simprof::MetricRow {
            kernel: self.kernel.clone(),
            gflops: self.gflops,
            achieved_occupancy: self.achieved_occupancy,
            sm_efficiency: self.sm_efficiency,
            l2_hit_rate: self.l2_hit_rate,
            makespan_cycles: self.makespan_cycles,
            time_ms: self.time_s * 1e3,
            num_blocks: self.num_blocks,
            num_warps: self.num_warps,
            atomic_ops: self.atomic_ops,
            mem_segments: self.mem_segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::device::DeviceProfile;
    use crate::grid::{BlockWork, KernelLaunch, Op, WarpWork};
    use crate::sched::simulate_profiled;
    use simprof::Registry;

    fn launch(n_blocks: usize) -> KernelLaunch {
        let mut l = KernelLaunch::new("trace-test");
        for b in 0..n_blocks {
            let mut blk = BlockWork::new();
            let mut w = WarpWork::new();
            w.push(Op::Fma(10 + 5 * b as u32));
            w.push(Op::Load(b as u64 * 8));
            blk.warps.push(w);
            l.blocks.push(blk);
        }
        l
    }

    fn sim(n_blocks: usize) -> (SimResult, SimProfile) {
        simulate_profiled(
            &DeviceProfile::tiny(),
            &CostModel::default(),
            &launch(n_blocks),
            &Registry::new(),
        )
    }

    #[test]
    fn trace_round_trips_and_has_one_slice_per_block() {
        let (r, p) = sim(11);
        let trace = chrome_trace(&r, &p);
        let text = trace.to_json_string();
        let v = serde_json::from_str(&text).expect("trace must be valid JSON");
        let events = v["traceEvents"].as_array().unwrap();
        let slices: Vec<_> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(slices.len(), r.num_blocks);
        assert_eq!(trace.slices().count(), r.num_blocks);
        // Args carry the cost legs.
        for s in &slices {
            assert!(s["args"]["compute_cycles"].as_f64().is_some());
            assert!(s["args"]["mem_throughput_cycles"].as_f64().is_some());
            assert!(s["args"]["critical_warp_cycles"].as_f64().is_some());
            assert!(s["dur"].as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn no_two_slices_on_one_sm_track_overlap() {
        let (r, p) = sim(23);
        let trace = chrome_trace(&r, &p);
        let mut per_track: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
        for s in trace.slices() {
            per_track
                .entry(s.tid)
                .or_default()
                .push((s.ts, s.ts + s.dur));
        }
        for (tid, mut spans) in per_track {
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                assert!(
                    w[1].0 >= w[0].1 - 1e-9,
                    "overlap on SM track {tid}: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn tracks_are_named_and_categorized_by_stall_reason() {
        let (r, p) = sim(5);
        let trace = chrome_trace(&r, &p);
        let v = trace.to_json();
        let events = v["traceEvents"].as_array().unwrap();
        let track_names: Vec<&str> = events
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        // DeviceProfile::tiny has 4 SMs — one named track each.
        assert_eq!(track_names, ["SM 0", "SM 1", "SM 2", "SM 3"]);
        for s in trace.slices() {
            assert!(
                [
                    "compute-bound",
                    "memory-throughput-bound",
                    "critical-warp-bound"
                ]
                .contains(&s.cat.as_str()),
                "unexpected cat {}",
                s.cat
            );
        }
    }

    #[test]
    fn append_overlays_multiple_processes() {
        let (r1, p1) = sim(4);
        let (r2, p2) = sim(8);
        let mut trace = ChromeTrace::new();
        append_chrome_trace(&mut trace, 0, &r1, &p1);
        append_chrome_trace(&mut trace, 1, &r2, &p2);
        assert_eq!(trace.slices().count(), r1.num_blocks + r2.num_blocks);
        assert_eq!(trace.slices().filter(|s| s.pid == 0).count(), r1.num_blocks);
        assert_eq!(trace.slices().filter(|s| s.pid == 1).count(), r2.num_blocks);
    }

    #[test]
    fn empty_launch_yields_empty_but_valid_trace() {
        let (r, p) = sim(0);
        let trace = chrome_trace(&r, &p);
        assert_eq!(trace.slices().count(), 0);
        assert!(serde_json::from_str(&trace.to_json_string()).is_ok());
    }

    #[test]
    fn metric_row_matches_sim_result_fields() {
        let (r, _) = sim(7);
        let row = r.metric_row();
        assert_eq!(row.kernel, r.kernel);
        assert_eq!(row.gflops, r.gflops);
        assert_eq!(row.achieved_occupancy, r.achieved_occupancy);
        assert_eq!(row.sm_efficiency, r.sm_efficiency);
        assert_eq!(row.l2_hit_rate, r.l2_hit_rate);
        assert_eq!(row.makespan_cycles, r.makespan_cycles);
        assert_eq!(row.time_ms, r.time_s * 1e3);
        assert_eq!(row.num_blocks, r.num_blocks);
        assert_eq!(row.num_warps, r.num_warps);
        assert_eq!(row.atomic_ops, r.atomic_ops);
        assert_eq!(row.mem_segments, r.mem_segments);
    }
}
