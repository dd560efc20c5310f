//! Per-warp memory address-stream recording and trace replay.
//!
//! The gpucachesim/accel-sim lineage validates GPU simulators by
//! re-deriving cache statistics from an emitted address trace alone and
//! comparing them against the live run. This module brings that
//! discipline here: when a [`MemTraceRecorder`] is attached to a
//! simulation, the L2 replay pass records every sampled coalesced-segment
//! access — issuing block, warp, segment id, L2 set, and the live
//! hit/miss verdict — plus the cache geometry, so [`replay_launch`] can
//! rebuild a cold cache from the trace file and check that it reproduces
//! the live hit/miss stream exactly (possible only at `sample_every == 1`;
//! sampled traces still replay, but only the recorded verdicts can be
//! compared statistically).
//!
//! Trace files are JSONL: one header object per launch followed by one
//! compact array per access —
//!
//! ```json
//! {"type":"launch","kernel":"hb-csf","capacity_bytes":4194304,"line_bytes":128,"assoc":16,"sample_every":1,"live_hits":10,"live_misses":2,"accesses":12}
//! [0,0,774,6,1]
//! ```
//!
//! where the array is `[block, warp, seg, set, hit]`.

use crate::cache::L2Cache;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::path::Path;

/// One sampled memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceAccess {
    /// Issuing block index within the launch.
    pub block: u32,
    /// Issuing warp index within the block.
    pub warp: u32,
    /// Coalesced 128-B segment id.
    pub seg: u64,
    /// L2 set the segment maps to under the recorded geometry.
    pub set: u32,
    /// Live simulation's verdict for this access.
    pub hit: bool,
}

/// The recorded address stream of one kernel launch, with enough cache
/// geometry to replay it from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchTrace {
    pub kernel: String,
    pub capacity_bytes: usize,
    pub line_bytes: usize,
    pub assoc: usize,
    /// Every k-th access was recorded (1 = full stream).
    pub sample_every: u64,
    /// Hits the live simulation counted over the *full* stream.
    pub live_hits: u64,
    /// Misses the live simulation counted over the *full* stream.
    pub live_misses: u64,
    pub accesses: Vec<TraceAccess>,
}

impl LaunchTrace {
    /// Live hit rate in percent, as the simulation reported it.
    pub fn live_hit_rate(&self) -> f64 {
        let total = self.live_hits + self.live_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.live_hits as f64 / total as f64
        }
    }
}

/// Thread-safe collector the simulator pushes one [`LaunchTrace`] into
/// per simulated launch. Opt-in: simulations run without one attached pay
/// nothing.
#[derive(Debug)]
pub struct MemTraceRecorder {
    sample_every: u64,
    launches: Mutex<Vec<LaunchTrace>>,
}

impl MemTraceRecorder {
    /// Records every `sample_every`-th access (clamped to ≥ 1). Use 1 for
    /// replay-exact traces.
    pub fn new(sample_every: u64) -> MemTraceRecorder {
        MemTraceRecorder {
            sample_every: sample_every.max(1),
            launches: Mutex::new(Vec::new()),
        }
    }

    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    pub(crate) fn push(&self, trace: LaunchTrace) {
        self.launches.lock().push(trace);
    }

    /// Snapshot of all recorded launches, in simulation order.
    pub fn launches(&self) -> Vec<LaunchTrace> {
        self.launches.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.launches.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.launches.lock().is_empty()
    }

    /// Writes the trace as JSONL (header object + access arrays per
    /// launch), creating parent directories.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let launches = self.launches.lock();
        let mut out = String::new();
        for tr in launches.iter() {
            let _ = writeln!(
                out,
                "{{\"type\":\"launch\",\"kernel\":{},\"capacity_bytes\":{},\"line_bytes\":{},\
                 \"assoc\":{},\"sample_every\":{},\"live_hits\":{},\"live_misses\":{},\
                 \"accesses\":{}}}",
                serde_json::to_string(&tr.kernel).unwrap_or_else(|_| "\"\"".into()),
                tr.capacity_bytes,
                tr.line_bytes,
                tr.assoc,
                tr.sample_every,
                tr.live_hits,
                tr.live_misses,
                tr.accesses.len()
            );
            for a in &tr.accesses {
                let _ = writeln!(
                    out,
                    "[{},{},{},{},{}]",
                    a.block,
                    a.warp,
                    a.seg,
                    a.set,
                    u8::from(a.hit)
                );
            }
        }
        std::fs::write(path, out)
    }
}

/// Parses a trace file written by [`MemTraceRecorder::write_jsonl`].
pub fn read_jsonl(path: &Path) -> Result<Vec<LaunchTrace>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_jsonl(&text)
}

/// Parses trace JSONL from a string (see [`read_jsonl`]).
fn parse_jsonl(text: &str) -> Result<Vec<LaunchTrace>, String> {
    let mut launches: Vec<LaunchTrace> = Vec::new();
    let mut pending: u64 = 0;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = serde_json::from_str(line)
            .map_err(|e| format!("trace line {}: bad JSON: {e:?}", lineno + 1))?;
        if pending > 0 {
            let arr = v
                .as_array()
                .ok_or_else(|| format!("trace line {}: expected access array", lineno + 1))?;
            if arr.len() != 5 {
                return Err(format!(
                    "trace line {}: access array has {} elements, want 5",
                    lineno + 1,
                    arr.len()
                ));
            }
            let num = |i: usize| -> Result<u64, String> {
                arr[i]
                    .as_u64()
                    .ok_or_else(|| format!("trace line {}: non-integer field {i}", lineno + 1))
            };
            launches
                .last_mut()
                .expect("pending implies a launch header")
                .accesses
                .push(TraceAccess {
                    block: num(0)? as u32,
                    warp: num(1)? as u32,
                    seg: num(2)?,
                    set: num(3)? as u32,
                    hit: num(4)? != 0,
                });
            pending -= 1;
        } else {
            if v["type"].as_str() != Some("launch") {
                return Err(format!(
                    "trace line {}: expected launch header, got {line}",
                    lineno + 1
                ));
            }
            let num = |k: &str| -> Result<u64, String> {
                v[k].as_u64()
                    .ok_or_else(|| format!("trace line {}: missing field {k:?}", lineno + 1))
            };
            pending = num("accesses")?;
            launches.push(LaunchTrace {
                kernel: v["kernel"].as_str().unwrap_or("").to_string(),
                capacity_bytes: num("capacity_bytes")? as usize,
                line_bytes: num("line_bytes")? as usize,
                assoc: num("assoc")? as usize,
                sample_every: num("sample_every")?,
                live_hits: num("live_hits")?,
                live_misses: num("live_misses")?,
                accesses: Vec::with_capacity(pending as usize),
            });
        }
    }
    if pending > 0 {
        return Err(format!("trace truncated: {pending} accesses missing"));
    }
    Ok(launches)
}

/// Result of feeding a recorded launch back through a cold cache.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCheck {
    /// Hits the replayed cache counted over the recorded accesses.
    pub hits: u64,
    /// Misses the replayed cache counted over the recorded accesses.
    pub misses: u64,
    /// Replayed hit rate, percent.
    pub hit_rate: f64,
    /// Accesses whose replayed verdict disagreed with the recorded one.
    pub verdict_mismatches: u64,
    /// Accesses whose recorded set disagreed with the rebuilt geometry.
    pub set_mismatches: u64,
    /// Whether the trace is replay-exact (`sample_every == 1`): only then
    /// must `hits`/`misses` equal the live counters and mismatches be 0.
    pub exact: bool,
}

/// Rebuilds the cache geometry from the trace header and replays the
/// recorded address stream through it from cold, re-deriving the L2
/// statistics from the trace alone.
pub fn replay_launch(trace: &LaunchTrace) -> ReplayCheck {
    let mut cache = L2Cache::new(trace.capacity_bytes, trace.line_bytes, trace.assoc);
    let mut verdict_mismatches = 0u64;
    let mut set_mismatches = 0u64;
    for a in &trace.accesses {
        if cache.set_index(a.seg) as u32 != a.set {
            set_mismatches += 1;
        }
        let hit = cache.access(a.seg);
        if hit != a.hit {
            verdict_mismatches += 1;
        }
    }
    ReplayCheck {
        hits: cache.hits(),
        misses: cache.misses(),
        hit_rate: cache.hit_rate(),
        verdict_mismatches,
        set_mismatches,
        exact: trace.sample_every == 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> LaunchTrace {
        // Geometry: 4 sets × 2 ways. Stream chosen so there are both hits
        // and misses.
        let segs = [0u64, 4, 0, 8, 4, 1, 1, 0];
        let mut cache = L2Cache::new(1024, 128, 2);
        let accesses: Vec<TraceAccess> = segs
            .iter()
            .enumerate()
            .map(|(i, &seg)| TraceAccess {
                block: (i / 4) as u32,
                warp: (i % 4) as u32,
                seg,
                set: cache.set_index(seg) as u32,
                hit: cache.access(seg),
            })
            .collect();
        LaunchTrace {
            kernel: "unit".into(),
            capacity_bytes: 1024,
            line_bytes: 128,
            assoc: 2,
            sample_every: 1,
            live_hits: cache.hits(),
            live_misses: cache.misses(),
            accesses,
        }
    }

    #[test]
    fn replay_reproduces_live_verdicts_exactly() {
        let tr = sample_trace();
        let check = replay_launch(&tr);
        assert!(check.exact);
        assert_eq!(check.verdict_mismatches, 0);
        assert_eq!(check.set_mismatches, 0);
        assert_eq!(check.hits, tr.live_hits);
        assert_eq!(check.misses, tr.live_misses);
        assert!((check.hit_rate - tr.live_hit_rate()).abs() < 1e-12);
    }

    #[test]
    fn tampered_trace_is_caught() {
        let mut tr = sample_trace();
        // Flip one verdict and one set assignment.
        tr.accesses[2].hit = !tr.accesses[2].hit;
        tr.accesses[3].set += 1;
        let check = replay_launch(&tr);
        assert_eq!(check.verdict_mismatches, 1);
        assert_eq!(check.set_mismatches, 1);
    }

    #[test]
    fn jsonl_round_trip() {
        let tr = sample_trace();
        let rec = MemTraceRecorder::new(1);
        rec.push(tr.clone());
        let dir = std::env::temp_dir().join("gpu-sim-memtrace-test");
        let path = dir.join("trace.jsonl");
        rec.write_jsonl(&path).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, vec![tr]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_trace_rejected() {
        let text = "{\"type\":\"launch\",\"kernel\":\"k\",\"capacity_bytes\":1024,\
                    \"line_bytes\":128,\"assoc\":2,\"sample_every\":1,\"live_hits\":0,\
                    \"live_misses\":1,\"accesses\":2}\n[0,0,7,3,0]\n";
        let err = parse_jsonl(text).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn recorder_clamps_sampling_rate() {
        assert_eq!(MemTraceRecorder::new(0).sample_every(), 1);
        assert_eq!(MemTraceRecorder::new(8).sample_every(), 8);
    }
}
