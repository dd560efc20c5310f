//! Paper-calibration fleet behind `sptk calibrate`.
//!
//! Runs the six simulated GPU formats over the Table III stand-in fleet
//! and checks that the *orderings* of the nvprof-style metrics
//! (achieved occupancy, `sm_efficiency`, L2 hit rate, model GFLOPs)
//! reproduce the paper's qualitative claims. The calibration contract is
//! orderings-not-absolutes (DESIGN.md §13): the execution model is a
//! roofline approximation, so absolute numbers mean nothing, but the
//! *relations* — which format wins on which pathology — must match
//! Table II and Figs. 5–8. Expectations are encoded as data
//! ([`Expectation`]) so adding a claim is one table row, not new code.
//!
//! The harness also closes the memory-trace loop: one launch is recorded
//! at full rate through a [`MemTraceRecorder`] and replayed from cold,
//! and the run fails unless the replay re-derives the live L2 hit/miss
//! counters exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use gpu_sim::{replay_launch, MemTraceRecorder};
use mttkrp::gpu::{BuildOptions, Executor, GpuContext, KernelKind};
use mttkrp::reference::random_factors;
use simprof::HistogramSnapshot;
use sptensor::synth::{standin, SynthConfig};
use sptensor::CooTensor;

use crate::common::{build_run, ExpConfig};

/// Fleet configuration; `Default` is the tracked `BENCH_fleet.json` run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Stand-in dataset names (must exist in [`sptensor::synth`]).
    pub datasets: Vec<String>,
    /// Nonzeros per generated stand-in.
    pub nnz: usize,
    /// Factor rank.
    pub rank: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            // The Table II population (seven 3-D stand-ins) plus one 4-D
            // tensor so the order-gated kernels' skips are exercised.
            datasets: [
                "darpa", "nell2", "flick-3d", "fr_m", "fr_s", "deli", "nell1", "flick-4d",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            // Large enough that the skew stand-ins keep their pathology
            // (darpa's heavy slices, flickr's singleton fibers), small
            // enough for a CI smoke lane.
            nnz: 60_000,
            rank: 8,
            seed: 0xF1EE7,
        }
    }
}

impl FleetConfig {
    /// The experiment configuration the cells are measured under. Its
    /// registry is enabled so the per-format latency histograms record.
    fn exp(&self) -> ExpConfig {
        ExpConfig {
            nnz: self.nnz,
            seed: self.seed,
            rank: self.rank,
            registry: Arc::new(simprof::Registry::new()),
            ..ExpConfig::default()
        }
    }
}

/// One (dataset, format) measurement, averaged across all modes.
#[derive(Debug, Clone)]
pub struct Cell {
    pub dataset: String,
    pub format: &'static str,
    /// Mean simulated kernel time per mode, microseconds.
    pub mean_time_us: f64,
    /// Model GFLOPs (useful flops / simulated seconds), mean over modes.
    pub gflops: f64,
    /// nvprof `sm_efficiency` (percent), mean over modes.
    pub sm_efficiency: f64,
    /// nvprof `achieved_occupancy` (percent), mean over modes.
    pub occupancy: f64,
    /// L2 hit rate (percent), mean over modes.
    pub l2_hit_rate: f64,
}

/// Which metric an [`Expectation`] reads from a [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    Gflops,
    SmEfficiency,
    Occupancy,
    L2Hit,
}

impl Metric {
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Gflops => "gflops",
            Metric::SmEfficiency => "sm_efficiency",
            Metric::Occupancy => "achieved_occupancy",
            Metric::L2Hit => "l2_hit_rate",
        }
    }

    fn read(&self, c: &Cell) -> f64 {
        match self {
            Metric::Gflops => c.gflops,
            Metric::SmEfficiency => c.sm_efficiency,
            Metric::Occupancy => c.occupancy,
            Metric::L2Hit => c.l2_hit_rate,
        }
    }
}

/// The shape of one ordering claim.
#[derive(Debug, Clone)]
pub enum Check {
    /// `metric(better) >= factor * metric(worse)` on one dataset.
    FormatOrder {
        dataset: &'static str,
        better: &'static str,
        worse: &'static str,
        factor: f64,
    },
    /// `dataset` scores the fleet-wide minimum of `metric` for `format`.
    DatasetIsWorst {
        format: &'static str,
        dataset: &'static str,
    },
    /// On every dataset it supports, `format` reaches at least
    /// `factor` × the best format's score.
    NearBestEverywhere { format: &'static str, factor: f64 },
}

/// One paper claim, encoded as data. `id` keys the JSON report; `note`
/// cites the paper artifact the claim comes from.
#[derive(Debug, Clone)]
pub struct Expectation {
    pub id: &'static str,
    pub note: &'static str,
    pub metric: Metric,
    pub check: Check,
}

/// The paper's Table II / Figs. 5–8 ordering claims, restated over the
/// stand-in fleet. Absolute magnitudes are model artifacts; every entry
/// is a *relation* between cells.
fn paper_expectations() -> Vec<Expectation> {
    vec![
        Expectation {
            id: "bcsf-beats-csf-on-darpa",
            note: "Fig. 5: fiber/slice splitting wins most on darpa's extreme skew",
            metric: Metric::Gflops,
            check: Check::FormatOrder {
                dataset: "darpa",
                better: "bcsf",
                worse: "csf",
                factor: 1.2,
            },
        },
        Expectation {
            id: "bcsf-raises-sm-efficiency-on-darpa",
            note: "Table II: splitting lifts sm_efficiency on the skewed tensors",
            metric: Metric::SmEfficiency,
            check: Check::FormatOrder {
                dataset: "darpa",
                better: "bcsf",
                worse: "csf",
                factor: 1.0,
            },
        },
        Expectation {
            id: "bcsf-raises-occupancy-on-darpa",
            note: "Table II: splitting lifts achieved occupancy on the skewed tensors",
            metric: Metric::Occupancy,
            check: Check::FormatOrder {
                dataset: "darpa",
                better: "bcsf",
                worse: "csf",
                factor: 1.0,
            },
        },
        Expectation {
            id: "hbcsf-beats-csf-on-flick",
            note: "Fig. 8: CSL/COO packing beats block-per-slice on singleton-fiber data",
            metric: Metric::Gflops,
            check: Check::FormatOrder {
                dataset: "flick-3d",
                better: "hbcsf",
                worse: "csf",
                factor: 1.2,
            },
        },
        Expectation {
            id: "darpa-is-csf-worst-case",
            note: "Fig. 5: darpa's 25,849-stdev slices are GPU-CSF's pathology",
            metric: Metric::SmEfficiency,
            check: Check::DatasetIsWorst {
                format: "csf",
                dataset: "darpa",
            },
        },
        Expectation {
            id: "hbcsf-near-best-everywhere",
            note: "Sec. V: HB-CSF is best or near-best across the whole fleet",
            metric: Metric::Gflops,
            check: Check::NearBestEverywhere {
                format: "hbcsf",
                factor: 0.5,
            },
        },
    ]
}

/// One evaluated expectation.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub id: &'static str,
    pub note: &'static str,
    pub metric: &'static str,
    pub pass: bool,
    /// The claim names a dataset the fleet did not run, so it was not
    /// evaluated (`pass` is false). A skip does not fail the run.
    pub skipped: bool,
    /// Human-readable account of the comparison actually made.
    pub detail: String,
}

/// Result of the full-rate memory-trace replay check.
#[derive(Debug, Clone)]
pub struct TraceCheck {
    pub kernel: String,
    pub accesses: usize,
    pub live_hit_rate: f64,
    pub replay_hit_rate: f64,
    pub exact: bool,
}

/// Full harness output.
#[derive(Debug, Clone)]
pub struct FleetReport {
    pub cells: Vec<Cell>,
    /// `(format, dataset)` pairs skipped because the kernel does not
    /// support the tensor order (COO / F-COO are third-order only).
    pub skipped: Vec<(String, String)>,
    /// Per-format simulated kernel latencies (one observation per mode
    /// per dataset), keyed `fleet.<format>.kernel_us`.
    pub latency_histograms: BTreeMap<String, HistogramSnapshot>,
    pub verdicts: Vec<Verdict>,
    pub trace_check: TraceCheck,
}

impl FleetReport {
    fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass || v.skipped) && self.trace_check.exact
    }

    pub fn to_json(&self, cfg: &FleetConfig) -> serde_json::Value {
        serde_json::json!({
            "benchmark": "fleet",
            "config": serde_json::json!({
                "datasets": cfg.datasets.clone(),
                "nnz": cfg.nnz,
                "rank": cfg.rank,
                "seed": cfg.seed,
            }),
            "cells": self.cells.iter().map(|c| serde_json::json!({
                "dataset": c.dataset,
                "format": c.format,
                "mean_time_us": c.mean_time_us,
                "gflops": c.gflops,
                "sm_efficiency": c.sm_efficiency,
                "achieved_occupancy": c.occupancy,
                "l2_hit_rate": c.l2_hit_rate,
            })).collect::<Vec<_>>(),
            "skipped": self.skipped.iter().map(|(f, d)| serde_json::json!({
                "format": f,
                "dataset": d,
            })).collect::<Vec<_>>(),
            "latency_histograms": serde_json::to_value(&self.latency_histograms),
            "expectations": self.verdicts.iter().map(|v| serde_json::json!({
                "id": v.id,
                "note": v.note,
                "metric": v.metric,
                "pass": v.pass,
                "skipped": v.skipped,
                "detail": v.detail,
            })).collect::<Vec<_>>(),
            "trace_check": serde_json::json!({
                "kernel": self.trace_check.kernel.clone(),
                "accesses": self.trace_check.accesses,
                "live_hit_rate": self.trace_check.live_hit_rate,
                "replay_hit_rate": self.trace_check.replay_hit_rate,
                "exact": self.trace_check.exact,
            }),
            "all_pass": self.all_pass(),
        })
    }

    /// Writes the cell table, the latency distributions and one
    /// PASS/FAIL line per expectation and for the trace check to `w`.
    pub fn print(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            w,
            "{:<10} {:<6} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "dataset", "format", "time_us", "gflops", "sm_eff", "occ", "l2_hit"
        )?;
        for c in &self.cells {
            writeln!(
                w,
                "{:<10} {:<6} {:>10.1} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                c.dataset,
                c.format,
                c.mean_time_us,
                c.gflops,
                c.sm_efficiency,
                c.occupancy,
                c.l2_hit_rate
            )?;
        }
        for (format, dataset) in &self.skipped {
            writeln!(w, "{dataset:<10} {format:<6} skipped (third-order kernel)")?;
        }
        writeln!(w)?;
        write!(
            w,
            "{}",
            simprof::histogram_table(
                "per-format kernel latency distributions (us, one sample per mode per dataset)",
                &self.latency_histograms,
            )
        )?;
        writeln!(w)?;
        let mark = |pass: bool| if pass { "PASS" } else { "FAIL" };
        for v in &self.verdicts {
            writeln!(
                w,
                "{} {:<32} [{}] {}",
                if v.skipped { "SKIP" } else { mark(v.pass) },
                v.id,
                v.metric,
                v.detail
            )?;
        }
        let t = &self.trace_check;
        writeln!(
            w,
            "{} mem-trace replay: {} ({} accesses) live L2 {:.2}% vs replayed {:.2}%",
            mark(t.exact),
            t.kernel,
            t.accesses,
            t.live_hit_rate,
            t.replay_hit_rate
        )?;
        Ok(())
    }
}

fn find<'a>(cells: &'a [Cell], dataset: &str, format: &str) -> Option<&'a Cell> {
    cells
        .iter()
        .find(|c| c.dataset == dataset && c.format == format)
}

/// Evaluates `e` over the fleet's cells. A claim about a dataset with no
/// cells — one left out of `--datasets` — is skipped, not failed.
fn evaluate(cells: &[Cell], e: &Expectation) -> Verdict {
    let named = match &e.check {
        Check::FormatOrder { dataset, .. } | Check::DatasetIsWorst { dataset, .. } => {
            Some(*dataset)
        }
        Check::NearBestEverywhere { .. } => None,
    };
    if let Some(dataset) = named.filter(|d| !cells.iter().any(|c| c.dataset == *d)) {
        return Verdict {
            id: e.id,
            note: e.note,
            metric: e.metric.name(),
            pass: false,
            skipped: true,
            detail: format!("{dataset}: not in the fleet"),
        };
    }
    let (pass, detail) = match &e.check {
        Check::FormatOrder {
            dataset,
            better,
            worse,
            factor,
        } => match (find(cells, dataset, better), find(cells, dataset, worse)) {
            (Some(b), Some(w)) => {
                let (vb, vw) = (e.metric.read(b), e.metric.read(w));
                (
                    vb >= factor * vw,
                    format!(
                        "{dataset}: {}({better}) = {vb:.2} vs {factor:.2} x {}({worse}) = {:.2}",
                        e.metric.name(),
                        e.metric.name(),
                        factor * vw
                    ),
                )
            }
            _ => (false, format!("{dataset}: missing cell")),
        },
        Check::DatasetIsWorst { format, dataset } => {
            let scores: Vec<(&str, f64)> = cells
                .iter()
                .filter(|c| c.format == *format)
                .map(|c| (c.dataset.as_str(), e.metric.read(c)))
                .collect();
            match scores
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(d, v)| (*d, *v))
            {
                Some((worst, v)) => (
                    worst == *dataset,
                    format!(
                        "fleet minimum of {}({format}) is {worst} at {v:.2}",
                        e.metric.name()
                    ),
                ),
                None => (false, format!("no cells for format {format}")),
            }
        }
        Check::NearBestEverywhere { format, factor } => {
            let mut worst_ratio = f64::INFINITY;
            let mut worst_at = String::new();
            for c in cells.iter().filter(|c| c.format == *format) {
                let best = cells
                    .iter()
                    .filter(|o| o.dataset == c.dataset)
                    .map(|o| e.metric.read(o))
                    .fold(0.0f64, f64::max);
                let ratio = if best > 0.0 {
                    e.metric.read(c) / best
                } else {
                    1.0
                };
                if ratio < worst_ratio {
                    worst_ratio = ratio;
                    worst_at = c.dataset.clone();
                }
            }
            (
                worst_ratio >= *factor,
                format!(
                    "worst {}({format})/best ratio is {worst_ratio:.2} on {worst_at} \
                     (floor {factor:.2})",
                    e.metric.name()
                ),
            )
        }
    };
    Verdict {
        id: e.id,
        note: e.note,
        metric: e.metric.name(),
        pass,
        skipped: false,
        detail,
    }
}

/// Runs one format over one tensor (all modes) and folds the metrics.
/// Per-mode latencies are observed into `ctx`'s registry under
/// `fleet.<format>.kernel_us`.
fn measure(ctx: &GpuContext, t: &CooTensor, kind: KernelKind, rank: usize, dataset: &str) -> Cell {
    let factors = random_factors(t, rank, 7);
    let (mut time_us, mut gflops, mut sm_eff, mut occ, mut l2) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let flops_per_mode = t.order() as f64 * t.nnz() as f64 * rank as f64;
    for mode in 0..t.order() {
        let run = build_run(ctx, kind, t, &factors, mode, &BuildOptions::default());
        let us = run.sim.time_s * 1e6;
        ctx.registry.observe(
            &format!("fleet.{}.kernel_us", kind.as_str()),
            us.round() as u64,
        );
        time_us += us;
        gflops += flops_per_mode / run.sim.time_s.max(1e-30) / 1e9;
        sm_eff += run.sim.sm_efficiency;
        occ += run.sim.achieved_occupancy;
        l2 += run.sim.l2_hit_rate;
    }
    let n = t.order() as f64;
    Cell {
        dataset: dataset.to_string(),
        format: kind.as_str(),
        mean_time_us: time_us / n,
        gflops: gflops / n,
        sm_efficiency: sm_eff / n,
        occupancy: occ / n,
        l2_hit_rate: l2 / n,
    }
}

/// Records one small launch at full rate and replays it from cold: the
/// replayed hit/miss counters must equal the live simulation's exactly.
fn check_trace_replay(cfg: &FleetConfig) -> Result<TraceCheck, String> {
    let spec = standin("nell2").ok_or("standin nell2 missing")?;
    let t = spec.generate(&SynthConfig::tiny().with_seed(cfg.seed));
    let recorder = Arc::new(MemTraceRecorder::new(1));
    let ctx = GpuContext::default().with_memtrace(Arc::clone(&recorder));
    let factors = random_factors(&t, cfg.rank, 7);
    Executor::new(ctx)
        .build_run(KernelKind::Hbcsf, &t, &factors, 0)
        .map_err(|e| format!("trace check: {e}"))?;
    let launches = recorder.launches();
    let trace = launches.first().ok_or("trace check: no launch recorded")?;
    let replay = replay_launch(trace);
    let exact = replay.exact
        && replay.verdict_mismatches == 0
        && replay.set_mismatches == 0
        && replay.hits == trace.live_hits
        && replay.misses == trace.live_misses;
    Ok(TraceCheck {
        kernel: trace.kernel.clone(),
        accesses: trace.accesses.len(),
        live_hit_rate: trace.live_hit_rate(),
        replay_hit_rate: replay.hit_rate,
        exact,
    })
}

/// Runs the full fleet and evaluates every encoded expectation.
pub fn run(cfg: &FleetConfig) -> Result<FleetReport, String> {
    let exp = cfg.exp();
    let ctx = exp.gpu();
    let mut cells = Vec::new();
    let mut skipped = Vec::new();
    for name in &cfg.datasets {
        if standin(name).is_none() {
            return Err(format!("unknown dataset '{name}'"));
        }
        let t = exp.gen(name);
        for kind in KernelKind::ALL {
            // COO and F-COO mirror the real frameworks' third-order limit;
            // record the gap instead of silently shrinking the fleet.
            if t.order() != 3 && matches!(kind, KernelKind::Coo | KernelKind::Fcoo) {
                skipped.push((kind.as_str().to_string(), name.clone()));
                continue;
            }
            cells.push(measure(&ctx, &t, kind, cfg.rank, name));
        }
    }
    let verdicts: Vec<Verdict> = paper_expectations()
        .iter()
        .map(|e| evaluate(&cells, e))
        .collect();
    let trace_check = check_trace_replay(cfg)?;
    Ok(FleetReport {
        cells,
        skipped,
        latency_histograms: exp.registry.histograms(),
        verdicts,
        trace_check,
    })
}

/// `sptk calibrate`: runs the fleet, writes the report to `w` and its
/// JSON to `out`, and fails when any ordering or the trace check fails, so CI
/// catches model drift.
pub fn calibrate(cfg: &FleetConfig, out: &Path, w: &mut impl Write) -> Result<(), String> {
    let report = run(cfg)?;
    let report_err = |e: std::io::Error| format!("writing the report: {e}");
    report.print(w).map_err(report_err)?;
    let text = serde_json::to_string_pretty(&report.to_json(cfg))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    writeln!(w, "wrote {}", out.display()).map_err(report_err)?;
    if !report.all_pass() {
        return Err("calibration failed: a paper ordering does not hold".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(dataset: &str, format: &'static str, gflops: f64) -> Cell {
        Cell {
            dataset: dataset.to_string(),
            format,
            mean_time_us: 1.0,
            gflops,
            sm_efficiency: 50.0,
            occupancy: 50.0,
            l2_hit_rate: 50.0,
        }
    }

    #[test]
    fn claims_about_datasets_outside_the_fleet_are_skipped() {
        let cells = vec![cell("darpa", "bcsf", 4.0), cell("darpa", "csf", 1.0)];
        let verdicts: Vec<Verdict> = paper_expectations()
            .iter()
            .map(|e| evaluate(&cells, e))
            .collect();
        let flick = verdicts
            .iter()
            .find(|v| v.id == "hbcsf-beats-csf-on-flick")
            .unwrap();
        assert!(flick.skipped && !flick.pass, "{}", flick.detail);
        let darpa = verdicts
            .iter()
            .find(|v| v.id == "bcsf-beats-csf-on-darpa")
            .unwrap();
        assert!(darpa.pass && !darpa.skipped, "{}", darpa.detail);
        // A dataset in the fleet with a format missing still fails.
        let lone = vec![cell("flick-3d", "csf", 1.0)];
        let missing = paper_expectations()
            .iter()
            .map(|e| evaluate(&lone, e))
            .find(|v| v.id == "hbcsf-beats-csf-on-flick")
            .unwrap();
        assert!(!missing.pass && !missing.skipped, "{}", missing.detail);

        let report = FleetReport {
            cells,
            skipped: Vec::new(),
            latency_histograms: BTreeMap::new(),
            verdicts,
            trace_check: TraceCheck {
                kernel: "hb-csf".into(),
                accesses: 0,
                live_hit_rate: 0.0,
                replay_hit_rate: 0.0,
                exact: true,
            },
        };
        // Every claim the darpa-only fleet can evaluate holds, so the
        // skipped flick-3d claim leaves the run passing.
        assert!(report.all_pass());
        let mut text = Vec::new();
        report.print(&mut text).unwrap();
        assert!(String::from_utf8(text)
            .unwrap()
            .contains("SKIP hbcsf-beats-csf-on-flick"));
    }
}
