//! Algorithm-based fault tolerance (ABFT) for the GPU MTTKRP kernels.
//!
//! Every GPU kernel running under an active [`gpu_sim::FaultPlan`] routes
//! its output commits through an [`crate::gpu::AbftSink`], which maintains
//! per-row `f64` column checksums alongside the `f32` output. This module
//! holds the *consumer* side:
//!
//! * [`verify`] — compare `Σ_c Y[i,c]` against the checksum and flag rows
//!   whose residual exceeds an accumulation-scaled tolerance. Detection
//!   never consults the injection ground truth — only the checksums.
//! * [`run_verified`] — the recovery driver: run a kernel, verify, re-run
//!   with a re-rolled fault plan for rows that fail (bounded retries),
//!   and finally degrade any still-corrupt rows to the sequential CPU
//!   reference kernel.
//!
//! The returned [`KernelReport`] carries everything resilience reporting
//! needs: injected faults, detections, retries, recoveries, degrades.

#![deny(clippy::unwrap_used)]

use std::collections::HashSet;

use dense::Matrix;
use sptensor::CooTensor;

use crate::gpu::{AbftData, GpuContext, GpuRun};
use crate::reference;

/// Detection/recovery policy for [`run_verified`].
#[derive(Debug, Clone, Copy)]
pub struct AbftOptions {
    /// Detection threshold in units of `f32::EPSILON × max(1, Σ|contrib|)`.
    /// The default (64) sits orders of magnitude above honest `f32`
    /// summation noise for the block sizes these kernels use, while an
    /// injected flip perturbs the row by at least half the corrupted
    /// block's whole contribution.
    pub tol_scale: f64,
    /// Kernel re-executions (with a re-rolled fault plan) before flagged
    /// rows degrade to the CPU reference kernel.
    pub max_retries: u32,
}

impl Default for AbftOptions {
    fn default() -> AbftOptions {
        AbftOptions {
            tol_scale: 64.0,
            max_retries: 2,
        }
    }
}

/// What happened while verifying and repairing one kernel execution.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Kernel (launch) name, from the ABFT record.
    pub kernel: String,
    /// Total kernel executions: `1 + retries`.
    pub attempts: u32,
    /// Scheduler-level faults the simulator injected on the base run
    /// (bit flips, block aborts, stragglers — from the fault ledger; on
    /// runs without a simulator profile, the bit flips applied).
    pub faults_injected: u64,
    /// Bit flips that actually landed in output data on the base run.
    pub flips_applied: u64,
    /// Ground truth: rows corrupted by the base run's flips.
    pub corrupted_rows: Vec<u32>,
    /// Rows the checksum verification flagged on the base run.
    pub detected_rows: Vec<u32>,
    /// Retries executed (≤ `max_retries`).
    pub retries: u32,
    /// Flagged rows repaired by harvesting a clean retry.
    pub recovered_rows: u64,
    /// Flagged rows that exhausted retries and were recomputed on the CPU.
    pub degraded_rows: u64,
}

impl KernelReport {
    /// Detection rate over ground truth: fraction of actually-corrupted
    /// rows that verification flagged (`1.0` when nothing was corrupted).
    pub fn detection_rate(&self) -> f64 {
        if self.corrupted_rows.is_empty() {
            return 1.0;
        }
        let detected: HashSet<u32> = self.detected_rows.iter().copied().collect();
        let hit = self
            .corrupted_rows
            .iter()
            .filter(|r| detected.contains(r))
            .count();
        hit as f64 / self.corrupted_rows.len() as f64
    }

    /// This report's counts as a manifest resilience record.
    pub fn to_record(&self) -> simprof::ResilienceRecord {
        simprof::ResilienceRecord {
            faults_injected: self.faults_injected,
            rows_detected: self.detected_rows.len() as u64,
            kernel_retries: u64::from(self.retries),
            degraded_rows: self.degraded_rows,
            ..simprof::ResilienceRecord::default()
        }
    }
}

/// Flags output rows whose column sum disagrees with the ABFT checksum.
///
/// Row `i` is flagged when `|Σ_c y[i,c] − check[i]|` exceeds
/// `tol_scale × f32::EPSILON × max(1, abs[i])`, where `abs[i]` is the
/// accumulated absolute contribution mass — the natural scale of the
/// row's rounding error. Returns the flagged rows in ascending order.
pub fn verify(y: &Matrix, abft: &AbftData, tol_scale: f64) -> Vec<u32> {
    let eps = f64::from(f32::EPSILON);
    let mut flagged = Vec::new();
    for i in 0..y.rows().min(abft.check.len()) {
        let sum: f64 = y.row(i).iter().map(|&v| f64::from(v)).sum();
        let resid = (sum - abft.check[i]).abs();
        let tol = tol_scale * eps * abft.abs[i].max(1.0);
        // A non-finite residual (a flip drove the row to Inf/NaN) is the
        // loudest possible corruption; NaN would dodge `>`.
        if !resid.is_finite() || resid > tol {
            flagged.push(i as u32);
        }
    }
    flagged
}

/// Runs `run_kernel` under `ctx`, verifies the output against its ABFT
/// checksums, and repairs corrupted rows.
///
/// Recovery ladder:
/// 1. **Retry** — re-execute the whole kernel with the fault plan's
///    attempt counter bumped (fresh fault draws, same rates). Rows that
///    verify clean in the retry are harvested into the accepted output;
///    rows flagged again stay on the ladder. At most
///    [`AbftOptions::max_retries`] re-executions.
/// 2. **Degrade** — rows still flagged after the last retry are
///    recomputed with [`reference::mttkrp_rows`] (the trustworthy but
///    slow "host" path) and patched over the GPU output.
///
/// With no active fault plan this is exactly one plain kernel execution
/// and an all-zero report. Undetected corruption (a flip whose residual
/// hides inside the tolerance) is *not* repaired — that is the realistic
/// cost of checksum-based detection, and tests bound how often it happens.
pub fn run_verified<F>(
    ctx: &GpuContext,
    t: &CooTensor,
    factors: &[Matrix],
    mode: usize,
    opts: &AbftOptions,
    mut run_kernel: F,
) -> (GpuRun, KernelReport)
where
    F: FnMut(&GpuContext) -> GpuRun,
{
    let mut run = run_kernel(ctx);
    let mut report = KernelReport {
        attempts: 1,
        faults_injected: run.profile.as_ref().map_or(0, |p| p.faults.len() as u64),
        ..KernelReport::default()
    };
    let Some(abft) = run.abft.clone() else {
        return (run, report);
    };
    report.kernel = abft.kernel.clone();
    report.flips_applied = abft.flips_applied;
    // Sharded and tiled runs carry no simulator profile, hence no fault
    // ledger; the flips the ABFT sink applied are then the injected count.
    if run.profile.is_none() {
        report.faults_injected = abft.flips_applied;
    }
    report.corrupted_rows = abft.corrupted_rows.clone();

    let mut flagged = verify(&run.y, &abft, opts.tol_scale);
    report.detected_rows = flagged.clone();

    // One span covers the whole verification episode: the detection and
    // every retry it triggers. Detection is checksum-driven, so the event
    // carries what the verifier saw (flagged rows), not the injection
    // ground truth.
    let tel = &ctx.telemetry;
    let span = tel.new_span();
    if tel.enabled() && !flagged.is_empty() {
        tel.emit(
            "fault-detected",
            None,
            span,
            &[
                ("kernel", simprof::FieldValue::from(abft.kernel.as_str())),
                ("mode", simprof::FieldValue::from(mode)),
                ("detected_rows", simprof::FieldValue::from(flagged.len())),
                (
                    "flips_applied",
                    simprof::FieldValue::from(abft.flips_applied),
                ),
            ],
        );
    }

    if let Some(plan) = ctx.fault_plan() {
        let mut attempt = plan.attempt;
        while !flagged.is_empty() && report.retries < opts.max_retries {
            attempt += 1;
            report.retries += 1;
            report.attempts += 1;
            let retry_ctx = GpuContext {
                faults: Some(plan.with_attempt(attempt)),
                ..ctx.clone()
            };
            let retry = run_kernel(&retry_ctx);
            let retry_bad: HashSet<u32> = match &retry.abft {
                Some(a) => verify(&retry.y, a, opts.tol_scale).into_iter().collect(),
                None => HashSet::new(),
            };
            // Harvest only previously-flagged rows that the retry computed
            // cleanly; everything else keeps the accepted (base) values.
            flagged.retain(|&i| {
                if retry_bad.contains(&i) {
                    return true;
                }
                let row = retry.y.row(i as usize).to_vec();
                run.y.row_mut(i as usize).copy_from_slice(&row);
                report.recovered_rows += 1;
                false
            });
            if tel.enabled() {
                tel.emit(
                    "fault-retry",
                    None,
                    span,
                    &[
                        ("kernel", simprof::FieldValue::from(abft.kernel.as_str())),
                        ("mode", simprof::FieldValue::from(mode)),
                        ("retry", simprof::FieldValue::from(report.retries)),
                        (
                            "recovered_rows",
                            simprof::FieldValue::from(report.recovered_rows),
                        ),
                        ("still_flagged", simprof::FieldValue::from(flagged.len())),
                    ],
                );
            }
        }
    }

    if !flagged.is_empty() {
        report.degraded_rows = flagged.len() as u64;
        let fixed = reference::mttkrp_rows(t, factors, mode, &flagged);
        for &i in &flagged {
            let row = fixed.row(i as usize).to_vec();
            run.y.row_mut(i as usize).copy_from_slice(&row);
        }
    }

    (run, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{Executor, KernelKind};
    use gpu_sim::FaultPlan;
    use sptensor::synth::uniform_random;

    fn coo_run(c: &GpuContext, t: &CooTensor, factors: &[Matrix]) -> GpuRun {
        Executor::new(c.clone())
            .build_run(KernelKind::Coo, t, factors, 0)
            .expect("valid launch")
            .run
    }

    fn checksums_for(y: &Matrix) -> AbftData {
        // An honest checksum record for an already-final output (one
        // "contribution" per row), good enough to exercise `verify`.
        AbftData {
            kernel: "test".to_string(),
            check: (0..y.rows())
                .map(|i| y.row(i).iter().map(|&v| f64::from(v)).sum())
                .collect(),
            abs: (0..y.rows())
                .map(|i| y.row(i).iter().map(|&v| f64::from(v).abs()).sum())
                .collect(),
            corrupted_rows: Vec::new(),
            flips_applied: 0,
        }
    }

    #[test]
    fn verify_flags_exactly_the_corrupted_row() {
        let mut y = Matrix::random(16, 8, 3);
        let abft = checksums_for(&y);
        assert!(verify(&y, &abft, 64.0).is_empty(), "clean output flagged");
        // Flip a high mantissa bit of one element: block-scale corruption.
        let v = y.row(5)[2];
        y.row_mut(5)[2] = f32::from_bits(v.to_bits() ^ (1 << 30));
        assert_eq!(verify(&y, &abft, 64.0), vec![5]);
    }

    #[test]
    fn run_verified_recovers_reference_output_under_faults() {
        let t = uniform_random(&[24, 20, 22], 4_000, 91);
        let factors = reference::random_factors(&t, 8, 92);
        let seq = reference::mttkrp(&t, &factors, 0);
        let ctx = GpuContext::tiny().with_faults(FaultPlan::bitflips(0.2, 7));
        let (run, report) = run_verified(&ctx, &t, &factors, 0, &AbftOptions::default(), |c| {
            coo_run(c, &t, &factors)
        });
        assert!(report.flips_applied > 0, "rate 5e-2 must land flips");
        assert!(!report.detected_rows.is_empty());
        assert!(
            report.detection_rate() >= 0.99,
            "detection rate {}",
            report.detection_rate()
        );
        assert!(
            crate::outputs_match(&run.y, &seq),
            "repaired output diff {}",
            run.y.rel_fro_diff(&seq)
        );
        assert_eq!(
            report.recovered_rows + report.degraded_rows,
            report.detected_rows.len() as u64
        );
    }

    #[test]
    fn run_verified_without_faults_is_single_clean_attempt() {
        let t = uniform_random(&[10, 12, 14], 500, 93);
        let factors = reference::random_factors(&t, 4, 94);
        let ctx = GpuContext::tiny();
        let (run, report) = run_verified(&ctx, &t, &factors, 0, &AbftOptions::default(), |c| {
            coo_run(c, &t, &factors)
        });
        let plain = coo_run(&ctx, &t, &factors);
        assert_eq!(run.y.data(), plain.y.data(), "must be bit-for-bit");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.faults_injected, 0);
        assert!(report.detected_rows.is_empty());
        assert_eq!(report.degraded_rows, 0);
    }
}
