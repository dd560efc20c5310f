//! Seeded chaos schedules.
//!
//! A schedule is one composed fault spec plus the seeds that steer it:
//! the fault-draw seed and the workload seed both chain from the
//! harness seed, so one `u64` reproduces the entire chaos batch. Every
//! schedule composes at least three fault kinds and always includes one
//! interconnect fault and a `crash` rate — the two classes this harness
//! exists to exercise against everything older.

use gpu_sim::{FaultPlan, FaultSpecError};
use sptensor::hash::{splitmix64, u01};

/// Knobs of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: schedules, fault draws, and workloads all chain
    /// from it.
    pub seed: u64,
    /// Schedules to generate and run.
    pub schedules: usize,
    /// Jobs per schedule's synthetic workload.
    pub jobs: usize,
    /// Devices in each schedule's service grid.
    pub devices: usize,
    /// Relative tolerance for standalone re-verification.
    pub verify_tol: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            schedules: 3,
            jobs: 12,
            devices: 4,
            verify_tol: 1e-9,
        }
    }
}

/// One generated schedule: a parseable composed fault spec plus seeds.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ChaosSchedule {
    /// Stable name (`schedule-0`, `schedule-1`, …) used for checkpoint
    /// namespaces and report rows.
    pub name: String,
    /// The composed spec, in [`FaultPlan::parse`] grammar.
    pub spec: String,
    /// Seed the fault plan draws from.
    pub fault_seed: u64,
    /// Seed the synthetic workload derives from.
    pub workload_seed: u64,
}

/// The rotating pool of non-mandatory fault kinds. Two per schedule, so
/// three default schedules cover all six on top of the mandatory link
/// and crash faults.
const EXTRA_POOL: [&str; 6] = [
    "bitflip",
    "abort",
    "straggler",
    "oom",
    "frag",
    "device-loss",
];

impl ChaosSchedule {
    /// Generates `cfg.schedules` schedules deterministically from
    /// `cfg.seed`. Every spec is validated through [`FaultPlan::parse`]
    /// before it is returned, so a schedule that reaches the runner
    /// cannot fail to parse.
    pub fn generate(cfg: &ChaosConfig) -> Result<Vec<ChaosSchedule>, FaultSpecError> {
        let mut out = Vec::with_capacity(cfg.schedules);
        for i in 0..cfg.schedules {
            let mut state = splitmix64(cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut next = || {
                state = splitmix64(state);
                state
            };

            let mut parts: Vec<String> = Vec::with_capacity(4);
            for k in 0..2 {
                let kind = EXTRA_POOL[(i * 2 + k) % EXTRA_POOL.len()];
                let rate = match kind {
                    "bitflip" => 0.001 + u01(next()) * 0.004,
                    "abort" => 0.002 + u01(next()) * 0.008,
                    "straggler" => 0.01 + u01(next()) * 0.04,
                    "oom" => 0.01 + u01(next()) * 0.04,
                    "frag" => 0.05 + u01(next()) * 0.15,
                    _ => 0.02 + u01(next()) * 0.08, // device-loss
                };
                parts.push(format!("{kind}:{rate:.4}"));
            }
            // The mandatory interconnect fault, alternating flavor so a
            // default batch exercises both the repricing and the
            // single-device-fallback paths.
            if i % 2 == 0 {
                let rate = 0.2 + u01(next()) * 0.3;
                let factor = 2.0 + u01(next()) * 6.0;
                parts.push(format!("link-degrade:{rate:.4}:{factor:.2}"));
            } else {
                parts.push(format!("link-loss:{:.4}", 0.1 + u01(next()) * 0.2));
            }
            // The mandatory mid-write checkpoint crash.
            parts.push(format!("crash:{:.4}", 0.2 + u01(next()) * 0.3));

            let spec = parts.join(",");
            let fault_seed = next();
            // Validate now; the runner can then treat specs as trusted.
            FaultPlan::parse(&spec, fault_seed)?;
            out.push(ChaosSchedule {
                name: format!("schedule-{i}"),
                spec,
                fault_seed,
                workload_seed: next(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_composed() {
        let cfg = ChaosConfig::default();
        let a = ChaosSchedule::generate(&cfg).unwrap();
        let b = ChaosSchedule::generate(&cfg).unwrap();
        assert_eq!(a.len(), cfg.schedules);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.fault_seed, y.fault_seed);
            assert_eq!(x.workload_seed, y.workload_seed);
        }
        for s in &a {
            // ≥3 composed kinds, always one link fault and one crash.
            assert!(s.spec.split(',').count() >= 3, "{}", s.spec);
            assert!(s.spec.contains("link-"), "{}", s.spec);
            assert!(s.spec.contains("crash:"), "{}", s.spec);
            let plan = FaultPlan::parse(&s.spec, s.fault_seed).unwrap();
            assert!(plan.is_active());
            assert!(plan.has_link_faults());
            assert!(plan.has_crash_faults());
        }
    }

    #[test]
    fn default_batch_covers_both_link_flavors_and_all_extras() {
        let a = ChaosSchedule::generate(&ChaosConfig::default()).unwrap();
        let joined = a
            .iter()
            .map(|s| s.spec.as_str())
            .collect::<Vec<_>>()
            .join(";");
        assert!(joined.contains("link-degrade:"));
        assert!(joined.contains("link-loss:"));
        for kind in EXTRA_POOL {
            assert!(joined.contains(kind), "{kind} missing from {joined}");
        }
    }

    #[test]
    fn different_seeds_steer_the_specs() {
        let a = ChaosSchedule::generate(&ChaosConfig::default()).unwrap();
        let b = ChaosSchedule::generate(&ChaosConfig {
            seed: 0xBEEF,
            ..ChaosConfig::default()
        })
        .unwrap();
        assert!(a.iter().zip(&b).any(|(x, y)| x.spec != y.spec));
    }
}
