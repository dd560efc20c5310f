//! Seeded synthetic multi-tenant workloads.
//!
//! Everything — tensor structures, arrival times, tenants, kernels, job
//! kinds, device asks — derives from one `u64` seed through a splitmix64
//! chain, so the same [`WorkloadConfig`] always produces byte-identical
//! jobs and therefore (through the deterministic service) byte-identical
//! reports. No wall clock, no OS randomness.

use mttkrp::gpu::KernelKind;
use sptensor::hash::{splitmix64, u01};
use sptensor::{synth::uniform_random, CooTensor};

use crate::job::{JobKind, JobSpec};

/// Knobs of the synthetic workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Master seed: every draw chains from it.
    pub seed: u64,
    pub tenants: usize,
    /// Total jobs across all tenants.
    pub jobs: usize,
    /// Nonzeros per synthetic tensor.
    pub nnz: usize,
    /// Decomposition / MTTKRP rank of every job.
    pub rank: usize,
    /// Mean inter-arrival gap, virtual µs (exponential-ish draws).
    pub arrival_mean_us: f64,
    /// Deadline relative to arrival, µs.
    pub deadline_us: f64,
    /// Per-attempt execution budget, µs.
    pub timeout_us: f64,
    /// Device asks are drawn uniformly from `1..=max_devices`.
    pub max_devices: usize,
    /// Percentage of jobs that are CPD decompositions (the rest are
    /// single MTTKRPs).
    pub cpd_fraction_pct: u32,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0x5EED,
            tenants: 3,
            jobs: 24,
            nnz: 4000,
            rank: 8,
            arrival_mean_us: 200.0,
            deadline_us: 500_000.0,
            timeout_us: 100_000.0,
            max_devices: 4,
            cpd_fraction_pct: 25,
        }
    }
}

/// A generated workload: the dataset catalog plus the job stream.
#[derive(Debug, Clone)]
pub struct Workload {
    /// `(name, tensor)` pairs to register with the service.
    pub tensors: Vec<(String, CooTensor)>,
    /// Jobs in submission order (ids are their indices).
    pub jobs: Vec<JobSpec>,
}

/// Kernels the generator draws from — the any-order formats, so every
/// synthetic tensor is a valid target.
const KERNEL_POOL: [KernelKind; 4] = [
    KernelKind::Hbcsf,
    KernelKind::Bcsf,
    KernelKind::Csl,
    KernelKind::Csf,
];

/// Structures of the three catalog tensors (all third-order, distinct
/// dims so their structure hashes — and plans — never collide).
const TENSOR_DIMS: [[u32; 3]; 3] = [[40, 50, 60], [64, 48, 56], [30, 72, 44]];

impl Workload {
    /// Generates the workload for `cfg`, deterministically.
    pub fn generate(cfg: &WorkloadConfig) -> Workload {
        let mut state = splitmix64(cfg.seed);
        let mut next = || {
            state = splitmix64(state);
            state
        };

        let tensors: Vec<(String, CooTensor)> = TENSOR_DIMS
            .iter()
            .enumerate()
            .map(|(i, dims)| {
                let name = format!("synth-{}", char::from(b'a' + i as u8));
                (name, uniform_random(dims, cfg.nnz, next()))
            })
            .collect();

        let mut jobs = Vec::with_capacity(cfg.jobs);
        let mut arrival = 0.0f64;
        for id in 0..cfg.jobs as u64 {
            // Exponential-ish inter-arrival gap with mean
            // `arrival_mean_us`, clamped away from 0 so ids still break
            // ties deterministically.
            let gap = -u01(next()).max(1e-12).ln() * cfg.arrival_mean_us;
            arrival += gap.clamp(1.0, cfg.arrival_mean_us * 8.0);

            let tenant = (next() % cfg.tenants.max(1) as u64) as usize;
            let dataset = tensors[(next() % tensors.len() as u64) as usize].0.clone();
            let kernel = KERNEL_POOL[(next() % KERNEL_POOL.len() as u64) as usize];
            let kind = if (next() % 100) < u64::from(cfg.cpd_fraction_pct) {
                JobKind::Cpd { iters: 2 }
            } else {
                JobKind::Mttkrp {
                    mode: (next() % 3) as usize,
                }
            };
            let devices = 1 + (next() % cfg.max_devices.max(1) as u64) as usize;
            jobs.push(JobSpec {
                id,
                tenant,
                dataset,
                kernel,
                kind,
                rank: cfg.rank,
                devices,
                seed: next(),
                arrival_us: arrival,
                deadline_us: arrival + cfg.deadline_us,
                timeout_us: cfg.timeout_us,
            });
        }
        Workload { tensors, jobs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload() {
        let cfg = WorkloadConfig::default();
        let a = Workload::generate(&cfg);
        let b = Workload::generate(&cfg);
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.dataset, y.dataset);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.arrival_us.to_bits(), y.arrival_us.to_bits());
        }
        for ((na, ta), (nb, tb)) in a.tensors.iter().zip(&b.tensors) {
            assert_eq!(na, nb);
            assert_eq!(ta.nnz(), tb.nnz());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Workload::generate(&WorkloadConfig::default());
        let b = Workload::generate(&WorkloadConfig {
            seed: 0xBEEF,
            ..WorkloadConfig::default()
        });
        assert!(
            a.jobs
                .iter()
                .zip(&b.jobs)
                .any(|(x, y)| x.seed != y.seed || x.arrival_us != y.arrival_us),
            "seeds must steer the stream"
        );
    }

    #[test]
    fn jobs_are_well_formed() {
        let cfg = WorkloadConfig {
            jobs: 50,
            ..WorkloadConfig::default()
        };
        let w = Workload::generate(&cfg);
        assert_eq!(w.jobs.len(), 50);
        let mut prev = 0.0;
        for j in &w.jobs {
            assert!(j.tenant < cfg.tenants);
            assert!(w.tensors.iter().any(|(n, _)| *n == j.dataset));
            assert!(j.devices >= 1 && j.devices <= cfg.max_devices);
            assert!(j.arrival_us > prev, "arrivals strictly increase");
            assert!(j.deadline_us > j.arrival_us);
            prev = j.arrival_us;
        }
    }
}
