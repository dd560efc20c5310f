//! Ground truth for the ALS fit. Every driver takes `⟨X, X̃⟩` from the last
//! mode's MTTKRP instead of a pass over the nonzeros; the cross-driver
//! bit-identity suites prove the drivers agree with each other, not that
//! the shared formula is right. Here the fit is recomputed in `f64`
//! straight from the COO entries and the *returned* factors and λ, and
//! each driver's final fit must match it.

use mttkrp_repro::dense::Matrix;
use mttkrp_repro::gpu_sim::FaultPlan;
use mttkrp_repro::mttkrp::abft::{run_verified, AbftOptions};
use mttkrp_repro::mttkrp::cpd::cpd_als_planned;
use mttkrp_repro::mttkrp::cpd::{from_fn, run, RunSpec, UpdateRule};
use mttkrp_repro::mttkrp::gpu::{cpd_als_streamed, GpuContext, ModePlans, StreamOptions};
use mttkrp_repro::mttkrp::{reference, CpdOptions, CpdResult, ResilienceOptions};
use mttkrp_repro::sptensor::dims::identity_perm;
use mttkrp_repro::sptensor::synth::uniform_random;
use mttkrp_repro::sptensor::{
    standins, CooSource, CooTensor, DuplicatePolicy, IngestOptions, SpilledTensor, SynthConfig,
};
use mttkrp_repro::tensor_formats::BcsfOptions;

/// Bound for fault-free drivers: the last-mode identity is exact in real
/// arithmetic, so only `f32` rounding separates it from the oracle.
const CLEAN_TOL: f64 = 1e-6;

/// Bound under ABFT-verified bit flips: undetected small flips stay in
/// the last mode's MTTKRP (the bench's grid-fit tolerance).
const FAULTED_TOL: f64 = 1e-5;

fn opts(rank: usize) -> CpdOptions {
    CpdOptions {
        rank,
        max_iters: 6,
        tol: 0.0,
        seed: 5,
    }
}

fn tensors() -> Vec<CooTensor> {
    vec![
        uniform_random(&[14, 17, 12], 900, 33),
        uniform_random(&[10, 8, 12, 9], 700, 272),
    ]
}

/// `1 − ‖X − X̃‖ / ‖X‖` for `X̃ = Σ_r λ_r a₁ᵣ ∘ … ∘ a_Nᵣ`, all in `f64`:
/// `⟨X, X̃⟩` by one pass over the nonzeros, `‖X̃‖²` from `f64` grams.
fn oracle_fit(t: &CooTensor, factors: &[Matrix], lambda: &[f32]) -> f64 {
    let r = lambda.len();
    let norm_sq: f64 = t.values().iter().map(|&v| v as f64 * v as f64).sum();

    let mut inner = 0.0f64;
    let mut prod = vec![0.0f64; r];
    for z in 0..t.nnz() {
        for (p, &l) in prod.iter_mut().zip(lambda) {
            *p = l as f64;
        }
        for (m, f) in factors.iter().enumerate() {
            let row = f.row(t.mode_indices(m)[z] as usize);
            for (p, &a) in prod.iter_mut().zip(row) {
                *p *= a as f64;
            }
        }
        inner += t.values()[z] as f64 * prod.iter().sum::<f64>();
    }

    let grams: Vec<Vec<f64>> = factors
        .iter()
        .map(|f| {
            let mut g = vec![0.0f64; r * r];
            for i in 0..f.rows() {
                let row = f.row(i);
                for a in 0..r {
                    for b in 0..r {
                        g[a * r + b] += row[a] as f64 * row[b] as f64;
                    }
                }
            }
            g
        })
        .collect();
    let mut model_sq = 0.0f64;
    for a in 0..r {
        for b in 0..r {
            let mut g = lambda[a] as f64 * lambda[b] as f64;
            for gram in &grams {
                g *= gram[a * r + b];
            }
            model_sq += g;
        }
    }

    let resid_sq = (norm_sq - 2.0 * inner + model_sq).max(0.0);
    1.0 - resid_sq.sqrt() / norm_sq.sqrt()
}

fn assert_matches_oracle(label: &str, t: &CooTensor, res: &CpdResult, tol: f64) {
    let oracle = oracle_fit(t, &res.factors, &res.lambda);
    let gap = (res.final_fit() - oracle).abs();
    assert!(
        gap <= tol,
        "{label}: final fit {} vs oracle {oracle} (gap {gap:.3e} > {tol:.0e})",
        res.final_fit()
    );
}

#[test]
fn cpd_als_fit_matches_oracle() {
    for t in tensors() {
        let exact = from_fn(|f, m| reference::mttkrp(&t, f, m));
        let res = run(&t, RunSpec::new(opts(6)), exact).unwrap().result;
        assert_matches_oracle(
            &format!("plain run order {}", t.order()),
            &t,
            &res,
            CLEAN_TOL,
        );
    }
}

#[test]
fn nonneg_fit_matches_oracle() {
    for t in tensors() {
        let spec = RunSpec {
            rule: UpdateRule::Nonneg,
            ..RunSpec::new(opts(6))
        };
        let res = run(&t, spec, from_fn(|f, m| reference::mttkrp(&t, f, m)))
            .expect("synthetic tensors are non-negative")
            .result;
        assert_matches_oracle(
            &format!("non-negative run order {}", t.order()),
            &t,
            &res,
            CLEAN_TOL,
        );
    }
}

#[test]
fn planned_fit_matches_oracle() {
    let ctx = GpuContext::tiny();
    for t in tensors() {
        let plans = ModePlans::build_hbcsf(&ctx, &t, 8, BcsfOptions::default());
        let res = cpd_als_planned(&t, &opts(8), &ctx, &plans);
        assert_matches_oracle(
            &format!("cpd_als_planned order {}", t.order()),
            &t,
            &res,
            CLEAN_TOL,
        );
    }
}

#[test]
fn streamed_fit_matches_oracle() {
    let ctx = GpuContext::tiny();
    let mut t = uniform_random(&[14, 17, 12], 900, 33);
    t.sort_by_perm_stable(&identity_perm(3));
    let dir = std::env::temp_dir().join(format!("sptk_fit_oracle_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ingest = IngestOptions::new()
        .with_policy(DuplicatePolicy::Sum)
        .with_chunk_nnz(97);
    let spill = SpilledTensor::ingest(CooSource::new(t.clone()), &ingest, &dir).unwrap();
    let streamed = cpd_als_streamed(
        &ctx,
        &spill,
        &StreamOptions {
            cpd: opts(8),
            devices: 3,
            chunk_nnz: 64,
            bcsf: BcsfOptions::default(),
        },
        &dir,
    )
    .unwrap();
    assert_matches_oracle("cpd_als_streamed", &t, &streamed.result, CLEAN_TOL);
    drop(spill);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resilient_fit_under_verified_bitflips_matches_oracle() {
    // Fault sites are per (kernel, block), so flips need many blocks: the
    // nell2 stand-in at 60k entries has ~1.2k and lands a dozen flips.
    let nell2 = standins().into_iter().find(|d| d.name == "nell2").unwrap();
    let t = nell2.generate(&SynthConfig::default().with_nnz(60_000).with_seed(77));
    let ctx = GpuContext::tiny().with_faults(FaultPlan::parse("bitflip:1e-3", 0xFA17).unwrap());
    let plans = ModePlans::build_hbcsf(&GpuContext::tiny(), &t, 8, BcsfOptions::default());
    let flips = std::cell::Cell::new(0u64);
    let ropts = ResilienceOptions::default();
    let spec = RunSpec {
        resilience: Some(&ropts),
        ctx: Some(&ctx),
        ..RunSpec::new(opts(8))
    };
    let verified = from_fn(|f, m| {
        let (run, report) = run_verified(&ctx, &t, f, m, &AbftOptions::default(), |c| {
            plans.execute(c, f, m).expect("captured rank")
        });
        flips.set(flips.get() + report.flips_applied);
        run.y
    });
    let res = run(&t, spec, verified).unwrap().result;
    assert!(flips.get() > 0, "bitflip:1e-3 must land flips");
    assert_matches_oracle("guarded run (bitflip:1e-3)", &t, &res, FAULTED_TOL);
}
