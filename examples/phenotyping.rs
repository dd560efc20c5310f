//! Computational phenotyping with non-negative CPD — the paper's first
//! motivating application ("healthcare analytics": Limestone/Marble derive
//! candidate phenotypes from patient × diagnosis × medication tensors via
//! sparse non-negative tensor factorization).
//!
//! A synthetic EHR-like tensor is planted with ground-truth "phenotypes"
//! (co-occurring diagnosis/medication clusters across patient groups),
//! then recovered with multiplicative-update CPD driven by the simulated-
//! GPU HB-CSF MTTKRP.
//!
//! ```text
//! cargo run --release --example phenotyping
//! ```

use mttkrp_repro::mttkrp::cpd::{from_fn, run, CpdOptions, RunSpec, UpdateRule};
use mttkrp_repro::mttkrp::gpu::{Executor, GpuContext, LaunchArgs};
use mttkrp_repro::sptensor::{mode_orientation, CooTensor};
use mttkrp_repro::tensor_formats::{BcsfOptions, Hbcsf};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const PATIENTS: u32 = 400;
const DIAGNOSES: u32 = 120;
const MEDICATIONS: u32 = 80;
const PHENOTYPES: usize = 4;

fn main() {
    let (tensor, truth) = synthesize_ehr(42);
    println!(
        "EHR tensor (patient x diagnosis x medication): {:?}, {} events",
        tensor.dims(),
        tensor.nnz()
    );

    let exec = Executor::new(GpuContext::default());
    let formats: Vec<Hbcsf> = (0..3)
        .map(|m| Hbcsf::build(&tensor, &mode_orientation(3, m), BcsfOptions::default()))
        .collect();
    let opts = CpdOptions {
        rank: PHENOTYPES,
        max_iters: 60,
        tol: 1e-6,
        seed: 7,
    };
    let spec = RunSpec {
        rule: UpdateRule::Nonneg,
        ..RunSpec::new(opts)
    };
    let gpu = from_fn(|factors, mode| {
        exec.run(&formats[mode], &LaunchArgs::new(factors))
            .expect("valid launch")
            .run
            .y
    });
    let result = run(&tensor, spec, gpu)
        .expect("the cohort tensor holds non-negative counts")
        .result;
    println!(
        "non-negative CPD: fit {:.3} after {} iterations\n",
        result.final_fit(),
        result.iterations
    );

    // Match each learned component to its best ground-truth phenotype by
    // diagnosis-factor cosine similarity.
    let diag = &result.factors[1];
    let mut hits = 0;
    for r in 0..PHENOTYPES {
        let learned: Vec<f32> = (0..DIAGNOSES as usize).map(|i| diag.get(i, r)).collect();
        let (best, score) = truth
            .iter()
            .enumerate()
            .map(|(p, t)| (p, cosine(&learned, &t.diag_weights)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        println!(
            "component {r}: matches phenotype {best} (cosine {score:.3}); top diagnoses {:?}",
            top_k(&learned, 3)
        );
        if score > 0.7 {
            hits += 1;
        }
    }
    assert!(
        hits >= PHENOTYPES - 1,
        "expected to recover at least {} of {PHENOTYPES} phenotypes, got {hits}",
        PHENOTYPES - 1
    );
    println!("\nrecovered {hits}/{PHENOTYPES} planted phenotypes.");
}

struct Phenotype {
    diags: Vec<u32>,
    meds: Vec<u32>,
    diag_weights: Vec<f32>,
}

/// Plants [`PHENOTYPES`] diagnosis/medication clusters; each patient
/// expresses 1-2 of them plus noise events.
fn synthesize_ehr(seed: u64) -> (CooTensor, Vec<Phenotype>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut truth = Vec::new();
    for p in 0..PHENOTYPES as u32 {
        // Disjoint clusters keep the example's evaluation crisp.
        let diags: Vec<u32> = (0..12).map(|i| (p * 30 + i) % DIAGNOSES).collect();
        let meds: Vec<u32> = (0..8).map(|i| (p * 20 + i) % MEDICATIONS).collect();
        let mut diag_weights = vec![0.0f32; DIAGNOSES as usize];
        for &d in &diags {
            diag_weights[d as usize] = 1.0;
        }
        truth.push(Phenotype {
            diags,
            meds,
            diag_weights,
        });
    }

    let mut t = CooTensor::new(vec![PATIENTS, DIAGNOSES, MEDICATIONS]);
    for patient in 0..PATIENTS {
        let k = 1 + (rng.gen::<u32>() % 2) as usize;
        for _ in 0..k {
            let ph = &truth[rng.gen_range(0..PHENOTYPES)];
            for _ in 0..20 {
                let d = ph.diags[rng.gen_range(0..ph.diags.len())];
                let m = ph.meds[rng.gen_range(0..ph.meds.len())];
                t.push(&[patient, d, m], 1.0);
            }
        }
        // Background noise.
        for _ in 0..3 {
            t.push(
                &[
                    patient,
                    rng.gen_range(0..DIAGNOSES),
                    rng.gen_range(0..MEDICATIONS),
                ],
                0.3,
            );
        }
    }
    t.sort_by_perm(&mttkrp_repro::sptensor::identity_perm(3));
    t.fold_duplicates();
    (t, truth)
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / na / nb
    }
}

fn top_k(v: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap());
    idx.truncate(k);
    idx
}
