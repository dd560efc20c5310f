//! CPD on an email-conversation tensor — the paper's introductory scenario
//! ("the attributes of an email conversation (subject, author and time)
//! can be represented by the use of a tensor").
//!
//! An enron-like 4-D tensor (sender × receiver × word × time) is
//! synthesized, decomposed with CPD-ALS driven by the simulated-GPU HB-CSF
//! MTTKRP, and the discovered latent components are reported.
//!
//! ```text
//! cargo run --release --example cpd_email
//! ```

use mttkrp_repro::mttkrp::cpd::{from_fn, run, CpdOptions, RunSpec};
use mttkrp_repro::mttkrp::gpu::{Executor, GpuContext, LaunchArgs};
use mttkrp_repro::sptensor::{mode_orientation, synth};
use mttkrp_repro::tensor_formats::{BcsfOptions, Hbcsf};

fn main() {
    let spec = synth::standin("enron").expect("built-in stand-in");
    let tensor = spec.generate(&synth::SynthConfig::default().with_nnz(40_000));
    println!(
        "email tensor (sender x receiver x word x time): {:?}, {} nonzeros",
        tensor.dims(),
        tensor.nnz()
    );

    // Pre-build one HB-CSF per mode (ALLMODE): CPD runs MTTKRP for every
    // mode each iteration, so the construction cost amortizes (paper
    // Figs. 9-10).
    let exec = Executor::new(GpuContext::default());
    let formats: Vec<Hbcsf> = (0..tensor.order())
        .map(|m| {
            let perm = mode_orientation(tensor.order(), m);
            Hbcsf::build(&tensor, &perm, BcsfOptions::default())
        })
        .collect();

    let opts = CpdOptions {
        rank: 8,
        max_iters: 12,
        tol: 1e-5,
        seed: 99,
    };
    let mut sim_seconds = 0.0f64;
    let gpu = from_fn(|factors, mode| {
        let run = exec
            .run(&formats[mode], &LaunchArgs::new(factors))
            .expect("valid launch")
            .run;
        sim_seconds += run.sim.time_s;
        run.y
    });
    let result = run(&tensor, RunSpec::new(opts), gpu)
        .expect("a least-squares run without a store never fails")
        .result;

    println!("\nCPD-ALS (rank {}):", opts.rank);
    for (i, fit) in result.fits.iter().enumerate() {
        println!("  iter {:>2}: fit = {:.4}", i + 1, fit);
    }
    println!(
        "converged after {} iterations; {:.2} ms of simulated GPU MTTKRP",
        result.iterations,
        sim_seconds * 1e3
    );

    // The component weights rank the discovered conversation clusters.
    let mut weights: Vec<(usize, f32)> = result.lambda.iter().copied().enumerate().collect();
    weights.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop components by weight:");
    for (r, w) in weights.iter().take(4) {
        println!("  component {r}: weight {w:.3}");
    }
}
