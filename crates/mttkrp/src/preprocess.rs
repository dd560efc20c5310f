//! Format-construction (preprocessing) timing — the data behind Figs. 9-10.
//!
//! "Since CPD is an iterative algorithm and each iteration requires MTTKRP
//! over all modes, the preprocessing cost is amortized over a number of
//! iterations." This module measures wall-clock construction time of each
//! format's ALLMODE representation and computes the amortization point.

use std::time::Instant;

use sptensor::dims::mode_orientation;
use sptensor::CooTensor;
use tensor_formats::{Bcsf, BcsfOptions, Hbcsf};

/// Runs `f`, returning its result and elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Seconds to build B-CSF for every mode.
pub fn bcsf_allmode_seconds(t: &CooTensor, opts: BcsfOptions) -> f64 {
    timed(|| {
        for mode in 0..t.order() {
            let perm = mode_orientation(t.order(), mode);
            std::hint::black_box(Bcsf::build(t, &perm, opts));
        }
    })
    .1
}

/// Seconds to build HB-CSF for every mode (classification included).
pub fn hbcsf_allmode_seconds(t: &CooTensor, opts: BcsfOptions) -> f64 {
    timed(|| {
        for mode in 0..t.order() {
            let perm = mode_orientation(t.order(), mode);
            std::hint::black_box(Hbcsf::build(t, &perm, opts));
        }
    })
    .1
}

/// Fig. 10's quantity: the smallest iteration count `n` at which
/// `pre_new + n · iter_new ≤ pre_base + n · iter_base`. Returns `Some(0)`
/// when the new method starts ahead, `None` when its per-iteration time is
/// not actually faster (it never catches up).
pub fn iterations_to_outperform(
    pre_new: f64,
    iter_new: f64,
    pre_base: f64,
    iter_base: f64,
) -> Option<u64> {
    if pre_new <= pre_base {
        return Some(0);
    }
    if iter_new >= iter_base {
        return None;
    }
    Some(((pre_new - pre_base) / (iter_base - iter_new)).ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::synth::{standin, SynthConfig};

    #[test]
    fn amortization_math() {
        // 10s extra preprocessing, 2s/iter saved -> 5 iterations.
        assert_eq!(iterations_to_outperform(12.0, 1.0, 2.0, 3.0), Some(5));
        // Already cheaper to build.
        assert_eq!(iterations_to_outperform(1.0, 5.0, 2.0, 3.0), Some(0));
        // Never catches up.
        assert_eq!(iterations_to_outperform(12.0, 3.0, 2.0, 3.0), None);
        // Exact break-even counts.
        assert_eq!(iterations_to_outperform(4.0, 1.0, 2.0, 2.0), Some(2));
    }

    #[test]
    fn all_builders_run_and_take_time() {
        let t = standin("uber").unwrap().generate(&SynthConfig::tiny());
        let b = bcsf_allmode_seconds(&t, BcsfOptions::default());
        let h = hbcsf_allmode_seconds(&t, BcsfOptions::default());
        for (name, v) in [("bcsf", b), ("hbcsf", h)] {
            assert!(v > 0.0, "{name} reported zero time");
            assert!(v < 60.0, "{name} took implausibly long: {v}");
        }
    }
}
