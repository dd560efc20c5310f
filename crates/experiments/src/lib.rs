//! # experiments — the paper's evaluation section, regenerated
//!
//! One function per table/figure of *"Load-Balanced Sparse MTTKRP on
//! GPUs"*. Each prints the same rows/series the paper reports and returns
//! a machine-readable [`serde_json::Value`] (collected into
//! `experiments.json` by `experiments all --json <path>`).
//!
//! Conventions shared by every experiment:
//!
//! * Datasets are the seeded stand-ins of `sptensor::synth` at
//!   [`ExpConfig::nnz`] nonzeros (see DESIGN.md for the substitution
//!   rationale). Pass `--nnz` to rescale.
//! * GFLOPs uses the paper's COO operation count `N·M·R` as the common
//!   numerator for every kernel, so "GFLOPs" is normalized useful work per
//!   second — exactly how cross-format bar charts in the paper are
//!   comparable.
//! * GPU time is simulated cycles at the P100 profile's clock; CPU time is
//!   the minimum wall-clock of [`ExpConfig::cpu_reps`] runs. Cross-device
//!   speedups (Figs. 11–15) therefore depend on the documented calibration
//!   (EXPERIMENTS.md), while intra-device orderings do not.

// Kernels index several parallel arrays with one counter; the zipped-
// iterator forms Clippy suggests obscure that symmetry.
#![allow(clippy::needless_range_loop)]

pub mod calibrate;
pub mod common;
pub mod extensions;
pub mod figs_cost;
pub mod figs_perf;
pub mod figs_speedup;
pub mod report;
pub mod tables;

pub use common::ExpConfig;

/// Runs one experiment by id ("table2", "fig5", ...); returns its JSON.
pub fn run_experiment(id: &str, cfg: &ExpConfig) -> Option<serde_json::Value> {
    let v = match id {
        "table2" => tables::table2(cfg),
        "table3" => tables::table3(cfg),
        "fig5" => figs_perf::fig5(cfg),
        "fig6" => figs_perf::fig6(cfg),
        "fig7" => figs_perf::fig7(cfg),
        "fig8" => figs_perf::fig8(cfg),
        "fig9" => figs_cost::fig9(cfg),
        "fig10" => figs_cost::fig10(cfg),
        "fig11" => figs_speedup::fig11(cfg),
        "fig12" => figs_speedup::fig12(cfg),
        "fig13" => figs_speedup::fig13(cfg),
        "fig14" => figs_speedup::fig14(cfg),
        "fig15" => figs_speedup::fig15(cfg),
        "fig16" => figs_cost::fig16(cfg),
        "ext-reorder" => extensions::ext_reorder(cfg),
        "ext-rank" => extensions::ext_rank(cfg),
        "ext-scaling" => extensions::ext_scaling(cfg),
        "ext-onemode" => extensions::ext_onemode(cfg),
        "ext-resilience" => extensions::ext_resilience(cfg),
        _ => return None,
    };
    Some(v)
}

/// Every paper experiment id, in paper order.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "table3", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "fig13", "fig14", "fig15", "fig16",
    ]
}

/// Extension experiments beyond the paper (conclusion's future work plus
/// sweeps the reproduction makes cheap). `experiments ext` runs them.
pub fn extension_ids() -> Vec<&'static str> {
    vec![
        "ext-reorder",
        "ext-rank",
        "ext-scaling",
        "ext-onemode",
        "ext-resilience",
    ]
}
