//! Extension experiments beyond the paper's evaluation section:
//! the "future work" its conclusion sketches (reordering) plus sweeps the
//! reproduction makes cheap (rank, SM scaling, ONEMODE-vs-ALLMODE).

use gpu_sim::FaultPlan;
use mttkrp::abft::{AbftOptions, KernelReport};
use mttkrp::cpd::{self, CpdOptions, PlanSource, ResilienceOptions, RunSpec};
use mttkrp::cpu::onemode::SplattOneMode;
use mttkrp::cpu::splatt::{SplattAllMode, SplattOptions};
use mttkrp::gpu::{self, GpuContext, LaunchArgs};
use mttkrp::reference::random_factors;
use rayon::prelude::*;
use serde_json::{json, Value};
use sptensor::reorder;
use sptensor::{mode_orientation, CooTensor};
use tensor_formats::{Bcsf, BcsfOptions, Hbcsf, IndexBytes};

use crate::common::{run_coo, run_kernel, ExpConfig};
use crate::report::{f, print_table};

/// **ext-reorder** — the conclusion's "complementary reordering methods":
/// (a) heavy-first slice relabeling as LPT block scheduling for B-CSF;
/// (b) Morton (Z-order) sorting of nonzeros for the COO kernel's locality.
pub fn ext_reorder(cfg: &ExpConfig) -> Value {
    let ctx = cfg.gpu();
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for name in ["darpa", "nell2", "deli"] {
        let t = cfg.gen(name);
        let factors = cfg.factors(&t);
        let perm = mode_orientation(3, 0);

        // (a) Slice-order ablation on B-CSF.
        let time_of = |tensor: &CooTensor, factors: &[dense::Matrix]| {
            let b = Bcsf::build(tensor, &perm, BcsfOptions::default());
            run_kernel(&ctx, &b, factors).sim.time_s
        };
        let base = time_of(&t, &factors);
        let (heavy, map) = reorder::relabel_mode_heavy_first(&t, 0);
        let heavy_factors = permuted_factors(&factors, 0, &map);
        let t_heavy = time_of(&heavy, &heavy_factors);
        let (rand_t, rmap) = reorder::relabel_mode_random(&t, 0, cfg.seed);
        let rand_factors = permuted_factors(&factors, 0, &rmap);
        let t_rand = time_of(&rand_t, &rand_factors);

        // (b) Nonzero-order ablation on the COO kernel's L2 behaviour.
        let morton = reorder::morton_sort(&t);
        let coo_base = run_coo(&ctx, &t, &factors, 0);
        let coo_morton = run_coo(&ctx, &morton, &factors, 0);

        rows.push(vec![
            name.to_string(),
            f(base / t_heavy),
            f(base / t_rand),
            f(coo_base.sim.l2_hit_rate),
            f(coo_morton.sim.l2_hit_rate),
        ]);
        out.push(json!({
            "name": name,
            "bcsf_speedup_heavy_first": base / t_heavy,
            "bcsf_speedup_random_relabel": base / t_rand,
            "coo_l2_hit_sorted": coo_base.sim.l2_hit_rate,
            "coo_l2_hit_morton": coo_morton.sim.l2_hit_rate,
        }));
    }
    print_table(
        "Ext-reorder: heavy-first slice relabeling (B-CSF speedup vs original order) \
         and Morton sorting (COO kernel L2 hit %)",
        &[
            "tensor",
            "heavy-first",
            "random",
            "L2% sorted",
            "L2% morton",
        ],
        &rows,
    );
    json!({ "rows": out })
}

fn permuted_factors(
    factors: &[dense::Matrix],
    mode: usize,
    map: &[sptensor::Index],
) -> Vec<dense::Matrix> {
    factors
        .iter()
        .enumerate()
        .map(|(m, fm)| {
            if m != mode {
                return fm.clone();
            }
            let mut out = dense::Matrix::zeros(fm.rows(), fm.cols());
            for i in 0..fm.rows() {
                out.row_mut(map[i] as usize).copy_from_slice(fm.row(i));
            }
            out
        })
        .collect()
}

/// **ext-rank** — rank sweep: HB-CSF throughput as `R` grows (the paper
/// fixes R=32; rows widen to multiple segments above 32).
pub fn ext_rank(cfg: &ExpConfig) -> Value {
    let ctx = cfg.gpu();
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for name in ["deli", "darpa"] {
        let t = cfg.gen(name);
        let perm = mode_orientation(3, 0);
        let h = Hbcsf::build(&t, &perm, BcsfOptions::default());
        for r in [8usize, 16, 32, 64, 128] {
            let factors = random_factors(&t, r, cfg.seed ^ 0xFAC7);
            let run = run_kernel(&ctx, &h, &factors);
            let gflops = (3.0 * t.nnz() as f64 * r as f64) / run.sim.time_s.max(1e-30) / 1e9;
            rows.push(vec![name.to_string(), r.to_string(), f(gflops)]);
            out.push(json!({ "name": name, "rank": r, "gflops": gflops }));
        }
    }
    print_table(
        "Ext-rank: HB-CSF GFLOPs vs decomposition rank",
        &["tensor", "R", "GFLOPs"],
        &rows,
    );
    json!({ "rows": out })
}

/// **ext-scaling** — strong scaling over SM count: does HB-CSF keep the
/// device busy as parallelism grows (and GPU-CSF fail to)?
pub fn ext_scaling(cfg: &ExpConfig) -> Value {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let t = cfg.gen("darpa");
    let factors = cfg.factors(&t);
    let perm = mode_orientation(3, 0);
    let h = Hbcsf::build(&t, &perm, BcsfOptions::default());
    let plain = Bcsf::build(&t, &perm, BcsfOptions::unsplit());
    let base = GpuContext::default();
    let mut first: Option<(f64, f64)> = None;
    for sms in [14usize, 28, 56, 112, 224] {
        let mut ctx = base.clone();
        ctx.device.num_sms = sms;
        let th = run_kernel(&ctx, &h, &factors).sim.time_s;
        let tc = run_kernel(&ctx, &plain, &factors).sim.time_s;
        let (h0, c0) = *first.get_or_insert((th, tc));
        let sh = h0 / th * 14.0 / sms as f64; // parallel efficiency vs 14 SMs
        let sc = c0 / tc * 14.0 / sms as f64;
        rows.push(vec![
            sms.to_string(),
            f(th * 1e3),
            f(100.0 * sh),
            f(tc * 1e3),
            f(100.0 * sc),
        ]);
        out.push(json!({
            "sms": sms,
            "hbcsf_ms": th * 1e3,
            "hbcsf_efficiency_pct": 100.0 * sh,
            "gpucsf_ms": tc * 1e3,
            "gpucsf_efficiency_pct": 100.0 * sc,
        }));
    }
    print_table(
        "Ext-scaling (darpa): strong scaling over SM count — HB-CSF stays efficient, \
         unsplit GPU-CSF cannot use added SMs",
        &[
            "SMs",
            "HB-CSF ms",
            "HB-CSF eff%",
            "GPU-CSF ms",
            "GPU-CSF eff%",
        ],
        &rows,
    );
    json!({ "rows": out })
}

/// **ext-onemode** — SPLATT ONEMODE vs ALLMODE: per-mode CPU time and
/// index memory (the trade the paper cites when picking ALLMODE).
pub fn ext_onemode(cfg: &ExpConfig) -> Value {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for name in ["deli", "uber"] {
        let t = cfg.gen(name);
        let factors = cfg.factors(&t);
        let one = SplattOneMode::build_default_root(&t);
        let all = SplattAllMode::build(&t, SplattOptions::nontiled());
        let all_bytes: u64 = all
            .per_mode
            .iter()
            .flat_map(|s| s.tiles.iter())
            .map(|c| c.index_bytes())
            .sum();
        let mut modes = Vec::new();
        for mode in 0..t.order() {
            let (_, t_one) = cfg.time_cpu(|| one.mttkrp(&factors, mode));
            let (_, t_all) = cfg.time_cpu(|| all.mttkrp(&factors, mode));
            rows.push(vec![
                name.to_string(),
                (mode + 1).to_string(),
                f(t_all * 1e3),
                f(t_one * 1e3),
                f(t_one / t_all),
            ]);
            modes.push(
                json!({ "mode": mode, "allmode_ms": t_all * 1e3, "onemode_ms": t_one * 1e3 }),
            );
        }
        out.push(json!({
            "name": name,
            "onemode_index_bytes": one.csf.index_bytes(),
            "allmode_index_bytes": all_bytes,
            "modes": modes,
        }));
    }
    print_table(
        "Ext-onemode: SPLATT ONEMODE (1 tree, internal-mode algorithm) vs ALLMODE (N trees)",
        &["tensor", "mode", "ALLMODE ms", "ONEMODE ms", "slowdown"],
        &rows,
    );
    json!({ "rows": out })
}

/// **ext-resilience** — the simfault sweep: transient bit-flip rates vs
/// ABFT detection, recovery cost, and end-to-end CPD fit. Per rate the
/// table reports one mode-1 HB-CSF MTTKRP verified by an ABFT
/// [`Executor`](gpu::Executor)
/// (injected/corrupted/detected/retried/degraded rows, detection %, and
/// an execution-overhead estimate `attempts × faulted-time / clean-time`)
/// plus a short resilient CPD-ALS run's final fit against the fault-free
/// fit — the "converges within 1% under rate ≤ 1e-3" acceptance claim.
pub fn ext_resilience(cfg: &ExpConfig) -> Value {
    let name = "darpa";
    let t = cfg.gen(name);
    let factors = cfg.factors(&t);
    let opts = CpdOptions {
        rank: cfg.rank.min(8),
        max_iters: 5,
        tol: 0.0,
        seed: cfg.seed,
    };
    let clean_ctx = cfg.gpu();
    // Build the per-mode formats once (fanned across modes), then capture
    // launch plans at both ranks in play: every MTTKRP below — clean,
    // verified, resilient — replays a captured plan.
    let formats: Vec<Hbcsf> = (0..t.order())
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|m| Hbcsf::build(&t, &mode_orientation(t.order(), m), BcsfOptions::default()))
        .collect();
    let mttkrp_plans = gpu::ModePlans::from_formats(&clean_ctx, &formats, cfg.rank);
    let cpd_plans = gpu::ModePlans::from_formats(&clean_ctx, &formats, opts.rank);
    let clean = mttkrp_plans
        .execute(&clean_ctx, &factors, 0)
        .expect("factors match the captured plan rank");
    // A CPD replaying the captured plans on `ctx`; under faults every
    // MTTKRP is ABFT-verified.
    let cpd_fit = |ctx: &gpu::GpuContext, resilience| {
        let spec = RunSpec {
            resilience,
            ctx: Some(ctx),
            ..RunSpec::new(opts)
        };
        cpd::run(&t, spec, &mut PlanSource::new(&t, ctx, &cpd_plans))
            .expect("a least-squares run without a store never fails")
            .result
            .final_fit()
    };
    let ropts = ResilienceOptions::default();
    let clean_fit = cpd_fit(&cfg.gpu(), None);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for rate in [0.0, 1e-4, 1e-3, 1e-2] {
        let ctx = cfg
            .gpu()
            .with_faults(FaultPlan::bitflips(rate, cfg.seed ^ 0xFA17));

        // One verified MTTKRP: detection and recovery accounting.
        let exec = gpu::Executor::new(ctx.clone())
            .with_abft(AbftOptions::default())
            .execute(
                mttkrp_plans.plan(0),
                &LaunchArgs::new(&factors).with_tensor(&t),
            )
            .expect("factors match the captured plan rank");
        // A fault-free launch runs once, with nothing to verify.
        let report = exec.abft.unwrap_or(KernelReport {
            attempts: 1,
            ..KernelReport::default()
        });
        let run = exec.run;
        let overhead = f64::from(report.attempts) * run.sim.time_s / clean.sim.time_s.max(1e-30);
        let out_diff = run.y.rel_fro_diff(&clean.y);

        // End-to-end resilient CPD under the same plan.
        let fit = cpd_fit(&ctx, Some(&ropts));

        rows.push(vec![
            format!("{rate:.0e}"),
            report.faults_injected.to_string(),
            report.corrupted_rows.len().to_string(),
            report.detected_rows.len().to_string(),
            f(100.0 * report.detection_rate()),
            report.retries.to_string(),
            report.degraded_rows.to_string(),
            f(overhead),
            f(fit),
            f(clean_fit - fit),
        ]);
        out.push(json!({
            "rate": rate,
            "faults_injected": report.faults_injected,
            "corrupted_rows": report.corrupted_rows.len(),
            "detected_rows": report.detected_rows.len(),
            "detection_rate": report.detection_rate(),
            "retries": report.retries,
            "degraded_rows": report.degraded_rows,
            "overhead_x": overhead,
            "output_rel_diff": out_diff,
            "cpd_fit": fit,
            "clean_cpd_fit": clean_fit,
        }));
    }
    print_table(
        "Ext-resilience (darpa): bit-flip rate vs ABFT detection, recovery, and CPD fit \
         (overhead = attempts x faulted/clean kernel time; fit vs fault-free baseline)",
        &[
            "rate", "inject", "corrupt", "detect", "det%", "retry", "degrade", "ovhd x", "fit",
            "fit loss",
        ],
        &rows,
    );
    json!({ "rows": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_scaling_hbcsf_scales_better_than_gpucsf() {
        let v = ext_scaling(&ExpConfig::smoke());
        let rows = v["rows"].as_array().unwrap();
        let last = rows.last().unwrap();
        assert!(
            last["hbcsf_efficiency_pct"].as_f64().unwrap()
                > last["gpucsf_efficiency_pct"].as_f64().unwrap(),
            "HB-CSF must scale better than unsplit GPU-CSF at max SM count"
        );
    }

    #[test]
    fn ext_resilience_detects_and_recovers() {
        let v = ext_resilience(&ExpConfig::smoke());
        let rows = v["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        // Rate 0 row: nothing injected, output identical, full fit.
        assert_eq!(rows[0]["faults_injected"].as_u64(), Some(0));
        assert_eq!(rows[0]["output_rel_diff"].as_f64(), Some(0.0));
        let clean_fit = rows[0]["clean_cpd_fit"].as_f64().unwrap();
        for row in rows {
            // Repaired MTTKRP output stays tight to the clean output.
            assert!(row["output_rel_diff"].as_f64().unwrap() < 1e-4);
            // Detection over ground truth stays >= 99% at every rate.
            assert!(row["detection_rate"].as_f64().unwrap() >= 0.99);
            // CPD under faults converges within 1% of the fault-free fit.
            let fit = row["cpd_fit"].as_f64().unwrap();
            assert!(
                (clean_fit - fit).abs() <= 0.01 * clean_fit.abs().max(1e-12),
                "rate {} fit {fit} vs clean {clean_fit}",
                row["rate"]
            );
        }
    }

    #[test]
    fn ext_reorder_runs_and_reports() {
        let v = ext_reorder(&ExpConfig::smoke());
        for row in v["rows"].as_array().unwrap() {
            assert!(row["bcsf_speedup_heavy_first"].as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn ext_rank_gflops_grow_with_rank() {
        // Wider rows amortize indices/metadata: GFLOPs at R=128 must
        // exceed GFLOPs at R=8.
        let v = ext_rank(&ExpConfig::smoke());
        let rows = v["rows"].as_array().unwrap();
        let get = |name: &str, r: u64| {
            rows.iter()
                .find(|x| x["name"] == name && x["rank"] == r)
                .unwrap()["gflops"]
                .as_f64()
                .unwrap()
        };
        assert!(get("deli", 128) > get("deli", 8));
    }
}
