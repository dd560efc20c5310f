//! Resident workloads: the tensor is parsed into memory, every mode's
//! HB-CSF plan is captured, one warm sweep pays the lazy simulation, and
//! CPD runs on the simulated GPU — on one device (`cpd_als_planned`) or
//! sharded over a faulted grid (`cpd_als_sharded`).

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use dense::Matrix;
use gpu_sim::{FaultPlan, Interconnect, SimResult};
use mttkrp::cpd::{cpd_als_planned, cpd_als_profiled, cpd_als_sharded, ResilienceOptions};
use mttkrp::gpu::{GpuContext, GpuRun, GridSpec, ModePlans, OocOptions};
use mttkrp::reference;
use simprof::RunManifest;
use sptensor::{mode_orientation, CooTensor, DuplicatePolicy, IngestOptions, TnsSource};
use tensor_formats::{BcsfOptions, Hbcsf};

use super::clock::Stopwatch;
use super::rss::Phase;
use super::trace::{layer_times, Tracer};
use super::{
    dense_per_mode, Checks, Env, GridStats, Kind, Layers, Rep, SimSweep, GRID_FIT_TOLERANCE,
    ROOT_SPAN, Y_TOLERANCE,
};

/// `.tns` bytes → resident tensor, duplicates summed.
fn parse(path: &Path) -> Result<CooTensor, String> {
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let opts = IngestOptions::new().with_policy(DuplicatePolicy::Sum);
    sptensor::ingest(TnsSource::new(BufReader::with_capacity(1 << 20, f)), &opts)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The clean context every plan is captured and warmed on, and the one
/// the solve runs on (faulted for the grid workload).
fn contexts(env: &Env) -> Result<(GpuContext, GpuContext), String> {
    let clean = GpuContext::default();
    let solve = match env.workload.kind {
        Kind::Sharded { faults, .. } => clean
            .clone()
            .with_faults(FaultPlan::parse(faults, env.fault_seed).map_err(|e| e.to_string())?),
        _ => clean.clone(),
    };
    Ok((clean, solve))
}

fn warm_factors(env: &Env, t: &CooTensor) -> Vec<Matrix> {
    reference::random_factors(t, env.cpd.rank, env.cpd.seed)
}

/// One MTTKRP per mode through the captured plans.
fn warm_mode(
    ctx: &GpuContext,
    plans: &ModePlans,
    factors: &[Matrix],
    mode: usize,
) -> Result<GpuRun, String> {
    plans
        .execute(ctx, factors, mode)
        .map_err(|e| format!("warm sweep mode {mode}: {e}"))
}

fn sim_sweep(runs: &[GpuRun]) -> SimSweep {
    let time_s: f64 = runs.iter().map(|r| r.sim.time_s).sum();
    let weighted = |f: fn(&SimResult) -> f64| {
        runs.iter().map(|r| f(&r.sim) * r.sim.time_s).sum::<f64>() / time_s
    };
    SimSweep {
        time_s,
        sm_efficiency: weighted(|s| s.sm_efficiency),
        l2_hit_rate: weighted(|s| s.l2_hit_rate),
        atomic_ops: runs.iter().map(|r| r.sim.atomic_ops).sum(),
        mem_segments: runs.iter().map(|r| r.sim.mem_segments).sum(),
        block_imbalance: runs
            .iter()
            .map(|r| r.sim.max_block_cycles / r.sim.mean_block_cycles)
            .fold(0.0, f64::max),
    }
}

/// The solve, through the workload's one-call driver, with the grid
/// accounting of the sharded driver.
fn solve(
    env: &Env,
    t: &CooTensor,
    ctx: &GpuContext,
    plans: &ModePlans,
) -> (mttkrp::CpdResult, Option<GridStats>) {
    match env.workload.kind {
        Kind::Sharded {
            devices,
            interconnect,
            ..
        } => {
            let (_, res, grid) = sharded(env, t, ctx, plans, devices, interconnect);
            (res, Some(grid))
        }
        _ => (cpd_als_planned(t, &env.cpd, ctx, plans), None),
    }
}

fn new_manifest(env: &Env) -> RunManifest {
    let o = &env.cpd;
    RunManifest::new(
        "hbcsf",
        env.workload.dataset,
        o.rank,
        o.max_iters,
        o.tol,
        o.seed,
    )
}

fn sharded(
    env: &Env,
    t: &CooTensor,
    ctx: &GpuContext,
    plans: &ModePlans,
    devices: usize,
    interconnect: &str,
) -> (RunManifest, mttkrp::CpdResult, GridStats) {
    let link =
        Interconnect::parse(interconnect).expect("workload table names a known interconnect");
    let mut manifest = new_manifest(env);
    let (res, _, rec) = cpd_als_sharded(
        t,
        &env.cpd,
        &ResilienceOptions::default(),
        ctx,
        plans,
        &GridSpec::new(devices, link),
        &OocOptions::default(),
        Some(&mut manifest),
    );
    let iters = res.iterations.max(1) as f64;
    let r = &manifest.resilience;
    let grid = GridStats {
        sweep_s: (rec.compute_seconds + rec.allreduce_seconds) / iters,
        allreduce_s: rec.allreduce_seconds / iters,
        rows_detected: r.rows_detected,
        kernel_retries: r.kernel_retries,
        degraded_rows: r.degraded_rows,
        fit_gap: None,
    };
    (manifest, res, grid)
}

fn record_grid_checks(grid: &GridStats, checks: &mut Checks) {
    checks.record(
        "abft_detects_injected_flips",
        grid.rows_detected > 0,
        format!(
            "{} rows detected, {} kernel retries, {} rows degraded",
            grid.rows_detected, grid.kernel_retries, grid.degraded_rows
        ),
    );
}

/// One repetition through the library's one-call entry points.
pub(super) fn untraced(env: &Env, first: bool, checks: &mut Checks) -> Result<Rep, String> {
    let (clean, ctx) = contexts(env)?;

    let phase = Phase::start();
    let sw = Stopwatch::start();
    let t = parse(&env.input)?;
    let plans = ModePlans::build_hbcsf(&clean, &t, env.cpd.rank, BcsfOptions::default());
    let factors = warm_factors(env, &t);
    let warm = (0..t.order())
        .map(|m| warm_mode(&clean, &plans, &factors, m))
        .collect::<Result<Vec<_>, _>>()?;
    let setup = sw.elapsed();
    let rss_setup_mb = phase.peak_mb();

    if first {
        let worst = (0..t.order())
            .map(|m| warm[m].y.rel_fro_diff(&reference::mttkrp(&t, &factors, m)))
            .fold(0.0, f64::max);
        checks.record(
            "warm_y_matches_reference",
            worst <= Y_TOLERANCE,
            format!("worst rel_fro_diff {worst:.3e} over {} modes", t.order()),
        );
    }
    let sim = sim_sweep(&warm);
    drop((factors, warm));

    let phase = Phase::start();
    let sw = Stopwatch::start();
    let (res, mut grid) = solve(env, &t, &ctx, &plans);
    let solve = sw.elapsed();
    let rss_solve_mb = phase.peak_mb();

    if let Some(g) = grid.as_mut() {
        record_grid_checks(g, checks);
        if first {
            let clean_fit = cpd_als_planned(&t, &env.cpd, &clean, &plans).final_fit();
            let gap = (res.final_fit() - clean_fit).abs();
            checks.record(
                "grid_fit_matches_clean",
                gap <= GRID_FIT_TOLERANCE,
                format!("|grid − clean| final fit = {gap:.3e}"),
            );
            g.fit_gap = Some(gap);
        }
    }
    Ok(Rep {
        setup,
        solve,
        rss_setup_mb,
        rss_solve_mb,
        fits: res.fits,
        nnz: t.nnz() as u64,
        sim: Some(sim),
        grid,
        ..Rep::default()
    })
}

/// One repetition composed from the layers' public functions, each call
/// in a span. Numerically identical to [`untraced`].
pub(super) fn traced(env: &Env, tr: &Tracer, checks: &mut Checks) -> Result<Rep, String> {
    let (clean, ctx) = contexts(env)?;
    let rank = env.cpd.rank;
    let root = tr.next_id();
    let mut solve_id = 0;
    let mut manifest = new_manifest(env);
    let body = tr.span(ROOT_SPAN, || -> Result<_, String> {
        let sw = Stopwatch::start();
        let t = tr.span("sptensor.ingest", || parse(&env.input))?;
        let order = t.order();
        let formats: Vec<Hbcsf> = (0..order)
            .map(|m| {
                tr.span("tensor-formats.build", || {
                    Hbcsf::build(&t, &mode_orientation(order, m), BcsfOptions::default())
                })
            })
            .collect();
        let plans = tr.span("mttkrp.capture", || {
            ModePlans::from_formats(&clean, &formats, rank)
        });
        drop(formats);
        let direct: Vec<SimResult> = (0..order)
            .map(|m| {
                tr.span("gpu-sim.simulate", || {
                    gpu_sim::simulate(&clean.device, &clean.cost, plans.plan(m).launch())
                })
            })
            .collect();
        let factors = warm_factors(env, &t);
        let warm = (0..order)
            .map(|m| {
                tr.span("mttkrp.warm_sweep", || {
                    warm_mode(&clean, &plans, &factors, m)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let setup = sw.elapsed();
        checks.record(
            "direct_simulate_matches_memoized",
            direct
                .iter()
                .zip(&warm)
                .all(|(d, w)| d.time_s == w.sim.time_s),
            format!("{order} modes"),
        );
        drop((factors, warm));

        let sw = Stopwatch::start();
        solve_id = tr.next_id();
        let (res, grid) = match env.workload.kind {
            Kind::Sharded {
                devices,
                interconnect,
                ..
            } => tr.span("cpd.solve", || {
                let (m, res, grid) = sharded(env, &t, &ctx, &plans, devices, interconnect);
                manifest = m;
                (res, Some(grid))
            }),
            _ => tr.span("cpd.solve", || {
                let backend = |factors: &[Matrix], mode: usize| {
                    tr.span("mttkrp.replay", || {
                        match plans.execute(&ctx, factors, mode) {
                            Ok(run) => run.y,
                            Err(_) => reference::mttkrp(&t, factors, mode),
                        }
                    })
                };
                (
                    cpd_als_profiled(&t, &env.cpd, backend, &mut manifest, Some(&ctx)),
                    None,
                )
            }),
        };
        let solve = sw.elapsed();
        // The tensor and plans drop after the span closes: teardown is not
        // part of the measured repetition.
        Ok((setup, solve, res, grid, order, (t, plans)))
    });
    let (setup, solve, res, grid, order, teardown) = body?;
    drop(teardown);
    if let Some(g) = &grid {
        record_grid_checks(g, checks);
    }

    let dense = dense_per_mode(&res.factors, rank);
    place_derived(tr, solve_id, &manifest, &dense, order, grid.is_some());
    let wall_s = tr.get(root).dur();
    Ok(Rep {
        setup,
        solve,
        fits: res.fits,
        layers: Some(Layers {
            times: layer_times(&tr.spans(), root),
            wall_s,
            iter_s: manifest.iterations.iter().map(|i| i.seconds).collect(),
            replay_calls: (res.iterations * order) as u64,
        }),
        ..Rep::default()
    })
}

/// Adds the solve's derived spans under `solve_id`.
///
/// Planned solve: replay spans are measured; each mode's dense update is
/// placed right after its replay, clipped to the gap before the next one.
/// Sharded solve: nothing inside `cpd_als_sharded` is reachable, so the
/// shard-model phase (call wall minus the manifest's loop time) and each
/// verified replay (manifest per-mode MTTKRP seconds) are laid out in
/// order, with the dense updates after each replay inside its iteration.
fn place_derived(
    tr: &Tracer,
    solve_id: usize,
    manifest: &RunManifest,
    dense: &[f64],
    order: usize,
    sharded: bool,
) {
    let solve = tr.get(solve_id);
    if !sharded {
        let replays = tr.named_since("mttkrp.replay", solve_id);
        for (k, &id) in replays.iter().enumerate() {
            let r = tr.get(id);
            let gap_end = replays.get(k + 1).map_or(solve.end, |&n| tr.get(n).start);
            let dur = dense[k % order].min(gap_end - r.end).max(0.0);
            tr.derived("dense.update", r.end, r.end + dur, solve_id);
        }
        return;
    }
    let model_s = (solve.dur() - manifest.total_seconds).max(0.0);
    tr.derived(
        "mttkrp.grid_model",
        solve.start,
        solve.start + model_s,
        solve_id,
    );
    let mut iter_start = solve.start + model_s;
    for it in &manifest.iterations {
        let iter_end = (iter_start + it.seconds).min(solve.end);
        let mut cursor = iter_start;
        for mt in &it.modes {
            let end = (cursor + mt.mttkrp_seconds).min(iter_end);
            tr.derived("mttkrp.verified_replay", cursor, end, solve_id);
            let dense_end = (end + dense[mt.mode]).min(iter_end);
            tr.derived("dense.update", end, dense_end, solve_id);
            cursor = dense_end;
        }
        iter_start = iter_end;
    }
}
