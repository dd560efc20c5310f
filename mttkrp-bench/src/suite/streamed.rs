//! The out-of-core workload: `.tns` bytes are spilled to sorted runs on
//! disk, and `cpd_als_streamed` re-sorts per mode, builds each format from
//! the stream, captures shard plans to disk and replays them shard by
//! shard. The tensor is never resident.

use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

use dense::Matrix;
use mttkrp::gpu::stream::{capture_sharded_hbcsf, replay_mode};
use mttkrp::gpu::{cpd_als_streamed, GpuContext, ShardStore, StreamOptions};
use sptensor::{mode_orientation, DuplicatePolicy, IngestOptions, SpilledTensor, TnsSource};
use tensor_formats::{BcsfOptions, Csf, Hbcsf};

use super::clock::Stopwatch;
use super::rss::Phase;
use super::trace::{layer_times, Tracer};
use super::{dense_per_mode, Env, Kind, Layers, Rep, ROOT_SPAN};

fn params(env: &Env) -> (usize, usize) {
    match env.workload.kind {
        Kind::Streamed { shards, chunk_nnz } => (shards, chunk_nnz),
        _ => unreachable!("streamed pipeline runs streamed workloads only"),
    }
}

/// `.tns` bytes → sorted spill runs, duplicates summed.
fn spill(env: &Env, chunk_nnz: usize) -> Result<SpilledTensor, String> {
    let path = &env.input;
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let opts = IngestOptions::new()
        .with_policy(DuplicatePolicy::Sum)
        .with_chunk_nnz(chunk_nnz);
    SpilledTensor::ingest(
        TnsSource::new(BufReader::with_capacity(1 << 20, f)),
        &opts,
        &env.scratch,
    )
    .map_err(|e| format!("spill {}: {e}", path.display()))
}

fn solve(env: &Env, spilled: &SpilledTensor) -> Result<mttkrp::CpdResult, String> {
    let (shards, chunk_nnz) = params(env);
    let opts = StreamOptions {
        cpd: env.cpd,
        devices: shards,
        chunk_nnz,
        bcsf: BcsfOptions::default(),
    };
    cpd_als_streamed(&GpuContext::default(), spilled, &opts, &env.scratch)
        .map(|out| out.result)
        .map_err(|e| format!("streamed cpd: {e}"))
}

/// One repetition through `SpilledTensor::ingest` and `cpd_als_streamed`.
pub(super) fn untraced(env: &Env) -> Result<Rep, String> {
    let (_, chunk_nnz) = params(env);
    let phase = Phase::start();
    let sw = Stopwatch::start();
    let spilled = spill(env, chunk_nnz)?;
    let setup = sw.elapsed();
    let rss_setup_mb = phase.peak_mb();

    let phase = Phase::start();
    let sw = Stopwatch::start();
    let res = solve(env, &spilled)?;
    let solve = sw.elapsed();
    let rss_solve_mb = phase.peak_mb();
    Ok(Rep {
        setup,
        solve,
        rss_setup_mb,
        rss_solve_mb,
        fits: res.fits,
        nnz: spilled.nnz(),
        ..Rep::default()
    })
}

/// Seconds each public step inside `cpd_als_streamed` takes, timed by
/// calling the steps one by one on the same spill.
struct StepTimes {
    /// Per mode: re-sort, streamed CSF build, HB-CSF conversion, sharded
    /// capture — the driver's capture phase, in its order.
    prep: Vec<[(&'static str, f64); 4]>,
    /// Per mode: one sequential shard replay.
    replay: Vec<f64>,
    /// Per mode: one ALS factor update.
    dense: Vec<f64>,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn step_times(
    env: &Env,
    spilled: &SpilledTensor,
    factors: &[Matrix],
) -> sptensor::TensorResult<StepTimes> {
    let (shards, chunk_nnz) = params(env);
    let ctx = GpuContext::default();
    let rank = env.cpd.rank;
    let order = spilled.dims().len();
    let resort_opts = IngestOptions::new().with_chunk_nnz(chunk_nnz);
    let mut store = ShardStore::create(&env.scratch)?;
    let mut prep = Vec::with_capacity(order);
    for mode in 0..order {
        let perm = mode_orientation(order, mode);
        let (resorted, resort_s) = time(|| spilled.resort(&perm, &env.scratch, &resort_opts));
        let resorted = resorted?;
        let (csf, build_s) = time(|| Csf::build_streamed(&mut resorted.stream()?, chunk_nnz));
        let csf = csf?;
        drop(resorted);
        let (h, from_csf_s) = time(|| Hbcsf::from_csf(csf, BcsfOptions::default()));
        let (n, capture_s) = time(|| capture_sharded_hbcsf(&ctx, &h, rank, shards, &mut store));
        n?;
        prep.push([
            ("sptensor.resort", resort_s),
            ("tensor-formats.build_streamed", build_s),
            ("tensor-formats.from_csf", from_csf_s),
            ("mttkrp.capture_sharded", capture_s),
        ]);
    }
    let mut replay = Vec::with_capacity(order);
    for mode in 0..order {
        let (y, s) = time(|| replay_mode(&store, mode, rank, factors));
        y?;
        replay.push(s);
    }
    Ok(StepTimes {
        prep,
        replay,
        dense: dense_per_mode(factors, rank),
    })
}

/// One repetition: the spill and `cpd_als_streamed` each in a span. The
/// driver's steps are not reachable from outside, so after the repetition
/// they are timed one by one through their public functions and laid out
/// inside the solve span as derived spans; what remains is the driver's
/// own work, mostly the streamed fit.
pub(super) fn traced(env: &Env, tr: &Tracer) -> Result<Rep, String> {
    let (_, chunk_nnz) = params(env);
    let root = tr.next_id();
    let mut solve_id = 0;
    let body = tr.span(ROOT_SPAN, || -> Result<_, String> {
        let sw = Stopwatch::start();
        let spilled = tr.span("sptensor.spill", || spill(env, chunk_nnz))?;
        let setup = sw.elapsed();
        let sw = Stopwatch::start();
        solve_id = tr.next_id();
        let res = tr.span("cpd.solve", || solve(env, &spilled))?;
        Ok((setup, sw.elapsed(), res, spilled))
    });
    let (setup, solve, res, spilled) = body?;
    let steps = step_times(env, &spilled, &res.factors)
        .map_err(|e| format!("streamed step timing: {e}"))?;
    drop(spilled);
    let iter_s = place_derived(tr, solve_id, &steps, res.iterations);
    let order = steps.replay.len();
    Ok(Rep {
        setup,
        solve,
        layers: Some(Layers {
            times: layer_times(&tr.spans(), root),
            wall_s: tr.get(root).dur(),
            replay_calls: (res.iterations * order) as u64,
            iter_s: vec![iter_s; res.iterations],
        }),
        fits: res.fits,
        ..Rep::default()
    })
}

/// Lays the timed steps out under `solve_id` in the driver's order — the
/// capture phase, then per iteration each mode's replay and dense update —
/// clipped to the solve span. Returns the mean iteration time: the solve
/// after the capture phase over the iteration count (the driver reports
/// no per-iteration times).
fn place_derived(tr: &Tracer, solve_id: usize, steps: &StepTimes, iterations: usize) -> f64 {
    let solve = tr.get(solve_id);
    let lay = |name: &'static str, start: f64, dur: f64| -> f64 {
        let end = (start + dur).min(solve.end);
        tr.derived(name, start, end, solve_id);
        end
    };
    let mut cursor = solve.start;
    for mode in &steps.prep {
        for &(name, dur) in mode {
            cursor = lay(name, cursor, dur);
        }
    }
    let loop_start = cursor;
    // Each iteration ends with the streamed fit, which stays the solve's
    // self time: leave an equal gap for it after every iteration's updates.
    let iters = iterations.max(1) as f64;
    let iter_s = (solve.end - loop_start) / iters;
    let updates: f64 = steps.replay.iter().sum::<f64>() + steps.dense.iter().sum::<f64>();
    let fit_gap = (iter_s - updates).max(0.0);
    for _ in 0..iterations {
        for (&replay_s, &dense_s) in steps.replay.iter().zip(&steps.dense) {
            cursor = lay("mttkrp.shard_replay", cursor, replay_s);
            cursor = lay("dense.update", cursor, dense_s);
        }
        cursor = (cursor + fit_gap).min(solve.end);
    }
    iter_s
}
