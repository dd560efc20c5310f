//! The benchmark suite: named workloads, each run from generated `.tns`
//! bytes on disk to the final CPD fit, repeated for a fixed time budget.
//!
//! A run repeats its workload's pipeline — set-up (bytes → ready to
//! iterate) then a fixed-iteration solve (`tol = 0`) — until the budget is
//! spent. It reports the median times over the repetitions, the lowest
//! repetition's peak memory, and medians of the per-layer measurements.
//! End-to-end times are process CPU seconds scaled to a reference host
//! speed by a probe timed next to each repetition (see [`clock`] and
//! [`probe`]); raw CPU and wall seconds are per-layer metrics.
//!
//! End-to-end metrics come from untraced repetitions that call the
//! library's one-call entry points (`ModePlans::build_hbcsf`,
//! `cpd_als_planned`, `cpd_als_sharded`, `cpd_als_streamed`). A traced run
//! alternates those with repetitions composed from the same layers'
//! public functions, each call wrapped in a span (see [`trace`]); nothing
//! inside the library is instrumented.
//! The traced fits must equal the untraced ones bit for bit, which is
//! what makes the composed pipeline a faithful stand-in.
//!
//! Host wall time and simulated GPU time are reported side by side and
//! never mixed: simulated quantities carry the unit `sim_ms`.

mod clock;
mod inputs;
mod probe;
mod resident;
mod rss;
mod streamed;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dense::{pseudo_inverse, HadamardChain, Matrix};
use mttkrp::cpd::CpdOptions;
use serde_json::{json, Value};
use sptensor::synth::MAX_SCALED_DIM;
use sptensor::Index;

use clock::Times;
use trace::{layers_json, LayerTime, Tracer};

/// How a workload's tensor reaches the solver and which driver solves it.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Resident tensor, per-mode HB-CSF plans, `cpd_als_planned`.
    Planned,
    /// Resident tensor through `cpd_als_sharded` on a simulated
    /// multi-GPU node, under a fault plan seeded from the run's seed.
    Sharded {
        devices: usize,
        interconnect: &'static str,
        faults: &'static str,
    },
    /// Tensor spilled to sorted runs on disk, solved by
    /// `cpd_als_streamed` from per-mode shard plans on disk.
    Streamed { shards: usize, chunk_nnz: usize },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Stand-in dataset (see `sptensor::synth::standins`).
    pub dataset: &'static str,
    /// Generated entries, duplicates included.
    pub nnz: usize,
    /// Cap on every mode's extent. The factor matrices have this many
    /// rows at most, so it sets the dense algebra per ALS update.
    pub max_rows: Index,
    pub rank: usize,
    pub iters: usize,
    pub kind: Kind,
}

/// The workloads, in the order the README documents them. Every one is
/// closed-loop with a single caller: a repetition starts when the
/// previous one has finished.
///
/// Sizes keep one repetition at 1–6 s on a 2-core host, so a run holds
/// several. At these sizes the stand-ins' long modes would scale to the
/// generator's 500k-row cap, where the dense update of that one factor
/// outweighs everything else; a lower `max_rows` gives each workload a
/// different leading layer. darpa stays at 250k entries because its heavy
/// fibers push the f32 gap between the replayed and reference MTTKRP
/// towards the 1e-4 check as it grows. The grid's bit-flip rate is per
/// thread block, high enough that every seed exercises detection.
pub const WORKLOADS: &[Workload] = &[
    // The paper's skewed-slice case: the most imbalanced blocks. The fit
    // leads the solve; parse and format build lead the set-up.
    Workload {
        name: "cpd-darpa",
        dataset: "darpa",
        nnz: 250_000,
        max_rows: 50_000,
        rank: 16,
        iters: 10,
        kind: Kind::Planned,
    },
    // The only workload through ABFT verify/retry, shard models and
    // all-reduce pricing: the same tensor on a faulted 4-device grid.
    Workload {
        name: "cpd-darpa-grid",
        dataset: "darpa",
        nnz: 250_000,
        max_rows: 50_000,
        rank: 16,
        iters: 10,
        kind: Kind::Sharded {
            devices: 4,
            interconnect: "pcie",
            faults: "bitflip:5e-4",
        },
    },
    // 4-way: replay of the longest launches and the Hadamard chain over
    // four modes.
    Workload {
        name: "cpd-flick4d",
        dataset: "flick-4d",
        nnz: 250_000,
        max_rows: 50_000,
        rank: 16,
        iters: 10,
        kind: Kind::Planned,
    },
    // Rank 32 with a 200k-row mode: R²-scaled dense algebra leads.
    Workload {
        name: "cpd-frm-r32",
        dataset: "fr_m",
        nnz: 250_000,
        max_rows: 200_000,
        rank: 32,
        iters: 10,
        kind: Kind::Planned,
    },
    // Out-of-core: spill, external re-sort, streamed build and sharded
    // capture on disk; replay is a few percent.
    Workload {
        name: "ingest-nell2",
        dataset: "nell2",
        nnz: 1_000_000,
        max_rows: MAX_SCALED_DIM,
        rank: 16,
        iters: 3,
        kind: Kind::Streamed {
            shards: 4,
            chunk_nnz: 1 << 18,
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    /// Every generated input, the CPD initialization and the fault plan
    /// derive from this seed.
    pub seed: u64,
    /// Time budget of the measured repetitions.
    pub seconds: f64,
    /// Also run traced repetitions and report per-layer metrics.
    pub trace: bool,
    /// Directory for cached inputs, scratch files and results.
    pub out: PathBuf,
    /// Overrides the workload's generated entry count (smoke tests).
    pub nnz: Option<usize>,
}

/// Untraced repetitions a run makes even when the budget is spent sooner.
const MIN_REPS: usize = 3;

/// Untraced/traced repetition pairs a traced run makes at least.
const MIN_TRACED_PAIRS: usize = 2;

/// Largest relative Frobenius difference accepted between a replayed
/// MTTKRP and `reference::mttkrp`.
const Y_TOLERANCE: f64 = 1e-4;

/// Largest final-fit gap accepted between the faulted grid run and the
/// clean single-device run of the same tensor. Flips too small for the
/// ABFT checksum to flag pass through, so the gap is not always zero: it
/// reached 1.9e-6 over 60 seeds, which rules out the 1e-6 a bit-flip-free
/// comparison would allow.
const GRID_FIT_TOLERANCE: f64 = 1e-5;

/// A metric value as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
}

/// One correctness check, aggregated over every repetition that ran it.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

/// Correctness checks of one run.
#[derive(Debug, Default)]
pub(crate) struct Checks(Vec<Check>);

impl Checks {
    /// Records one evaluation; a check passes only if every evaluation
    /// did, and keeps the detail of its first failure.
    fn record(&mut self, name: &'static str, pass: bool, detail: String) {
        match self.0.iter_mut().find(|c| c.name == name) {
            Some(c) if c.pass && !pass => {
                c.pass = false;
                c.detail = detail;
            }
            Some(_) => {}
            None => self.0.push(Check { name, pass, detail }),
        }
    }
}

/// Simulated-GPU summary of one all-mode sweep.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimSweep {
    pub time_s: f64,
    /// Time-weighted mean over the sweep's launches, percent.
    pub sm_efficiency: f64,
    /// Time-weighted mean over the sweep's launches, percent.
    pub l2_hit_rate: f64,
    pub atomic_ops: u64,
    pub mem_segments: u64,
    /// Largest max/mean block-cycle ratio over the sweep's launches.
    pub block_imbalance: f64,
}

/// Sharded-driver accounting of one solve.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GridStats {
    /// Simulated compute + all-reduce seconds per iteration.
    pub sweep_s: f64,
    pub allreduce_s: f64,
    pub rows_detected: u64,
    pub kernel_retries: u64,
    pub degraded_rows: u64,
    /// `|final fit − clean single-device final fit|` (first repetition).
    pub fit_gap: Option<f64>,
}

/// Traced-only measurements of one repetition.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layers {
    pub times: BTreeMap<&'static str, LayerTime>,
    /// Wall time of the traced repetition (set-up + solve).
    pub wall_s: f64,
    /// Wall time of each ALS iteration.
    pub iter_s: Vec<f64>,
    /// MTTKRP calls in the solve.
    pub replay_calls: u64,
}

/// One repetition's measurements.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rep {
    pub setup: Times,
    pub solve: Times,
    /// The host-speed probe's CPU seconds, averaged over its runs just
    /// before and just after this repetition.
    pub probe_s: f64,
    pub rss_setup_mb: Option<f64>,
    pub rss_solve_mb: Option<f64>,
    pub fits: Vec<f64>,
    pub nnz: u64,
    pub sim: Option<SimSweep>,
    pub grid: Option<GridStats>,
    pub layers: Option<Layers>,
}

/// Everything a workload's pipeline needs, fixed for the whole run.
pub(crate) struct Env {
    pub workload: &'static Workload,
    pub input: PathBuf,
    pub scratch: PathBuf,
    pub cpd: CpdOptions,
    pub fault_seed: u64,
}

/// splitmix64: decorrelates the seeds derived from the run's seed.
fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `v` (mean of the middle pair for an even count).
pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Wall seconds of one ALS update of every mode's factor at the run's
/// shapes: the dense calls the drivers make after each MTTKRP, re-run on
/// the final factors (their shapes equal the MTTKRP outputs'). Median of
/// three timings per mode.
pub(crate) fn dense_per_mode(factors: &[Matrix], rank: usize) -> Vec<f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); factors.len()];
    for _ in 0..3 {
        let mut grams: Vec<Matrix> = factors.iter().map(Matrix::gram).collect();
        let mut chain = HadamardChain::new(&grams, rank);
        for (mode, y) in factors.iter().enumerate() {
            let start = Instant::now();
            let v = chain.v(mode);
            let mut a = y.matmul(&pseudo_inverse(&v));
            std::hint::black_box(a.normalize_columns());
            grams[mode] = a.gram();
            chain.advance(&grams[mode]);
            samples[mode].push(start.elapsed().as_secs_f64());
        }
    }
    samples.into_iter().map(median).collect()
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub checks: Vec<Check>,
    /// Solves attempted.
    pub attempted: u64,
    /// Solves that returned an error.
    pub failed: u64,
    /// From the untraced repetitions.
    pub end_to_end: Vec<Metric>,
    /// From the traced repetitions; empty when the run was not traced.
    pub per_layer: Vec<Metric>,
    /// Per-repetition samples and, when traced, the layer table.
    pub details: Value,
}

impl Report {
    /// Whether every check passed and no solve failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.pass)
    }

    /// The metrics a run reports: per-layer when traced, else end-to-end.
    pub fn metrics(&self) -> &[Metric] {
        if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        }
    }

    /// The one-line summary the benchmark prints last.
    pub fn summary_json(&self) -> Value {
        let metrics: serde_json::Map = self
            .metrics()
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({ "value": m.value, "unit": m.unit }),
                )
            })
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
    }
}

fn one_rep(
    env: &Env,
    tracer: Option<&Tracer>,
    first: bool,
    checks: &mut Checks,
) -> Result<Rep, String> {
    match (env.workload.kind, tracer) {
        (Kind::Streamed { .. }, None) => streamed::untraced(env),
        (Kind::Streamed { .. }, Some(tr)) => streamed::traced(env, tr),
        (_, None) => resident::untraced(env, first, checks),
        (_, Some(tr)) => resident::traced(env, tr, checks),
    }
}

/// Runs one workload for the configured budget.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let w = workload(&cfg.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{}' (one of {})",
            cfg.workload,
            names.join(", ")
        )
    })?;
    let nnz = cfg.nnz.unwrap_or(w.nnz);
    let input = inputs::ensure(
        &cfg.out.join("inputs"),
        w.dataset,
        nnz,
        w.max_rows,
        cfg.seed,
    )?;
    let scratch = cfg.out.join("scratch");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let env = Env {
        workload: w,
        input,
        scratch,
        cpd: CpdOptions {
            rank: w.rank,
            max_iters: w.iters,
            tol: 0.0,
            seed: derive_seed(cfg.seed, 0xC9D),
        },
        fault_seed: derive_seed(cfg.seed, 0xFA17),
    };

    let mut checks = Checks::default();
    let tracer = cfg.trace.then(Tracer::default);
    let reps = repeat(&env, cfg, tracer.as_ref(), &mut checks);
    let report = report(w, cfg, nnz, reps, checks);
    if let (Some(tr), false) = (&tracer, report.per_layer.is_empty()) {
        let dir = cfg.out.join(w.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        tr.write_chrome(&dir.join("trace.json"))
            .map_err(|e| format!("trace.json: {e}"))?;
    }
    write_results(&cfg.out, &report)?;
    Ok(report)
}

/// The repetitions of one run, and the error that ended it early.
#[derive(Debug, Default)]
pub(crate) struct Reps {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    error: Option<String>,
}

/// Repeats the workload until the budget is spent, or until a repetition
/// returns an error. The host-speed probe runs before the first
/// repetition and after each one.
fn repeat(env: &Env, cfg: &Config, tracer: Option<&Tracer>, checks: &mut Checks) -> Reps {
    let mut reps = Reps::default();
    let min_reps = if cfg.trace {
        MIN_TRACED_PAIRS
    } else {
        MIN_REPS
    };
    let mut before = probe::run();
    let mut probed = |rep: Result<Rep, String>| {
        let mut rep = rep?;
        let after = probe::run();
        rep.probe_s = (before + after) / 2.0;
        before = after;
        Ok::<_, String>(rep)
    };
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while reps.plain.len() < min_reps || Instant::now() < deadline {
        let first = reps.plain.is_empty();
        let rep = probed(one_rep(env, None, first, checks)).and_then(|p| {
            reps.plain.push(p);
            match tracer {
                Some(tr) => {
                    probed(one_rep(env, Some(tr), false, checks)).map(|t| reps.traced.push(t))
                }
                None => Ok(()),
            }
        });
        if let Err(e) = rep {
            reps.error = Some(e);
            break;
        }
    }
    reps
}

/// Turns a run's repetitions into its report. A run that hit an error
/// reports the failure and no metrics.
fn report(
    w: &'static Workload,
    cfg: &Config,
    nnz: usize,
    reps: Reps,
    mut checks: Checks,
) -> Report {
    let Reps {
        plain,
        traced,
        error,
    } = reps;
    let attempted = (plain.len() + traced.len()) as u64 + u64::from(error.is_some());
    let failed = u64::from(error.is_some());
    if let Some(e) = error {
        checks.record("every_solve_completes", false, e.clone());
        return Report {
            workload: w.name,
            checks: checks.0,
            attempted,
            failed,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            details: json!({ "workload": w.name, "seed": cfg.seed, "error": e }),
        };
    }
    checks.record("every_solve_completes", true, format!("{attempted} solves"));

    check_fits(w, &plain, &traced, &mut checks);
    let (per_layer, layers) = if cfg.trace {
        let (metrics, layers) = per_layer(w, &plain, &traced, &mut checks);
        (metrics, Some(layers))
    } else {
        (Vec::new(), None)
    };

    let samples = |f: fn(&Rep) -> Times| -> Value {
        let times: Vec<Times> = plain.iter().map(f).collect();
        json!({
            "cpu_s": times.iter().map(|t| t.cpu_s).collect::<Vec<_>>(),
            "wall_s": times.iter().map(|t| t.wall_s).collect::<Vec<_>>(),
        })
    };
    let details = json!({
        "workload": w.name,
        "dataset": w.dataset,
        "nnz_generated": nnz,
        "max_rows": w.max_rows,
        "nnz": plain[0].nnz,
        "rank": w.rank,
        "iters": w.iters,
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "reps": plain.len(),
        "traced_reps": traced.len(),
        "final_fit": plain[0].fits.last(),
        "samples": json!({
            "setup": samples(|r| r.setup),
            "solve": samples(|r| r.solve),
            "probe_s": plain.iter().map(|r| r.probe_s).collect::<Vec<_>>(),
            "peak_rss_mb": plain.iter().map(peak_mb).collect::<Vec<_>>(),
        }),
        "layers": layers,
    });
    Report {
        workload: w.name,
        checks: checks.0,
        attempted,
        failed,
        end_to_end: end_to_end(&plain),
        per_layer,
        details,
    }
}

/// Fit trajectories: finite, full length, identical on every repetition
/// and — when traced — identical between the traced and untraced paths.
fn check_fits(w: &Workload, plain: &[Rep], traced: &[Rep], checks: &mut Checks) {
    let first = &plain[0].fits;
    checks.record(
        "fits_finite_full_length",
        first.len() == w.iters && first.iter().all(|f| f.is_finite()),
        format!("{} iterations, final fit {:?}", first.len(), first.last()),
    );
    let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    checks.record(
        "fits_repeat_bitwise",
        plain.iter().all(|r| bits(&r.fits) == bits(first)),
        format!("{} untraced repetitions", plain.len()),
    );
    if !traced.is_empty() {
        checks.record(
            "traced_fits_equal_untraced",
            traced.iter().all(|r| bits(&r.fits) == bits(first)),
            format!("{} traced repetitions", traced.len()),
        );
    }
}

/// Peak RSS of a repetition: the larger of its two phases' peaks.
fn peak_mb(r: &Rep) -> Option<f64> {
    Some(r.rss_setup_mb?.max(r.rss_solve_mb?))
}

/// The lowest repetition peak of the run. A peak can exceed what the work
/// needs and never falls below it: later repetitions start from a heap
/// that still holds earlier ones' freed memory (on `cpd-darpa-grid` the
/// peak creeps up 20% over a run), and the streamed workload's peak moves
/// by a few MB from one repetition to the next.
fn peak_rss_mb(plain: &[Rep]) -> Option<f64> {
    plain
        .iter()
        .map(peak_mb)
        .collect::<Option<Vec<f64>>>()
        .map(|v| v.into_iter().fold(f64::INFINITY, f64::min))
}

/// Median of one time over the repetitions.
fn median_s(reps: &[Rep], f: fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

fn total(r: &Rep) -> Times {
    r.setup + r.solve
}

/// A repetition's total CPU seconds at the reference host's speed.
fn total_ref_s(r: &Rep) -> f64 {
    probe::reference_seconds(total(r).cpu_s, r.probe_s)
}

fn end_to_end(plain: &[Rep]) -> Vec<Metric> {
    let setup_s = median_s(plain, |r| {
        probe::reference_seconds(r.setup.cpu_s, r.probe_s)
    });
    vec![
        metric("setup_s", Some(setup_s), "s"),
        metric("total_s", Some(median_s(plain, total_ref_s)), "s"),
        metric("peak_rss_mb", peak_rss_mb(plain), "MB"),
    ]
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-layer metric → the span names whose self time it sums. The
/// streamed workload's external re-sort counts as format build: it is the
/// out-of-core form of the sort `Hbcsf::build` does internally.
const LAYER_METRICS: &[(&str, &[&str])] = &[
    ("sptensor.parse_s", &["sptensor.ingest", "sptensor.spill"]),
    (
        "tensor-formats.build_s",
        &[
            "tensor-formats.build",
            "sptensor.resort",
            "tensor-formats.build_streamed",
            "tensor-formats.from_csf",
        ],
    ),
    (
        "mttkrp.capture_s",
        &["mttkrp.capture", "mttkrp.capture_sharded"],
    ),
    ("mttkrp.replay_s", REPLAY_SPANS),
    ("dense.update_s", &["dense.update"]),
    ("cpd.fit_other_s", &["cpd.solve"]),
];

const REPLAY_SPANS: &[&str] = &[
    "mttkrp.replay",
    "mttkrp.verified_replay",
    "mttkrp.shard_replay",
];

/// Layers only some workloads have, reported as a share of the traced
/// wall time (0 where the layer does not run).
const LAYER_SHARES: &[(&str, &str)] = &[
    ("gpu-sim.simulate_share", "gpu-sim.simulate"),
    ("mttkrp.warm_sweep_share", "mttkrp.warm_sweep"),
    ("mttkrp.grid_model_share", "mttkrp.grid_model"),
];

/// Name of the root span of every traced repetition.
pub(crate) const ROOT_SPAN: &str = "bench.rep";

fn per_layer(
    w: &Workload,
    plain: &[Rep],
    traced: &[Rep],
    checks: &mut Checks,
) -> (Vec<Metric>, Value) {
    let layers: Vec<&Layers> = traced.iter().filter_map(|r| r.layers.as_ref()).collect();
    let self_s = |l: &Layers, spans: &[&str]| -> f64 {
        spans
            .iter()
            .filter_map(|s| l.times.get(s))
            .fold(0.0, |acc, t| acc + t.self_s)
    };
    let med = |f: &dyn Fn(&Layers) -> f64| median(layers.iter().map(|l| f(l)).collect());
    let wall_s = med(&|l| l.wall_s);
    let coverage = med(&|l| 1.0 - self_s(l, &[ROOT_SPAN]) / l.wall_s);
    checks.record(
        "layers_cover_95pct",
        coverage >= 0.95,
        format!(
            "named layers cover {:.2}% of traced wall time",
            coverage * 100.0
        ),
    );

    let mut metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, spans)| metric(name, Some(med(&|l| self_s(l, spans))), "s"))
        .collect();
    metrics.extend(
        LAYER_SHARES.iter().map(|&(name, span)| {
            metric(name, Some(med(&|l| self_s(l, &[span]) / l.wall_s)), "ratio")
        }),
    );
    let replay_s = med(&|l| self_s(l, REPLAY_SPANS));
    let calls = layers[0].replay_calls as f64;
    let nnz = plain[0].nnz as f64;
    let sim = plain[0].sim.unwrap_or_default();
    let grid = plain[0].grid.unwrap_or_default();
    let sim_sweep_s = if plain[0].grid.is_some() {
        grid.sweep_s
    } else {
        sim.time_s
    };
    let iter_s = median(
        layers
            .iter()
            .flat_map(|l| l.iter_s.iter().copied())
            .collect(),
    );
    let some = |name, value, unit| metric(name, Some(value), unit);
    metrics.extend([
        some("cpd.iter_s", iter_s, "s"),
        some("mttkrp.replay_calls", calls, "count"),
        some("mttkrp.replay_nnz_per_s", nnz * calls / replay_s, "1/s"),
        some("gpu-sim.sweep_ms", sim_sweep_s * 1e3, "sim_ms"),
        some("gpu-sim.sm_efficiency", sim.sm_efficiency, "%"),
        some("gpu-sim.l2_hit_rate", sim.l2_hit_rate, "%"),
        some("gpu-sim.atomic_ops", sim.atomic_ops as f64, "count"),
        some("gpu-sim.mem_segments", sim.mem_segments as f64, "count"),
        some("gpu-sim.block_imbalance", sim.block_imbalance, "ratio"),
        some("mttkrp.allreduce_ms", grid.allreduce_s * 1e3, "sim_ms"),
        some("abft.rows_detected", grid.rows_detected as f64, "count"),
        some("abft.kernel_retries", grid.kernel_retries as f64, "count"),
        some("abft.degraded_rows", grid.degraded_rows as f64, "count"),
        some("cpd.fit_gap_vs_clean", grid.fit_gap.unwrap_or(0.0), "abs"),
        metric("rss.setup_mb", plain[0].rss_setup_mb, "MB"),
        metric("rss.solve_mb", plain[0].rss_solve_mb, "MB"),
        some("wall.total_s", median_s(plain, |r| total(r).wall_s), "s"),
        some("cpu.total_s", median_s(plain, |r| total(r).cpu_s), "s"),
        some("host.probe_s", median_s(plain, |r| r.probe_s), "s"),
        some(
            "trace_overhead",
            median_s(traced, total_ref_s) / median_s(plain, total_ref_s) - 1.0,
            "ratio",
        ),
        some("layer_coverage", coverage, "ratio"),
    ]);
    let times: Vec<BTreeMap<&'static str, LayerTime>> =
        layers.iter().map(|l| l.times.clone()).collect();
    (metrics, layers_json(w.name, &times, wall_s))
}

fn write_results(out: &Path, report: &Report) -> Result<(), String> {
    let dir = out.join(report.workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let checks: Vec<Value> = report
        .checks
        .iter()
        .map(|c| json!({ "name": c.name, "pass": c.pass, "detail": c.detail }))
        .collect();
    let mut doc = report.summary_json();
    doc["checks"] = Value::Array(checks);
    doc["details"] = report.details.clone();
    let write = |name: &str, v: &Value| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            serde_json::to_string_pretty(v).expect("JSON values serialize"),
        )
        .map_err(|e| format!("{}: {e}", path.display()))
    };
    write("results.json", &doc)?;
    if let Some(layers) = report.details.get("layers").filter(|l| !l.is_null()) {
        write("layers.json", layers)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_config(w: &Workload) -> Config {
        Config {
            workload: w.name.to_string(),
            seed: 1,
            seconds: 0.0,
            trace: true,
            out: PathBuf::new(),
            nnz: None,
        }
    }

    #[test]
    fn an_error_in_the_first_traced_repetition_is_reported() {
        let w = workload("cpd-darpa").expect("workload exists");
        let reps = Reps {
            plain: vec![Rep {
                fits: vec![0.5; w.iters],
                ..Rep::default()
            }],
            traced: Vec::new(),
            error: Some("warm sweep mode 0: launch failed".to_string()),
        };
        let r = report(w, &traced_config(w), w.nnz, reps, Checks::default());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(!r.correct());
        let c = r
            .checks
            .iter()
            .find(|c| c.name == "every_solve_completes")
            .expect("check recorded");
        assert!(!c.pass && c.detail.contains("launch failed"));
        let summary = r.summary_json();
        assert_eq!(summary["correct"], false);
        assert_eq!(summary["failed"], 1);
    }

    #[test]
    fn an_error_before_any_repetition_is_reported() {
        let w = workload("ingest-nell2").expect("workload exists");
        let reps = Reps {
            error: Some("spill: no space left".to_string()),
            ..Reps::default()
        };
        let r = report(w, &traced_config(w), w.nnz, reps, Checks::default());
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert!(r.metrics().is_empty() && !r.correct());
    }
}
