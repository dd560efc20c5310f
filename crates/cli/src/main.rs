//! `sptk` — sparse tensor toolkit.
//!
//! A downstream-user command line over the reproduction's library stack:
//!
//! ```text
//! sptk gen darpa darpa.spt --nnz 500000        # write a stand-in dataset
//! sptk info darpa.spt                          # stats per mode
//! sptk convert darpa.spt darpa.tns             # binary <-> FROSTT text
//! sptk mttkrp darpa.spt --kernel hbcsf         # one simulated-GPU MTTKRP
//! sptk mttkrp darpa.spt --kernel splatt        # one measured CPU MTTKRP
//! sptk cpd darpa.spt --rank 8 --iters 10       # CPD-ALS end to end
//! ```
//!
//! File format by extension: `.tns` = FROSTT text, anything else = the
//! crate's `SPT1` binary.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use experiments::calibrate::FleetConfig;
use gpu_sim::{DeviceMemory, FaultPlan, Interconnect};
use mttkrp::abft::AbftOptions;
use mttkrp::cpd::{
    self, CpdError, CpdOptions, DurableOptions, PlanSource, ResilienceOptions, RunSpec, UpdateRule,
};
use mttkrp::cpu::splatt::{SplattCsf, SplattOptions};
use mttkrp::gpu::{self, GpuContext, MemReport, MttkrpKernel, OocOptions};
use mttkrp::reference::random_factors;
use serve::{Service, ServiceConfig, Workload, WorkloadConfig};
use sptensor::stats::ModeStats;
use sptensor::{io as tio, mode_orientation, CooTensor};
use tensor_formats::{BcsfOptions, Csf, Csl, Fcoo, Hbcsf, Hicoo, IndexBytes};

/// Shadows `std::println!` in this file, so every line `sptk` prints
/// goes through [`write_stdout`].
macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout through [`Stdout`]. Any other write error panics,
/// as `std::println!` does.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = Stdout.write_fmt(args) {
        panic!("failed printing to stdout: {e}");
    }
}

/// Standard output as a writer, for `sptk`'s own lines and for library
/// code that prints (the calibration report). A reader that closed the
/// pipe early (`sptk info x.tns | head -1`) has all the output it wants,
/// so the process ends quietly with status 0 instead of panicking.
struct Stdout;

fn exit_on_broken_pipe<T>(res: std::io::Result<T>) -> std::io::Result<T> {
    match res {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        res => res,
    }
}

impl std::io::Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        exit_on_broken_pipe(std::io::stdout().write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        exit_on_broken_pipe(std::io::stdout().flush())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("mttkrp") => cmd_mttkrp(&args[1..]),
        Some("cpd") => cmd_cpd(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("trace-replay") => cmd_trace_replay(&args[1..]),
        Some("serve-sim") => cmd_serve_sim(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        _ => {
            usage();
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("sptk — sparse tensor toolkit");
    eprintln!("usage:");
    eprintln!("  sptk gen <dataset> <out> [--nnz N] [--seed S] [--stream]");
    eprintln!("      --stream generates chunk by chunk straight to a .tns file (bounded");
    eprintln!("      memory, any size); re-ingesting with the sum policy reproduces the");
    eprintln!("      non-streamed tensor exactly");
    eprintln!("  sptk ingest <file> [--rank R] [--iters K] [--devices N] [--chunk-nnz N]");
    eprintln!("      [--host-budget B] [--policy sum|keep|reject] [--scratch DIR]");
    eprintln!("      [--profile DIR]");
    eprintln!("      bounded-memory end-to-end CPD: chunked parse + external-sort spill,");
    eprintln!("      out-of-core HB-CSF construction, shard-by-shard plan capture to disk");
    eprintln!("      (--devices shards per mode), streaming ALS; --host-budget B (bytes,");
    eprintln!("      k/m/g suffix) derates chunk sizes and fails the run if the host peak");
    eprintln!("      RSS ends above B");
    eprintln!("  sptk info <file> ");
    eprintln!("  sptk convert <in> <out>");
    eprintln!("  sptk mttkrp <file> [--mode N] [--rank R] [--kernel K] [--device p100|v100]");
    eprintln!("      [--profile DIR] [--devices N] [--interconnect SPEC]");
    eprintln!("      kernels: hbcsf bcsf csf csl coo fcoo splatt splatt-tiled hicoo");
    eprintln!(
        "  sptk cpd <file> [--rank R] [--iters K] [--nonneg] [--profile DIR] [--expect-fit F]"
    );
    eprintln!("      [--devices N] [--interconnect SPEC]");
    eprintln!("      [--checkpoint-dir DIR [--resume] [--halt-on-crash]]");
    eprintln!("      --checkpoint-dir writes a versioned, checksummed checkpoint per iteration");
    eprintln!("      (temp + rename); --resume warm-restarts from the last valid one, scanning");
    eprintln!("      past torn files; --halt-on-crash makes an injected crash:RATE fault kill");
    eprintln!("      the run (exit 1) so a shell loop with --resume models process restarts");
    eprintln!("  sptk calibrate [--datasets a,b] [--nnz N] [--rank R] [--seed S] [--out PATH]");
    eprintln!("      runs all six formats over the stand-in fleet, checks the paper's metric");
    eprintln!("      orderings (Table II / Figs. 5-8), and writes BENCH_fleet.json");
    eprintln!("  sptk trace-replay <trace.jsonl>");
    eprintln!("      replays a --mem-trace file through a cold cache and re-derives L2 rates");
    eprintln!(
        "  sptk serve-sim [--tenants N] [--jobs N] [--seed S] [--devices N] [--queue-depth N]"
    );
    eprintln!("      [--nnz N] [--rank R] [--arrival-us U] [--deadline-us U] [--timeout-us U]");
    eprintln!("      [--cpd-frac PCT] [--backoff-us U] [--interconnect SPEC] [--faults SPEC]");
    eprintln!("      [--mem-capacity B] [--out PATH] [--events PATH] [--profile DIR] [--verify]");
    eprintln!("      [--expect-shed N] [--expect-device-loss N] [--checkpoint-dir DIR]");
    eprintln!("      runs a deterministic multi-tenant CPD/MTTKRP service simulation: seeded");
    eprintln!("      synthetic workload, shared plan cache, admission control with a bounded");
    eprintln!("      queue, per-job deadlines with a degrading retry ladder, and device-loss");
    eprintln!("      recovery; prints per-tenant latency percentiles and writes a");
    eprintln!("      byte-reproducible JSON report with --out");
    eprintln!("  sptk chaos [--seed S] [--schedules N] [--jobs N] [--devices N] [--dir DIR]");
    eprintln!("      [--out PATH]");
    eprintln!("      runs the seeded composed-fault chaos harness: every schedule mixes >=3");
    eprintln!("      fault kinds (always one interconnect fault and one mid-write crash rate),");
    eprintln!("      drives a full service workload twice per schedule, runs a crash-restart");
    eprintln!("      cycle against durable checkpoints, and exits nonzero on any invariant");
    eprintln!("      violation (untyped terminal state, failed standalone verification,");
    eprintln!("      unbalanced memory ledger, nondeterministic same-seed passes) or on a");
    eprintln!("      coverage gap (a fault class that never fired)");
    eprintln!("  --profile DIR writes trace.json (Perfetto), nvprof_table.txt, counters.json,");
    eprintln!("      histograms.txt, and (for cpd) manifest.json into DIR; simulated-GPU");
    eprintln!("      kernels only");
    eprintln!("  --events PATH streams versioned JSONL telemetry events (kernel launches and");
    eprintln!("      replays, ladder steps, shard compute, faults, iterations) to PATH");
    eprintln!("  --mem-trace PATH (mttkrp) records the per-warp L2 address stream to PATH as");
    eprintln!("      JSONL; --trace-sample N keeps every N-th access (default 1 = replayable");
    eprintln!("      exactly via sptk trace-replay)");
    eprintln!("  --faults SPEC [--fault-seed S] injects deterministic faults into simulated-GPU");
    eprintln!("      kernels with ABFT detection and recovery; SPEC is comma-separated kind:rate");
    eprintln!("      terms, e.g. bitflip:1e-3,abort:1e-4,straggler:0.05,slowdown:2.5 (or 'none')");
    eprintln!("  --mem-capacity B caps simulated device memory: bytes with an optional k/m/g");
    eprintln!("      suffix (e.g. 64m), or a footprint fraction like 0.7x; launches that do not");
    eprintln!("      fit degrade to out-of-core tiled replay, then to the CPU reference");
    eprintln!("  --mem-faults SPEC injects allocator faults (oom:RATE, frag:FRAC); shares");
    eprintln!("      --fault-seed with --faults and may be combined with it");
    eprintln!("  --expect-tiled (cpd) fails unless at least one launch took the tiled path");
    eprintln!("  --devices N shards simulated-GPU launches across N modeled devices (weight-");
    eprintln!("      balanced block ranges, per-device memory, modeled ring all-reduce);");
    eprintln!("      bit-identical to a single device for any N");
    eprintln!("  --interconnect SPEC prices the all-reduce: nvlink, pcie, or name:bwGBs:latus");
    eprintln!("      (e.g. nvlink:25:1.5); default nvlink");
    eprintln!(
        "datasets: {}",
        sptensor::synth::standins()
            .iter()
            .map(|s| s.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
}

type Result<T> = std::result::Result<T, String>;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} wants a number, got '{v}'")),
    }
}

/// Parses `--faults SPEC [--mem-faults SPEC] [--fault-seed S]` into one
/// active plan (or `None` when both flags are absent or spell `none`).
/// Execution faults (bitflip/abort/straggler) and allocator faults
/// (oom/frag) share the grammar and the seed; keeping them as separate
/// flags only documents intent.
fn parse_faults(args: &[String]) -> Result<Option<FaultPlan>> {
    let spec = match (flag(args, "--faults"), flag(args, "--mem-faults")) {
        (None, None) => return Ok(None),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (Some(a), Some(b)) => format!("{a},{b}"),
    };
    let seed = flag_parse(args, "--fault-seed", 0xFA17u64)?;
    let plan = FaultPlan::parse(&spec, seed).map_err(|e| format!("--faults: {e}"))?;
    Ok(plan.is_active().then_some(plan))
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (`123456`,
/// `512m`, `2g`).
fn parse_byte_size(raw: &str, flag_name: &str) -> Result<u64> {
    let s = raw.trim().to_ascii_lowercase();
    let bad = || format!("{flag_name} wants bytes (with k/m/g), got '{raw}'");
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'g') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s.as_str(), 1),
    };
    let n: f64 = digits.parse().map_err(|_| bad())?;
    if !(n.is_finite() && n > 0.0) {
        return Err(bad());
    }
    Ok((n * mult as f64) as u64)
}

/// A `--mem-capacity` value, before the footprint it may be relative to
/// is known.
enum MemCapacity {
    /// Absolute bytes (`123456`, `64m`, `2g`).
    Bytes(u64),
    /// A multiple of the run's worst per-launch footprint (`0.7x`).
    FootprintFraction(f64),
}

fn parse_mem_capacity(args: &[String]) -> Result<Option<MemCapacity>> {
    let Some(raw) = flag(args, "--mem-capacity") else {
        return Ok(None);
    };
    let s = raw.trim().to_ascii_lowercase();
    let bad =
        || format!("--mem-capacity wants bytes (with k/m/g) or a fraction like 0.7x, got '{raw}'");
    if let Some(frac) = s.strip_suffix('x') {
        let f: f64 = frac.parse().map_err(|_| bad())?;
        if !(f.is_finite() && f > 0.0) {
            return Err(bad());
        }
        return Ok(Some(MemCapacity::FootprintFraction(f)));
    }
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'g') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s.as_str(), 1),
    };
    let n: f64 = digits.parse().map_err(|_| bad())?;
    if !(n.is_finite() && n > 0.0) {
        return Err(bad());
    }
    Ok(Some(MemCapacity::Bytes((n * mult as f64) as u64)))
}

/// Parses `--devices N [--interconnect SPEC]` into a grid request:
/// `None` when `--devices` is absent (single-device paths), otherwise the
/// device count plus the priced interconnect (default nvlink).
fn parse_grid(args: &[String]) -> Result<(Option<usize>, Interconnect)> {
    let devices = match flag(args, "--devices") {
        None => None,
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("--devices wants a count, got '{v}'"))?;
            if n == 0 {
                return Err("--devices wants at least 1".into());
            }
            Some(n)
        }
    };
    let interconnect =
        Interconnect::parse(&flag(args, "--interconnect").unwrap_or_else(|| "nvlink".into()))
            .map_err(|e| format!("--interconnect: {e}"))?;
    Ok((devices, interconnect))
}

impl MemCapacity {
    /// Resolves to bytes against the worst single-launch footprint.
    fn resolve(&self, worst_footprint: u64) -> u64 {
        match *self {
            MemCapacity::Bytes(b) => b,
            MemCapacity::FootprintFraction(f) => (worst_footprint as f64 * f).ceil() as u64,
        }
    }
}

/// One human line per degradation-ladder rung of an adaptive launch.
fn print_ladder(mem: &MemReport) {
    println!(
        "memory[{} mode {}]: footprint {} B, capacity {}, high water {} B, {} oom events",
        mem.kernel,
        mem.mode + 1,
        mem.footprint_bytes,
        if mem.capacity_bytes == u64::MAX {
            "unlimited".to_string()
        } else {
            format!("{} B", mem.capacity_bytes)
        },
        mem.high_water_bytes,
        mem.oom_events,
    );
    for step in &mem.ladder {
        println!(
            "  rung {:<11} budget {:>12} B, {:>4} tiles -> {}",
            step.rung, step.budget_bytes, step.tiles, step.outcome
        );
    }
}

fn load(path: &str) -> Result<CooTensor> {
    load_with(path, &sptensor::IngestOptions::new())
}

/// Loads through the typed `TensorSource` ingestion API. `.tns` honors the
/// configured duplicate policy (default: reject); binary files keep entries
/// verbatim, matching the legacy reader's semantics.
fn load_with(path: &str, opts: &sptensor::IngestOptions) -> Result<CooTensor> {
    let t = if path.ends_with(".tns") {
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        sptensor::ingest(
            sptensor::TnsSource::new(BufReader::with_capacity(1 << 20, f)),
            opts,
        )
        .map_err(|e| format!("{path}: {e}"))?
    } else {
        let src = sptensor::BinSource::open(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        let opts = opts.clone().with_policy(sptensor::DuplicatePolicy::Keep);
        sptensor::ingest(src, &opts).map_err(|e| format!("{path}: {e}"))?
    };
    Ok(t)
}

fn save(t: &CooTensor, path: &str) -> Result<()> {
    let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let w = BufWriter::new(f);
    if path.ends_with(".tns") {
        tio::write_tns(t, w).map_err(|e| format!("{path}: {e}"))
    } else {
        tio::write_bin(t, w).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_gen(args: &[String]) -> Result<()> {
    let name = args.first().ok_or("gen: missing dataset name")?;
    let out = args.get(1).ok_or("gen: missing output path")?;
    let nnz = flag_parse(args, "--nnz", 200_000usize)?;
    let seed = flag_parse(args, "--seed", sptensor::synth::SynthConfig::default().seed)?;
    let stream = args.iter().any(|a| a == "--stream");
    let spec = sptensor::synth::standin(name).ok_or_else(|| format!("unknown dataset '{name}'"))?;
    let cfg = sptensor::synth::SynthConfig::default()
        .with_nnz(nnz)
        .with_seed(seed);
    if stream {
        // Bounded-memory path: raw entries chunk by chunk straight to
        // `.tns`, duplicates included — Sum-policy re-ingestion folds them
        // into exactly the tensor the in-core generator produces.
        if !out.ends_with(".tns") {
            return Err("gen --stream writes .tns text (the binary header needs \
                 the folded nonzero count upfront); use a .tns output path"
                .into());
        }
        use sptensor::TensorSource;
        let mut source = spec.source(&cfg);
        let f = File::create(out.as_str()).map_err(|e| format!("{out}: {e}"))?;
        let mut w = BufWriter::with_capacity(1 << 20, f);
        let mut chunk = sptensor::CooChunk::default();
        let mut written = 0usize;
        loop {
            let n = source
                .fill_chunk(1 << 20, &mut chunk)
                .map_err(|e| format!("{out}: {e}"))?;
            if n == 0 {
                break;
            }
            written += n;
            tio::write_tns_chunk(&chunk, n, &mut w).map_err(|e| format!("{out}: {e}"))?;
        }
        use std::io::Write;
        w.flush().map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}: {written} raw entries (streamed)");
        return Ok(());
    }
    let t = spec.generate(&cfg);
    save(&t, out)?;
    println!("wrote {out}: {:?}, {} nonzeros", t.dims(), t.nnz());
    Ok(())
}

/// `sptk ingest <file>` — bounded-memory end-to-end CPD: the tensor goes
/// from bytes on disk to a finished decomposition without ever being
/// resident. Chunked parse feeds an external-sort spill; per-mode HB-CSF
/// formats are built out-of-core from the sorted stream; launch plans are
/// captured shard by shard to disk; every ALS MTTKRP replays the shards
/// sequentially. `--host-budget` both derates the chunk sizes and gates
/// the run on the measured host peak RSS (`VmHWM`).
fn cmd_ingest(args: &[String]) -> Result<()> {
    let path = args.first().ok_or("ingest: missing file")?;
    let rank = flag_parse(args, "--rank", 8usize)?;
    let iters = flag_parse(args, "--iters", 15usize)?;
    let devices = flag_parse(args, "--devices", 4usize)?;
    if devices == 0 {
        return Err("--devices wants at least 1".into());
    }
    let host_budget = match flag(args, "--host-budget") {
        None => None,
        Some(v) => Some(parse_byte_size(&v, "--host-budget")?),
    };
    let policy = match flag(args, "--policy").as_deref() {
        None | Some("sum") => sptensor::DuplicatePolicy::Sum,
        Some("keep") => sptensor::DuplicatePolicy::Keep,
        Some("reject") => sptensor::DuplicatePolicy::Reject,
        Some(other) => return Err(format!("--policy wants sum|keep|reject, got '{other}'")),
    };
    let profile_dir = flag(args, "--profile").map(PathBuf::from);
    let (scratch, own_scratch) = match flag(args, "--scratch") {
        Some(dir) => (PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!("sptk_ingest_{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    // A scratch directory this run made is removed however it ends.
    let _owned = own_scratch.then(|| RemoveOnDrop(scratch.clone()));

    let mut iopts = sptensor::IngestOptions::new().with_policy(policy);
    if let Some(v) = flag(args, "--chunk-nnz") {
        iopts = iopts.with_chunk_nnz(
            v.parse()
                .map_err(|_| format!("--chunk-nnz wants a count, got '{v}'"))?,
        );
    }
    if let Some(b) = host_budget {
        iopts = iopts.with_host_budget(b);
    }

    let ingest_start = Instant::now();
    let spill = if path.ends_with(".tns") {
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        sptensor::SpilledTensor::ingest(
            sptensor::TnsSource::new(BufReader::with_capacity(1 << 20, f)),
            &iopts,
            &scratch,
        )
    } else {
        let src = sptensor::BinSource::open(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        sptensor::SpilledTensor::ingest(src, &iopts, &scratch)
    }
    .map_err(|e| format!("{path}: {e}"))?;
    let ingest_s = ingest_start.elapsed().as_secs_f64();
    let order = spill.dims().len();
    println!(
        "{path}: order {order}, dims {:?}, {} nonzeros after {:?} policy \
         ({ingest_s:.2}s chunked parse + spill)",
        spill.dims(),
        spill.nnz(),
        policy,
    );

    let ctx = GpuContext::default();
    let opts = CpdOptions {
        rank,
        max_iters: iters,
        tol: 1e-6, // same convergence rule as `sptk cpd`
        seed: 42,
    };
    let sopts = gpu::StreamOptions {
        cpd: opts,
        devices,
        chunk_nnz: iopts.effective_chunk_nnz(order),
        bcsf: BcsfOptions::default(),
    };
    let cpd_start = Instant::now();
    let res = gpu::cpd_als_streamed(&ctx, &spill, &sopts, &scratch)
        .map_err(|e| format!("streamed cpd: {e}"))?;
    let cpd_s = cpd_start.elapsed().as_secs_f64();

    println!(
        "streamed CPD rank {rank}: fit {:.4} after {} iterations \
         ({cpd_s:.2}s capture + ALS, {} shards/mode)",
        res.result.fits.last().copied().unwrap_or(0.0),
        res.result.iterations,
        res.shards_per_mode
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("/"),
    );
    for (i, fit) in res.result.fits.iter().enumerate() {
        println!("  iter {:>2}: fit {fit:.5}", i + 1);
    }
    println!("plan store on disk: {} bytes", res.store_bytes);
    println!(
        "spill runs on disk: {} bytes (largest re-sort {} bytes)",
        spill.bytes_on_disk(),
        res.resort_bytes
    );

    if let Some(dir) = &profile_dir {
        let mut manifest =
            simprof::RunManifest::new("hbcsf-streamed", path, rank, iters, opts.tol, opts.seed);
        manifest.push_phase("chunked parse + spill", ingest_s);
        manifest.push_phase("sharded capture + streaming ALS", cpd_s);
        for &fit in &res.result.fits {
            manifest.push_iteration(fit, Vec::new(), 0.0);
        }
        manifest.total_seconds = ingest_s + cpd_s;
        manifest.record_host_peak_rss();
        let out = dir.join("manifest.json");
        manifest
            .write_to(&out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }

    drop(spill);

    let peak = simprof::peak_rss_bytes().unwrap_or(0);
    println!(
        "host peak rss: {peak} bytes ({:.1} MB)",
        peak as f64 / (1u64 << 20) as f64
    );
    println!(
        "final_fit_exact {:.15e}",
        res.result.fits.last().copied().unwrap_or(0.0)
    );
    if let Some(budget) = host_budget {
        if peak > budget {
            return Err(format!(
                "host peak RSS {peak} bytes exceeds --host-budget {budget} bytes"
            ));
        }
        println!("host budget check: {peak} <= {budget} ok");
    }
    Ok(())
}

/// A directory removed, with everything in it, when this value drops.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cmd_info(args: &[String]) -> Result<()> {
    let path = args.first().ok_or("info: missing file")?;
    let t = load(path)?;
    println!(
        "{path}: order {}, dims {:?}, {} nonzeros, density {:.3e}",
        t.order(),
        t.dims(),
        t.nnz(),
        t.density()
    );
    println!(
        "{:>5} {:>10} {:>10} {:>12} {:>12} {:>9} {:>9}",
        "mode", "slices", "fibers", "stdev/slc", "stdev/fbr", "1nnz slc%", "1nnz fbr%"
    );
    for mode in 0..t.order() {
        let s = ModeStats::compute(&t, mode);
        println!(
            "{:>5} {:>10} {:>10} {:>12.2} {:>12.2} {:>9.1} {:>9.1}",
            mode + 1,
            s.num_slices,
            s.num_fibers,
            s.nnz_per_slice.stdev,
            s.nnz_per_fiber.stdev,
            100.0 * s.singleton_slice_fraction,
            100.0 * s.singleton_fiber_fraction
        );
    }
    // Storage footprint per format, mode-1 orientation.
    let perm = mode_orientation(t.order(), 0);
    println!("\nindex storage (mode-1 orientation):");
    let rows: Vec<(&str, u64)> = vec![
        ("COO", t.index_bytes()),
        ("CSF", Csf::build(&t, &perm).index_bytes()),
        ("CSL", Csl::build(&t, &perm).index_bytes()),
        ("F-COO", Fcoo::build(&t, &perm, 8).index_bytes()),
        (
            "HiCOO",
            Hicoo::build(&t, Hicoo::DEFAULT_BLOCK_BITS).index_bytes(),
        ),
        (
            "HB-CSF",
            Hbcsf::build(&t, &perm, BcsfOptions::unsplit()).index_bytes(),
        ),
    ];
    for (fmt, bytes) in rows {
        println!(
            "  {fmt:<7} {bytes:>12} bytes ({:.2}/nnz)",
            bytes as f64 / t.nnz().max(1) as f64
        );
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<()> {
    let input = args.first().ok_or("convert: missing input")?;
    let output = args.get(1).ok_or("convert: missing output")?;
    let t = load(input)?;
    save(&t, output)?;
    println!("{input} -> {output} ({} nonzeros)", t.nnz());
    Ok(())
}

fn cmd_mttkrp(args: &[String]) -> Result<()> {
    let path = args.first().ok_or("mttkrp: missing file")?;
    let t = load(path)?;
    let mode = flag_parse(args, "--mode", 1usize)? - 1; // 1-based like the paper
    if mode >= t.order() {
        return Err(format!(
            "--mode out of range (tensor has {} modes)",
            t.order()
        ));
    }
    let rank = flag_parse(args, "--rank", 32usize)?;
    let kernel = flag(args, "--kernel").unwrap_or_else(|| "hbcsf".into());
    let device = flag(args, "--device").unwrap_or_else(|| "p100".into());
    let profile_dir = flag(args, "--profile").map(PathBuf::from);
    let events_path = flag(args, "--events").map(PathBuf::from);
    let memtrace_path = flag(args, "--mem-trace").map(PathBuf::from);
    let trace_sample = flag_parse(args, "--trace-sample", 1u64)?;
    if trace_sample == 0 {
        return Err("--trace-sample wants at least 1".into());
    }
    let mut ctx = GpuContext {
        device: match device.as_str() {
            "p100" => gpu_sim::DeviceProfile::p100(),
            "v100" => gpu_sim::DeviceProfile::v100(),
            other => return Err(format!("unknown device '{other}'")),
        },
        ..GpuContext::default()
    };
    if profile_dir.is_some() {
        ctx = ctx.with_profiling();
    }
    if let Some(path) = &events_path {
        let tel =
            simprof::Telemetry::to_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ctx = ctx.with_events(Arc::new(tel));
    }
    let memtrace = memtrace_path
        .as_ref()
        .map(|_| Arc::new(gpu_sim::MemTraceRecorder::new(trace_sample)));
    if let Some(rec) = &memtrace {
        ctx = ctx.with_memtrace(Arc::clone(rec));
    }
    let faults = parse_faults(args)?;
    if let Some(plan) = &faults {
        ctx = ctx.with_faults(plan.clone());
    }
    let mem_capacity = parse_mem_capacity(args)?;
    let (devices, interconnect) = parse_grid(args)?;
    let adaptive = mem_capacity.is_some() || faults.as_ref().is_some_and(|p| p.has_mem_faults());
    let factors = random_factors(&t, rank, 42);
    let flops = t.order() as f64 * t.nnz() as f64 * rank as f64;

    if matches!(kernel.as_str(), "coo" | "fcoo") && t.order() != 3 {
        return Err(format!(
            "kernel '{kernel}' supports third-order tensors only (this one is order {})",
            t.order()
        ));
    }

    let is_cpu_kernel = matches!(kernel.as_str(), "splatt" | "splatt-tiled" | "hicoo");
    if profile_dir.is_some() && is_cpu_kernel {
        return Err(format!(
            "--profile supports the simulated GPU kernels only ('{kernel}' is a CPU kernel)"
        ));
    }
    if faults.is_some() && is_cpu_kernel {
        return Err(format!(
            "--faults supports the simulated GPU kernels only ('{kernel}' is a CPU kernel)"
        ));
    }
    if (events_path.is_some() || memtrace_path.is_some()) && is_cpu_kernel {
        return Err(format!(
            "--events/--mem-trace record the simulated GPU pipeline only \
             ('{kernel}' is a CPU kernel)"
        ));
    }
    if adaptive && is_cpu_kernel {
        return Err(format!(
            "--mem-capacity/--mem-faults model device memory; '{kernel}' is a CPU kernel"
        ));
    }
    if devices.is_some() && is_cpu_kernel {
        return Err(format!(
            "--devices shards the simulated GPU kernels; '{kernel}' is a CPU kernel"
        ));
    }

    let checksum = |y: &dense::Matrix| y.fro_norm();
    match kernel.as_str() {
        "splatt" | "splatt-tiled" => {
            let opts = if kernel == "splatt" {
                SplattOptions::nontiled()
            } else {
                SplattOptions::tiled()
            };
            let s = SplattCsf::build(&t, mode, opts);
            let start = Instant::now();
            let y = s.mttkrp(&factors);
            let secs = start.elapsed().as_secs_f64();
            println!(
                "{kernel} (CPU): {:.3} ms wall, {:.2} GFLOPs, ||Y|| = {:.6e}",
                secs * 1e3,
                flops / secs / 1e9,
                checksum(&y)
            );
        }
        "hicoo" => {
            let h = Hicoo::build(&t, Hicoo::DEFAULT_BLOCK_BITS);
            let start = Instant::now();
            let y = mttkrp::cpu::hicoo::mttkrp(&h, &factors, mode);
            let secs = start.elapsed().as_secs_f64();
            println!(
                "hicoo (CPU): {:.3} ms wall, {:.2} GFLOPs, ||Y|| = {:.6e}",
                secs * 1e3,
                flops / secs / 1e9,
                checksum(&y)
            );
        }
        gpu_kernel => {
            // One typed entry for all six simulated kernels: parse the
            // kind, build the format, capture the plan, and let the
            // Executor dispatch the configured ladder.
            let kind: gpu::KernelKind = gpu_kernel.parse().map_err(|e| format!("{e}"))?;
            let format = gpu::AnyFormat::build(kind, &t, mode, &gpu::BuildOptions::default())
                .map_err(|e| e.to_string())?;
            let plan = format.capture(&ctx, rank);
            if adaptive && profile_dir.is_some() {
                return Err(
                    "--profile does not combine with --mem-capacity/--mem-faults: \
                     tiled sub-launch timelines do not concatenate into one trace"
                        .into(),
                );
            }
            if devices.is_some() && profile_dir.is_some() {
                return Err("--profile does not combine with --devices: per-device \
                     timelines do not concatenate into one trace"
                    .into());
            }
            // `0.7x`-style capacities resolve against the captured
            // footprint; with a grid the cap applies per device.
            let grid = devices.map(|n| {
                let mut g = gpu::GridSpec::new(n, interconnect.clone());
                if let Some(spec) = &mem_capacity {
                    g = g.with_capacity(spec.resolve(plan.footprint().total_bytes()));
                }
                g
            });
            if grid.is_none() {
                if let Some(spec) = &mem_capacity {
                    let cap = spec.resolve(plan.footprint().total_bytes());
                    ctx = ctx.with_memory(Arc::new(DeviceMemory::with_capacity(cap)));
                }
            }
            let mut exec = gpu::Executor::new(ctx.clone());
            if faults.is_some() {
                exec = exec.with_abft(AbftOptions::default());
            }
            let sharded = grid.is_some();
            if let Some(g) = grid {
                exec = exec.with_grid(g);
            }
            // Attach the tensor whenever a CPU rung is reachable (limited
            // memory, faults, sharding); the plain in-core replay skips it
            // and keeps its profile.
            let largs = if adaptive || faults.is_some() || sharded {
                gpu::LaunchArgs::new(&factors).with_tensor(&t)
            } else {
                gpu::LaunchArgs::new(&factors)
            };
            let execution = exec.execute(&plan, &largs).map_err(|e| e.to_string())?;
            let run = &execution.run;
            if let Some(report) = &execution.abft {
                println!(
                    "faults: {} injected ({} flips landed), {} rows corrupted, {} detected; \
                     {} retries, {} rows recovered, {} degraded to CPU",
                    report.faults_injected,
                    report.flips_applied,
                    report.corrupted_rows.len(),
                    report.detected_rows.len(),
                    report.retries,
                    report.recovered_rows,
                    report.degraded_rows
                );
            }
            if adaptive {
                for mem in &execution.mem {
                    print_ladder(mem);
                }
            }
            if let Some(g) = &execution.grid {
                println!(
                    "grid: {} devices over {}, compute {:.3} ms + allreduce {:.3} ms \
                     ({} B on the wire){}",
                    g.devices,
                    g.interconnect,
                    g.compute_seconds * 1e3,
                    g.allreduce_seconds * 1e3,
                    g.allreduce_bytes,
                    if g.cpu_fallback { ", cpu fallback" } else { "" }
                );
                for s in &g.shards {
                    println!(
                        "  device {}: blocks [{}, {}), weight {}, {}, {} oom events, \
                         high water {} B",
                        s.device,
                        s.block_begin,
                        s.block_end,
                        s.weight,
                        if s.in_core {
                            "in-core".to_string()
                        } else {
                            format!("{} tiles", s.tiles_run)
                        },
                        s.oom_events,
                        s.high_water_bytes
                    );
                }
            }
            let variant = match (&execution.grid, adaptive) {
                (Some(g), _) => format!(" x{} sharded", g.devices),
                (None, true) => ", adaptive".to_string(),
                _ => String::new(),
            };
            // The returned run is the first attempt's; ABFT retries only
            // follow a GPU rung, and a grid's attempts share one model.
            let cpu_rung = execution.mem.first().is_some_and(|m| m.cpu_fallback)
                || execution.grid.as_ref().is_some_and(|g| g.cpu_fallback);
            if cpu_rung {
                // No simulated launch ran, so there are no rates to print.
                println!(
                    "{gpu_kernel} (simulated {}{variant}): every GPU rung refused, \
                     the CPU reference ran, ||Y|| = {:.6e}",
                    ctx.device.name,
                    checksum(&run.y)
                );
            } else {
                println!(
                    "{gpu_kernel} (simulated {}{variant}): {:.3} ms, {:.2} GFLOPs, \
                     sm_eff {:.1}%, occ {:.1}%, L2 {:.1}%, {} atomics, ||Y|| = {:.6e}",
                    ctx.device.name,
                    run.sim.time_s * 1e3,
                    flops / run.sim.time_s.max(1e-30) / 1e9,
                    run.sim.sm_efficiency,
                    run.sim.achieved_occupancy,
                    run.sim.l2_hit_rate,
                    run.sim.atomic_ops,
                    checksum(&run.y)
                );
            }
            if let Some(dir) = &profile_dir {
                let profile = run
                    .profile
                    .as_ref()
                    .ok_or("profiling context dropped the per-block profile")?;
                write_kernel_profile(dir, &ctx, &run.sim, profile)?;
                println!(
                    "profile: {} (trace.json, nvprof_table.txt, counters.json, histograms.txt)",
                    dir.display()
                );
            }
            if let Some(path) = &events_path {
                ctx.telemetry.flush();
                println!("events: {}", path.display());
            }
            if let (Some(rec), Some(path)) = (&memtrace, &memtrace_path) {
                rec.write_jsonl(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!(
                    "mem trace: {} ({} launches, every {} accesses)",
                    path.display(),
                    rec.len(),
                    rec.sample_every()
                );
            }
        }
    }
    Ok(())
}

/// Writes one simulated kernel's observability artifacts into `dir`:
/// a Perfetto-openable Chrome trace, the nvprof-style metric table, and
/// the registry counters (with per-output-row atomic charges).
fn write_kernel_profile(
    dir: &Path,
    ctx: &GpuContext,
    sim: &gpu_sim::SimResult,
    profile: &gpu_sim::SimProfile,
) -> Result<()> {
    let io_err = |e: std::io::Error| format!("{}: {e}", dir.display());
    gpu_sim::chrome_trace(sim, profile)
        .write_to(&dir.join("trace.json"))
        .map_err(io_err)?;
    let table = simprof::nvprof_table("nvprof metrics (simulated)", &[sim.metric_row()]);
    std::fs::create_dir_all(dir).map_err(io_err)?;
    std::fs::write(dir.join("nvprof_table.txt"), table).map_err(io_err)?;
    let mut snapshot = ctx.registry.snapshot_json();
    snapshot["atomic_rows"] = serde_json::to_value(&profile.atomic_rows);
    std::fs::write(
        dir.join("counters.json"),
        serde_json::to_string_pretty(&snapshot).map_err(|e| format!("counters.json: {e}"))?,
    )
    .map_err(io_err)?;
    let hists = ctx.registry.histograms();
    std::fs::write(
        dir.join("histograms.txt"),
        simprof::histogram_table("distribution metrics (simulated)", &hists),
    )
    .map_err(io_err)?;
    Ok(())
}

/// `sptk calibrate` — the paper-calibration fleet
/// ([`experiments::calibrate`]): all six simulated formats over the
/// stand-in fleet, checked against the encoded Table II / Figs. 5-8
/// orderings.
fn cmd_calibrate(args: &[String]) -> Result<()> {
    let defaults = FleetConfig::default();
    let cfg = FleetConfig {
        datasets: match flag(args, "--datasets") {
            Some(csv) => csv.split(',').map(str::to_string).collect(),
            None => defaults.datasets,
        },
        nnz: flag_parse(args, "--nnz", defaults.nnz)?,
        rank: flag_parse(args, "--rank", defaults.rank)?,
        seed: flag_parse(args, "--seed", defaults.seed)?,
    };
    let out = flag(args, "--out").unwrap_or_else(|| "BENCH_fleet.json".into());
    experiments::calibrate::calibrate(&cfg, Path::new(&out), &mut Stdout)
}

/// `sptk trace-replay <file>` — feeds a recorded memory trace back
/// through a cold cache and re-derives the L2 statistics from the trace
/// alone. Full-rate traces (`--trace-sample 1`) must reproduce the live
/// hit/miss counters exactly; sampled traces report the replayed rate.
fn cmd_trace_replay(args: &[String]) -> Result<()> {
    let path = args.first().ok_or("trace-replay: missing trace file")?;
    let launches = gpu_sim::memtrace::read_jsonl(Path::new(path))?;
    if launches.is_empty() {
        return Err(format!("{path}: no launches in trace"));
    }
    let mut failed = false;
    for (i, trace) in launches.iter().enumerate() {
        let check = gpu_sim::replay_launch(trace);
        let ok = !check.exact
            || (check.verdict_mismatches == 0
                && check.set_mismatches == 0
                && check.hits == trace.live_hits
                && check.misses == trace.live_misses);
        failed |= !ok;
        println!(
            "launch {i} [{}]: {} accesses (every {}), live L2 {:.2}% -> replayed {:.2}% \
             ({} verdict / {} set mismatches){}{}",
            trace.kernel,
            trace.accesses.len(),
            trace.sample_every,
            trace.live_hit_rate(),
            check.hit_rate,
            check.verdict_mismatches,
            check.set_mismatches,
            if check.exact { ", exact" } else { ", sampled" },
            if ok { "" } else { " MISMATCH" },
        );
    }
    if failed {
        return Err("trace replay diverged from the live simulation".into());
    }
    Ok(())
}

/// `sptk serve-sim`: a deterministic multi-tenant service simulation —
/// seeded synthetic workload, shared plan cache, admission control,
/// deadlines with a degrading retry ladder, device-loss recovery — with
/// a byte-reproducible report.
fn cmd_serve_sim(args: &[String]) -> Result<()> {
    let seed = flag_parse(args, "--seed", 0x5EEDu64)?;
    let tenants = flag_parse(args, "--tenants", 3usize)?;
    let jobs = flag_parse(args, "--jobs", 24usize)?;
    let nnz = flag_parse(args, "--nnz", 4000usize)?;
    let rank = flag_parse(args, "--rank", 8usize)?;
    let devices = flag_parse(args, "--devices", 4usize)?;
    if devices == 0 || tenants == 0 {
        return Err("serve-sim wants at least 1 device and 1 tenant".into());
    }
    let queue_depth = flag_parse(args, "--queue-depth", 8usize)?;
    let arrival_us = flag_parse(args, "--arrival-us", 200.0f64)?;
    let deadline_us = flag_parse(args, "--deadline-us", 500_000.0f64)?;
    let timeout_us = flag_parse(args, "--timeout-us", 100_000.0f64)?;
    let cpd_frac = flag_parse(args, "--cpd-frac", 25u32)?;
    let backoff_us = flag_parse(args, "--backoff-us", 50.0f64)?;
    let interconnect =
        Interconnect::parse(&flag(args, "--interconnect").unwrap_or_else(|| "nvlink".into()))
            .map_err(|e| format!("--interconnect: {e}"))?;
    let faults = parse_faults(args)?;
    let mem_capacity = parse_mem_capacity(args)?;
    let expect_shed = flag_parse(args, "--expect-shed", 0u64)?;
    let expect_loss = flag_parse(args, "--expect-device-loss", 0u64)?;
    let verify = args.iter().any(|a| a == "--verify");
    let out = flag(args, "--out");
    let events_path = flag(args, "--events").map(PathBuf::from);
    let profile_dir = flag(args, "--profile").map(PathBuf::from);
    let checkpoint_dir = flag(args, "--checkpoint-dir").map(PathBuf::from);

    let wl = Workload::generate(&WorkloadConfig {
        seed,
        tenants,
        jobs,
        nnz,
        rank,
        arrival_mean_us: arrival_us,
        deadline_us,
        timeout_us,
        max_devices: devices,
        cpd_fraction_pct: cpd_frac,
    });

    let mut ctx = GpuContext::default().with_profiling();
    if let Some(path) = &events_path {
        let tel =
            simprof::Telemetry::to_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ctx = ctx.with_events(Arc::new(tel));
    }
    if let Some(plan) = &faults {
        ctx = ctx.with_faults(plan.clone());
    }

    // Fractional --mem-capacity (e.g. 0.7x) resolves against the worst
    // single-plan footprint the catalog implies.
    let capacity = match &mem_capacity {
        None => u64::MAX,
        Some(mc) => mc.resolve(worst_catalog_footprint(&ctx, &wl, rank)?),
    };

    let mut service = Service::new(
        ServiceConfig {
            devices,
            interconnect,
            capacity_per_device: capacity,
            queue_depth,
            backoff_base_us: backoff_us,
            cpu_slowdown: 25.0,
            checkpoint_dir,
        },
        ctx,
    );
    for (name, t) in &wl.tensors {
        service.register(name, t.clone());
    }
    let report = service.run(&wl.jobs);

    let rec = &report.record;
    println!(
        "serve-sim: {} devices ({}), queue {} deep, {} tenants, {} jobs",
        report.devices, report.interconnect, report.queue_depth, tenants, jobs
    );
    println!(
        "outcomes: {} completed, {} rejected, {} shed | {} retries, {} device losses, \
         {} deadline misses",
        rec.completed, rec.rejected, rec.shed, rec.retries, rec.device_losses, rec.deadline_misses
    );
    println!(
        "plan cache: {} hits, {} misses ({} distinct plans)",
        rec.plan_cache_hits,
        rec.plan_cache_misses,
        service.cache().len()
    );
    let reg = &service.ctx().registry;
    if reg.counter("serve.checkpoint.writes") > 0 || reg.counter("serve.checkpoint.crashes") > 0 {
        println!(
            "checkpoints: {} writes, {} crashes, {} resumes, {} torn skipped",
            reg.counter("serve.checkpoint.writes"),
            reg.counter("serve.checkpoint.crashes"),
            reg.counter("serve.checkpoint.resumes"),
            reg.counter("serve.checkpoint.torn_skipped")
        );
    }
    for t in &rec.per_tenant {
        println!(
            "tenant {}: {}/{} completed, {} shed, {} rejected | latency p50 {} us, \
             p90 {} us, p99 {} us",
            t.tenant,
            t.completed,
            t.submitted,
            t.shed,
            t.rejected,
            t.latency.p50,
            t.latency.p90,
            t.latency.p99
        );
    }

    if verify {
        let n = report.verify(&service, &wl.jobs, 1e-9)?;
        println!("verify: {n} completed jobs match standalone execution within 1e-9");
    }
    if rec.shed < expect_shed {
        return Err(format!(
            "expected at least {expect_shed} shed jobs, saw {}",
            rec.shed
        ));
    }
    if rec.device_losses < expect_loss {
        return Err(format!(
            "expected at least {expect_loss} device losses, saw {}",
            rec.device_losses
        ));
    }
    if let Some(out) = &out {
        let json = report.to_json_string().map_err(|e| format!("{out}: {e}"))?;
        std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(dir) = &profile_dir {
        let io_err = |e: std::io::Error| format!("{}: {e}", dir.display());
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let mut manifest = simprof::RunManifest::new("serve-sim", "synthetic", rank, 0, 0.0, seed);
        manifest.service = rec.clone();
        manifest.events_path = events_path.as_ref().map(|p| p.display().to_string());
        manifest.histograms = service.ctx().registry.histograms();
        manifest
            .write_to(&dir.join("manifest.json"))
            .map_err(io_err)?;
        std::fs::write(
            dir.join("histograms.txt"),
            simprof::histogram_table(
                "service distribution metrics (virtual us)",
                &manifest.histograms,
            ),
        )
        .map_err(io_err)?;
        println!("profile: {} (manifest.json, histograms.txt)", dir.display());
    }
    Ok(())
}

/// The largest single-plan footprint (bytes) any catalog tensor implies
/// — what fractional `--mem-capacity` values resolve against.
fn worst_catalog_footprint(ctx: &GpuContext, wl: &Workload, rank: usize) -> Result<u64> {
    let mut worst = 0u64;
    for (name, t) in &wl.tensors {
        let format =
            gpu::AnyFormat::build(gpu::KernelKind::Hbcsf, t, 0, &gpu::BuildOptions::default())
                .map_err(|e| format!("{name}: {e}"))?;
        let plan = format.capture(ctx, rank);
        worst = worst.max(plan.footprint().total_bytes());
    }
    Ok(worst)
}

/// `sptk chaos` — the seeded composed-fault chaos harness: generated
/// schedules mixing every fault class (interconnect and mid-write
/// crashes always included) drive full service workloads twice each,
/// plus a crash-restart cycle against durable checkpoints; exits
/// nonzero on any invariant violation or coverage gap.
fn cmd_chaos(args: &[String]) -> Result<()> {
    let defaults = chaos::ChaosConfig::default();
    let cfg = chaos::ChaosConfig {
        seed: flag_parse(args, "--seed", defaults.seed)?,
        schedules: flag_parse(args, "--schedules", defaults.schedules)?,
        jobs: flag_parse(args, "--jobs", defaults.jobs)?,
        devices: flag_parse(args, "--devices", defaults.devices)?,
        verify_tol: defaults.verify_tol,
    };
    if cfg.schedules == 0 || cfg.jobs == 0 || cfg.devices == 0 {
        return Err("chaos wants at least 1 schedule, job, and device".into());
    }
    let dir = flag(args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("sptk-chaos"));
    let out = flag(args, "--out");

    let report = chaos::run_chaos(&cfg, &dir).map_err(|e| e.to_string())?;

    println!(
        "chaos: seed {:#x}, {} schedules x 2 passes, {} jobs each over {} devices",
        cfg.seed, cfg.schedules, cfg.jobs, cfg.devices
    );
    for s in &report.schedules {
        println!("{} [{}]", s.name, s.spec);
        println!(
            "  jobs: {} completed, {} rejected, {} shed of {} | {} retries, {} device losses",
            s.completed, s.rejected, s.shed, s.submitted, s.retries, s.device_losses
        );
        println!(
            "  faults: {} link degrades, {} link losses | checkpoints: {} writes, \
             {} crashes, {} resumes, {} torn skipped",
            s.link_degrades,
            s.link_losses,
            s.checkpoint_writes,
            s.checkpoint_crashes,
            s.checkpoint_resumes,
            s.torn_skipped
        );
        println!(
            "  invariants: {}/{} verified, deterministic {}, ledger balanced {}",
            s.verified, s.completed, s.deterministic, s.ledger_balanced
        );
    }
    let c = &report.crash_cycle;
    println!(
        "crash cycle: {} restarts, {} crashes, {} torn skipped, {} resumes",
        c.restarts, c.crashes, c.torn_skipped, c.resumes
    );
    println!(
        "  fit restarted {:.15e} vs uninterrupted {:.15e} (delta {:.3e}, within 1e-9: {})",
        c.fit_restarted, c.fit_uninterrupted, c.fit_delta, c.within_tol
    );

    if let Some(out) = &out {
        let json = report.to_json_string().map_err(|e| format!("{out}: {e}"))?;
        std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }

    for v in &report.violations {
        eprintln!("violation: {v}");
    }
    for g in &report.coverage_gaps {
        eprintln!("coverage gap: {g}");
    }
    if !report.ok_with_coverage() {
        return Err(format!(
            "chaos run failed: {} invariant violations, {} coverage gaps",
            report.violations.len(),
            report.coverage_gaps.len()
        ));
    }
    println!(
        "all invariants green: typed terminal states, standalone verification within 1e-9, \
         balanced memory ledger, byte-identical same-seed passes"
    );
    Ok(())
}

fn cmd_cpd(args: &[String]) -> Result<()> {
    let path = args.first().ok_or("cpd: missing file")?;
    let t = load(path)?;
    // Every CPD driver here replays HB-CSF plans.
    gpu::KernelKind::Hbcsf
        .check_order(t.order())
        .map_err(|e| format!("{path}: {e}"))?;
    let rank = flag_parse(args, "--rank", 8usize)?;
    let iters = flag_parse(args, "--iters", 15usize)?;
    let nonneg = args.iter().any(|a| a == "--nonneg");
    let profile_dir = flag(args, "--profile").map(PathBuf::from);
    let faults = parse_faults(args)?;
    let expect_fit = match flag(args, "--expect-fit") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| format!("--expect-fit wants a number, got '{v}'"))?,
        ),
    };
    if faults.is_some() && nonneg {
        return Err(
            "--faults drives the resilient standard ALS; combine it without --nonneg".into(),
        );
    }
    let mem_capacity = parse_mem_capacity(args)?;
    let (devices, interconnect) = parse_grid(args)?;
    let expect_tiled = args.iter().any(|a| a == "--expect-tiled");
    let checkpoint_dir = flag(args, "--checkpoint-dir").map(PathBuf::from);
    let resume = args.iter().any(|a| a == "--resume");
    let halt_on_crash = args.iter().any(|a| a == "--halt-on-crash");
    if checkpoint_dir.is_none() && (resume || halt_on_crash) {
        return Err("--resume/--halt-on-crash need --checkpoint-dir".into());
    }
    let adaptive = mem_capacity.is_some() || faults.as_ref().is_some_and(|p| p.has_mem_faults());
    if adaptive && nonneg {
        return Err(
            "--mem-capacity/--mem-faults drive the adaptive standard ALS; \
             combine them without --nonneg"
                .into(),
        );
    }
    if devices.is_some() && nonneg {
        return Err(
            "--devices drives the sharded standard ALS; combine it without --nonneg".into(),
        );
    }
    if expect_tiled && !adaptive {
        return Err("--expect-tiled needs --mem-capacity or --mem-faults".into());
    }
    if expect_tiled && devices.is_some() {
        return Err("--expect-tiled reads the single-device ladder; \
             with --devices check the per-device grid lines instead"
            .into());
    }
    if checkpoint_dir.is_some() && (nonneg || adaptive || devices.is_some()) {
        return Err(
            "--checkpoint-dir drives the durable resilient standard ALS; combine it \
             without --nonneg, --devices, --mem-capacity, or --mem-faults"
                .into(),
        );
    }
    let mut ctx = GpuContext::default();
    if profile_dir.is_some() {
        ctx = ctx.with_profiling();
    }
    if let Some(path) = flag(args, "--events").map(PathBuf::from) {
        let tel =
            simprof::Telemetry::to_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        ctx = ctx.with_events(Arc::new(tel));
    }
    if let Some(plan) = &faults {
        ctx = ctx.with_faults(plan.clone());
    }
    let opts = CpdOptions {
        rank,
        max_iters: iters,
        tol: 1e-6,
        seed: 42,
    };
    let mut manifest = simprof::RunManifest::new(
        if nonneg { "hbcsf-nonneg" } else { "hbcsf" },
        path,
        opts.rank,
        opts.max_iters,
        opts.tol,
        opts.seed,
    );
    // Capture the per-mode HB-CSF launches once (format build + plan
    // emission, fanned across modes); every ALS iteration replays them.
    let plans = gpu::ModePlans::build_hbcsf(&ctx, &t, rank, BcsfOptions::default());
    for (m, secs) in plans.build_seconds.iter().enumerate() {
        manifest.push_phase(&format!("build hbcsf mode {}", m + 1), *secs);
    }
    // Cap the simulated device *after* capture: footprints live in the
    // plans, and `0.7x`-style capacities resolve against the worst mode.
    let worst_footprint = (0..t.order())
        .map(|m| plans.plan(m).footprint().total_bytes())
        .max()
        .unwrap_or(0);
    let capacity = mem_capacity.map(|spec| spec.resolve(worst_footprint));
    // With a grid the cap models each device's memory instead of the
    // (single) context device.
    if let (Some(cap), None) = (capacity, devices) {
        ctx = ctx.with_memory(Arc::new(DeviceMemory::with_capacity(cap)));
    }
    // One plan-backed source: the grid with --devices, the out-of-core
    // ladder under a capacity or memory faults, plain replay otherwise.
    // Under an exec-fault plan every MTTKRP is ABFT-verified.
    let start = Instant::now();
    let oopts = OocOptions::default();
    let mut source = if let Some(n) = devices {
        let mut grid = gpu::GridSpec::new(n, interconnect);
        if let Some(cap) = capacity {
            grid = grid.with_capacity(cap);
        }
        PlanSource::new(&t, &ctx, &plans).grid(&grid, &oopts)
    } else if adaptive {
        PlanSource::new(&t, &ctx, &plans).out_of_core(&oopts)
    } else {
        PlanSource::new(&t, &ctx, &plans)
    };
    // Durable checkpoints: a versioned, checksummed file per in-memory
    // checkpoint, written atomically (temp + rename); --resume scans back
    // past torn files to the last valid one and warm-restarts.
    let dopts = checkpoint_dir.as_ref().map(|dir| DurableOptions {
        dir: dir.clone(),
        label: "cpd".to_string(),
        resume,
        halt_on_crash,
    });
    let ropts = ResilienceOptions::default();
    let guarded = faults.is_some() || adaptive || devices.is_some() || dopts.is_some();
    // The manifest is always filled but only written under --profile.
    let spec = RunSpec {
        rule: if nonneg {
            UpdateRule::Nonneg
        } else {
            UpdateRule::LeastSquares
        },
        resilience: guarded.then_some(&ropts),
        durable: dopts.as_ref(),
        manifest: Some(&mut manifest),
        ctx: Some(&ctx),
        ..RunSpec::new(opts)
    };
    let out = cpd::run(&t, spec, &mut source).map_err(|e| match e {
        CpdError::Checkpoint(e) => format!("checkpoint store: {e}"),
        e => e.to_string(),
    })?;
    if dopts.is_some() {
        let rec = &out.checkpointing;
        println!(
            "checkpoints: {} writes ({} B), {} crashes, {} resumes, {} torn skipped{}",
            rec.writes,
            rec.bytes_written,
            rec.crashes,
            rec.resumes,
            rec.torn_skipped,
            if rec.resumes > 0 {
                format!(", resumed at iteration {}", rec.resumed_iteration)
            } else {
                String::new()
            }
        );
        if rec.halted {
            return Err(format!(
                "injected crash halted the run after {} durable writes; \
                 rerun with --resume to warm-restart from the last valid checkpoint",
                rec.writes
            ));
        }
    }
    let res = &out.result;
    println!(
        "{} CPD rank {rank}: fit {:.4} after {} iterations ({:.2}s host)",
        if nonneg { "non-negative" } else { "standard" },
        res.final_fit(),
        res.iterations,
        start.elapsed().as_secs_f64()
    );
    for (i, fit) in res.fits.iter().enumerate() {
        println!("  iter {:>2}: fit {fit:.5}", i + 1);
    }
    if faults.is_some() {
        let r = &manifest.resilience;
        println!(
            "resilience: {} faults injected, {} rows detected, {} kernel retries, \
             {} rows degraded to CPU, {} rollbacks, {} nan resets, {} tikhonov fallbacks, \
             {} checkpoints",
            r.faults_injected,
            r.rows_detected,
            r.kernel_retries,
            r.degraded_rows,
            r.rollbacks,
            r.nan_resets,
            r.tikhonov_fallbacks,
            r.checkpoints
        );
    }
    if adaptive && devices.is_none() {
        let mem = &out.memory;
        println!(
            "memory: capacity {}, worst footprint {} B, high water {} B",
            if ctx.memory.is_unlimited() {
                "unlimited".to_string()
            } else {
                format!("{} B", ctx.memory.capacity())
            },
            mem.footprint_bytes,
            mem.high_water_bytes
        );
        println!(
            "  launches: {} in-core, {} tiled ({} tiles), {} ladder shrinks, \
             {} cpu fallbacks, {} oom events",
            mem.in_core_launches,
            mem.tiled_launches,
            mem.tiles_run,
            mem.ladder_shrinks,
            mem.cpu_fallbacks,
            mem.oom_events
        );
        if expect_tiled && mem.tiled_launches == 0 {
            return Err(format!(
                "--expect-tiled: no launch took the tiled path \
                 ({} in-core, {} cpu fallbacks)",
                mem.in_core_launches, mem.cpu_fallbacks
            ));
        }
    }
    if devices.is_some() {
        let g = &out.grid;
        println!(
            "grid: {} devices over {}, {} sharded launches, compute {:.3} ms + \
             allreduce {:.3} ms ({} B on the wire)",
            g.devices,
            g.interconnect,
            g.launches,
            g.compute_seconds * 1e3,
            g.allreduce_seconds * 1e3,
            g.allreduce_bytes
        );
        for d in &g.per_device {
            println!(
                "  device {}: {} launches, {} tiles, {} oom events, high water {} B",
                d.device, d.launches, d.tiles, d.oom_events, d.high_water_bytes
            );
        }
    }
    // Full precision for bit-exactness comparisons across runs (CI diffs
    // the constrained run against the unconstrained one).
    println!("final_fit_exact {:.15e}", res.final_fit());
    if let Some(min) = expect_fit {
        if res.final_fit() < min {
            return Err(format!(
                "final fit {:.4} below --expect-fit {min}",
                res.final_fit()
            ));
        }
        println!("fit check: {:.4} >= {min} ok", res.final_fit());
    }
    manifest.events_path = ctx.telemetry.events_path().map(String::from);
    manifest.histograms = ctx.registry.histograms();
    if let Some(dir) = &profile_dir {
        let files = write_cpd_profile(dir, &ctx, &manifest, source.last_runs())?;
        println!("profile: {} ({})", dir.display(), files.join(", "));
    }
    if let Some(path) = ctx.telemetry.events_path() {
        ctx.telemetry.flush();
        println!("events: {path}");
    }
    Ok(())
}

/// Writes a CPD run's observability artifacts: the run manifest, one
/// Chrome-trace process per mode's final MTTKRP, the per-mode nvprof
/// table, and the aggregated registry counters. Runs that kept no
/// per-block profile (tiled, sharded) get no trace and no table. Returns
/// the names of the files written.
fn write_cpd_profile(
    dir: &Path,
    ctx: &GpuContext,
    manifest: &simprof::RunManifest,
    last_runs: &[Option<gpu::GpuRun>],
) -> Result<Vec<&'static str>> {
    let io_err = |e: std::io::Error| format!("{}: {e}", dir.display());
    manifest
        .write_to(&dir.join("manifest.json"))
        .map_err(io_err)?;
    let mut trace = simprof::ChromeTrace::new();
    let mut rows = Vec::new();
    for (mode, run) in last_runs.iter().enumerate() {
        let Some(run) = run else { continue };
        let profile = run
            .profile
            .as_ref()
            .ok_or_else(|| format!("mode {} run lost its per-block profile", mode + 1))?;
        gpu_sim::append_chrome_trace(&mut trace, mode as u64, &run.sim, profile);
        let mut row = run.sim.metric_row();
        row.kernel = format!("{} mode {}", row.kernel, mode + 1);
        rows.push(row);
    }
    let mut files = vec!["manifest.json"];
    if !rows.is_empty() {
        trace.write_to(&dir.join("trace.json")).map_err(io_err)?;
        let table = simprof::nvprof_table(
            "nvprof metrics per mode (simulated, final iteration)",
            &rows,
        );
        std::fs::write(dir.join("nvprof_table.txt"), table).map_err(io_err)?;
        files.extend(["trace.json", "nvprof_table.txt"]);
    }
    std::fs::write(
        dir.join("counters.json"),
        serde_json::to_string_pretty(&ctx.registry.snapshot_json())
            .map_err(|e| format!("counters.json: {e}"))?,
    )
    .map_err(io_err)?;
    std::fs::write(
        dir.join("histograms.txt"),
        simprof::histogram_table("distribution metrics (simulated)", &manifest.histograms),
    )
    .map_err(io_err)?;
    files.extend(["counters.json", "histograms.txt"]);
    Ok(files)
}
