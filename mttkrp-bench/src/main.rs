//! `mttkrp-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]`
//!
//! Runs one workload for `S` seconds of repetitions, prints every metric
//! as `workload metric value unit` and every check as
//! `check name PASS|FAIL detail`, then one JSON summary as the last line.
//! Exits 1 when a check fails, 2 when the run cannot start.

use std::path::PathBuf;
use std::process::ExitCode;

use mttkrp_bench::suite::{self, Config};

const USAGE: &str =
    "usage: mttkrp-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        nnz: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value '{value}' for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cfg.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = match parse_args(&args).and_then(|cfg| suite::run(&cfg)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mttkrp-bench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in report.metrics() {
        let value = m.value.map_or("null".to_string(), |v| v.to_string());
        println!("{} {} {} {}", report.workload, m.name, value, m.unit);
    }
    for c in &report.checks {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        println!("check {} {verdict} {}", c.name, c.detail);
    }
    println!("{}", report.summary_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
