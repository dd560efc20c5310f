//! CLI entry point: `experiments <id>... [--nnz N] [--seed S] [--rank R]
//! [--reps K] [--json PATH] [--profile DIR]`, where `<id>` is `all` or
//! any of `table2 table3 fig5 ... fig16`.

use std::io::Write;

use experiments::{all_experiment_ids, run_experiment, ExpConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }

    let mut cfg = ExpConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut profile_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].clone();
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value after {a}");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--nnz" => cfg.nnz = integer(&a, take(&mut i)),
            "--seed" => cfg.seed = integer(&a, take(&mut i)),
            "--rank" => cfg.rank = integer(&a, take(&mut i)),
            "--reps" => cfg.cpu_reps = integer(&a, take(&mut i)),
            "--json" => json_path = Some(take(&mut i)),
            "--profile" => profile_dir = Some(take(&mut i)),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if let Some(dir) = profile_dir {
        cfg = cfg.with_profiling(dir.into());
    }
    if ids.iter().any(|s| s == "all") {
        ids = all_experiment_ids().iter().map(|s| s.to_string()).collect();
    } else if ids.iter().any(|s| s == "ext") {
        ids = experiments::extension_ids()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    println!("# Reproduction of 'Load-Balanced Sparse MTTKRP on GPUs' (Nisa et al., IPDPS 2019)");
    println!(
        "# config: nnz={} seed={} rank={} cpu_reps={} device=simulated P100",
        cfg.nnz, cfg.seed, cfg.rank, cfg.cpu_reps
    );

    let mut collected = serde_json::Map::new();
    for id in &ids {
        let start = std::time::Instant::now();
        match run_experiment(id, &cfg) {
            Some(v) => {
                eprintln!("[{id}] done in {:.1}s", start.elapsed().as_secs_f64());
                collected.insert(id.clone(), v);
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                usage();
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = json_path {
        let mut doc = serde_json::Map::new();
        doc.insert(
            "config".into(),
            serde_json::json!({
                "nnz": cfg.nnz, "seed": cfg.seed, "rank": cfg.rank, "cpu_reps": cfg.cpu_reps,
            }),
        );
        doc.insert("experiments".into(), serde_json::Value::Object(collected));
        let mut f = std::fs::File::create(&path).expect("cannot create --json file");
        f.write_all(serde_json::to_string_pretty(&doc).unwrap().as_bytes())
            .expect("cannot write --json file");
        println!("\nwrote {path}");
    }

    cfg.write_profile()
        .expect("cannot write --profile artifacts");
}

/// Parses a flag's integer value, or exits 2 with a message like a
/// missing value does.
fn integer<T: std::str::FromStr>(flag: &str, raw: String) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag} wants an integer, got '{raw}'");
        std::process::exit(2);
    })
}

fn usage() {
    eprintln!(
        "usage: experiments <id>... [--nnz N] [--seed S] [--rank R] [--reps K] [--json PATH] [--profile DIR]"
    );
    eprintln!("  ids: all {}", all_experiment_ids().join(" "));
    eprintln!("       ext {}", experiments::extension_ids().join(" "));
}
