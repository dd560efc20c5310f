//! `sptk cpd` refuses every flag combination no CPD run supports: each
//! exits 1 with its message on stderr, never 101 (a panic), and writes
//! no checkpoint.

use std::path::PathBuf;
use std::process::Command;

/// The rejected combinations and the message each must print.
const REJECTED: &[(&[&str], &str)] = &[
    (
        &["--faults", "bitflip:1e-3", "--nonneg"],
        "--faults drives the resilient standard ALS; combine it without --nonneg",
    ),
    (
        &["--mem-capacity", "0.7x", "--nonneg"],
        "--mem-capacity/--mem-faults drive the adaptive standard ALS; \
         combine them without --nonneg",
    ),
    (
        &["--devices", "2", "--nonneg"],
        "--devices drives the sharded standard ALS; combine it without --nonneg",
    ),
    (
        &["--resume"],
        "--resume/--halt-on-crash need --checkpoint-dir",
    ),
    (
        &["--expect-tiled"],
        "--expect-tiled needs --mem-capacity or --mem-faults",
    ),
    (
        &["--mem-capacity", "0.7x", "--expect-tiled", "--devices", "2"],
        "--expect-tiled reads the single-device ladder; \
         with --devices check the per-device grid lines instead",
    ),
    (
        &["--checkpoint-dir", "CKPT", "--devices", "2"],
        "--checkpoint-dir drives the durable resilient standard ALS; combine it \
         without --nonneg, --devices, --mem-capacity, or --mem-faults",
    ),
];

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sptk_cpd_flags_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn rejected_flag_combinations_exit_one_with_their_message() {
    let dir = scratch_dir();
    let tns = dir.join("small.tns");
    std::fs::write(
        &tns,
        "1 1 1 1.0\n2 3 1 2.0\n3 2 4 0.5\n1 4 2 1.5\n2 2 3 0.25\n3 4 4 3.0\n",
    )
    .unwrap();
    let ckpt = dir.join("ckpt");
    for (flags, message) in REJECTED {
        let flags: Vec<&str> = flags
            .iter()
            .map(|&f| {
                if f == "CKPT" {
                    ckpt.to_str().unwrap()
                } else {
                    f
                }
            })
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_sptk"))
            .arg("cpd")
            .arg(&tns)
            .args(["--rank", "2", "--iters", "2"])
            .args(&flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "sptk cpd {flags:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: {message}"),
            "sptk cpd {flags:?}"
        );
        assert!(out.stdout.is_empty(), "sptk cpd {flags:?} printed output");
    }
    assert!(!ckpt.exists(), "a rejected run wrote checkpoints");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tiled or sharded CPD keeps no per-block profile, so `--profile`
/// writes the manifest, counters and histograms but no empty trace or
/// nvprof table, and its `profile:` line names only the files it wrote.
#[test]
fn profile_without_per_block_runs_writes_no_empty_trace() {
    let dir = std::env::temp_dir().join(format!("sptk_cpd_profile_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spt = dir.join("nell2.spt");
    let sptk = env!("CARGO_BIN_EXE_sptk");
    let gen = Command::new(sptk)
        .args(["gen", "nell2"])
        .arg(&spt)
        .args(["--nnz", "5000"])
        .output()
        .unwrap();
    assert!(gen.status.success(), "sptk gen failed");
    let cases: &[(&[&str], bool)] = &[
        (&[], true),
        (&["--devices", "2"], false),
        (&["--mem-capacity", "0.7x"], false),
    ];
    for (i, &(flags, per_block)) in cases.iter().enumerate() {
        let prof = dir.join(format!("p{i}"));
        let out = Command::new(sptk)
            .arg("cpd")
            .arg(&spt)
            .args(["--rank", "4", "--iters", "2", "--profile"])
            .arg(&prof)
            .args(flags)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "sptk cpd {flags:?}: {stdout}");
        let line = stdout
            .lines()
            .find(|l| l.starts_with("profile:"))
            .unwrap_or_else(|| panic!("sptk cpd {flags:?} printed no profile line"));
        for file in ["manifest.json", "counters.json", "histograms.txt"] {
            assert!(prof.join(file).exists(), "{flags:?}: {file} missing");
            assert!(line.contains(file), "{flags:?}: {line}");
        }
        for file in ["trace.json", "nvprof_table.txt"] {
            assert_eq!(prof.join(file).exists(), per_block, "{flags:?}: {file}");
            assert_eq!(line.contains(file), per_block, "{flags:?}: {line}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
