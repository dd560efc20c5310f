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
