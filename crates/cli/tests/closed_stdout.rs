//! A reader that closes its end of the pipe has all the output it wants:
//! `sptk` must then exit 0, not panic with "failed printing to stdout".
//! The pipe's reader is dropped before `sptk` starts, so its first write
//! always meets a closed pipe.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sptk_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `sptk args…` with a closed stdout; returns its exit code and stderr.
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_sptk"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn commands_exit_zero_when_stdout_is_closed() {
    let dir = scratch_dir();
    let tns = dir.join("small.tns");
    std::fs::write(&tns, "1 1 1 1.0\n2 3 1 2.0\n3 2 4 0.5\n1 4 2 1.5\n").unwrap();
    let fleet = dir.join("fleet.json");
    let runs: [Vec<&str>; 2] = [
        vec!["info", tns.to_str().unwrap()],
        vec![
            "calibrate",
            "--nnz",
            "3000",
            "--datasets",
            "darpa",
            "--out",
            fleet.to_str().unwrap(),
        ],
    ];
    for args in &runs {
        let (code, stderr) = run_with_closed_stdout(args);
        assert_eq!(code, Some(0), "sptk {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "sptk {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
