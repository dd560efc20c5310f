//! `sptk ingest` owns the scratch directory it makes under the system
//! temp directory: a failed run removes it as a finished one does.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sptk_ingest_scratch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `sptk ingest input args…` with `tmp` as its temp directory;
/// returns the exit code and stderr.
fn ingest(tmp: &Path, input: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sptk"))
        .arg("ingest")
        .arg(input)
        .args(args)
        .env("TMPDIR", tmp)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn failed_ingest_leaves_no_scratch_behind() {
    let inputs = fresh_dir("inputs");
    let tmp = fresh_dir("tmp");
    let bad_line = inputs.join("bad_line.tns");
    std::fs::write(&bad_line, "1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n4 x 4 4.0\n").unwrap();
    let dup = inputs.join("dup.tns");
    std::fs::write(&dup, "1 2 3 1.0\n2 2 2 5.0\n1 2 3 4.0\n").unwrap();
    let runs: [(&Path, &[&str], &str); 2] = [
        (&bad_line, &["--chunk-nnz", "1"], "line 4"),
        (&dup, &["--chunk-nnz", "1", "--policy", "reject"], "line 3"),
    ];
    for (input, args, what) in runs {
        let (code, stderr) = ingest(&tmp, input, args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(what), "{args:?}: {stderr}");
        let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().collect();
        assert!(left.is_empty(), "{args:?} left {left:?}");
    }
    std::fs::remove_dir_all(&inputs).unwrap();
    std::fs::remove_dir_all(&tmp).unwrap();
}
