//! The `experiments` binary answers a malformed flag with a message and
//! exit code 2, never a panic (exit 101).

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_integer_flags_exit_2_with_a_message() {
    for flag in ["--nnz", "--seed", "--rank", "--reps"] {
        let (code, stderr) = run(&["table3", flag, "abc"]);
        assert_eq!(code, Some(2), "{flag} abc: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} wants an integer, got 'abc'")),
            "{flag} abc: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} abc: {stderr}");
    }
}

#[test]
fn missing_flag_value_exits_2_with_a_message() {
    let (code, stderr) = run(&["table3", "--nnz"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("missing value after --nnz"), "{stderr}");
}
