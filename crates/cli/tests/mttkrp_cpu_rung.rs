//! `sptk mttkrp` on a device too small for any GPU rung runs the CPU
//! reference and says so: it prints no simulated time or rates, which a
//! zeroed simulation would turn into a nonsense GFLOPs figure.

use std::process::Command;

#[test]
fn cpu_rung_prints_no_simulated_rates() {
    let dir = std::env::temp_dir().join(format!("sptk_mttkrp_cpu_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spt = dir.join("darpa.spt");
    let sptk = env!("CARGO_BIN_EXE_sptk");
    let gen = Command::new(sptk)
        .args(["gen", "darpa"])
        .arg(&spt)
        .args(["--nnz", "5000"])
        .output()
        .unwrap();
    assert!(gen.status.success(), "sptk gen failed");
    let cases: &[(&[&str], bool)] = &[
        (&[], false),
        (&["--mem-capacity", "0.7x"], true),
        (&["--mem-capacity", "0.7x", "--devices", "4"], true),
    ];
    for &(flags, cpu) in cases {
        let out = Command::new(sptk)
            .arg("mttkrp")
            .arg(&spt)
            .args(["--kernel", "hbcsf"])
            .args(flags)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "sptk mttkrp {flags:?}: {stdout}");
        let summary = stdout
            .lines()
            .find(|l| l.starts_with("hbcsf (simulated"))
            .unwrap_or_else(|| panic!("{flags:?}: no summary line in {stdout}"));
        assert!(summary.contains("||Y|| = "), "{flags:?}: {summary}");
        assert_eq!(summary.contains("CPU reference ran"), cpu, "{summary}");
        assert_eq!(summary.contains("GFLOPs"), !cpu, "{summary}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
