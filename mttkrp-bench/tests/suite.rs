//! Smoke test: every workload at about 20k generated entries, traced,
//! through the library entry point. Run with
//! `cargo test --release --manifest-path mttkrp-bench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use mttkrp_bench::suite::{self, Config, Metric, WORKLOADS};

/// Metric names of one `BENCHMARK.json` list.
fn declared(doc: &serde_json::Value, list: &str) -> BTreeSet<String> {
    doc[list]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}' list"))
        .iter()
        .map(|m| {
            m["name"]
                .as_str()
                .expect("metric names are strings")
                .to_string()
        })
        .collect()
}

fn assert_finite(workload: &str, declared: &BTreeSet<String>, metrics: &[Metric]) {
    let got: BTreeSet<String> = metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(
        &got, declared,
        "{workload}: reported metrics differ from BENCHMARK.json"
    );
    for m in metrics {
        let v = m
            .value
            .unwrap_or_else(|| panic!("{workload}: {} is null", m.name));
        assert!(v.is_finite(), "{workload}: {} = {v}", m.name);
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let names: BTreeSet<String> = doc["workloads"]
        .as_array()
        .expect("workloads list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload names").to_string())
        .collect();
    let ours: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(
        names, ours,
        "BENCHMARK.json workloads differ from the suite's"
    );

    let out = std::env::temp_dir().join(format!("mttkrp-bench-smoke-{}", std::process::id()));
    for w in WORKLOADS {
        let report = suite::run(&Config {
            workload: w.name.to_string(),
            seed: 7,
            seconds: 0.0,
            trace: true,
            out: out.clone(),
            nnz: Some(20_000),
        })
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for c in &report.checks {
            assert!(c.pass, "{}: check {} failed: {}", w.name, c.name, c.detail);
        }
        assert!(report.correct(), "{}: not correct", w.name);
        assert_finite(w.name, &end_to_end, &report.end_to_end);
        assert_finite(w.name, &per_layer, &report.per_layer);
        let coverage = report
            .per_layer
            .iter()
            .find(|m| m.name == "layer_coverage")
            .and_then(|m| m.value)
            .expect("layer_coverage reported");
        assert!(coverage >= 0.95, "{}: layers cover {coverage}", w.name);
        let dir = out.join(w.name);
        for file in ["results.json", "layers.json", "trace.json"] {
            let text = std::fs::read_to_string(dir.join(file))
                .unwrap_or_else(|e| panic!("{}: {file}: {e}", w.name));
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {file}: {e}", w.name));
        }
    }
    std::fs::remove_dir_all(&out).expect("remove smoke output");
}
