//! Tiny-size smoke test of all four workloads, untraced and traced:
//! every run must finish correct, with no failed request, and print
//! every metric `BENCHMARK.json` lists for its mode.

use std::path::PathBuf;

use ccam_e2ebench::workload::Workload;
use ccam_e2ebench::{run, Options};

fn listed(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = json[start..].find(']').expect("section closes") + start;
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let o = Options {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        tiny: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", workload.name())),
    };
    let out = run(&o).expect("run completes");
    assert!(
        out.correct,
        "{} trace {trace}: {:?}",
        workload.name(),
        out.problems
    );
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0);
    let want = listed(if trace { "per_layer" } else { "end_to_end" });
    for name in &want {
        let v = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{} trace {trace}: {name} missing", workload.name()));
        assert!(v.is_finite(), "{name} = {v}");
    }
    assert_eq!(
        out.metrics.0.len(),
        want.len(),
        "metrics beyond the listed ones"
    );
    let line = out.to_json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn lookup() {
    smoke(Workload::Lookup, false);
    smoke(Workload::Lookup, true);
}

#[test]
fn traverse() {
    smoke(Workload::Traverse, false);
    smoke(Workload::Traverse, true);
}

#[test]
fn update() {
    smoke(Workload::Update, false);
    smoke(Workload::Update, true);
}

#[test]
fn build() {
    smoke(Workload::Build, false);
    smoke(Workload::Build, true);
}
