//! A `--seconds 2` run of every workload in both modes: what the
//! benchmark prints must be exactly what `BENCHMARK.json` declares, every
//! output must be right, and the span file must be a well-formed tree.

use serde_json::Value;
use std::collections::HashSet;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_fmml-benchmark");
const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");
const SEED: u64 = 11;

fn declared() -> Value {
    let path = format!("{MANIFEST_DIR}/../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seconds", "2"])
        .args(["--seed", &SEED.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run fmml-benchmark");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is one JSON object")
}

fn check_result(workload: &str, result: &Value, want: &[(String, String)]) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
    let attempted = result["attempted"].as_u64().expect("attempted");
    let failed = result["failed"].as_u64().expect("failed");
    assert!(attempted >= 1);
    assert_eq!(failed, 0, "{workload}: {failed} of {attempted} failed");

    let got: Vec<(String, String)> = result["metrics"]
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m["value"].as_f64().is_some(), "{name} has no numeric value");
            (name.clone(), m["unit"].as_str().expect("unit").to_string())
        })
        .collect();
    assert_eq!(
        got, want,
        "{workload}: emitted metrics differ from BENCHMARK.json"
    );
    for (name, unit) in &got {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(!unit.is_empty(), "{name} has no unit");
    }
}

fn check_spans(workload: &str) {
    let path = format!("{MANIFEST_DIR}/target/spans/spans-{workload}-{SEED}.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc: Value = serde_json::from_str(&text).expect("span file parses");
    assert_eq!(doc["workload"].as_str(), Some(workload));
    let spans = doc["spans"].as_array().expect("spans");
    assert!(!spans.is_empty());
    let ids: HashSet<u64> = spans
        .iter()
        .map(|s| s["id"].as_u64().expect("id"))
        .collect();
    assert_eq!(ids.len(), spans.len(), "span ids repeat");
    let mut names = HashSet::new();
    for s in spans {
        let parent = s["parent"].as_u64().expect("parent");
        assert!(
            parent == 0 || ids.contains(&parent),
            "span {s} has no parent"
        );
        assert!(s["end_ns"].as_u64() >= s["start_ns"].as_u64());
        names.insert(s["name"].as_str().expect("name").to_string());
    }
    for want in [
        "setup",
        "setup.netsim",
        "setup.train",
        "replay.decode",
        "replay.prepare",
        "replay.forward",
        "replay.ladder",
        "replay.check",
        "replay.encode",
        "client.tick",
        "client.op",
    ] {
        assert!(names.contains(want), "{workload}: no {want} span");
    }
}

#[test]
fn every_workload_emits_exactly_what_benchmark_json_declares() {
    let decl = declared();
    let end_to_end = names_and_units(&decl["end_to_end"]);
    let per_layer = names_and_units(&decl["per_layer"]);
    assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
    let workloads = decl["workloads"].as_array().expect("workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = w["name"].as_str().expect("workload name");
        check_result(name, &run(name, false), &end_to_end);
        check_result(name, &run(name, true), &per_layer);
        check_spans(name);
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(BIN)
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("run fmml-benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
