//! Runs the whole benchmark at smoke size (scale 2, 1 s windows): every
//! workload sets up, answers correctly, passes its guards and reports
//! every metric of `BENCHMARK.json`.

use sdwp_perfbench::json::Json;
use sdwp_perfbench::spec::{Workload, END_TO_END, PER_LAYER};
use std::process::Command;

#[test]
fn smoke_run_reports_every_metric() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let status = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .status()
        .expect("perf starts");
    assert!(status.success(), "perf run --smoke failed: {status}");

    let document = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert!(document.get("host").unwrap().get("nproc").is_some());
    let sections = document.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(sections.len(), Workload::ALL.len());
    for (section, workload) in sections.iter().zip(Workload::ALL) {
        assert_eq!(section.get("name").unwrap().as_str(), Some(workload.name()));
        assert_eq!(section.get("failed").unwrap().as_f64(), Some(0.0));
        assert!(section.get("checked").unwrap().as_f64().unwrap() > 0.0);
        for spec in END_TO_END {
            let entry = section.get("end_to_end").unwrap().get(spec.name).unwrap();
            let value = entry.get("value").unwrap().as_f64().unwrap();
            assert!(value > 0.0, "{} {} is {value}", workload.name(), spec.name);
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(spec.unit));
        }
        let layers = section.get("per_layer").unwrap().as_object().unwrap();
        let names: Vec<&str> = layers.iter().map(|(name, _)| name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|spec| spec.name).collect();
        assert_eq!(names, expected, "{}", workload.name());
    }
}

#[test]
fn single_run_prints_exactly_the_contract_keys() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "--workload",
            "warm_refresh",
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--smoke", "1"])
        .output()
        .expect("perf starts");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = line
        .as_object()
        .unwrap()
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let metrics = line.get("metrics").unwrap().as_object().unwrap();
    let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|spec| spec.name).collect();
    assert_eq!(names, expected);

    // Unknown workloads and missing arguments exit non-zero, resultless.
    let bad = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!bad.status.success() && bad.stdout.is_empty());
}
