//! Runs every workload at a tiny scale, traced and untraced, and checks
//! that each emits every metric `BENCHMARK.json` names, with its unit,
//! and that every output check passes.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repository root")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(benchmark: &str, list: &str) -> Vec<(String, String)> {
    let start = benchmark
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &benchmark[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().unwrap().to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .to_string();
            (name, unit)
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout.lines().last().unwrap().to_string()
}

fn check(workload: &str) {
    let benchmark = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert!(benchmark.contains(&format!("{{\"name\": \"{workload}\"")));
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = run(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{line}");
        assert!(!line.contains("\"attempted\": 0,"), "{line}");
        let metrics = declared(&benchmark, list);
        assert!(!metrics.is_empty());
        for (name, unit) in &metrics {
            let needle = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&needle)
                .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}: {line}"));
            let rest = &line[at + needle.len()..];
            let value: f64 = rest.split(',').next().unwrap().parse().unwrap();
            assert!(value.is_finite(), "{name}");
            assert!(
                rest.starts_with(&format!(
                    "{}, \"unit\": \"{unit}\"}}",
                    rest.split(',').next().unwrap()
                )),
                "{name} should be in {unit}: {line}"
            );
        }
        assert_eq!(
            line.matches("\"unit\": ").count(),
            metrics.len(),
            "{workload} --trace {trace} emits a metric BENCHMARK.json does not name: {line}"
        );
    }
}

#[test]
fn batch_report_emits_every_metric() {
    check("batch_report");
}

#[test]
fn out_of_core_emits_every_metric() {
    check("out_of_core");
}

#[test]
fn serve_mixed_emits_every_metric() {
    check("serve_mixed");
}

#[test]
fn replicate_small_emits_every_metric() {
    check("replicate_small");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "batch_report", "--trace", "2"],
        &["--workload", "batch_report", "--seed"],
        &["--workload", "batch_report", "--seconds", "-1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
