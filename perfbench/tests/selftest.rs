//! Self-test of the benchmark: every workload at a tiny size, traced and
//! untraced, must print every metric `BENCHMARK.json` names with its
//! unit; a wrong pinned digest must fail the run.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["mission_3uav", "fleet_200uav", "service_library"];

fn bench(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ];
    args.extend_from_slice(extra);
    bench(&args)
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("metric field") + key.len() + 5;
        entry[at..]
            .split('"')
            .next()
            .unwrap_or_default()
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Checks the result line: correct, and every metric a finite number
/// with its declared unit.
fn check_result(line: &str, metrics: &[(String, String)], context: &str) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{context}: {line}"
    );
    assert!(
        line.contains("\"failed\": 0, \"metrics\": {"),
        "{context}: {line}"
    );
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{context}: metric {name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let (value, tail) = rest.split_once(',').expect("a value then its unit");
        let value: f64 = value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{context}: {name} is not a number: {value}"));
        assert!(value.is_finite(), "{context}: {name} = {value}");
        assert!(
            tail.trim_start()
                .starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{context}: {name} has the wrong unit: {tail}"
        );
    }
    assert_eq!(
        line.matches("\"value\": ").count(),
        metrics.len(),
        "{context}: exactly the declared metrics"
    );
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for workload in WORKLOADS {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = tiny(workload, trace, &[]);
            let context = format!("{workload} --trace {trace}");
            assert!(
                out.status.success(),
                "{context} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            check_result(&last_line(&out), metrics, &context);
        }
    }
}

#[test]
fn list_metrics_prints_every_declared_metric() {
    let out = bench(&["--list-metrics"]);
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    for (name, unit) in declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
    {
        let line = listing
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name.as_str()))
            .unwrap_or_else(|| panic!("--list-metrics omits {name}"));
        assert_eq!(
            line.split_whitespace().nth(1),
            Some(unit.as_str()),
            "{line}"
        );
    }
}

#[test]
fn a_wrong_pinned_digest_fails_the_run() {
    let pins = include_str!("../pins.txt");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for workload in ["mission_3uav", "fleet_200uav"] {
        // Every pin of the workload is wrong, whichever seed a run takes.
        let wrong: String = pins
            .lines()
            .map(|l| match l.strip_prefix(&format!("{workload} ")) {
                Some(rest) => {
                    let seed = rest.split_whitespace().next().unwrap_or_default();
                    format!("{workload} {seed} 0x0123456789abcdef\n")
                }
                None => format!("{l}\n"),
            })
            .collect();
        assert_ne!(wrong, pins, "{workload} is pinned");
        let path = dir.join(format!("wrong-{workload}.pins"));
        std::fs::write(&path, wrong).expect("write the wrong pins");
        let out = tiny(
            workload,
            "0",
            &["--pins", path.to_str().expect("utf-8 path")],
        );
        assert_eq!(
            out.status.code(),
            Some(1),
            "{workload} must fail on a wrong pin"
        );
        assert!(
            last_line(&out).starts_with("{\"correct\": false"),
            "{workload}"
        );
        std::fs::remove_file(&path).ok();
    }
}
