//! The benchmark's own tests: the tiny mode of every workload, untraced
//! and traced.  Each run must print every metric `BENCHMARK.json` lists
//! for its mode, each with its unit, pass the correctness gate, and —
//! traced — reach a trace coverage of 0.95.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn field(entry: &str, key: &str) -> String {
    let key = format!("\"{key}\": \"");
    let at = entry.find(&key).expect("field present") + key.len();
    let len = entry[at..].find('"').expect("string ends");
    entry[at..at + len].to_string()
}

/// Runs one tiny workload and returns its result line.
fn result_line(workload: &str, trace: u8) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_dmpb-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of `name` in a result line, checking its unit.
fn value(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let end = at + line[at..].find(',').expect("value ends");
    assert!(
        line[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} is not in {unit}: {line}"
    );
    line[at..end].parse().expect("a number")
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let line = result_line(workload, trace);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(line.contains(", \"failed\": 0, "), "{line}");
        let metrics = listed(section);
        assert!(!metrics.is_empty());
        for (name, unit) in &metrics {
            value(&line, name, unit);
        }
        assert_eq!(line.matches("\"unit\"").count(), metrics.len(), "{line}");
        if trace == 1 {
            let coverage = value(&line, "trace.coverage", "ratio");
            assert!(coverage >= 0.95, "{workload}: coverage {coverage}");
        }
    }
}

#[test]
fn suite_cold_tiny() {
    check("suite-cold");
}

#[test]
fn exec_stream_tiny() {
    check("exec-stream");
}

#[test]
fn daemon_mixed_tiny() {
    check("daemon-mixed");
}
