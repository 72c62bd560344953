//! Smoke test of the `pipeline` benchmark: every workload at
//! `--size smoke`, untraced and traced, passes its own correctness
//! checks, reports every metric `BENCHMARK.json` names with its unit,
//! covers its loop with stage spans, and simulates the same outcome and
//! input digest traced as untraced.

use std::process::{Command, Output};

fn pipeline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pipeline"))
        .args(args)
        .output()
        .expect("the pipeline binary runs")
}

/// The (detail, result) lines of one smoke run.
fn smoke(workload: &str, trace: &str) -> (String, String) {
    let out = pipeline(&[
        "--workload",
        workload,
        "--size",
        "smoke",
        "--seconds",
        "0",
        "--trace",
        trace,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("a result line").to_owned();
    let detail = lines.next().expect("a detail line").to_owned();
    (detail, result)
}

/// The `"key": "value"` string field of a flat JSON object's text.
fn field(object: &str, key: &str) -> String {
    let rest = object
        .split(&format!("\"{key}\": \""))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} in {object}"));
    rest[..rest.find('"').expect("closing quote")].to_owned()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section's list closes")];
    body.split('{')
        .skip(1)
        .map(|metric| (field(metric, "name"), field(metric, "unit")))
        .collect()
}

/// `(value, unit)` of a metric in a result line.
fn metric(result: &str, name: &str) -> (f64, String) {
    let rest = result
        .split(&format!("\"{name}\": {{\"value\": "))
        .nth(1)
        .unwrap_or_else(|| panic!("metric {name} missing from {result}"));
    let (value, rest) = rest.split_once(", \"unit\": \"").expect("a unit");
    let value = value.parse().expect("a numeric value");
    (
        value,
        rest[..rest.find('"').expect("closing quote")].to_owned(),
    )
}

/// The detail line's simulated-clock summary (digest included).
fn sim(detail: &str) -> &str {
    let start = detail.find("\"sim\": ").expect("a sim summary");
    let rest = &detail[start..];
    &rest[..=rest.find('}').expect("the summary closes")]
}

fn check(workload: &str) {
    let (plain_detail, plain) = smoke(workload, "0");
    let (traced_detail, traced) = smoke(workload, "1");
    for (result, section) in [(&plain, "end_to_end"), (&traced, "per_layer")] {
        assert!(
            result.starts_with("{\"correct\": true"),
            "{workload}: {result}"
        );
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} declares metrics");
        for (name, unit) in metrics {
            let (value, got) = metric(result, &name);
            assert_eq!(got, unit, "{workload}: unit of {name}");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
    }
    let (coverage, _) = metric(&traced, "trace.coverage");
    assert!(
        coverage >= 0.95,
        "{workload}: stage spans cover {coverage} of the loop"
    );
    assert_eq!(
        sim(&plain_detail),
        sim(&traced_detail),
        "{workload}: tracing changed the simulated outcome"
    );
}

#[test]
fn population_day_smoke() {
    check("population-day");
}

#[test]
fn search_fleet_smoke() {
    check("search-fleet");
}

#[test]
fn peer_cells_smoke() {
    check("peer-cells");
}

#[test]
fn device_month_smoke() {
    check("device-month");
}

#[test]
fn unknown_workload_exits_nonzero_without_a_result() {
    let out = pipeline(&["--workload", "no-such-workload"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on failure");
}
