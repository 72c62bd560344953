//! Metric names and units, their computation from reps, and the JSON
//! lines the harness prints.

use crate::workloads::{Rep, SimSummary};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// End-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hit_ratio", "ratio"),
    ("sim_latency_ms_mean", "ms"),
    ("radio_bytes_per_event", "bytes"),
];

/// Per-layer metrics of a traced run, with their units. Every workload
/// reports every name; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stream.next_s", "s"),
    ("stream.batches", "count"),
    ("stream.peak_day_entries", "count"),
    ("workloads.requests_s", "s"),
    ("frontend.serve_batch_s", "s"),
    ("frontend.serve_batch_calls", "count"),
    ("frontend.self_s", "s"),
    ("frontend.coalesced_share", "ratio"),
    ("frontend.fast_path_probes_per_request", "ratio"),
    ("population.serve_s", "s"),
    ("population.serve_calls", "count"),
    ("population.try_serve_hit_s", "s"),
    ("population.try_serve_hit_calls", "count"),
    ("population.fast_hit_ratio", "ratio"),
    ("population.delta_bytes", "bytes"),
    ("shard.serve_s", "s"),
    ("shard.serve_calls", "count"),
    ("shard.try_serve_hit_s", "s"),
    ("shard.try_serve_hit_calls", "count"),
    ("shard.fast_hit_ratio", "ratio"),
    ("peer.attach_s", "s"),
    ("peer.consults", "count"),
    ("peer.hits", "count"),
    ("peer.false_positives", "count"),
    ("peer.useful_ratio", "ratio"),
    ("arbiter.arbitrate_s", "s"),
    ("arbiter.decisions", "count"),
    ("telemetry.snapshot_s", "s"),
    ("engine.serve_s", "s"),
    ("engine.serve_calls", "count"),
    ("engine.click_s", "s"),
    ("engine.nightly_update_s", "s"),
    ("engine.recover_s", "s"),
    ("contentgen.mine_s", "s"),
    ("month.window_s", "s"),
    ("flashdb.patch_added", "count"),
    ("flashdb.patch_removed", "count"),
    ("flash.total_erases", "count"),
    ("trace.loop_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Median of `values` (mean of the middle two for an even count; 0
/// when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Requests served per host second of the rep's loop.
pub fn events_per_s(rep: &Rep) -> f64 {
    rep.sim.events as f64 / secs(rep.loop_ns.max(1))
}

/// Loop host time with every step at its fastest observation across
/// `reps`. Neighbours on a shared host slow whole stretches of a run
/// (a sibling hyperthread going busy costs up to ~1.8x for seconds at a
/// time) and never speed anything up, so the per-step minimum over reps
/// tracks the stack's own cost where a median flips with the share of
/// the run that was contended. Reps whose step sequences differ fall
/// back to the fastest whole loop.
pub fn loop_estimate_ns(reps: &[Rep]) -> u64 {
    let Some(first) = reps.first() else {
        return 0;
    };
    if reps.iter().any(|r| r.steps.len() != first.steps.len()) {
        return reps.iter().map(|r| r.loop_ns).min().unwrap_or(0);
    }
    (0..first.steps.len())
        .map(|s| reps.iter().map(|r| r.steps[s]).min().unwrap_or(0))
        .sum()
}

/// Requests served per host second of the run: one rep's events over
/// [`loop_estimate_ns`] (every rep serves the same requests).
pub fn run_events_per_s(reps: &[Rep]) -> f64 {
    let events = reps.first().map_or(0, |r| r.sim.events);
    events as f64 / secs(loop_estimate_ns(reps).max(1))
}

/// Top-level stage spans over the loop's wall time.
pub fn coverage(rep: &Rep) -> f64 {
    let covered: u64 = rep.loop_stages.iter().map(|s| rep.spans.total_ns(s)).sum();
    covered as f64 / rep.loop_ns.max(1) as f64
}

/// The end-to-end metrics of the untraced reps: run throughput, median
/// set-up, peak RSS, and the (rep-invariant) simulated-clock figures.
pub fn end_to_end(reps: &[Rep], peak_rss_bytes: u64) -> Vec<Metric> {
    let sim = reps.first().map(|r| r.sim.clone()).unwrap_or_default();
    let setup: Vec<f64> = reps.iter().map(|r| secs(r.setup_ns)).collect();
    // In END_TO_END order.
    let values = [
        run_events_per_s(reps),
        median(&setup),
        peak_rss_bytes as f64 / 1e6,
        sim.hit_ratio(),
        sim.latency_mean_ms(),
        sim.radio_bytes as f64 / sim.events.max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// One traced rep's value of a per-layer metric.
fn layer_value(rep: &Rep, name: &str) -> f64 {
    if let Some(&v) = rep.layers.get(name) {
        return v;
    }
    match name {
        "trace.loop_s" => secs(rep.loop_ns),
        "trace.coverage" => coverage(rep),
        "frontend.self_s" => secs(
            rep.spans
                .get("frontend.serve_batch")
                .map_or(0, |s| s.self_ns()),
        ),
        _ => {
            if let Some(stage) = name.strip_suffix("_calls") {
                rep.spans.calls(stage) as f64
            } else if let Some(stage) = name.strip_suffix("_s") {
                secs(rep.spans.total_ns(stage))
            } else {
                0.0
            }
        }
    }
}

/// The per-layer metrics: medians over the traced reps, plus the
/// tracing overhead (traced over untraced run `events_per_s`).
pub fn per_layer(untraced: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let overhead = run_events_per_s(traced) / run_events_per_s(untraced).max(f64::MIN_POSITIVE);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_ratio" {
                overhead
            } else {
                median(
                    &traced
                        .iter()
                        .map(|r| layer_value(r, name))
                        .collect::<Vec<_>>(),
                )
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit of the value (non-finite values, which
/// no metric should produce, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json_list(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(json_num).collect();
    format!("[{}]", items.join(", "))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn sim_json(sim: &SimSummary) -> String {
    format!(
        "{{\"digest\": \"{:016x}\", \"events\": {}, \"hits\": {}, \"misses\": {}, \"failed\": {}, \
         \"radio_bytes\": {}, \"latency_p50_us\": {}, \"latency_p99_us\": {}, \"latency_mean_ms\": {}, \
         \"latency_samples\": {}}}",
        sim.digest,
        sim.events,
        sim.hits,
        sim.misses,
        sim.failed,
        sim.radio_bytes,
        sim.latency_p50_us,
        sim.latency_p99_us,
        json_num(sim.latency_mean_ms()),
        sim.latency_samples
    )
}

fn reps_json(reps: &[Rep]) -> String {
    format!(
        "{{\"setup_s\": {}, \"loop_s\": {}, \"events_per_s\": {}}}",
        json_list(reps.iter().map(|r| secs(r.setup_ns))),
        json_list(reps.iter().map(|r| secs(r.loop_ns))),
        json_list(reps.iter().map(events_per_s)),
    )
}

/// Every stage of one traced rep: calls, total and self seconds, and
/// the per-call p50/p99 from its log2 histogram.
fn spans_json(rep: Option<&Rep>) -> String {
    let stages: Vec<String> = rep
        .into_iter()
        .flat_map(|r| r.spans.iter())
        .map(|(name, s)| {
            format!(
                "{}: {{\"calls\": {}, \"total_s\": {}, \"self_s\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}}}",
                json_str(name),
                s.calls,
                json_num(secs(s.total_ns)),
                json_num(secs(s.self_ns())),
                s.histogram.quantile_ns(0.50),
                s.histogram.quantile_ns(0.99)
            )
        })
        .collect();
    format!("{{{}}}", stages.join(", "))
}

/// The detail line printed before the result: the run's identity, the
/// simulated-clock summary with the input digest, every rep's host
/// figures (so the spread is visible), the last traced rep's spans, and
/// any correctness problems.
pub fn detail_line(
    workload: &str,
    seed: u64,
    size: &str,
    untraced: &[Rep],
    traced: &[Rep],
    problems: &[String],
) -> String {
    let sim = untraced.first().map(|r| r.sim.clone()).unwrap_or_default();
    let problems: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"size\": {}, \"nproc\": {}, \"sim\": {}, \
         \"reps\": {}, \"traced_reps\": {}, \"spans\": {}, \"problems\": [{}]}}",
        json_str(workload),
        json_str(size),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sim_json(&sim),
        reps_json(untraced),
        reps_json(traced),
        spans_json(traced.last()),
        problems.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1e-7), "0.0000001");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
