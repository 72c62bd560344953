//! `pipeline`: the repository's end-to-end wall-clock benchmark.
//!
//! ```text
//! pipeline --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!          [--out FILE] [--size full|smoke]
//! ```
//!
//! It replays a workload through the public serve stack on one thread
//! and prints two JSON lines on stdout: a detail line (input digest,
//! simulated-clock summary, every rep's host figures, correctness
//! problems) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Workloads (sizes are fixed here). Each runs against a world fixed at
//! seed 2011; `--seed` draws the traffic:
//!
//! * `population-day` — 1M users stream one diurnal day (24 hourly
//!   epochs) through 8 user-routed population lanes with hourly
//!   arbitration. Why: the ROADMAP's headline day; stream generation and
//!   the small-delta write path dominate, and it is the null case for
//!   flash, peers and coalescing.
//! * `search-fleet` — 2M duplicate-heavy Zipf queries from 10k users
//!   through 8 search shards (shared-read hits, coalescing window 256,
//!   depth 16, Park) in batches of 4096. Why: the hit path is a
//!   sharded-table probe plus a CRC-checked flash read and about half the
//!   requests coalesce; no stream, no personalization writes, no arbiter.
//! * `peer-cells` — 64 devices in cells of 8 (1024-bit summaries, skew
//!   0.7, 64-key pools), 8,000 measured requests each in batches of 4096
//!   after warm-up and cell attachment. Why: the only workload whose
//!   misses consult the peer fabric, and its deltas are thousands of
//!   clicks large.
//! * `device-month` — one full-scale PocketSearch device, 28 days of
//!   4,000 served and clicked queries with nightly sliding-window mining,
//!   §5.4 update and repair (wear off, least-worn allocation). Why: flash
//!   writes and patches run beside CRC-checked reads, and mining is the
//!   other large cost.
//!
//! Load model: on the host, a closed loop with one caller sending
//! batches back to back; in simulated time, open-loop arrivals at each
//! request's logged `at` instant (a search-fleet batch arrives as one
//! burst), so simulated latency includes queueing.
//!
//! A run repeats reps — fresh state, timed set-up, timed loop — until
//! the loops have taken `--seconds` (and at least three reps untraced,
//! one traced). `setup_s` is the median set-up; `events_per_s` divides a
//! rep's requests by the loop time with each loop step at its fastest
//! rep (see `report::loop_estimate_ns` for why not the median);
//! `peak_rss_mb` is the process's VmHWM once the first rep is done.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced reps and reports the per-layer metrics (medians
//! over traced reps): spans recorded around the calls into each layer,
//! with lane serves (through the `Traced` decorator) as children of
//! `Frontend::serve_batch`. Every rep, traced or not, must reproduce
//! the same simulated outcome and input digest; at seed 2011 and full
//! size these must also match the pinned values. Any mismatch makes the
//! result `"correct": false` and the exit code 1. `--workload all`
//! re-executes the binary once per workload, so each has its own peak
//! RSS, and prints one combined JSON line. `--size smoke` shrinks every
//! input for the harness's own test.

mod pinned;
mod report;
mod spans;
mod traced;
mod workloads;

use std::process::{Command, ExitCode};

use report::{detail_line, json_str, result_line, Metric};
use workloads::{Rep, Size, NAMES};

const USAGE: &str =
    "usage: pipeline --workload <population-day|search-fleet|peer-cells|device-month|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--size full|smoke]";

/// Untraced reps a run makes at least.
const MIN_REPS: usize = 3;

#[derive(Debug)]
struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    size: Size,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: pinned::SEED,
        seconds: 15,
        trace: false,
        out: None,
        size: Size::Full,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => opts.out = Some(value()?),
            "--size" => {
                opts.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size takes full or smoke, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload != "all" && !NAMES.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

fn size_name(size: Size) -> &'static str {
    match size {
        Size::Full => "full",
        Size::Smoke => "smoke",
    }
}

fn rep(opts: &Options, trace: bool) -> Result<Rep, String> {
    let rep = match opts.workload.as_str() {
        "population-day" => workloads::population_day::rep(opts.seed, opts.size, trace),
        "search-fleet" => workloads::search_fleet::rep(opts.seed, opts.size, trace),
        "peer-cells" => workloads::peer_cells::rep(opts.seed, opts.size, trace),
        "device-month" => workloads::device_month::rep(opts.seed, opts.size, trace),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    eprintln!(
        "{} rep ({}): setup {:.3} s, loop {:.3} s, {:.0} events/s",
        opts.workload,
        if trace { "traced" } else { "untraced" },
        rep.setup_ns as f64 / 1e9,
        rep.loop_ns as f64 / 1e9,
        report::events_per_s(&rep),
    );
    Ok(rep)
}

/// What one workload's run printed.
struct Outcome {
    correct: bool,
    detail: String,
    result: String,
}

fn run(opts: &Options) -> Result<Outcome, String> {
    let budget_ns = opts.seconds.saturating_mul(1_000_000_000);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut measured_ns = 0u64;
    // The first rep's peak: later reps only add allocator churn, which
    // would tie the figure to how many reps fit in the run.
    let mut peak_rss = None;
    loop {
        let enough = if opts.trace {
            !traced.is_empty()
        } else {
            untraced.len() >= MIN_REPS
        };
        if enough && measured_ns >= budget_ns {
            break;
        }
        let r = rep(opts, false)?;
        measured_ns += r.loop_ns;
        untraced.push(r);
        peak_rss = peak_rss.or_else(spans::peak_rss_bytes);
        if opts.trace {
            let r = rep(opts, true)?;
            measured_ns += r.loop_ns;
            traced.push(r);
        }
    }

    let mut problems = Vec::new();
    let first = untraced[0].sim.clone();
    for (i, r) in untraced.iter().chain(&traced).enumerate().skip(1) {
        if r.sim != first {
            problems.push(format!(
                "rep {i} simulated a different outcome or input digest than rep 0"
            ));
        }
    }
    if opts.seed == pinned::SEED && opts.size == Size::Full {
        problems.extend(pinned::check(&opts.workload, &first));
    }

    let metrics: Vec<Metric> = if opts.trace {
        report::per_layer(&untraced, &traced)
    } else {
        let rss = peak_rss.ok_or("cannot read VmHWM from /proc/self/status")?;
        report::end_to_end(&untraced, rss)
    };
    let all = untraced.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|r| r.sim.events).sum();
    let failed: u64 = all.map(|r| r.sim.failed).sum();
    let correct = problems.is_empty();
    Ok(Outcome {
        correct,
        detail: detail_line(
            &opts.workload,
            opts.seed,
            size_name(opts.size),
            &untraced,
            &traced,
            &problems,
        ),
        result: result_line(correct, attempted, failed, &metrics),
    })
}

/// Runs every workload in its own process and combines their result
/// lines.
fn run_all(opts: &Options) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut details, mut results) = (Vec::new(), Vec::new());
    for name in NAMES {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .args(["--size", size_name(opts.size)])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines().rev();
        let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
            return Err(format!("{name} printed no result ({})", output.status));
        };
        correct &= output.status.success() && result.starts_with("{\"correct\": true");
        for (key, sum) in [
            ("\"attempted\": ", &mut attempted),
            ("\"failed\": ", &mut failed),
        ] {
            *sum += result
                .split(key)
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(0);
        }
        details.push(format!("{}: {detail}", json_str(name)));
        results.push(format!("{}: {result}", json_str(name)));
    }
    Ok(Outcome {
        correct,
        detail: format!("{{{}}}", details.join(", ")),
        result: format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"workloads\": {{{}}}}}",
            results.join(", ")
        ),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pipeline: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if opts.workload == "all" {
        run_all(&opts)
    } else {
        run(&opts)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", outcome.detail);
    println!("{}", outcome.result);
    if let Some(path) = &opts.out {
        let text = format!("{}\n{}\n", outcome.detail, outcome.result);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("pipeline: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("pipeline: correctness check failed; see \"problems\" in the detail line");
        ExitCode::FAILURE
    }
}
