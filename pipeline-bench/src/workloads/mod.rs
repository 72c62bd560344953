//! The four workloads and what they share: input sizes, the per-rep
//! result, the simulated-clock summary, the input digest, and the
//! tracer that wraps calls into each layer.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudlet_core::frontend::{FrontServed, LaneTotals, ServeRequest};
use cloudlet_core::service::CloudletService;
use mobsim::time::SimDuration;

use crate::spans::{timed, SpanTable};
use crate::traced::{LaneSpans, Traced};

pub mod device_month;
pub mod peer_cells;
pub mod population_day;
pub mod search_fleet;

/// Every workload, in `--workload all` order.
pub const NAMES: [&str; 4] = [
    "population-day",
    "search-fleet",
    "peer-cells",
    "device-month",
];

/// Seed of every workload's world: the universe, the mined months and
/// community cache, the flash database. `--seed` draws the traffic that
/// runs against it, so runs under different seeds do like-for-like work
/// and their spread measures the host, not a different world.
pub const WORLD_SEED: u64 = 2011;

/// Input sizes: `Full` is the benchmark; `Smoke` is a seconds-long
/// stand-in for the harness's own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny inputs for the smoke test.
    Smoke,
}

/// One rep of one workload: fresh state, set up once, looped once.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host nanoseconds from the first input build to the first timed
    /// request.
    pub setup_ns: u64,
    /// Host nanoseconds of the measured loop.
    pub loop_ns: u64,
    /// Host nanoseconds of each loop step, in order (see [`Tracer`]).
    pub steps: Vec<u64>,
    /// What the simulated clock saw.
    pub sim: SimSummary,
    /// The recorded spans (empty unless the rep was traced).
    pub spans: SpanTable,
    /// The stages the loop is made of, for trace coverage.
    pub loop_stages: &'static [&'static str],
    /// Per-layer counts and ratios that are not span times.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Deterministic results of one rep: identical across reps, traced or
/// not, for one seed and size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimSummary {
    /// Hash over every generated request or log entry.
    pub digest: u64,
    /// Requests served in the loop.
    pub events: u64,
    /// Requests answered before the radio woke (local or peer).
    pub hits: u64,
    /// Requests the radio answered.
    pub misses: u64,
    /// Requests or nightly cycles that failed (errors, sheds, failed
    /// updates, degraded serves).
    pub failed: u64,
    /// Radio bytes the loop moved.
    pub radio_bytes: u64,
    /// Median simulated latency, in microseconds.
    pub latency_p50_us: u64,
    /// 99th-percentile simulated latency, in microseconds.
    pub latency_p99_us: u64,
    /// Latency samples behind the percentiles.
    pub latency_samples: u64,
    /// Summed simulated latency, in microseconds.
    pub latency_total_us: u64,
}

impl SimSummary {
    /// Hits over events.
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.events.max(1) as f64
    }

    /// Mean simulated latency, in milliseconds.
    pub fn latency_mean_ms(&self) -> f64 {
        self.latency_total_us as f64 / 1e3 / self.latency_samples.max(1) as f64
    }
}

/// An FNV-1a style fold over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds in every field of each front-end request.
    pub fn requests(&mut self, requests: &[ServeRequest]) {
        for r in requests {
            self.word(r.user);
            self.word(u64::from(r.service));
            self.word(r.key);
            self.word(r.at.as_micros());
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Simulated latencies of one rep, in microseconds.
#[derive(Debug, Default)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    /// Adds one sample.
    pub fn push(&mut self, latency: SimDuration) {
        self.0.push(latency.as_micros());
    }

    /// Adds `completed_at − at` for every request the batch served.
    pub fn batch(&mut self, requests: &[ServeRequest], served: &[FrontServed]) {
        for (request, served) in requests.iter().zip(served) {
            if served.outcome.is_ok() {
                self.0.push(
                    served
                        .completed_at
                        .saturating_duration_since(request.at)
                        .as_micros(),
                );
            }
        }
    }

    /// Fills the latency fields of `sim`.
    pub fn summarize(mut self, sim: &mut SimSummary) {
        self.0.sort_unstable();
        let rank = |q: f64| {
            let n = self.0.len();
            let r = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
            self.0.get(r - 1).copied().unwrap_or(0)
        };
        sim.latency_p50_us = rank(0.50);
        sim.latency_p99_us = rank(0.99);
        sim.latency_samples = self.0.len() as u64;
        sim.latency_total_us = self.0.iter().sum();
    }
}

/// Folds loop-wide front-end totals into `sim` and the coalesced share
/// into `layers`, checking the conservation law every request obeys:
/// each one is a hit, a stale hit, a miss, a skip, an error or a shed.
pub fn frontend_totals(
    sim: &mut SimSummary,
    totals: &LaneTotals,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let accounted = totals.hits
        + totals.stale_hits
        + totals.misses
        + totals.skipped
        + totals.errors
        + totals.rejected;
    if accounted != totals.events {
        return Err(format!(
            "conservation: {} events but hits+stale+misses+skipped+errors+rejected = {accounted}",
            totals.events
        ));
    }
    sim.events = totals.events;
    sim.hits = totals.hits;
    sim.misses = totals.misses;
    sim.failed = totals.errors + totals.rejected;
    sim.radio_bytes = totals.radio_bytes;
    layers.insert(
        "frontend.coalesced_share",
        totals.coalesced as f64 / totals.events.max(1) as f64,
    );
    Ok(())
}

/// Times the loop step by step on every rep, and when tracing is on
/// also records spans around the calls into each layer and boxes lanes
/// in [`Traced`] so their serves become children of the batch span.
///
/// Steps are the coarse units a loop is made of (an epoch's stages, a
/// batch, a day's serves, a night's mining). Every rep of one seed runs
/// the same step sequence, so a run can compare each step across reps.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Option<SpanTable>,
    steps: Vec<u64>,
}

impl Tracer {
    /// A tracer that records spans (`on`) or only times steps.
    pub fn new(on: bool) -> Self {
        Tracer {
            spans: on.then(SpanTable::default),
            steps: Vec::new(),
        }
    }

    /// Runs one loop step that is a single call into a layer: timed as a
    /// step always, and recorded as a `stage` span when tracing.
    pub fn stage<R>(&mut self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        let (result, ns) = timed(f);
        self.steps.push(ns);
        if let Some(table) = &mut self.spans {
            table.record(stage, ns);
        }
        result
    }

    /// Runs one loop step made of many calls, which `f` may span.
    pub fn step<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let (result, ns) = timed(|| f(self));
        self.steps.push(ns);
        result
    }

    /// Runs `f`, recording its duration under `stage` when tracing.
    pub fn span<R>(&mut self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.spans {
            None => f(),
            Some(table) => {
                let (result, ns) = timed(f);
                table.record(stage, ns);
                result
            }
        }
    }

    /// Boxes `lane` for a front-end: bare when untraced, wrapped in
    /// [`Traced`] recording into `spans` when tracing.
    pub fn lane<S>(&self, lane: S, spans: &Arc<LaneSpans>) -> Box<dyn CloudletService + Send + Sync>
    where
        S: CloudletService + Send + Sync + 'static,
    {
        if self.spans.is_some() {
            Box::new(Traced::new(lane, Arc::clone(spans)))
        } else {
            Box::new(lane)
        }
    }

    /// Folds one lane kind's spans (`<kind>.serve`,
    /// `<kind>.try_serve_hit`) in as children of `frontend.serve_batch`
    /// and records the fast-path ratios over `events` requests.
    pub fn fold_lanes(
        &mut self,
        serve: &'static str,
        try_serve_hit: &'static str,
        fast_hit_ratio: &'static str,
        lanes: &LaneSpans,
        events: u64,
        layers: &mut BTreeMap<&'static str, f64>,
    ) {
        let Some(table) = &mut self.spans else {
            return;
        };
        let (serves, probes) = (lanes.serve.stats(), lanes.try_serve_hit.stats());
        table.add_child("frontend.serve_batch", serves.total_ns + probes.total_ns);
        layers.insert(
            fast_hit_ratio,
            lanes.try_serve_hit.answered() as f64 / probes.calls.max(1) as f64,
        );
        layers.insert(
            "frontend.fast_path_probes_per_request",
            probes.calls as f64 / events.max(1) as f64,
        );
        table.merge(serve, &serves);
        table.merge(try_serve_hit, &probes);
    }

    /// The recorded spans (empty when untraced) and step times.
    pub fn finish(self) -> (SpanTable, Vec<u64>) {
        (self.spans.unwrap_or_default(), self.steps)
    }
}
