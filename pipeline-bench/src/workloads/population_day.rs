//! `population-day`: the ROADMAP's headline day. One million users
//! stream one diurnal day (24 hourly epochs) through 8 user-routed
//! population lanes with hourly budget arbitration. Stream generation
//! and the small-delta write path do almost all the work; flash, peers
//! and coalescing are absent, so this is the null case for those layers.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudlet_core::arbiter::{AdaptiveArbiter, ArbiterConfig};
use cloudlet_core::frontend::{Frontend, FrontendConfig, OverflowPolicy, RouteBy};
use cloudlet_core::population::{PopulationConfig, PopulationLane};
use mobsim::time::{SimDuration, SimInstant};
use pocket_bench::{population_requests, population_world, PopulationWorld};
use querylog::generator::GeneratorConfig;
use querylog::stream::{EventStream, StreamConfig};

use super::{frontend_totals, Digest, Latencies, Rep, SimSummary, Size, Tracer, WORLD_SEED};
use crate::spans::timed;
use crate::traced::LaneSpans;

const EPOCHS_PER_DAY: u16 = 24;
const LANES: usize = 8;

/// The stages the loop is made of.
pub const LOOP_STAGES: &[&str] = &[
    "stream.next",
    "workloads.requests",
    "frontend.serve_batch",
    "arbiter.arbitrate",
    "telemetry.snapshot",
];

/// A user-routed front-end over `lanes` population lanes sharing the
/// world's community snapshot and pair directory. Coalescing and
/// stealing are off, so each user's serve order is a pure function of
/// the input.
pub(crate) fn population_frontend(
    world: &PopulationWorld,
    lanes: usize,
    tracer: &Tracer,
    spans: &Arc<LaneSpans>,
) -> Frontend {
    let config = FrontendConfig::builder()
        .route_by(RouteBy::User)
        .coalescing(false)
        .work_stealing(false)
        .overflow(OverflowPolicy::Park)
        .build();
    let lanes = (0..lanes)
        .map(|_| {
            let lane = PopulationLane::new(
                PopulationConfig::default(),
                world.community.clone(),
                world.pairs.clone(),
            );
            tracer.lane(lane, spans)
        })
        .collect();
    Frontend::new(vec![lanes], config)
}

/// Runs one rep with fresh state.
pub fn rep(seed: u64, size: Size, trace: bool) -> Result<Rep, String> {
    let mut tracer = Tracer::new(trace);
    let (config, users) = match size {
        Size::Full => (GeneratorConfig::full_scale(), 1_000_000),
        Size::Smoke => (GeneratorConfig::test_scale(), 2_000),
    };
    let lane_spans = Arc::new(LaneSpans::default());
    let ((world, frontend, mut arbiter), setup_ns) = timed(|| {
        let world = population_world(config, WORLD_SEED, 0.55);
        let frontend = population_frontend(&world, LANES, &tracer, &lane_spans);
        let arbiter = AdaptiveArbiter::new(
            ArbiterConfig::new(world.community.footprint_bytes().max(1))
                .with_epoch_length(SimDuration::from_secs(3_600)),
        );
        (world, frontend, arbiter)
    });

    // Day 0 of a 28-day month: each user contributes one day of their
    // monthly volume, and at most that day is resident.
    let mut stream = EventStream::new(
        &world.universe,
        config.behavior,
        seed ^ 0x0b5e_55ed,
        users,
        config.days_per_month,
        StreamConfig {
            month: 0,
            epochs_per_day: EPOCHS_PER_DAY,
        },
    );
    let mut digest = Digest::default();
    let mut latencies = Latencies::default();
    let (mut batches, mut decisions) = (0u64, 0u64);
    let (telemetry, loop_ns) = timed(|| -> Result<_, String> {
        for _ in 0..EPOCHS_PER_DAY {
            let Some(batch) = tracer.stage("stream.next", || stream.next()) else {
                break;
            };
            batches += 1;
            let requests = tracer.stage("workloads.requests", || population_requests(&batch));
            digest.requests(&requests);
            if !requests.is_empty() {
                let served = tracer
                    .stage("frontend.serve_batch", || frontend.serve_batch(&requests))
                    .map_err(|e| format!("population epoch {}: {e}", batch.epoch))?;
                latencies.batch(&requests, &served.served);
            }
            let now = SimInstant::from_micros(batch.end_micros(EPOCHS_PER_DAY));
            if tracer
                .stage("arbiter.arbitrate", || {
                    frontend.arbitrate(&mut arbiter, now)
                })
                .is_some()
            {
                decisions += 1;
            }
        }
        Ok(tracer.stage("telemetry.snapshot", || frontend.telemetry()))
    });
    let telemetry = telemetry?;

    let totals = telemetry.aggregate();
    let mut sim = SimSummary {
        digest: digest.value(),
        ..SimSummary::default()
    };
    let mut layers = BTreeMap::new();
    frontend_totals(&mut sim, &totals, &mut layers)?;
    latencies.summarize(&mut sim);

    tracer.fold_lanes(
        "population.serve",
        "population.try_serve_hit",
        "population.fast_hit_ratio",
        &lane_spans,
        sim.events,
        &mut layers,
    );
    layers.insert("stream.batches", batches as f64);
    layers.insert("stream.peak_day_entries", stream.peak_day_entries() as f64);
    layers.insert(
        "population.delta_bytes",
        telemetry.lanes.iter().map(|l| l.cache_bytes).sum::<u64>() as f64,
    );
    layers.insert("arbiter.decisions", decisions as f64);
    let (spans, steps) = tracer.finish();
    Ok(Rep {
        setup_ns,
        loop_ns,
        steps,
        sim,
        spans,
        loop_stages: LOOP_STAGES,
        layers,
    })
}
