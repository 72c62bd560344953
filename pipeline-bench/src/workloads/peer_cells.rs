//! `peer-cells`: 64 devices in cooperative cells of 8 (1024-bit
//! summaries, skew 0.7, 64-key private pools) replay 8,000 measured
//! requests each, in batches of 4096, after a warm-up and cell
//! attachment. It is the only workload whose misses consult the peer
//! fabric, and its per-device deltas hold thousands of clicks, against
//! about three per user in `population-day`: a delta change that helps
//! small deltas but hurts large ones shows here.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudlet_core::peer::{PeerConfig, PeerFabricStats};
use pocket_bench::{peer_cell_workload, population_world};
use querylog::generator::GeneratorConfig;

use super::population_day::population_frontend;
use super::{frontend_totals, Digest, Latencies, Rep, SimSummary, Size, Tracer, WORLD_SEED};
use crate::spans::timed;
use crate::traced::LaneSpans;

const CELL: usize = 8;
const BATCH: usize = 4_096;
const SUMMARY_BITS: usize = 1_024;
const SKEW: f64 = 0.7;

/// The stages the loop is made of.
pub const LOOP_STAGES: &[&str] = &["frontend.serve_batch", "telemetry.snapshot"];

/// Runs one rep with fresh state.
pub fn rep(seed: u64, size: Size, trace: bool) -> Result<Rep, String> {
    let mut tracer = Tracer::new(trace);
    let (config, devices, pool, per_device) = match size {
        Size::Full => (GeneratorConfig::full_scale(), 64, 64, 8_000),
        Size::Smoke => (GeneratorConfig::test_scale(), 16, 8, 200),
    };
    let lane_spans = Arc::new(LaneSpans::default());
    let (setup, setup_ns) = timed(|| -> Result<_, String> {
        let world = population_world(config, WORLD_SEED, 0.55);
        let workload = peer_cell_workload(&world, devices, pool, per_device, SKEW, seed);
        let mut digest = Digest::default();
        digest.requests(&workload.warmup);
        digest.requests(&workload.measure);
        let mut frontend = population_frontend(&world, devices, &tracer, &lane_spans);
        frontend
            .serve_batch(&workload.warmup)
            .map_err(|e| format!("peer warm-up: {e}"))?;
        let cells = tracer.span("peer.attach", || {
            frontend.attach_peer_cells(
                0,
                CELL,
                PeerConfig {
                    summary_bits: SUMMARY_BITS,
                    ..PeerConfig::default()
                },
            )
        });
        let before = frontend.telemetry().aggregate();
        Ok((workload.measure, digest, frontend, cells, before))
    });
    let (requests, digest, frontend, cells, before) = setup?;
    lane_spans.clear();

    let mut latencies = Latencies::default();
    let (telemetry, loop_ns) = timed(|| -> Result<_, String> {
        for chunk in requests.chunks(BATCH) {
            let served = tracer
                .stage("frontend.serve_batch", || frontend.serve_batch(chunk))
                .map_err(|e| format!("peer batch: {e}"))?;
            latencies.batch(chunk, &served.served);
        }
        Ok(tracer.stage("telemetry.snapshot", || frontend.telemetry()))
    });
    let telemetry = telemetry?;

    let totals = telemetry.aggregate().delta_since(&before);
    let mut sim = SimSummary {
        digest: digest.value(),
        ..SimSummary::default()
    };
    let mut layers = BTreeMap::new();
    frontend_totals(&mut sim, &totals, &mut layers)?;
    latencies.summarize(&mut sim);

    // Cells attach after warm-up, so their counters cover exactly the
    // measured stream and must agree with the front-end's peer serves.
    let mut fabric = PeerFabricStats::default();
    for stats in cells.iter().map(|c| c.telemetry()) {
        fabric.consults += stats.consults;
        fabric.peer_hits += stats.peer_hits;
        fabric.false_positives += stats.false_positives;
    }
    if fabric.peer_hits != totals.peer_hits {
        return Err(format!(
            "peer hits: the fabrics counted {} but the front-end {}",
            fabric.peer_hits, totals.peer_hits
        ));
    }

    tracer.fold_lanes(
        "population.serve",
        "population.try_serve_hit",
        "population.fast_hit_ratio",
        &lane_spans,
        sim.events,
        &mut layers,
    );
    layers.insert(
        "population.delta_bytes",
        telemetry.lanes.iter().map(|l| l.cache_bytes).sum::<u64>() as f64,
    );
    layers.insert("peer.consults", fabric.consults as f64);
    layers.insert("peer.hits", fabric.peer_hits as f64);
    layers.insert("peer.false_positives", fabric.false_positives as f64);
    layers.insert(
        "peer.useful_ratio",
        fabric.peer_hits as f64 / fabric.consults.max(1) as f64,
    );
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
