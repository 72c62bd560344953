//! `search-fleet`: two million duplicate-heavy Zipf queries from 10k
//! users through 8 search-shard lanes with shared-read hits and
//! windowed coalescing. The hit path is a sharded-table probe plus a
//! CRC-checked flash read, and about half the requests coalesce; there
//! is no stream generation, no personalization write and no arbiter.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudlet_core::frontend::{
    Frontend, FrontendConfig, HitPathMode, OverflowPolicy, ServeRequest,
};
use pocket_bench::{frontend_workload, full_scale_study_inputs, test_scale_study_inputs};
use pocketsearch::config::PocketSearchConfig;
use pocketsearch::engine::PocketSearch;
use pocketsearch::fleet::SearchShard;

use super::{frontend_totals, Digest, Latencies, Rep, SimSummary, Size, Tracer, WORLD_SEED};
use crate::spans::timed;
use crate::traced::LaneSpans;

const SHARDS: usize = 8;
const USERS: u64 = 10_000;
const BATCH: usize = 4_096;

/// The stages the loop is made of.
pub const LOOP_STAGES: &[&str] = &["frontend.serve_batch", "telemetry.snapshot"];

/// Runs one rep with fresh state.
pub fn rep(seed: u64, size: Size, trace: bool) -> Result<Rep, String> {
    let mut tracer = Tracer::new(trace);
    let lane_spans = Arc::new(LaneSpans::default());
    let ((requests, digest, frontend), setup_ns) = timed(|| {
        let (inputs, n_requests) = match size {
            Size::Full => (full_scale_study_inputs(WORLD_SEED), 2_000_000),
            Size::Smoke => (test_scale_study_inputs(WORLD_SEED), 20_000),
        };
        let engine = PocketSearch::build(
            &inputs.contents,
            &inputs.catalog,
            PocketSearchConfig::default(),
        );
        // The generator stamps every query at the simulation epoch, so
        // each batch arrives as one burst.
        let requests: Vec<ServeRequest> =
            frontend_workload(&inputs, USERS, n_requests, seed ^ 0xf407)
                .into_iter()
                .map(ServeRequest::from)
                .collect();
        let mut digest = Digest::default();
        digest.requests(&requests);
        let config = FrontendConfig::builder()
            .hit_path(HitPathMode::SharedRead)
            .coalescing(true)
            .coalesce_window(256)
            .queue_depth(16)
            .overflow(OverflowPolicy::Park)
            .build();
        let (_, shards) = SearchShard::fleet_of(&engine, SHARDS);
        let lanes = shards
            .into_iter()
            .map(|s| tracer.lane(s, &lane_spans))
            .collect();
        (requests, digest, Frontend::new(vec![lanes], config))
    });

    let mut latencies = Latencies::default();
    let (telemetry, loop_ns) = timed(|| -> Result<_, String> {
        for chunk in requests.chunks(BATCH) {
            let served = tracer
                .stage("frontend.serve_batch", || frontend.serve_batch(chunk))
                .map_err(|e| format!("search batch: {e}"))?;
            latencies.batch(chunk, &served.served);
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
        "shard.serve",
        "shard.try_serve_hit",
        "shard.fast_hit_ratio",
        &lane_spans,
        sim.events,
        &mut layers,
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
