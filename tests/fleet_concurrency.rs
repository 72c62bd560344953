//! Concurrency smoke tests for sharded search serving: many threads
//! hammering [`Frontend::serve_batch`] with one-request batches over the
//! baseline configuration must never lose a counter update, and
//! sharding must buy real simulated throughput without moving the hit
//! ratio.
//!
//! [`Frontend::serve_batch`]: pocket_cloudlets::core::frontend::Frontend::serve_batch

use std::thread;

use pocket_bench::{fleet_workload, test_scale_study_inputs};
use pocket_cloudlets::core::frontend::{FrontendConfig, LaneTotals};
use pocket_cloudlets::pocketsearch::config::PocketSearchConfig;
use pocket_cloudlets::pocketsearch::engine::PocketSearch;
use pocket_cloudlets::pocketsearch::fleet::search_frontend;

const THREADS: usize = 8;
const EVENTS_PER_THREAD: usize = 500;

#[test]
fn eight_threads_lose_no_counter_updates() {
    let inputs = test_scale_study_inputs(51);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let requests = fleet_workload(&inputs, 32, THREADS * EVENTS_PER_THREAD, 52);
    let frontend = search_frontend(&engine, 8, FrontendConfig::pr3_baseline());

    // Each thread drains a disjoint slice of the stream through the
    // shared front-end; every one-request batch picks its lane from the
    // hash, so all threads contend on all lanes.
    let frontend = &frontend;
    thread::scope(|scope| {
        for lane in requests.chunks(EVENTS_PER_THREAD) {
            scope.spawn(move || {
                for request in lane {
                    frontend
                        .serve_batch(std::slice::from_ref(request))
                        .expect("serve");
                }
            });
        }
    });

    let telemetry = frontend.telemetry();
    let totals: Vec<_> = telemetry.lanes.iter().map(|l| l.totals).collect();
    let served: u64 = totals.iter().map(|s| s.events).sum();
    assert_eq!(served, (THREADS * EVENTS_PER_THREAD) as u64);
    for (shard, report) in totals.iter().enumerate() {
        assert_eq!(
            report.hits + report.misses,
            report.events,
            "shard {shard} counters disagree"
        );
        let expected = requests
            .iter()
            .filter(|r| r.key % 8 == shard as u64)
            .count() as u64;
        assert_eq!(report.events, expected, "shard {shard} event total");
    }
}

#[test]
fn single_request_batches_and_one_batch_agree_under_contention() {
    let inputs = test_scale_study_inputs(53);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let requests = fleet_workload(&inputs, 32, 1_000, 54);

    // Ground truth from a batched run on a fresh front-end.
    let batch_report = search_frontend(&engine, 4, FrontendConfig::pr3_baseline())
        .serve_batch(&requests)
        .expect("fleet batch")
        .report;

    // The same stream hammered thread-per-chunk as one-request batches.
    let frontend = search_frontend(&engine, 4, FrontendConfig::pr3_baseline());
    let frontend = &frontend;
    thread::scope(|scope| {
        for lane in requests.chunks(requests.len() / THREADS + 1) {
            scope.spawn(move || {
                for request in lane {
                    frontend
                        .serve_batch(std::slice::from_ref(request))
                        .expect("serve");
                }
            });
        }
    });

    let telemetry = frontend.telemetry();
    let lanes: Vec<_> = telemetry.lanes.iter().map(|l| l.totals).collect();
    let totals = LaneTotals::aggregate(&lanes);
    assert_eq!(totals.hits, batch_report.totals().hits);
    assert_eq!(totals.misses, batch_report.totals().misses);
    assert_eq!(
        lanes.iter().map(|s| s.busy).collect::<Vec<_>>(),
        batch_report
            .lanes
            .iter()
            .map(|s| s.busy)
            .collect::<Vec<_>>(),
        "per-lane busy time must not depend on the thread layout"
    );
}

/// The acceptance claim of sharded serving: on a Zipf workload, sixteen
/// shards deliver at least twice the simulated throughput of a single
/// shard while the aggregate hit ratio stays exactly the same.
#[test]
fn sixteen_shards_at_least_double_throughput() {
    let inputs = test_scale_study_inputs(55);
    let engine = PocketSearch::build(
        &inputs.contents,
        &inputs.catalog,
        PocketSearchConfig::default(),
    );
    let requests = fleet_workload(&inputs, 64, 2_000, 56);

    let serve = |shards| {
        let frontend = search_frontend(&engine, shards, FrontendConfig::pr3_baseline());
        frontend.serve_batch(&requests).expect("fleet batch").report
    };
    let one = serve(1);
    let sixteen = serve(16);

    let (base, wide) = (one.totals(), sixteen.totals());
    assert_eq!(base.hits, wide.hits, "hit ratio must be invariant");
    assert_eq!(base.misses, wide.misses);
    assert!(
        base.hits > 0 && base.misses > 0,
        "workload exercises both paths"
    );

    let speedup = sixteen.throughput_qps() / one.throughput_qps();
    assert!(
        speedup >= 2.0,
        "16 shards delivered only {speedup:.2}x the simulated throughput of 1"
    );
}
