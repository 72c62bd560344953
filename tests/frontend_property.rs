//! Property tests for the pipelined serve front-end: coalescing and the
//! shared-lock hit path must be invisible in outcomes — for any event
//! mix, any shard count, and any queue depth, every user gets exactly
//! the hit/miss a sequential `PocketSearch::serve` loop would give
//! them — while backpressure sheds deterministically and the baseline
//! configuration's makespan is its busiest lane's busy time.

use std::sync::OnceLock;

use proptest::prelude::*;

use pocket_cloudlets::core::contentgen::{AdmissionPolicy, CacheContents};
use pocket_cloudlets::core::corpus::UniverseCorpus;
use pocket_cloudlets::core::frontend::{
    FrontServed, FrontendConfig, FrontendReport, HitPathMode, LaneTotals, OverflowPolicy, RouteBy,
    ServeRequest,
};
use pocket_cloudlets::core::service::{CloudletError, ServeFlags, ServeKind, ServeSource};
use pocket_cloudlets::mobsim::mix64;
use pocket_cloudlets::mobsim::time::SimInstant;
use pocket_cloudlets::pocketsearch::config::PocketSearchConfig;
use pocket_cloudlets::pocketsearch::engine::{Catalog, PocketSearch};
use pocket_cloudlets::pocketsearch::fleet::search_frontend;
use pocket_cloudlets::querylog::generator::{GeneratorConfig, LogGenerator};
use pocket_cloudlets::querylog::triplets::TripletTable;

/// The engine is expensive to build, so every property case shares one.
/// Serving never mutates the index, and the sequential comparator runs
/// on a clone, so sharing is sound.
fn shared_engine() -> &'static (PocketSearch, Vec<u64>) {
    static ENGINE: OnceLock<(PocketSearch, Vec<u64>)> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 31);
        let month = generator.generate_month();
        let triplets = TripletTable::from_log(&month);
        let corpus = UniverseCorpus::new(generator.universe());
        let contents = CacheContents::generate(
            &triplets,
            &corpus,
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        let catalog = Catalog::new(generator.universe());
        let engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let cached = contents.pairs().iter().map(|p| p.query_hash).collect();
        (engine, cached)
    })
}

/// Turns the raw generated stream into requests: selectors with
/// `cached = true` pick a query that is in the community cache, the
/// rest use the raw hash (a miss with overwhelming probability). Low
/// selector entropy (`% 8` on cached picks) makes duplicate keys — the
/// coalescing fodder — common by construction.
fn materialize(raw: &[(u64, u64, bool)], cached: &[u64]) -> Vec<ServeRequest> {
    raw.iter()
        .map(|&(user, selector, from_cache)| {
            let key = if from_cache {
                cached[(selector % 8 % cached.len() as u64) as usize]
            } else {
                (selector % 8) | 1 << 63
            };
            ServeRequest::new(user, 0, key, SimInstant::ZERO)
        })
        .collect()
}

/// Folds dispositions into per-lane totals through the front-end's one
/// accounting rule, [`LaneTotals::record`].
fn fold<'a>(lanes: usize, served: impl IntoIterator<Item = &'a FrontServed>) -> Vec<LaneTotals> {
    let mut totals = vec![LaneTotals::default(); lanes];
    for s in served {
        totals[s.lane].record(&s.outcome, s.coalesced);
    }
    totals
}

proptest! {
    /// Coalescing equivalence: with coalescing and the shared-read hit
    /// path both on, every event's `(user, key, hit)`
    /// outcome equals what a sequential serve loop gives that user —
    /// N duplicate queries all get the leader's outcome — and the
    /// report charges exactly one underlying serve per distinct key.
    #[test]
    fn coalesced_batch_outcomes_match_sequential_serve(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 1..48),
        shards in 1usize..=12,
        depth in 1usize..=8,
    ) {
        let (engine, cached) = shared_engine();
        let events = materialize(&raw, cached);

        let mut sequential = engine.clone();
        let expected: Vec<(u64, u64, bool)> = events
            .iter()
            .map(|e| (e.user, e.key, sequential.serve(e.key).hit))
            .collect();

        let config = FrontendConfig::builder()
            .queue_depth(depth)
            .coalescing(true)
            .hit_path(HitPathMode::SharedRead)
            .overflow(OverflowPolicy::Park)
            .build();
        let frontend = search_frontend(engine, shards, config);
        let batch = frontend.serve_batch(&events).expect("frontend batch");

        let observed: Vec<(u64, u64, bool)> = events
            .iter()
            .zip(&batch.served)
            .map(|(e, s)| {
                let outcome = s.outcome.as_ref().expect("Park sheds nothing");
                (e.user, e.key, outcome.kind == ServeKind::Hit)
            })
            .collect();
        prop_assert_eq!(&observed, &expected, "per-user outcomes diverged");

        let distinct: std::collections::HashSet<u64> =
            events.iter().map(|e| e.key).collect();
        prop_assert_eq!(batch.report.totals().rejected, 0);
        prop_assert_eq!(
            batch.report.totals().served() - batch.report.totals().coalesced,
            distinct.len() as u64,
            "one underlying serve per distinct key"
        );
        prop_assert_eq!(batch.report.totals().events, events.len() as u64);
    }

    /// The hit *ratio* is invariant across every front-end
    /// configuration that sheds nothing: baseline, coalescing and
    /// shared-read all report the same hits.
    #[test]
    fn hit_ratio_is_invariant_across_configs(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 1..48),
        shards in 1usize..=8,
    ) {
        let (engine, cached) = shared_engine();
        let requests = materialize(&raw, cached);

        let optimized = FrontendConfig::builder().queue_depth(4).build();
        let mut hits = Vec::new();
        for config in [FrontendConfig::pr3_baseline(), optimized] {
            let frontend = search_frontend(engine, shards, config);
            let batch = frontend.serve_batch(&requests).expect("frontend batch");
            hits.push((batch.report.totals().hits, batch.report.totals().events));
        }
        prop_assert_eq!(hits[0], hits[1], "hit counts diverged across configs");
    }

    /// Backpressure determinism: with `Reject` and all-simultaneous
    /// arrivals, exactly the first `depth` exclusive-path events per
    /// lane are admitted, the same ones on every run, and a straggler
    /// arriving after the queue drained is admitted again.
    #[test]
    fn queue_full_rejects_deterministically_and_recovers(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 8..48),
        depth in 1usize..=4,
    ) {
        let (engine, cached) = shared_engine();
        let mut requests = materialize(&raw, cached);
        // A straggler long after every queue has drained (simulated
        // hours later) must always be admitted.
        let late_at = SimInstant::from_micros(u64::MAX / 2);
        requests.push(ServeRequest::new(0, 0, 1 << 62, late_at));

        let config = FrontendConfig::builder()
            .queue_depth(depth)
            .coalescing(false)
            .hit_path(HitPathMode::Exclusive)
            .overflow(OverflowPolicy::Reject)
            .build();
        let shed = |requests: &[ServeRequest]| -> Vec<bool> {
            let frontend = search_frontend(engine, 1, config);
            let batch = frontend.serve_batch(requests).expect("frontend batch");
            batch
                .served
                .iter()
                .map(|s| matches!(s.outcome, Err(CloudletError::QueueFull { .. })))
                .collect()
        };

        let first = shed(&requests);
        // Exactly `depth` admitted from the simultaneous burst.
        let burst_admitted = first[..requests.len() - 1].iter().filter(|&&r| !r).count();
        prop_assert_eq!(burst_admitted, depth.min(requests.len() - 1));
        prop_assert!(!first[requests.len() - 1], "drained queue must recover");
        prop_assert_eq!(&first, &shed(&requests), "shedding must be deterministic");
    }

    /// One accounting rule, counted once: for random configurations and
    /// batches with spread arrivals, each lane's batch report is the
    /// fold of `LaneTotals::record` over that lane's dispositions, the
    /// cumulative telemetry moves by exactly the report, every event
    /// lands in one bucket, and with one-request batches before and
    /// after the batch the telemetry is the fold of every disposition
    /// returned.
    #[test]
    fn lane_totals_are_the_fold_of_every_disposition(
        raw in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 1..40),
        gaps in proptest::collection::vec(prop_oneof![Just(0u64), 0u64..400_000], 40..41),
        singles in proptest::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 0..10),
        (shards, depth) in (1usize..=6, 1usize..=6),
        window in prop_oneof![Just(usize::MAX), 1usize..=8],
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let (coalescing, shared_read, reject) = flags;
        let (engine, cached) = shared_engine();
        let mut requests = materialize(&raw, cached);
        let mut at = 0;
        for (request, gap) in requests.iter_mut().zip(&gaps) {
            at += gap;
            request.at = SimInstant::from_micros(at);
        }
        let config = FrontendConfig::builder()
            .queue_depth(depth)
            .coalescing(coalescing)
            .coalesce_window(window)
            .hit_path(if shared_read { HitPathMode::SharedRead } else { HitPathMode::Exclusive })
            .overflow(if reject { OverflowPolicy::Reject } else { OverflowPolicy::Park })
            .build();
        let frontend = search_frontend(engine, shards, config);
        let lanes = || -> Vec<LaneTotals> {
            frontend.telemetry().lanes.iter().map(|l| l.totals).collect()
        };
        let serve_each = |raw: &[(u64, u64, bool)]| -> Vec<FrontServed> {
            let requests = materialize(raw, cached).into_iter();
            requests
                .flat_map(|r| frontend.serve_batch(&[r]).expect("search never errors").served)
                .collect()
        };

        let (before, after) = singles.split_at(singles.len() / 2);
        let mut returned = serve_each(before);
        let start = lanes();
        let batch = frontend.serve_batch(&requests).expect("frontend batch");
        let end = lanes();
        returned.extend(serve_each(after));
        returned.extend(batch.served.iter().cloned());

        prop_assert_eq!(&batch.report.lanes, &fold(shards, &batch.served));
        for (lane, report) in batch.report.lanes.iter().enumerate() {
            prop_assert_eq!(&end[lane].delta_since(&start[lane]), report);
        }
        let cumulative = lanes();
        prop_assert_eq!(&cumulative, &fold(shards, &returned));
        for t in batch.report.lanes.iter().chain(&cumulative) {
            let buckets = t.hits + t.stale_hits + t.misses + t.skipped + t.errors + t.rejected;
            prop_assert_eq!(t.events, buckets);
        }
    }
}

/// The PR 3 baseline configuration keeps the original sharded-serving
/// makespan model: each lane drains serially, so a simultaneous burst's
/// makespan is the busiest lane's summed busy time (the whole batch's
/// busy time at one shard), with the same hits at every shard count.
#[test]
fn baseline_frontend_reproduces_router_makespan() {
    let (engine, cached) = shared_engine();
    let requests: Vec<ServeRequest> = (0..64)
        .map(|i| {
            let key = if i % 3 == 0 {
                (i * 31) | 1 << 63
            } else {
                cached[(i * 13) as usize % cached.len()]
            };
            ServeRequest::new(i % 7, 0, key, SimInstant::ZERO)
        })
        .collect();

    let serve = |shards| {
        let frontend = search_frontend(engine, shards, FrontendConfig::pr3_baseline());
        frontend
            .serve_batch(&requests)
            .expect("frontend batch")
            .report
    };
    let one = serve(1);
    let base = one.totals();
    assert_eq!(one.makespan, base.busy, "one lane drains everything");
    assert!(base.hits > 0 && base.misses > 0, "both paths exercised");
    for shards in [4usize, 9] {
        let report = serve(shards);
        let busiest = report.lanes.iter().map(|l| l.busy).max();
        assert_eq!(Some(report.makespan), busiest, "{shards} shards");
        assert_eq!(report.totals().hits, base.hits, "{shards} shards");
        assert_eq!(report.totals().busy, base.busy, "{shards} shards");
    }
}

/// The headline perf claim at test scale: on a duplicate-heavy burst
/// the full front-end (coalescing + shared-read hits) beats the PR 3
/// baseline in simulated throughput, with the hit count unchanged.
#[test]
fn optimized_frontend_beats_baseline_qps() {
    let (engine, cached) = shared_engine();
    // Duplicate-heavy by construction: 8 distinct keys over 96 events,
    // with a miss-heavy tail (misses are what coalescing collapses).
    let requests: Vec<ServeRequest> = (0..96u64)
        .map(|i| {
            let key = if i % 3 == 0 {
                cached[(i % 4) as usize % cached.len()]
            } else {
                (i % 4) | 1 << 63
            };
            ServeRequest::new(i % 11, 0, key, SimInstant::ZERO)
        })
        .collect();

    let baseline = search_frontend(engine, 4, FrontendConfig::pr3_baseline());
    let base = baseline.serve_batch(&requests).expect("baseline batch");

    let optimized = search_frontend(engine, 4, FrontendConfig::default());
    let opt = optimized.serve_batch(&requests).expect("optimized batch");

    let (opt_totals, base_totals) = (opt.report.totals(), base.report.totals());
    assert_eq!(opt_totals.hits, base_totals.hits, "hits invariant");
    assert_eq!(opt_totals.events, base_totals.events);
    assert!(
        opt.report.throughput_qps() > base.report.throughput_qps(),
        "optimized {:.1} qps must beat baseline {:.1} qps",
        opt.report.throughput_qps(),
        base.report.throughput_qps()
    );
    assert!(opt_totals.coalesced > 0, "duplicates must coalesce");
}

/// The SplitMix64 finalizer over `state ^ value`: the pinned digest
/// depends on nothing but the values folded into it.
fn mix(state: u64, value: u64) -> u64 {
    mix64(state ^ value)
}

/// Folds every field of one disposition into `state`.
fn fold_served(mut state: u64, s: &FrontServed) -> u64 {
    match &s.outcome {
        Ok(o) => {
            let kind = match o.kind {
                ServeKind::Hit => 0,
                ServeKind::StaleHit => 1,
                ServeKind::Miss => 2,
                ServeKind::Skipped => 3,
            };
            let source = match o.source {
                ServeSource::Local => 0,
                ServeSource::Peer => 1,
                ServeSource::Radio => 2,
            };
            let flags = u64::from(o.flags.contains(ServeFlags::DEGRADED));
            for v in [
                1,
                kind,
                source,
                flags,
                o.radio_bytes,
                o.peer_bytes,
                o.service.as_micros(),
            ] {
                state = mix(state, v);
            }
        }
        Err(e) => {
            state = mix(state, 2);
            for b in e.to_string().bytes() {
                state = mix(state, u64::from(b));
            }
        }
    }
    for v in [
        s.lane as u64,
        u64::from(s.coalesced),
        u64::from(s.fast_path),
        s.queue_wait.as_micros(),
        s.completed_at.as_micros(),
    ] {
        state = mix(state, v);
    }
    state
}

/// Folds every field of a batch report into `state`.
fn fold_report(mut state: u64, report: &FrontendReport) -> u64 {
    for t in &report.lanes {
        for v in [
            t.events,
            t.hits,
            t.stale_hits,
            t.misses,
            t.skipped,
            t.errors,
            t.rejected,
            t.coalesced,
            t.radio_bytes,
            t.peer_hits,
            t.peer_bytes,
            t.busy.as_micros(),
        ] {
            state = mix(state, v);
        }
    }
    for d in [
        report.makespan,
        report.queue_wait_p50,
        report.queue_wait_p99,
        report.queue_wait_max,
    ] {
        state = mix(state, d.as_micros());
    }
    state
}

/// A seeded batch with spread arrivals: bursts of simultaneous requests
/// between gaps short enough to queue misses and long enough to drain
/// them, over a few cached keys (hits and coalescing fodder) and a few
/// misses, from 16 users.
fn golden_batch(cached: &[u64]) -> Vec<ServeRequest> {
    let mut state = 2011u64;
    let mut at = 0u64;
    (0..160)
        .map(|_| {
            state = mix(state, 0x5eed);
            at += [0, 0, 100_000, 1_500_000][(state % 4) as usize];
            let pick = state >> 16;
            let key = if state >> 8 & 1 == 0 {
                cached[(pick % 12) as usize % cached.len()]
            } else {
                (pick % 6) | 1 << 63
            };
            ServeRequest::new(state >> 40 & 15, 0, key, SimInstant::from_micros(at))
        })
        .collect()
}

/// Golden timing pin: one seeded batch with spread arrivals through all
/// 32 depth-2 configurations (Park/Reject × coalescing × hit path ×
/// window ∞/3 × route by key/user) on a 4-lane test-scale search fleet.
/// Every disposition field, per-request times included, and every
/// report field folds into one digest, so any change to when a request
/// completes, which lane it lands on or what it is told shows up here.
#[test]
fn golden_timing_is_pinned_across_the_config_matrix() {
    let (engine, cached) = shared_engine();
    let requests = golden_batch(cached);
    let mut digest = 0u64;
    let (mut shed, mut coalesced, mut fast) = (0, 0, 0);
    for reject in [false, true] {
        for coalescing in [false, true] {
            for shared_read in [false, true] {
                for window in [usize::MAX, 3] {
                    for route_by in [RouteBy::Key, RouteBy::User] {
                        let config = FrontendConfig::builder()
                            .queue_depth(2)
                            .coalescing(coalescing)
                            .coalesce_window(window)
                            .hit_path(if shared_read {
                                HitPathMode::SharedRead
                            } else {
                                HitPathMode::Exclusive
                            })
                            .overflow(if reject {
                                OverflowPolicy::Reject
                            } else {
                                OverflowPolicy::Park
                            })
                            .route_by(route_by)
                            .build();
                        let frontend = search_frontend(engine, 4, config);
                        let batch = frontend.serve_batch(&requests).expect("golden batch");
                        digest = batch.served.iter().fold(digest, fold_served);
                        digest = fold_report(digest, &batch.report);
                        let totals = batch.report.totals();
                        shed += totals.rejected;
                        coalesced += totals.coalesced;
                        fast += batch.served.iter().filter(|s| s.fast_path).count();
                    }
                }
            }
        }
    }
    assert!(
        shed > 0 && coalesced > 0 && fast > 0,
        "the matrix exercises every path"
    );
    assert_eq!(
        digest, 2_951_870_548_110_794_113,
        "golden timing digest moved"
    );
}
