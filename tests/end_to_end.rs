//! End-to-end integration: the full pipeline from synthetic logs to served
//! queries, crossing every workspace crate.

use pocket_bench::test_scale_study_inputs;
use pocket_cloudlets::core::update::UpdateServer;
use pocket_cloudlets::prelude::*;

fn pipeline(seed: u64) -> (LogGenerator, CacheContents, Catalog, PocketSearch) {
    let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), seed);
    let logs = generator.generate_month();
    let triplets = TripletTable::from_log(&logs);
    let contents = CacheContents::generate(
        &triplets,
        &UniverseCorpus::new(generator.universe()),
        AdmissionPolicy::CumulativeShare { share: 0.55 },
    );
    let catalog = Catalog::new(generator.universe());
    let engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
    (generator, contents, catalog, engine)
}

#[test]
fn every_community_pair_is_servable_after_build() {
    let (_, contents, _, mut engine) = pipeline(1);
    for pair in contents.pairs().iter().step_by(7) {
        let served = engine.serve(pair.query_hash);
        assert!(served.hit, "community pair {pair:?} missed");
        assert!(
            served
                .results
                .iter()
                .any(|r| r.result_hash == pair.result_hash)
                || served.results.len() == 2,
            "served results should include or outrank the admitted pair"
        );
    }
}

#[test]
fn hit_latency_is_table4_and_miss_latency_is_figure15() {
    let (_, contents, _, mut engine) = pipeline(2);
    let hit = engine.serve(contents.pairs()[0].query_hash);
    let miss = engine.serve(u64::MAX);
    let hit_ms = hit.report.total_time.as_millis_f64();
    let miss_s = miss.report.total_time.as_secs_f64();
    assert!((350.0..420.0).contains(&hit_ms), "hit {hit_ms} ms");
    assert!((3.0..8.0).contains(&miss_s), "miss {miss_s} s");
    let speedup = miss.report.total_time.ratio(hit.report.total_time).unwrap();
    assert!((13.0..19.0).contains(&speedup), "speedup {speedup}");
}

#[test]
fn database_always_backs_the_hash_table() {
    // Invariant: every result hash the cache can return is fetchable from
    // the flash database (otherwise a hit would degrade into a miss).
    let (mut generator, _, catalog, mut engine) = pipeline(3);
    let month = generator.generate_month();
    for entry in month.entries().iter().take(600) {
        let qh = catalog.query_hash(entry.query);
        engine.serve(qh);
        engine.click(qh, catalog.result_hash(entry.result), || {
            catalog.record(entry.result)
        });
    }
    for (_, result_hash, _, _) in engine.cache().table().iter_pairs() {
        assert!(
            engine.db().contains(result_hash),
            "cache references {result_hash:#x} but the database lacks it"
        );
    }
    engine
        .db()
        .verify(engine.device().flash())
        .expect("database is consistent");
}

#[test]
fn nightly_updates_are_stable_over_a_week() {
    let (mut generator, contents, catalog, mut engine) = pipeline(4);
    let server = UpdateServer::from_contents(&contents, RankingPolicy::default());
    let month = generator.generate_month();
    let stream: Vec<_> = month.entries().iter().take(350).collect();

    let mut last_pairs = 0;
    for night in 0..7 {
        for entry in stream.iter().skip(night * 50).take(50) {
            let qh = catalog.query_hash(entry.query);
            engine.serve(qh);
            engine.click(qh, catalog.result_hash(entry.result), || {
                catalog.record(entry.result)
            });
        }
        let report = engine
            .nightly_update(&server, &catalog)
            .expect("update succeeds");
        assert!(report.download_bytes < 2_000_000, "exchange stays bounded");
        engine
            .db()
            .verify(engine.device().flash())
            .expect("database survives night");
        last_pairs = engine.cache().table().pair_count();
        // The community set is always present after a refresh.
        assert!(last_pairs >= contents.len() / 2);
    }
    assert!(last_pairs > 0);

    // After the final night, popular queries still hit.
    assert!(engine.serve(contents.pairs()[0].query_hash).hit);
}

#[test]
fn replay_statistics_match_engine_counters() {
    let (mut generator, _, catalog, engine) = pipeline(5);
    let month = generator.generate_month();
    let user = month.users()[0];
    let stream = month.user_stream(user);
    let outcome = &replay_population(&engine, &catalog, std::slice::from_ref(&stream), None)[0];

    // Recompute serially with a fresh clone, serving through the
    // engine's service path, and compare.
    let mut check = engine.clone();
    let mut hits = 0;
    for entry in &stream {
        let qh = catalog.query_hash(entry.query);
        let request = ServeRequest::for_user(0, qh, SimInstant::ZERO);
        if CloudletService::serve(&mut check, &request).unwrap().kind == ServeKind::Hit {
            hits += 1;
        }
        check.click(qh, catalog.result_hash(entry.result), || {
            catalog.record(entry.result)
        });
    }
    assert_eq!(outcome.hits, hits);
    assert_eq!(outcome.total as usize, stream.len());
}

#[test]
fn modes_order_as_figure17_expects() {
    let study = run_hit_rate_study(
        &test_scale_study_inputs(99),
        &HitRateConfig::test_scale(),
        &[
            CacheMode::Full,
            CacheMode::CommunityOnly,
            CacheMode::PersonalizationOnly,
        ],
    );
    let rate = |mode: CacheMode| {
        study
            .modes
            .iter()
            .find(|m| m.mode == mode)
            .expect("mode present")
            .average_hit_rate
    };
    assert!(rate(CacheMode::Full) > rate(CacheMode::CommunityOnly));
    assert!(rate(CacheMode::Full) > rate(CacheMode::PersonalizationOnly));
    assert!(rate(CacheMode::CommunityOnly) > 0.3);
}

#[test]
fn energy_accounting_is_conserved_across_the_stack() {
    let (_, contents, _, mut engine) = pipeline(6);
    let before = engine.energy();
    let a = engine.serve(contents.pairs()[0].query_hash);
    let b = engine.serve(u64::MAX);
    let total = engine.energy().millijoules() - before.millijoules();
    let sum = a.report.energy.millijoules() + b.report.energy.millijoules();
    assert!(
        (total - sum).abs() < 1e-6,
        "device meter {total} vs reports {sum}"
    );
}

#[test]
fn a_traced_timeline_totals_exactly_what_the_meter_counts() {
    use pocket_cloudlets::mobsim::device::Device;
    use pocket_cloudlets::mobsim::power::Energy;
    use pocket_cloudlets::mobsim::radio::RadioKind;

    // A mixed day: cache hits, 3G misses (cold and warm radio) and idle
    // gaps. The meter is the one tally every device keeps; the trace a
    // Figure 16 device records must integrate to the same numbers.
    let mut device = Device::traced();
    for i in 0..6u64 {
        if i % 3 == 0 {
            device.serve_via_radio(RadioKind::ThreeG);
        } else {
            device.serve_cache_hit(SimDuration::from_millis(10 + i));
        }
        device.idle(SimDuration::from_secs(30 * i));
    }
    device.serve_via_radio(RadioKind::ThreeG);

    let (meter, now) = (device.meter().clone(), device.now());
    let timeline = device.into_timeline();
    let segments = timeline.segments();
    let energy: Energy = segments.iter().map(|s| s.power.over(s.duration())).sum();
    assert_eq!(
        energy.millijoules().to_bits(),
        meter.total().millijoules().to_bits()
    );
    assert_eq!(timeline.busy_time(), meter.busy_time());
    assert_eq!(timeline.peak_power(), meter.peak_power());
    assert_eq!(timeline.end(), now);
    assert_eq!(meter.busy_time(), now.duration_since(SimInstant::ZERO));
}
