//! The paper's headline claims, asserted end to end.
//!
//! Each test names the section/figure/table it reproduces. Absolute
//! numbers use tolerance bands (our substrate is a calibrated simulator,
//! not the authors' testbed); orderings and shapes are asserted strictly.

use pocket_bench::test_scale_study_inputs;
use pocket_cloudlets::nvmscale::ByteSize;
use pocket_cloudlets::prelude::*;
use pocket_cloudlets::querylog::analysis::cdf::{query_volume_cdf, result_volume_cdf};
use pocket_cloudlets::querylog::analysis::repeat::new_query_probabilities;
use pocket_cloudlets::querylog::analysis::stats::LogStats;
use pocketsearch::experiment::{figure15_points, figure16_traces};

fn month(seed: u64) -> (LogGenerator, pocket_cloudlets::querylog::log::SearchLog) {
    let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), seed);
    let log = generator.generate_month();
    (generator, log)
}

#[test]
fn section2_nvm_projections() {
    // "high-end phones may reach 1 TB of NVM as early as 2018 ... low-end
    // phones may eventually reach 256 GB (16 GB in 2018)".
    let proj = CapacityProjection::new(&ScalingTrends::paper_table1(), ScalingTechnique::all());
    assert_eq!(
        proj.year_capacity_reaches(DeviceTier::HighEnd, ByteSize::from_tib(1.0)),
        Some(2018)
    );
    assert_eq!(
        proj.capacity(DeviceTier::LowEnd, 2018),
        Some(ByteSize::from_gib(16.0))
    );
    assert_eq!(
        proj.capacity(DeviceTier::LowEnd, 2026),
        Some(ByteSize::from_gib(256.0))
    );
}

#[test]
fn section2_table2_item_counts() {
    let budget = CloudletBudget::paper_table2();
    for est in budget.table2() {
        let err = (est.items as f64 - est.kind.paper_item_count() as f64).abs()
            / est.kind.paper_item_count() as f64;
        assert!(
            err < 0.03,
            "{}: {} vs paper {}",
            est.kind,
            est.items,
            est.kind.paper_item_count()
        );
    }
}

#[test]
fn section4_community_concentration() {
    // Figure 4's shape: a small head of queries/results carries ~60% of
    // volume, with results concentrating harder than queries and
    // navigational harder than non-navigational.
    let (_, log) = month(11);
    let q = query_volume_cdf(&log, |_| true);
    let r = result_volume_cdf(&log, |_| true);
    let q60 = q.rank_for_share(0.6).expect("reaches 60%");
    let r60 = r.rank_for_share(0.6).expect("reaches 60%");
    assert!(r60 < q60, "results {r60} vs queries {q60}");
    assert!(
        q60 < q.distinct_items() / 4,
        "head is small: {q60} of {}",
        q.distinct_items()
    );

    let nav = query_volume_cdf(&log, |e| e.kind == QueryKind::Navigational);
    let nonnav = query_volume_cdf(&log, |e| e.kind == QueryKind::NonNavigational);
    let k = nav.distinct_items() / 5;
    assert!(nav.share_at(k) > nonnav.share_at(k));
}

#[test]
fn section4_individual_repeatability() {
    // §4.2: "at least 70% of the queries submitted by half of the mobile
    // users are repeated queries" — i.e. a large share of users sit at a
    // new-query probability of at most ~0.3 — and mobile repeats beat the
    // desktop's 40%.
    let (_, log) = month(12);
    let d = new_query_probabilities(&log, |_| true);
    assert!(
        d.fraction_at_most(0.30) > 0.3,
        "heavy repeaters: {}",
        d.fraction_at_most(0.30)
    );
    assert!(
        d.mean_repeat_rate() > 0.40,
        "mobile repeats beat desktop's 40%"
    );
}

#[test]
fn section5_cache_is_tiny_relative_to_the_device() {
    // §6.1: the evaluation cache is ~2,500 results in ~1 MB of flash and
    // ~200 KB of DRAM — "less than 1% of the available memory and storage
    // resources on a typical smartphone" (512 MB low-end NVM in 2010).
    let (generator_log, contents) = {
        let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 13);
        let log = generator.generate_month();
        let t = TripletTable::from_log(&log);
        let c = CacheContents::generate(
            &t,
            &UniverseCorpus::new(generator.universe()),
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        (log, c)
    };
    assert!(!generator_log.is_empty());
    let device_nvm_2010 = DeviceTier::LowEnd.baseline_2010().bytes() as f64;
    assert!(
        (contents.flash_bytes() as f64) < 0.01 * device_nvm_2010,
        "cache flash {} exceeds 1% of a 2010 low-end device",
        contents.flash_bytes()
    );
}

#[test]
fn section6_figure15_and_16() {
    let points = figure15_points(SimDuration::from_millis(10));
    let speedups: Vec<f64> = points.iter().skip(1).map(|p| p.speedup_vs_pocket).collect();
    let energies: Vec<f64> = points
        .iter()
        .skip(1)
        .map(|p| p.energy_ratio_vs_pocket)
        .collect();
    // Order: Edge slowest, then 3G, then WiFi; energy gaps exceed time gaps.
    assert!(speedups[1] > speedups[0] && speedups[0] > speedups[2]);
    for (s, e) in speedups.iter().zip(&energies) {
        assert!(e > s, "energy ratio {e} should exceed time ratio {s}");
    }

    let (pocket, radio) = figure16_traces(10, SimDuration::from_millis(10));
    assert!(radio.busy_time().as_secs_f64() > 8.0 * pocket.busy_time().as_secs_f64());
}

#[test]
fn section6_hit_rates_and_components() {
    let study = run_hit_rate_study(
        &test_scale_study_inputs(14),
        &HitRateConfig::test_scale(),
        &[
            CacheMode::Full,
            CacheMode::CommunityOnly,
            CacheMode::PersonalizationOnly,
        ],
    );
    let by_mode = |mode: CacheMode| study.modes.iter().find(|m| m.mode == mode).unwrap();
    let full = by_mode(CacheMode::Full);
    // "PocketSearch can serve, on average, 66% of the web search queries"
    // — we assert the same neighbourhood at test scale.
    assert!(
        (0.55..0.85).contains(&full.average_hit_rate),
        "avg {}",
        full.average_hit_rate
    );
    // Both components alone do worse than together.
    assert!(full.average_hit_rate > by_mode(CacheMode::CommunityOnly).average_hit_rate);
    assert!(full.average_hit_rate > by_mode(CacheMode::PersonalizationOnly).average_hit_rate);
    // Community warm start: week-1 hit rate is already near the full-month
    // rate ("even during the first week, PocketSearch cache is able to
    // provide the same hit rate...").
    for s in &full.summaries {
        assert!(
            s.hit_rate_week1 > s.hit_rate - 0.2,
            "{}: week1 {} vs month {}",
            s.class,
            s.hit_rate_week1,
            s.hit_rate
        );
    }
}

#[test]
fn section6_table6_population() {
    let (_, log) = month(15);
    let stats = LogStats::compute(&log);
    assert!((stats.class_share(UserClass::Low) - 0.55).abs() < 0.12);
    assert!((stats.class_share(UserClass::Medium) - 0.36).abs() < 0.12);
    assert!(stats.class_share(UserClass::Extreme) < 0.05);
}

#[test]
fn section7_pocketsearch_relieves_the_backend() {
    // "two thirds of the query load can be eliminated" — every hit is a
    // query the search engine never sees.
    let study = run_hit_rate_study(
        &test_scale_study_inputs(16),
        &HitRateConfig::test_scale(),
        &[CacheMode::Full],
    );
    let offloaded = study.modes[0].average_hit_rate;
    assert!(offloaded > 0.5, "cloud offload was only {offloaded}");
}
