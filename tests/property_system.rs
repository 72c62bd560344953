//! Property-based tests over system-level invariants: admission
//! monotonicity, radio physics, budget arbitration, cache semantics, and
//! energy bookkeeping.

use proptest::prelude::*;

use pocket_cloudlets::core::cache::{CacheMode, PocketCache};
use pocket_cloudlets::core::contentgen::{AdmissionPolicy, CacheContents};
use pocket_cloudlets::core::coordination::{BudgetDemand, CloudletBudgets, CloudletId};
use pocket_cloudlets::core::corpus::UniverseCorpus;
use pocket_cloudlets::core::ranking::RankingPolicy;
use pocket_cloudlets::mobsim::power::Power;
use pocket_cloudlets::mobsim::radio::{Radio, RadioKind, RadioModel};
use pocket_cloudlets::mobsim::time::{SimDuration, SimInstant};
use pocket_cloudlets::mobsim::timeline::PowerTimeline;
use pocket_cloudlets::querylog::generator::{GeneratorConfig, LogGenerator};
use pocket_cloudlets::querylog::triplets::TripletTable;

fn study_table() -> (pocket_cloudlets::querylog::universe::Universe, TripletTable) {
    let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 123);
    let log = g.generate_month();
    (g.universe().clone(), TripletTable::from_log(&log))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Admitting at a larger share always yields a superset prefix: the
    /// smaller cache's pairs are exactly the head of the larger one.
    #[test]
    fn contentgen_is_monotone_in_share(a in 0.05f64..0.6, b in 0.05f64..0.6) {
        let (universe, table) = study_table();
        let corpus = UniverseCorpus::new(&universe);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let small = CacheContents::generate(&table, &corpus, AdmissionPolicy::CumulativeShare { share: lo });
        let large = CacheContents::generate(&table, &corpus, AdmissionPolicy::CumulativeShare { share: hi });
        prop_assert!(small.len() <= large.len());
        prop_assert_eq!(small.pairs(), &large.pairs()[..small.len()]);
        prop_assert!(small.dram_bytes() <= large.dram_bytes());
        prop_assert!(small.flash_bytes() <= large.flash_bytes());
        prop_assert!(small.covered_share() <= large.covered_share() + 1e-12);
    }

    /// Radio physics: a warm transfer never exceeds a cold one; the
    /// breakdown always sums to the total; bigger payloads never go faster.
    #[test]
    fn radio_transfers_are_physically_consistent(
        wakeup_ms in 100u64..5_000,
        rtt_ms in 10u64..2_000,
        bps in 10_000u64..10_000_000,
        req in 1u64..10_000,
        resp in 1u64..1_000_000,
    ) {
        let model = RadioModel {
            wakeup: SimDuration::from_millis(wakeup_ms),
            round_trip: SimDuration::from_millis(rtt_ms),
            downlink_bps: bps,
            uplink_bps: bps,
            ..RadioKind::ThreeG.default_model()
        };
        let mut radio = Radio::new(model);
        let cold = radio.transfer(SimInstant::ZERO, req, resp);
        let warm = radio.transfer(SimInstant::ZERO + cold.total_time, req, resp);
        prop_assert!(cold.wakeup > SimDuration::ZERO);
        prop_assert_eq!(warm.wakeup, SimDuration::ZERO);
        prop_assert!(warm.total_time < cold.total_time);
        prop_assert_eq!(
            cold.wakeup + cold.round_trips + cold.uplink + cold.server + cold.downlink,
            cold.total_time
        );
        // Doubling the response payload cannot make the exchange faster.
        let bigger = model.warm_exchange_time(req, resp * 2);
        prop_assert!(bigger >= model.warm_exchange_time(req, resp));
    }

    /// Budget arbitration: grants never exceed demand, never exceed the
    /// pool, and a fully-demanding pool is fully used.
    #[test]
    fn budget_allocation_invariants(
        total in 1_000usize..1_000_000,
        demands in proptest::collection::vec((1_000usize..500_000, 1u32..10), 1..6),
    ) {
        let mut arbiter = CloudletBudgets::new(total);
        for (i, &(demand, prio)) in demands.iter().enumerate() {
            arbiter.register(BudgetDemand {
                cloudlet: CloudletId(i as u32),
                demand_bytes: demand,
                priority: f64::from(prio),
            });
        }
        let alloc = arbiter.allocate();
        let mut granted_total = 0;
        for (i, &(demand, _)) in demands.iter().enumerate() {
            let got = alloc[&CloudletId(i as u32)];
            prop_assert!(got <= demand, "cloudlet {i} got {got} over demand {demand}");
            granted_total += got;
        }
        prop_assert!(granted_total <= total);
        let total_demand: usize = demands.iter().map(|&(d, _)| d).sum();
        if total_demand >= total {
            // Contended pool: nearly everything is handed out (integer
            // rounding may strand a few bytes).
            prop_assert!(granted_total + demands.len() >= total.min(total_demand));
        } else {
            prop_assert_eq!(granted_total, total_demand);
        }
    }

    /// Cache semantics under random click streams: every clicked query
    /// hits afterwards (full mode) and scores stay finite and
    /// non-negative.
    #[test]
    fn cache_click_stream_invariants(clicks in proptest::collection::vec((0u64..30, 0u64..5), 1..200)) {
        let mut cache = PocketCache::new(CacheMode::Full, RankingPolicy::default());
        for &(q, r) in &clicks {
            cache.record_click(q, r + 100);
        }
        for &(q, _) in &clicks {
            let results = cache.lookup(q).expect("clicked queries are cached");
            for res in &results {
                prop_assert!(res.score.is_finite() && res.score >= 0.0);
            }
            // The most recently clicked result for q is among the results.
            let last = clicks.iter().rev().find(|&&(cq, _)| cq == q).expect("q came from clicks");
            prop_assert!(results.iter().any(|res| res.result_hash == last.1 + 100));
        }
    }

    /// Timeline bookkeeping: sampled trace energy approximates the exact
    /// integral, and busy time is the sum of segment lengths.
    #[test]
    fn timeline_energy_is_consistent(
        segments in proptest::collection::vec((1u64..5_000, 100u32..2_000), 1..20),
    ) {
        let mut tl = PowerTimeline::new();
        for &(ms, mw) in &segments {
            tl.push(tl.end(), SimDuration::from_millis(ms), Power::from_milliwatts(mw));
        }
        let exact: f64 = tl
            .segments()
            .iter()
            .map(|s| s.power.over(s.duration()).millijoules())
            .sum();
        prop_assert!(exact > 0.0);
        let busy: u64 = segments.iter().map(|&(ms, _)| ms).sum();
        prop_assert_eq!(tl.busy_time(), SimDuration::from_millis(busy));

        // Riemann-sample at 1 ms and compare (segments are whole ms, so
        // the sample is exact up to floating point).
        let samples = tl.sample(SimDuration::from_millis(1), Power::ZERO);
        let sampled: f64 = samples
            .iter()
            .map(|(_, p)| f64::from(p.milliwatts()))
            .sum::<f64>()
            / 1_000.0;
        prop_assert!(
            (sampled - exact).abs() < exact * 0.01 + 1.0,
            "sampled {sampled} vs exact {exact}"
        );
    }

    /// Replay determinism: identical inputs give identical outcomes
    /// regardless of thread count (parallelism must not leak in).
    #[test]
    fn replay_is_deterministic(seed in 0u64..50) {
        use pocket_cloudlets::prelude::*;
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), seed);
        let build = g.generate_month();
        let replay = g.generate_month();
        let table = TripletTable::from_log(&build);
        let contents = CacheContents::generate(
            &table,
            &UniverseCorpus::new(g.universe()),
            AdmissionPolicy::CumulativeShare { share: 0.5 },
        );
        let catalog = Catalog::new(g.universe());
        let engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let streams: Vec<_> = replay.users().into_iter().take(6).map(|u| replay.user_stream(u)).collect();
        let a = replay_population(&engine, &catalog, &streams, None);
        let b = replay_population(&engine, &catalog, &streams, None);
        prop_assert_eq!(a, b);
    }
}
