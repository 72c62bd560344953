//! Property and equivalence tests for the population-scale streaming
//! path: the lazy epoch stream must be a pure re-chunking of the
//! materialized month, per-user streams must re-derive independently,
//! and the production community/personal split (`PopulationLane`) must
//! be bit-identical to the flattened `PocketCache`.

use std::sync::Arc;

use proptest::prelude::*;

use pocket_bench::{materialized_month_requests, population_requests, population_world};
use pocket_cloudlets::core::cache::{CacheMode, CommunityCache, PocketCache};
use pocket_cloudlets::core::frontend::{
    Frontend, FrontendConfig, OverflowPolicy, RouteBy, ServeRequest,
};
use pocket_cloudlets::core::hashtable::{ConflictPolicy, QueryHashTable, ScoredResult};
use pocket_cloudlets::core::population::{PairTable, PopulationConfig, PopulationLane};
use pocket_cloudlets::core::ranking::RankingPolicy;
use pocket_cloudlets::core::service::{CloudletService, ServeKind};
use pocket_cloudlets::mobsim::time::SimInstant;
use pocket_cloudlets::querylog::generator::{GeneratorConfig, LogGenerator};
use pocket_cloudlets::querylog::ids::UserId;
use pocket_cloudlets::querylog::log::LogEntry;
use pocket_cloudlets::querylog::universe::UniverseConfig;
use pocket_cloudlets::querylog::zipf::TwoSegmentZipf;

/// A universe small enough to regenerate hundreds of times, but with
/// both result kinds, aliases, and second results in play.
fn tiny_universe(nav: usize, nonnav: usize) -> UniverseConfig {
    UniverseConfig {
        nav_results: nav,
        nonnav_results: nonnav,
        nav_volume_share: 0.5,
        nav_profile: TwoSegmentZipf {
            head_count: (nav / 4).max(1),
            head_mass: 0.9,
            s_head: 0.9,
            s_tail: 0.45,
        },
        nonnav_profile: TwoSegmentZipf {
            head_count: (nonnav / 4).max(1),
            head_mass: 0.3,
            s_head: 0.8,
            s_tail: 0.2,
        },
        alias_extra_prob: 0.4,
        alias_secondary_share: 0.35,
        second_result_prob: 0.9,
        second_result_weight: 0.85,
    }
}

fn tiny_config(nav: usize, nonnav: usize, n_users: usize, days: u16) -> GeneratorConfig {
    GeneratorConfig {
        universe: tiny_universe(nav, nonnav),
        behavior: Default::default(),
        n_users,
        days_per_month: days,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The chunked epoch stream is a pure re-chunking: concatenating
    /// every epoch batch of a random universe/population/chunking yields
    /// exactly the eagerly materialized month, entry for entry.
    #[test]
    fn chunked_epochs_concatenate_to_the_materialized_month(
        seed in any::<u64>(),
        nav in 20usize..60,
        nonnav in 60usize..160,
        n_users in 1usize..24,
        days in 1u16..8,
        epochs_per_day in 1u16..12,
    ) {
        let config = tiny_config(nav, nonnav, n_users, days);
        let mut eager = LogGenerator::new(config, seed);
        let month: Vec<LogEntry> = eager.generate_month().iter().copied().collect();

        let mut lazy = LogGenerator::new(config, seed);
        let streamed: Vec<LogEntry> = lazy
            .stream_month_chunked(epochs_per_day)
            .flat_map(|batch| batch.entries)
            .collect();
        prop_assert_eq!(streamed, month);
    }

    /// Any single user's stream re-derives independently of the rest of
    /// the population: two generators that never met agree on the user's
    /// month, and that month is exactly the user's slice of the
    /// population month.
    #[test]
    fn user_streams_rederive_independently(
        seed in any::<u64>(),
        n_users in 1usize..24,
        days in 1u16..8,
        pick in any::<u32>(),
    ) {
        let config = tiny_config(30, 90, n_users, days);
        let user = UserId::new(pick % n_users as u32);

        let mut once = Vec::new();
        LogGenerator::new(config, seed).append_user_month(user, &mut once);
        let mut again = Vec::new();
        LogGenerator::new(config, seed).append_user_month(user, &mut again);
        prop_assert_eq!(&once, &again);

        let month = LogGenerator::new(config, seed).generate_month();
        let slice: Vec<LogEntry> = month.iter().filter(|e| e.user == user).copied().collect();
        once.sort_by_key(|e| (e.time, e.user, e.pair));
        prop_assert_eq!(once, slice);
    }
}

/// The one user every split-equivalence script runs as.
const USER: u64 = 7;

/// `user`'s ranked view through the production split, gated as
/// `PopulationLane::serve` gates it: their delta answers first in the
/// personalization modes, the community snapshot after it in the
/// community modes.
fn split_view(lane: &PopulationLane, user: u64, q: u64) -> Option<Vec<ScoredResult>> {
    let mode = lane.config().mode;
    let personal = mode
        .personalization_enabled()
        .then(|| lane.delta(user).and_then(|d| d.lookup(q)))
        .flatten();
    personal.or_else(|| {
        mode.community_enabled()
            .then(|| lane.community().lookup(q))
            .flatten()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under the install-before-replay contract, the production split —
    /// a one-user `PopulationLane` over a frozen `CommunityCache` —
    /// reproduces the flat `PocketCache` bit for bit in every cache
    /// mode, for arbitrary install sets and clicked-event scripts: the
    /// same hit or miss per event, and the same ranked results, scores
    /// and accessed bits before and after every click.
    #[test]
    fn population_lane_is_bit_identical_to_flattened(
        installs in proptest::collection::vec((0u64..16, 100u64..112, 0.0f32..1.0), 0..24),
        script in proptest::collection::vec((0u64..16, 100u64..112), 1..60),
    ) {
        let policy = RankingPolicy::default();
        let mut table = QueryHashTable::new();
        for &(q, r, score) in &installs {
            table.upsert(q, r, score, ConflictPolicy::Max);
        }
        let community = Arc::new(CommunityCache::new(&table, policy));
        // Request key `i` resolves to the script's `i`-th clicked pair.
        let pairs = Arc::new(PairTable::new(script.clone()));
        for mode in CacheMode::ALL {
            let mut flat = PocketCache::new(mode, policy);
            for &(q, r, score) in &installs {
                flat.install_pair(q, r, score);
            }
            let config = PopulationConfig { mode, ..PopulationConfig::default() };
            let mut lane = PopulationLane::new(config, Arc::clone(&community), Arc::clone(&pairs));
            for (step, &(q, r)) in script.iter().enumerate() {
                let expected = flat.lookup(q);
                prop_assert_eq!(
                    &split_view(&lane, USER, q), &expected,
                    "view diverged before click {} ({:?})", step, mode
                );
                let request = ServeRequest::for_user(USER, step as u64, SimInstant::ZERO);
                let served = lane.serve(&request).expect("every script key resolves");
                prop_assert_eq!(
                    served.kind == ServeKind::Hit, expected.is_some(),
                    "hit/miss diverged at event {} ({:?})", step, mode
                );
                flat.record_click(q, r);
                prop_assert_eq!(
                    split_view(&lane, USER, q), flat.lookup(q),
                    "view diverged after click {} ({:?})", step, mode
                );
            }
        }
    }
}

/// A user-routed population front-end like the ablation study's: every
/// lane shares one `Arc`'d community snapshot and pair directory.
fn frontend_over(config: GeneratorConfig, seed: u64, lanes: usize) -> Frontend {
    let world = population_world(config, seed, 0.55);
    let services: Vec<Box<dyn CloudletService + Send + Sync>> = (0..lanes)
        .map(|_| {
            Box::new(PopulationLane::new(
                PopulationConfig::default(),
                Arc::clone(&world.community),
                Arc::clone(&world.pairs),
            )) as Box<dyn CloudletService + Send + Sync>
        })
        .collect();
    let front = FrontendConfig::builder()
        .route_by(RouteBy::User)
        .coalescing(false)
        .overflow(OverflowPolicy::Park)
        .build();
    Frontend::new(vec![services], front)
}

/// The tentpole's serving-equivalence proof at 64 users: driving the
/// population front-end epoch-by-epoch from the lazy stream produces
/// telemetry — per-lane front-end totals and resident delta bytes —
/// bit-identical to replaying the materialized month as one batch.
#[test]
fn streamed_day_reproduces_materialized_serve_stats() {
    let config = GeneratorConfig {
        n_users: 64,
        ..GeneratorConfig::test_scale()
    };
    let seed = 20;

    let baseline = frontend_over(config, seed, 4);
    let requests: Vec<ServeRequest> = materialized_month_requests(&LogGenerator::new(config, seed));
    assert!(!requests.is_empty());
    baseline
        .serve_batch(&requests)
        .expect("materialized batch serves");

    let streamed = frontend_over(config, seed, 4);
    let mut generator = LogGenerator::new(config, seed);
    let mut epochs = 0usize;
    for batch in generator.stream_month_chunked(4) {
        if !batch.entries.is_empty() {
            streamed
                .serve_batch(&population_requests(&batch))
                .expect("epoch batch serves");
        }
        epochs += 1;
    }
    assert_eq!(epochs, 28 * 4, "every epoch of the month is visited");

    let a = baseline.telemetry();
    let b = streamed.telemetry();
    assert_eq!(a, b, "streamed telemetry must match the materialized run");
    assert!(a.aggregate().hits > 0, "the community warm start hits");
    assert!(
        a.lanes.iter().map(|l| l.cache_bytes).sum::<u64>() > 0,
        "clicks materialize per-user deltas"
    );
}
