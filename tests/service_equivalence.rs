//! Service-layer equivalence: for every cloudlet, serving a workload
//! through the unified [`CloudletService`] trait must return, request by
//! request, the outcome its legacy serve loop produces on the same
//! seeded workload, and leave the cloudlet's own counters where the
//! legacy loop leaves them — the refactor's "no observable behavior
//! change" contract, checked property-style (256 cases per cloudlet).
//!
//! The file ends with the heterogeneous acceptance test: one
//! [`Frontend`] mixing search, web, and maps lanes across eight lanes,
//! whose aggregate hit count equals the sum of the three legacy loops
//! run sequentially.

use std::sync::OnceLock;

use proptest::prelude::*;

use pocket_cloudlets::core::contentgen::{AdmissionPolicy, CacheContents};
use pocket_cloudlets::core::corpus::UniverseCorpus;
use pocket_cloudlets::core::frontend::{Frontend, FrontendConfig};
use pocket_cloudlets::core::service::{CloudletService, ServeOutcome, ServeRequest};
use pocket_cloudlets::mobsim::time::{SimDuration, SimInstant};
use pocket_cloudlets::pocketmaps::grid::TileGrid;
use pocket_cloudlets::pocketmaps::{PocketMaps, TileId};
use pocket_cloudlets::pocketsearch::advert::{AdCloudlet, AdOutcome, AdRecord};
use pocket_cloudlets::pocketsearch::config::PocketSearchConfig;
use pocket_cloudlets::pocketsearch::engine::{Catalog, PocketSearch};
use pocket_cloudlets::pocketsearch::fleet::SearchShard;
use pocket_cloudlets::pocketweb::world::{PageId, WebWorld};
use pocket_cloudlets::pocketweb::{
    PocketWeb, RefreshPolicy, VisitOutcome, WebService, WorldConfig,
};
use pocket_cloudlets::querylog::generator::{GeneratorConfig, LogGenerator};
use pocket_cloudlets::querylog::triplets::TripletTable;

/// One shared search engine (expensive to build); serving runs on
/// clones, so sharing is sound.
fn shared_engine() -> &'static (PocketSearch, Vec<u64>) {
    static ENGINE: OnceLock<(PocketSearch, Vec<u64>)> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 41);
        let month = generator.generate_month();
        let triplets = TripletTable::from_log(&month);
        let contents = CacheContents::generate(
            &triplets,
            &UniverseCorpus::new(generator.universe()),
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        let catalog = Catalog::new(generator.universe());
        let engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let cached = contents.pairs().iter().map(|p| p.query_hash).collect();
        (engine, cached)
    })
}

/// One shared simulated web; cloudlets serving it are built per case.
fn shared_world() -> &'static WebWorld {
    static WORLD: OnceLock<WebWorld> = OnceLock::new();
    WORLD.get_or_init(|| WebWorld::generate(WorldConfig::test_scale(), 43))
}

proptest! {
    /// Search: the trait path wraps the sequential engine, so each
    /// outcome must equal the one reconstructed from a legacy
    /// `PocketSearch::serve` loop over the same keys in the same order
    /// (radio warm-up state and all).
    #[test]
    fn search_trait_stats_match_legacy_serve_loop(
        raw in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..24),
    ) {
        let (engine, cached) = shared_engine();
        let keys: Vec<u64> = raw
            .iter()
            .map(|&(selector, from_cache)| {
                if from_cache {
                    cached[(selector % cached.len() as u64) as usize]
                } else {
                    selector | 1 << 63
                }
            })
            .collect();

        let mut legacy = engine.clone();
        let miss_bytes = {
            let c = legacy.device().config();
            c.request_bytes + c.response_bytes
        };
        let expected: Vec<ServeOutcome> = keys
            .iter()
            .map(|&key| {
                let served = legacy.serve(key);
                if served.hit {
                    ServeOutcome::hit()
                } else {
                    ServeOutcome::miss(miss_bytes)
                }
                .with_service(served.report.total_time)
            })
            .collect();

        let mut unified = engine.clone();
        let outcomes: Vec<ServeOutcome> = keys
            .iter()
            .map(|&key| {
                CloudletService::serve(&mut unified, &ServeRequest::for_user(0, key, SimInstant::ZERO))
                    .expect("search serve is infallible on valid state")
            })
            .collect();
        prop_assert_eq!(outcomes, expected);
    }

    /// Web: serving page keys through [`WebService`] must answer each
    /// visit as a legacy `visit` loop does and leave the cloudlet with
    /// exactly the counters that loop leaves, including stale refetches
    /// driven by simulated time.
    #[test]
    fn web_trait_stats_match_legacy_visit_loop(
        raw in proptest::collection::vec((any::<u64>(), 0u64..10_000), 1..24),
    ) {
        let world = shared_world();
        let n_pages = world.pages().len() as u64;
        let visits: Vec<(PageId, SimInstant)> = raw
            .iter()
            .map(|&(selector, minutes)| {
                (
                    PageId((selector % n_pages) as u32),
                    SimInstant::ZERO + SimDuration::from_secs(minutes * 60),
                )
            })
            .collect();

        let mut legacy = PocketWeb::new(world, RefreshPolicy::OvernightOnly);
        let expected: Vec<ServeOutcome> = visits
            .iter()
            .map(|&(page, at)| match legacy.visit(world, page, at) {
                VisitOutcome::InstantHit => ServeOutcome::hit(),
                VisitOutcome::StaleRefetch { bytes } => ServeOutcome::stale_hit(bytes),
                VisitOutcome::Miss { bytes } => ServeOutcome::miss(bytes),
            })
            .collect();

        let mut unified = WebService::new(
            world.clone(),
            PocketWeb::new(world, RefreshPolicy::OvernightOnly),
        );
        let outcomes: Vec<ServeOutcome> = visits
            .iter()
            .map(|&(page, at)| {
                unified
                    .serve(&ServeRequest::for_user(0, WebService::key_of(page), at))
                    .expect("in-range page keys serve")
            })
            .collect();

        prop_assert_eq!(outcomes, expected);
        prop_assert_eq!(unified.web().stats(), legacy.stats());
    }

    /// Maps: serving packed tile keys must render exactly the viewports
    /// a legacy `render_viewport` loop renders, with identical
    /// hit/miss/radio accounting.
    #[test]
    fn maps_trait_stats_match_legacy_render_loop(
        raw in proptest::collection::vec((-40i32..40, -40i32..40), 1..24),
    ) {
        let grid = TileGrid::paper_default();
        let tiles: Vec<TileId> = raw.iter().map(|&(x, y)| TileId { x, y }).collect();

        let mut legacy = PocketMaps::new(grid, 10_000_000);
        let expected: Vec<ServeOutcome> = tiles
            .iter()
            .map(|&tile| {
                let render = legacy.render_viewport(grid.tile_center(tile));
                if render.instant() {
                    ServeOutcome::hit()
                } else {
                    ServeOutcome::miss(u64::from(render.misses) * grid.tile_bytes)
                }
            })
            .collect();

        let mut unified = PocketMaps::new(grid, 10_000_000);
        let outcomes: Vec<ServeOutcome> = tiles
            .iter()
            .map(|&tile| {
                CloudletService::serve(&mut unified, &ServeRequest::for_user(0, tile.to_key(), SimInstant::ZERO))
                    .expect("every u64 is a tile")
            })
            .collect();

        prop_assert_eq!(outcomes, expected);
        prop_assert_eq!(unified.stats(), legacy.stats());
    }

    /// Ads: the trait serve is a standalone consultation (search hit
    /// assumed), so it must match a legacy `serve(q, true)` loop over
    /// the same queries, creative for creative.
    #[test]
    fn ads_trait_stats_match_legacy_serve_loop(
        installs in proptest::collection::vec((0u64..64, any::<u64>()), 1..16),
        queries in proptest::collection::vec(0u64..96, 1..24),
    ) {
        let mut legacy = AdCloudlet::new();
        for &(query, ad_hash) in &installs {
            legacy.install(
                query,
                AdRecord {
                    ad_hash,
                    banner_bytes: 5_000,
                    caption: format!("creative {ad_hash}"),
                },
            );
        }
        let mut unified = legacy.clone();

        let legacy_outcomes: Vec<AdOutcome> =
            queries.iter().map(|&query| legacy.serve(query, true)).collect();
        let expected: Vec<ServeOutcome> = legacy_outcomes
            .iter()
            .map(|outcome| match outcome {
                AdOutcome::Hit(_) => ServeOutcome::hit(),
                AdOutcome::Miss => ServeOutcome::miss(0),
                AdOutcome::Skipped => ServeOutcome::skipped(),
            })
            .collect();
        let outcomes: Vec<ServeOutcome> = queries
            .iter()
            .map(|&query| {
                CloudletService::serve(&mut unified, &ServeRequest::for_user(0, query, SimInstant::ZERO))
                    .expect("ad serve is infallible")
            })
            .collect();

        // A consultation after a search hit is never skipped, and the
        // trait serve shows an ad exactly where the legacy loop did.
        prop_assert!(!legacy_outcomes.contains(&AdOutcome::Skipped));
        prop_assert_eq!(outcomes, expected);
    }
}

/// The heterogeneous acceptance test: a baseline [`Frontend`] with six
/// search shards, one web lane, and one maps lane — eight lanes in
/// three service groups — whose aggregate hit count equals the sum of
/// the three legacy serve loops run sequentially on the same workload.
#[test]
fn heterogeneous_router_matches_sum_of_legacy_loops() {
    const SEARCH: u32 = 0;
    const WEB: u32 = 1;
    const MAPS: u32 = 2;

    let (engine, cached) = shared_engine();
    let world = shared_world();
    let grid = TileGrid::paper_default();

    // The mixed workload: interleaved search queries (hot cached head
    // plus guaranteed tail misses), web page visits, and map viewports.
    let mut events = Vec::new();
    for i in 0..240u64 {
        match i % 3 {
            0 => {
                let key = if i % 9 == 0 {
                    u64::MAX - i // not in any cache: a radio miss
                } else {
                    cached[(i as usize * 7) % cached.len()]
                };
                events.push(ServeRequest::new(i, SEARCH, key, SimInstant::ZERO));
            }
            1 => {
                let page = PageId((i % world.pages().len() as u64) as u32);
                let at = SimInstant::ZERO + SimDuration::from_secs(i * 30);
                events.push(ServeRequest::new(i, WEB, WebService::key_of(page), at));
            }
            _ => {
                let tile = TileId {
                    x: (i % 11) as i32 - 5,
                    y: (i % 7) as i32 - 3,
                };
                events.push(ServeRequest::new(i, MAPS, tile.to_key(), SimInstant::ZERO));
            }
        }
    }

    // Legacy loop 1: the sequential search engine.
    let mut legacy_search = engine.clone();
    let search_hits = events
        .iter()
        .filter(|e| e.service == SEARCH)
        .filter(|e| legacy_search.serve(e.key).hit)
        .count() as u64;

    // Legacy loop 2: the web cloudlet's visit path.
    let mut legacy_web = PocketWeb::new(world, RefreshPolicy::OvernightOnly);
    for e in events.iter().filter(|e| e.service == WEB) {
        legacy_web.visit(world, PageId(e.key as u32), e.at);
    }
    let web_hits = legacy_web.stats().instant_hits;

    // Legacy loop 3: the maps cloudlet's render path.
    let mut legacy_maps = PocketMaps::new(grid, 10_000_000);
    for e in events.iter().filter(|e| e.service == MAPS) {
        legacy_maps.render_viewport(grid.tile_center(TileId::from_key(e.key)));
    }
    let maps_hits = legacy_maps.stats().instant_renders;

    // The unified fleet: 6 search shards + 1 web + 1 maps = 8 lanes.
    let (_table, shards) = SearchShard::fleet_of(engine, 6);
    let search_lanes: Vec<Box<dyn CloudletService + Send + Sync>> = shards
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn CloudletService + Send + Sync>)
        .collect();
    let frontend = Frontend::new(
        vec![
            search_lanes,
            vec![Box::new(WebService::new(
                world.clone(),
                PocketWeb::new(world, RefreshPolicy::OvernightOnly),
            ))],
            vec![Box::new(PocketMaps::new(grid, 10_000_000))],
        ],
        FrontendConfig::pr3_baseline(),
    );
    assert_eq!(frontend.lane_count(), 8);
    assert_eq!(frontend.group_count(), 3);

    let report = frontend.serve_batch(&events).expect("mixed batch").report;

    let legacy_hits = search_hits + web_hits + maps_hits;
    assert_eq!(report.totals().events, events.len() as u64);
    assert_eq!(report.totals().errors, 0);
    assert_eq!(
        report.totals().hits,
        legacy_hits,
        "aggregate hits must equal the sum of the three legacy loops"
    );
    assert_eq!(
        report.totals().hit_rate(),
        legacy_hits as f64 / events.len() as f64,
        "hit ratio matches exactly"
    );
    assert!(
        report.totals().hits > 0 && report.totals().misses > 0,
        "both paths exercised"
    );

    // Per-group sanity: lane names partition as declared.
    assert_eq!(frontend.lane_name(0), "search");
    assert_eq!(frontend.lane_name(6), "web");
    assert_eq!(frontend.lane_name(7), "maps");
}
