//! Multi-cloudlet integration (§7): search, ads, and web content sharing
//! one device — budgets, coordinated eviction, and access isolation
//! working together over real cache state.

use pocket_cloudlets::core::coordination::{
    AccessControl, BudgetDemand, CloudletBudgets, CloudletId, CoordinatedEviction,
};
use pocket_cloudlets::pocketsearch::advert::{AdCloudlet, AdOutcome, AdRecord};
use pocket_cloudlets::pocketweb::policy::RefreshPolicy;
use pocket_cloudlets::pocketweb::VisitOutcome;
use pocket_cloudlets::prelude::*;

const SEARCH: CloudletId = CloudletId(0);
const ADS: CloudletId = CloudletId(1);
const WEB: CloudletId = CloudletId(2);

fn build_search_engine(seed: u64) -> (LogGenerator, CacheContents, Catalog, PocketSearch) {
    let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), seed);
    let log = generator.generate_month();
    let triplets = TripletTable::from_log(&log);
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
fn ad_cloudlet_piggybacks_on_search_hits_only() {
    let (_, contents, _, mut search) = build_search_engine(60);
    let mut ads = AdCloudlet::new();
    // Sell ads against the ten most popular queries.
    for (i, pair) in contents.pairs().iter().take(10).enumerate() {
        ads.install(
            pair.query_hash,
            AdRecord {
                ad_hash: 9_000 + i as u64,
                banner_bytes: 5_000,
                caption: format!("sponsored #{i}"),
            },
        );
    }

    // A popular query: search hits, the ad shows, no radio at all.
    let q = contents.pairs()[0].query_hash;
    let served = search.serve(q);
    assert!(served.hit);
    let shown = ads.serve(q, served.hit);

    // An unknown query: search misses, and §7 says don't even consult the
    // ad cache — the radio is waking anyway.
    let served = search.serve(0xBAD_F00D);
    assert!(!served.hit);
    let skipped = ads.serve(0xBAD_F00D, served.hit);

    // One ad shown, none missed, one consultation skipped.
    let outcomes = [shown, skipped];
    assert!(
        matches!(outcomes, [AdOutcome::Hit(_), AdOutcome::Skipped]),
        "{outcomes:?}"
    );
}

#[test]
fn coordinated_eviction_clears_all_cloudlets_together() {
    let (_, contents, _, search) = build_search_engine(61);
    let mut ads = AdCloudlet::new();
    let mut eviction = CoordinatedEviction::new();

    let victim = contents.pairs()[3];
    ads.install(
        victim.query_hash,
        AdRecord {
            ad_hash: 1,
            banner_bytes: 5_000,
            caption: "evict me".into(),
        },
    );
    eviction.link(victim.query_hash, SEARCH, victim.result_hash);
    ads.link_evictions(&mut eviction, ADS);

    // The OS decides this query's group must go.
    let mut search = search;
    let group = eviction.evict(victim.query_hash);
    assert!(group.len() >= 2, "both cloudlets registered under the key");
    for (who, _) in &group {
        match *who {
            SEARCH => {
                // Drop the pair from the search cache table.
                let mut table = search.cache().table().clone();
                table.retain_pairs(|q, _, _, _| q != victim.query_hash);
                search.cache_mut().replace_table(table);
            }
            ADS => {
                ads.evict_query(victim.query_hash);
            }
            other => panic!("unexpected cloudlet {other}"),
        }
    }
    assert!(!search.serve(victim.query_hash).hit);
    assert_eq!(ads.serve(victim.query_hash, true), AdOutcome::Miss);
}

#[test]
fn device_budget_feeds_every_cloudlet_fairly() {
    let (_, contents, _, _) = build_search_engine(62);
    let mut budgets = CloudletBudgets::new(1_000_000);
    budgets.register(BudgetDemand {
        cloudlet: SEARCH,
        demand_bytes: contents.dram_bytes(),
        priority: 3.0,
    });
    budgets.register(BudgetDemand {
        cloudlet: ADS,
        demand_bytes: contents.dram_bytes() / 4,
        priority: 1.0,
    });
    budgets.register(BudgetDemand {
        cloudlet: WEB,
        demand_bytes: 10_000_000, // wants far more than exists
        priority: 2.0,
    });
    let alloc = budgets.allocate();
    assert_eq!(
        alloc[&SEARCH],
        contents.dram_bytes(),
        "search demand fully met"
    );
    assert_eq!(alloc[&ADS], contents.dram_bytes() / 4);
    assert_eq!(
        alloc.values().sum::<usize>(),
        1_000_000,
        "leftover flows to the starving web cloudlet"
    );
}

#[test]
fn isolation_blocks_cross_cloudlet_reads() {
    let mut acl = AccessControl::new();
    acl.grant(ADS, SEARCH); // ads may key off search queries
    assert!(acl.can_access(ADS, SEARCH));
    assert!(
        !acl.can_access(WEB, SEARCH),
        "maps/web must not see searches"
    );
    assert!(!acl.can_access(SEARCH, ADS), "grants are directional");
}

#[test]
fn web_and_search_cloudlets_coexist_on_one_device_story() {
    // The §3 vision: search results come from PocketSearch, the pages
    // they point to come from PocketWeb — zero radio for the hot path.
    let (_, contents, _, mut search) = build_search_engine(63);
    let world = WebWorld::generate(WorldConfig::test_scale(), 63);
    let mut web = PocketWeb::new(&world, RefreshPolicy::RealtimeTopK { k: 10 });

    // Overnight, the pages behind the top search results are prefetched.
    let now = pocket_cloudlets::mobsim::time::SimInstant::ZERO;
    for page in world.pages().iter().take(20) {
        web.prefetch(&world, page.id, now);
    }

    let q = contents.pairs()[0].query_hash;
    let served = search.serve(q);
    assert!(served.hit, "search result page comes from the pocket");
    let landing = world.pages()[0].id;
    assert!(
        web.visit(&world, landing, now) == VisitOutcome::InstantHit,
        "landing page comes from the pocket too"
    );
}
