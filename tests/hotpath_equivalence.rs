//! Hot path equivalence: the immutable `FrozenTable` serve index and
//! everything built on it must be **bit-identical** to the mutable
//! table it images — same hits, same misses, same result ordering,
//! same accessed flags, same statistics. Each property runs 256 random
//! cases:
//!
//! * `ShardedTable::lookup` vs the flat unsharded table, for the table
//!   as first built and for a rebuild after further random writes;
//! * `SplitCache` (community half served by the index) vs a flat
//!   `PocketCache` over the same click stream, in all three
//!   [`CacheMode`]s;
//! * `PopulationLane`'s read-only fast path vs its write path, with
//!   the fast-path outcomes merged into external stats the way the
//!   front-end's lane counters do it.

use proptest::prelude::*;

use pocket_cloudlets::core::cache::{CacheMode, CommunityCache, PocketCache, SplitCache};
use pocket_cloudlets::core::hashtable::{ConflictPolicy, QueryHashTable};
use pocket_cloudlets::core::population::{PairTable, PopulationConfig, PopulationLane};
use pocket_cloudlets::core::ranking::RankingPolicy;
use pocket_cloudlets::core::service::{CloudletService, ServeRequest, ServeStats};
use pocket_cloudlets::core::shard::ShardedTable;
use pocket_cloudlets::mobsim::time::SimInstant;

/// One randomized table mutation.
#[derive(Debug, Clone)]
enum TableOp {
    Upsert { query: u64, result: u64, score: f32 },
    MarkAccessed { query: u64, result: u64 },
}

/// Small key domains so collisions (same query, same pair, chain
/// growth past one entry) actually happen within 256 cases.
fn table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        4 => (0u64..40, 0u64..8, 0u32..=1000).prop_map(|(q, r, s)| TableOp::Upsert {
            query: q,
            result: 1_000 + q * 10 + r,
            score: s as f32 / 1000.0,
        }),
        1 => (0u64..40, 0u64..8).prop_map(|(q, r)| TableOp::MarkAccessed {
            query: q,
            result: 1_000 + q * 10 + r,
        }),
    ]
}

fn apply_flat(table: &mut QueryHashTable, op: &TableOp) {
    match op {
        TableOp::Upsert {
            query,
            result,
            score,
        } => {
            table.upsert(*query, *result, *score, ConflictPolicy::Max);
        }
        TableOp::MarkAccessed { query, result } => {
            // Marking a missing pair is a no-op on both paths.
            let _ = table.mark_accessed(*query, *result);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sharded index returns exactly what the flat table returns —
    /// for the table as first built, and for a rebuild after further
    /// random upserts and `mark_accessed` calls.
    #[test]
    fn sharded_lockfree_lookup_is_bit_identical_to_locked(
        initial in proptest::collection::vec(table_op(), 0..60),
        later in proptest::collection::vec(table_op(), 0..30),
        shards in 1usize..6,
    ) {
        let mut flat = QueryHashTable::new();
        for op in &initial {
            apply_flat(&mut flat, op);
        }
        let sharded = ShardedTable::from_table(&flat, shards);
        for query in 0..44u64 {
            prop_assert_eq!(sharded.lookup(query), flat.lookup(query));
        }
        // An index is never written: further writes land in the flat
        // table and a rebuild images them.
        for op in &later {
            apply_flat(&mut flat, op);
        }
        let rebuilt = ShardedTable::from_table(&flat, shards);
        prop_assert_eq!(rebuilt.pair_count(), flat.pair_count());
        prop_assert_eq!(rebuilt.entry_count(), flat.entry_count());
        for query in 0..44u64 {
            prop_assert_eq!(rebuilt.lookup(query), flat.lookup(query));
        }
    }

    /// A `SplitCache` (community half behind the shared index)
    /// serves the same outcomes and counts the same stats as a flat
    /// `PocketCache` over the same serve/click stream, in every mode.
    #[test]
    fn split_cache_matches_pocket_cache_in_every_mode(
        pairs in proptest::collection::vec((0u64..30, 0u64..6, 0u32..=1000), 1..40),
        stream in proptest::collection::vec((0u64..34, 0u64..6, any::<bool>()), 0..60),
    ) {
        for mode in CacheMode::ALL {
            let mut community = CommunityCache::new(RankingPolicy::default());
            let mut pocket = PocketCache::new(mode, RankingPolicy::default());
            for (q, r, s) in &pairs {
                let result = 1_000 + q * 10 + r;
                let score = *s as f32 / 1000.0;
                community.install_pair(*q, result, score);
                pocket.install_pair(*q, result, score);
            }
            let mut split = SplitCache::new(mode, community.into_shared());
            for (q, r, click) in &stream {
                let split_out = split.serve(*q);
                let pocket_out = pocket.serve(*q);
                prop_assert_eq!(&split_out.hit, &pocket_out.hit, "mode {:?}", mode);
                prop_assert_eq!(&split_out.results, &pocket_out.results, "mode {:?}", mode);
                if *click {
                    if let Some(first) = split_out.results.first() {
                        // Click something actually served when possible,
                        // otherwise a cold pair — both paths get the same.
                        split.record_click(*q, first.result_hash);
                        pocket.record_click(*q, first.result_hash);
                    } else {
                        split.record_click(*q, 1_000 + q * 10 + r);
                        pocket.record_click(*q, 1_000 + q * 10 + r);
                    }
                }
            }
            prop_assert_eq!(split.stats().hits, pocket.stats().hits, "mode {:?}", mode);
            prop_assert_eq!(split.stats().misses, pocket.stats().misses, "mode {:?}", mode);
        }
    }

    /// The population lane's shared-access fast path, with fast-path
    /// outcomes recorded externally (the front-end's counter pattern),
    /// reproduces the write path's outcomes and aggregate stats.
    #[test]
    fn population_fast_path_plus_external_stats_matches_write_path(
        pairs in proptest::collection::vec((0u64..24, 0u64..5, 0u32..=1000), 1..30),
        stream in proptest::collection::vec((0u64..4, 0u64..40), 0..80),
        mode_idx in 0usize..3,
    ) {
        let mode = CacheMode::ALL[mode_idx];
        let mut community = CommunityCache::new(RankingPolicy::default());
        let mut key_pairs = Vec::new();
        for (q, r, s) in &pairs {
            let result = 1_000 + q * 10 + r;
            community.install_pair(*q, result, *s as f32 / 1000.0);
            key_pairs.push((*q, result));
        }
        let community = community.into_shared();
        let pair_table = PairTable::new(key_pairs).into_shared();
        let config = PopulationConfig { mode, ..PopulationConfig::default() };

        let mut write_lane =
            PopulationLane::new(config, community.clone(), pair_table.clone());
        let mut fast_lane = PopulationLane::new(config, community, pair_table);
        let mut external = ServeStats::default();
        let now = SimInstant::ZERO;
        for (user, key) in &stream {
            let request = ServeRequest::for_user(*user, *key, now);
            let expected = write_lane.serve(&request);
            match fast_lane.try_serve_hit(&request) {
                Some(outcome) => {
                    // The fast path may only answer pure hits, and must
                    // answer them exactly as the write path would.
                    prop_assert_eq!(Ok(&outcome), expected.as_ref());
                    prop_assert!(outcome.radio_slept());
                    external.record(&outcome);
                }
                None => {
                    let fallback = fast_lane.serve(&request);
                    prop_assert_eq!(&fallback, &expected);
                }
            }
        }
        let mut merged = fast_lane.service_stats();
        merged.merge(&external);
        prop_assert_eq!(merged, write_lane.service_stats());
    }
}
