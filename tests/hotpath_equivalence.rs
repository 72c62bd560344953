//! Hot path equivalence: the immutable `FrozenTable` serve index and
//! everything built on it must be **bit-identical** to the mutable
//! table it images — same hits, same misses, same result ordering,
//! same accessed flags, same statistics. Each property runs 256 random
//! cases:
//!
//! * `FrozenTable::lookup` vs `QueryHashTable::lookup`, for the index
//!   as first built and for a rebuild after further random writes;
//! * `FrozenTable::top_two` and `QueryHashTable::top_two` vs the
//!   table's lookup cut to two, on long chains of tied scores;
//! * `PopulationLane`'s read-only fast path vs its write path, with
//!   the fast-path outcomes merged into external stats the way the
//!   front-end's lane counters do it.

use std::sync::Arc;

use proptest::prelude::*;

use pocket_cloudlets::core::cache::{CacheMode, CommunityCache};
use pocket_cloudlets::core::hashtable::frozen::FrozenTable;
use pocket_cloudlets::core::hashtable::{ConflictPolicy, QueryHashTable, TopTwo};
use pocket_cloudlets::core::population::{PairTable, PopulationConfig, PopulationLane};
use pocket_cloudlets::core::ranking::RankingPolicy;
use pocket_cloudlets::core::service::{CloudletService, ServeRequest, ServeStats};
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

    /// The lock-free frozen index returns exactly what the mutable
    /// table returns — for the table as first built, and for a rebuild
    /// after further random upserts and `mark_accessed` calls.
    #[test]
    fn sharded_lockfree_lookup_is_bit_identical_to_locked(
        initial in proptest::collection::vec(table_op(), 0..60),
        later in proptest::collection::vec(table_op(), 0..30),
    ) {
        let mut flat = QueryHashTable::new();
        for op in &initial {
            apply_flat(&mut flat, op);
        }
        let index = FrozenTable::from_table(&flat);
        prop_assert_eq!(index.pair_count(), flat.pair_count());
        prop_assert_eq!(index.entry_count(), flat.entry_count());
        for query in 0..44u64 {
            prop_assert_eq!(index.lookup(query), flat.lookup(query));
        }
        // An index is never written: further writes land in the mutable
        // table and a rebuild images them.
        for op in &later {
            apply_flat(&mut flat, op);
        }
        let rebuilt = FrozenTable::from_table(&flat);
        prop_assert_eq!(rebuilt.pair_count(), flat.pair_count());
        prop_assert_eq!(rebuilt.entry_count(), flat.entry_count());
        for query in 0..44u64 {
            prop_assert_eq!(rebuilt.lookup(query), flat.lookup(query));
        }
    }

    /// Both allocation-free top-two probes — the frozen index's and the
    /// mutable table's — return the first two results of the full
    /// lookup. Scores come from two values and chains run several
    /// entries deep, so most rankings are settled by the result hash
    /// tie-break, wherever in the chain the tied results sit.
    #[test]
    fn top_two_is_the_lookup_cut_to_two_under_tied_scores(
        pairs in proptest::collection::vec((0u64..6, 0u64..10, 1u32..=2, any::<bool>()), 0..60),
    ) {
        let mut flat = QueryHashTable::new();
        for (q, r, s, accessed) in &pairs {
            // Result hashes run against insertion order, so the chain
            // order and the tie-break order differ.
            let result = 1_000 - q * 10 - r;
            flat.upsert(*q, result, *s as f32 / 4.0, ConflictPolicy::Max);
            if *accessed {
                flat.mark_accessed(*q, result).expect("pair was just inserted");
            }
        }
        let index = FrozenTable::from_table(&flat);
        let listed = |top: Option<TopTwo>| {
            top.map(|(best, second)| std::iter::once(best).chain(second).collect::<Vec<_>>())
        };
        for query in 0..8u64 {
            let expected = flat
                .lookup(query)
                .map(|rs| rs.into_iter().take(2).collect::<Vec<_>>());
            prop_assert_eq!(listed(index.top_two(query)), expected.clone());
            prop_assert_eq!(listed(flat.top_two(query)), expected);
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
        let mut table = QueryHashTable::new();
        let mut key_pairs = Vec::new();
        for (q, r, s) in &pairs {
            let result = 1_000 + q * 10 + r;
            table.upsert(*q, result, *s as f32 / 1000.0, ConflictPolicy::Max);
            key_pairs.push((*q, result));
        }
        let community = Arc::new(CommunityCache::new(&table, RankingPolicy::default()));
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
