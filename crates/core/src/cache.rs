//! The on-device cache state machine (Figure 6).
//!
//! The PocketSearch cache has two interrelated components: the
//! **community** component — query/result pairs mined from everyone's
//! logs, installed as a warm start — and the **personalization**
//! component, which expands the cache with pairs this user selects after
//! misses and re-ranks results from their clicks (§5.3). [`CacheMode`]
//! exposes the Figure 17 ablations: community-only (no expansion, no
//! re-ranking) and personalization-only (starts empty).
//!
//! [`PocketCache`] *flattens* both components into the device's one §5.2
//! table — right for a single handset, ruinous for a simulated
//! population, where the community component would be duplicated per
//! user. There the §4 split is structure: one frozen [`CommunityCache`]
//! (`Arc`-shared by every user and lane, probed through its one
//! [`FrozenTable`] index) under a compact copy-on-write [`PersonalDelta`]
//! per user. [`crate::population::PopulationLane`] composes the two:
//! lookups go delta-then-community and clicks fold into the delta only.
//! Under install-before-replay the split reproduces the flat cache's
//! hit/miss sequence, scores and accessed bits bit for bit, in every
//! mode (`tests/population_stream.rs`).

use serde::{Deserialize, Serialize};

use crate::contentgen::CacheContents;
use crate::hashtable::frozen::FrozenTable;
use crate::hashtable::{ConflictPolicy, QueryHashTable, ScoredResult};
use crate::ranking::RankingPolicy;

/// Which cache components are active (Figure 17's three configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheMode {
    /// Community warm start plus personalization (the shipping config).
    Full,
    /// Community entries only: user selections are never added and scores
    /// never re-ranked.
    CommunityOnly,
    /// Personalization only: the cache starts empty and fills from the
    /// user's own clicks.
    PersonalizationOnly,
}

impl CacheMode {
    /// All modes, in Figure 17's legend order.
    pub const ALL: [CacheMode; 3] = [
        CacheMode::Full,
        CacheMode::CommunityOnly,
        CacheMode::PersonalizationOnly,
    ];

    /// Whether lookups consult the shared community component.
    pub fn community_enabled(self) -> bool {
        matches!(self, CacheMode::Full | CacheMode::CommunityOnly)
    }

    /// Whether user clicks fold into the personalization component.
    pub fn personalization_enabled(self) -> bool {
        matches!(self, CacheMode::Full | CacheMode::PersonalizationOnly)
    }
}

impl std::fmt::Display for CacheMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheMode::Full => write!(f, "community + personalization"),
            CacheMode::CommunityOnly => write!(f, "community only"),
            CacheMode::PersonalizationOnly => write!(f, "personalization only"),
        }
    }
}

/// The generic pocket-cloudlet cache.
///
/// # Example
///
/// ```
/// use cloudlet_core::cache::{CacheMode, PocketCache};
/// use cloudlet_core::ranking::RankingPolicy;
///
/// let mut cache = PocketCache::new(CacheMode::Full, RankingPolicy::default());
/// assert!(cache.lookup(42).is_none());
/// // The user clicked a result for that query over the radio: the
/// // personalization component caches it for next time.
/// cache.record_click(42, 1000);
/// assert!(cache.lookup(42).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PocketCache {
    mode: CacheMode,
    table: QueryHashTable,
    policy: RankingPolicy,
}

impl PocketCache {
    /// An empty cache in the given mode.
    pub fn new(mode: CacheMode, policy: RankingPolicy) -> Self {
        PocketCache {
            mode,
            table: QueryHashTable::new(),
            policy,
        }
    }

    /// The active mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The ranking policy.
    pub fn policy(&self) -> &RankingPolicy {
        &self.policy
    }

    /// Read access to the underlying hash table.
    pub fn table(&self) -> &QueryHashTable {
        &self.table
    }

    /// Replaces the underlying hash table (update protocol client side).
    pub fn replace_table(&mut self, table: QueryHashTable) {
        self.table = table;
    }

    /// Installs one community pair. Ignored in personalization-only mode
    /// (Figure 17's empty-start configuration).
    pub fn install_pair(&mut self, query_hash: u64, result_hash: u64, score: f32) {
        if self.mode.community_enabled() {
            self.table
                .upsert(query_hash, result_hash, score, ConflictPolicy::Max);
        }
    }

    /// Installs a whole generated community cache.
    pub fn install_contents(&mut self, contents: &CacheContents) {
        for p in contents.pairs() {
            self.install_pair(p.query_hash, p.result_hash, p.score);
        }
    }

    /// Ranked results for a query, or `None` on a miss.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        self.table.lookup(query_hash)
    }

    /// Records the user's click on `(query, result)` and applies the §5.3
    /// personalization: the clicked pair gains a point (and is inserted at
    /// score 1 if it was missing), siblings decay, and the pair's
    /// user-accessed flag is set. A no-op in community-only mode.
    pub fn record_click(&mut self, query_hash: u64, result_hash: u64) {
        if !self.mode.personalization_enabled() {
            return;
        }
        let known = self
            .table
            .lookup(query_hash)
            .is_some_and(|rs| rs.iter().any(|r| r.result_hash == result_hash));
        if known {
            let policy = self.policy;
            self.table.update_scores(query_hash, |rh, score, _| {
                if rh == result_hash {
                    policy.clicked_update(score)
                } else {
                    policy.sibling_update(score)
                }
            });
        } else {
            // Cache-miss insertion: new entry at the maximum log score.
            let policy = self.policy;
            self.table
                .update_scores(query_hash, |_, score, _| policy.sibling_update(score));
            self.table.upsert(
                query_hash,
                result_hash,
                policy.miss_insert_score(),
                ConflictPolicy::Replace,
            );
        }
        // The pair was ensured present just above, so this cannot miss;
        // tolerate it anyway rather than panic on the serving path.
        let marked = self.table.mark_accessed(query_hash, result_hash);
        debug_assert!(marked.is_ok(), "pair was just ensured present");
    }
}

/// The shared community component of the §4 two-part model: query/result
/// pairs mined from everyone's logs, frozen into one [`FrozenTable`]
/// serve index at construction and `Arc`-shared across every user and
/// serving lane.
///
/// Nothing writes a built community cache — clicks fold into each user's
/// [`PersonalDelta`] instead, which is what makes one copy sufficient for
/// a million users. A refresh builds a new one.
///
/// # Example
///
/// ```
/// use cloudlet_core::cache::{CommunityCache, PersonalDelta};
/// use cloudlet_core::hashtable::{ConflictPolicy, QueryHashTable};
/// use cloudlet_core::ranking::RankingPolicy;
///
/// let mut table = QueryHashTable::new();
/// table.upsert(42, 1000, 0.7, ConflictPolicy::Max);
/// let community = CommunityCache::new(&table, RankingPolicy::default());
/// assert!(community.contains_query(42), "community warm start");
///
/// // Alice's click folds into her delta only: the shared snapshot, and
/// // so every other user's view, is unchanged.
/// let mut alice = PersonalDelta::new();
/// alice.record_click(community.policy(), Some(&community), 42, 2000);
/// assert!(alice.lookup(42).unwrap().iter().any(|r| r.result_hash == 2000));
/// assert!(!community.lookup(42).unwrap().iter().any(|r| r.result_hash == 2000));
/// ```
#[derive(Debug, Clone)]
pub struct CommunityCache {
    index: FrozenTable,
    policy: RankingPolicy,
}

impl CommunityCache {
    /// Freezes `table` — installed with [`ConflictPolicy::Max`], the
    /// §5.4 rule for server-state conflicts — into the shared snapshot.
    pub fn new(table: &QueryHashTable, policy: RankingPolicy) -> Self {
        CommunityCache {
            index: FrozenTable::from_table(table),
            policy,
        }
    }

    /// The ranking policy deltas layered on this snapshot will apply.
    pub fn policy(&self) -> &RankingPolicy {
        &self.policy
    }

    /// Ranked results for a query, if cached.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        self.index.lookup(query_hash)
    }

    /// Whether the snapshot holds any result for `query_hash`.
    pub fn contains_query(&self, query_hash: u64) -> bool {
        self.index.contains_query(query_hash)
    }

    /// Cached `(query, result)` pairs.
    pub fn pair_count(&self) -> usize {
        self.index.pair_count()
    }

    /// DRAM footprint of the one shared copy (§5.2 accounting).
    pub fn footprint_bytes(&self) -> usize {
        self.index.footprint_bytes()
    }
}

/// Accounting overhead per delta query entry: hash + length + flags.
const DELTA_ENTRY_OVERHEAD_BYTES: usize = 16;
/// Accounting bytes per delta result: 8-byte hash + 4-byte score +
/// 1-byte accessed flag.
const DELTA_RESULT_BYTES: usize = 13;

/// One query the user's personalization has touched, with the full
/// result list as this user now sees it (seeded copy-on-write from the
/// community snapshot on first click).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DeltaEntry {
    query_hash: u64,
    results: Vec<ScoredResult>,
}

/// The compact per-user personalization component of the §4 two-part
/// model.
///
/// A delta holds only the queries this user has clicked on — for a
/// typical user a few dozen entries — so a million users cost
/// O(users · clicked-queries), independent of both the community
/// snapshot size and the event count. First click on a query copies
/// that query's community results into the delta (copy-on-write); the
/// §5.3 re-ranking then runs entirely inside the delta, applying the
/// exact score arithmetic [`PocketCache::record_click`] applies, which
/// is what makes the split bit-compatible with the flattened cache.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PersonalDelta {
    /// Entries sorted by `query_hash` for binary-search lookup.
    entries: Vec<DeltaEntry>,
}

impl PersonalDelta {
    /// An empty delta (a user who has never clicked).
    pub fn new() -> Self {
        PersonalDelta::default()
    }

    /// Whether the delta shadows `query_hash`.
    pub fn contains_query(&self, query_hash: u64) -> bool {
        self.find(query_hash).is_ok()
    }

    /// Queries the delta shadows.
    pub fn query_count(&self) -> usize {
        self.entries.len()
    }

    /// `(query, result)` pairs resident in the delta.
    pub fn pair_count(&self) -> usize {
        self.entries.iter().map(|e| e.results.len()).sum()
    }

    /// Accounted resident bytes of this user's personalization state —
    /// the per-user term of the population memory model.
    pub fn footprint_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| DELTA_ENTRY_OVERHEAD_BYTES + e.results.len() * DELTA_RESULT_BYTES)
            .sum()
    }

    /// Ranked results for a query the delta shadows, in
    /// [`ScoredResult::rank_order`] like every other lookup.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        let idx = self.find(query_hash).ok()?;
        let mut out = self.entries[idx].results.clone();
        out.sort_by(ScoredResult::rank_order);
        Some(out)
    }

    /// Folds one click into the delta, seeding the touched query from
    /// `community` on first touch and then applying the §5.3 arithmetic:
    /// clicked pair +1 (inserted at the max log score if absent),
    /// siblings decay, accessed flag set.
    ///
    /// Returns the accounted bytes the click added to
    /// [`PersonalDelta::footprint_bytes`], so callers can keep a running
    /// total without re-walking the delta.
    pub fn record_click(
        &mut self,
        policy: &RankingPolicy,
        community: Option<&CommunityCache>,
        query_hash: u64,
        result_hash: u64,
    ) -> usize {
        let mut added = 0;
        let idx = match self.find(query_hash) {
            Ok(idx) => idx,
            Err(insert_at) => {
                // Copy-on-write: this user's view of the query starts as
                // the community's result list (empty if uncached there).
                let results = community
                    .and_then(|c| c.lookup(query_hash))
                    .unwrap_or_default();
                added += DELTA_ENTRY_OVERHEAD_BYTES + results.len() * DELTA_RESULT_BYTES;
                self.entries.insert(
                    insert_at,
                    DeltaEntry {
                        query_hash,
                        results,
                    },
                );
                insert_at
            }
        };
        let entry = &mut self.entries[idx];
        if let Some(clicked) = entry
            .results
            .iter_mut()
            .find(|r| r.result_hash == result_hash)
        {
            clicked.score = policy.clicked_update(clicked.score);
            clicked.accessed = true;
            let clicked_hash = result_hash;
            for r in entry.results.iter_mut() {
                if r.result_hash != clicked_hash {
                    r.score = policy.sibling_update(r.score);
                }
            }
        } else {
            for r in entry.results.iter_mut() {
                r.score = policy.sibling_update(r.score);
            }
            entry.results.push(ScoredResult {
                result_hash,
                score: policy.miss_insert_score(),
                accessed: true,
            });
            added += DELTA_RESULT_BYTES;
        }
        added
    }

    fn find(&self, query_hash: u64) -> Result<usize, usize> {
        self.entries
            .binary_search_by_key(&query_hash, |e| e.query_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{PairTable, PopulationConfig, PopulationLane};
    use crate::service::{CloudletService, ServeKind, ServeRequest};
    use mobsim::time::SimInstant;
    use std::sync::Arc;

    fn full() -> PocketCache {
        PocketCache::new(CacheMode::Full, RankingPolicy::default())
    }

    #[test]
    fn community_install_produces_hits() {
        let mut c = full();
        c.install_pair(1, 10, 0.6);
        c.install_pair(1, 11, 0.4);
        assert_eq!(c.lookup(1).expect("installed query hits").len(), 2);
    }

    #[test]
    fn personalization_only_ignores_community_installs() {
        let mut c = PocketCache::new(CacheMode::PersonalizationOnly, RankingPolicy::default());
        c.install_pair(1, 10, 0.6);
        assert!(c.lookup(1).is_none());
        // But the user's own click is cached.
        c.record_click(1, 10);
        assert!(c.lookup(1).is_some());
    }

    #[test]
    fn community_only_never_learns() {
        let mut c = PocketCache::new(CacheMode::CommunityOnly, RankingPolicy::default());
        c.record_click(1, 10);
        assert!(c.lookup(1).is_none());
        // Installed scores also stay frozen.
        c.install_pair(2, 20, 0.5);
        c.record_click(2, 20);
        assert_eq!(c.table().score(2, 20).unwrap(), 0.5);
    }

    #[test]
    fn clicks_rerank_results() {
        let mut c = full();
        c.install_pair(1, 10, 0.6);
        c.install_pair(1, 11, 0.4);
        // The user keeps choosing the lower-ranked result.
        for _ in 0..2 {
            c.record_click(1, 11);
        }
        let results = c.lookup(1).unwrap();
        assert_eq!(results[0].result_hash, 11, "clicked result must rise");
        assert!(results[0].accessed);
        assert!(!results[1].accessed);
    }

    #[test]
    fn miss_click_inserts_at_score_one() {
        let mut c = full();
        c.record_click(7, 70);
        assert_eq!(c.table().score(7, 70).unwrap(), 1.0);
        assert!(c.lookup(7).unwrap()[0].accessed);
    }

    #[test]
    fn sibling_decay_applies_even_when_clicked_pair_is_new() {
        let mut c = full();
        c.install_pair(1, 10, 0.8);
        c.record_click(1, 99); // new result for a cached query
        let s10 = c.table().score(1, 10).unwrap();
        assert!(s10 < 0.8, "existing sibling must decay, was {s10}");
        assert_eq!(c.table().score(1, 99).unwrap(), 1.0);
    }

    #[test]
    fn repeated_clicks_accumulate_score() {
        let mut c = full();
        c.install_pair(1, 10, 0.5);
        for _ in 0..3 {
            c.record_click(1, 10);
        }
        let s = c.table().score(1, 10).unwrap();
        assert!((s - 3.5).abs() < 1e-5, "score was {s}");
    }

    #[test]
    fn replace_table_swaps_state() {
        let mut c = full();
        c.install_pair(1, 10, 0.5);
        c.replace_table(QueryHashTable::new());
        assert!(c.lookup(1).is_none());
    }

    fn community_with(pairs: &[(u64, u64, f32)]) -> CommunityCache {
        let mut table = QueryHashTable::new();
        for &(q, r, s) in pairs {
            table.upsert(q, r, s, ConflictPolicy::Max);
        }
        CommunityCache::new(&table, RankingPolicy::default())
    }

    #[test]
    fn deltas_are_per_user_and_community_is_untouched() {
        let community = community_with(&[(1, 10, 0.6), (1, 11, 0.4)]);
        let policy = *community.policy();
        let mut alice = PersonalDelta::new();
        for _ in 0..3 {
            alice.record_click(&policy, Some(&community), 1, 11);
        }
        // Alice's re-ranking lifted 11; Bob's empty delta falls through
        // to the shared snapshot, which still has community order.
        let bob = PersonalDelta::new();
        assert_eq!(alice.lookup(1).unwrap()[0].result_hash, 11);
        assert!(bob.lookup(1).is_none());
        assert_eq!(community.lookup(1).unwrap()[0].result_hash, 10);
        assert_eq!(community.pair_count(), 2);
        // Only Alice pays for her personalization.
        assert!(alice.footprint_bytes() > 0);
        assert_eq!(bob.footprint_bytes(), 0);
    }

    #[test]
    fn copy_on_write_seeds_from_community_once() {
        let community = community_with(&[(1, 10, 0.6), (1, 11, 0.4)]);
        let policy = *community.policy();
        let mut d = PersonalDelta::new();
        assert_eq!(d.query_count(), 0);
        d.record_click(&policy, Some(&community), 1, 10);
        assert_eq!(d.query_count(), 1);
        assert_eq!(d.pair_count(), 2, "seeded with both community results");
        d.record_click(&policy, Some(&community), 1, 10);
        assert_eq!(d.query_count(), 1, "second click reuses the entry");
    }

    #[test]
    fn personalization_only_split_never_sees_community() {
        let community = Arc::new(community_with(&[(1, 10, 0.6)]));
        let pairs = Arc::new(PairTable::new(vec![(1, 99)]));
        let config = PopulationConfig {
            mode: CacheMode::PersonalizationOnly,
            ..PopulationConfig::default()
        };
        let mut lane = PopulationLane::new(config, community, pairs);
        let request = ServeRequest::for_user(7, 0, SimInstant::ZERO);
        assert_eq!(lane.serve(&request).unwrap().kind, ServeKind::Miss);
        assert_eq!(lane.serve(&request).unwrap().kind, ServeKind::Hit);
        // Not seeded: the community's result 10 must be absent.
        let results = lane.delta(7).and_then(|d| d.lookup(1)).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].result_hash, 99);
    }

    #[test]
    fn delta_footprint_accounts_entries_and_results() {
        let mut d = PersonalDelta::new();
        assert_eq!(d.footprint_bytes(), 0);
        let policy = RankingPolicy::default();
        // New entry, no community seed: overhead plus the clicked result.
        assert_eq!(d.record_click(&policy, None, 1, 10), 16 + 13);
        assert_eq!(d.footprint_bytes(), 16 + 13);
        // A new result on a known entry: one result row.
        assert_eq!(d.record_click(&policy, None, 1, 11), 13);
        // A repeat click on a known pair adds nothing.
        assert_eq!(d.record_click(&policy, None, 1, 11), 0);
        assert_eq!(d.record_click(&policy, None, 2, 20), 16 + 13);
        assert_eq!(d.footprint_bytes(), 2 * 16 + 3 * 13);
        assert_eq!(d.query_count(), 2);
        assert_eq!(d.pair_count(), 3);
        // A new entry seeded with two community results, then a click on
        // a third result: 16 + 2·13 for the seeded entry, +13 appended.
        let community = community_with(&[(3, 30, 0.6), (3, 31, 0.4)]);
        assert_eq!(
            d.record_click(&policy, Some(&community), 3, 32),
            16 + 3 * 13
        );
        assert_eq!(d.record_click(&policy, Some(&community), 4, 40), 16 + 13);
        assert_eq!(d.footprint_bytes(), 4 * 16 + 7 * 13);
    }
}
