//! The on-device cache state machine (Figure 6).
//!
//! [`PocketCache`] combines the two interrelated components of the
//! PocketSearch architecture: the **community** component — query/result
//! pairs mined from everyone's logs, installed as a warm start — and the
//! **personalization** component, which expands the cache with pairs this
//! user selects after misses and re-ranks results from their clicks
//! (§5.3). [`CacheMode`] exposes the Figure 17 ablations: community-only
//! (no expansion, no re-ranking) and personalization-only (starts empty).
//!
//! [`PocketCache`] *flattens* both components into one table — fine for
//! a single device, ruinous for a simulated population, where the
//! community component would be duplicated per user. The §4 two-part
//! model as actual structure is [`SplitCache`]: one read-mostly
//! [`CommunityCache`] snapshot (`Arc`-shared across every user and
//! lane) layered under a compact copy-on-write [`PersonalDelta`] per
//! user. The snapshot owns the one [`FrozenTable`] serve index of its
//! table, built once and shared with it, so any number of users and
//! lanes probe a single index. Lookup order is delta-then-community;
//! clicks fold into the delta only. Under install-before-replay the
//! split cache reproduces the flattened cache's hit/miss sequence bit
//! for bit (see the equivalence tests).

use std::sync::{Arc, OnceLock};

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

/// Outcome of serving one query against the cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LookupOutcome {
    /// Whether the query hit.
    pub hit: bool,
    /// Ranked results on a hit; empty on a miss.
    pub results: Vec<ScoredResult>,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Queries served from the cache.
    pub hits: u64,
    /// Queries that had to go to the radio.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`, or 0 when nothing was served.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
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
/// assert!(!cache.serve(42).hit);
/// // The user clicked a result for that query over the radio: the
/// // personalization component caches it for next time.
/// cache.record_click(42, 1000);
/// assert!(cache.serve(42).hit);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PocketCache {
    mode: CacheMode,
    table: QueryHashTable,
    policy: RankingPolicy,
    stats: CacheStats,
}

impl PocketCache {
    /// An empty cache in the given mode.
    pub fn new(mode: CacheMode, policy: RankingPolicy) -> Self {
        PocketCache {
            mode,
            table: QueryHashTable::new(),
            policy,
            stats: CacheStats::default(),
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

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
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

    /// Pure lookup without statistics bookkeeping.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        self.table.lookup(query_hash)
    }

    /// Serves a query, updating hit/miss statistics.
    pub fn serve(&mut self, query_hash: u64) -> LookupOutcome {
        match self.table.lookup(query_hash) {
            Some(results) => {
                self.stats.hits += 1;
                LookupOutcome { hit: true, results }
            }
            None => {
                self.stats.misses += 1;
                LookupOutcome {
                    hit: false,
                    results: Vec::new(),
                }
            }
        }
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
/// pairs mined from everyone's logs, built once and snapshot-shared
/// (`Arc`) across every user and serving lane.
///
/// The community cache is **read-mostly by contract**: installs happen
/// during the update window, then the snapshot is frozen while replay
/// runs. Per-user state never writes here — clicks fold into each user's
/// [`PersonalDelta`] instead — which is what makes one copy sufficient
/// for a million users.
///
/// The serve path reads the snapshot through its [`FrozenTable`] index:
/// built by [`CommunityCache::into_shared`] (or on first use) and
/// dropped by every install, so it always images the current table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommunityCache {
    table: QueryHashTable,
    policy: RankingPolicy,
    #[serde(skip)]
    index: OnceLock<FrozenTable>,
}

/// Equality is over the contents; whether the derived index has been
/// built yet does not matter.
impl PartialEq for CommunityCache {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table && self.policy == other.policy
    }
}

impl CommunityCache {
    /// An empty community snapshot.
    pub fn new(policy: RankingPolicy) -> Self {
        CommunityCache {
            table: QueryHashTable::new(),
            policy,
            index: OnceLock::new(),
        }
    }

    /// The ranking policy deltas layered on this snapshot will apply.
    pub fn policy(&self) -> &RankingPolicy {
        &self.policy
    }

    /// Read access to the underlying hash table.
    pub fn table(&self) -> &QueryHashTable {
        &self.table
    }

    /// Installs one mined pair (server-state conflicts keep the larger
    /// score, §5.4).
    pub fn install_pair(&mut self, query_hash: u64, result_hash: u64, score: f32) {
        self.index = OnceLock::new();
        self.table
            .upsert(query_hash, result_hash, score, ConflictPolicy::Max);
    }

    /// Installs a whole generated community cache.
    pub fn install_contents(&mut self, contents: &CacheContents) {
        for p in contents.pairs() {
            self.install_pair(p.query_hash, p.result_hash, p.score);
        }
    }

    /// The serve index of the current table, built on first call.
    pub(crate) fn index(&self) -> &FrozenTable {
        self.index
            .get_or_init(|| FrozenTable::from_table(&self.table))
    }

    /// Ranked results for a query, if cached.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        self.table.lookup(query_hash)
    }

    /// Whether the snapshot holds any result for `query_hash`.
    pub fn contains_query(&self, query_hash: u64) -> bool {
        self.table.contains_query(query_hash)
    }

    /// Cached `(query, result)` pairs.
    pub fn pair_count(&self) -> usize {
        self.table.pair_count()
    }

    /// DRAM footprint of the one shared copy (§5.2 accounting).
    pub fn footprint_bytes(&self) -> usize {
        self.table.footprint_bytes()
    }

    /// Freezes the snapshot for sharing across users and lanes, building
    /// its serve index once here rather than on the first serve.
    pub fn into_shared(self) -> Arc<CommunityCache> {
        self.index();
        Arc::new(self)
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

    /// Ranked results for a query the delta shadows, in the same
    /// `(score desc, result_hash asc)` order [`QueryHashTable::lookup`]
    /// produces.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        let idx = self.find(query_hash).ok()?;
        let mut out = self.entries[idx].results.clone();
        out.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(a.result_hash.cmp(&b.result_hash))
        });
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

/// The §4 two-part model as structure: one shared [`CommunityCache`]
/// snapshot under this user's [`PersonalDelta`], presenting the same
/// serve/click surface as the flattened [`PocketCache`].
///
/// Lookup order is **delta, then community**: a query the user has
/// personalized is answered from their delta (which already embeds the
/// community results it was seeded from); anything else falls through
/// to the shared snapshot. Clicks fold into the delta only — the
/// community copy is never written — so any number of `SplitCache`s can
/// share one snapshot — and its one serve index.
///
/// Under install-before-replay (the community frozen before serving
/// starts, as in the paper's update protocol), a `SplitCache` reproduces
/// the flattened cache's [`LookupOutcome`] sequence bit for bit in every
/// [`CacheMode`].
///
/// # Example
///
/// ```
/// use cloudlet_core::cache::{CacheMode, CommunityCache, SplitCache};
/// use cloudlet_core::ranking::RankingPolicy;
///
/// let mut community = CommunityCache::new(RankingPolicy::default());
/// community.install_pair(42, 1000, 0.7);
/// let shared = community.into_shared();
///
/// let mut alice = SplitCache::new(CacheMode::Full, shared.clone());
/// let mut bob = SplitCache::new(CacheMode::Full, shared);
/// assert!(alice.serve(42).hit, "community warm start");
/// alice.record_click(42, 2000); // folds into Alice's delta only
/// assert!(alice.serve(42).results.iter().any(|r| r.result_hash == 2000));
/// assert!(!bob.serve(42).results.iter().any(|r| r.result_hash == 2000));
/// ```
#[derive(Debug, Clone)]
pub struct SplitCache {
    mode: CacheMode,
    community: Arc<CommunityCache>,
    delta: PersonalDelta,
    stats: CacheStats,
}

impl SplitCache {
    /// A split cache for one user over a shared community snapshot.
    pub fn new(mode: CacheMode, community: Arc<CommunityCache>) -> Self {
        SplitCache {
            mode,
            community,
            delta: PersonalDelta::new(),
            stats: CacheStats::default(),
        }
    }

    /// The active mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The shared community snapshot.
    pub fn community(&self) -> &Arc<CommunityCache> {
        &self.community
    }

    /// This user's personalization delta.
    pub fn delta(&self) -> &PersonalDelta {
        &self.delta
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Pure lookup without statistics bookkeeping: delta first, then the
    /// community snapshot (mode-gated exactly like [`PocketCache`]).
    /// The community half probes the snapshot's shared [`FrozenTable`]
    /// index — bit-identical to the table walk.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        if self.mode.personalization_enabled() {
            if let Some(results) = self.delta.lookup(query_hash) {
                return Some(results);
            }
        }
        if self.mode.community_enabled() {
            return self.community.index().lookup(query_hash);
        }
        None
    }

    /// Serves a query, updating hit/miss statistics.
    pub fn serve(&mut self, query_hash: u64) -> LookupOutcome {
        match self.lookup(query_hash) {
            Some(results) => {
                self.stats.hits += 1;
                LookupOutcome { hit: true, results }
            }
            None => {
                self.stats.misses += 1;
                LookupOutcome {
                    hit: false,
                    results: Vec::new(),
                }
            }
        }
    }

    /// Records the user's click, folding the §5.3 personalization into
    /// the delta only. A no-op in community-only mode; in
    /// personalization-only mode the delta is never seeded from the
    /// community (Figure 17's empty start).
    pub fn record_click(&mut self, query_hash: u64, result_hash: u64) {
        if !self.mode.personalization_enabled() {
            return;
        }
        let policy = *self.community.policy();
        let community = self
            .mode
            .community_enabled()
            .then_some(self.community.as_ref());
        self.delta
            .record_click(&policy, community, query_hash, result_hash);
    }

    /// Resident bytes attributable to this user: the delta only — the
    /// community snapshot is shared and accounted once, not per user.
    pub fn personal_bytes(&self) -> usize {
        self.delta.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> PocketCache {
        PocketCache::new(CacheMode::Full, RankingPolicy::default())
    }

    #[test]
    fn community_install_produces_hits() {
        let mut c = full();
        c.install_pair(1, 10, 0.6);
        c.install_pair(1, 11, 0.4);
        let out = c.serve(1);
        assert!(out.hit);
        assert_eq!(out.results.len(), 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn personalization_only_ignores_community_installs() {
        let mut c = PocketCache::new(CacheMode::PersonalizationOnly, RankingPolicy::default());
        c.install_pair(1, 10, 0.6);
        assert!(!c.serve(1).hit);
        // But the user's own click is cached.
        c.record_click(1, 10);
        assert!(c.serve(1).hit);
    }

    #[test]
    fn community_only_never_learns() {
        let mut c = PocketCache::new(CacheMode::CommunityOnly, RankingPolicy::default());
        c.record_click(1, 10);
        assert!(!c.serve(1).hit);
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
        let out = c.serve(1);
        assert_eq!(out.results[0].result_hash, 11, "clicked result must rise");
        assert!(out.results[0].accessed);
        assert!(!out.results[1].accessed);
    }

    #[test]
    fn miss_click_inserts_at_score_one() {
        let mut c = full();
        c.record_click(7, 70);
        assert_eq!(c.table().score(7, 70).unwrap(), 1.0);
        let out = c.serve(7);
        assert!(out.hit);
        assert!(out.results[0].accessed);
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
    fn stats_track_hits_and_misses() {
        let mut c = full();
        c.install_pair(1, 10, 0.5);
        c.serve(1);
        c.serve(2);
        c.serve(3);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().hit_rate(), 0.0);
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
        assert!(!c.serve(1).hit);
    }

    fn community_with(pairs: &[(u64, u64, f32)]) -> Arc<CommunityCache> {
        let mut c = CommunityCache::new(RankingPolicy::default());
        for &(q, r, s) in pairs {
            c.install_pair(q, r, s);
        }
        c.into_shared()
    }

    /// Replays the same serve/click script against a flattened cache and
    /// a split cache and demands identical outcomes at every step.
    fn assert_split_matches_flat(
        mode: CacheMode,
        pairs: &[(u64, u64, f32)],
        script: &[(u64, u64)],
    ) {
        let mut flat = PocketCache::new(mode, RankingPolicy::default());
        for &(q, r, s) in pairs {
            flat.install_pair(q, r, s);
        }
        let mut split = SplitCache::new(mode, community_with(pairs));
        for &(q, r) in script {
            let a = flat.serve(q);
            let b = split.serve(q);
            assert_eq!(a, b, "mode {mode}: outcomes diverged on query {q}");
            flat.record_click(q, r);
            split.record_click(q, r);
        }
        assert_eq!(flat.stats(), split.stats());
    }

    #[test]
    fn split_cache_matches_flat_cache_in_every_mode() {
        let pairs = [(1, 10, 0.6), (1, 11, 0.4), (2, 20, 0.9), (3, 30, 0.2)];
        // Clicks on cached pairs, sibling pairs, brand-new queries, and
        // repeats of all three.
        let script = [
            (1, 11),
            (1, 11),
            (2, 20),
            (5, 50),
            (1, 10),
            (5, 50),
            (3, 31),
            (2, 21),
            (7, 70),
            (1, 11),
        ];
        for mode in CacheMode::ALL {
            assert_split_matches_flat(mode, &pairs, &script);
        }
    }

    #[test]
    fn deltas_are_per_user_and_community_is_untouched() {
        let shared = community_with(&[(1, 10, 0.6), (1, 11, 0.4)]);
        let mut alice = SplitCache::new(CacheMode::Full, shared.clone());
        let mut bob = SplitCache::new(CacheMode::Full, shared.clone());
        for _ in 0..3 {
            alice.record_click(1, 11);
        }
        // Alice's re-ranking lifted 11; Bob still sees community order.
        assert_eq!(alice.serve(1).results[0].result_hash, 11);
        assert_eq!(bob.serve(1).results[0].result_hash, 10);
        // The shared snapshot itself never changed.
        assert_eq!(shared.lookup(1).unwrap()[0].result_hash, 10);
        assert_eq!(shared.pair_count(), 2);
        // Only Alice pays for her personalization.
        assert!(alice.personal_bytes() > 0);
        assert_eq!(bob.personal_bytes(), 0);
    }

    #[test]
    fn copy_on_write_seeds_from_community_once() {
        let shared = community_with(&[(1, 10, 0.6), (1, 11, 0.4)]);
        let mut c = SplitCache::new(CacheMode::Full, shared);
        assert_eq!(c.delta().query_count(), 0);
        c.record_click(1, 10);
        assert_eq!(c.delta().query_count(), 1);
        assert_eq!(
            c.delta().pair_count(),
            2,
            "seeded with both community results"
        );
        c.record_click(1, 10);
        assert_eq!(c.delta().query_count(), 1, "second click reuses the entry");
    }

    #[test]
    fn personalization_only_split_never_sees_community() {
        let shared = community_with(&[(1, 10, 0.6)]);
        let mut c = SplitCache::new(CacheMode::PersonalizationOnly, shared);
        assert!(!c.serve(1).hit);
        c.record_click(1, 99);
        let out = c.serve(1);
        assert!(out.hit);
        // Not seeded: the community's result 10 must be absent.
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].result_hash, 99);
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
            d.record_click(&policy, Some(&*community), 3, 32),
            16 + 3 * 13
        );
        assert_eq!(d.record_click(&policy, Some(&*community), 4, 40), 16 + 13);
        assert_eq!(d.footprint_bytes(), 4 * 16 + 7 * 13);
    }
}
