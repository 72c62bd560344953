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
//! [`FrozenTable`] index) under copy-on-write per-user deltas, which a
//! lane keeps together in one flat [`DeltaArena`].
//! [`crate::population::PopulationLane`] composes the two: lookups go
//! delta-then-community and clicks fold into the delta only. Under
//! install-before-replay the split reproduces the flat cache's hit/miss
//! sequence, scores and accessed bits bit for bit, in every mode, for
//! every user of a lane (`tests/population_stream.rs`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use mobsim::Mix64Hasher;
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
        let mut known = false;
        self.table
            .each_result(query_hash, |r| known |= r.result_hash == result_hash);
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
/// delta in a [`DeltaArena`] instead, which is what makes one copy
/// sufficient for a million users. A refresh builds a new one.
///
/// # Example
///
/// ```
/// use cloudlet_core::cache::{CommunityCache, DeltaArena};
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
/// let (alice, bob) = (1, 2);
/// let mut deltas = DeltaArena::new();
/// deltas.click(community.policy(), Some(&community), alice, 42, 2000);
/// let mine = deltas.lookup(alice, 42).unwrap();
/// assert!(mine.iter().any(|r| r.result_hash == 1000), "seeded from the community");
/// assert!(mine.iter().any(|r| r.result_hash == 2000));
/// assert!(deltas.lookup(bob, 42).is_none());
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

    /// Feeds every result the snapshot links to `query_hash` to `f`, in
    /// chain order, without allocating.
    pub(crate) fn each_result(&self, query_hash: u64, f: impl FnMut(ScoredResult)) {
        self.index.each_result(query_hash, f);
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

/// Where one delta entry's results live: `results[start..start + len]`
/// of its [`DeltaArena`]. 32-bit offsets keep an index bucket at 24
/// bytes; see [`offset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn end(self) -> usize {
        self.start as usize + self.len as usize
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end()
    }
}

/// `n` as a span offset or length. Overflowing one would take 2^32
/// results (64 GiB) on one lane; stop there rather than alias spans.
fn offset(n: usize) -> u32 {
    assert!(
        n <= u32::MAX as usize,
        "a lane's delta arena holds at most 2^32 results"
    );
    n as u32
}

/// The personalization component of the §4 two-part model for every
/// user of one serving lane, in one flat arena.
///
/// A user's delta holds only the queries they have clicked on — about
/// three for a typical user of a simulated day — so a million users cost
/// O(users · clicked-queries), independent of both the community
/// snapshot size and the event count. One index keyed by
/// `(user, query_hash)` and hashed with [`mobsim::Mix64Hasher`] maps
/// each entry to a span of one lane-wide result array: no allocation
/// per user or per entry, and one probe per click.
///
/// A first click on a query copies that query's community results into
/// the arena (copy-on-write, walked in place from the frozen index);
/// the §5.3 re-ranking then runs entirely inside the span, applying the
/// exact score arithmetic [`PocketCache::record_click`] applies, which
/// is what makes the split bit-compatible with the flattened cache.
#[derive(Debug, Clone, Default)]
pub struct DeltaArena {
    /// `(user, query_hash)` → the entry's span of `results`.
    spans: HashMap<(u64, u64), Span, BuildHasherDefault<Mix64Hasher>>,
    /// Every entry's results, back to back; a span grows only at the
    /// tail, so an entry that gains a result moves there first.
    results: Vec<ScoredResult>,
    /// Slots of `results` that moved entries left behind.
    dead: usize,
    /// Accounted bytes: [`DELTA_ENTRY_OVERHEAD_BYTES`] per entry plus
    /// [`DELTA_RESULT_BYTES`] per live result.
    bytes: usize,
}

impl DeltaArena {
    /// An empty arena (no user has clicked).
    pub fn new() -> Self {
        DeltaArena::default()
    }

    /// Accounted resident bytes of every user's personalization state —
    /// the per-user term of the population memory model, summed.
    pub fn footprint_bytes(&self) -> usize {
        self.bytes
    }

    /// The query of every delta entry, once per user holding it, in no
    /// particular order.
    pub fn queries(&self) -> impl Iterator<Item = u64> + '_ {
        self.spans.keys().map(|&(_, query_hash)| query_hash)
    }

    /// `user`'s ranked results for a query their delta shadows, in
    /// [`ScoredResult::rank_order`] like every other lookup.
    pub fn lookup(&self, user: u64, query_hash: u64) -> Option<Vec<ScoredResult>> {
        let span = self.spans.get(&(user, query_hash))?;
        let mut out = self.results[span.range()].to_vec();
        out.sort_by(ScoredResult::rank_order);
        Some(out)
    }

    /// Folds one click into `user`'s delta, seeding the touched query
    /// from `community` on first touch and then applying the §5.3
    /// arithmetic: clicked pair +1 (inserted at the max log score if
    /// absent), siblings decay, accessed flag set.
    ///
    /// Returns whether `user`'s view of the query held any result before
    /// the click — the delta's entry, or on a first touch the community
    /// results it was just seeded with. That is whether the serve this
    /// click belongs to hit, with one probe of the delta and at most one
    /// of the community.
    pub fn click(
        &mut self,
        policy: &RankingPolicy,
        community: Option<&CommunityCache>,
        user: u64,
        query_hash: u64,
        result_hash: u64,
    ) -> bool {
        let results = &mut self.results;
        let (answered, span) = match self.spans.entry((user, query_hash)) {
            // A delta entry is never empty: its first click leaves a result.
            Entry::Occupied(entry) => (true, entry.into_mut()),
            Entry::Vacant(entry) => {
                // Copy-on-write: this user's view of the query starts as
                // the community's result list (empty if uncached there).
                let start = results.len();
                if let Some(community) = community {
                    community.each_result(query_hash, |r| results.push(r));
                }
                let len = results.len() - start;
                self.bytes += DELTA_ENTRY_OVERHEAD_BYTES + len * DELTA_RESULT_BYTES;
                let span = Span {
                    start: offset(start),
                    len: offset(len),
                };
                (len > 0, entry.insert(span))
            }
        };
        let view = &mut results[span.range()];
        if let Some(clicked) = view.iter().position(|r| r.result_hash == result_hash) {
            for (i, r) in view.iter_mut().enumerate() {
                if i == clicked {
                    r.score = policy.clicked_update(r.score);
                    r.accessed = true;
                } else {
                    r.score = policy.sibling_update(r.score);
                }
            }
            return answered;
        }
        for r in view.iter_mut() {
            r.score = policy.sibling_update(r.score);
        }
        if span.end() != results.len() {
            // The entry gains a result but does not end at the tail:
            // move it there, leaving its old slots dead.
            let old = span.range();
            span.start = offset(results.len());
            results.extend_from_within(old);
            self.dead += span.len as usize;
        }
        results.push(ScoredResult {
            result_hash,
            score: policy.miss_insert_score(),
            accessed: true,
        });
        span.len = offset(span.len as usize + 1);
        self.bytes += DELTA_RESULT_BYTES;
        if self.dead > self.results.len() - self.dead {
            self.compact();
        }
        answered
    }

    /// Packs every live span back to back, dropping the dead slots —
    /// run once they outnumber the live ones, so moves never waste more
    /// than the arena holds.
    fn compact(&mut self) {
        let mut packed = Vec::with_capacity(self.results.len() - self.dead);
        for span in self.spans.values_mut() {
            let start = offset(packed.len());
            packed.extend_from_slice(&self.results[span.range()]);
            span.start = start;
        }
        self.results = packed;
        self.dead = 0;
    }

    /// Recomputes the accounted bytes from the spans, after checking
    /// the layout: spans never overlap, live plus dead slots fill the
    /// result array, and dead slots never outnumber live ones.
    #[cfg(test)]
    pub(crate) fn audited_bytes(&self) -> usize {
        let mut spans: Vec<Span> = self.spans.values().copied().collect();
        spans.sort_by_key(|s| s.start);
        assert!(spans.windows(2).all(|w| w[0].end() <= w[1].start as usize));
        let live: usize = spans.iter().map(|s| s.len as usize).sum();
        assert_eq!(live + self.dead, self.results.len());
        assert!(self.dead <= live, "{} dead slots, {live} live", self.dead);
        spans.len() * DELTA_ENTRY_OVERHEAD_BYTES + live * DELTA_RESULT_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{PairTable, PopulationConfig, PopulationLane};
    use crate::service::{CloudletService, ServeKind, ServeRequest};
    use mobsim::time::SimInstant;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
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
        let (alice, bob) = (1, 2);
        let mut deltas = DeltaArena::new();
        for _ in 0..3 {
            deltas.click(&policy, Some(&community), alice, 1, 11);
        }
        // Alice's re-ranking lifted 11; Bob has no delta and falls
        // through to the shared snapshot, which still has community order.
        assert_eq!(deltas.lookup(alice, 1).unwrap()[0].result_hash, 11);
        assert!(deltas.lookup(bob, 1).is_none());
        assert_eq!(community.lookup(1).unwrap()[0].result_hash, 10);
        assert_eq!(community.pair_count(), 2);
        // Only Alice pays for her personalization: one seeded entry.
        assert_eq!(deltas.footprint_bytes(), 16 + 2 * 13);
        assert_eq!(deltas.audited_bytes(), deltas.footprint_bytes());
    }

    #[test]
    fn copy_on_write_seeds_from_community_once() {
        let community = community_with(&[(1, 10, 0.6), (1, 11, 0.4)]);
        let policy = *community.policy();
        let mut d = DeltaArena::new();
        assert!(d.spans.is_empty());
        assert!(
            d.click(&policy, Some(&community), 7, 1, 10),
            "a first touch of a community query hits through its seed"
        );
        assert_eq!(d.spans.len(), 1);
        assert_eq!(d.results.len(), 2, "seeded with both community results");
        assert!(d.click(&policy, Some(&community), 7, 1, 10), "now shadowed");
        assert_eq!(
            (d.spans.len(), d.results.len()),
            (1, 2),
            "second click reuses the entry"
        );
        assert!(
            !d.click(&policy, Some(&community), 7, 2, 20),
            "a first touch of an uncached query misses"
        );
        assert!(d.click(&policy, Some(&community), 7, 2, 20), "now shadowed");
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
        let results = lane.lookup(7, 1).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].result_hash, 99);
    }

    /// The accounted bytes one click adds to `d`.
    fn grown_by(
        d: &mut DeltaArena,
        community: Option<&CommunityCache>,
        (user, query_hash, result_hash): (u64, u64, u64),
    ) -> usize {
        let before = d.footprint_bytes();
        d.click(
            &RankingPolicy::default(),
            community,
            user,
            query_hash,
            result_hash,
        );
        assert_eq!(d.audited_bytes(), d.footprint_bytes());
        d.footprint_bytes() - before
    }

    #[test]
    fn delta_footprint_accounts_entries_and_results() {
        let mut d = DeltaArena::new();
        assert_eq!(d.footprint_bytes(), 0);
        // New entry, no community seed: overhead plus the clicked result.
        assert_eq!(grown_by(&mut d, None, (7, 1, 10)), 16 + 13);
        // A new result on a known entry: one result row.
        assert_eq!(grown_by(&mut d, None, (7, 1, 11)), 13);
        // A repeat click on a known pair adds nothing.
        assert_eq!(grown_by(&mut d, None, (7, 1, 11)), 0);
        assert_eq!(grown_by(&mut d, None, (7, 2, 20)), 16 + 13);
        // The same query for another user is another entry.
        assert_eq!(grown_by(&mut d, None, (8, 2, 20)), 16 + 13);
        assert_eq!(d.footprint_bytes(), 3 * 16 + 4 * 13);
        // A new entry seeded with two community results, then a click on
        // a third result: 16 + 2·13 for the seeded entry, +13 appended.
        let community = community_with(&[(3, 30, 0.6), (3, 31, 0.4)]);
        assert_eq!(grown_by(&mut d, Some(&community), (7, 3, 32)), 16 + 3 * 13);
        assert_eq!(grown_by(&mut d, Some(&community), (7, 4, 40)), 16 + 13);
        assert_eq!(d.footprint_bytes(), 5 * 16 + 8 * 13);
    }

    #[test]
    fn entries_that_grow_off_the_tail_move_and_the_arena_compacts() {
        // Two users' entries for one query, grown alternately: every
        // growth finds the other entry at the tail, so every growth
        // moves, until the dead slots outnumber the live ones.
        let mut d = DeltaArena::new();
        let mut flat = [full(), full()];
        let script = [
            (0, 10),
            (1, 10),
            (0, 11),
            (1, 12),
            (0, 13),
            (1, 14),
            (0, 15),
        ];
        let mut moved = false;
        let mut compacted = false;
        for (user, result_hash) in script {
            let dead = d.dead;
            grown_by(&mut d, None, (user, 1, result_hash));
            flat[user as usize].record_click(1, result_hash);
            moved |= d.dead > dead;
            compacted |= dead > 0 && d.dead == 0;
            for (u, cache) in flat.iter().enumerate() {
                assert_eq!(d.lookup(u as u64, 1), cache.lookup(1), "user {u}");
            }
        }
        assert!(moved && compacted, "both the move and the compaction ran");
        assert_eq!(d.results.len(), 7, "compaction left only live slots");
    }

    /// Scores the generated community tables draw from.
    const SCORES: [f32; 3] = [0.25, 0.5, 0.75];

    /// The §5.3 arithmetic on a plain map, for the arena to agree with:
    /// a first touch copies the community's results, a click lifts the
    /// clicked result and decays its siblings, and a result the view
    /// lacks is appended at the miss-insert score. Returns whether the
    /// view held any result before the click.
    fn model_click(
        model: &mut BTreeMap<(u64, u64), Vec<ScoredResult>>,
        community: &CommunityCache,
        (user, query_hash, result_hash): (u64, u64, u64),
    ) -> bool {
        let policy = community.policy();
        let view = model
            .entry((user, query_hash))
            .or_insert_with(|| community.lookup(query_hash).unwrap_or_default());
        let answered = !view.is_empty();
        let clicked = view.iter().position(|r| r.result_hash == result_hash);
        for (i, r) in view.iter_mut().enumerate() {
            if Some(i) == clicked {
                r.score = policy.clicked_update(r.score);
                r.accessed = true;
            } else {
                r.score = policy.sibling_update(r.score);
            }
        }
        if clicked.is_none() {
            view.push(ScoredResult {
                result_hash,
                score: policy.miss_insert_score(),
                accessed: true,
            });
        }
        answered
    }

    /// `model`'s view of a key in rank order, as a lookup returns it.
    fn model_lookup(
        model: &BTreeMap<(u64, u64), Vec<ScoredResult>>,
        key: (u64, u64),
    ) -> Option<Vec<ScoredResult>> {
        let mut view = model.get(&key)?.clone();
        view.sort_by(ScoredResult::rank_order);
        Some(view)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A serve reads its hit from the click's community seed, so the
        /// seed must find a result exactly when the community holds the
        /// query — also for queries whose every result was retained away.
        #[test]
        fn community_contains_a_query_exactly_when_it_yields_a_result(
            ops in proptest::collection::vec((0u64..24, 0u64..9, 0usize..3), 0..80),
            seed in any::<u64>(),
        ) {
            let mut table = QueryHashTable::new();
            for &(q, r, s) in &ops {
                table.upsert(q, 100 + r, SCORES[s], ConflictPolicy::Max);
            }
            table.retain_pairs(|q, r, _, _| {
                !mobsim::mix64(seed ^ q ^ r.wrapping_mul(31)).is_multiple_of(3)
            });
            let community = CommunityCache::new(&table, RankingPolicy::default());
            for q in 0..30 {
                let mut yielded = 0;
                community.each_result(q, |_| yielded += 1);
                prop_assert_eq!(community.contains_query(q), yielded > 0, "query {}", q);
            }
        }

        /// One arena through a few thousand clicks agrees with the map
        /// model on every hit answer and lookup, on the `queries()`
        /// multiset, and on its accounted bytes. Enough distinct keys to
        /// grow the index several times, users 0 and `u64::MAX`, repeat
        /// clicks, entries that move, and a compaction.
        #[test]
        fn an_arena_agrees_with_the_map_model_through_a_few_thousand_clicks(
            community_pairs in proptest::collection::vec((0u64..16, 0u64..6, 0usize..3), 0..40),
            clicks in proptest::collection::vec((0u64..130, 0u64..24, 0u64..8), 2_000..4_000),
        ) {
            let mut table = QueryHashTable::new();
            for &(q, r, s) in &community_pairs {
                table.upsert(q, 100 + r, SCORES[s], ConflictPolicy::Max);
            }
            let community = CommunityCache::new(&table, RankingPolicy::default());
            let policy = *community.policy();
            let mut d = DeltaArena::new();
            let mut model = BTreeMap::new();
            // Clicks `key` into both and checks the answer and the view;
            // returns whether the index grew and whether the arena
            // compacted.
            let mut click = |d: &mut DeltaArena, key: (u64, u64, u64)| {
                let (capacity, dead) = (d.spans.capacity(), d.dead);
                let answered = d.click(&policy, Some(&community), key.0, key.1, key.2);
                assert_eq!(answered, model_click(&mut model, &community, key), "{key:?}");
                assert_eq!(d.lookup(key.0, key.1), model_lookup(&model, (key.0, key.1)));
                (d.spans.capacity() > capacity, dead > 0 && d.dead == 0)
            };
            let mut growths = 0;
            let mut compacted = false;
            for (i, &(user, query, result)) in clicks.iter().enumerate() {
                // User 129 stands for the largest id.
                let user = if user == 129 { u64::MAX } else { user };
                let (grew, packed) = click(&mut d, (user, query, 100 + result));
                growths += usize::from(grew);
                compacted |= packed;
                if i % 512 == 0 {
                    prop_assert_eq!(d.audited_bytes(), d.footprint_bytes());
                }
            }
            // Two entries of one uncached query grown in turn: each
            // growth finds the other at the tail and moves, until the
            // dead slots outnumber the live ones and the arena compacts.
            let mut fresh = 1_000;
            while !compacted && fresh < 10_000 {
                for user in [0, u64::MAX] {
                    compacted |= click(&mut d, (user, 99, fresh)).1;
                    fresh += 1;
                }
            }
            prop_assert!(compacted, "no compaction in {} fresh clicks", fresh - 1_000);
            prop_assert!(growths >= 5, "the index grew only {} times", growths);
            for &(user, query) in model.keys() {
                prop_assert_eq!(d.lookup(user, query), model_lookup(&model, (user, query)));
            }
            prop_assert_eq!(d.lookup(1, 99), None);
            let mut queries: Vec<u64> = d.queries().collect();
            queries.sort_unstable();
            let mut model_queries: Vec<u64> = model.keys().map(|&(_, q)| q).collect();
            model_queries.sort_unstable();
            prop_assert_eq!(queries, model_queries);
            let results: usize = model.values().map(Vec::len).sum();
            prop_assert_eq!(d.footprint_bytes(), d.audited_bytes());
            prop_assert_eq!(
                d.footprint_bytes(),
                model.len() * DELTA_ENTRY_OVERHEAD_BYTES + results * DELTA_RESULT_BYTES
            );
        }
    }
}
