//! Population-scale serving: one shared community snapshot, a million
//! personal deltas.
//!
//! A [`PopulationLane`] is a [`CloudletService`] that serves a whole
//! *population* of simulated users through the §4 two-part cache split:
//! every user on the lane shares one `Arc`'d [`CommunityCache`] snapshot
//! with its one serve index (and one [`PairTable`] mapping request keys
//! back to query/result hashes), while each user's clicks fold into
//! their own delta entries, created lazily on first click. Every user
//! of the lane keeps those entries in the lane's one [`DeltaArena`]: an
//! index keyed by `(user, query_hash)` over one flat result array, with
//! no allocation per user or per entry. Resident memory is therefore
//!
//! ```text
//! community (once) + pair table (once; its query index once, if peers)
//!   + Σ_lanes (25 B · index buckets + 16 B · results)
//! ```
//!
//! where a lane's index buckets are the power of two that keeps its
//! entries at ≤ 7/8 load — O(users), with no per-event term: events
//! stream through (`querylog::stream::EventStream`) and are dropped once
//! served. The model accounts `16 B · entries + 13 B · results` per lane
//! ([`CloudletService::cache_bytes`]), and the `ablations --study
//! population` harness asserts that accounting while replaying a
//! simulated day for a million users.
//!
//! Lanes are meant to be driven by the front-end with
//! [`crate::frontend::RouteBy::User`], so each user's delta exists on
//! exactly one lane; key-routing would smear one user's clicks across
//! every lane their keys hash to and multiply delta memory by the lane
//! count.

use std::sync::{Arc, OnceLock};

use mobsim::time::SimDuration;

use crate::cache::{CacheMode, CommunityCache, DeltaArena};
use crate::hashtable::ScoredResult;
use crate::service::{CloudletError, CloudletService, ServeOutcome, ServeRequest};

/// Accounting bytes per pair-table row: two 64-bit hashes.
const PAIR_ROW_BYTES: usize = 16;

/// The shared key → `(query_hash, result_hash)` directory.
///
/// Population requests carry a dense pair id as their key (the
/// `querylog` universe's `PairId`); one shared table resolves it to the
/// hash pair the caches speak. Like the community snapshot it is built
/// once, frozen, and `Arc`-shared by every lane.
#[derive(Debug, Clone, Default)]
pub struct PairTable {
    pairs: Vec<(u64, u64)>,
    /// `(query_hash, key)` for every row, sorted: the query → keys
    /// direction, built on the first peer-summary refresh that needs it.
    by_query: OnceLock<Vec<(u64, u64)>>,
}

impl PairTable {
    /// A table whose row `i` resolves key `i`.
    pub fn new(pairs: Vec<(u64, u64)>) -> Self {
        PairTable {
            pairs,
            by_query: OnceLock::new(),
        }
    }

    /// Resolves a request key to its `(query_hash, result_hash)`.
    pub fn get(&self, key: u64) -> Option<(u64, u64)> {
        usize::try_from(key)
            .ok()
            .and_then(|i| self.pairs.get(i).copied())
    }

    /// Every key that resolves to `query_hash`, ascending.
    fn keys_of(&self, query_hash: u64) -> impl Iterator<Item = u64> + '_ {
        let index = self.by_query.get_or_init(|| {
            let mut index: Vec<(u64, u64)> = (0u64..)
                .zip(&self.pairs)
                .map(|(key, &(query_hash, _))| (query_hash, key))
                .collect();
            index.sort_unstable();
            index
        });
        let from = index.partition_point(|&(q, _)| q < query_hash);
        index[from..]
            .iter()
            .take_while(move |&&(q, _)| q == query_hash)
            .map(|&(_, key)| key)
    }

    /// Number of resolvable keys.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Accounted bytes of the one shared copy.
    pub fn footprint_bytes(&self) -> usize {
        self.pairs.len() * PAIR_ROW_BYTES
    }

    /// Freezes the table for sharing across lanes.
    pub fn into_shared(self) -> Arc<PairTable> {
        Arc::new(self)
    }
}

/// Serving model of a [`PopulationLane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Which cache components are active (Figure 17).
    pub mode: CacheMode,
    /// Simulated service time of a local hit.
    pub hit_service: SimDuration,
    /// Simulated service time of a radio miss (server turnaround; the
    /// radio energy model is applied by the study, not the lane).
    pub miss_service: SimDuration,
    /// Radio payload bytes a miss transfers.
    pub miss_radio_bytes: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            mode: CacheMode::Full,
            // A local flash hit renders in ~50 ms; a 3G miss pays the
            // ~400 ms server time (§6 timing model). Studies override.
            hit_service: SimDuration::from_millis(50),
            miss_service: SimDuration::from_millis(400),
            miss_radio_bytes: 4_096,
        }
    }
}

/// A population-serving cloudlet lane: shared community + per-user
/// deltas behind the [`CloudletService`] waist.
///
/// Every serve is a *clicked* log event — `querylog` entries are
/// query/clicked-result pairs — so a serve both answers the query
/// (delta-then-community: a query the user has personalized is answered
/// from their delta, which already embeds the community results it was
/// seeded from) and folds the click into the requesting user's delta.
#[derive(Debug, Clone)]
pub struct PopulationLane {
    config: PopulationConfig,
    community: Arc<CommunityCache>,
    pairs: Arc<PairTable>,
    deltas: DeltaArena,
}

impl PopulationLane {
    /// A lane over shared community and pair-table snapshots.
    pub fn new(
        config: PopulationConfig,
        community: Arc<CommunityCache>,
        pairs: Arc<PairTable>,
    ) -> Self {
        PopulationLane {
            config,
            community,
            pairs,
            deltas: DeltaArena::new(),
        }
    }

    /// The lane's serving model.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    // api-ok: tests/population_stream.rs probes the lane's community
    // index directly to split a lookup into its two parts.
    /// The shared community snapshot.
    pub fn community(&self) -> &Arc<CommunityCache> {
        &self.community
    }

    // api-ok: tests/population_stream.rs checks every user's view of
    // the §4 split against a flat PocketCache through it.
    /// `user`'s ranked results for `query_hash` if their delta on this
    /// lane shadows it, in [`ScoredResult::rank_order`].
    pub fn lookup(&self, user: u64, query_hash: u64) -> Option<Vec<ScoredResult>> {
        self.deltas.lookup(user, query_hash)
    }
}

impl CloudletService for PopulationLane {
    fn name(&self) -> &'static str {
        "population"
    }

    /// Serves one clicked event: answer from the requesting user's
    /// delta-then-community view, then fold the click into their delta.
    fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
        let key = request.key;
        let user = request.user;
        let (query_hash, result_hash) = self
            .pairs
            .get(key)
            .ok_or(CloudletError::UnknownKey { key })?;
        let mode = self.config.mode;
        // Folding the click in answers the serve: the delta's entry, or
        // on a first touch the community seed, probed once each.
        let hit = if mode.personalization_enabled() {
            self.deltas.click(
                self.community.policy(),
                mode.community_enabled().then_some(self.community.as_ref()),
                user,
                query_hash,
                result_hash,
            )
        } else {
            mode.community_enabled() && self.community.contains_query(query_hash)
        };
        Ok(if hit {
            ServeOutcome::hit().with_service(self.config.hit_service)
        } else {
            ServeOutcome::miss(self.config.miss_radio_bytes).with_service(self.config.miss_service)
        })
    }

    /// Shared-access community fast path: in community-only mode a
    /// serve has no side effects, so a hit can be answered from the
    /// community's immutable serve index without exclusive access — the
    /// community probe is user-independent. In any personalization mode every
    /// serve must fold the click into the user's delta, so the fast
    /// path declines and the write path runs. Misses also decline: the
    /// miss click may materialize a delta.
    fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
        if self.config.mode != CacheMode::CommunityOnly {
            return None;
        }
        let (query_hash, _) = self.pairs.get(request.key)?;
        self.community
            .contains_query(query_hash)
            .then(|| ServeOutcome::hit().with_service(self.config.hit_service))
    }

    /// What this device can offer the cooperative peer tier: keys its
    /// personalization deltas answer *beyond* the community snapshot,
    /// ascending. Community-held keys are deliberately excluded — every
    /// lane shares the same `Arc`'d snapshot, so a cellmate's local miss
    /// can never be a community key; advertising them would only load
    /// the Bloom summary. Walks the lane's distinct delta queries and
    /// maps each to its keys through the pair table's query index.
    fn summary_keys(&self) -> Vec<u64> {
        let mut queries: Vec<u64> = self.deltas.queries().collect();
        queries.sort_unstable();
        queries.dedup();
        let community_on = self.config.mode.community_enabled();
        let mut keys: Vec<u64> = queries
            .into_iter()
            .filter(|&q| !(community_on && self.community.contains_query(q)))
            .flat_map(|q| self.pairs.keys_of(q))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Per-user resident bytes only: the community snapshot and pair
    /// table are shared across lanes and accounted once by the study,
    /// not per lane.
    fn cache_bytes(&self) -> u64 {
        self.deltas.footprint_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashtable::{ConflictPolicy, QueryHashTable};
    use crate::ranking::RankingPolicy;
    use crate::service::ServeKind;
    use mobsim::time::SimInstant;

    fn at(user: u64, key: u64) -> ServeRequest {
        ServeRequest::for_user(user, key, SimInstant::ZERO)
    }

    fn world() -> (Arc<CommunityCache>, Arc<PairTable>) {
        let mut table = QueryHashTable::new();
        // Pairs 0..3: queries 100/100/200, results 10/11/20.
        table.upsert(100, 10, 0.6, ConflictPolicy::Max);
        table.upsert(100, 11, 0.4, ConflictPolicy::Max);
        table.upsert(200, 20, 0.9, ConflictPolicy::Max);
        let community = CommunityCache::new(&table, RankingPolicy::default());
        let pairs = PairTable::new(vec![(100, 10), (100, 11), (200, 20), (300, 30)]);
        (Arc::new(community), pairs.into_shared())
    }

    #[test]
    fn community_hits_and_radio_misses() {
        let (community, pairs) = world();
        let mut lane = PopulationLane::new(PopulationConfig::default(), community, pairs);
        let hit = lane.serve(&at(1, 0)).unwrap();
        assert_eq!(hit.kind, ServeKind::Hit);
        // Pair 3's query 300 is not in the community: radio miss...
        let miss = lane.serve(&at(1, 3)).unwrap();
        assert_eq!(miss.kind, ServeKind::Miss);
        assert_eq!(miss.radio_bytes, 4_096);
        // ...but the click folded into user 1's delta, so it hits next.
        assert_eq!(lane.serve(&at(1, 3)).unwrap().kind, ServeKind::Hit);
        // A different user still misses: deltas are per user.
        assert_eq!(lane.serve(&at(2, 3)).unwrap().kind, ServeKind::Miss);
    }

    #[test]
    fn unknown_key_is_typed() {
        let (community, pairs) = world();
        let mut lane = PopulationLane::new(PopulationConfig::default(), community, pairs);
        assert!(matches!(
            lane.serve(&at(1, 99)),
            Err(CloudletError::UnknownKey { .. })
        ));
    }

    #[test]
    fn residency_scales_with_users_not_serves() {
        let (community, pairs) = world();
        let mut lane = PopulationLane::new(PopulationConfig::default(), community, pairs);
        // 100 serves by 4 users over the same pairs.
        for i in 0..100u64 {
            let user = i % 4;
            lane.serve(&at(user, i % 3)).unwrap();
        }
        // Each user holds queries 100 (results 10, 11) and 200 (20),
        // never query 300: 8 entries and 12 results in all.
        for user in 0..4 {
            assert_eq!(lane.lookup(user, 100).map(|r| r.len()), Some(2));
            assert_eq!(lane.lookup(user, 200).map(|r| r.len()), Some(1));
            assert!(lane.lookup(user, 300).is_none());
        }
        assert!(lane.lookup(4, 100).is_none());
        let bytes = 8 * 16 + 12 * 13;
        assert_eq!(lane.cache_bytes(), bytes);
        assert_eq!(lane.deltas.audited_bytes() as u64, bytes);
        // A further 100 serves of the same pairs grow nothing.
        for i in 0..100u64 {
            lane.serve(&at(i % 4, i % 3)).unwrap();
        }
        assert_eq!(lane.cache_bytes(), bytes);
        assert_eq!(lane.deltas.audited_bytes() as u64, bytes);
    }

    #[test]
    fn growth_after_another_entry_moves_and_stays_accounted() {
        let (community, _) = world();
        let pairs = PairTable::new(vec![(100, 10), (300, 30), (200, 20), (100, 12)]);
        let mut lane = PopulationLane::new(
            PopulationConfig::default(),
            Arc::clone(&community),
            pairs.into_shared(),
        );
        // User 1's query-100 entry is seeded first; two more entries
        // are appended behind it before it gains result 12, so it must
        // move to the arena's tail.
        for (user, key) in [(1, 0), (1, 1), (2, 2), (1, 3), (2, 0), (1, 3)] {
            lane.serve(&at(user, key)).unwrap();
            assert_eq!(lane.cache_bytes(), lane.deltas.audited_bytes() as u64);
        }
        // User 1: query 100 (10, 11, 12) and 300 (30); user 2: 200 (20)
        // and 100 (10, 11).
        assert_eq!(lane.cache_bytes(), 4 * 16 + 7 * 13);
        let view = lane.lookup(1, 100).unwrap();
        let order: Vec<(u64, bool)> = view.iter().map(|r| (r.result_hash, r.accessed)).collect();
        assert_eq!(order, vec![(12, true), (10, true), (11, false)]);
        assert_eq!(lane.lookup(2, 100).unwrap().len(), 2);
        assert_eq!(lane.lookup(2, 200).unwrap().len(), 1);
    }

    #[test]
    fn summary_keys_are_every_key_of_the_deltas_non_community_queries() {
        let (community, _) = world();
        // Keys 1 and 4 share query 300, which the community lacks.
        let pairs = PairTable::new(vec![(100, 10), (300, 30), (200, 20), (400, 40), (300, 31)]);
        let mut lane =
            PopulationLane::new(PopulationConfig::default(), community, pairs.into_shared());
        assert!(lane.summary_keys().is_empty());
        // Two users click query 300 and one clicks community query 100;
        // query 400 is never clicked.
        for (user, key) in [(1, 4), (2, 1), (1, 0)] {
            lane.serve(&at(user, key)).unwrap();
        }
        assert_eq!(lane.summary_keys(), vec![1, 4]);
    }

    #[test]
    fn community_only_mode_never_materializes_deltas() {
        let (community, pairs) = world();
        let config = PopulationConfig {
            mode: CacheMode::CommunityOnly,
            ..PopulationConfig::default()
        };
        let mut lane = PopulationLane::new(config, community, pairs);
        for key in [0u64, 3, 3, 3] {
            lane.serve(&at(1, key)).unwrap();
        }
        assert_eq!(lane.deltas.audited_bytes(), 0);
        assert_eq!(lane.cache_bytes(), 0);
        assert!(lane.summary_keys().is_empty());
        // Query 300 never starts hitting: no personalization.
        assert_eq!(lane.serve(&at(1, 3)).unwrap().kind, ServeKind::Miss);
    }

    #[test]
    fn community_only_fast_path_matches_the_write_path() {
        let (community, pairs) = world();
        let config = PopulationConfig {
            mode: CacheMode::CommunityOnly,
            ..PopulationConfig::default()
        };
        let mut lane = PopulationLane::new(config, community.clone(), pairs.clone());
        // A community hit is answered lock-free with the exact outcome
        // the write path would produce.
        let fast = lane.try_serve_hit(&at(1, 0)).expect("community hit");
        let slow = lane.serve(&at(1, 0)).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(lane.try_serve_hit(&at(0, 0)), Some(fast));
        // Misses and unknown keys decline to the write path.
        assert_eq!(lane.try_serve_hit(&at(1, 3)), None);
        assert_eq!(lane.try_serve_hit(&at(1, 99)), None);
        // Personalization modes always decline: the click must fold.
        let full = PopulationLane::new(PopulationConfig::default(), community, pairs);
        assert_eq!(full.try_serve_hit(&at(1, 0)), None);
    }

    #[test]
    fn pair_table_accounting() {
        let t = PairTable::new(vec![(1, 2), (3, 4)]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.get(1), Some((3, 4)));
        assert_eq!(t.get(2), None);
        assert_eq!(t.footprint_bytes(), 32);
    }
}
