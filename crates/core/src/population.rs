//! Population-scale serving: one shared community snapshot, a million
//! personal deltas.
//!
//! A [`PopulationLane`] is a [`CloudletService`] that serves a whole
//! *population* of simulated users through the §4 two-part cache split:
//! every user on the lane shares one `Arc`'d [`CommunityCache`] snapshot
//! with its one serve index (and one [`PairTable`] mapping request keys
//! back to query/result hashes), while each user's clicks fold into
//! their own compact [`PersonalDelta`], created lazily on first click.
//! Resident memory is therefore
//!
//! ```text
//! community (once) + pair table (once) + Σ_users delta(user)
//! ```
//!
//! — O(users), with no per-event term: events stream through
//! (`querylog::stream::EventStream`) and are dropped once served. The
//! `ablations --study population` harness asserts this accounting while
//! replaying a simulated day for a million users.
//!
//! Lanes are meant to be driven by the front-end with
//! [`crate::frontend::RouteBy::User`], so each user's delta exists on
//! exactly one lane; key-routing would smear one user's clicks across
//! every lane their keys hash to and multiply delta memory by the lane
//! count.

use std::collections::HashMap;
use std::sync::Arc;

use mobsim::time::SimDuration;

use crate::cache::{CacheMode, CommunityCache, PersonalDelta};
use crate::service::{CloudletError, CloudletService, ServeOutcome, ServeRequest};

/// Accounting bytes per pair-table row: two 64-bit hashes.
const PAIR_ROW_BYTES: usize = 16;

/// The shared key → `(query_hash, result_hash)` directory.
///
/// Population requests carry a dense pair id as their key (the
/// `querylog` universe's `PairId`); one shared table resolves it to the
/// hash pair the caches speak. Like the community snapshot it is built
/// once, frozen, and `Arc`-shared by every lane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairTable {
    pairs: Vec<(u64, u64)>,
}

impl PairTable {
    /// A table whose row `i` resolves key `i`.
    pub fn new(pairs: Vec<(u64, u64)>) -> Self {
        PairTable { pairs }
    }

    /// Resolves a request key to its `(query_hash, result_hash)`.
    pub fn get(&self, key: u64) -> Option<(u64, u64)> {
        usize::try_from(key)
            .ok()
            .and_then(|i| self.pairs.get(i).copied())
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
    deltas: HashMap<u64, PersonalDelta>,
    delta_bytes: usize,
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
            deltas: HashMap::new(),
            delta_bytes: 0,
        }
    }

    /// The lane's serving model.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// The shared community snapshot.
    pub fn community(&self) -> &Arc<CommunityCache> {
        &self.community
    }

    /// `user`'s personalization delta, if they have clicked on this lane.
    pub fn delta(&self, user: u64) -> Option<&PersonalDelta> {
        self.deltas.get(&user)
    }

    /// Whether `user`'s view of the pair's query would hit right now.
    fn is_hit(&self, user: u64, query_hash: u64) -> bool {
        if self.config.mode.personalization_enabled()
            && self
                .deltas
                .get(&user)
                .is_some_and(|d| d.contains_query(query_hash))
        {
            return true;
        }
        self.config.mode.community_enabled() && self.community.contains_query(query_hash)
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
        let outcome = if self.is_hit(user, query_hash) {
            ServeOutcome::hit().with_service(self.config.hit_service)
        } else {
            ServeOutcome::miss(self.config.miss_radio_bytes).with_service(self.config.miss_service)
        };
        if self.config.mode.personalization_enabled() {
            let policy = *self.community.policy();
            let community = self
                .config
                .mode
                .community_enabled()
                .then_some(self.community.as_ref());
            self.delta_bytes += self.deltas.entry(user).or_default().record_click(
                &policy,
                community,
                query_hash,
                result_hash,
            );
        }
        Ok(outcome)
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
    /// personalization deltas answer *beyond* the community snapshot.
    /// Community-held keys are deliberately excluded — every lane
    /// shares the same `Arc`'d snapshot, so a cellmate's local miss can
    /// never be a community key; advertising them would only load the
    /// Bloom summary. A full-table scan, meant for epoch-grained
    /// summary refreshes, not per-request calls.
    fn summary_keys(&self) -> Vec<u64> {
        if !self.config.mode.personalization_enabled() || self.deltas.is_empty() {
            return Vec::new();
        }
        let community_on = self.config.mode.community_enabled();
        (0..self.pairs.len() as u64)
            .filter(|&key| {
                let Some((query_hash, _)) = self.pairs.get(key) else {
                    return false;
                };
                if community_on && self.community.contains_query(query_hash) {
                    return false;
                }
                self.deltas.values().any(|d| d.contains_query(query_hash))
            })
            .collect()
    }

    /// Per-user resident bytes only: the community snapshot and pair
    /// table are shared across lanes and accounted once by the study,
    /// not per lane.
    fn cache_bytes(&self) -> u64 {
        self.delta_bytes as u64
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
        assert_eq!(lane.deltas.len(), 4);
        let bytes: Vec<usize> = lane
            .deltas
            .values()
            .map(PersonalDelta::footprint_bytes)
            .collect();
        assert_eq!(bytes.iter().sum::<usize>() as u64, lane.cache_bytes());
        assert!(bytes.iter().all(|&b| b > 0));
        // Each delta holds at most the three pairs served, never query 300...
        assert!(lane
            .deltas
            .values()
            .all(|d| d.pair_count() <= 3 && !d.contains_query(300)));
        // ...and a further 100 serves of the same pairs grow nothing.
        let total_pairs = |lane: &PopulationLane| {
            lane.deltas
                .values()
                .map(PersonalDelta::pair_count)
                .sum::<usize>()
        };
        let before = (total_pairs(&lane), lane.cache_bytes());
        for i in 0..100u64 {
            lane.serve(&at(i % 4, i % 3)).unwrap();
        }
        assert_eq!((total_pairs(&lane), lane.cache_bytes()), before);
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
        assert!(lane.deltas.is_empty());
        assert_eq!(lane.cache_bytes(), 0);
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
