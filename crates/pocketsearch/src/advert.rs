//! The advertisement cloudlet (Figure 1, §7).
//!
//! PocketSearch is "a search **and advertisement** pocket cloudlet": next
//! to each cached result page it shows a locally cached ad banner. The ad
//! cache reuses the same architecture (a hash table keyed by query), and
//! §7 uses the search/ads pair to motivate coordination: "if a particular
//! query misses in the local search cache, there is not much benefit in
//! hitting the ad cache because the latency bottleneck to service this
//! query will be waking up the radio" — so the ad cloudlet is only
//! consulted after a search hit, and its entries share eviction groups
//! with the search entries they accompany.

use cloudlet_core::coordination::{CloudletId, CoordinatedEviction};
use cloudlet_core::hashtable::{ConflictPolicy, QueryHashTable};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One cached advertisement banner.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdRecord {
    /// Stable hash identifying the ad creative.
    pub ad_hash: u64,
    /// Banner payload size in bytes (~5 KB in Table 2).
    pub banner_bytes: usize,
    /// The ad caption shown under the banner.
    pub caption: String,
}

/// Outcome of consulting the ad cloudlet for one query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdOutcome {
    /// The search cache missed, so the ad cache was not consulted at all.
    Skipped,
    /// A locally cached ad is shown.
    Hit(AdRecord),
    /// No ad cached for this query; the radio fetch will bring one.
    Miss,
}

// api-ok: the §7 ad cloudlet beside search; tests/multi_cloudlet.rs
// and tests/service_equivalence.rs drive it.
/// The advertisement cloudlet.
///
/// # Example
///
/// ```
/// use pocketsearch::advert::{AdCloudlet, AdOutcome, AdRecord};
///
/// let mut ads = AdCloudlet::new();
/// ads.install(42, AdRecord { ad_hash: 7, banner_bytes: 5_000, caption: "Sale!".into() });
/// assert!(matches!(ads.serve(42, true), AdOutcome::Hit(_)));
/// // After a search miss the radio wakes anyway — the ad cache is skipped.
/// assert_eq!(ads.serve(42, false), AdOutcome::Skipped);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdCloudlet {
    table: QueryHashTable,
    creatives: HashMap<u64, AdRecord>,
}

impl AdCloudlet {
    /// An empty ad cache.
    pub fn new() -> Self {
        AdCloudlet::default()
    }

    // api-ok: the §7 ad cloudlet is filled only by its caller;
    // tests/multi_cloudlet.rs installs the ads its eviction check clears.
    /// Installs an ad for a query.
    pub fn install(&mut self, query_hash: u64, record: AdRecord) {
        self.table
            .upsert(query_hash, record.ad_hash, 1.0, ConflictPolicy::Max);
        self.creatives.insert(record.ad_hash, record);
    }

    /// Serves the ad slot for a query, given whether the search cache hit.
    pub fn serve(&self, query_hash: u64, search_hit: bool) -> AdOutcome {
        if !search_hit {
            return AdOutcome::Skipped;
        }
        self.table
            .lookup(query_hash)
            .and_then(|results| results.first().copied())
            .and_then(|r| self.creatives.get(&r.result_hash).cloned())
            .map_or(AdOutcome::Miss, AdOutcome::Hit)
    }

    // api-ok: §7 coordinated eviction; tests/multi_cloudlet.rs
    // evicts an ad group through it.
    /// Removes the ads linked to a query (a coordinated eviction).
    pub fn evict_query(&mut self, query_hash: u64) -> usize {
        let Some(results) = self.table.lookup(query_hash) else {
            return 0;
        };
        for r in &results {
            self.creatives.remove(&r.result_hash);
        }
        self.table.retain_pairs(|q, _, _, _| q != query_hash)
    }

    // api-ok: §7 coordinated eviction; tests/multi_cloudlet.rs links
    // the ad cache into its eviction groups through it.
    /// Registers every cached query under a shared eviction key with the
    /// search cloudlet, so related entries leave together (§7).
    pub fn link_evictions(&self, eviction: &mut CoordinatedEviction, me: CloudletId) {
        for (query_hash, ad_hash, _, _) in self.table.iter_pairs() {
            eviction.link(query_hash, me, ad_hash);
        }
    }

    /// Total banner bytes cached.
    pub fn banner_bytes(&self) -> usize {
        self.creatives.values().map(|c| c.banner_bytes).sum()
    }
}

impl cloudlet_core::service::CloudletService for AdCloudlet {
    fn name(&self) -> &'static str {
        "ads"
    }

    /// Serves the ad slot for `key` as a standalone consultation — the
    /// front-end has no search outcome to thread through, so the
    /// cloudlet is consulted as it would be after a search hit. (The
    /// search-miss skip path stays on [`AdCloudlet::serve`], which
    /// callers that know the search outcome use directly.)
    fn serve(
        &mut self,
        request: &cloudlet_core::service::ServeRequest,
    ) -> Result<cloudlet_core::service::ServeOutcome, cloudlet_core::service::CloudletError> {
        use cloudlet_core::service::ServeOutcome;
        Ok(match AdCloudlet::serve(self, request.key, true) {
            AdOutcome::Hit(_) => ServeOutcome::hit(),
            AdOutcome::Miss => ServeOutcome::miss(0),
            AdOutcome::Skipped => ServeOutcome::skipped(),
        })
    }

    fn cache_bytes(&self) -> u64 {
        (self.banner_bytes() + self.table.footprint_bytes()) as u64
    }

    /// An ad consultation only earns its bytes when search hits — on a
    /// search miss the radio wakes anyway and the consultation is
    /// skipped (§7's coordinated semantics). The override dampens the
    /// arbiter's priority by the observed consultation rate, so an ad
    /// cache that is mostly skipped stops outbidding cloudlets whose
    /// bytes are earning hits. Without telemetry (a static allocation)
    /// the priority passes through unchanged.
    fn budget_demand(
        &self,
        cloudlet: cloudlet_core::coordination::CloudletId,
        ctx: &cloudlet_core::arbiter::DemandContext,
    ) -> cloudlet_core::coordination::BudgetDemand {
        let (served, consulted) = (ctx.totals.served(), ctx.totals.attempted());
        let priority = if served > 0 {
            let consult_rate = consulted as f64 / served as f64;
            (ctx.priority * consult_rate).max(cloudlet_core::arbiter::PRIORITY_FLOOR)
        } else {
            ctx.priority
        };
        cloudlet_core::coordination::BudgetDemand {
            cloudlet,
            demand_bytes: self.banner_bytes() + self.table.footprint_bytes(),
            priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ad(hash: u64) -> AdRecord {
        AdRecord {
            ad_hash: hash,
            banner_bytes: 5_000,
            caption: format!("creative {hash}"),
        }
    }

    #[test]
    fn hit_miss_skip_accounting() {
        let mut ads = AdCloudlet::new();
        ads.install(1, ad(10));
        let outcomes: Vec<AdOutcome> = [(1, true), (2, true), (1, false)]
            .into_iter()
            .map(|(query, search_hit)| ads.serve(query, search_hit))
            .collect();
        assert_eq!(
            outcomes,
            [AdOutcome::Hit(ad(10)), AdOutcome::Miss, AdOutcome::Skipped]
        );
    }

    #[test]
    fn eviction_removes_table_and_creatives() {
        let mut ads = AdCloudlet::new();
        ads.install(1, ad(10));
        ads.install(1, ad(11));
        ads.install(2, ad(20));
        assert_eq!(ads.evict_query(1), 2);
        assert_eq!(ads.creatives.len(), 1);
        assert_eq!(ads.serve(1, true), AdOutcome::Miss);
        assert!(matches!(ads.serve(2, true), AdOutcome::Hit(_)));
        assert_eq!(ads.evict_query(99), 0);
    }

    #[test]
    fn coordinated_eviction_spans_cloudlets() {
        let mut ads = AdCloudlet::new();
        ads.install(42, ad(7));
        let mut ev = CoordinatedEviction::new();
        let search = CloudletId(0);
        let ads_id = CloudletId(1);
        ev.link(42, search, 0xBEEF); // the search entry for the same query
        ads.link_evictions(&mut ev, ads_id);
        let group = ev.evict(42);
        assert_eq!(group.len(), 2, "search entry and ad entry leave together");
        assert!(group.contains(&(ads_id, 7)));
        // The ad cloudlet honours its half of the group.
        for (who, _) in group {
            if who == ads_id {
                ads.evict_query(42);
            }
        }
        assert_eq!(ads.serve(42, true), AdOutcome::Miss);
    }

    #[test]
    fn banner_budget_tracks_table2_sizing() {
        let mut ads = AdCloudlet::new();
        for i in 0..100 {
            ads.install(i, ad(1_000 + i));
        }
        assert_eq!(ads.banner_bytes(), 500_000);
    }
}
