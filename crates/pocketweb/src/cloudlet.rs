//! The on-device page cache with freshness tracking.

use std::collections::{BTreeSet, HashMap};

use mobsim::time::SimInstant;
use serde::{Deserialize, Serialize};

use crate::policy::RefreshPolicy;
use crate::world::{PageId, WebWorld};

/// A page held on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct CachedPage {
    version: u64,
    bytes: u64,
    last_access: u64,
}

/// How one visit was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VisitOutcome {
    /// The page was cached and fresh: instant, radio-free browsing.
    InstantHit,
    /// The page was cached but stale; it was re-fetched over the radio.
    StaleRefetch {
        /// Bytes pulled over the radio.
        bytes: u64,
    },
    /// The page was not cached at all; fetched over the radio.
    Miss {
        /// Bytes pulled over the radio.
        bytes: u64,
    },
}

impl VisitOutcome {
    /// Radio bytes this visit cost on demand.
    pub fn on_demand_bytes(self) -> u64 {
        match self {
            VisitOutcome::InstantHit => 0,
            VisitOutcome::StaleRefetch { bytes } | VisitOutcome::Miss { bytes } => bytes,
        }
    }
}

/// Radio/freshness counters of a [`PocketWeb`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WebStats {
    /// Visits served instantly from fresh cache.
    pub instant_hits: u64,
    /// Visits that found a stale copy and re-fetched.
    pub stale_refetches: u64,
    /// Visits to uncached pages.
    pub misses: u64,
    /// Bytes fetched over the radio on demand (stale + miss).
    pub on_demand_bytes: u64,
    /// Bytes pushed over the radio by real-time refreshes.
    pub realtime_bytes: u64,
}

impl WebStats {
    /// Total visits recorded.
    pub fn visits(&self) -> u64 {
        self.instant_hits + self.stale_refetches + self.misses
    }

    /// Fraction of visits served instantly.
    pub fn instant_rate(&self) -> f64 {
        if self.visits() == 0 {
            0.0
        } else {
            self.instant_hits as f64 / self.visits() as f64
        }
    }

    /// Total radio bytes (on-demand plus real-time pushes).
    pub fn radio_bytes(&self) -> u64 {
        self.on_demand_bytes + self.realtime_bytes
    }
}

/// The web-content cloudlet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PocketWeb {
    policy: RefreshPolicy,
    /// Flash bytes the cloudlet may occupy.
    flash_budget: u64,
    cached: HashMap<PageId, CachedPage>,
    access_counts: HashMap<PageId, u32>,
    realtime_set: BTreeSet<PageId>,
    stats: WebStats,
    clock_ticks: u64,
}

impl PocketWeb {
    /// Default flash budget: 64 MB, a sliver of the Table 2 projections.
    pub const DEFAULT_FLASH_BUDGET: u64 = 64_000_000;

    /// Creates an empty cloudlet under a refresh policy.
    pub fn new(_world: &WebWorld, policy: RefreshPolicy) -> Self {
        PocketWeb {
            policy,
            flash_budget: Self::DEFAULT_FLASH_BUDGET,
            cached: HashMap::new(),
            access_counts: HashMap::new(),
            realtime_set: BTreeSet::new(),
            stats: WebStats::default(),
            clock_ticks: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RefreshPolicy {
        self.policy
    }

    /// Flash bytes the cloudlet is allowed to occupy.
    pub fn flash_budget(&self) -> u64 {
        self.flash_budget
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WebStats {
        self.stats
    }

    /// Flash bytes currently occupied.
    pub fn cached_bytes(&self) -> u64 {
        self.cached.values().map(|c| c.bytes).sum()
    }

    /// The pages currently subscribed to real-time updates.
    pub fn realtime_set(&self) -> impl Iterator<Item = PageId> + '_ {
        self.realtime_set.iter().copied()
    }

    /// Whether a [`PocketWeb::visit`] at `now` would be an instant hit,
    /// without performing it. True when the cached copy is already at
    /// the page's live version, or the page is real-time subscribed
    /// (the push stream brings it to the live version before the visit
    /// is answered, so the visit is instant either way).
    ///
    /// Read-only by construction: no LRU touch, no access count, and no
    /// realtime byte charge — a subscribed page's pending delta is
    /// billed by whichever mutating pass ([`PocketWeb::visit`] or
    /// [`PocketWeb::sync_realtime`]) runs next, never dropped.
    pub fn peek_instant(&self, world: &WebWorld, page: PageId, now: SimInstant) -> bool {
        let Some(cached) = self.cached.get(&page) else {
            return false;
        };
        cached.version == world.page(page).live_version(now) || self.realtime_set.contains(&page)
    }

    // api-ok: §3.2's overnight bulk prefetch; the §3 search-then-web
    // story in tests/multi_cloudlet.rs warms its landing pages with it.
    /// Installs a page at its current live version without radio cost —
    /// the overnight bulk prefetch path (charging + WiFi, §3.2).
    pub fn prefetch(&mut self, world: &WebWorld, page: PageId, now: SimInstant) {
        let spec = world.page(page);
        self.clock_ticks += 1;
        self.cached.insert(
            page,
            CachedPage {
                version: spec.live_version(now),
                bytes: spec.bytes,
                last_access: self.clock_ticks,
            },
        );
        self.enforce_budget();
    }

    /// Brings every subscribed page up to its live version, charging the
    /// radio for each missed change (the real-time push stream).
    pub fn sync_realtime(&mut self, world: &WebWorld, now: SimInstant) {
        for &page in &self.realtime_set {
            if let Some(cached) = self.cached.get_mut(&page) {
                let live = world.page(page).live_version(now);
                if live > cached.version {
                    let bumps = live - cached.version;
                    let delta = (world.page(page).bytes as f64 * world.config().delta_fraction)
                        .ceil() as u64;
                    self.stats.realtime_bytes += bumps * delta;
                    cached.version = live;
                }
            }
        }
    }

    /// Serves one page visit at instant `now`.
    pub fn visit(&mut self, world: &WebWorld, page: PageId, now: SimInstant) -> VisitOutcome {
        self.sync_realtime(world, now);
        self.clock_ticks += 1;
        *self.access_counts.entry(page).or_insert(0) += 1;

        let spec = world.page(page);
        let live = spec.live_version(now);
        let outcome = match self.cached.get_mut(&page) {
            Some(cached) if cached.version == live => {
                cached.last_access = self.clock_ticks;
                self.stats.instant_hits += 1;
                VisitOutcome::InstantHit
            }
            Some(cached) => {
                cached.version = live;
                cached.last_access = self.clock_ticks;
                self.stats.stale_refetches += 1;
                self.stats.on_demand_bytes += spec.bytes;
                VisitOutcome::StaleRefetch { bytes: spec.bytes }
            }
            None => {
                self.cached.insert(
                    page,
                    CachedPage {
                        version: live,
                        bytes: spec.bytes,
                        last_access: self.clock_ticks,
                    },
                );
                self.stats.misses += 1;
                self.stats.on_demand_bytes += spec.bytes;
                VisitOutcome::Miss { bytes: spec.bytes }
            }
        };
        self.enforce_budget();
        outcome
    }

    /// The overnight maintenance pass (§3.2): refresh every cached page
    /// in bulk (free: charger + WiFi) and re-pick the real-time
    /// subscription set from what this user actually revisits.
    pub fn overnight_refresh(&mut self, world: &WebWorld, now: SimInstant) {
        for (&page, cached) in self.cached.iter_mut() {
            cached.version = world.page(page).live_version(now);
        }
        self.realtime_set = self
            .policy
            .pick_realtime_set(world, &self.access_counts, &self.cached);
    }

    fn enforce_budget(&mut self) {
        while self.cached_bytes() > self.flash_budget {
            // Over budget implies the cache is non-empty, but bail rather
            // than panic if that invariant ever breaks.
            let Some(victim) = self
                .cached
                .iter()
                .min_by_key(|(_, c)| c.last_access)
                .map(|(&p, _)| p)
            else {
                break;
            };
            self.cached.remove(&victim);
            self.realtime_set.remove(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use mobsim::time::SimDuration;

    fn world() -> WebWorld {
        WebWorld::generate(WorldConfig::test_scale(), 4)
    }

    fn dynamic_page(w: &WebWorld) -> PageId {
        w.pages()
            .iter()
            .find(|p| p.dynamic)
            .expect("world has dynamic pages")
            .id
    }

    fn static_page(w: &WebWorld) -> PageId {
        w.pages()
            .iter()
            .find(|p| !p.dynamic)
            .expect("world has static pages")
            .id
    }

    #[test]
    fn miss_then_instant_hit_for_static_pages() {
        let w = world();
        let mut web = PocketWeb::new(&w, RefreshPolicy::OvernightOnly);
        let page = static_page(&w);
        let t0 = SimInstant::ZERO;
        assert!(matches!(web.visit(&w, page, t0), VisitOutcome::Miss { .. }));
        let t1 = t0 + SimDuration::from_secs(3_600);
        assert_eq!(web.visit(&w, page, t1), VisitOutcome::InstantHit);
        assert_eq!(web.stats().misses, 1);
        assert_eq!(web.stats().instant_hits, 1);
    }

    #[test]
    fn dynamic_pages_go_stale_without_realtime() {
        let w = world();
        let mut web = PocketWeb::new(&w, RefreshPolicy::OvernightOnly);
        let page = dynamic_page(&w);
        web.visit(&w, page, SimInstant::ZERO);
        let later = SimInstant::ZERO + SimDuration::from_secs(3_600);
        assert!(matches!(
            web.visit(&w, page, later),
            VisitOutcome::StaleRefetch { .. }
        ));
    }

    #[test]
    fn realtime_subscription_keeps_news_fresh() {
        let w = world();
        let mut web = PocketWeb::new(&w, RefreshPolicy::RealtimeTopK { k: 5 });
        let page = dynamic_page(&w);
        web.visit(&w, page, SimInstant::ZERO);
        // Overnight: the revisited page enters the real-time set.
        web.overnight_refresh(&w, SimInstant::ZERO + SimDuration::from_secs(8 * 3_600));
        assert!(web.realtime_set().any(|p| p == page));
        // Next day, hours later: fresh despite many content changes...
        let next_day = SimInstant::ZERO + SimDuration::from_secs(30 * 3_600);
        assert_eq!(web.visit(&w, page, next_day), VisitOutcome::InstantHit);
        // ...because the push stream paid for the updates.
        assert!(web.stats().realtime_bytes > 0);
    }

    #[test]
    fn overnight_refresh_is_radio_free() {
        let w = world();
        let mut web = PocketWeb::new(&w, RefreshPolicy::OvernightOnly);
        let page = dynamic_page(&w);
        web.visit(&w, page, SimInstant::ZERO);
        let morning = SimInstant::ZERO + SimDuration::from_secs(24 * 3_600);
        web.overnight_refresh(&w, morning);
        assert_eq!(web.visit(&w, page, morning), VisitOutcome::InstantHit);
        assert_eq!(web.stats().realtime_bytes, 0);
    }

    #[test]
    fn prefetch_warms_the_cache_for_free() {
        let w = world();
        let mut web = PocketWeb::new(&w, RefreshPolicy::OvernightOnly);
        let page = static_page(&w);
        web.prefetch(&w, page, SimInstant::ZERO);
        assert_eq!(
            web.visit(&w, page, SimInstant::ZERO),
            VisitOutcome::InstantHit
        );
        assert_eq!(web.stats().on_demand_bytes, 0);
    }

    #[test]
    fn flash_budget_evicts_least_recently_used() {
        let w = world();
        let mut web = PocketWeb::new(&w, RefreshPolicy::OvernightOnly);
        web.flash_budget = 1_000_000;
        let t = SimInstant::ZERO;
        for p in w.pages().iter().take(20) {
            web.visit(&w, p.id, t);
        }
        assert!(web.cached_bytes() <= 1_000_000);
        assert!(web.cached.len() < 20, "budget must have evicted something");
        // The very first page was evicted first (LRU).
        let first = w.pages()[0].id;
        assert!(matches!(web.visit(&w, first, t), VisitOutcome::Miss { .. }));
    }

    #[test]
    fn stats_add_up() {
        let w = world();
        let mut web = PocketWeb::new(&w, RefreshPolicy::OvernightOnly);
        let t = SimInstant::ZERO;
        for p in w.pages().iter().take(5) {
            web.visit(&w, p.id, t);
            web.visit(&w, p.id, t);
        }
        let s = web.stats();
        assert_eq!(s.visits(), 10);
        assert_eq!(s.misses, 5);
        assert_eq!(s.instant_hits, 5);
        assert!((s.instant_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.radio_bytes(), s.on_demand_bytes);
    }
}
