//! PocketWeb behind the unified [`CloudletService`] interface.
//!
//! [`PocketWeb::visit`] needs the [`WebWorld`] alongside the cloudlet
//! (pages' live versions advance with simulated time), so the service
//! impl lives on [`WebService`], a thin owner of both. Keys are page
//! indices (`PageId.0 as u64`); a key beyond the world's page count is
//! a [`CloudletError::UnknownKey`], not a panic.

use cloudlet_core::arbiter::DemandContext;
use cloudlet_core::coordination::{BudgetDemand, CloudletId};
use cloudlet_core::service::{
    CloudletError, CloudletService, ServeOutcome, ServeRequest, ServeStats,
};

use crate::cloudlet::{PocketWeb, VisitOutcome, WebStats};
use crate::world::{PageId, WebWorld};

/// A [`PocketWeb`] cloudlet paired with its simulated web, servable
/// through [`CloudletService`].
#[derive(Debug, Clone, PartialEq)]
pub struct WebService {
    world: WebWorld,
    web: PocketWeb,
}

impl WebService {
    /// Wraps a cloudlet and the world it browses.
    pub fn new(world: WebWorld, web: PocketWeb) -> Self {
        WebService { world, web }
    }

    /// The simulated web.
    pub fn world(&self) -> &WebWorld {
        &self.world
    }

    /// The wrapped cloudlet.
    pub fn web(&self) -> &PocketWeb {
        &self.web
    }

    /// The service-layer key of a page.
    pub fn key_of(page: PageId) -> u64 {
        u64::from(page.0)
    }

    /// Projects [`WebStats`] onto the shared taxonomy: instant hits are
    /// hits, stale refetches are stale hits, and radio bytes include
    /// the real-time push stream.
    pub fn project_stats(stats: &WebStats) -> ServeStats {
        ServeStats {
            serves: stats.visits(),
            hits: stats.instant_hits,
            stale_hits: stats.stale_refetches,
            misses: stats.misses,
            skipped: 0,
            recovered: 0,
            peer_hits: 0,
            peer_bytes: 0,
            radio_bytes: stats.radio_bytes(),
            busy: mobsim::time::SimDuration::ZERO,
        }
    }
}

impl CloudletService for WebService {
    fn name(&self) -> &'static str {
        "web"
    }

    fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
        let page = u32::try_from(request.key)
            .ok()
            .filter(|&p| (p as usize) < self.world.pages().len())
            .map(PageId)
            .ok_or(CloudletError::UnknownKey { key: request.key })?;
        Ok(match self.web.visit(&self.world, page, request.at) {
            VisitOutcome::InstantHit => ServeOutcome::hit(),
            VisitOutcome::StaleRefetch { bytes } => ServeOutcome::stale_hit(bytes),
            VisitOutcome::Miss { bytes } => ServeOutcome::miss(bytes),
        })
    }

    /// A visit that [`PocketWeb::peek_instant`] certifies as instant is
    /// answered read-only. The serve path's side effects (LRU touch,
    /// access count, hit counter) are deferred: the front-end counts
    /// the hit, and a subscribed page's pending realtime delta is
    /// billed by the next mutating pass.
    fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
        let page = u32::try_from(request.key)
            .ok()
            .filter(|&p| (p as usize) < self.world.pages().len())
            .map(PageId)?;
        self.web
            .peek_instant(&self.world, page, request.at)
            .then(ServeOutcome::hit)
    }

    /// Derived from the cloudlet's own counters, so maintenance passes
    /// (real-time pushes) show up in `radio_bytes` exactly as
    /// [`WebStats::radio_bytes`] reports them.
    fn service_stats(&self) -> ServeStats {
        Self::project_stats(&self.web.stats())
    }

    fn cache_bytes(&self) -> u64 {
        self.web.cached_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.web.flash_budget()
    }

    /// Demand follows engagement: a lane the epoch's telemetry shows
    /// idle only defends the bytes it already caches instead of bidding
    /// for its full flash budget, freeing headroom for busy cloudlets.
    /// Static contexts (epoch 0, no telemetry) keep the full-capacity
    /// demand, so one-shot `equal_priority` allocations are unchanged.
    fn budget_demand(&self, cloudlet: CloudletId, ctx: &DemandContext) -> BudgetDemand {
        let demand = if ctx.epoch > 0 && !ctx.observed() {
            self.web.cached_bytes()
        } else {
            self.web.flash_budget()
        };
        BudgetDemand {
            cloudlet,
            demand_bytes: usize::try_from(demand).unwrap_or(usize::MAX),
            priority: ctx.priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RefreshPolicy;
    use crate::world::WorldConfig;
    use cloudlet_core::frontend::LaneTotals;
    use cloudlet_core::service::ServeKind;
    use mobsim::time::{SimDuration, SimInstant};

    fn service() -> WebService {
        let world = WebWorld::generate(WorldConfig::test_scale(), 4);
        let web = PocketWeb::new(&world, RefreshPolicy::OvernightOnly);
        WebService::new(world, web)
    }

    fn at(key: u64, now: SimInstant) -> ServeRequest {
        ServeRequest::for_user(0, key, now)
    }

    #[test]
    fn serve_mirrors_visit_outcomes() {
        let mut svc = service();
        let t0 = SimInstant::ZERO;
        let key = WebService::key_of(svc.world().pages()[0].id);
        let first = svc.serve(&at(key, t0)).expect("page key is valid");
        assert_eq!(first.kind, ServeKind::Miss);
        assert!(first.radio_bytes > 0);
        let again = svc.serve(&at(key, t0)).expect("page key is valid");
        assert_eq!(again.kind, ServeKind::Hit);
        assert_eq!(again.radio_bytes, 0);
    }

    #[test]
    fn stats_project_the_legacy_counters() {
        let mut svc = service();
        let t = SimInstant::ZERO;
        for page in svc
            .world()
            .pages()
            .iter()
            .take(6)
            .map(|p| p.id)
            .collect::<Vec<_>>()
        {
            svc.serve(&at(WebService::key_of(page), t))
                .expect("valid key");
            svc.serve(&at(
                WebService::key_of(page),
                t + SimDuration::from_secs(60),
            ))
            .expect("valid key");
        }
        let legacy = svc.web().stats();
        let stats = svc.service_stats();
        assert_eq!(stats.serves, legacy.visits());
        assert_eq!(stats.hits, legacy.instant_hits);
        assert_eq!(stats.stale_hits, legacy.stale_refetches);
        assert_eq!(stats.misses, legacy.misses);
        assert_eq!(stats.radio_bytes, legacy.radio_bytes());
    }

    #[test]
    fn out_of_range_keys_are_typed_errors() {
        let mut svc = service();
        let beyond = svc.world().pages().len() as u64;
        assert_eq!(
            svc.serve(&at(beyond, SimInstant::ZERO)),
            Err(CloudletError::UnknownKey { key: beyond })
        );
        assert_eq!(
            svc.serve(&at(u64::MAX, SimInstant::ZERO)),
            Err(CloudletError::UnknownKey { key: u64::MAX })
        );
        assert_eq!(svc.service_stats().serves, 0, "errors are not serves");
    }

    #[test]
    fn capacity_reports_the_flash_budget() {
        let svc = service();
        assert_eq!(svc.capacity_bytes(), PocketWeb::DEFAULT_FLASH_BUDGET);
        assert!(svc.cache_bytes() < svc.capacity_bytes());
        let demand = svc.budget_demand(CloudletId(1), &DemandContext::equal_priority(0));
        assert_eq!(demand.demand_bytes as u64, PocketWeb::DEFAULT_FLASH_BUDGET);
    }

    #[test]
    fn idle_epochs_shrink_demand_to_cached_bytes() {
        let mut svc = service();
        let key = WebService::key_of(svc.world().pages()[0].id);
        svc.serve(&at(key, SimInstant::ZERO)).expect("valid key");
        // Epoch 1, no observed traffic: defend only what is cached.
        let idle = svc.budget_demand(CloudletId(1), &DemandContext::equal_priority(1));
        assert_eq!(idle.demand_bytes as u64, svc.cache_bytes());
        assert!(idle.demand_bytes > 0, "one page is cached");
        // Epoch 1 with traffic: full budget again.
        let traffic = LaneTotals {
            events: 1,
            misses: 1,
            ..LaneTotals::default()
        };
        let busy_ctx = DemandContext::equal_priority(1).with_telemetry(traffic);
        let busy = svc.budget_demand(CloudletId(1), &busy_ctx);
        assert_eq!(busy.demand_bytes as u64, PocketWeb::DEFAULT_FLASH_BUDGET);
    }
}
