//! PocketWeb behind the unified [`CloudletService`] interface.
//!
//! [`PocketWeb::visit`] needs the [`WebWorld`] alongside the cloudlet
//! (pages' live versions advance with simulated time), so the service
//! impl lives on [`WebService`], a thin owner of both. Keys are page
//! indices (`PageId.0 as u64`); a key beyond the world's page count is
//! a [`CloudletError::UnknownKey`], not a panic.

use cloudlet_core::arbiter::DemandContext;
use cloudlet_core::coordination::{BudgetDemand, CloudletId};
use cloudlet_core::service::{CloudletError, CloudletService, ServeOutcome, ServeRequest};

use crate::cloudlet::{PocketWeb, VisitOutcome};
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
    use mobsim::time::SimInstant;

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
        let key = u64::from(svc.world().pages()[0].id.0);
        let first = svc.serve(&at(key, t0)).expect("page key is valid");
        assert_eq!(first.kind, ServeKind::Miss);
        assert!(first.radio_bytes > 0);
        let again = svc.serve(&at(key, t0)).expect("page key is valid");
        assert_eq!(again.kind, ServeKind::Hit);
        assert_eq!(again.radio_bytes, 0);
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
        assert_eq!(svc.web().stats().visits(), 0, "errors are not visits");
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
        let key = u64::from(svc.world().pages()[0].id.0);
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
        let busy_ctx = DemandContext {
            totals: traffic,
            ..DemandContext::equal_priority(1)
        };
        let busy = svc.budget_demand(CloudletId(1), &busy_ctx);
        assert_eq!(busy.demand_bytes as u64, PocketWeb::DEFAULT_FLASH_BUDGET);
    }
}
