//! PocketMaps behind the unified [`CloudletService`] interface.
//!
//! A maps "request" is a viewport render centred on a tile. Keys are
//! packed tile coordinates ([`TileId::to_key`]); every `u64` decodes to
//! a tile on the unbounded plane, so `serve` never sees an unknown key.
//! A render counts as a [`ServeKind::Hit`](cloudlet_core::service::ServeKind)
//! only when the whole 3×3 viewport came from the cache — the same
//! instant/non-instant split [`MapsStats`](crate::cloudlet::MapsStats) tracks.

use cloudlet_core::arbiter::DemandContext;
use cloudlet_core::coordination::{BudgetDemand, CloudletId};
use cloudlet_core::service::{CloudletError, CloudletService, ServeOutcome, ServeRequest};

use crate::cloudlet::PocketMaps;
use crate::grid::TileId;

impl CloudletService for PocketMaps {
    fn name(&self) -> &'static str {
        "maps"
    }

    fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
        let tile = TileId::from_key(request.key);
        let center = self.grid().tile_center(tile);
        let before = self.stats().radio_bytes;
        let render = self.render_viewport(center);
        Ok(if render.instant() {
            ServeOutcome::hit()
        } else {
            ServeOutcome::miss(self.stats().radio_bytes - before)
        })
    }

    /// A render whose nine viewport tiles are all cached is answered
    /// read-only via [`PocketMaps::viewport_cached`]. The serve path's
    /// side effects (hot-spot visit count, render counters) are skipped;
    /// the front-end's lane totals record the hit.
    fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
        let center = self.grid().tile_center(TileId::from_key(request.key));
        self.viewport_cached(center).then(ServeOutcome::hit)
    }

    fn cache_bytes(&self) -> u64 {
        self.cached_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.flash_budget()
    }

    /// Same engagement-driven demand as the web cloudlet: an idle epoch
    /// defends only the tiles already cached; observed traffic (or a
    /// static epoch-0 context) bids for the full flash budget.
    fn budget_demand(&self, cloudlet: CloudletId, ctx: &DemandContext) -> BudgetDemand {
        let demand = if ctx.epoch > 0 && !ctx.observed() {
            self.cached_bytes()
        } else {
            self.flash_budget()
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
    use crate::grid::{Position, TileGrid};
    use cloudlet_core::service::ServeKind;
    use mobsim::time::SimInstant;

    fn at(key: u64) -> ServeRequest {
        ServeRequest::for_user(0, key, SimInstant::ZERO)
    }

    #[test]
    fn tile_keys_round_trip() {
        for tile in [
            TileId { x: 0, y: 0 },
            TileId { x: -1, y: 1 },
            TileId {
                x: i32::MAX,
                y: i32::MIN,
            },
            TileId {
                x: -12_345,
                y: 67_890,
            },
        ] {
            assert_eq!(TileId::from_key(tile.to_key()), tile);
        }
        assert_eq!(TileId::from_key(u64::MAX), TileId { x: -1, y: -1 });
    }

    #[test]
    fn serve_renders_the_keyed_viewport() {
        let grid = TileGrid::paper_default();
        let mut maps = PocketMaps::new(grid, 10_000_000);
        let home = Position::meters(1_000.0, 2_000.0);
        maps.prefetch_region(home, 3_000.0);
        let key = grid.tile_for(home).to_key();
        let outcome = maps.serve(&at(key)).expect("maps serve");
        assert_eq!(outcome.kind, ServeKind::Hit, "prefetched region is local");
        let far = TileId { x: 500, y: 500 }.to_key();
        let outcome = maps.serve(&at(far)).expect("maps serve");
        assert_eq!(outcome.kind, ServeKind::Miss);
        assert_eq!(outcome.radio_bytes, 9 * grid.tile_bytes, "3x3 cold fetch");
        assert_eq!(maps.capacity_bytes(), 10_000_000);
    }
}
