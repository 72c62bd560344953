//! The tile cache and its prefetch policies.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::grid::{Position, TileGrid, TileId};
use crate::movement::MovementTrace;

/// What the overnight prefetch pass loads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PrefetchPolicy {
    /// Nothing is prefetched; every tile is fetched on first view.
    OnDemandOnly,
    /// A fixed disc around one point (e.g. home).
    HomeRegion {
        /// Disc radius in metres.
        radius_m: f64,
    },
    /// Discs around the user's `k` most-visited tiles — the geographic
    /// personalization model.
    FrequentRegions {
        /// Number of hot spots to cover.
        k: usize,
        /// Disc radius around each hot spot, metres.
        radius_m: f64,
    },
    /// The whole state (Table 2's 25.6 GB scenario) — everything fits, so
    /// every render is local.
    WholeState,
}

impl std::fmt::Display for PrefetchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefetchPolicy::OnDemandOnly => write!(f, "on-demand only"),
            PrefetchPolicy::HomeRegion { radius_m } => write!(f, "home region ({radius_m:.0} m)"),
            PrefetchPolicy::FrequentRegions { k, radius_m } => {
                write!(f, "frequent regions (top-{k}, {radius_m:.0} m)")
            }
            PrefetchPolicy::WholeState => write!(f, "whole state"),
        }
    }
}

/// Outcome of rendering one viewport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ViewportRender {
    /// Tiles served from the cache.
    pub hits: u32,
    /// Tiles fetched over the radio.
    pub misses: u32,
}

impl ViewportRender {
    /// Whether the whole screen rendered without the radio.
    pub fn instant(&self) -> bool {
        self.misses == 0
    }
}

/// Accumulated statistics of a maps cloudlet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapsStats {
    /// Viewports rendered.
    pub renders: u64,
    /// Viewports that rendered entirely from cache.
    pub instant_renders: u64,
    /// Tiles served from cache.
    pub tile_hits: u64,
    /// Tiles fetched over the radio.
    pub tile_misses: u64,
    /// Bytes fetched over the radio.
    pub radio_bytes: u64,
}

impl MapsStats {
    /// Fraction of viewports that rendered instantly.
    pub fn instant_rate(&self) -> f64 {
        if self.renders == 0 {
            0.0
        } else {
            self.instant_renders as f64 / self.renders as f64
        }
    }

    /// Fraction of individual tiles served locally.
    pub fn tile_hit_rate(&self) -> f64 {
        let total = self.tile_hits + self.tile_misses;
        if total == 0 {
            0.0
        } else {
            self.tile_hits as f64 / total as f64
        }
    }
}

/// The mapping cloudlet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PocketMaps {
    grid: TileGrid,
    flash_budget: u64,
    cached: HashSet<TileId>,
    visit_counts: HashMap<TileId, u32>,
    whole_state: bool,
    stats: MapsStats,
}

impl PocketMaps {
    /// An empty tile cache under a flash byte budget.
    pub fn new(grid: TileGrid, flash_budget: u64) -> Self {
        PocketMaps {
            grid,
            flash_budget,
            cached: HashSet::new(),
            visit_counts: HashMap::new(),
            whole_state: false,
            stats: MapsStats::default(),
        }
    }

    /// The grid geometry.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Flash bytes the cloudlet is allowed to occupy.
    pub fn flash_budget(&self) -> u64 {
        self.flash_budget
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MapsStats {
        self.stats
    }

    /// Flash bytes the cached tiles occupy.
    pub fn cached_bytes(&self) -> u64 {
        if self.whole_state {
            self.flash_budget
        } else {
            self.grid.bytes_for(self.cached.len())
        }
    }

    /// Remaining tile capacity under the budget.
    fn capacity_tiles(&self) -> usize {
        (self.flash_budget / self.grid.tile_bytes) as usize
    }

    /// Prefetches every tile within `radius_m` of `center` that still
    /// fits in the budget (overnight, radio-free). Returns tiles added.
    pub fn prefetch_region(&mut self, center: Position, radius_m: f64) -> usize {
        let mut added = 0;
        for t in self.grid.tiles_in_radius(center, radius_m) {
            if self.cached.len() >= self.capacity_tiles() {
                break;
            }
            if self.cached.insert(t) {
                added += 1;
            }
        }
        added
    }

    /// Marks the whole state as cached (the Table 2 25.6 GB scenario).
    pub fn install_whole_state(&mut self) {
        self.whole_state = true;
    }

    /// Whether a [`PocketMaps::render_viewport`] at `center` would be an
    /// instant render — all nine viewport tiles cached (or the whole
    /// state installed) — without performing it. Read-only: the hot-spot
    /// visit count and render statistics are untouched, so callers on a
    /// shared-lock fast path must do their own accounting.
    pub fn viewport_cached(&self, center: Position) -> bool {
        self.whole_state
            || self
                .grid
                .viewport(center)
                .into_iter()
                .all(|t| self.cached.contains(&t))
    }

    /// Renders the 3×3 viewport at `center`, fetching missing tiles over
    /// the radio (they stay cached afterwards, budget permitting).
    pub fn render_viewport(&mut self, center: Position) -> ViewportRender {
        let mut render = ViewportRender::default();
        // The centre tile is where the user actually is; that is what the
        // hot-spot tracker learns from.
        *self
            .visit_counts
            .entry(self.grid.tile_for(center))
            .or_insert(0) += 1;
        for t in self.grid.viewport(center) {
            if self.whole_state || self.cached.contains(&t) {
                render.hits += 1;
                self.stats.tile_hits += 1;
            } else {
                render.misses += 1;
                self.stats.tile_misses += 1;
                self.stats.radio_bytes += self.grid.tile_bytes;
                if self.cached.len() < self.capacity_tiles() {
                    self.cached.insert(t);
                }
            }
        }
        self.stats.renders += 1;
        if render.instant() {
            self.stats.instant_renders += 1;
        }
        render
    }

    /// The user's `k` most-visited tiles, hottest first.
    pub fn hot_tiles(&self, k: usize) -> Vec<TileId> {
        let mut v: Vec<(TileId, u32)> = self.visit_counts.iter().map(|(&t, &c)| (t, c)).collect();
        v.sort_by_key(|&(t, c)| (std::cmp::Reverse(c), t));
        v.into_iter().take(k).map(|(t, _)| t).collect()
    }

    /// The overnight pass for a policy: recomputes and prefetches the
    /// policy's region set from the observed visit history.
    pub fn overnight_prefetch(&mut self, policy: PrefetchPolicy, home: Position) {
        match policy {
            PrefetchPolicy::OnDemandOnly => {}
            PrefetchPolicy::WholeState => self.install_whole_state(),
            PrefetchPolicy::HomeRegion { radius_m } => {
                self.prefetch_region(home, radius_m);
            }
            PrefetchPolicy::FrequentRegions { k, radius_m } => {
                for t in self.hot_tiles(k) {
                    let center = self.grid.tile_center(t);
                    self.prefetch_region(center, radius_m);
                }
            }
        }
    }

    /// Replays a movement trace under a policy: renders every check and
    /// runs the overnight pass between days. Returns the final stats.
    pub fn replay_trace(
        &mut self,
        policy: PrefetchPolicy,
        home: Position,
        trace: &MovementTrace,
    ) -> MapsStats {
        let mut current_day = u64::MAX;
        for &(when, position) in trace {
            let day = when.as_micros() / 86_400_000_000;
            if day != current_day {
                self.overnight_prefetch(policy, home);
                current_day = day;
            }
            self.render_viewport(position);
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movement::CommuterModel;

    fn grid() -> TileGrid {
        TileGrid::paper_default()
    }

    #[test]
    fn prefetched_region_renders_instantly() {
        let mut maps = PocketMaps::new(grid(), 50_000_000);
        let home = Position::meters(5_000.0, 5_000.0);
        let added = maps.prefetch_region(home, 2_000.0);
        assert!(added > 100);
        let r = maps.render_viewport(home);
        assert!(r.instant());
        assert_eq!(r.hits, 9);
    }

    #[test]
    fn misses_fetch_and_then_stick() {
        let mut maps = PocketMaps::new(grid(), 50_000_000);
        let p = Position::meters(10_000.0, 10_000.0);
        let first = maps.render_viewport(p);
        assert_eq!(first.misses, 9);
        let second = maps.render_viewport(p);
        assert!(second.instant(), "fetched tiles stay cached");
        assert_eq!(maps.stats().radio_bytes, 9 * grid().tile_bytes);
    }

    #[test]
    fn budget_caps_the_cache() {
        let budget = 20 * grid().tile_bytes; // room for 20 tiles
        let mut maps = PocketMaps::new(grid(), budget);
        maps.prefetch_region(Position::meters(0.0, 0.0), 10_000.0);
        assert!(maps.cached.len() <= 20);
        assert!(maps.cached_bytes() <= budget);
    }

    #[test]
    fn whole_state_never_misses() {
        let mut maps = PocketMaps::new(grid(), u64::MAX);
        maps.install_whole_state();
        for i in 0..50 {
            let p = Position::meters(f64::from(i) * 1_234.5, f64::from(i) * 987.6);
            assert!(maps.render_viewport(p).instant());
        }
        assert_eq!(maps.stats().instant_rate(), 1.0);
        assert_eq!(maps.stats().radio_bytes, 0);
    }

    #[test]
    fn hot_tiles_track_visits() {
        let mut maps = PocketMaps::new(grid(), u64::MAX);
        let hot = Position::meters(1_000.0, 1_000.0);
        let cold = Position::meters(20_000.0, 20_000.0);
        for _ in 0..5 {
            maps.render_viewport(hot);
        }
        maps.render_viewport(cold);
        assert_eq!(maps.hot_tiles(1)[0], grid().tile_for(hot));
        assert_eq!(maps.hot_tiles(2)[1], grid().tile_for(cold));
    }

    #[test]
    fn frequent_regions_policy_learns_the_commute() {
        let model = CommuterModel::default();
        let (anchors, trace) = model.generate(14, 42);
        let home = anchors[0];

        let run = |policy: PrefetchPolicy| {
            let mut maps = PocketMaps::new(grid(), 200_000_000); // 200 MB
            maps.replay_trace(policy, home, &trace)
        };
        let on_demand = run(PrefetchPolicy::OnDemandOnly);
        let frequent = run(PrefetchPolicy::FrequentRegions {
            k: 8,
            radius_m: 3_000.0,
        });
        let state = run(PrefetchPolicy::WholeState);

        assert_eq!(state.instant_rate(), 1.0);
        assert!(
            frequent.tile_hit_rate() > on_demand.tile_hit_rate() + 0.1,
            "frequent-regions {:.2} should clearly beat on-demand {:.2}",
            frequent.tile_hit_rate(),
            on_demand.tile_hit_rate()
        );
        assert!(frequent.radio_bytes < on_demand.radio_bytes);
    }

    #[test]
    fn stats_rates_are_well_defined_when_empty() {
        let maps = PocketMaps::new(grid(), 1_000);
        assert_eq!(maps.stats().instant_rate(), 0.0);
        assert_eq!(maps.stats().tile_hit_rate(), 0.0);
    }
}
