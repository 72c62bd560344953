//! The search cloudlet as front-end lanes.
//!
//! The paper's evaluation serves one user from one thread. A cloudlet
//! front-end — an edge box hosting the community cache, or a simulator
//! replaying a whole population — has to serve a stream of
//! `(user, query)` requests concurrently. This module supplies the
//! search side of that: [`SearchShard`] is one lane over the shared,
//! immutable DRAM index ([`FrozenTable`]) and the shared flash
//! database, serving with the exact hit/miss outcomes and simulated
//! service times the sequential engine would produce, and
//! [`search_frontend`] puts `S` of them behind a [`Frontend`].
//!
//! The lanes only read the database, so [`SearchShard::fleet_of`] checks
//! every record once, when it builds the shared copy
//! ([`ResultDb::mark_verified`]); a hit then skips the record decode
//! for as long as that flash store is unchanged, which is the life of
//! the fleet. Simulated time never charged the decode, so no reported
//! time moves.
//!
//! Routing, queueing, coalescing, telemetry, and the §7 budget arbiter
//! all live in `cloudlet_core::frontend`. Every lane probes the one
//! index, so any routing is exact; under the default key routing a
//! query lands on lane `query_hash % S`, and a lane's budget demand is
//! the footprint of the index entries that routing sends it.
//! [`FrontendConfig::pr3_baseline`] drains each lane serially, so a
//! batch's makespan is the busiest lane's summed simulated service
//! time. Every reported time is simulated
//! (`mobsim::time`), so batch reports are bit-reproducible across
//! machines.

use std::sync::Arc;

use cloudlet_core::arbiter::DemandContext;
use cloudlet_core::coordination::CloudletId;
use cloudlet_core::frontend::{Frontend, FrontendConfig};
use cloudlet_core::hashtable::frozen::FrozenTable;
use cloudlet_core::hashtable::{QueryHashTable, SLOTS_PER_ENTRY};
use cloudlet_core::service::{CloudletError, CloudletService, ServeOutcome, ServeRequest};
use flashdb::ResultDb;
use mobsim::time::SimDuration;
use mobsim::FlashStore;

use crate::engine::PocketSearch;

/// Fixed serving-time components, taken from the engine's device model
/// so [`SearchShard`] timings match `PocketSearch::serve` (Table 4):
/// lookup, render + misc, the warm-radio miss exchange, and the bytes
/// that exchange moves.
#[derive(Debug, Clone, Copy)]
struct ServeCosts {
    lookup: SimDuration,
    render_and_misc: SimDuration,
    miss_total: SimDuration,
    miss_bytes: u64,
}

/// The flash database every lane of a fleet reads: one copy, shared.
/// Search hits only read it, so the lanes share it by `Arc`.
#[derive(Debug)]
struct SharedStore {
    db: ResultDb,
    flash: FlashStore,
}

/// One lane of the search cloudlet as a [`CloudletService`]: the shared
/// DRAM index plus the shared flash database.
///
/// Serving reproduces `PocketSearch::serve` semantics: a hit needs both
/// an index entry and its top-two records in the database, and an index
/// entry whose record is missing degrades into a radio miss.
#[derive(Debug)]
pub struct SearchShard {
    index: Arc<FrozenTable>,
    /// DRAM footprint of the index entries key routing sends this lane
    /// (`query_hash % S == lane`): its slice of the shared index.
    slice_bytes: usize,
    store: Arc<SharedStore>,
    costs: ServeCosts,
}

impl SearchShard {
    /// Builds the shared index and `n_shards` [`SearchShard`] lanes over
    /// it from an engine's cache table, database, and device timing
    /// model.
    ///
    /// # Panics
    ///
    /// Panics when `n_shards` is zero.
    pub fn fleet_of(
        engine: &PocketSearch,
        n_shards: usize,
    ) -> (Arc<FrozenTable>, Vec<SearchShard>) {
        assert!(n_shards > 0, "a search fleet needs at least one lane");
        let device = engine.device();
        let config = device.config();
        let browser = device.browser();
        let render_and_misc = browser.render_serp + browser.misc;
        // Steady-state miss cost: a fleet keeps its radio warm, so charge
        // the warm exchange (the sequential engine's first-miss ramp is a
        // per-device transient, not a per-lane one).
        let radio = device.radio(engine.config().miss_radio).model();
        let exchange = radio.warm_exchange_time(config.request_bytes, config.response_bytes);
        let costs = ServeCosts {
            lookup: config.lookup_time,
            render_and_misc,
            miss_total: config.lookup_time + exchange + render_and_misc,
            miss_bytes: config.request_bytes + config.response_bytes,
        };
        let table = engine.cache().table();
        let index = Arc::new(FrozenTable::from_table(table));
        let mut slice_entries = vec![0usize; n_shards];
        for record in table.to_records() {
            slice_entries[(record.query_hash % n_shards as u64) as usize] += 1;
        }
        // The lanes only read the shared store, so its records are
        // checked once here, not on every hit.
        let flash = device.flash().clone();
        let mut db = engine.db().clone();
        db.mark_verified(&flash);
        let store = Arc::new(SharedStore { db, flash });
        let shards = slice_entries
            .into_iter()
            .map(|entries| SearchShard {
                index: Arc::clone(&index),
                slice_bytes: entries * QueryHashTable::layout_bytes(SLOTS_PER_ENTRY),
                store: Arc::clone(&store),
                costs,
            })
            .collect();
        (index, shards)
    }
}

impl CloudletService for SearchShard {
    fn name(&self) -> &'static str {
        "search"
    }

    /// Answers with the one hit rule, [`CloudletService::try_serve_hit`];
    /// anything it declines is a radio miss.
    fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
        Ok(self.try_serve_hit(request).unwrap_or_else(|| {
            ServeOutcome::miss(self.costs.miss_bytes).with_service(self.costs.miss_total)
        }))
    }

    /// Search hits are read-only end to end — the index lookup and the
    /// flash fetch inspect shared state without touching it — so the
    /// whole hit path runs under a shared lock. Misses (and index
    /// entries whose records are gone from the database) decline to the
    /// exclusive path, which also keeps miss accounting in one place.
    ///
    /// The hit copies nothing: the index yields the top two results
    /// without building a list, and the database reads both records in
    /// place ([`ResultDb::fetch_time`]) for the time the fetch takes. It
    /// decodes neither: `fleet_of` verified every record of the shared
    /// store, and a record of a file that failed that pass is decoded
    /// on every hit and declines to the miss path as before.
    fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
        let (best, second) = self.index.top_two(request.key)?;
        let top = std::iter::once(best).chain(second).map(|r| r.result_hash);
        let fetch_time = self.store.db.fetch_time(top, &self.store.flash).ok()?;
        Some(
            ServeOutcome::hit()
                .with_service(self.costs.lookup + fetch_time + self.costs.render_and_misc),
        )
    }

    fn cache_bytes(&self) -> u64 {
        self.slice_bytes as u64
    }

    /// A lane's demand is always its slice of the shared DRAM index,
    /// telemetry or not: lanes are replicas over one [`FrozenTable`],
    /// so a lane cannot grow or shrink its slice independently — the
    /// adaptive arbiter moves capacity *between cloudlets* via the
    /// context's priority, which passes through unchanged here.
    fn budget_demand(
        &self,
        cloudlet: CloudletId,
        ctx: &DemandContext,
    ) -> cloudlet_core::coordination::BudgetDemand {
        cloudlet_core::coordination::BudgetDemand {
            cloudlet,
            demand_bytes: self.slice_bytes,
            priority: ctx.priority,
        }
    }
}

/// Builds a pipelined [`Frontend`] of `n_shards` search lanes over one
/// shared index. Search lanes are replicas — each probes the whole
/// index — so every front-end feature (coalescing, the shared-lock hit
/// path, either routing) is semantics-preserving here.
///
/// # Panics
///
/// Panics when `n_shards` is zero or the configuration is invalid.
pub fn search_frontend(engine: &PocketSearch, n_shards: usize, config: FrontendConfig) -> Frontend {
    let (_, shards) = SearchShard::fleet_of(engine, n_shards);
    let lanes: Vec<Box<dyn CloudletService + Send + Sync>> = shards
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn CloudletService + Send + Sync>)
        .collect();
    Frontend::new(vec![lanes], config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PocketSearchConfig;
    use crate::engine::{Catalog, PocketSearch};
    use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
    use cloudlet_core::corpus::UniverseCorpus;
    use mobsim::time::SimInstant;
    use querylog::generator::{GeneratorConfig, LogGenerator};
    use querylog::triplets::TripletTable;

    fn test_engine() -> (PocketSearch, Vec<u64>) {
        let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 11);
        let month = generator.generate_month();
        let triplets = TripletTable::from_log(&month);
        let corpus = UniverseCorpus::new(generator.universe());
        let contents = CacheContents::generate(
            &triplets,
            &corpus,
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        let catalog = Catalog::new(generator.universe());
        let engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let cached: Vec<u64> = contents.pairs().iter().map(|p| p.query_hash).collect();
        (engine, cached)
    }

    fn batch(cached: &[u64], n: usize) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                let key = if i % 3 == 0 {
                    // Mix cached queries with guaranteed misses.
                    u64::MAX - i as u64
                } else {
                    cached[i % cached.len()]
                };
                ServeRequest::new((i % 7) as u64, 0, key, SimInstant::ZERO)
            })
            .collect()
    }

    #[test]
    fn batch_outcomes_match_sequential_engine() {
        let (engine, cached) = test_engine();
        let requests = batch(&cached, 240);
        let frontend = search_frontend(&engine, 8, FrontendConfig::pr3_baseline());
        let totals = frontend
            .serve_batch(&requests)
            .expect("search batch")
            .report
            .totals();

        let mut sequential = engine.clone();
        let seq_hits = requests
            .iter()
            .filter(|r| sequential.serve(r.key).hit)
            .count() as u64;

        assert_eq!(totals.events, requests.len() as u64);
        assert_eq!(totals.hits, seq_hits);
        assert_eq!(totals.misses, requests.len() as u64 - seq_hits);
        assert_eq!(totals.errors, 0);
    }

    #[test]
    fn sharding_keeps_outcomes_and_shrinks_makespan() {
        let (engine, cached) = test_engine();
        let requests = batch(&cached, 400);
        let serve = |shards| {
            let frontend = search_frontend(&engine, shards, FrontendConfig::pr3_baseline());
            frontend.serve_batch(&requests).expect("batch").report
        };
        let one = serve(1);
        let base = one.totals();
        assert_eq!(one.makespan, base.busy);
        for shards in [2, 4, 16] {
            let report = serve(shards);
            let totals = report.totals();
            assert_eq!(totals.hits, base.hits, "{shards} shards");
            assert_eq!(totals.misses, base.misses, "{shards} shards");
            assert_eq!(totals.busy, base.busy, "{shards} shards");
            assert!(report.makespan < one.makespan, "{shards} shards");
        }
    }

    #[test]
    fn served_request_lands_on_its_modulo_lane() {
        let (engine, cached) = test_engine();
        let frontend = search_frontend(&engine, 4, FrontendConfig::pr3_baseline());
        let batch = frontend
            .serve_batch(&[ServeRequest::new(1, 0, cached[0], SimInstant::ZERO)])
            .expect("search batch");
        let served = &batch.served[0];
        assert!(served.hit());
        assert_eq!(served.lane, (cached[0] % 4) as usize);
        let outcome = served.outcome.as_ref().expect("served");
        assert!(outcome.service > SimDuration::ZERO);
        // Under the baseline the lone hit runs on its idle lane at once.
        assert_eq!(served.completed_at, SimInstant::ZERO + outcome.service);
        assert_eq!(served.queue_wait, SimDuration::ZERO);
        assert_eq!(frontend.telemetry().lanes[served.lane].name, "search");
    }

    #[test]
    fn records_corrupted_before_the_fleet_builds_still_decline() {
        let (mut engine, cached) = test_engine();
        // Smash the tail record bytes of every database file.
        let flash = engine.device_mut().flash_mut();
        let files: Vec<_> = flash.files().map(|(id, _)| id).collect();
        for file in files {
            let size = flash.file_size(file).expect("database file");
            flash
                .overwrite(file, size - 64, &[0xFF; 64])
                .expect("in range");
        }
        let (_, shards) = SearchShard::fleet_of(&engine, 1);
        let (mut hits, mut declined) = (0, 0);
        for &key in &cached {
            let (best, second) = engine.cache().table().top_two(key).expect("cached");
            let top = std::iter::once(best).chain(second).map(|r| r.result_hash);
            // The engine's database is unmarked, so this fetch decodes.
            let decodes = engine.db().fetch_time(top, engine.device().flash()).is_ok();
            let request = ServeRequest::new(0, 0, key, SimInstant::ZERO);
            let hit = shards[0].try_serve_hit(&request).is_some();
            assert_eq!(hit, decodes, "query {key:#x}");
            if hit {
                hits += 1;
            } else {
                declined += 1;
            }
        }
        assert!(hits > 0 && declined > 0, "{hits} hits, {declined} declined");
    }

    #[test]
    fn shard_demand_is_its_index_slice() {
        let (engine, _) = test_engine();
        let (index, shards) = SearchShard::fleet_of(&engine, 4);
        let records = engine.cache().table().to_records();
        let ctx = DemandContext::equal_priority(0);
        let mut total = 0;
        for (lane, shard) in shards.iter().enumerate() {
            let entries = records
                .iter()
                .filter(|r| r.query_hash % 4 == lane as u64)
                .count();
            let slice = entries * QueryHashTable::layout_bytes(2);
            assert_eq!(shard.cache_bytes(), slice as u64);
            let demand = shard.budget_demand(CloudletId(lane as u32), &ctx);
            assert_eq!(demand.demand_bytes, slice);
            assert_eq!(demand.priority, ctx.priority);
            total += slice;
        }
        assert!(total > 0);
        assert_eq!(total, index.footprint_bytes());
    }
}
