//! The search cloudlet as front-end lanes.
//!
//! The paper's evaluation serves one user from one thread. A cloudlet
//! front-end — an edge box hosting the community cache, or a simulator
//! replaying a whole population — has to serve a stream of
//! `(user, query)` requests concurrently. This module supplies the
//! search side of that: [`SearchShard`] is one shard of a
//! [`ShardedTable`] over the shared flash database, serving with the
//! exact hit/miss outcomes and simulated service times the sequential
//! engine would produce, and [`search_frontend`] puts `S` of them
//! behind a [`Frontend`].
//!
//! Routing, queueing, coalescing, telemetry, and the §7 budget arbiter
//! all live in `cloudlet_core::frontend`. Under the default
//! key routing a query lands on lane `query_hash % S`, which is exactly
//! the sharded index's placement; [`FrontendConfig::pr3_baseline`] drains
//! each lane serially, so a batch's makespan is the busiest lane's summed
//! simulated service time. Every reported time is simulated
//! (`mobsim::time`), so batch reports are bit-reproducible across
//! machines.

use std::sync::Arc;

use cloudlet_core::arbiter::DemandContext;
use cloudlet_core::coordination::CloudletId;
use cloudlet_core::frontend::{Frontend, FrontendConfig};
use cloudlet_core::service::{CloudletError, CloudletService, ServeOutcome, ServeStats};
use cloudlet_core::shard::ShardedTable;
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

/// One shard of the search cloudlet as a [`CloudletService`] lane: a
/// slice of the sharded DRAM index plus the shared flash database.
///
/// Serving reproduces `PocketSearch::serve` semantics: a hit needs both
/// an index entry and its top-two records in the database, and an index
/// entry whose record is missing degrades into a radio miss.
#[derive(Debug)]
pub struct SearchShard {
    table: Arc<ShardedTable>,
    shard: usize,
    db: ResultDb,
    flash: FlashStore,
    costs: ServeCosts,
    stats: ServeStats,
}

impl SearchShard {
    /// Builds the sharded index and one [`SearchShard`] per shard from
    /// an engine's cache table, database, and device timing model.
    ///
    /// # Panics
    ///
    /// Panics when `n_shards` is zero.
    pub fn fleet_of(
        engine: &PocketSearch,
        n_shards: usize,
    ) -> (Arc<ShardedTable>, Vec<SearchShard>) {
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
        let table = Arc::new(ShardedTable::from_table(engine.cache().table(), n_shards));
        let shards = (0..n_shards)
            .map(|shard| SearchShard {
                table: Arc::clone(&table),
                shard,
                db: engine.db().clone(),
                flash: device.flash().clone(),
                costs,
                stats: ServeStats::default(),
            })
            .collect();
        (table, shards)
    }

    /// The shard of the DRAM index this lane owns.
    pub fn shard_index(&self) -> usize {
        self.shard
    }
}

impl CloudletService for SearchShard {
    fn name(&self) -> &'static str {
        "search"
    }

    fn serve(
        &mut self,
        request: &cloudlet_core::service::ServeRequest,
    ) -> Result<ServeOutcome, CloudletError> {
        let top: Option<Vec<u64>> = self
            .table
            .lookup(request.key)
            .map(|results| results.iter().take(2).map(|r| r.result_hash).collect());
        let outcome = match top {
            Some(top) => match self.db.get_many(top, &self.flash) {
                Ok((_, fetch_time)) => ServeOutcome::hit()
                    .with_service(self.costs.lookup + fetch_time + self.costs.render_and_misc),
                Err(_) => {
                    ServeOutcome::miss(self.costs.miss_bytes).with_service(self.costs.miss_total)
                }
            },
            None => ServeOutcome::miss(self.costs.miss_bytes).with_service(self.costs.miss_total),
        };
        self.stats.record(&outcome);
        Ok(outcome)
    }

    /// Search hits are read-only end to end — the index lookup and the
    /// flash fetch inspect shared state without touching it — so the
    /// whole hit path runs under a shared lock. Misses (and index
    /// entries whose records are gone from the database) decline to the
    /// exclusive path, which also keeps miss accounting in one place.
    fn try_serve_hit(
        &self,
        request: &cloudlet_core::service::ServeRequest,
    ) -> Option<ServeOutcome> {
        let top: Vec<u64> = self
            .table
            .lookup(request.key)?
            .iter()
            .take(2)
            .map(|r| r.result_hash)
            .collect();
        let (_, fetch_time) = self.db.get_many(top, &self.flash).ok()?;
        Some(
            ServeOutcome::hit()
                .with_service(self.costs.lookup + fetch_time + self.costs.render_and_misc),
        )
    }

    fn service_stats(&self) -> ServeStats {
        self.stats
    }

    fn cache_bytes(&self) -> u64 {
        self.table.shard(self.shard).footprint_bytes() as u64
    }

    /// A shard's demand is always its slice of the shared DRAM index,
    /// telemetry or not: shards are replicas over one [`ShardedTable`],
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
            demand_bytes: self.table.shard(self.shard).footprint_bytes(),
            priority: ctx.priority,
        }
    }
}

/// Builds a pipelined [`Frontend`] of `n_shards` search lanes over one
/// shared sharded index. Search lanes are replicas — the sharded table
/// routes any key to its owning shard internally — so every front-end
/// feature (coalescing, work stealing, the shared-lock hit path) is
/// semantics-preserving here.
///
/// # Panics
///
/// Panics when `n_shards` is zero or the configuration is invalid.
pub fn search_frontend(
    engine: &PocketSearch,
    n_shards: usize,
    config: FrontendConfig,
) -> (Arc<ShardedTable>, Frontend) {
    let (table, shards) = SearchShard::fleet_of(engine, n_shards);
    let lanes: Vec<Box<dyn CloudletService + Send + Sync>> = shards
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn CloudletService + Send + Sync>)
        .collect();
    (table, Frontend::new(vec![lanes], config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PocketSearchConfig;
    use crate::engine::{Catalog, PocketSearch};
    use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
    use cloudlet_core::corpus::UniverseCorpus;
    use cloudlet_core::frontend::ServeRequest;
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
        let (_, frontend) = search_frontend(&engine, 8, FrontendConfig::pr3_baseline());
        let report = frontend
            .serve_batch(&requests)
            .expect("search batch")
            .report;

        let mut sequential = engine.clone();
        let seq_hits = requests
            .iter()
            .filter(|r| sequential.serve(r.key).hit)
            .count() as u64;

        assert_eq!(report.events(), requests.len() as u64);
        assert_eq!(report.hits(), seq_hits);
        assert_eq!(report.misses(), requests.len() as u64 - seq_hits);
        assert_eq!(report.errors(), 0);
        // Under the baseline every serve takes the exclusive path, so the
        // shards' own stats see every request.
        let stats = frontend.telemetry().lane_stats();
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), report.hits());
        assert_eq!(stats.iter().map(|s| s.serves).sum::<u64>(), report.events());
    }

    #[test]
    fn sharding_keeps_outcomes_and_shrinks_makespan() {
        let (engine, cached) = test_engine();
        let requests = batch(&cached, 400);
        let serve = |shards| {
            let (_, frontend) = search_frontend(&engine, shards, FrontendConfig::pr3_baseline());
            frontend.serve_batch(&requests).expect("batch").report
        };
        let one = serve(1);
        assert_eq!(one.makespan, one.total_busy());
        for shards in [2, 4, 16] {
            let report = serve(shards);
            assert_eq!(report.hits(), one.hits(), "{shards} shards");
            assert_eq!(report.misses(), one.misses(), "{shards} shards");
            assert_eq!(report.total_busy(), one.total_busy(), "{shards} shards");
            assert!(report.makespan < one.makespan, "{shards} shards");
        }
    }

    #[test]
    fn served_request_lands_on_its_modulo_lane() {
        let (engine, cached) = test_engine();
        let (_, frontend) = search_frontend(&engine, 4, FrontendConfig::pr3_baseline());
        let served = frontend
            .serve_one(ServeRequest::new(1, 0, cached[0], SimInstant::ZERO))
            .expect("search serve");
        assert!(served.hit());
        assert_eq!(served.lane, (cached[0] % 4) as usize);
        assert_eq!(served.completed_at, SimInstant::ZERO);
        let outcome = served.outcome.expect("served");
        assert!(outcome.service > SimDuration::ZERO);
        assert_eq!(frontend.lane_name(served.lane), "search");
    }

    #[test]
    fn shard_demand_is_its_index_slice() {
        let (engine, _) = test_engine();
        let (table, shards) = SearchShard::fleet_of(&engine, 4);
        let ctx = DemandContext::equal_priority(0);
        for (i, shard) in shards.iter().enumerate() {
            let footprint = table.shard(i).footprint_bytes();
            assert_eq!(shard.shard_index(), i);
            assert_eq!(shard.cache_bytes(), footprint as u64);
            let demand = shard.budget_demand(CloudletId(i as u32), &ctx);
            assert_eq!(demand.demand_bytes, footprint);
            assert_eq!(demand.priority, ctx.priority);
        }
    }
}
