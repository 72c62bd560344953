//! The PocketSearch engine: cache + database + device, serving queries.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use cloudlet_core::cache::{CacheMode, PocketCache};
use cloudlet_core::contentgen::CacheContents;
use cloudlet_core::error::CoreError;
use cloudlet_core::service::{CloudletError, CloudletService, ServeOutcome, ServeRequest};
use cloudlet_core::update::{apply_update, UpdateServer, UploadPayload};
use flashdb::patch::{apply_patch, DbPatch, PatchReport};
use flashdb::{DbError, ResultDb, ResultRecord};
use mobsim::device::{Device, ServiceReport};
use mobsim::power::Energy;
use mobsim::time::SimDuration;
use querylog::ids::{stable_hash64, QueryId, ResultId};
use querylog::universe::Universe;

use crate::config::PocketSearchConfig;

/// Precomputed hash↔identifier mappings for a universe, shared by the
/// engine, the replay harness, and the update server.
#[derive(Debug, Clone)]
pub struct Catalog {
    query_hashes: Vec<u64>,
    result_hashes: Vec<u64>,
    /// Shared records: the serve hit path hands these out by `Arc`
    /// clone instead of copying title/URL/snippet strings per hit.
    records: Vec<Arc<ResultRecord>>,
    by_result_hash: HashMap<u64, ResultId>,
}

impl Catalog {
    /// Builds the catalog for a universe.
    pub fn new(universe: &Universe) -> Self {
        let query_hashes = universe
            .queries()
            .iter()
            .map(|q| stable_hash64(q.text.as_bytes()))
            .collect();
        let mut result_hashes = Vec::with_capacity(universe.results().len());
        let mut records = Vec::with_capacity(universe.results().len());
        let mut by_result_hash = HashMap::with_capacity(universe.results().len());
        for r in universe.results() {
            let hash = stable_hash64(r.url.as_bytes());
            let (title, display, snippet) = universe.record_text(r.id);
            result_hashes.push(hash);
            records.push(Arc::new(ResultRecord::new(hash, title, display, snippet)));
            by_result_hash.insert(hash, r.id);
        }
        Catalog {
            query_hashes,
            result_hashes,
            records,
            by_result_hash,
        }
    }

    /// Stable hash of a query.
    pub fn query_hash(&self, query: QueryId) -> u64 {
        self.query_hashes[query.as_usize()]
    }

    /// Stable hash of a result.
    pub fn result_hash(&self, result: ResultId) -> u64 {
        self.result_hashes[result.as_usize()]
    }

    /// The database record of a result, shared — cloning the `Arc`, not
    /// the record's strings.
    pub fn record(&self, result: ResultId) -> Arc<ResultRecord> {
        Arc::clone(&self.records[result.as_usize()])
    }

    /// Resolves a result hash back to its shared record, if known.
    pub fn record_by_hash(&self, result_hash: u64) -> Option<Arc<ResultRecord>> {
        self.by_result_hash
            .get(&result_hash)
            .map(|&id| Arc::clone(&self.records[id.as_usize()]))
    }
}

/// Outcome of serving one query end to end.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedQuery {
    /// Whether the query was served from the cache.
    pub hit: bool,
    /// The (up to two) result records displayed on a hit.
    pub results: Vec<ResultRecord>,
    /// Timing, energy, and breakdown from the device model.
    pub report: ServiceReport,
    /// When the cache indexed this query but its stored records could
    /// not be read, the typed database error that forced the radio
    /// fallback. `None` for clean hits and ordinary misses.
    pub degraded: Option<DbError>,
}

/// Cumulative corruption-recovery telemetry (§5.4 under media wear).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryStats {
    /// Serves that found damaged storage and fell back to the radio.
    pub degraded_serves: u64,
    /// Database files rebuilt from re-fetched records.
    pub files_repaired: u64,
    /// Records re-fetched over the radio during repairs.
    pub records_refetched: u64,
    /// Radio bytes the repairs moved (manifest up, records down).
    pub refetch_bytes: u64,
    /// Simulated time spent re-fetching and rewriting.
    pub refetch_time: SimDuration,
    /// Energy the repairs dissipated.
    pub refetch_energy: Energy,
}

impl RecoveryStats {
    /// Adds another telemetry set into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.degraded_serves += other.degraded_serves;
        self.files_repaired += other.files_repaired;
        self.records_refetched += other.records_refetched;
        self.refetch_bytes += other.refetch_bytes;
        self.refetch_time += other.refetch_time;
        self.refetch_energy += other.refetch_energy;
    }
}

/// Report of one nightly update cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateCycleReport {
    /// Bytes uploaded (the hash table).
    pub upload_bytes: usize,
    /// Bytes downloaded (table + database patch).
    pub download_bytes: usize,
    /// Database patch outcome.
    pub patch: PatchReport,
}

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The core cache/update layer failed.
    Core(CoreError),
    /// The flash database failed.
    Db(DbError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "cache error: {e}"),
            EngineError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<DbError> for EngineError {
    fn from(e: DbError) -> Self {
        EngineError::Db(e)
    }
}

impl From<EngineError> for cloudlet_core::service::CloudletError {
    fn from(e: EngineError) -> Self {
        use cloudlet_core::service::CloudletError;
        match e {
            EngineError::Core(e) => CloudletError::Core(e),
            EngineError::Db(e) => e.into(),
        }
    }
}

/// The assembled PocketSearch system (Figure 6 over Figure 9's storage).
#[derive(Debug, Clone)]
pub struct PocketSearch {
    config: PocketSearchConfig,
    cache: PocketCache,
    db: ResultDb,
    device: Device,
    /// Database files flagged corrupt by a serve, awaiting re-fetch.
    pending_repairs: BTreeSet<usize>,
    recovery_stats: RecoveryStats,
}

impl PocketSearch {
    /// Builds an engine: installs the community contents into the hash
    /// table (mode permitting) and writes the result database to the
    /// device's flash.
    pub fn build(contents: &CacheContents, catalog: &Catalog, config: PocketSearchConfig) -> Self {
        let mut cache = PocketCache::new(config.mode, config.ranking);
        cache.install_contents(contents);
        let mut device = Device::new(config.device, config.browser, config.flash);

        // The database stores each distinct referenced result once; the
        // catalog's shared records serialize without being cloned.
        let records: Vec<Arc<ResultRecord>> = if config.mode == CacheMode::PersonalizationOnly {
            Vec::new()
        } else {
            cache
                .table()
                .result_hashes()
                .into_iter()
                .filter_map(|h| catalog.record_by_hash(h))
                .collect()
        };
        let db = ResultDb::build(records, config.db, device.flash_mut());

        PocketSearch {
            config,
            cache,
            db,
            device,
            pending_repairs: BTreeSet::new(),
            recovery_stats: RecoveryStats::default(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &PocketSearchConfig {
        &self.config
    }

    /// The underlying cache.
    pub fn cache(&self) -> &PocketCache {
        &self.cache
    }

    // api-ok: §7 coordinated eviction; tests/multi_cloudlet.rs drops
    // an evicted pair from the search cache through it.
    /// Mutable access to the cache, for OS-driven coordinated eviction
    /// (§7) and tests.
    pub fn cache_mut(&mut self) -> &mut PocketCache {
        &mut self.cache
    }

    /// The flash result database.
    pub fn db(&self) -> &ResultDb {
        &self.db
    }

    /// The simulated handset.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable handset access (for idling between queries in traces).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Serves one query end to end: hash-table lookup, then either the
    /// flash fetch + render path (hit) or the radio path (miss).
    pub fn serve(&mut self, query_hash: u64) -> ServedQuery {
        let mut degraded = None;
        // Display the top two results, as in the Figure 1 GUI.
        if let Some((best, second)) = self.cache.table().top_two(query_hash) {
            let top = std::iter::once(best).chain(second).map(|r| r.result_hash);
            match self.db.get_many(top.clone(), self.device.flash()) {
                Ok((results, fetch_time)) => {
                    let report = self.device.serve_cache_hit(fetch_time);
                    return ServedQuery {
                        hit: true,
                        results,
                        report,
                        degraded: None,
                    };
                }
                Err(e) => {
                    // An index entry whose record is unreadable (pruned
                    // database, worn-out flash) degrades into a radio
                    // miss rather than a failure — the user still gets
                    // results. Damaged files are queued for re-fetch.
                    if e.is_corruption() {
                        self.recovery_stats.degraded_serves += 1;
                        for hash in top {
                            self.pending_repairs.insert(self.db.file_index(hash));
                        }
                    }
                    degraded = Some(e);
                }
            }
        }
        let report = self.device.serve_via_radio(self.config.miss_radio);
        ServedQuery {
            hit: false,
            results: Vec::new(),
            report,
            degraded,
        }
    }

    /// Re-fetches and rebuilds every database file a serve flagged as
    /// corrupt: the repair manifest (the file's record hashes) goes up,
    /// authoritative record bodies come back down over the miss radio,
    /// and the file is rewritten onto freshly allocated blocks — under a
    /// wear-leveling [`mobsim::flash::AllocPolicy`], off the worn ones.
    ///
    /// Returns this pass's telemetry (also folded into
    /// [`recovery_stats`](Self::recovery_stats)). A pass with nothing
    /// pending is free.
    pub fn recover_corrupted(&mut self, catalog: &Catalog) -> RecoveryStats {
        let pending: Vec<usize> = std::mem::take(&mut self.pending_repairs)
            .into_iter()
            .collect();
        let mut pass = RecoveryStats::default();
        for file in pending {
            let hashes = self.db.file_hashes(file);
            let records: Vec<Arc<ResultRecord>> = hashes
                .iter()
                .filter_map(|&h| catalog.record_by_hash(h))
                .collect();
            // Manifest of 8-byte hashes up, record bodies down.
            let request_bytes = 8 * hashes.len() as u64 + 64;
            let response_bytes: u64 = records.iter().map(|r| r.encoded_len() as u64).sum();
            let fetch =
                self.device
                    .fetch_via_radio(self.config.miss_radio, request_bytes, response_bytes);
            pass.records_refetched += records.len() as u64;
            let flash_time = self.db.restore_file(file, records, self.device.flash_mut());
            let base = self.device.config().base_power;
            self.device.advance(flash_time, base);
            pass.files_repaired += 1;
            pass.refetch_bytes += request_bytes + response_bytes;
            pass.refetch_time += fetch.total_time + flash_time;
            pass.refetch_energy += fetch.energy + base.over(flash_time);
        }
        self.recovery_stats.merge(&pass);
        pass
    }

    /// Cumulative corruption-recovery telemetry.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// Database files currently flagged corrupt and awaiting
    /// [`recover_corrupted`](Self::recover_corrupted).
    pub fn pending_repairs(&self) -> Vec<usize> {
        self.pending_repairs.iter().copied().collect()
    }

    /// Records the user's click: personalizes ranking, caches the pair on
    /// a miss, and makes sure the clicked record is stored in the database
    /// so future hits can fetch it.
    pub fn click(
        &mut self,
        query_hash: u64,
        result_hash: u64,
        record: impl FnOnce() -> Arc<ResultRecord>,
    ) {
        self.cache.record_click(query_hash, result_hash);
        // In community-only mode nothing was cached, so nothing to store.
        if self.cache.mode() != CacheMode::CommunityOnly && !self.db.contains(result_hash) {
            let _ = self.db.insert(record(), self.device.flash_mut());
        }
    }

    /// Runs one §5.4 update cycle against a server while the phone charges.
    ///
    /// # Errors
    ///
    /// Returns protocol or database failures; the engine is left usable
    /// either way.
    pub fn nightly_update(
        &mut self,
        server: &UpdateServer,
        catalog: &Catalog,
    ) -> Result<UpdateCycleReport, EngineError> {
        let upload = UploadPayload::from_cache(&self.cache);
        let upload_bytes = upload.wire_bytes();
        let bundle = server.build_update(&upload)?;
        apply_update(&mut self.cache, &bundle)?;
        let patch = DbPatch::from_bundle(&bundle, |h| catalog.record_by_hash(h));
        let download_bytes = upload_bytes + patch.wire_bytes();
        let patch_report = apply_patch(&mut self.db, &patch, self.device.flash_mut())?;
        Ok(UpdateCycleReport {
            upload_bytes,
            download_bytes,
            patch: patch_report,
        })
    }

    /// Total simulated time the device has spent.
    pub fn elapsed(&self) -> SimDuration {
        self.device
            .now()
            .saturating_duration_since(mobsim::time::SimInstant::ZERO)
    }

    /// Total energy dissipated so far.
    pub fn energy(&self) -> Energy {
        self.device.meter().total()
    }
}

impl CloudletService for PocketSearch {
    fn name(&self) -> &'static str {
        "search"
    }

    /// Serves a query hash through the full engine path and projects
    /// the [`ServedQuery`] onto the shared taxonomy.
    fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
        let served = PocketSearch::serve(self, request.key);
        let outcome = if served.hit {
            ServeOutcome::hit()
        } else {
            let config = &self.config.device;
            let radio_bytes = config.request_bytes + config.response_bytes;
            if served.degraded.as_ref().is_some_and(DbError::is_corruption) {
                ServeOutcome::recovered_miss(radio_bytes)
            } else {
                ServeOutcome::miss(radio_bytes)
            }
        }
        .with_service(served.report.total_time);
        Ok(outcome)
    }

    fn cache_bytes(&self) -> u64 {
        self.cache.table().footprint_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudlet_core::contentgen::AdmissionPolicy;
    use cloudlet_core::corpus::UniverseCorpus;
    use cloudlet_core::ranking::RankingPolicy;
    use querylog::generator::{GeneratorConfig, LogGenerator};
    use querylog::triplets::TripletTable;

    fn setup() -> (LogGenerator, CacheContents, Catalog) {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 12);
        let log = g.generate_month();
        let table = TripletTable::from_log(&log);
        let contents = CacheContents::generate(
            &table,
            &UniverseCorpus::new(g.universe()),
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        let catalog = Catalog::new(g.universe());
        (g, contents, catalog)
    }

    #[test]
    fn popular_queries_hit_and_render_in_400ms() {
        let (_, contents, catalog) = setup();
        let mut engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let served = engine.serve(contents.pairs()[0].query_hash);
        assert!(served.hit);
        assert!(!served.results.is_empty());
        let ms = served.report.total_time.as_millis_f64();
        assert!(
            (350.0..420.0).contains(&ms),
            "hit took {ms:.0} ms, expected ~378"
        );
    }

    #[test]
    fn misses_ride_the_radio_and_cost_seconds() {
        let (_, contents, catalog) = setup();
        let mut engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let served = engine.serve(0xdead_beef); // unknown query
        assert!(!served.hit);
        assert!(served.report.total_time.as_secs_f64() > 3.0);
        assert!(served.report.transfer.is_some());
    }

    #[test]
    fn sixteen_x_speedup_between_hit_and_miss() {
        let (_, contents, catalog) = setup();
        let mut engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let hit = engine.serve(contents.pairs()[0].query_hash);
        let mut engine2 = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let miss = engine2.serve(0xdead_beef);
        let speedup = miss
            .report
            .total_time
            .ratio(hit.report.total_time)
            .expect("hit time is nonzero");
        assert!((13.0..19.0).contains(&speedup), "speedup was {speedup:.1}");
    }

    #[test]
    fn click_after_miss_caches_pair_and_record() {
        let (g, contents, catalog) = setup();
        let mut engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        // Find an uncached pair.
        let uncached = g
            .universe()
            .pairs()
            .iter()
            .rev()
            .find(|p| engine.cache.lookup(catalog.query_hash(p.query)).is_none())
            .expect("tail pairs are uncached")
            .clone();
        let qh = catalog.query_hash(uncached.query);
        let rh = catalog.result_hash(uncached.result);
        assert!(!engine.serve(qh).hit);
        engine.click(qh, rh, || catalog.record(uncached.result));
        let served = engine.serve(qh);
        assert!(served.hit, "personalization must cache the miss");
        assert_eq!(served.results[0].result_hash, rh);
    }

    #[test]
    fn community_only_mode_never_expands() {
        let (g, contents, catalog) = setup();
        let mut engine = PocketSearch::build(
            &contents,
            &catalog,
            PocketSearchConfig::with_mode(CacheMode::CommunityOnly),
        );
        let uncached = g
            .universe()
            .pairs()
            .iter()
            .rev()
            .find(|p| engine.cache.lookup(catalog.query_hash(p.query)).is_none())
            .expect("tail pairs are uncached")
            .clone();
        let qh = catalog.query_hash(uncached.query);
        let db_before = engine.db().record_count();
        engine.click(qh, catalog.result_hash(uncached.result), || {
            catalog.record(uncached.result)
        });
        assert!(!engine.serve(qh).hit);
        assert_eq!(engine.db().record_count(), db_before, "no record added");
    }

    #[test]
    fn personalization_only_starts_empty() {
        let (_, contents, catalog) = setup();
        let mut engine = PocketSearch::build(
            &contents,
            &catalog,
            PocketSearchConfig::with_mode(CacheMode::PersonalizationOnly),
        );
        assert_eq!(engine.db().record_count(), 0);
        assert!(!engine.serve(contents.pairs()[0].query_hash).hit);
    }

    #[test]
    fn nightly_update_syncs_cache_and_database() {
        let (_, contents, catalog) = setup();
        let mut engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        // Touch one community pair so it survives the prune.
        let kept = contents.pairs()[0];
        engine.click(kept.query_hash, kept.result_hash, || {
            catalog.record(kept.result)
        });
        let server = UpdateServer::from_contents(&contents, RankingPolicy::default());
        let report = engine
            .nightly_update(&server, &catalog)
            .expect("update cycle succeeds");
        assert!(report.upload_bytes > 0);
        // Fresh set identical to installed set: no database churn beyond
        // what the prune removed.
        assert_eq!(report.patch.added, 0);
        engine
            .db()
            .verify(engine.device.flash())
            .expect("database is intact after the patch");
        // The kept pair still hits.
        assert!(engine.serve(kept.query_hash).hit);
    }

    #[test]
    fn update_exchange_fits_the_papers_envelope() {
        let (_, contents, catalog) = setup();
        let mut engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let server = UpdateServer::from_contents(&contents, RankingPolicy::default());
        let report = engine
            .nightly_update(&server, &catalog)
            .expect("update cycle succeeds");
        // Scaled cache: the exchange must stay well under the paper's
        // ~1.5 MB bound for a cache ~6x larger.
        assert!(report.download_bytes < 1_500_000);
    }

    #[test]
    fn corruption_degrades_then_recovery_restores_the_hit() {
        let (_, contents, catalog) = setup();
        let mut engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let qh = contents.pairs()[0].query_hash;
        let first = engine.serve(qh);
        assert!(first.hit && first.degraded.is_none());
        let top_hash = first.results[0].result_hash;

        // Smash the whole file storing the displayed record (header
        // included), the worst case a worn block can produce.
        let victim = engine.db().file_index(top_hash);
        let file = engine.db().file_id(victim);
        let size = engine.device().flash().file_size(file).expect("file");
        engine
            .device_mut()
            .flash_mut()
            .overwrite(file, 0, &vec![0xFF; size as usize])
            .expect("in bounds");

        let broken = engine.serve(qh);
        assert!(!broken.hit, "a broken hit degrades to the radio");
        assert!(
            broken.degraded.as_ref().is_some_and(DbError::is_corruption),
            "degradation carries a typed corruption error: {:?}",
            broken.degraded
        );
        assert_eq!(engine.pending_repairs(), vec![victim]);
        assert_eq!(engine.recovery_stats().degraded_serves, 1);

        let pass = engine.recover_corrupted(&catalog);
        assert_eq!(pass.files_repaired, 1);
        assert!(pass.records_refetched > 0);
        assert!(pass.refetch_bytes > 0);
        assert!(pass.refetch_time > SimDuration::ZERO);
        assert!(engine.pending_repairs().is_empty());
        engine
            .db()
            .verify(engine.device().flash())
            .expect("restored file verifies");

        let healed = engine.serve(qh);
        assert!(healed.hit, "the re-fetched file serves hits again");
        assert_eq!(healed.results[0].result_hash, top_hash);

        // An idle recovery pass is free.
        let idle = engine.recover_corrupted(&catalog);
        assert_eq!(idle, RecoveryStats::default());
    }

    #[test]
    fn catalog_resolves_hashes_both_ways() {
        let (g, _, catalog) = setup();
        let r = ResultId::new(5);
        let h = catalog.result_hash(r);
        let rec = catalog.record_by_hash(h).expect("known hash resolves");
        assert_eq!(rec.result_hash, h);
        assert_eq!(catalog.record(r), rec);
        assert!(catalog.record_by_hash(0x1234_5678).is_none());
        let q = QueryId::new(3);
        assert_eq!(
            catalog.query_hash(q),
            stable_hash64(g.universe().query(q).text.as_bytes())
        );
    }
}
