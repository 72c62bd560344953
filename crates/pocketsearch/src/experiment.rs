//! Packaged evaluation drivers for the paper's §6 studies.
//!
//! Each function reproduces one experiment end to end so that tests, the
//! bench harness, and the examples all run the *same* code:
//!
//! * [`figure15_points`] — per-query response time and energy for
//!   PocketSearch vs 3G / EDGE / 802.11g.
//! * [`figure16_traces`] — power-over-time for ten consecutive queries.
//! * [`StudyInputs`] — the §6.2 study world: month 1 of the community
//!   logs mined into a community cache, and month 2 to replay against it.
//!   [`StudyInputs::build`] is the one builder; the population studies,
//!   which replay no month, stop at its [`StudyInputs::mine_build_month`]
//!   half.
//! * [`run_hit_rate_study`] — Figures 17/18/19 and the §6.2.2 daily-update
//!   variant: replay a world's month-2 per-user streams per class and
//!   cache mode. It borrows the world, so several studies (the λ arms,
//!   Figures 17–19) share one build.
//! * [`sliding_window_server`] — the §6.2.2 nightly update server, mined
//!   from a month-long window sliding from the build month into the
//!   replay month.
//! * [`wear_month`] — a month of §5.4 device life (serves, clicks, the
//!   nightly sliding-window update and the overnight corruption repair)
//!   on flash running a given wear model and allocation policy.

use std::sync::Arc;

use cloudlet_core::cache::CacheMode;
use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
use cloudlet_core::corpus::UniverseCorpus;
use cloudlet_core::ranking::RankingPolicy;
use cloudlet_core::update::UpdateServer;
use flashdb::ResultRecord;
use mobsim::device::Device;
use mobsim::flash::{AllocPolicy, WearModel, WearSummary};
use mobsim::power::Energy;
use mobsim::radio::RadioKind;
use mobsim::time::SimDuration;
use mobsim::timeline::PowerTimeline;
use querylog::generator::{GeneratorConfig, LogGenerator};
use querylog::log::{LogEntry, SearchLog};
use querylog::triplets::TripletTable;
use querylog::universe::Universe;
use querylog::users::UserClass;
use serde::{Deserialize, Serialize};

use crate::config::PocketSearchConfig;
use crate::engine::{Catalog, EngineError, PocketSearch, RecoveryStats};
use crate::replay::{replay_population, ClassSummary};

/// One bar of Figure 15: a service path with its time and energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServicePoint {
    /// "PocketSearch", "3G", "Edge", or "802.11g".
    pub label: String,
    /// Average user response time per query.
    pub time: SimDuration,
    /// Average energy per query.
    pub energy: Energy,
    /// Response-time ratio vs the PocketSearch hit path.
    pub speedup_vs_pocket: f64,
    /// Energy ratio vs the PocketSearch hit path.
    pub energy_ratio_vs_pocket: f64,
}

/// Computes Figure 15's bars using the calibrated device model. The
/// `fetch_time` is what the flash database charges for a two-result fetch
/// (~10 ms at the paper's cache size).
pub fn figure15_points(fetch_time: SimDuration) -> Vec<ServicePoint> {
    let mut device = Device::with_defaults();
    let pocket = device.serve_cache_hit(fetch_time);

    let mut points = vec![ServicePoint {
        label: "PocketSearch".to_owned(),
        time: pocket.total_time,
        energy: pocket.energy,
        speedup_vs_pocket: 1.0,
        energy_ratio_vs_pocket: 1.0,
    }];
    for kind in RadioKind::ALL {
        let mut device = Device::with_defaults();
        let report = device.serve_via_radio(kind);
        points.push(ServicePoint {
            label: kind.to_string(),
            time: report.total_time,
            energy: report.energy,
            // The hit path always costs time and energy, so these
            // ratios exist; INFINITY keeps a degenerate model visible
            // without panicking the study.
            speedup_vs_pocket: report
                .total_time
                .ratio(pocket.total_time)
                .unwrap_or(f64::INFINITY),
            energy_ratio_vs_pocket: report.energy.ratio(pocket.energy).unwrap_or(f64::INFINITY),
        });
    }
    points
}

/// Produces Figure 16's two traces: ten consecutive queries served by
/// PocketSearch, and the same ten queries over 3G.
pub fn figure16_traces(queries: usize, fetch_time: SimDuration) -> (PowerTimeline, PowerTimeline) {
    let mut pocket = Device::traced();
    for _ in 0..queries {
        pocket.serve_cache_hit(fetch_time);
    }
    let mut radio = Device::traced();
    for _ in 0..queries {
        radio.serve_via_radio(RadioKind::ThreeG);
    }
    (pocket.into_timeline(), radio.into_timeline())
}

/// One §6.2 study world: the cache-construction month, the replay
/// month, the build month's triplets, the community cache mined from
/// them, and the hash catalog. Read-only once built, so every study of
/// one run can share it.
#[derive(Debug, Clone)]
pub struct StudyInputs {
    /// The universe behind both months.
    pub universe: Universe,
    /// Month used to build the community cache.
    pub build_month: SearchLog,
    /// Month whose per-user streams are replayed.
    pub replay_month: SearchLog,
    /// Volume-sorted triplets of the build month.
    pub triplets: TripletTable,
    /// Cumulative-volume share the community cache was mined at (the
    /// paper evaluates at 55%).
    pub share: f64,
    /// Community cache mined from `triplets` at `share`.
    pub contents: CacheContents,
    /// Precomputed hash catalog.
    pub catalog: Catalog,
}

impl StudyInputs {
    /// Builds the world of `config` and `seed`: generates two months and
    /// mines the first into community contents at `share`.
    pub fn build(config: GeneratorConfig, seed: u64, share: f64) -> Self {
        let mut generator = LogGenerator::new(config, seed);
        let (build_month, triplets, contents) = Self::mine_build_month(&mut generator, share);
        let replay_month = generator.generate_month();
        StudyInputs {
            universe: generator.universe().clone(),
            build_month,
            replay_month,
            triplets,
            share,
            contents,
            catalog: Catalog::new(generator.universe()),
        }
    }

    /// The community contents this world's build month yields under
    /// `admission` (the world's own cache is `admission` at `share`).
    pub fn mine(&self, admission: AdmissionPolicy) -> CacheContents {
        CacheContents::generate(
            &self.triplets,
            &UniverseCorpus::new(&self.universe),
            admission,
        )
    }

    /// A PocketSearch engine installed with this world's community cache.
    pub fn engine(&self, config: PocketSearchConfig) -> PocketSearch {
        PocketSearch::build(&self.contents, &self.catalog, config)
    }

    /// The result records of the community cache's pairs, in pair order.
    pub fn community_records(&self) -> impl Iterator<Item = Arc<ResultRecord>> + '_ {
        self.contents
            .pairs()
            .iter()
            .filter_map(|p| self.catalog.record_by_hash(p.result_hash))
    }

    /// The build half of [`StudyInputs::build`]: generates the next month
    /// of `generator` and mines its triplets into community contents at
    /// `share`.
    pub fn mine_build_month(
        generator: &mut LogGenerator,
        share: f64,
    ) -> (SearchLog, TripletTable, CacheContents) {
        let build_month = generator.generate_month();
        let triplets = TripletTable::from_log(&build_month);
        let contents = CacheContents::generate(
            &triplets,
            &UniverseCorpus::new(generator.universe()),
            AdmissionPolicy::CumulativeShare { share },
        );
        (build_month, triplets, contents)
    }
}

/// Configuration of the hit-rate study (Figures 17–19, §6.2.2). The
/// world it replays is the [`StudyInputs`] passed beside it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HitRateConfig {
    /// Users replayed per Table 6 class (the paper uses 100).
    pub users_per_class: usize,
    /// Whether to refresh the community component nightly (§6.2.2).
    pub daily_updates: bool,
    /// Ranking policy installed on every engine (λ ablations override it).
    pub ranking: RankingPolicy,
}

impl HitRateConfig {
    /// A fast test-scale study.
    pub fn test_scale() -> Self {
        HitRateConfig {
            users_per_class: 20,
            daily_updates: false,
            ranking: RankingPolicy::default(),
        }
    }

    /// The paper-scale study.
    pub fn full_scale() -> Self {
        HitRateConfig {
            users_per_class: 100,
            ..Self::test_scale()
        }
    }
}

/// Results for one cache mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeStudy {
    /// The cache mode replayed.
    pub mode: CacheMode,
    /// Per-class summaries (Table 6 order, absent classes skipped).
    pub summaries: Vec<ClassSummary>,
    /// Unweighted mean hit rate across classes — the paper's headline
    /// "65%" style number.
    pub average_hit_rate: f64,
}

/// The full study across modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HitRateStudy {
    /// One entry per requested mode.
    pub modes: Vec<ModeStudy>,
}

/// Runs the §6.2 experiment on `inputs`: replays month 2's per-user
/// streams (up to `users_per_class` per Table 6 class) against the
/// community cache mined from month 1, once under each cache mode.
pub fn run_hit_rate_study(
    inputs: &StudyInputs,
    config: &HitRateConfig,
    modes: &[CacheMode],
) -> HitRateStudy {
    let streams = select_streams(&inputs.replay_month, config.users_per_class);
    // §6.2.2: one update server per replay day.
    let servers: Option<Vec<UpdateServer>> = config.daily_updates.then(|| {
        (0..inputs.replay_month.days())
            .map(|day| sliding_window_server(inputs, day, config.ranking))
            .collect()
    });

    let modes = modes
        .iter()
        .map(|&mode| {
            let engine_config = PocketSearchConfig {
                ranking: config.ranking,
                ..PocketSearchConfig::with_mode(mode)
            };
            let engine = inputs.engine(engine_config);
            let outcomes =
                replay_population(&engine, &inputs.catalog, &streams, servers.as_deref());
            let summaries = ClassSummary::all(&outcomes);
            ModeStudy {
                mode,
                average_hit_rate: ClassSummary::mean_hit_rate(&summaries),
                summaries,
            }
        })
        .collect();
    HitRateStudy { modes }
}

/// The §6.2.2 nightly update server after replay day `day`: community
/// contents mined at the world's share from a month-long sliding window
/// — the build month's days after `day` plus the replay month's days up
/// to and including it — so each night swaps one old day for one new one.
pub fn sliding_window_server(
    inputs: &StudyInputs,
    day: u16,
    ranking: RankingPolicy,
) -> UpdateServer {
    let window: Vec<LogEntry> = inputs
        .build_month
        .iter()
        .filter(|e| e.time.day > day)
        .chain(inputs.replay_month.iter().filter(|e| e.time.day <= day))
        .copied()
        .collect();
    let log = SearchLog::new(window, inputs.replay_month.days());
    let contents = CacheContents::generate(
        &TripletTable::from_log(&log),
        &UniverseCorpus::new(&inputs.universe),
        AdmissionPolicy::CumulativeShare {
            share: inputs.share,
        },
    );
    UpdateServer::from_contents(&contents, ranking)
}

/// Everything observable about one [`wear_month`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct WearMonth {
    /// Queries served.
    pub serves: u64,
    /// Serves answered from the cache.
    pub hits: u64,
    /// Serves whose cache hit degraded to the radio on a typed database
    /// error.
    pub degraded: u64,
    /// The subset of `degraded` carrying a corruption error (not a
    /// consistency miss like `NotFound` after a failed patch).
    pub corrupt_degraded: u64,
    /// The error of each nightly §5.4 cycle that failed, in night order.
    /// The engine stays usable after each one.
    pub update_errors: Vec<EngineError>,
    /// The engine's corruption-recovery telemetry at month end.
    pub recovery: RecoveryStats,
    /// The flash wear telemetry at month end.
    pub wear: WearSummary,
    /// Simulated time the engine spent over the month.
    pub elapsed: SimDuration,
    /// Energy the engine spent over the month.
    pub energy: Energy,
}

impl WearMonth {
    /// Hits per serve.
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.serves.max(1) as f64
    }

    /// Corruption-degraded serves per serve.
    pub fn shed_ratio(&self) -> f64 {
        self.corrupt_degraded as f64 / self.serves.max(1) as f64
    }
}

/// Replays a month of §5.4 life on a device whose flash runs `wear` (the
/// store's default when `None`) and `alloc`. Each replay day serves (at
/// most 40) logged queries and records their clicks (inserting novel
/// records, the erase-heavy write path), then runs the nightly update
/// against [`sliding_window_server`], the churn that rewrites database
/// files in place, and finally re-fetches any file a serve flagged as
/// corrupt. Deterministic in the inputs.
pub fn wear_month(inputs: &StudyInputs, wear: Option<WearModel>, alloc: AllocPolicy) -> WearMonth {
    let catalog = &inputs.catalog;
    let mut engine = inputs.engine(PocketSearchConfig::default());
    if let Some(wear) = wear {
        engine.device_mut().flash_mut().set_wear(wear);
    }
    engine.device_mut().flash_mut().set_alloc_policy(alloc);

    let (mut serves, mut hits, mut degraded, mut corrupt_degraded) = (0, 0, 0, 0);
    let mut update_errors = Vec::new();
    for day in 0..inputs.replay_month.days() {
        let today = inputs
            .replay_month
            .iter()
            .filter(|e| e.time.day == day)
            .take(40);
        for entry in today {
            let served = engine.serve(catalog.query_hash(entry.query));
            serves += 1;
            if served.hit {
                hits += 1;
            }
            if let Some(e) = &served.degraded {
                degraded += 1;
                if e.is_corruption() {
                    corrupt_degraded += 1;
                }
            }
            engine.click(
                catalog.query_hash(entry.query),
                catalog.result_hash(entry.result),
                || catalog.record(entry.result),
            );
        }
        let server = sliding_window_server(inputs, day, RankingPolicy::default());
        if let Err(e) = engine.nightly_update(&server, catalog) {
            update_errors.push(e);
        }
        engine.recover_corrupted(catalog);
    }
    WearMonth {
        serves,
        hits,
        degraded,
        corrupt_degraded,
        update_errors,
        recovery: engine.recovery_stats(),
        wear: engine.device().flash().wear_summary(),
        elapsed: engine.elapsed(),
        energy: engine.energy(),
    }
}

/// Picks up to `per_class` user streams per Table 6 class from a replay
/// month, mirroring the paper's random per-class selection (the generated
/// population order is already random).
pub fn select_streams(replay_month: &SearchLog, per_class: usize) -> Vec<Vec<LogEntry>> {
    let mut counts = std::collections::BTreeMap::new();
    let mut streams = Vec::new();
    for user in replay_month.users() {
        let stream = replay_month.user_stream(user);
        let Some(class) = UserClass::classify(stream.len() as u32) else {
            continue;
        };
        let count = counts.entry(class).or_insert(0usize);
        if *count < per_class {
            *count += 1;
            streams.push(stream);
        }
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_world(seed: u64) -> StudyInputs {
        StudyInputs::build(GeneratorConfig::test_scale(), seed, 0.55)
    }

    #[test]
    fn figure15_reproduces_the_headline_ratios() -> Result<(), String> {
        let points = figure15_points(SimDuration::from_millis(10));
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].label, "PocketSearch");
        let by_label = |l: &str| {
            points
                .iter()
                .find(|p| p.label == l)
                .cloned()
                .ok_or_else(|| format!("figure 15 has no '{l}' point"))
        };
        let threeg = by_label("3G")?;
        let edge = by_label("Edge")?;
        let wifi = by_label("802.11g")?;
        assert!((14.0..18.0).contains(&threeg.speedup_vs_pocket));
        assert!((22.0..28.0).contains(&edge.speedup_vs_pocket));
        assert!((5.5..8.5).contains(&wifi.speedup_vs_pocket));
        assert!((20.0..27.0).contains(&threeg.energy_ratio_vs_pocket));
        assert!((36.0..46.0).contains(&edge.energy_ratio_vs_pocket));
        assert!((9.0..13.0).contains(&wifi.energy_ratio_vs_pocket));
        Ok(())
    }

    #[test]
    fn figure16_pocket_4s_900mw_vs_3g_40s_higher_power() {
        let (pocket, radio) = figure16_traces(10, SimDuration::from_millis(10));
        let pocket_secs = pocket.busy_time().as_secs_f64();
        let radio_secs = radio.busy_time().as_secs_f64();
        assert!(
            (3.0..5.0).contains(&pocket_secs),
            "pocket trace {pocket_secs:.1}s"
        );
        assert!(
            (35.0..45.0).contains(&radio_secs),
            "3G trace {radio_secs:.1}s"
        );
        let pocket_peak = pocket.peak_power().expect("pocket trace is non-empty");
        let radio_peak = radio.peak_power().expect("3G trace is non-empty");
        assert_eq!(pocket_peak.milliwatts(), 900);
        assert!(radio_peak.milliwatts() > 1_200);
    }

    #[test]
    fn hit_rate_study_reproduces_figure17_shape() {
        let study = run_hit_rate_study(
            &test_world(21),
            &HitRateConfig::test_scale(),
            &[
                CacheMode::Full,
                CacheMode::CommunityOnly,
                CacheMode::PersonalizationOnly,
            ],
        );
        let of = |mode: CacheMode| {
            study
                .modes
                .iter()
                .find(|m| m.mode == mode)
                .expect("mode was requested")
        };
        let full = of(CacheMode::Full).average_hit_rate;
        let community = of(CacheMode::CommunityOnly).average_hit_rate;
        let personal = of(CacheMode::PersonalizationOnly).average_hit_rate;

        // Paper: 65% / 55% / 56.5% — the full cache must beat both
        // components, and all three land in their neighbourhoods.
        assert!(
            full > community && full > personal,
            "full {full:.2} vs {community:.2}/{personal:.2}"
        );
        assert!((0.55..0.80).contains(&full), "full hit rate {full:.2}");
        assert!(
            (0.42..0.68).contains(&community),
            "community {community:.2}"
        );
        assert!((0.42..0.68).contains(&personal), "personal {personal:.2}");

        // Hit rate grows with the monthly query volume. At test scale each
        // class holds only ~20 users, so allow a little sampling slack; the
        // full-scale study asserts the strict ordering.
        let summaries = &of(CacheMode::Full).summaries;
        let rate = |c: UserClass| summaries.iter().find(|s| s.class == c).map(|s| s.hit_rate);
        if let (Some(low), Some(high)) = (rate(UserClass::Low), rate(UserClass::High)) {
            assert!(
                high > low - 0.05,
                "high-volume {high:.2} far below low-volume {low:.2}"
            );
        }
    }

    #[test]
    fn community_warm_start_dominates_week_one() {
        let study = run_hit_rate_study(
            &test_world(5),
            &HitRateConfig::test_scale(),
            &[CacheMode::CommunityOnly, CacheMode::PersonalizationOnly],
        );
        let week1 = |mode: CacheMode| {
            let m = study.modes.iter().find(|m| m.mode == mode).unwrap();
            m.summaries.iter().map(|s| s.hit_rate_week1).sum::<f64>() / m.summaries.len() as f64
        };
        // Figure 18(a): in the first week the cold personalization cache
        // trails the community warm start.
        assert!(
            week1(CacheMode::CommunityOnly) > week1(CacheMode::PersonalizationOnly),
            "community {:.2} vs personal {:.2}",
            week1(CacheMode::CommunityOnly),
            week1(CacheMode::PersonalizationOnly)
        );
    }

    #[test]
    fn studies_sharing_one_world_match_studies_on_fresh_worlds() {
        let lambda_zero = HitRateConfig {
            ranking: RankingPolicy::new(0.0, 0.01),
            ..HitRateConfig::test_scale()
        };
        let default = HitRateConfig::test_scale();
        let modes = [CacheMode::Full, CacheMode::PersonalizationOnly];
        let shared = test_world(8);
        let first = run_hit_rate_study(&shared, &lambda_zero, &modes);
        let second = run_hit_rate_study(&shared, &default, &modes);
        assert_ne!(first, second, "the two rankings must replay differently");
        assert_eq!(
            first,
            run_hit_rate_study(&test_world(8), &lambda_zero, &modes)
        );
        assert_eq!(second, run_hit_rate_study(&test_world(8), &default, &modes));
    }

    #[test]
    fn select_streams_caps_each_class() {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 3);
        let month = g.generate_month();
        let streams = select_streams(&month, 5);
        let mut per_class = std::collections::BTreeMap::new();
        for s in &streams {
            let class = UserClass::classify(s.len() as u32).unwrap();
            *per_class.entry(class).or_insert(0usize) += 1;
        }
        for (&class, &n) in &per_class {
            assert!(n <= 5, "{class} had {n} streams");
        }
        assert!(per_class[&UserClass::Low] == 5);
    }
}
