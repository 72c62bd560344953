//! Trace replay (§6.2): per-user query streams against a configured cache.
//!
//! The paper replays month-long anonymized query streams of 100 users per
//! Table 6 class against a cache built from the *preceding* month's logs.
//! [`replay_population`] reproduces such runs, one engine clone per user:
//! every entry is served through the full engine (hash table → flash
//! fetch → render, or radio on miss), then the click is recorded so
//! personalization learns. Users fan out across threads with `crossbeam`.

use cloudlet_core::update::UpdateServer;
use mobsim::power::Energy;
use mobsim::time::SimDuration;
use querylog::ids::UserId;
use querylog::log::{DeviceClass, LogEntry};
use querylog::universe::QueryKind;
use querylog::users::UserClass;
use serde::{Deserialize, Serialize};

use crate::engine::{Catalog, PocketSearch};

/// Per-user replay result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// The replayed user.
    pub user: UserId,
    /// Table 6 class (from the stream's monthly volume).
    pub class: Option<UserClass>,
    /// Handset class of the stream.
    pub device: Option<DeviceClass>,
    /// Queries replayed.
    pub total: u32,
    /// Queries served from the cache.
    pub hits: u32,
    /// Hits per log day.
    pub hits_by_day: Vec<u32>,
    /// Queries per log day.
    pub total_by_day: Vec<u32>,
    /// Hits on navigational queries.
    pub nav_hits: u32,
    /// Navigational queries replayed.
    pub nav_total: u32,
    /// Total simulated service time across the stream.
    pub time: SimDuration,
    /// Total energy dissipated serving the stream.
    pub energy: Energy,
    /// Hits where the result the user went on to click was ranked first
    /// in the served list — the §5.3 personalization quality signal.
    pub top_ranked_clicks: u32,
}

impl ReplayOutcome {
    /// Overall hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            f64::from(self.hits) / f64::from(self.total)
        }
    }

    /// Hit rate over days `0..days` (Figure 18's week cuts).
    pub fn hit_rate_through_day(&self, days: usize) -> f64 {
        let hits: u32 = self.hits_by_day.iter().take(days).sum();
        let total: u32 = self.total_by_day.iter().take(days).sum();
        if total == 0 {
            0.0
        } else {
            f64::from(hits) / f64::from(total)
        }
    }

    /// Fraction of hits that were navigational (Figure 19).
    pub fn nav_share_of_hits(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            f64::from(self.nav_hits) / f64::from(self.hits)
        }
    }

    /// Fraction of hits whose top-ranked result was the one the user
    /// clicked (ranking quality, §5.3).
    pub fn top_rank_accuracy(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            f64::from(self.top_ranked_clicks) / f64::from(self.hits)
        }
    }
}

fn replay_stream(
    engine: &mut PocketSearch,
    catalog: &Catalog,
    stream: &[LogEntry],
    servers_by_day: Option<&[UpdateServer]>,
) -> ReplayOutcome {
    let days = stream
        .iter()
        .map(|e| usize::from(e.time.day) + 1)
        .max()
        .unwrap_or(0);
    let mut outcome = ReplayOutcome {
        user: stream
            .first()
            .map(|e| e.user)
            .unwrap_or(UserId::new(u32::MAX)),
        class: UserClass::classify(stream.len() as u32),
        device: stream.first().map(|e| e.device),
        total: 0,
        hits: 0,
        hits_by_day: vec![0; days],
        total_by_day: vec![0; days],
        nav_hits: 0,
        nav_total: 0,
        time: SimDuration::ZERO,
        energy: Energy::ZERO,
        top_ranked_clicks: 0,
    };

    let mut current_day = 0u16;
    for entry in stream {
        // Nightly updates happen while the phone charges, between days.
        if let Some(servers) = servers_by_day {
            while current_day < entry.time.day {
                if let Some(server) = servers.get(usize::from(current_day)) {
                    let _ = engine.nightly_update(server, catalog);
                }
                current_day += 1;
            }
        } else {
            current_day = entry.time.day;
        }

        let query_hash = catalog.query_hash(entry.query);
        let result_hash = catalog.result_hash(entry.result);
        let served = engine.serve(query_hash);

        outcome.total += 1;
        outcome.total_by_day[usize::from(entry.time.day)] += 1;
        if entry.kind == QueryKind::Navigational {
            outcome.nav_total += 1;
        }
        if served.hit {
            outcome.hits += 1;
            outcome.hits_by_day[usize::from(entry.time.day)] += 1;
            if entry.kind == QueryKind::Navigational {
                outcome.nav_hits += 1;
            }
            if served.results.first().map(|r| r.result_hash) == Some(result_hash) {
                outcome.top_ranked_clicks += 1;
            }
        }
        outcome.time += served.report.total_time;
        outcome.energy += served.report.energy;

        engine.click(query_hash, result_hash, || catalog.record(entry.result));
    }
    outcome
}

/// Replays a whole population in parallel, one engine clone per user.
pub fn replay_population(
    base: &PocketSearch,
    catalog: &Catalog,
    streams: &[Vec<LogEntry>],
    servers_by_day: Option<&[UpdateServer]>,
) -> Vec<ReplayOutcome> {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(streams.len().max(1));
    let chunk_size = streams.len().div_ceil(threads);
    let mut outcomes: Vec<Option<ReplayOutcome>> = vec![None; streams.len()];

    let scope_result = crossbeam::thread::scope(|scope| {
        for (chunk_idx, (streams_chunk, out_chunk)) in streams
            .chunks(chunk_size)
            .zip(outcomes.chunks_mut(chunk_size))
            .enumerate()
        {
            let _ = chunk_idx;
            scope.spawn(move |_| {
                for (stream, slot) in streams_chunk.iter().zip(out_chunk.iter_mut()) {
                    let mut engine = base.clone();
                    *slot = Some(replay_stream(&mut engine, catalog, stream, servers_by_day));
                }
            });
        }
    });
    // `replay_stream` is panic-free, so every slot is filled; if a
    // worker somehow died, drop its chunk's unfilled slots rather than
    // poison the whole population run.
    debug_assert!(scope_result.is_ok(), "replay worker panicked");
    outcomes.into_iter().flatten().collect()
}

/// Per-class aggregate of replay outcomes (the bars of Figures 17–19).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSummary {
    /// The class being summarized.
    pub class: UserClass,
    /// Users aggregated.
    pub users: usize,
    /// Mean per-user hit rate.
    pub hit_rate: f64,
    /// Mean per-user hit rate over the first week.
    pub hit_rate_week1: f64,
    /// Mean per-user hit rate over the first two weeks.
    pub hit_rate_weeks12: f64,
    /// Mean share of hits that were navigational.
    pub nav_share_of_hits: f64,
    /// Mean top-rank accuracy (clicked result served first).
    pub top_rank_accuracy: f64,
}

impl ClassSummary {
    /// Summarizes the outcomes belonging to `class`.
    pub fn of(class: UserClass, outcomes: &[ReplayOutcome]) -> Option<ClassSummary> {
        let of_class: Vec<&ReplayOutcome> =
            outcomes.iter().filter(|o| o.class == Some(class)).collect();
        if of_class.is_empty() {
            return None;
        }
        let n = of_class.len() as f64;
        let mean =
            |f: &dyn Fn(&ReplayOutcome) -> f64| of_class.iter().map(|o| f(o)).sum::<f64>() / n;
        Some(ClassSummary {
            class,
            users: of_class.len(),
            hit_rate: mean(&|o| o.hit_rate()),
            hit_rate_week1: mean(&|o| o.hit_rate_through_day(7)),
            hit_rate_weeks12: mean(&|o| o.hit_rate_through_day(14)),
            nav_share_of_hits: mean(&ReplayOutcome::nav_share_of_hits),
            top_rank_accuracy: mean(&ReplayOutcome::top_rank_accuracy),
        })
    }

    /// Summaries for every class present in `outcomes`, Table 6 order.
    pub fn all(outcomes: &[ReplayOutcome]) -> Vec<ClassSummary> {
        UserClass::ALL
            .iter()
            .filter_map(|&c| ClassSummary::of(c, outcomes))
            .collect()
    }

    /// Unweighted mean hit rate across the given summaries (the paper's
    /// "average across all user classes").
    pub fn mean_hit_rate(summaries: &[ClassSummary]) -> f64 {
        if summaries.is_empty() {
            return 0.0;
        }
        summaries.iter().map(|s| s.hit_rate).sum::<f64>() / summaries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
    use cloudlet_core::corpus::UniverseCorpus;
    use querylog::generator::{GeneratorConfig, LogGenerator};
    use querylog::triplets::TripletTable;

    use crate::config::PocketSearchConfig;

    fn setup() -> (PocketSearch, Catalog, Vec<Vec<LogEntry>>) {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 8);
        let build_month = g.generate_month();
        let table = TripletTable::from_log(&build_month);
        let contents = CacheContents::generate(
            &table,
            &UniverseCorpus::new(g.universe()),
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        let catalog = Catalog::new(g.universe());
        let engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let replay_month = g.generate_month();
        let streams: Vec<Vec<LogEntry>> = replay_month
            .users()
            .into_iter()
            .take(24)
            .map(|u| replay_month.user_stream(u))
            .collect();
        (engine, catalog, streams)
    }

    /// One user's month against a fresh clone of `base`, on this thread.
    fn replay_user(base: &PocketSearch, catalog: &Catalog, stream: &[LogEntry]) -> ReplayOutcome {
        replay_stream(&mut base.clone(), catalog, stream, None)
    }

    #[test]
    fn replay_counts_are_consistent() {
        let (engine, catalog, streams) = setup();
        let o = replay_user(&engine, &catalog, &streams[0]);
        assert_eq!(o.total as usize, streams[0].len());
        assert!(o.hits <= o.total);
        assert_eq!(o.total_by_day.iter().sum::<u32>(), o.total);
        assert_eq!(o.hits_by_day.iter().sum::<u32>(), o.hits);
        assert!(o.nav_hits <= o.nav_total);
        assert!(o.time > SimDuration::ZERO);
        assert!(o.energy > Energy::ZERO);
    }

    #[test]
    fn a_typical_user_hits_more_than_half_the_time() {
        let (engine, catalog, streams) = setup();
        let outcomes: Vec<ReplayOutcome> = streams
            .iter()
            .take(12)
            .map(|s| replay_user(&engine, &catalog, s))
            .collect();
        let mean: f64 =
            outcomes.iter().map(ReplayOutcome::hit_rate).sum::<f64>() / outcomes.len() as f64;
        assert!(
            (0.5..0.85).contains(&mean),
            "mean hit rate was {mean:.2}, expected around the paper's 0.65"
        );
    }

    #[test]
    fn parallel_and_serial_replay_agree() {
        let (engine, catalog, streams) = setup();
        let subset = &streams[..8];
        let serial: Vec<ReplayOutcome> = subset
            .iter()
            .map(|s| replay_user(&engine, &catalog, s))
            .collect();
        let parallel = replay_population(&engine, &catalog, subset, None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn class_summary_aggregates_present_classes() {
        let (engine, catalog, streams) = setup();
        let outcomes = replay_population(&engine, &catalog, &streams, None);
        let summaries = ClassSummary::all(&outcomes);
        assert!(!summaries.is_empty());
        let total_users: usize = summaries.iter().map(|s| s.users).sum();
        assert_eq!(total_users, outcomes.len());
        for s in &summaries {
            assert!((0.0..=1.0).contains(&s.hit_rate));
            assert!((0.0..=1.0).contains(&s.nav_share_of_hits));
        }
        assert!(ClassSummary::mean_hit_rate(&summaries) > 0.0);
    }

    #[test]
    fn empty_stream_yields_empty_outcome() {
        let (engine, catalog, _) = setup();
        let o = replay_user(&engine, &catalog, &[]);
        assert_eq!(o.total, 0);
        assert_eq!(o.hit_rate(), 0.0);
        assert_eq!(o.class, None);
    }
}
