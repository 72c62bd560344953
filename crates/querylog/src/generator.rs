//! The log generator: universe + user population → [`SearchLog`]s.
//!
//! The generator owns a [`Universe`] and a population of [`UserProfile`]s
//! and can emit month-long community logs (what the update server mines)
//! and per-user query streams (what §6.2 replays against PocketSearch).
//! Successive calls to [`LogGenerator::generate_month`] model successive
//! calendar months: the population and its behaviour are stationary, but
//! every draw is fresh, so the cache-construction month and the replay
//! month are non-overlapping, exactly as in the paper.
//!
//! Generation is *streaming-first*: every profile and every `(user,
//! month, day)` cell derives its RNG independently from the generator
//! seed (see [`crate::stream`]), so [`LogGenerator::stream_month`] can
//! lazily chunk a month into epoch batches and
//! [`LogGenerator::append_user_month`] can re-derive any single user's
//! stream without touching the rest of the population.
//! [`LogGenerator::generate_month`] is a thin `collect()` wrapper over
//! the stream.

use serde::{Deserialize, Serialize};

use crate::ids::UserId;
use crate::log::{LogEntry, SearchLog};
use crate::stream::{derive_profile, EventStream, StreamConfig};
use crate::universe::{Universe, UniverseConfig};
use crate::users::{BehaviorConfig, UserProfile};

/// Configuration of a [`LogGenerator`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// The universe to draw from.
    pub universe: UniverseConfig,
    /// Behavioural model knobs.
    pub behavior: BehaviorConfig,
    /// Number of users in the population.
    pub n_users: usize,
    /// Days per generated month (28 = four exact weeks, easing the
    /// Figure 18 week splits).
    pub days_per_month: u16,
}

impl GeneratorConfig {
    /// Full-scale configuration for figure/table regeneration.
    pub fn full_scale() -> Self {
        GeneratorConfig {
            universe: UniverseConfig::full_scale(),
            behavior: BehaviorConfig::default(),
            n_users: 4_000,
            days_per_month: 28,
        }
    }

    /// Small configuration for fast tests.
    pub fn test_scale() -> Self {
        GeneratorConfig {
            universe: UniverseConfig::test_scale(),
            behavior: BehaviorConfig::default(),
            n_users: 300,
            days_per_month: 28,
        }
    }
}

/// Generates synthetic mobile search logs.
///
/// # Example
///
/// ```
/// use querylog::generator::{GeneratorConfig, LogGenerator};
///
/// let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 9);
/// let build_month = generator.generate_month();
/// let replay_month = generator.generate_month();
/// // Same population, fresh draws: non-overlapping evaluation data.
/// assert_eq!(build_month.users().len(), replay_month.users().len());
/// ```
#[derive(Debug, Clone)]
pub struct LogGenerator {
    config: GeneratorConfig,
    universe: Universe,
    profiles: Vec<UserProfile>,
    seed: u64,
    months_generated: u32,
}

impl LogGenerator {
    /// Builds the universe and user population deterministically from
    /// `seed`. Each profile derives from its own
    /// [`crate::stream::profile_seed`], so the table here is bit-identical
    /// to what a profile-free [`EventStream`] derives on demand.
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        let universe = Universe::generate(config.universe, seed);
        let profiles = (0..config.n_users)
            .map(|i| derive_profile(&universe, &config.behavior, seed, UserId::new(i as u32)))
            .collect();
        LogGenerator {
            config,
            universe,
            profiles,
            seed,
            months_generated: 0,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// The shared universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Consumes the generator for its universe, so a world that outlives
    /// generation keeps the one copy instead of cloning it.
    pub fn into_universe(self) -> Universe {
        self.universe
    }

    /// How many months have been generated (or streamed) so far; the
    /// next month to be produced has this index.
    pub fn months_generated(&self) -> u32 {
        self.months_generated
    }

    /// The user population.
    pub fn profiles(&self) -> &[UserProfile] {
        &self.profiles
    }

    /// Lazily streams the next month as chunked epoch batches (see
    /// [`EventStream`]); resident memory is bounded by one day of
    /// events, not the month. Consumes a month index, so streamed and
    /// collected months interleave consistently.
    pub fn stream_month(&mut self) -> EventStream<'_> {
        self.stream_month_chunked(StreamConfig::default().epochs_per_day)
    }

    /// [`Self::stream_month`] with an explicit day chunking (e.g. 24
    /// epochs per day for hourly diurnal phases).
    pub fn stream_month_chunked(&mut self, epochs_per_day: u16) -> EventStream<'_> {
        let month = self.months_generated;
        self.months_generated += 1;
        EventStream::with_profiles(
            &self.universe,
            &self.profiles,
            self.config.behavior,
            self.seed,
            self.config.days_per_month,
            StreamConfig {
                month,
                epochs_per_day,
            },
        )
    }

    /// Generates one month of activity for the whole population —
    /// a thin `collect()` over [`Self::stream_month`].
    pub fn generate_month(&mut self) -> SearchLog {
        self.stream_month().collect_log()
    }

    /// Appends one month of activity for a single user into a
    /// caller-owned buffer (in day order; within a day events are
    /// unsorted): the user's slice of the month [`Self::generate_month`]
    /// would produce next, re-derived independently (no other user is
    /// generated, and the generator's month counter does not advance).
    /// Loops over many users reuse one buffer instead of allocating per
    /// user.
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population.
    pub fn append_user_month(&self, user: UserId, out: &mut Vec<LogEntry>) {
        crate::stream::append_profile_month(
            &self.universe,
            &self.profiles[user.as_usize()],
            self.seed,
            self.months_generated,
            self.config.days_per_month,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::users::UserClass;

    fn generator() -> LogGenerator {
        LogGenerator::new(GeneratorConfig::test_scale(), 42)
    }

    #[test]
    fn month_volume_matches_profiles() {
        let mut g = generator();
        let expected: u32 = g.profiles().iter().map(|p| p.monthly_volume).sum();
        let log = g.generate_month();
        assert_eq!(log.len() as u32, expected);
    }

    #[test]
    fn every_user_appears_with_their_volume() {
        let mut g = generator();
        let log = g.generate_month();
        let mut volumes = std::collections::BTreeMap::new();
        for e in log.iter() {
            *volumes.entry(e.user).or_insert(0u32) += 1;
        }
        for p in g.profiles() {
            assert_eq!(volumes[&p.id], p.monthly_volume, "user {}", p.id);
        }
    }

    #[test]
    fn entries_are_consistent_with_the_universe() {
        let mut g = generator();
        let log = g.generate_month();
        for e in log.iter().take(500) {
            let pair = g.universe().pair(e.pair);
            assert_eq!(pair.query, e.query);
            assert_eq!(pair.result, e.result);
            assert_eq!(pair.kind, e.kind);
        }
    }

    #[test]
    fn months_are_non_overlapping_draws() {
        let mut g = generator();
        let m1 = g.generate_month();
        let m2 = g.generate_month();
        // Identical population, different realizations.
        assert_eq!(m1.users(), m2.users());
        let stream1 = m1.user_stream(UserId::new(0));
        let stream2 = m2.user_stream(UserId::new(0));
        let pairs1: Vec<_> = stream1.iter().map(|e| e.pair).collect();
        let pairs2: Vec<_> = stream2.iter().map(|e| e.pair).collect();
        assert_ne!(pairs1, pairs2, "two months produced identical streams");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = LogGenerator::new(GeneratorConfig::test_scale(), 7);
        let mut b = LogGenerator::new(GeneratorConfig::test_scale(), 7);
        assert_eq!(a.generate_month(), b.generate_month());
    }

    #[test]
    fn days_span_the_configured_month() {
        let mut g = generator();
        let log = g.generate_month();
        let max_day = log.iter().map(|e| e.time.day).max().unwrap();
        assert!(max_day < g.config().days_per_month);
        // A medium-or-better user has activity in every week.
        let heavy = g
            .profiles()
            .iter()
            .find(|p| p.class >= UserClass::Medium)
            .expect("population has a medium user");
        let stream = log.user_stream(heavy.id);
        let weeks: std::collections::BTreeSet<u16> =
            stream.iter().map(|e| e.time.day / 7).collect();
        assert_eq!(weeks.len(), 4, "expected activity in all four weeks");
    }

    #[test]
    fn single_user_month_matches_population_shape() {
        let g = generator();
        let user = UserId::new(3);
        let mut stream = Vec::new();
        g.append_user_month(user, &mut stream);
        stream.sort_by_key(|e| e.time);
        assert_eq!(
            stream.len() as u32,
            g.profiles()[user.as_usize()].monthly_volume
        );
        assert!(stream.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn user_month_is_the_users_slice_of_the_population_month() {
        let mut g = generator();
        let user = UserId::new(7);
        // Preview the next month for one user, then generate it for all.
        let mut solo = Vec::new();
        g.append_user_month(user, &mut solo);
        let month = g.generate_month();
        let mut slice: Vec<LogEntry> = month.iter().filter(|e| e.user == user).copied().collect();
        slice.sort_by_key(|e| e.time);
        let mut solo_sorted = solo;
        solo_sorted.sort_by_key(|e| e.time);
        assert_eq!(solo_sorted, slice);
    }

    #[test]
    fn append_form_reuses_one_buffer_across_users() {
        let g = generator();
        let mut buffer = Vec::new();
        g.append_user_month(UserId::new(0), &mut buffer);
        let first = buffer.len();
        g.append_user_month(UserId::new(1), &mut buffer);
        assert_eq!(
            buffer.len(),
            first + g.profiles()[1].monthly_volume as usize
        );
        assert_eq!(first, g.profiles()[0].monthly_volume as usize);
    }
}
