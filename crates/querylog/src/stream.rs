//! Lazy, chunked event streams for population-scale simulation.
//!
//! The paper's evaluation replays a 200M-query month; materializing such
//! a log as one `Vec<LogEntry>` is O(events) resident memory and caps the
//! population a simulation can carry. [`EventStream`] generates the same
//! month *epoch by epoch*: each [`EpochBatch`] holds one time slice of
//! one day, chronologically sorted, and the stream never keeps more than
//! a single day of events alive. That day stays packed at 16 B an event
//! (user, pair, time and device class; the query, result and kind come
//! back from the universe), and only the epoch being handed out is
//! expanded into 40-B [`LogEntry`]s. Resident memory is O(users) — each
//! user contributes a bounded number of events per day — independent of
//! how many days (and therefore events) the stream covers.
//!
//! Two properties make the stream equivalent to the eager generator:
//!
//! * **Deterministic per-user seeding.** Every `(user, month, day)` cell
//!   draws from its own SplitMix64-derived RNG ([`day_seed`]), and every
//!   user's profile derives from [`profile_seed`]. Any user's stream can
//!   be re-derived in isolation — [`append_user_month`] — without
//!   generating anyone else, and it is bit-identical to that user's
//!   slice of the full stream.
//! * **Exact concatenation.** Epoch time ranges partition the month and
//!   each batch is sorted by `(time, user, pair)` — the same canonical
//!   order [`SearchLog::new`] imposes — so concatenating the batches *is*
//!   the materialized log. `LogGenerator::generate_month` is now a thin
//!   [`EventStream::collect_log`] wrapper over this stream.
//!
//! Because cells are independent, a day is generated in parallel: the
//! users split into contiguous ranges, one per core (populations below
//! a few thousand users per core stay on the calling thread), each worker
//! draws its range into per-epoch pieces, and every epoch is the pieces
//! appended in range order — the serial user order — then sorted. The
//! batches are bit-identical for any core count.
//!
//! Query times follow a diurnal profile ([`DIURNAL_HOUR_WEIGHTS`],
//! after Carlsson & Eager's time-varying request volumes): a night
//! trough, a morning ramp, and an evening peak, so day-scale runs exhibit
//! the load shapes a front-end's admission control must ride out.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ids::{PairId, UserId};
use crate::log::{DeviceClass, LogEntry, SearchLog, Timestamp};
use crate::universe::Universe;
use crate::users::{BehaviorConfig, UserProfile};

/// Microseconds in one simulated day.
pub const MICROS_PER_DAY: u64 = 86_400_000_000;

/// Relative query volume per hour of day (the diurnal shape): a deep
/// night trough, a morning ramp, a midday plateau, and an evening peak.
/// Sampling is by weight, so the absolute scale is arbitrary.
pub const DIURNAL_HOUR_WEIGHTS: [u64; 24] = [
    2, 1, 1, 1, 1, 2, 4, 6, 8, 9, 10, 11, 11, 10, 10, 10, 11, 12, 14, 15, 14, 10, 6, 3,
];

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation used to
/// derive independent RNG seeds from structured coordinates and behind
/// [`Mix64Hasher`].
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`std::hash::Hasher`] that folds each `u64` word through one
/// [`mix64`] round: a copy of `mobsim::Mix64Hasher` (this crate does not
/// depend on `mobsim`) for maps keyed by ids the generator itself
/// assigns, where SipHash's defence against crafted keys guards against
/// no one. [`crate::triplets::TripletTable::from_log`] counts a log
/// window's `(query, result)` pairs through it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Mix64Hasher(u64);

impl std::hash::Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = mix64(self.0 ^ key);
    }
}

/// The RNG seed a user's profile derives from: a function of the
/// generator seed and the user id only, so profiles can be derived on
/// demand (no O(users) profile table needed to stream).
pub fn profile_seed(seed: u64, user: UserId) -> u64 {
    mix64(mix64(seed ^ 0x0070_c4e7_u64) ^ u64::from(user.index()))
}

/// The RNG seed of one `(user, month, day)` generation cell.
pub fn day_seed(seed: u64, month: u32, user: UserId, day: u16) -> u64 {
    let mut h = mix64(seed ^ 0xd1a7_u64);
    h = mix64(h ^ u64::from(month));
    h = mix64(h ^ u64::from(user.index()));
    mix64(h ^ u64::from(day))
}

/// Derives one user's behavioural profile deterministically from the
/// generator seed. `LogGenerator::new` materializes its profile table
/// through this same function, so a profile derived here is identical to
/// the generator's copy.
pub fn derive_profile(
    universe: &Universe,
    behavior: &BehaviorConfig,
    seed: u64,
    user: UserId,
) -> UserProfile {
    let mut rng = StdRng::seed_from_u64(profile_seed(seed, user));
    UserProfile::generate(user, universe, behavior, &mut rng)
}

/// How many of a user's `volume` monthly events land on `day` of a
/// `days`-day month. This is the eager generator's even spread
/// (`day(i) = i·days/volume`) expressed as a per-day count, so the
/// partition over days is exact: the counts sum to `volume`.
pub fn events_on_day(volume: u32, days: u16, day: u16) -> u32 {
    if volume == 0 || days == 0 || day >= days {
        return 0;
    }
    let (volume, days, day) = (u64::from(volume), u64::from(days), u64::from(day));
    let first = |d: u64| d.checked_mul(volume).map_or(0, |n| n.div_ceil(days));
    (first(day + 1).min(volume) - first(day).min(volume)) as u32
}

/// Draws a time of day from the diurnal hour profile, uniform within the
/// chosen hour.
fn sample_micros_of_day(rng: &mut StdRng) -> u64 {
    const TOTAL: u64 = {
        let mut sum = 0u64;
        let mut i = 0;
        while i < DIURNAL_HOUR_WEIGHTS.len() {
            sum += DIURNAL_HOUR_WEIGHTS[i];
            i += 1;
        }
        sum
    };
    let mut x = rng.random_range(0..TOTAL);
    let mut hour = 0u64;
    for (h, &w) in DIURNAL_HOUR_WEIGHTS.iter().enumerate() {
        if x < w {
            hour = h as u64;
            break;
        }
        x -= w;
    }
    hour * 3_600_000_000 + rng.random_range(0..3_600_000_000u64)
}

/// One event as a generated day holds it until its epoch is handed out:
/// 16 B against a [`LogEntry`]'s 40. The day comes from the epoch, and
/// the query, result and kind from `universe.pair(pair)`, so the user,
/// the pair, the time and the device class are all an event keeps.
#[derive(Debug, Clone, Copy)]
struct DayEvent {
    /// `micros_of_day << 1`, with the device class in the low bit (set
    /// for a smartphone). A day's µs fit in 37 bits, so the shift loses
    /// nothing.
    stamp: u64,
    user: u32,
    pair: u32,
}

impl DayEvent {
    fn new(user: UserId, device: DeviceClass, micros_of_day: u64, pair: PairId) -> Self {
        debug_assert!(micros_of_day < MICROS_PER_DAY);
        let smartphone = u64::from(device == DeviceClass::Smartphone);
        DayEvent {
            stamp: micros_of_day << 1 | smartphone,
            user: user.index(),
            pair: pair.index(),
        }
    }

    fn micros_of_day(self) -> u64 {
        self.stamp >> 1
    }

    /// Sorts one epoch into the canonical `(time, user, pair)` order. The
    /// packed word would sort smartphones after feature phones at an
    /// equal µs, so the device bit is shifted out first.
    fn sort_epoch(events: &mut [DayEvent]) {
        events.sort_unstable_by_key(|e| (e.micros_of_day(), e.user, e.pair));
    }

    /// The full entry, on `day` of the month.
    fn unpack(self, universe: &Universe, day: u16) -> LogEntry {
        let pair = PairId::new(self.pair);
        let spec = universe.pair(pair);
        LogEntry {
            user: UserId::new(self.user),
            time: Timestamp::new(day, self.micros_of_day()),
            pair,
            query: spec.query,
            result: spec.result,
            kind: spec.kind,
            device: if self.stamp & 1 == 1 {
                DeviceClass::Smartphone
            } else {
                DeviceClass::FeaturePhone
            },
        }
    }
}

/// Draws one user's events for one `(month, day)` cell, in generation
/// order (times within the day are *not* sorted here), and hands each to
/// `emit`.
fn draw_user_day(
    universe: &Universe,
    profile: &UserProfile,
    seed: u64,
    month: u32,
    days: u16,
    day: u16,
    mut emit: impl FnMut(DayEvent),
) {
    let n = events_on_day(profile.monthly_volume, days, day);
    if n == 0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(day_seed(seed, month, profile.id, day));
    for _ in 0..n {
        let pair = profile.next_pair(universe, &mut rng);
        let micros_of_day = sample_micros_of_day(&mut rng);
        emit(DayEvent::new(
            profile.id,
            profile.device,
            micros_of_day,
            pair,
        ));
    }
}

/// Appends one user's whole month, in day order (within a day, events
/// are in generation order, not time order). This is the allocation-free
/// append form: callers building many users' streams reuse one buffer.
pub fn append_user_month(
    universe: &Universe,
    behavior: &BehaviorConfig,
    seed: u64,
    month: u32,
    days: u16,
    user: UserId,
    out: &mut Vec<LogEntry>,
) {
    let profile = derive_profile(universe, behavior, seed, user);
    append_profile_month(universe, &profile, seed, month, days, out);
}

/// [`append_user_month`] for a caller that already holds the profile
/// (e.g. `LogGenerator`'s materialized table), skipping re-derivation.
pub fn append_profile_month(
    universe: &Universe,
    profile: &UserProfile,
    seed: u64,
    month: u32,
    days: u16,
    out: &mut Vec<LogEntry>,
) {
    for day in 0..days {
        draw_user_day(universe, profile, seed, month, days, day, |event| {
            out.push(event.unpack(universe, day));
        });
    }
}

/// Fewest users a day-generation worker is given: below this a thread's
/// start-up outweighs its share, so test-scale populations (300 users)
/// stay serial, while the 4,000-user full-scale months split across two
/// cores (the day is the same for any worker count).
const MIN_USERS_PER_WORKER: usize = 1_024;

/// Runs `work` over `inputs`, one scoped thread per input (inline when
/// there is only one), and returns the outputs in input order. A worker's
/// panic is re-raised with its original payload.
fn on_workers<I, O, F>(inputs: Vec<I>, work: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    if inputs.len() <= 1 {
        return inputs.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| scope.spawn(move || work(input)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Which month an [`EventStream`] generates and how finely each day is
/// chunked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Month index (successive `LogGenerator` months count up from 0).
    pub month: u32,
    /// Epoch batches per day (e.g. 24 for hourly diurnal phases).
    pub epochs_per_day: u16,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            month: 0,
            epochs_per_day: 4,
        }
    }
}

/// One chronologically sorted time slice of one day.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochBatch {
    /// Month the batch belongs to.
    pub month: u32,
    /// Day of the month.
    pub day: u16,
    /// Slice index within the day, `0..epochs_per_day`.
    pub epoch_of_day: u16,
    /// Global epoch index: `day · epochs_per_day + epoch_of_day`.
    pub epoch: u32,
    /// The slice's events, sorted by `(time, user, pair)` — the same
    /// canonical order [`SearchLog::new`] imposes.
    pub entries: Vec<LogEntry>,
}

impl EpochBatch {
    /// The simulated instant (in microseconds since day 0) at which this
    /// epoch ends — the natural `now` for folding telemetry.
    ///
    /// Entries are bucketed by `⌊m·E/D⌋` for micros-of-day `m`, `E` epochs
    /// and a `D`-µs day, so epoch `k` holds exactly `m < ⌈(k+1)·D/E⌉` —
    /// also when `E` does not divide `D`.
    pub fn end_micros(&self, epochs_per_day: u16) -> u64 {
        // `(k+1)·D ≤ 65,536·D < 2^63`: no overflow in u64.
        let end_of_day = ((u64::from(self.epoch_of_day) + 1) * MICROS_PER_DAY)
            .div_ceil(u64::from(epochs_per_day.max(1)));
        u64::from(self.day) * MICROS_PER_DAY + end_of_day
    }
}

/// Where the stream gets user profiles from.
enum ProfileSource<'a> {
    /// Borrow a materialized table (the `LogGenerator` path).
    Table(&'a [UserProfile]),
    /// Derive each profile on demand from [`profile_seed`] — nothing is
    /// retained, so streaming 1M users needs no profile table at all.
    Derived { n_users: usize },
}

impl ProfileSource<'_> {
    fn n_users(&self) -> usize {
        match self {
            ProfileSource::Table(t) => t.len(),
            ProfileSource::Derived { n_users } => *n_users,
        }
    }
}

/// One epoch of a generated day, still packed: sorted like the
/// [`EpochBatch`] it expands into.
struct PackedEpoch {
    day: u16,
    epoch_of_day: u16,
    events: Vec<DayEvent>,
}

impl PackedEpoch {
    /// The epoch's events as full entries, in order.
    fn entries<'s>(&'s self, universe: &'s Universe) -> impl Iterator<Item = LogEntry> + 's {
        self.events.iter().map(|e| e.unpack(universe, self.day))
    }
}

/// A lazy, chunked stream over one month of population activity.
///
/// Iterating yields `days · epochs_per_day` [`EpochBatch`]es in
/// chronological order (empty slices included, so downstream time series
/// stay dense). Only one day of events is ever resident, packed at 16 B
/// an event, plus the one epoch being handed out.
///
/// # Example
///
/// ```
/// use querylog::generator::{GeneratorConfig, LogGenerator};
///
/// let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 9);
/// let mut materialized = LogGenerator::new(GeneratorConfig::test_scale(), 9);
/// let streamed: Vec<_> = generator.stream_month().flat_map(|b| b.entries).collect();
/// assert_eq!(streamed, materialized.generate_month().entries().to_vec());
/// ```
pub struct EventStream<'a> {
    universe: &'a Universe,
    profiles: ProfileSource<'a>,
    behavior: BehaviorConfig,
    seed: u64,
    days: u16,
    config: StreamConfig,
    next_day: u16,
    /// The current day's epochs not yet handed out, each freed as it is
    /// popped.
    pending: VecDeque<PackedEpoch>,
    peak_day_entries: usize,
}

impl<'a> EventStream<'a> {
    /// A stream that derives every profile on demand — the
    /// population-scale entry point: O(1) state per user beyond the
    /// current day's events.
    pub fn new(
        universe: &'a Universe,
        behavior: BehaviorConfig,
        seed: u64,
        n_users: usize,
        days: u16,
        config: StreamConfig,
    ) -> Self {
        Self::build(
            universe,
            ProfileSource::Derived { n_users },
            behavior,
            seed,
            days,
            config,
        )
    }

    /// A stream over an already-materialized profile table (what
    /// `LogGenerator::stream_month` uses), skipping per-day profile
    /// re-derivation.
    pub fn with_profiles(
        universe: &'a Universe,
        profiles: &'a [UserProfile],
        behavior: BehaviorConfig,
        seed: u64,
        days: u16,
        config: StreamConfig,
    ) -> Self {
        Self::build(
            universe,
            ProfileSource::Table(profiles),
            behavior,
            seed,
            days,
            config,
        )
    }

    fn build(
        universe: &'a Universe,
        profiles: ProfileSource<'a>,
        behavior: BehaviorConfig,
        seed: u64,
        days: u16,
        config: StreamConfig,
    ) -> Self {
        assert!(days >= 1, "a month needs at least one day");
        assert!(
            config.epochs_per_day >= 1,
            "need at least one epoch per day"
        );
        EventStream {
            universe,
            profiles,
            behavior,
            seed,
            days,
            config,
            next_day: 0,
            pending: VecDeque::new(),
            peak_day_entries: 0,
        }
    }

    /// The stream's configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Days the stream covers.
    pub fn days(&self) -> u16 {
        self.days
    }

    /// Users the stream covers.
    pub fn n_users(&self) -> usize {
        self.profiles.n_users()
    }

    /// The largest number of events the stream has held resident at once
    /// (one day's worth) — the stream's peak-RSS proxy: 16 B an event for
    /// the packed day, plus one expanded epoch. Updated as days are
    /// generated.
    pub fn peak_day_entries(&self) -> usize {
        self.peak_day_entries
    }

    /// Generates day `day` into the pending queue, on as many workers as
    /// the host has cores and the population has [`MIN_USERS_PER_WORKER`]
    /// users for.
    fn generate_day(&mut self, day: u16) {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let workers = cores.min(self.profiles.n_users() / MIN_USERS_PER_WORKER);
        let epochs = self.day_epochs(day, workers);
        let day_entries: usize = epochs.iter().map(|e| e.events.len()).sum();
        self.peak_day_entries = self.peak_day_entries.max(day_entries);
        self.pending.extend(epochs);
    }

    /// Day `day`'s packed epochs, generated on `workers` threads (at
    /// least one). Users split into contiguous ranges, one per worker,
    /// each drawing its users' events into its own per-epoch pieces; an
    /// epoch is then the workers' pieces appended in range order — which
    /// is user order, exactly the serial generation order — and sorted.
    /// Every cell's RNG is independent of every other's and events with
    /// equal sort keys are identical (the device class is the user's), so
    /// the epochs are the same for any worker count.
    fn day_epochs(&self, day: u16, workers: usize) -> Vec<PackedEpoch> {
        let epochs = usize::from(self.config.epochs_per_day);
        let n_users = self.profiles.n_users();
        let workers = workers.clamp(1, n_users.max(1));
        let per_worker = n_users.div_ceil(workers);
        // Every bucket is first allocated here, on the calling thread.
        // Allocators with per-thread arenas (glibc's) grow a block inside
        // the arena it came from, so the day lands in the caller's arena,
        // which reuses it once the epochs drop; buckets born on workers
        // strand that memory in worker arenas (+22% peak RSS on a
        // 1M-user day).
        let shares: Vec<(Range<usize>, Vec<Vec<DayEvent>>)> = (0..workers)
            .map(|w| {
                let users = (w * per_worker).min(n_users)..((w + 1) * per_worker).min(n_users);
                (users, (0..epochs).map(|_| Vec::with_capacity(1)).collect())
            })
            .collect();
        let mut pieces = on_workers(shares, |(users, mut buckets)| {
            self.user_range_day(users, day, &mut buckets);
            buckets
        });

        let mut merged: Vec<Vec<DayEvent>> = Vec::with_capacity(epochs);
        for e in 0..epochs {
            let (first, rest) = pieces.split_at_mut(1);
            let mut events = std::mem::take(&mut first[0][e]);
            events.reserve_exact(rest.iter().map(|worker| worker[e].len()).sum());
            // Each piece is freed as soon as it is appended, so the day is
            // never resident twice.
            for worker in rest {
                events.extend(std::mem::take(&mut worker[e]));
            }
            merged.push(events);
        }

        // The diurnal profile makes epochs uneven; dealing them out
        // round-robin balances the sorts across workers.
        let mut sort_lanes: Vec<Vec<&mut Vec<DayEvent>>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, events) in merged.iter_mut().enumerate() {
            sort_lanes[i % workers].push(events);
        }
        on_workers(sort_lanes, |lane| {
            for events in lane {
                DayEvent::sort_epoch(events);
            }
        });

        merged
            .into_iter()
            .enumerate()
            .map(|(slice, events)| PackedEpoch {
                day,
                epoch_of_day: slice as u16,
                events,
            })
            .collect()
    }

    /// One worker's share of a day: appends the events of `users`, in
    /// user then generation order, to their epochs' `buckets`.
    fn user_range_day(&self, users: Range<usize>, day: u16, buckets: &mut [Vec<DayEvent>]) {
        let epochs = buckets.len();
        for u in users {
            let derived;
            let profile = match &self.profiles {
                ProfileSource::Table(t) => &t[u],
                ProfileSource::Derived { .. } => {
                    let user = UserId::new(u as u32);
                    derived = derive_profile(self.universe, &self.behavior, self.seed, user);
                    &derived
                }
            };
            draw_user_day(
                self.universe,
                profile,
                self.seed,
                self.config.month,
                self.days,
                day,
                |event| {
                    let slice = (event.micros_of_day() * epochs as u64 / MICROS_PER_DAY) as usize;
                    buckets[slice.min(epochs - 1)].push(event);
                },
            );
        }
    }

    /// The next packed epoch, generating the next day when the current
    /// one is used up; `None` once the month is.
    fn next_packed(&mut self) -> Option<PackedEpoch> {
        if self.pending.is_empty() {
            if self.next_day >= self.days {
                return None;
            }
            let day = self.next_day;
            self.next_day += 1;
            self.generate_day(day);
        }
        self.pending.pop_front()
    }

    /// Expands a packed epoch into the batch the stream hands out; the
    /// packed events are freed on return.
    fn expand(&self, packed: PackedEpoch) -> EpochBatch {
        let (day, epoch_of_day) = (packed.day, packed.epoch_of_day);
        EpochBatch {
            month: self.config.month,
            day,
            epoch_of_day,
            epoch: u32::from(day) * u32::from(self.config.epochs_per_day) + u32::from(epoch_of_day),
            entries: packed.entries(self.universe).collect(),
        }
    }

    /// Drains the stream into a [`SearchLog`] — the thin `collect()`
    /// wrapper the eager `generate_month` API is now built on. Each packed
    /// epoch expands straight into the month, with no batch in between.
    pub fn collect_log(mut self) -> SearchLog {
        let mut entries: Vec<LogEntry> = Vec::new();
        while let Some(packed) = self.next_packed() {
            entries.extend(packed.entries(self.universe));
        }
        SearchLog::new(entries, self.days)
    }
}

impl std::fmt::Debug for EventStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStream")
            .field("n_users", &self.profiles.n_users())
            .field("days", &self.days)
            .field("config", &self.config)
            .field("next_day", &self.next_day)
            .finish_non_exhaustive()
    }
}

impl Iterator for EventStream<'_> {
    type Item = EpochBatch;

    fn next(&mut self) -> Option<EpochBatch> {
        let packed = self.next_packed()?;
        Some(self.expand(packed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, LogGenerator};

    fn stream(epochs_per_day: u16) -> (LogGenerator, Vec<EpochBatch>) {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 42);
        let batches: Vec<EpochBatch> = g.stream_month_chunked(epochs_per_day).collect();
        (g, batches)
    }

    #[test]
    fn epochs_concatenate_to_the_materialized_month() {
        let (_, batches) = stream(4);
        let mut materialized = LogGenerator::new(GeneratorConfig::test_scale(), 42);
        let log = materialized.generate_month();
        let streamed: Vec<LogEntry> = batches.into_iter().flat_map(|b| b.entries).collect();
        assert_eq!(streamed, log.entries().to_vec());
    }

    #[test]
    fn chunking_is_invariant_in_epochs_per_day() {
        let (_, coarse) = stream(1);
        let (_, fine) = stream(24);
        let a: Vec<LogEntry> = coarse.into_iter().flat_map(|b| b.entries).collect();
        let b: Vec<LogEntry> = fine.into_iter().flat_map(|b| b.entries).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn batches_cover_every_epoch_in_order() {
        // 7 does not divide the day's microseconds: epoch ends must still
        // agree with the bucketing.
        for epochs in [6u16, 7, 24] {
            let (g, batches) = stream(epochs);
            let per_day = usize::from(epochs);
            let days = g.config().days_per_month;
            assert_eq!(batches.len(), usize::from(days) * per_day);
            let mut start = 0;
            for (i, b) in batches.iter().enumerate() {
                assert_eq!(b.epoch as usize, i);
                assert_eq!(b.day, (i / per_day) as u16);
                assert_eq!(b.epoch_of_day, (i % per_day) as u16);
                let end = b.end_micros(epochs);
                assert!(end > start, "epochs must have positive length");
                for e in &b.entries {
                    let at = u64::from(e.time.day) * MICROS_PER_DAY + e.time.micros_of_day;
                    assert!(
                        (start..end).contains(&at),
                        "entry at {at} outside epoch {i} = [{start}, {end})"
                    );
                }
                assert!(b.entries.windows(2).all(
                    |w| (w[0].time, w[0].user, w[0].pair) <= (w[1].time, w[1].user, w[1].pair)
                ));
                start = end;
            }
            assert_eq!(start, u64::from(days) * MICROS_PER_DAY);
        }
    }

    #[test]
    fn epoch_ends_partition_an_unevenly_divided_day() {
        let batch = |epoch_of_day| EpochBatch {
            month: 0,
            day: 0,
            epoch_of_day,
            epoch: u32::from(epoch_of_day),
            entries: Vec::new(),
        };
        // An entry five µs before midnight buckets into the last epoch,
        // which must therefore end after it.
        let last = MICROS_PER_DAY - 5;
        assert_eq!(last * 7 / MICROS_PER_DAY, 6);
        assert_eq!(batch(6).end_micros(7), MICROS_PER_DAY);
        for k in 0..7u16 {
            let end = batch(k).end_micros(7);
            assert_eq!((end - 1) * 7 / MICROS_PER_DAY, u64::from(k));
            assert_eq!(end * 7 / MICROS_PER_DAY, u64::from(k) + 1);
        }
        for epochs in [1u16, 4, 6, 24] {
            let per = MICROS_PER_DAY / u64::from(epochs);
            for k in 0..epochs {
                assert_eq!(batch(k).end_micros(epochs), (u64::from(k) + 1) * per);
            }
        }
    }

    #[test]
    fn day_batches_are_invariant_in_the_worker_count() {
        let g = LogGenerator::new(GeneratorConfig::test_scale(), 42);
        let behavior = g.config().behavior;
        let config = StreamConfig {
            month: 1,
            epochs_per_day: 7,
        };
        let table =
            EventStream::with_profiles(g.universe(), g.profiles(), behavior, 42, 28, config);
        // 301 users divide by none of 2, 3 and 8; 5 users are fewer than 8
        // workers.
        let derived = EventStream::new(g.universe(), behavior, 42, 301, 28, config);
        let tiny = EventStream::new(g.universe(), behavior, 42, 5, 28, config);
        for stream in [&table, &derived, &tiny] {
            let mut events = 0;
            // Whole batches, expanded the way `next` hands them out.
            let batches = |day, workers| -> Vec<EpochBatch> {
                let epochs = stream.day_epochs(day, workers);
                epochs.into_iter().map(|p| stream.expand(p)).collect()
            };
            for day in [0u16, 13, 27] {
                let serial = batches(day, 1);
                events += serial.iter().map(|b| b.entries.len()).sum::<usize>();
                for workers in [2usize, 3, 8] {
                    assert!(
                        batches(day, workers) == serial,
                        "{} users, day {day}: {workers} workers differ from one",
                        stream.n_users()
                    );
                }
            }
            assert!(events > 0, "{} users drew no events", stream.n_users());
        }
    }

    #[test]
    fn a_day_event_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<DayEvent>(), 16);
    }

    #[test]
    fn packing_gives_back_every_entry_of_a_month() {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 42);
        let month = g.generate_month();
        let mut devices = [0usize; 2];
        for e in month.iter() {
            devices[usize::from(e.device == DeviceClass::Smartphone)] += 1;
            let packed = DayEvent::new(e.user, e.device, e.time.micros_of_day, e.pair);
            assert_eq!(packed.unpack(g.universe(), e.time.day), *e);
        }
        assert!(
            devices.iter().all(|&n| n > 0),
            "both device classes must be exercised: {devices:?}"
        );
    }

    #[test]
    fn equal_micros_sort_by_user_not_by_device_bit() {
        let g = LogGenerator::new(GeneratorConfig::test_scale(), 42);
        let at = 7_200_000_123;
        // User 1's smartphone bit makes its packed word the larger one.
        let smart = DayEvent::new(UserId::new(1), DeviceClass::Smartphone, at, PairId::new(9));
        let feature = DayEvent::new(
            UserId::new(2),
            DeviceClass::FeaturePhone,
            at,
            PairId::new(3),
        );
        let smart_low_pair =
            DayEvent::new(UserId::new(1), DeviceClass::Smartphone, at, PairId::new(4));
        assert!(feature.stamp < smart.stamp);
        let mut events = vec![feature, smart, smart_low_pair];
        DayEvent::sort_epoch(&mut events);
        let entries: Vec<LogEntry> = events.iter().map(|e| e.unpack(g.universe(), 3)).collect();
        let keys: Vec<(u32, u32)> = entries
            .iter()
            .map(|e| (e.user.index(), e.pair.index()))
            .collect();
        assert_eq!(keys, [(1, 4), (1, 9), (2, 3)]);
        assert_eq!(entries[0].device, DeviceClass::Smartphone);
        assert_eq!(entries[2].device, DeviceClass::FeaturePhone);
        assert!(entries
            .windows(2)
            .all(|w| (w[0].time, w[0].user, w[0].pair) < (w[1].time, w[1].user, w[1].pair)));
    }

    #[test]
    fn derived_profiles_match_the_generator_table() {
        let g = LogGenerator::new(GeneratorConfig::test_scale(), 7);
        for u in [0usize, 3, 99, 299] {
            let user = UserId::new(u as u32);
            let derived = derive_profile(g.universe(), &g.config().behavior, 7, user);
            let table = &g.profiles()[u];
            assert_eq!(derived.monthly_volume, table.monthly_volume);
            assert_eq!(derived.repertoire, table.repertoire);
            assert_eq!(derived.device, table.device);
        }
    }

    #[test]
    fn user_streams_rederive_identically_and_match_the_population() {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 11);
        let user = UserId::new(5);
        let derive = || {
            let mut entries = Vec::new();
            append_user_month(
                g.universe(),
                &g.config().behavior,
                11,
                0,
                28,
                user,
                &mut entries,
            );
            entries
        };
        let (a, b) = (derive(), derive());
        assert_eq!(a, b, "independent re-derivations must be identical");
        let month = g.generate_month();
        let mut from_month: Vec<LogEntry> =
            month.iter().filter(|e| e.user == user).copied().collect();
        from_month.sort_by_key(|e| e.time);
        let mut sorted = a;
        sorted.sort_by_key(|e| e.time);
        assert_eq!(sorted, from_month);
    }

    #[test]
    fn day_partition_is_exact() {
        for volume in [0u32, 1, 19, 20, 28, 29, 250, 999] {
            for days in [1u16, 7, 28, 30] {
                let total: u32 = (0..days).map(|d| events_on_day(volume, days, d)).sum();
                assert_eq!(total, volume, "volume {volume} days {days}");
            }
        }
        assert_eq!(events_on_day(100, 28, 28), 0, "out-of-month day is empty");
    }

    #[test]
    fn times_stay_inside_the_day_and_lean_diurnal() {
        let (_, batches) = stream(24);
        let mut by_hour = [0u64; 24];
        for b in &batches {
            for e in &b.entries {
                assert!(e.time.micros_of_day < MICROS_PER_DAY);
                by_hour[(e.time.micros_of_day / 3_600_000_000) as usize] += 1;
            }
        }
        let night: u64 = by_hour[0..5].iter().sum();
        let evening: u64 = by_hour[17..22].iter().sum();
        assert!(
            evening > 4 * night.max(1),
            "evening {evening} vs night {night}: diurnal shape missing"
        );
    }

    #[test]
    fn peak_resident_entries_is_one_day_not_the_month() {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 42);
        let mut s = g.stream_month();
        let mut total = 0usize;
        let mut peak_batch = 0usize;
        for b in &mut s {
            total += b.entries.len();
            peak_batch = peak_batch.max(b.entries.len());
        }
        let peak = s.peak_day_entries();
        assert!(peak >= peak_batch);
        assert!(
            peak * 4 < total,
            "peak resident {peak} should be far below the month's {total}"
        );
    }

    #[test]
    fn seeds_are_well_separated() {
        let s1 = day_seed(9, 0, UserId::new(1), 0);
        let s2 = day_seed(9, 0, UserId::new(1), 1);
        let s3 = day_seed(9, 0, UserId::new(2), 0);
        let s4 = day_seed(9, 1, UserId::new(1), 0);
        let all = [s1, s2, s3, s4];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(
            profile_seed(9, UserId::new(0)),
            profile_seed(9, UserId::new(1))
        );
        assert_ne!(
            profile_seed(9, UserId::new(0)),
            profile_seed(10, UserId::new(0))
        );
    }
}
