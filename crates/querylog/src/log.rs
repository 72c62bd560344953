//! Search-log entries and the log container.
//!
//! Every entry mirrors what the paper says an m.bing.com log line holds:
//! "the raw query string that was submitted by the mobile user as well as
//! the search result that was selected" — no personal information beyond an
//! opaque user identifier. Entries also carry the device class
//! (featurephone vs smartphone), which Figure 4 breaks down.

use serde::{Deserialize, Serialize};

use crate::ids::{PairId, QueryId, ResultId, UserId};
use crate::universe::QueryKind;

/// Device class of the submitting handset (Figure 4's breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Low-end device with a limited browser; access patterns are more
    /// concentrated.
    FeaturePhone,
    /// Full-browser smartphone.
    Smartphone,
}

impl DeviceClass {
    /// Both classes.
    pub const ALL: [DeviceClass; 2] = [DeviceClass::FeaturePhone, DeviceClass::Smartphone];
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceClass::FeaturePhone => write!(f, "featurephone"),
            DeviceClass::Smartphone => write!(f, "smartphone"),
        }
    }
}

/// When a query was submitted, as a day index plus microseconds into the day.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp {
    /// Day since the start of the log window (0-based).
    pub day: u16,
    /// Microseconds into the day.
    pub micros_of_day: u64,
}

impl Timestamp {
    /// Creates a timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `micros_of_day` exceeds one day.
    pub fn new(day: u16, micros_of_day: u64) -> Self {
        assert!(
            micros_of_day < 86_400_000_000,
            "micros_of_day {micros_of_day} exceeds one day"
        );
        Timestamp { day, micros_of_day }
    }

    /// The ISO week index (0-based) this day falls into, with 7-day weeks.
    pub fn week(self) -> u16 {
        self.day / 7
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "day {} +{:.1}s",
            self.day,
            self.micros_of_day as f64 / 1e6
        )
    }
}

/// One logged search interaction: a submitted query and the clicked result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// The (anonymized) user.
    pub user: UserId,
    /// When the query was submitted.
    pub time: Timestamp,
    /// The `(query, result)` pair in the generating universe.
    pub pair: PairId,
    /// The submitted query string.
    pub query: QueryId,
    /// The search result the user clicked.
    pub result: ResultId,
    /// Navigational classification of the query.
    pub kind: QueryKind,
    /// Device class the query came from.
    pub device: DeviceClass,
}

/// An ordered collection of log entries covering a fixed day window.
///
/// # Example
///
/// ```
/// use querylog::generator::{GeneratorConfig, LogGenerator};
///
/// let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 1);
/// let log = generator.generate_month();
/// let first_week = log.filter(|e| e.time.day < 7);
/// assert!(first_week.len() < log.len());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchLog {
    entries: Vec<LogEntry>,
    days: u16,
}

impl SearchLog {
    /// Creates a log from entries, sorting them chronologically.
    pub fn new(mut entries: Vec<LogEntry>, days: u16) -> Self {
        entries.sort_by_key(|e| (e.time, e.user, e.pair));
        SearchLog { entries, days }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The day window this log covers.
    pub fn days(&self) -> u16 {
        self.days
    }

    /// All entries, chronologically.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Iterates over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, LogEntry> {
        self.entries.iter()
    }

    /// Entries of one user, chronologically (their *query stream*, §6.2).
    pub fn user_stream(&self, user: UserId) -> Vec<LogEntry> {
        self.entries
            .iter()
            .filter(|e| e.user == user)
            .copied()
            .collect()
    }

    /// The distinct users appearing in the log, ascending.
    pub fn users(&self) -> Vec<UserId> {
        let mut ids: Vec<UserId> = self.entries.iter().map(|e| e.user).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// A sub-log keeping only entries that satisfy `keep`.
    pub fn filter(&self, keep: impl Fn(&LogEntry) -> bool) -> SearchLog {
        SearchLog {
            entries: self.entries.iter().filter(|e| keep(e)).copied().collect(),
            days: self.days,
        }
    }
}

impl<'a> IntoIterator for &'a SearchLog {
    type Item = &'a LogEntry;
    type IntoIter = std::slice::Iter<'a, LogEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl FromIterator<LogEntry> for SearchLog {
    fn from_iter<I: IntoIterator<Item = LogEntry>>(iter: I) -> Self {
        let entries: Vec<LogEntry> = iter.into_iter().collect();
        let days = entries.iter().map(|e| e.time.day + 1).max().unwrap_or(0);
        SearchLog::new(entries, days)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(user: u32, day: u16, micros: u64, pair: u32) -> LogEntry {
        LogEntry {
            user: UserId::new(user),
            time: Timestamp::new(day, micros),
            pair: PairId::new(pair),
            query: QueryId::new(pair),
            result: ResultId::new(pair),
            kind: QueryKind::Navigational,
            device: DeviceClass::Smartphone,
        }
    }

    #[test]
    fn new_sorts_chronologically() {
        let log = SearchLog::new(
            vec![entry(1, 2, 0, 0), entry(0, 0, 5, 1), entry(0, 0, 1, 2)],
            28,
        );
        let days: Vec<u16> = log.iter().map(|e| e.time.day).collect();
        assert_eq!(days, vec![0, 0, 2]);
        assert_eq!(log.entries()[0].pair, PairId::new(2));
    }

    #[test]
    fn user_stream_filters_and_preserves_order() {
        let log = SearchLog::new(
            vec![entry(0, 0, 2, 0), entry(1, 0, 1, 1), entry(0, 1, 0, 2)],
            28,
        );
        let stream = log.user_stream(UserId::new(0));
        assert_eq!(stream.len(), 2);
        assert!(stream[0].time < stream[1].time);
    }

    #[test]
    fn volumes_and_users() {
        let log = SearchLog::new(
            vec![entry(3, 0, 0, 0), entry(3, 1, 0, 1), entry(5, 0, 0, 2)],
            28,
        );
        assert_eq!(log.users(), vec![UserId::new(3), UserId::new(5)]);
        assert_eq!(log.iter().filter(|e| e.user == UserId::new(3)).count(), 2);
    }

    #[test]
    fn week_index() {
        assert_eq!(Timestamp::new(0, 0).week(), 0);
        assert_eq!(Timestamp::new(6, 0).week(), 0);
        assert_eq!(Timestamp::new(7, 0).week(), 1);
        assert_eq!(Timestamp::new(27, 0).week(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds one day")]
    fn timestamp_rejects_over_long_days() {
        let _ = Timestamp::new(0, 86_400_000_000);
    }

    #[test]
    fn from_iterator_infers_day_window() {
        let log: SearchLog = vec![entry(0, 3, 0, 0), entry(0, 9, 0, 1)]
            .into_iter()
            .collect();
        assert_eq!(log.days(), 10);
    }

    #[test]
    fn filter_keeps_matching_entries() {
        let log = SearchLog::new(vec![entry(0, 0, 0, 0), entry(1, 0, 1, 1)], 28);
        let only_user1 = log.filter(|e| e.user == UserId::new(1));
        assert_eq!(only_user1.len(), 1);
    }
}
