//! `(query, search result, volume)` triplet extraction (§5.1, Table 3).
//!
//! The PocketSearch cache is built from the search logs by extracting every
//! distinct `(query, clicked result)` pair with the number of times it was
//! observed, sorted by descending volume. This module reproduces Table 3
//! and the ranking-score normalization the paper derives from it: each
//! pair's score is its volume divided by the total volume of all results
//! clicked for that query.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::ids::{QueryId, ResultId};
use crate::log::SearchLog;

/// One row of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Triplet {
    /// The submitted query.
    pub query: QueryId,
    /// The clicked search result.
    pub result: ResultId,
    /// How many log entries clicked `result` after submitting `query`.
    pub volume: u64,
}

/// A volume-sorted table of triplets extracted from a log window.
///
/// # Example
///
/// ```
/// use querylog::generator::{GeneratorConfig, LogGenerator};
/// use querylog::triplets::TripletTable;
///
/// let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 4);
/// let log = generator.generate_month();
/// let table = TripletTable::from_log(&log);
/// assert_eq!(table.total_volume() as usize, log.len());
/// // Rows are sorted by descending volume, like Table 3.
/// let volumes: Vec<u64> = table.iter().map(|t| t.volume).collect();
/// assert!(volumes.windows(2).all(|w| w[0] >= w[1]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TripletTable {
    triplets: Vec<Triplet>,
    total_volume: u64,
}

impl TripletTable {
    /// Extracts and sorts triplets from a log.
    pub fn from_log(log: &SearchLog) -> Self {
        let mut counts: HashMap<(QueryId, ResultId), u64> = HashMap::new();
        for e in log.iter() {
            *counts.entry((e.query, e.result)).or_insert(0) += 1;
        }
        let mut triplets: Vec<Triplet> = counts
            .into_iter()
            .map(|((query, result), volume)| Triplet {
                query,
                result,
                volume,
            })
            .collect();
        // Volume-descending, with a stable total order for determinism.
        triplets.sort_by(|a, b| {
            b.volume
                .cmp(&a.volume)
                .then(a.query.cmp(&b.query))
                .then(a.result.cmp(&b.result))
        });
        let total_volume = triplets.iter().map(|t| t.volume).sum();
        TripletTable {
            triplets,
            total_volume,
        }
    }

    /// Number of distinct pairs.
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Total click volume across all pairs.
    pub fn total_volume(&self) -> u64 {
        self.total_volume
    }

    /// Rows in descending-volume order.
    pub fn iter(&self) -> std::slice::Iter<'_, Triplet> {
        self.triplets.iter()
    }

    /// All rows as a slice.
    pub fn as_slice(&self) -> &[Triplet] {
        &self.triplets
    }

    /// A row's volume normalized by the table's total volume (§5.1's
    /// *normalized volume*, the cache-saturation admission metric).
    pub fn normalized_volume(&self, index: usize) -> f64 {
        if self.total_volume == 0 {
            return 0.0;
        }
        self.triplets[index].volume as f64 / self.total_volume as f64
    }

    /// Fraction of total volume carried by the top `k` rows (Figure 7's
    /// cumulative query–search-result volume).
    pub fn cumulative_share(&self, k: usize) -> f64 {
        if self.total_volume == 0 {
            return 0.0;
        }
        let sum: u64 = self.triplets.iter().take(k).map(|t| t.volume).sum();
        sum as f64 / self.total_volume as f64
    }

    /// The smallest prefix of rows whose cumulative share reaches `share`.
    /// Returns the full table when `share` exceeds 1.
    pub fn prefix_for_share(&self, share: f64) -> &[Triplet] {
        if self.total_volume == 0 {
            return &self.triplets;
        }
        let target = share * self.total_volume as f64;
        let mut acc = 0.0;
        for (i, t) in self.triplets.iter().enumerate() {
            acc += t.volume as f64;
            if acc >= target {
                return &self.triplets[..=i];
            }
        }
        &self.triplets
    }
}

impl<'a> IntoIterator for &'a TripletTable {
    type Item = &'a Triplet;
    type IntoIter = std::slice::Iter<'a, Triplet>;

    fn into_iter(self) -> Self::IntoIter {
        self.triplets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PairId, UserId};
    use crate::log::{DeviceClass, LogEntry, Timestamp};
    use crate::universe::QueryKind;

    fn entry(query: u32, result: u32) -> LogEntry {
        LogEntry {
            user: UserId::new(0),
            time: Timestamp::new(0, 0),
            pair: PairId::new(0),
            query: QueryId::new(query),
            result: ResultId::new(result),
            kind: QueryKind::NonNavigational,
            device: DeviceClass::Smartphone,
        }
    }

    fn table_from(counts: &[((u32, u32), usize)]) -> TripletTable {
        let mut entries = Vec::new();
        for &((q, r), n) in counts {
            for _ in 0..n {
                entries.push(entry(q, r));
            }
        }
        TripletTable::from_log(&SearchLog::new(entries, 28))
    }

    #[test]
    fn extraction_counts_and_sorts() {
        // Table 3's shape: "michael jackson" → imdb (most), movies →
        // fandango, "michael jackson" → azlyrics...
        let t = table_from(&[((0, 0), 10), ((1, 1), 9), ((0, 2), 8), ((2, 3), 2)]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_volume(), 29);
        let volumes: Vec<u64> = t.iter().map(|x| x.volume).collect();
        assert_eq!(volumes, vec![10, 9, 8, 2]);
    }

    #[test]
    fn normalized_volume_matches_the_papers_arithmetic() {
        // Paper §5.1: a 10^6-volume pair in a 5*10^6 table normalizes to 0.2.
        let t = table_from(&[((0, 0), 10), ((1, 1), 40)]);
        assert!((t.normalized_volume(1) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn cumulative_share_and_prefix_agree() {
        let t = table_from(&[((0, 0), 50), ((1, 1), 30), ((2, 2), 20)]);
        assert!((t.cumulative_share(1) - 0.5).abs() < 1e-12);
        assert!((t.cumulative_share(2) - 0.8).abs() < 1e-12);
        assert_eq!(t.prefix_for_share(0.5).len(), 1);
        assert_eq!(t.prefix_for_share(0.51).len(), 2);
        assert_eq!(t.prefix_for_share(2.0).len(), 3);
    }

    #[test]
    fn empty_log_gives_empty_table() {
        let t = TripletTable::from_log(&SearchLog::default());
        assert!(t.is_empty());
        assert_eq!(t.total_volume(), 0);
        assert_eq!(t.cumulative_share(10), 0.0);
        assert!(t.prefix_for_share(0.5).is_empty());
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let t1 = table_from(&[((0, 0), 5), ((1, 1), 5), ((2, 2), 5)]);
        let t2 = table_from(&[((2, 2), 5), ((0, 0), 5), ((1, 1), 5)]);
        let order1: Vec<QueryId> = t1.iter().map(|t| t.query).collect();
        let order2: Vec<QueryId> = t2.iter().map(|t| t.query).collect();
        assert_eq!(order1, order2);
    }
}
