//! Summary statistics over a log window.
//!
//! Collects in one pass the headline numbers the paper quotes outside of
//! its figures: the unique-result fraction that motivates the store-once
//! database layout (§5.2.1: "only 60% of the search results in
//! PocketSearch are unique"), the Table 6 user-class histogram, and the
//! per-user distinct-URL counts behind §2's "more than 90% of mobile users
//! visit fewer than 1000 URLs".

use std::collections::{BTreeMap, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::ids::UserId;
use crate::log::SearchLog;
use crate::users::UserClass;

/// One-pass summary of a search log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LogStats {
    /// Total log entries.
    pub entries: usize,
    /// Distinct users.
    pub users: usize,
    /// Distinct query strings.
    pub unique_queries: usize,
    /// Distinct clicked results.
    pub unique_results: usize,
    /// Distinct `(query, result)` pairs.
    pub unique_pairs: usize,
    /// Users per Table 6 class (users under the 20-query floor excluded).
    pub class_histogram: BTreeMap<UserClass, usize>,
    /// Users below the 20-query eligibility floor.
    pub below_floor_users: usize,
    /// Per-user count of distinct URLs clicked.
    pub urls_per_user: BTreeMap<UserId, usize>,
}

impl LogStats {
    /// Computes statistics over `log`.
    pub fn compute(log: &SearchLog) -> Self {
        let mut queries = HashSet::new();
        let mut results = HashSet::new();
        let mut pairs = HashSet::new();
        let mut volumes: HashMap<UserId, u32> = HashMap::new();
        let mut urls: HashMap<UserId, HashSet<_>> = HashMap::new();
        for e in log.iter() {
            queries.insert(e.query);
            results.insert(e.result);
            pairs.insert((e.query, e.result));
            *volumes.entry(e.user).or_insert(0) += 1;
            urls.entry(e.user).or_default().insert(e.result);
        }
        let mut class_histogram = BTreeMap::new();
        let mut below_floor_users = 0;
        for &v in volumes.values() {
            match UserClass::classify(v) {
                Some(c) => *class_histogram.entry(c).or_insert(0) += 1,
                None => below_floor_users += 1,
            }
        }
        LogStats {
            entries: log.len(),
            users: volumes.len(),
            unique_queries: queries.len(),
            unique_results: results.len(),
            unique_pairs: pairs.len(),
            class_histogram,
            below_floor_users,
            urls_per_user: urls.into_iter().map(|(u, s)| (u, s.len())).collect(),
        }
    }

    /// Ratio of distinct results to distinct queries: the §5.2.1 sharing
    /// statistic (≈0.6–0.7 in the paper: many queries funnel into fewer
    /// results).
    pub fn unique_result_fraction(&self) -> f64 {
        if self.unique_queries == 0 {
            return 0.0;
        }
        self.unique_results as f64 / self.unique_queries as f64
    }

    /// Fraction of eligible users in a class.
    pub fn class_share(&self, class: UserClass) -> f64 {
        let eligible: usize = self.class_histogram.values().sum();
        if eligible == 0 {
            return 0.0;
        }
        *self.class_histogram.get(&class).unwrap_or(&0) as f64 / eligible as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, LogGenerator};

    fn stats() -> LogStats {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 77);
        LogStats::compute(&g.generate_month())
    }

    #[test]
    fn counts_are_internally_consistent() {
        let s = stats();
        assert!(s.entries > 0);
        assert!(s.unique_pairs >= s.unique_queries.max(s.unique_results));
        assert!(s.unique_pairs <= s.entries);
        let classed: usize = s.class_histogram.values().sum();
        assert_eq!(classed + s.below_floor_users, s.users);
    }

    #[test]
    fn many_queries_share_results() {
        // §5.2.1: distinctly fewer results than queries.
        let s = stats();
        let frac = s.unique_result_fraction();
        assert!(
            (0.4..0.95).contains(&frac),
            "unique result fraction was {frac}"
        );
        assert!(s.unique_results < s.unique_queries);
    }

    #[test]
    fn class_histogram_tracks_table6() {
        let s = stats();
        assert!((s.class_share(UserClass::Low) - 0.55).abs() < 0.10);
        assert!((s.class_share(UserClass::Medium) - 0.36).abs() < 0.10);
        let shares_total: f64 = UserClass::ALL.iter().map(|&c| s.class_share(c)).sum();
        assert!((shares_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn users_visit_few_distinct_urls() {
        // §2's scaled analogue: the vast majority of users click far fewer
        // distinct URLs than a cloudlet can store.
        let s = stats();
        let below = s.urls_per_user.values().filter(|&&c| c < 1_000).count();
        assert!(below as f64 > 0.9 * s.urls_per_user.len() as f64);
    }

    #[test]
    fn empty_log_is_all_zero() {
        let s = LogStats::compute(&SearchLog::default());
        assert_eq!(s.entries, 0);
        assert_eq!(s.unique_result_fraction(), 0.0);
        assert_eq!(s.class_share(UserClass::Low), 0.0);
        assert!(s.urls_per_user.is_empty());
    }
}
