//! Cache content generation (§5.1).
//!
//! The community cache is built by walking the volume-sorted triplet table
//! (Table 3) from the top and admitting `(query, result)` pairs until an
//! [`AdmissionPolicy`] says stop: either a memory budget is exhausted, or
//! the *cache saturation threshold* is reached — the point where a pair's
//! normalized volume drops below `V_th` and additional pairs stop paying
//! for themselves (Figure 7). Each admitted pair carries a ranking score:
//! its volume normalized across all results clicked for the same query.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use mobsim::Mix64Hasher;
use querylog::ids::{QueryId, ResultId};
use querylog::triplets::TripletTable;
use serde::{Deserialize, Serialize};

use crate::corpus::UniverseCorpus;
use crate::hashtable::QueryHashTable;

/// A map keyed by log-pipeline ids, which the generator assigns itself:
/// [`Mix64Hasher`] in place of SipHash.
type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<Mix64Hasher>>;

/// When to stop admitting pairs from the top of the triplet table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Stop when the hash table's DRAM footprint would exceed the budget.
    DramThreshold {
        /// DRAM budget in bytes.
        bytes: usize,
    },
    /// Stop when the flash database would exceed the budget.
    FlashThreshold {
        /// Flash budget in bytes.
        bytes: usize,
    },
    /// Stop at the first pair whose normalized volume falls below `v_th`
    /// (§5.1's cache saturation threshold).
    Saturation {
        /// Normalized-volume floor.
        v_th: f64,
    },
    /// Stop once the admitted pairs carry this share of total volume —
    /// the evaluation's "55% of cumulative query–search-result volume".
    CumulativeShare {
        /// Target share in `[0, 1]`.
        share: f64,
    },
}

/// One admitted cache pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CachePair {
    /// The query in log-pipeline identifier space.
    pub query: QueryId,
    /// The clicked result.
    pub result: ResultId,
    /// Stable hash of the query string (hash-table key).
    pub query_hash: u64,
    /// Stable hash of the result URL (database key).
    pub result_hash: u64,
    /// Ranking score: volume normalized within the query.
    pub score: f32,
    /// Raw click volume behind the pair.
    pub volume: u64,
}

/// The generated community cache contents plus its cost accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheContents {
    pairs: Vec<CachePair>,
    distinct_results: usize,
    dram_bytes: usize,
    flash_bytes: usize,
    covered_share: f64,
}

impl CacheContents {
    /// Generates contents from a triplet table under an admission policy.
    ///
    /// Ranking scores are normalized against the *full* table's per-query
    /// volumes, exactly as the paper computes them before deciding what to
    /// cache.
    pub fn generate(
        table: &TripletTable,
        corpus: &UniverseCorpus<'_>,
        policy: AdmissionPolicy,
    ) -> Self {
        let mut per_query_volume: IdMap<QueryId, u64> = IdMap::default();
        for t in table.iter() {
            *per_query_volume.entry(t.query).or_insert(0) += t.volume;
        }

        let total_volume = table.total_volume();
        let mut pairs = Vec::new();
        let mut results_per_query: IdMap<QueryId, usize> = IdMap::default();
        let mut seen_results: IdMap<ResultId, ()> = IdMap::default();
        let mut entries = 0usize;
        let mut flash_bytes = 0usize;
        let mut acc_volume = 0u64;

        for (i, t) in table.iter().enumerate() {
            // Cost of admitting this pair.
            let slot_count = results_per_query.get(&t.query).copied().unwrap_or(0);
            let new_entry = slot_count % crate::hashtable::SLOTS_PER_ENTRY == 0;
            let next_entries = entries + usize::from(new_entry);
            let new_result = !seen_results.contains_key(&t.result);
            let next_flash = flash_bytes
                + if new_result {
                    corpus.record_size(t.result) + DB_INDEX_ENTRY_BYTES
                } else {
                    0
                };
            let next_dram =
                next_entries * QueryHashTable::layout_bytes(crate::hashtable::SLOTS_PER_ENTRY);

            let admit = match policy {
                AdmissionPolicy::DramThreshold { bytes } => next_dram <= bytes,
                AdmissionPolicy::FlashThreshold { bytes } => next_flash <= bytes,
                AdmissionPolicy::Saturation { v_th } => table.normalized_volume(i) >= v_th,
                AdmissionPolicy::CumulativeShare { share } => {
                    (acc_volume as f64) < share * total_volume as f64
                }
            };
            if !admit {
                break;
            }

            entries = next_entries;
            flash_bytes = next_flash;
            *results_per_query.entry(t.query).or_insert(0) += 1;
            seen_results.insert(t.result, ());
            acc_volume += t.volume;

            let score = t.volume as f64 / per_query_volume[&t.query] as f64;
            pairs.push(CachePair {
                query: t.query,
                result: t.result,
                query_hash: corpus.query_hash(t.query),
                result_hash: corpus.result_hash(t.result),
                score: score as f32,
                volume: t.volume,
            });
        }

        CacheContents {
            pairs,
            distinct_results: seen_results.len(),
            dram_bytes: entries * QueryHashTable::layout_bytes(crate::hashtable::SLOTS_PER_ENTRY),
            flash_bytes,
            covered_share: if total_volume == 0 {
                0.0
            } else {
                acc_volume as f64 / total_volume as f64
            },
        }
    }

    /// The admitted pairs, in descending-volume order.
    pub fn pairs(&self) -> &[CachePair] {
        &self.pairs
    }

    /// Number of admitted pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing was admitted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of distinct search results (each stored once, §5.2.1).
    pub fn distinct_results(&self) -> usize {
        self.distinct_results
    }

    /// Estimated hash-table DRAM footprint.
    pub fn dram_bytes(&self) -> usize {
        self.dram_bytes
    }

    /// Estimated flash footprint of the results database (records plus
    /// per-record index entries, before block rounding).
    pub fn flash_bytes(&self) -> usize {
        self.flash_bytes
    }

    // api-ok: tests/property_system.rs::contentgen_is_monotone_in_share
    // holds admission to a monotone coverage.
    /// Share of total log volume the admitted pairs cover.
    pub fn covered_share(&self) -> f64 {
        self.covered_share
    }
}

/// Bytes each record costs in a database file header: `(hash, offset)`.
pub const DB_INDEX_ENTRY_BYTES: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use querylog::generator::{GeneratorConfig, LogGenerator};
    use querylog::universe::Universe;

    fn setup() -> (Universe, TripletTable) {
        let mut g = LogGenerator::new(GeneratorConfig::test_scale(), 33);
        let log = g.generate_month();
        let table = TripletTable::from_log(&log);
        (g.universe().clone(), table)
    }

    #[test]
    fn cumulative_share_policy_covers_what_it_promises() {
        let (u, table) = setup();
        let corpus = UniverseCorpus::new(&u);
        let c = CacheContents::generate(
            &table,
            &corpus,
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        assert!(!c.is_empty());
        assert!(
            (0.54..0.58).contains(&c.covered_share()),
            "covered {}",
            c.covered_share()
        );
        // Admitted pairs are a prefix of the sorted table.
        let volumes: Vec<u64> = c.pairs().iter().map(|p| p.volume).collect();
        assert!(volumes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn saturation_policy_stops_at_the_volume_floor() {
        let (u, table) = setup();
        let corpus = UniverseCorpus::new(&u);
        let v_th = 2.0 / table.total_volume() as f64;
        let c = CacheContents::generate(&table, &corpus, AdmissionPolicy::Saturation { v_th });
        assert!(!c.is_empty());
        // Every admitted pair clears the floor; the next table row does not.
        assert!(c.pairs().iter().all(|p| p.volume >= 2));
        if c.len() < table.len() {
            assert!(table.as_slice()[c.len()].volume < 2);
        }
    }

    #[test]
    fn dram_threshold_is_respected_and_tight() {
        let (u, table) = setup();
        let corpus = UniverseCorpus::new(&u);
        let budget = 4_000;
        let c = CacheContents::generate(
            &table,
            &corpus,
            AdmissionPolicy::DramThreshold { bytes: budget },
        );
        assert!(c.dram_bytes() <= budget);
        // Tight: admitting one more pair would cross the budget only if it
        // needed a fresh entry, so the footprint is within one entry of it.
        assert!(c.dram_bytes() + 2 * QueryHashTable::layout_bytes(2) > budget);
    }

    #[test]
    fn flash_threshold_is_respected() {
        let (u, table) = setup();
        let corpus = UniverseCorpus::new(&u);
        let budget = 100_000;
        let c = CacheContents::generate(
            &table,
            &corpus,
            AdmissionPolicy::FlashThreshold { bytes: budget },
        );
        assert!(c.flash_bytes() <= budget);
        assert!(c.flash_bytes() > budget / 2, "budget left mostly unused");
    }

    #[test]
    fn scores_normalize_within_query_using_full_table() {
        let (u, table) = setup();
        let corpus = UniverseCorpus::new(&u);
        let c = CacheContents::generate(
            &table,
            &corpus,
            AdmissionPolicy::CumulativeShare { share: 0.6 },
        );
        // Group scores by query; each group must not exceed 1 in sum (it
        // can be below 1 when some of the query's results were not admitted).
        let mut sums: HashMap<QueryId, f32> = HashMap::new();
        for p in c.pairs() {
            *sums.entry(p.query).or_insert(0.0) += p.score;
        }
        for (q, s) in sums {
            assert!(s <= 1.0 + 1e-4, "query {q} scores sum to {s}");
        }
    }

    #[test]
    fn store_once_keeps_distinct_results_below_pairs() {
        // §5.2.1: only ~60% of cached results are unique; storing each once
        // is what saves the ~8x flash the paper quotes.
        let (u, table) = setup();
        let corpus = UniverseCorpus::new(&u);
        let c = CacheContents::generate(
            &table,
            &corpus,
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        assert!(c.distinct_results() < c.len());
        let avg_record = c.flash_bytes() as f64 / c.distinct_results() as f64;
        assert!(
            (400.0..700.0).contains(&avg_record),
            "avg record cost {avg_record}"
        );
    }

    #[test]
    fn diminishing_returns_beyond_saturation() {
        // Figure 7: pushing the share from ~55% to ~62% costs about twice
        // the pairs. Check the growth is super-linear.
        let (u, table) = setup();
        let corpus = UniverseCorpus::new(&u);
        let at = |share: f64| {
            CacheContents::generate(&table, &corpus, AdmissionPolicy::CumulativeShare { share })
                .len() as f64
        };
        let p55 = at(0.55);
        let p65 = at(0.65);
        let p75 = at(0.75);
        assert!(p65 / p55 > 1.3, "55->65 grew only {:.2}x", p65 / p55);
        assert!(
            p75 - p65 > p65 - p55,
            "marginal cost must increase: {p55} {p65} {p75}"
        );
    }

    #[test]
    fn empty_table_generates_empty_contents() {
        let (u, _) = setup();
        let corpus = UniverseCorpus::new(&u);
        let empty = TripletTable::default();
        let c = CacheContents::generate(
            &empty,
            &corpus,
            AdmissionPolicy::CumulativeShare { share: 0.5 },
        );
        assert!(c.is_empty());
        assert_eq!(c.dram_bytes(), 0);
        assert_eq!(c.covered_share(), 0.0);
    }
}
