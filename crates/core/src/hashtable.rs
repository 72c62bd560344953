//! The DRAM query hash table (§5.2.1, Figure 10).
//!
//! Every entry links one query to **two** search results — the layout the
//! paper found to minimize memory footprint (Figure 11) — and carries a
//! 64-bit flags word recording which pairs the user has personally
//! accessed. Queries with more than two results get additional entries,
//! created "by properly setting the second argument of the hash function";
//! here that second argument is an explicit salt that grows along the
//! entry chain.
//!
//! The table is the unit exchanged with the update server (§5.4): entries
//! serialize to [`EntryRecord`]s, and never-accessed community entries can
//! be pruned by inspecting flags alone.

pub mod frozen;

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// Results stored per hash-table entry (the paper's choice).
pub const SLOTS_PER_ENTRY: usize = 2;

/// Bytes per stored result slot: a 64-bit result hash plus a 32-bit score.
const SLOT_BYTES: usize = 12;
/// Bytes of fixed entry overhead: the query hash plus the flags word.
const ENTRY_OVERHEAD_BYTES: usize = 16;

/// One scored result as returned by a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoredResult {
    /// Stable hash of the result's URL.
    pub result_hash: u64,
    /// Current ranking score.
    pub score: f32,
    /// Whether this user has ever clicked this pair.
    pub accessed: bool,
}

impl ScoredResult {
    /// The one ranking order every lookup returns: best score first,
    /// ties broken by ascending result hash.
    pub fn rank_order(a: &Self, b: &Self) -> std::cmp::Ordering {
        b.score
            .total_cmp(&a.score)
            .then(a.result_hash.cmp(&b.result_hash))
    }
}

/// The best result of a lookup and the runner-up, when there is one:
/// what a hit that displays two results needs.
pub type TopTwo = (ScoredResult, Option<ScoredResult>);

/// Folds `r` into `top`, the best two results seen so far in
/// [`ScoredResult::rank_order`] — the one top-two rule behind
/// [`QueryHashTable::top_two`] and [`frozen::FrozenTable::top_two`].
fn keep_top_two(top: &mut Option<TopTwo>, r: ScoredResult) {
    let ahead = |other: &ScoredResult| ScoredResult::rank_order(&r, other).is_lt();
    *top = Some(match *top {
        None => (r, None),
        Some((best, _)) if ahead(&best) => (r, Some(best)),
        Some((best, second)) if second.as_ref().is_none_or(ahead) => (best, Some(r)),
        Some(kept) => kept,
    });
}

/// How [`QueryHashTable::upsert`] reconciles an existing pair's score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConflictPolicy {
    /// Overwrite the stored score.
    Replace,
    /// Keep the larger of the stored and offered scores — the paper's rule
    /// for conflicts between device and server state (§5.4).
    Max,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Slot {
    result_hash: u64,
    score: f32,
}

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct Entry {
    slots: [Option<Slot>; SLOTS_PER_ENTRY],
    flags: u64,
}

impl Entry {
    fn accessed(&self, slot: usize) -> bool {
        self.flags & (1 << slot) != 0
    }

    fn set_accessed(&mut self, slot: usize) {
        self.flags |= 1 << slot;
    }

    fn live_slots(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// A serialized hash-table entry, as uploaded to the update server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntryRecord {
    /// Stable hash of the query string.
    pub query_hash: u64,
    /// Chain salt (0 for the first entry of a query).
    pub salt: u32,
    /// Up to two `(result_hash, score, accessed)` triples.
    pub slots: Vec<(u64, f32, bool)>,
}

/// The query → results hash table.
///
/// # Example
///
/// ```
/// use cloudlet_core::hashtable::{ConflictPolicy, QueryHashTable};
///
/// let mut table = QueryHashTable::new();
/// table.upsert(1, 10, 0.53, ConflictPolicy::Max);
/// table.upsert(1, 11, 0.47, ConflictPolicy::Max);
/// let results = table.lookup(1).expect("query is cached");
/// assert_eq!(results.len(), 2);
/// assert!(results[0].score >= results[1].score);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryHashTable {
    entries: HashMap<(u64, u32), Entry>,
}

impl QueryHashTable {
    /// An empty table.
    pub fn new() -> Self {
        QueryHashTable::default()
    }

    // api-ok: tests/hotpath_equivalence.rs and tests/fleet_property.rs
    // check the frozen image keeps exactly this §5.2 entry count.
    /// Number of physical entries (each covering up to two results).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of `(query, result)` pairs stored.
    pub fn pair_count(&self) -> usize {
        self.entries.values().map(Entry::live_slots).sum()
    }

    /// Whether the table holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// DRAM footprint of the table under the paper's fixed entry layout.
    pub fn footprint_bytes(&self) -> usize {
        self.entries.len() * Self::layout_bytes(SLOTS_PER_ENTRY)
    }

    /// Bytes of one entry if it held `slots_per_entry` results.
    pub fn layout_bytes(slots_per_entry: usize) -> usize {
        ENTRY_OVERHEAD_BYTES + slots_per_entry * SLOT_BYTES
    }

    /// Footprint of a hypothetical table storing queries with the given
    /// results-per-query counts at `slots_per_entry` results per entry —
    /// the model behind Figure 11's sweep.
    pub fn footprint_for(results_per_query: &[usize], slots_per_entry: usize) -> usize {
        assert!(slots_per_entry > 0, "entries must hold at least one result");
        results_per_query
            .iter()
            .map(|&n| n.div_ceil(slots_per_entry))
            .sum::<usize>()
            * Self::layout_bytes(slots_per_entry)
    }

    /// Inserts or updates a pair, returning `true` when a new link was
    /// created (as opposed to reconciling an existing one).
    pub fn upsert(
        &mut self,
        query_hash: u64,
        result_hash: u64,
        score: f32,
        conflict: ConflictPolicy,
    ) -> bool {
        // Pass 1: existing link?
        let mut salt = 0u32;
        while let Some(entry) = self.entries.get_mut(&(query_hash, salt)) {
            for slot in entry.slots.iter_mut().flatten() {
                if slot.result_hash == result_hash {
                    slot.score = match conflict {
                        ConflictPolicy::Replace => score,
                        ConflictPolicy::Max => slot.score.max(score),
                    };
                    return false;
                }
            }
            salt += 1;
        }
        // Pass 2: first free slot along the chain.
        let chain_len = salt;
        for s in 0..chain_len {
            // Pass 1 walked salts 0..chain_len, so every one of these
            // entries exists; the `else` arm is unreachable but keeps
            // the hot path panic-free.
            let Some(entry) = self.entries.get_mut(&(query_hash, s)) else {
                break;
            };
            if let Some(free) = entry.slots.iter_mut().find(|x| x.is_none()) {
                *free = Some(Slot { result_hash, score });
                return true;
            }
        }
        // Pass 3: extend the chain.
        let mut entry = Entry::default();
        entry.slots[0] = Some(Slot { result_hash, score });
        self.entries.insert((query_hash, chain_len), entry);
        true
    }

    /// Feeds every result linked to `query_hash` to `f`, in chain order.
    fn each_result(&self, query_hash: u64, mut f: impl FnMut(ScoredResult)) {
        let mut salt = 0u32;
        while let Some(entry) = self.entries.get(&(query_hash, salt)) {
            for (i, slot) in entry.slots.iter().enumerate() {
                if let Some(slot) = slot {
                    f(ScoredResult {
                        result_hash: slot.result_hash,
                        score: slot.score,
                        accessed: entry.accessed(i),
                    });
                }
            }
            salt += 1;
        }
    }

    /// All results linked to a query, best score first, or `None` on a
    /// cache miss.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        let mut out = Vec::new();
        self.each_result(query_hash, |r| out.push(r));
        if out.is_empty() {
            return None;
        }
        out.sort_by(ScoredResult::rank_order);
        Some(out)
    }

    /// The first two results [`lookup`](Self::lookup) returns — the
    /// best, and the runner-up when there is one — or `None` on a miss,
    /// in one pass over the chain with no allocation and no sort.
    pub fn top_two(&self, query_hash: u64) -> Option<TopTwo> {
        let mut top = None;
        self.each_result(query_hash, |r| keep_top_two(&mut top, r));
        top
    }

    /// Whether the table holds any result for `query_hash`.
    pub fn contains_query(&self, query_hash: u64) -> bool {
        self.entries.contains_key(&(query_hash, 0))
    }

    /// Current score of a pair.
    ///
    /// # Errors
    ///
    /// [`CoreError::QueryNotCached`] when the query misses entirely;
    /// [`CoreError::ResultNotLinked`] when the query exists but the result
    /// is not among its slots.
    pub fn score(&self, query_hash: u64, result_hash: u64) -> Result<f32, CoreError> {
        let results = self
            .lookup(query_hash)
            .ok_or(CoreError::QueryNotCached { query_hash })?;
        results
            .iter()
            .find(|r| r.result_hash == result_hash)
            .map(|r| r.score)
            .ok_or(CoreError::ResultNotLinked {
                query_hash,
                result_hash,
            })
    }

    /// Applies `f` to every `(result_hash, score, accessed)` of a query,
    /// letting it rewrite the score. Returns the number of slots visited.
    pub fn update_scores(
        &mut self,
        query_hash: u64,
        mut f: impl FnMut(u64, f32, bool) -> f32,
    ) -> usize {
        let mut visited = 0;
        let mut salt = 0u32;
        while let Some(entry) = self.entries.get_mut(&(query_hash, salt)) {
            for i in 0..SLOTS_PER_ENTRY {
                let accessed = entry.accessed(i);
                if let Some(slot) = entry.slots[i].as_mut() {
                    slot.score = f(slot.result_hash, slot.score, accessed);
                    visited += 1;
                }
            }
            salt += 1;
        }
        visited
    }

    /// Marks a pair as user-accessed (its flags bit, §5.2.1).
    ///
    /// # Errors
    ///
    /// Same contract as [`score`](Self::score).
    pub fn mark_accessed(&mut self, query_hash: u64, result_hash: u64) -> Result<(), CoreError> {
        let mut salt = 0u32;
        let mut query_seen = false;
        while let Some(entry) = self.entries.get_mut(&(query_hash, salt)) {
            query_seen = true;
            for i in 0..SLOTS_PER_ENTRY {
                if entry.slots[i].map(|s| s.result_hash) == Some(result_hash) {
                    entry.set_accessed(i);
                    return Ok(());
                }
            }
            salt += 1;
        }
        if query_seen {
            Err(CoreError::ResultNotLinked {
                query_hash,
                result_hash,
            })
        } else {
            Err(CoreError::QueryNotCached { query_hash })
        }
    }

    /// Removes pairs for which `keep` returns false; `keep` receives
    /// `(query_hash, result_hash, score, accessed)`. Returns the number of
    /// pairs removed. Entry chains are re-packed afterwards.
    pub fn retain_pairs(&mut self, mut keep: impl FnMut(u64, u64, f32, bool) -> bool) -> usize {
        // Collect survivors per query, then rebuild chains. Rebuilding is
        // simpler than in-place chain surgery and this path only runs
        // during nightly updates.
        let mut survivors: HashMap<u64, Vec<ScoredResult>> = HashMap::new();
        let mut removed = 0;
        for (&(query_hash, _), entry) in &self.entries {
            for i in 0..SLOTS_PER_ENTRY {
                if let Some(slot) = entry.slots[i] {
                    if keep(query_hash, slot.result_hash, slot.score, entry.accessed(i)) {
                        survivors.entry(query_hash).or_default().push(ScoredResult {
                            result_hash: slot.result_hash,
                            score: slot.score,
                            accessed: entry.accessed(i),
                        });
                    } else {
                        removed += 1;
                    }
                }
            }
        }
        self.entries.clear();
        for (query_hash, mut results) in survivors {
            results.sort_by(ScoredResult::rank_order);
            for (chunk_idx, chunk) in results.chunks(SLOTS_PER_ENTRY).enumerate() {
                let mut entry = Entry::default();
                for (i, r) in chunk.iter().enumerate() {
                    entry.slots[i] = Some(Slot {
                        result_hash: r.result_hash,
                        score: r.score,
                    });
                    if r.accessed {
                        entry.set_accessed(i);
                    }
                }
                self.entries.insert((query_hash, chunk_idx as u32), entry);
            }
        }
        removed
    }

    /// Serializes every entry for the update protocol.
    pub fn to_records(&self) -> Vec<EntryRecord> {
        let mut records: Vec<EntryRecord> = self
            .entries
            .iter()
            .map(|(&(query_hash, salt), entry)| EntryRecord {
                query_hash,
                salt,
                slots: (0..SLOTS_PER_ENTRY)
                    .filter_map(|i| {
                        entry.slots[i].map(|s| (s.result_hash, s.score, entry.accessed(i)))
                    })
                    .collect(),
            })
            .collect();
        records.sort_by_key(|r| (r.query_hash, r.salt));
        records
    }

    /// Rebuilds a table from serialized records.
    pub fn from_records(records: &[EntryRecord]) -> Self {
        let mut table = QueryHashTable::new();
        for r in records {
            for &(result_hash, score, accessed) in &r.slots {
                table.upsert(r.query_hash, result_hash, score, ConflictPolicy::Max);
                if accessed {
                    let _ = table.mark_accessed(r.query_hash, result_hash);
                }
            }
        }
        table
    }

    /// Iterates all `(query_hash, result_hash, score, accessed)` pairs in
    /// unspecified order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (u64, u64, f32, bool)> + '_ {
        self.entries.iter().flat_map(|(&(query_hash, _), entry)| {
            (0..SLOTS_PER_ENTRY).filter_map(move |i| {
                entry.slots[i].map(|s| (query_hash, s.result_hash, s.score, entry.accessed(i)))
            })
        })
    }

    /// The distinct result hashes stored, sorted.
    pub fn result_hashes(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.iter_pairs().map(|(_, r, _, _)| r).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_and_lookup_round_trip() {
        let mut t = QueryHashTable::new();
        assert!(t.upsert(1, 10, 0.6, ConflictPolicy::Max));
        assert!(t.upsert(1, 11, 0.4, ConflictPolicy::Max));
        assert!(
            !t.upsert(1, 10, 0.5, ConflictPolicy::Max),
            "existing link is reconciled"
        );
        let r = t.lookup(1).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].result_hash, 10);
        assert_eq!(r[0].score, 0.6, "Max keeps the larger score");
        assert!(t.lookup(2).is_none());
    }

    #[test]
    fn conflict_policies_differ() {
        let mut t = QueryHashTable::new();
        t.upsert(1, 10, 0.6, ConflictPolicy::Max);
        t.upsert(1, 10, 0.2, ConflictPolicy::Replace);
        assert_eq!(t.score(1, 10).unwrap(), 0.2);
        t.upsert(1, 10, 0.1, ConflictPolicy::Max);
        assert_eq!(t.score(1, 10).unwrap(), 0.2);
    }

    #[test]
    fn third_result_spills_into_a_salted_entry() {
        let mut t = QueryHashTable::new();
        for (r, s) in [(10, 0.5), (11, 0.3), (12, 0.2)] {
            t.upsert(1, r, s, ConflictPolicy::Max);
        }
        assert_eq!(t.entry_count(), 2, "two results per entry, then overflow");
        assert_eq!(t.pair_count(), 3);
        let r = t.lookup(1).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn footprint_matches_the_fixed_layout() {
        let mut t = QueryHashTable::new();
        t.upsert(1, 10, 0.5, ConflictPolicy::Max);
        t.upsert(1, 11, 0.5, ConflictPolicy::Max);
        t.upsert(2, 20, 0.5, ConflictPolicy::Max);
        // Two entries * (16 overhead + 2*12 slots) = 80 bytes.
        assert_eq!(t.footprint_bytes(), 80);
    }

    #[test]
    fn figure11_minimum_is_at_two_slots() {
        // A population where most queries have two results (as in the
        // paper's cache) makes k=2 the footprint minimum.
        let mut counts = Vec::new();
        counts.extend(std::iter::repeat_n(1usize, 30));
        counts.extend(std::iter::repeat_n(2usize, 60));
        counts.extend(std::iter::repeat_n(3usize, 10));
        let footprints: Vec<usize> = (1..=6)
            .map(|k| QueryHashTable::footprint_for(&counts, k))
            .collect();
        let min_k = 1 + footprints
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .unwrap()
            .0;
        assert_eq!(min_k, 2, "footprints were {footprints:?}");
    }

    #[test]
    fn accessed_flags_stick_and_serialize() {
        let mut t = QueryHashTable::new();
        t.upsert(1, 10, 0.5, ConflictPolicy::Max);
        t.upsert(1, 11, 0.5, ConflictPolicy::Max);
        t.mark_accessed(1, 11).unwrap();
        let r = t.lookup(1).unwrap();
        let accessed: Vec<bool> = r.iter().map(|x| x.accessed).collect();
        assert_eq!(accessed.iter().filter(|&&a| a).count(), 1);

        let rebuilt = QueryHashTable::from_records(&t.to_records());
        let r2 = rebuilt.lookup(1).unwrap();
        assert!(r2.iter().find(|x| x.result_hash == 11).unwrap().accessed);
        assert!(!r2.iter().find(|x| x.result_hash == 10).unwrap().accessed);
    }

    #[test]
    fn mark_accessed_errors_are_precise() {
        let mut t = QueryHashTable::new();
        t.upsert(1, 10, 0.5, ConflictPolicy::Max);
        assert_eq!(
            t.mark_accessed(2, 10),
            Err(CoreError::QueryNotCached { query_hash: 2 })
        );
        assert_eq!(
            t.mark_accessed(1, 99),
            Err(CoreError::ResultNotLinked {
                query_hash: 1,
                result_hash: 99
            })
        );
    }

    #[test]
    fn update_scores_visits_every_slot() {
        let mut t = QueryHashTable::new();
        for r in [10, 11, 12] {
            t.upsert(1, r, 1.0, ConflictPolicy::Max);
        }
        let visited = t.update_scores(1, |_, s, _| s * 0.5);
        assert_eq!(visited, 3);
        for r in [10, 11, 12] {
            assert_eq!(t.score(1, r).unwrap(), 0.5);
        }
    }

    #[test]
    fn retain_pairs_removes_and_repacks() {
        let mut t = QueryHashTable::new();
        for r in [10, 11, 12] {
            t.upsert(1, r, r as f32, ConflictPolicy::Max);
        }
        t.mark_accessed(1, 12).unwrap();
        // Drop the two unaccessed pairs.
        let removed = t.retain_pairs(|_, _, _, accessed| accessed);
        assert_eq!(removed, 2);
        assert_eq!(t.pair_count(), 1);
        assert_eq!(t.entry_count(), 1, "chain repacked into a single entry");
        let r = t.lookup(1).unwrap();
        assert_eq!(r[0].result_hash, 12);
        assert!(r[0].accessed);
    }

    #[test]
    fn result_hashes_dedup_across_queries() {
        let mut t = QueryHashTable::new();
        t.upsert(1, 10, 0.5, ConflictPolicy::Max);
        t.upsert(2, 10, 0.5, ConflictPolicy::Max);
        t.upsert(2, 11, 0.5, ConflictPolicy::Max);
        assert_eq!(t.result_hashes(), vec![10, 11]);
    }

    #[test]
    fn records_round_trip_preserves_pairs_and_scores() {
        let mut t = QueryHashTable::new();
        for q in 0..20u64 {
            for r in 0..(q % 4 + 1) {
                t.upsert(q, 100 + r, (r as f32 + 1.0) / 4.0, ConflictPolicy::Max);
            }
        }
        let rebuilt = QueryHashTable::from_records(&t.to_records());
        assert_eq!(rebuilt.pair_count(), t.pair_count());
        for q in 0..20u64 {
            assert_eq!(rebuilt.lookup(q), t.lookup(q));
        }
    }

    #[test]
    fn long_chains_grow_one_salt_at_a_time() {
        let mut t = QueryHashTable::new();
        for r in 0..7u64 {
            assert!(t.upsert(1, 100 + r, 1.0 - r as f32 * 0.1, ConflictPolicy::Max));
        }
        assert_eq!(t.entry_count(), 4, "7 pairs need ceil(7/2) entries");
        assert_eq!(t.pair_count(), 7);
        // Reconciling a result deep in the chain must not add a link.
        assert!(!t.upsert(1, 106, 0.9, ConflictPolicy::Max));
        assert_eq!(t.pair_count(), 7);
        assert_eq!(t.score(1, 106).unwrap(), 0.9, "Max lifted the tail score");
        let r = t.lookup(1).unwrap();
        assert_eq!(r.len(), 7);
        assert!(r.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn upsert_backfills_chain_holes_before_extending() {
        let mut t = QueryHashTable::new();
        for r in [10, 11, 12, 13] {
            t.upsert(1, r, r as f32, ConflictPolicy::Max);
        }
        // Drop one pair; the repack leaves a free slot in the tail entry.
        t.retain_pairs(|_, result, _, _| result != 11);
        assert_eq!(t.pair_count(), 3);
        assert_eq!(t.entry_count(), 2);
        // Two more inserts: the first must reuse the free slot, only the
        // second may open a new salted entry.
        t.upsert(1, 14, 0.5, ConflictPolicy::Max);
        assert_eq!(t.entry_count(), 2, "hole reused before extending");
        t.upsert(1, 15, 0.25, ConflictPolicy::Max);
        assert_eq!(t.entry_count(), 3, "full chain extends by one entry");
        assert_eq!(t.pair_count(), 5);
    }

    #[test]
    fn retain_pairs_drops_whole_overflow_entries() {
        let mut t = QueryHashTable::new();
        for r in 0..5u64 {
            t.upsert(1, 100 + r, 1.0 - r as f32 * 0.1, ConflictPolicy::Max);
        }
        assert_eq!(t.entry_count(), 3);
        // Keep only the two best-scored pairs: both overflow entries die.
        let removed = t.retain_pairs(|_, _, score, _| score > 0.85);
        assert_eq!(removed, 3);
        assert_eq!(t.entry_count(), 1, "overflow entries fully removed");
        let records = t.to_records();
        assert!(
            records.iter().all(|r| r.salt == 0),
            "no salted entry survives: {records:?}"
        );
        assert_eq!(t.lookup(1).unwrap().len(), 2);
    }

    #[test]
    fn accessed_flag_in_overflow_entry_survives_round_trip() {
        let mut t = QueryHashTable::new();
        for r in 0..5u64 {
            t.upsert(1, 100 + r, 1.0 - r as f32 * 0.1, ConflictPolicy::Max);
        }
        // Result 104 sits in the salt-2 overflow entry.
        t.mark_accessed(1, 104).unwrap();
        let records = t.to_records();
        let tail = records.iter().find(|r| r.salt == 2).expect("salt-2 entry");
        assert!(tail
            .slots
            .iter()
            .any(|&(hash, _, accessed)| hash == 104 && accessed));

        let rebuilt = QueryHashTable::from_records(&records);
        assert_eq!(rebuilt.lookup(1), t.lookup(1));
        assert!(rebuilt
            .lookup(1)
            .unwrap()
            .iter()
            .any(|r| r.result_hash == 104 && r.accessed));
    }

    #[test]
    fn record_round_trip_is_a_fixed_point_for_chained_tables() {
        // Chains stay hole-free (upsert backfills, retain repacks), so
        // serialize → rebuild → serialize must reproduce the exact same
        // records, salts included.
        let mut t = QueryHashTable::new();
        for q in 0..8u64 {
            for r in 0..(q % 5 + 1) {
                t.upsert(q, 1000 + r, 1.0 / (r as f32 + 1.0), ConflictPolicy::Max);
            }
        }
        t.mark_accessed(4, 1002).unwrap();
        t.retain_pairs(|q, _, _, _| q != 3);
        let records = t.to_records();
        let rebuilt = QueryHashTable::from_records(&records);
        assert_eq!(rebuilt.to_records(), records);
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn score_lookup_errors() {
        let t = QueryHashTable::new();
        assert!(matches!(
            t.score(5, 6),
            Err(CoreError::QueryNotCached { .. })
        ));
    }
}
