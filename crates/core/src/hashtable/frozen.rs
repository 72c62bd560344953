//! The frozen serve index over the §5.2 table: [`FrozenTable`].
//!
//! [`super::QueryHashTable`] is the authoritative, mutable table: the
//! §5.4 update protocol installs into it off the serve path, while the
//! phone charges. Once installed it is read-only for a whole serving
//! window, so the serve path reads an immutable open-addressed image of
//! it instead: a `FrozenTable`, built once per installed table and
//! shared by `Arc`. A refresh builds a new table; nothing ever writes a
//! built one, so readers need no lock, no atomic and no publication
//! protocol — immutable data is `Sync` by construction.
//!
//! Each bucket carries the `(query_hash, salt)` identity of one chain
//! entry, its up-to-two scored results inline, and the entry's §5.2
//! flags word, built from the results' `accessed` bits. Lookup results
//! are bit-identical to [`super::QueryHashTable::lookup`]: same chain
//! walk, same [`ScoredResult::rank_order`], same `accessed` bits, same
//! miss semantics — `tests/hotpath_equivalence.rs` proves this over 256
//! random tables.

use super::{keep_top_two, QueryHashTable, ScoredResult, TopTwo, SLOTS_PER_ENTRY};

/// Probe-array state: the bucket is empty.
const STATE_EMPTY: u32 = 0;
/// Probe-array state: occupied, and an entry with `salt + 1` exists.
const STATE_OCCUPIED: u32 = 1;
/// Probe-array state: occupied, and no entry with `salt + 1` exists —
/// a chain walk can stop here instead of probing for (and missing) the
/// next salt. Almost every query has one entry, so this halves the
/// probes per hit.
const STATE_LAST: u32 = 2;

/// One open-addressed bucket: a chain entry's identity and `STATE_*`
/// tag, its inline scored results, and its flags word.
///
/// Sized and aligned to exactly one 64-byte cache line so a hit costs
/// a single line fill — a `HashMap` probe touches a SwissTable control
/// group *and* its entry (twice, for salt 0 and the salt-1 miss), and
/// undercutting that is where the index's speed comes from.
#[repr(align(64))]
#[derive(Debug, Clone)]
struct Bucket {
    query_hash: u64,
    /// Result hash per slot; meaningful only where `present` has the
    /// slot's bit set (slots are stored flat — `Option` per slot has
    /// no niche and would overflow the cache line).
    result_hashes: [u64; SLOTS_PER_ENTRY],
    /// Score per slot, same `present` convention.
    scores: [f32; SLOTS_PER_ENTRY],
    salt: u32,
    state: u32,
    /// Bit `i`: slot `i` holds a result.
    present: u32,
    /// The entry's §5.2 flags word (bit `i`: slot `i` was accessed).
    flags: u64,
}

const EMPTY_BUCKET: Bucket = Bucket {
    query_hash: 0,
    result_hashes: [0; SLOTS_PER_ENTRY],
    scores: [0.0; SLOTS_PER_ENTRY],
    salt: 0,
    state: STATE_EMPTY,
    present: 0,
    flags: 0,
};

// The one-line-per-hit property above is load-bearing for the
// wall-clock numbers; fail the build if the layout outgrows it.
const _: () = assert!(std::mem::size_of::<Bucket>() == 64);

/// Tag-array value for an empty bucket; occupied tags always have the
/// high bit set, so no occupied tag collides with this.
const TAG_EMPTY: u8 = 0;

/// Fibonacci (multiply-shift) mix of the `(query_hash, salt)` chain
/// key — one multiply, spreading sequential keys across the high bits.
/// The caller downshifts for the probe start and keeps the low 7 bits
/// as the tag. Deterministic and dependency-free; quality only affects
/// probe lengths, never results.
fn probe_mix(query_hash: u64, salt: u32) -> u64 {
    (query_hash ^ u64::from(salt).wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The occupied-tag byte of a mixed hash: low 7 bits, high bit set.
fn tag_of(mixed: u64) -> u8 {
    (mixed & 0x7F) as u8 | 0x80
}

/// An immutable open-addressed image of one [`QueryHashTable`].
///
/// SwissTable-style split: `tags` holds one byte per bucket (empty, or
/// the hash's low 7 bits with the high bit set) and is small enough to
/// stay cache-resident even for six-figure tables, so the probe loop
/// filters on it and touches the 64-byte `buckets` array **once** per
/// hit — a 1/128 false-positive rate buys DRAM-traffic parity with a
/// `HashMap` while skipping its SipHash.
///
/// # Example
///
/// ```
/// use cloudlet_core::hashtable::frozen::FrozenTable;
/// use cloudlet_core::hashtable::{ConflictPolicy, QueryHashTable};
///
/// let mut table = QueryHashTable::new();
/// table.upsert(1, 10, 0.6, ConflictPolicy::Max);
/// let index = FrozenTable::from_table(&table);
/// assert_eq!(index.lookup(1), table.lookup(1));
/// assert!(index.lookup(2).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct FrozenTable {
    /// One filter byte per bucket, probed linearly.
    tags: Vec<u8>,
    /// Power-of-two bucket array, parallel to `tags`, ≤ 80% loaded.
    buckets: Vec<Bucket>,
    mask: u64,
    /// `64 - log2(capacity)`: the Fibonacci-hash downshift.
    shift: u32,
    entries: usize,
    pairs: usize,
}

impl FrozenTable {
    /// Builds the image of `table`.
    pub fn from_table(table: &QueryHashTable) -> Self {
        // ≤ 80% load: probe chains stay short while the bucket array
        // stays close to the source table's footprint (oversizing it
        // costs TLB and DRAM locality on six-figure tables).
        let len = table.entries.len().max(1);
        let capacity = (len + len / 4 + 1).next_power_of_two();
        let mask = capacity as u64 - 1;
        let shift = u64::BITS - capacity.trailing_zeros();
        let mut tags: Vec<u8> = vec![TAG_EMPTY; capacity];
        let mut buckets: Vec<Bucket> = vec![EMPTY_BUCKET; capacity];
        let mut pairs = 0;
        for (&(query_hash, salt), entry) in &table.entries {
            let state = if table.entries.contains_key(&(query_hash, salt + 1)) {
                STATE_OCCUPIED
            } else {
                STATE_LAST
            };
            let mut result_hashes = [0u64; SLOTS_PER_ENTRY];
            let mut scores = [0f32; SLOTS_PER_ENTRY];
            let mut present = 0u32;
            let mut flags = 0u64;
            for (i, slot) in entry.iter().enumerate() {
                if let Some(s) = slot {
                    result_hashes[i] = s.result_hash;
                    scores[i] = s.score;
                    present |= 1 << i;
                    flags |= u64::from(s.accessed) << i;
                }
            }
            pairs += present.count_ones() as usize;
            let mixed = probe_mix(query_hash, salt);
            let mut idx = mixed >> shift;
            while tags[idx as usize] != TAG_EMPTY {
                idx = (idx + 1) & mask;
            }
            tags[idx as usize] = tag_of(mixed);
            buckets[idx as usize] = Bucket {
                query_hash,
                result_hashes,
                scores,
                salt,
                state,
                present,
                flags,
            };
        }
        FrozenTable {
            tags,
            buckets,
            mask,
            shift,
            entries: table.entries.len(),
            pairs,
        }
    }

    /// Probes for chain entry `(query_hash, salt)`: whether it
    /// terminates the chain, plus the bucket itself. The loop walks the
    /// byte-sized tag filter; the wide bucket array is read only on a
    /// tag match (almost always exactly once).
    fn find(&self, query_hash: u64, salt: u32) -> Option<(bool, &Bucket)> {
        let mixed = probe_mix(query_hash, salt);
        let tag = tag_of(mixed);
        let mut idx = mixed >> self.shift;
        loop {
            let t = self.tags[idx as usize];
            if t == TAG_EMPTY {
                return None;
            }
            if t == tag {
                let bucket = &self.buckets[idx as usize];
                if bucket.query_hash == query_hash && bucket.salt == salt {
                    return Some((bucket.state == STATE_LAST, bucket));
                }
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Feeds every result linked to `query_hash` to `f`, in chain order.
    pub(crate) fn each_result(&self, query_hash: u64, mut f: impl FnMut(ScoredResult)) {
        let mut salt = 0u32;
        while let Some((last, bucket)) = self.find(query_hash, salt) {
            for i in 0..SLOTS_PER_ENTRY {
                if bucket.present & (1 << i) != 0 {
                    f(ScoredResult {
                        result_hash: bucket.result_hashes[i],
                        score: bucket.scores[i],
                        accessed: bucket.flags & (1 << i) != 0,
                    });
                }
            }
            if last {
                break;
            }
            salt += 1;
        }
    }

    /// All results linked to a query, best score first, or `None` on a
    /// cache miss — bit-identical to [`QueryHashTable::lookup`] over the
    /// imaged table, `accessed` bits included.
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
    /// best, and the runner-up when there is one — or `None` on a miss.
    /// One pass over the chain with no allocation and no sort, folded
    /// by the same rule as [`QueryHashTable::top_two`].
    pub fn top_two(&self, query_hash: u64) -> Option<TopTwo> {
        let mut top = None;
        self.each_result(query_hash, |r| keep_top_two(&mut top, r));
        top
    }

    /// Whether the index holds any result for `query_hash`.
    pub fn contains_query(&self, query_hash: u64) -> bool {
        self.find(query_hash, 0).is_some()
    }

    // api-ok: tests/hotpath_equivalence.rs and tests/fleet_property.rs
    // check it against the source table's §5.2 entry count.
    /// Number of imaged chain entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Number of imaged `(query, result)` pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// DRAM footprint of the imaged table under the paper's fixed entry
    /// layout (matches [`QueryHashTable::footprint_bytes`]).
    pub fn footprint_bytes(&self) -> usize {
        self.entries * QueryHashTable::layout_bytes(SLOTS_PER_ENTRY)
    }
}

#[cfg(test)]
mod tests {
    use super::super::ConflictPolicy;
    use super::*;

    fn seeded_table(queries: u64, per_query: u64) -> QueryHashTable {
        let mut table = QueryHashTable::new();
        for q in 0..queries {
            for r in 0..per_query {
                table.upsert(
                    q,
                    1_000 + q * 10 + r,
                    0.1 + r as f32 * 0.2,
                    ConflictPolicy::Max,
                );
            }
            if q % 3 == 0 {
                table
                    .mark_accessed(q, 1_000 + q * 10)
                    .expect("pair was just inserted");
            }
        }
        table
    }

    #[test]
    fn images_every_lookup_bit_for_bit() {
        for (queries, per_query) in [(0, 0), (1, 1), (7, 2), (40, 3), (13, 5)] {
            let table = seeded_table(queries, per_query);
            let index = FrozenTable::from_table(&table);
            assert_eq!(index.entry_count(), table.entry_count());
            assert_eq!(index.pair_count(), table.pair_count());
            assert_eq!(index.footprint_bytes(), table.footprint_bytes());
            for q in 0..queries + 5 {
                assert_eq!(index.lookup(q), table.lookup(q), "query {q}");
                assert_eq!(
                    index.top_two(q).map(|(a, b)| [Some(a), b]),
                    table
                        .lookup(q)
                        .map(|rs| [rs.first().copied(), rs.get(1).copied()]),
                    "query {q}"
                );
                assert_eq!(index.contains_query(q), table.contains_query(q));
            }
        }
    }

    #[test]
    fn empty_index_misses_everything() {
        let index = FrozenTable::from_table(&QueryHashTable::new());
        assert_eq!(index.pair_count(), 0);
        assert_eq!(index.lookup(0), None);
        assert!(!index.contains_query(0));
    }
}
