//! Sharded DRAM index for concurrent serving (§8 scaling discussion).
//!
//! A [`ShardedTable`] partitions one [`QueryHashTable`] into `S`
//! [`FrozenTable`] shards by `query_hash % S`. Every salted overflow
//! entry of a query keys on the same `query_hash`, so a whole chain
//! lands in one shard and a per-shard lookup returns exactly what the
//! unsharded table would. Shards are immutable once built — a refresh
//! (§5.4) builds a new table — so readers on any shard share them
//! through an `Arc` with no lock at all, which is what lets a serving
//! fleet (see the `pocketsearch` crate's `fleet` module) fan queries
//! out across worker threads.

use crate::hashtable::frozen::FrozenTable;
use crate::hashtable::{EntryRecord, QueryHashTable, ScoredResult};

/// A [`QueryHashTable`] split into immutable [`FrozenTable`] shards.
///
/// # Example
///
/// ```
/// use cloudlet_core::hashtable::{ConflictPolicy, QueryHashTable};
/// use cloudlet_core::shard::ShardedTable;
///
/// let mut table = QueryHashTable::new();
/// for q in 0..32 {
///     table.upsert(q, q + 100, 0.5, ConflictPolicy::Max);
/// }
/// let sharded = ShardedTable::from_table(&table, 4);
/// assert_eq!(sharded.pair_count(), table.pair_count());
/// assert_eq!(sharded.lookup(7), table.lookup(7));
/// ```
#[derive(Debug)]
pub struct ShardedTable {
    shards: Vec<FrozenTable>,
}

impl ShardedTable {
    /// Partitions `table` into `n_shards` shards by `query_hash % n_shards`.
    ///
    /// The partition is exact: each query's full salted entry chain moves
    /// into one shard unchanged, so per-query lookups, scores, and
    /// accessed bits are identical to the source table's.
    ///
    /// # Panics
    ///
    /// Panics when `n_shards` is zero.
    pub fn from_table(table: &QueryHashTable, n_shards: usize) -> Self {
        assert!(n_shards > 0, "a sharded table needs at least one shard");
        let mut buckets: Vec<Vec<EntryRecord>> = (0..n_shards).map(|_| Vec::new()).collect();
        for record in table.to_records() {
            let shard = (record.query_hash % n_shards as u64) as usize;
            buckets[shard].push(record);
        }
        ShardedTable {
            shards: buckets
                .iter()
                .map(|records| FrozenTable::from_table(&QueryHashTable::from_records(records)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `query_hash`.
    pub fn shard_of(&self, query_hash: u64) -> usize {
        (query_hash % self.shards.len() as u64) as usize
    }

    /// One shard's index.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &FrozenTable {
        &self.shards[shard]
    }

    /// Looks `query_hash` up in its owning shard; results match the
    /// unsharded table's exactly.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        self.shards[self.shard_of(query_hash)].lookup(query_hash)
    }

    /// Total cached (query, result) pairs across shards.
    pub fn pair_count(&self) -> usize {
        self.shards.iter().map(FrozenTable::pair_count).sum()
    }

    /// Total hash-table entries across shards.
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(FrozenTable::entry_count).sum()
    }

    /// Total DRAM footprint across shards (the sharding itself adds no
    /// per-pair overhead: entries just live in smaller tables).
    pub fn footprint_bytes(&self) -> usize {
        self.shards.iter().map(FrozenTable::footprint_bytes).sum()
    }

    /// Per-shard pair counts, for balance diagnostics.
    pub fn pair_counts(&self) -> Vec<usize> {
        self.shards.iter().map(FrozenTable::pair_count).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashtable::ConflictPolicy;

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
    fn partition_preserves_every_lookup() {
        let table = seeded_table(40, 3);
        for shards in [1, 2, 4, 7, 16] {
            let sharded = ShardedTable::from_table(&table, shards);
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.pair_count(), table.pair_count());
            assert_eq!(sharded.entry_count(), table.entry_count());
            assert_eq!(sharded.footprint_bytes(), table.footprint_bytes());
            for q in 0..45 {
                assert_eq!(
                    sharded.lookup(q),
                    table.lookup(q),
                    "query {q}, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn shard_of_respects_modulo_layout() {
        let sharded = ShardedTable::from_table(&QueryHashTable::new(), 8);
        for q in 0..64u64 {
            assert_eq!(sharded.shard_of(q), (q % 8) as usize);
        }
    }

    #[test]
    fn writes_go_to_the_owning_shard() {
        let mut table = QueryHashTable::new();
        let q = 10u64;
        table.upsert(q, 99, 0.8, ConflictPolicy::Max);
        let sharded = ShardedTable::from_table(&table, 4);
        assert_eq!(sharded.pair_counts(), vec![0, 0, 1, 0]);
        assert!(sharded.shard(sharded.shard_of(q)).contains_query(q));
        let results = sharded.lookup(q).expect("pair was inserted");
        assert_eq!(results[0].result_hash, 99);
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        let table = seeded_table(12, 2);
        let sharded = ShardedTable::from_table(&table, 1);
        let only = sharded.shard(0);
        assert_eq!(only.entry_count(), table.entry_count());
        assert_eq!(only.pair_count(), table.pair_count());
        for q in 0..15 {
            assert_eq!(only.lookup(q), table.lookup(q), "query {q}");
        }
    }
}
