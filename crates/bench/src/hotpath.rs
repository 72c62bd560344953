//! The locked comparison arm of the wall-clock hot-path benchmarks.
//!
//! The serving stack's DRAM index is an immutable
//! `cloudlet_core::shard::ShardedTable`: a lookup takes no lock. To
//! show what that buys, `ablations --study hotpath` and the `hotpath`
//! Criterion bench time it against [`LockedShards`] — the same
//! `query_hash % S` partition, but each shard a read-locked
//! [`QueryHashTable`], the design the serve path used before the index
//! became immutable. It lives here because only the benchmarks need it.

use std::sync::{PoisonError, RwLock};

use cloudlet_core::hashtable::{EntryRecord, QueryHashTable, ScoredResult};

/// `splitmix64` — cheap deterministic per-op key mixing for thread
/// sweeps (no RNG state shared between threads).
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`QueryHashTable`] partitioned by `query_hash % S` into shards
/// that each sit behind their own `RwLock`.
#[derive(Debug)]
pub struct LockedShards {
    shards: Vec<RwLock<QueryHashTable>>,
}

impl LockedShards {
    /// Partitions `table` into `n_shards` read-locked shards.
    ///
    /// # Panics
    ///
    /// Panics when `n_shards` is zero.
    pub fn from_table(table: &QueryHashTable, n_shards: usize) -> Self {
        assert!(n_shards > 0, "a sharded table needs at least one shard");
        let mut buckets: Vec<Vec<EntryRecord>> = (0..n_shards).map(|_| Vec::new()).collect();
        for record in table.to_records() {
            buckets[(record.query_hash % n_shards as u64) as usize].push(record);
        }
        LockedShards {
            shards: buckets
                .iter()
                .map(|records| RwLock::new(QueryHashTable::from_records(records)))
                .collect(),
        }
    }

    /// Looks `query_hash` up under its owning shard's read lock.
    pub fn lookup(&self, query_hash: u64) -> Option<Vec<ScoredResult>> {
        let shard = (query_hash % self.shards.len() as u64) as usize;
        self.shards[shard]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(query_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudlet_core::hashtable::ConflictPolicy;
    use cloudlet_core::shard::ShardedTable;

    #[test]
    fn locked_baseline_answers_like_the_sharded_index() {
        let mut table = QueryHashTable::new();
        for q in 0..50 {
            for r in 0..3 {
                table.upsert(
                    q,
                    1_000 + q * 10 + r,
                    0.2 + r as f32 * 0.1,
                    ConflictPolicy::Max,
                );
            }
        }
        let locked = LockedShards::from_table(&table, 8);
        let sharded = ShardedTable::from_table(&table, 8);
        for q in 0..60 {
            assert_eq!(locked.lookup(q), sharded.lookup(q), "query {q}");
        }
    }

    #[test]
    fn mix64_is_the_splitmix_finalizer() {
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(mix64(1), mix64(2));
    }
}
