//! Least-frequently-used query cache.

use std::collections::HashMap;

use crate::{CacheRequest, QueryCache};

/// An LFU cache over query hashes with LRU tie-breaking.
///
/// Closer in spirit to PocketSearch's volume ranking than LRU — frequency
/// approximates volume — but still personal-only: it has no community warm
/// start, so a fresh device serves nothing.
#[derive(Debug, Clone, Default)]
pub struct LfuQueryCache {
    capacity: usize,
    entries: HashMap<u64, (u64, u64)>, // hash -> (frequency, last-use stamp)
    clock: u64,
}

impl LfuQueryCache {
    /// Creates a cache holding at most `capacity` queries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        LfuQueryCache {
            capacity,
            entries: HashMap::new(),
            clock: 0,
        }
    }

    /// Number of cached queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn bump(&mut self, query_hash: u64) {
        self.clock += 1;
        let e = self.entries.entry(query_hash).or_insert((0, 0));
        e.0 += 1;
        e.1 = self.clock;
    }

    fn evict_if_needed(&mut self) {
        while self.entries.len() > self.capacity {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, &(freq, stamp))| (freq, stamp))
                .map(|(&h, _)| h)
            else {
                break;
            };
            self.entries.remove(&victim);
        }
    }
}

impl QueryCache for LfuQueryCache {
    fn lookup(&mut self, request: &CacheRequest<'_>) -> bool {
        if self.entries.contains_key(&request.query_hash) {
            self.bump(request.query_hash);
            true
        } else {
            false
        }
    }

    fn record_click(&mut self, request: &CacheRequest<'_>) {
        self.bump(request.query_hash);
        self.evict_if_needed();
    }

    fn name(&self) -> &'static str {
        "lfu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(q: u64) -> CacheRequest<'static> {
        CacheRequest {
            query_hash: q,
            result_hash: 0,
            query_text: "",
            url: "",
        }
    }

    #[test]
    fn eviction_prefers_low_frequency() {
        let mut c = LfuQueryCache::new(2);
        c.record_click(&req(1));
        c.record_click(&req(1));
        c.record_click(&req(2));
        c.record_click(&req(3)); // ties (2,freq1) vs (3,freq1): 2 is older → evicted
        assert!(c.lookup(&req(1)));
        assert!(!c.lookup(&req(2)));
        assert!(c.lookup(&req(3)));
    }

    #[test]
    fn hot_queries_survive_churn() {
        let mut c = LfuQueryCache::new(3);
        for _ in 0..10 {
            c.record_click(&req(42));
        }
        for i in 100..130 {
            c.record_click(&req(i));
        }
        assert!(c.lookup(&req(42)), "the hot query must survive the scan");
        assert_eq!(c.entries.get(&42).map(|&(f, _)| f), Some(11));
    }

    #[test]
    fn lookups_count_toward_frequency() {
        let mut c = LfuQueryCache::new(2);
        c.record_click(&req(1));
        c.lookup(&req(1));
        assert_eq!(c.entries.get(&1).map(|&(f, _)| f), Some(2));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = LfuQueryCache::new(5);
        for i in 0..50 {
            c.record_click(&req(i));
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = LfuQueryCache::new(0);
    }
}
