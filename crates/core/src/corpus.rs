//! Bridging cache machinery to a concrete corpus.
//!
//! The core cache works entirely on stable 64-bit hashes and abstract
//! record sizes, so the same code can back any cloudlet.
//! [`UniverseCorpus`] is the narrow waist: given query/result identifiers
//! from the synthetic `querylog` universe, it produces the hashes the
//! hash table stores and the record sizes the flash database will pay
//! for.

use querylog::ids::{stable_hash64, QueryId, ResultId};
use querylog::universe::Universe;

/// Per-record framing overhead in the flash database: a 16-bit length for
/// each of the three stored fields plus a 64-bit record hash.
pub const RECORD_OVERHEAD_BYTES: usize = 14;

/// Maps the identifiers of a synthetic [`Universe`] onto cache-visible
/// hashes and sizes.
#[derive(Debug, Clone, Copy)]
pub struct UniverseCorpus<'a> {
    universe: &'a Universe,
}

impl<'a> UniverseCorpus<'a> {
    /// Wraps a universe.
    pub fn new(universe: &'a Universe) -> Self {
        UniverseCorpus { universe }
    }

    /// The wrapped universe.
    pub fn universe(&self) -> &'a Universe {
        self.universe
    }

    /// Stable hash of the query's raw string.
    pub fn query_hash(&self, query: QueryId) -> u64 {
        stable_hash64(self.universe.query(query).text.as_bytes())
    }

    /// Stable hash of the result's URL.
    pub fn result_hash(&self, result: ResultId) -> u64 {
        stable_hash64(self.universe.result(result).url.as_bytes())
    }

    /// Bytes the result's database record occupies (title + display URL +
    /// snippet + framing), the ~500 bytes of §5.2.2.
    pub fn record_size(&self, result: ResultId) -> usize {
        self.universe.record_len(result) + RECORD_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querylog::universe::UniverseConfig;

    #[test]
    fn hashes_are_stable_and_distinct() {
        let u = Universe::generate(UniverseConfig::test_scale(), 2);
        let c = UniverseCorpus::new(&u);
        let q = QueryId::new(0);
        assert_eq!(c.query_hash(q), c.query_hash(q));
        assert_ne!(c.query_hash(QueryId::new(0)), c.query_hash(QueryId::new(1)));
        assert_ne!(
            c.result_hash(ResultId::new(0)),
            c.result_hash(ResultId::new(1))
        );
    }

    #[test]
    fn record_sizes_are_about_500_bytes() {
        let u = Universe::generate(UniverseConfig::test_scale(), 2);
        let c = UniverseCorpus::new(&u);
        for i in (0..u.results().len()).step_by(97) {
            let size = c.record_size(ResultId::new(i as u32));
            assert!(
                (430..620).contains(&size),
                "record {i} was {size} bytes, expected ~500"
            );
        }
    }

    #[test]
    fn query_hashes_differ_from_result_hashes() {
        let u = Universe::generate(UniverseConfig::test_scale(), 2);
        let c = UniverseCorpus::new(&u);
        // Query text and result URL are different strings, so their hashes
        // land in different spaces with overwhelming probability.
        assert_ne!(
            c.query_hash(QueryId::new(3)),
            c.result_hash(ResultId::new(3))
        );
    }
}
