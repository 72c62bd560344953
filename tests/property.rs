//! Property-based tests over the core data structures, pitting each
//! against a simple reference model under arbitrary operation sequences.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

use pocket_cloudlets::core::hashtable::{ConflictPolicy, QueryHashTable};
use pocket_cloudlets::flashdb::{DbConfig, ResultDb, ResultRecord};
use pocket_cloudlets::mobsim::flash::{FileId, FlashModel, FlashStore};
use pocket_cloudlets::querylog::ids::stable_hash64;
use pocket_cloudlets::querylog::zipf::WeightedIndex;

#[derive(Debug, Clone)]
enum TableOp {
    Upsert { q: u64, r: u64, score: f32 },
    MarkAccessed { q: u64, r: u64 },
    RetainAccessed,
}

fn table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        6 => (0u64..20, 0u64..8, 0.0f32..2.0).prop_map(|(q, r, score)| TableOp::Upsert {
            q,
            r: r + 100,
            score
        }),
        3 => (0u64..20, 0u64..8).prop_map(|(q, r)| TableOp::MarkAccessed { q, r: r + 100 }),
        1 => Just(TableOp::RetainAccessed),
    ]
}

proptest! {
    /// The hash table behaves like a map from (query, result) to
    /// (max-score, accessed) under arbitrary operation interleavings.
    #[test]
    fn hashtable_matches_reference_model(ops in proptest::collection::vec(table_op(), 1..120)) {
        let mut table = QueryHashTable::new();
        let mut model: HashMap<(u64, u64), (f32, bool)> = HashMap::new();
        for op in ops {
            match op {
                TableOp::Upsert { q, r, score } => {
                    table.upsert(q, r, score, ConflictPolicy::Max);
                    let e = model.entry((q, r)).or_insert((score, false));
                    e.0 = e.0.max(score);
                }
                TableOp::MarkAccessed { q, r } => {
                    let res = table.mark_accessed(q, r);
                    if let Some(e) = model.get_mut(&(q, r)) {
                        prop_assert!(res.is_ok());
                        e.1 = true;
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
                TableOp::RetainAccessed => {
                    table.retain_pairs(|_, _, _, accessed| accessed);
                    model.retain(|_, v| v.1);
                }
            }
            prop_assert_eq!(table.pair_count(), model.len());
        }
        // Final state equivalence.
        for (&(q, r), &(score, accessed)) in &model {
            let results = table.lookup(q).expect("model says query exists");
            let found = results.iter().find(|x| x.result_hash == r).expect("pair exists");
            prop_assert!((found.score - score).abs() < 1e-6);
            prop_assert_eq!(found.accessed, accessed);
        }
        // Lookups are always sorted by descending score.
        for q in 0..20u64 {
            if let Some(results) = table.lookup(q) {
                prop_assert!(results.windows(2).all(|w| w[0].score >= w[1].score));
            }
        }
    }

    /// Flash files behave like byte vectors with block-rounded accounting.
    #[test]
    fn flash_store_is_a_timed_byte_store(
        writes in proptest::collection::vec((0usize..4, proptest::collection::vec(any::<u8>(), 0..3000)), 1..12)
    ) {
        let mut flash = FlashStore::new(FlashModel::default());
        let mut model: HashMap<FileId, Vec<u8>> = HashMap::new();
        for (slot, data) in writes {
            let file = flash.create(&format!("f{slot}"));
            // Alternate write/append by data length parity.
            if data.len() % 2 == 0 {
                flash.write_file(file, data.clone());
                model.insert(file, data);
            } else {
                let (off, _) = flash.append(file, &data).unwrap();
                let entry = model.entry(file).or_default();
                prop_assert_eq!(off as usize, entry.len());
                entry.extend_from_slice(&data);
            }
        }
        let mut logical = 0u64;
        let mut allocated = 0u64;
        for (&file, bytes) in &model {
            prop_assert_eq!(flash.file_size(file), Some(bytes.len() as u64));
            if !bytes.is_empty() {
                let read = flash.read(file, 0, bytes.len() as u64).unwrap();
                prop_assert_eq!(&read.data, bytes);
            }
            logical += bytes.len() as u64;
            allocated += flash.model().allocated_bytes(bytes.len() as u64);
        }
        prop_assert_eq!(flash.logical_bytes(), logical);
        prop_assert_eq!(flash.allocated_bytes(), allocated);
        prop_assert_eq!(flash.fragmentation_bytes(), allocated - logical);
    }

    /// The result database stays consistent with a set model under
    /// arbitrary insert/remove/compact sequences, and `verify` passes.
    #[test]
    fn resultdb_matches_set_semantics(
        initial in proptest::collection::hash_set(0u64..60, 0..20),
        ops in proptest::collection::vec((0u8..3, 0u64..60), 1..40),
        n_files in 1usize..9,
    ) {
        let mut flash = FlashStore::new(FlashModel::default());
        let record = |h: u64| ResultRecord::new(h, format!("t{h}"), format!("u{h}"), "s".repeat(64));
        let mut db = ResultDb::build(
            initial.iter().map(|&h| record(h)),
            DbConfig::with_files(n_files),
            &mut flash,
        );
        let mut model: HashSet<u64> = initial;
        for (kind, h) in ops {
            match kind {
                0 => {
                    db.insert(record(h), &mut flash).unwrap();
                    model.insert(h);
                }
                1 => {
                    let removed = db.remove(h, &mut flash).unwrap();
                    prop_assert_eq!(removed, model.remove(&h));
                }
                _ => {
                    db.compact(&mut flash).unwrap();
                }
            }
            prop_assert_eq!(db.record_count(), model.len());
        }
        db.verify(&flash).unwrap();
        for h in 0..60u64 {
            let stored = db.get(h, &flash);
            if model.contains(&h) {
                let (r, _) = stored.unwrap();
                prop_assert_eq!(r, record(h));
            } else {
                prop_assert!(stored.is_err());
            }
        }
    }

    /// The weighted sampler's empirical distribution tracks its weights.
    #[test]
    fn weighted_index_is_unbiased(weights in proptest::collection::vec(0.01f64..10.0, 2..8)) {
        use rand::SeedableRng;
        let sampler = WeightedIndex::new(weights.clone());
        let total: f64 = weights.iter().sum();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 30_000;
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..n {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let observed = counts[i] as f64 / n as f64;
            prop_assert!(
                (observed - expected).abs() < 0.03,
                "index {}: observed {} vs expected {}", i, observed, expected
            );
        }
    }

    /// Record encoding round-trips arbitrary UTF-8 content.
    #[test]
    fn record_round_trips(hash in any::<u64>(), title in ".{0,60}", url in ".{0,60}", snippet in ".{0,200}") {
        let r = ResultRecord::new(hash, title, url, snippet);
        let decoded = ResultRecord::decode(&mut r.encode()).unwrap();
        prop_assert_eq!(decoded, r);
    }

    /// The stable hash never collides on our structured key spaces (a
    /// smoke-level injectivity check at realistic scales).
    #[test]
    fn stable_hash_is_collision_free_on_query_shapes(n in 100usize..2_000) {
        let mut seen = HashSet::with_capacity(n * 2);
        for i in 0..n {
            let q = format!("site{i:05}", i = i);
            let u = format!("www.site{i:05}.com", i = i);
            prop_assert!(seen.insert(stable_hash64(q.as_bytes())));
            prop_assert!(seen.insert(stable_hash64(u.as_bytes())));
        }
    }
}
