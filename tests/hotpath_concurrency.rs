//! The serve path under interleaving: the immutable frozen index is
//! shared by many threads with no lock, and the peer fabric's one
//! writer — re-registration — never lets a consult observe half of an
//! old holding and half of a new one.
//!
//! Thread counts follow the benchmark sweep (8 and 32); iteration
//! counts are modest because the suite also runs on small hosts —
//! these are interleaving smoke tests, not throughput measurements.

use std::sync::{Arc, Barrier};

use pocket_cloudlets::core::hashtable::frozen::FrozenTable;
use pocket_cloudlets::core::hashtable::{ConflictPolicy, QueryHashTable};
use pocket_cloudlets::core::peer::{PeerConfig, PeerConsult, PeerFabric};

/// 32 threads share one `Arc<FrozenTable>`, as a search fleet's lanes
/// do: every lookup — results, order and `accessed` bits — equals the
/// mutable table's.
#[test]
fn shared_sharded_index_answers_like_the_flat_table_on_every_thread() {
    const QUERIES: u64 = 256;
    const THREADS: usize = 32;
    const READS_PER_THREAD: u64 = 2_000;

    let mut flat = QueryHashTable::new();
    for q in 0..QUERIES {
        for r in 0..(q % 5) {
            flat.upsert(q, 10_000 + q * 10 + r, 0.1 * r as f32, ConflictPolicy::Max);
        }
        if q % 3 == 0 && q % 5 != 0 {
            flat.mark_accessed(q, 10_000 + q * 10)
                .expect("pair was just inserted");
        }
    }
    let index = Arc::new(FrozenTable::from_table(&flat));
    let flat = Arc::new(flat);
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let index = Arc::clone(&index);
            let flat = Arc::clone(&flat);
            std::thread::spawn(move || {
                for i in 0..READS_PER_THREAD {
                    // A few keys past the cached range exercise misses.
                    let q = (i * 7 + t as u64) % (QUERIES + 16);
                    assert_eq!(index.lookup(q), flat.lookup(q), "query {q}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("reader thread panicked");
    }
}

/// 8 consult threads race a thread that re-registers one device with
/// inventory A or inventory B: every consult must equal what a fabric
/// holding exactly A, or exactly B, answers — never a mix of one
/// inventory's Bloom summary with the other's exact key set.
#[test]
fn consults_see_one_whole_holding_during_re_registration() {
    const KEYS: u64 = 128;
    const READERS: u64 = 8;
    const CONSULTS_PER_THREAD: u64 = 2_000;
    const REGISTRATIONS: usize = 200;

    let a: Vec<u64> = (0..KEYS / 2).collect();
    let b: Vec<u64> = (KEYS / 2..KEYS).collect();
    let stable: Vec<u64> = (KEYS..KEYS + 8).collect();
    // Reference answers: the requester (device 0) consulting a cell
    // where device 1 holds exactly A, or exactly B.
    let answers = |inventory: &[u64]| -> Vec<PeerConsult> {
        let fabric = PeerFabric::new(PeerConfig::default());
        fabric.register(0, &[]);
        fabric.register(1, inventory);
        fabric.register(2, &stable);
        (0..KEYS + 8).map(|key| fabric.consult(0, key)).collect()
    };
    let (from_a, from_b) = (answers(&a), answers(&b));

    let fabric = PeerFabric::new(PeerConfig::default());
    fabric.register(0, &[]);
    fabric.register(1, &a);
    fabric.register(2, &stable);
    // Readers and the writer start together, so consults overlap the
    // re-registrations instead of finishing before the writer runs.
    let start = Barrier::new(READERS as usize + 1);
    std::thread::scope(|scope| {
        for t in 0..READERS {
            let (fabric, from_a, from_b, start) = (&fabric, &from_a, &from_b, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..CONSULTS_PER_THREAD {
                    let key = (i * 13 + t) % (KEYS + 8);
                    let seen = fabric.consult(0, key);
                    let k = key as usize;
                    assert!(
                        seen == from_a[k] || seen == from_b[k],
                        "key {key}: consult matched neither holding: {seen:?}"
                    );
                }
            });
        }
        scope.spawn(|| {
            start.wait();
            for i in 0..REGISTRATIONS {
                fabric.register(1, if i % 2 == 0 { &b } else { &a });
            }
        });
    });
    assert_eq!(fabric.member_count(), 3);
}
