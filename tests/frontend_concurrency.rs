//! Concurrency smoke tests for the serve front-end: `serve_batch` keeps
//! all simulation state local to the call and lanes behind `RwLock`s,
//! so any number of OS threads may drive the same [`Frontend`] — with
//! work stealing on — and the cumulative counters must add up exactly.

use std::sync::OnceLock;

use pocket_cloudlets::core::contentgen::{AdmissionPolicy, CacheContents};
use pocket_cloudlets::core::corpus::UniverseCorpus;
use pocket_cloudlets::core::frontend::{FrontendConfig, ServeRequest};
use pocket_cloudlets::mobsim::time::SimInstant;
use pocket_cloudlets::pocketsearch::config::PocketSearchConfig;
use pocket_cloudlets::pocketsearch::engine::{Catalog, PocketSearch};
use pocket_cloudlets::pocketsearch::fleet::search_frontend;
use pocket_cloudlets::querylog::generator::{GeneratorConfig, LogGenerator};
use pocket_cloudlets::querylog::triplets::TripletTable;

fn shared_engine() -> &'static (PocketSearch, Vec<u64>) {
    static ENGINE: OnceLock<(PocketSearch, Vec<u64>)> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 47);
        let month = generator.generate_month();
        let triplets = TripletTable::from_log(&month);
        let corpus = UniverseCorpus::new(generator.universe());
        let contents = CacheContents::generate(
            &triplets,
            &corpus,
            AdmissionPolicy::CumulativeShare { share: 0.55 },
        );
        let catalog = Catalog::new(generator.universe());
        let engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
        let cached = contents.pairs().iter().map(|p| p.query_hash).collect();
        (engine, cached)
    })
}

/// A hot-lane burst: every key is aligned to a multiple of `shards`, so
/// all of them home on lane 0 and work stealing has something to move.
/// (Aligning changes the hash, so most keys are misses — the expensive
/// kind of traffic, which is exactly what piles a queue up.)
fn hot_lane_burst(cached: &[u64], shards: u64, n: u64) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            let base = if i % 2 == 0 {
                cached[(i / 2) as usize % cached.len()]
            } else {
                (i * shards) | 1 << 63
            };
            ServeRequest::new(i, 0, base - (base % shards), SimInstant::ZERO)
        })
        .collect()
}

/// Eight OS threads hammer one work-stealing front-end with the same
/// hot-lane batch; every batch must steal, none may shed, and the
/// cumulative lane counters must equal exactly eight single batches.
#[test]
fn eight_threads_steal_work_without_losing_counts() {
    const THREADS: u64 = 8;
    let (engine, cached) = shared_engine();
    let shards = 4usize;
    let requests = hot_lane_burst(cached, shards as u64, 64);

    let config = FrontendConfig::builder()
        .queue_depth(2)
        .work_stealing(true)
        .build();
    let (_, frontend) = search_frontend(engine, shards, config);

    // One reference batch on an identical front-end.
    let (_, reference) = search_frontend(engine, shards, config);
    let single = reference.serve_batch(&requests).expect("reference batch");
    let expected = single.report.totals();
    assert!(expected.stolen > 0, "the hot lane must overflow");
    assert_eq!(expected.rejected, 0, "stealing absorbs the burst");

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let batch = frontend.serve_batch(&requests).expect("threaded batch");
                let totals = batch.report.totals();
                assert_eq!(totals.events, requests.len() as u64);
                assert_eq!(totals.rejected, 0);
                assert_eq!(totals.hits, expected.hits);
            });
        }
    });

    let totals = frontend.telemetry().aggregate();
    assert_eq!(totals.events, THREADS * requests.len() as u64);
    assert_eq!(totals.hits, THREADS * expected.hits);
    assert_eq!(totals.misses, THREADS * expected.misses);
    assert_eq!(totals.rejected, 0);
    assert_eq!(totals.errors, 0);
}

/// `serve_one` from many threads: hits ride the shared read lock, and
/// the per-lane counters still add up.
#[test]
fn concurrent_serve_one_counts_add_up() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 32;
    let (engine, cached) = shared_engine();
    let (_, frontend) = search_frontend(engine, 4, FrontendConfig::default());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cached = &cached;
            let frontend = &frontend;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let key = cached[(t * PER_THREAD + i) % cached.len()];
                    let served = frontend
                        .serve_one(ServeRequest::new(t as u64, 0, key, SimInstant::ZERO))
                        .expect("cached keys serve");
                    assert!(served.hit(), "community keys are hits");
                    assert!(served.fast_path, "hits take the shared-read path");
                }
            });
        }
    });

    let totals = frontend.telemetry().aggregate();
    assert_eq!(totals.events, (THREADS * PER_THREAD) as u64);
    assert_eq!(totals.hits, (THREADS * PER_THREAD) as u64);
}
