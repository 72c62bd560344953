//! Concurrency smoke tests for the serve front-end: `serve_batch` keeps
//! all simulation state local to the call and lanes behind `RwLock`s,
//! so any number of OS threads may drive the same [`Frontend`] — with
//! bounded queues shedding load — and the cumulative counters must add
//! up exactly.
//!
//! [`Frontend`]: pocket_cloudlets::core::frontend::Frontend

use std::sync::OnceLock;

use pocket_cloudlets::core::contentgen::{AdmissionPolicy, CacheContents};
use pocket_cloudlets::core::corpus::UniverseCorpus;
use pocket_cloudlets::core::frontend::{
    FrontServed, FrontendConfig, LaneTotals, OverflowPolicy, ServeRequest,
};
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
/// all of them home on lane 0 and its bounded queue overflows.
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

/// Eight OS threads hammer one `Reject` front-end at depth 2 with the
/// same hot-lane burst; every batch must shed exactly what one
/// reference batch sheds, and the cumulative lane counters must equal
/// eight reference batches exactly, rejections included.
#[test]
fn eight_threads_shed_exactly_what_one_batch_sheds() {
    const THREADS: usize = 8;
    let (engine, cached) = shared_engine();
    let shards = 4usize;
    let requests = hot_lane_burst(cached, shards as u64, 64);

    let config = FrontendConfig::builder()
        .queue_depth(2)
        .overflow(OverflowPolicy::Reject)
        .build();
    let frontend = search_frontend(engine, shards, config);

    // One reference batch on an identical front-end.
    let reference = search_frontend(engine, shards, config);
    let single = reference.serve_batch(&requests).expect("reference batch");
    let expected = single.report.totals();
    assert!(expected.rejected > 0, "the hot lane must overflow");
    let shed = |served: &[FrontServed]| -> Vec<bool> {
        served.iter().map(|s| s.outcome.is_err()).collect()
    };

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let batch = frontend.serve_batch(&requests).expect("threaded batch");
                assert_eq!(shed(&batch.served), shed(&single.served));
                assert_eq!(batch.report.lanes, single.report.lanes);
            });
        }
    });

    let lanes: Vec<LaneTotals> = frontend
        .telemetry()
        .lanes
        .iter()
        .map(|l| l.totals)
        .collect();
    for (lane, reference) in lanes.iter().zip(&single.report.lanes) {
        assert_eq!(*lane, LaneTotals::aggregate(&[*reference; THREADS]));
    }
    assert_eq!(
        LaneTotals::aggregate(&lanes).rejected,
        THREADS as u64 * expected.rejected
    );
}

/// One-request batches from many threads: hits ride the shared read
/// lock, and the per-lane counters still add up.
#[test]
fn concurrent_single_request_batches_count_up() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 32;
    let (engine, cached) = shared_engine();
    let frontend = search_frontend(engine, 4, FrontendConfig::default());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cached = &cached;
            let frontend = &frontend;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let key = cached[(t * PER_THREAD + i) % cached.len()];
                    let request = ServeRequest::new(t as u64, 0, key, SimInstant::ZERO);
                    let batch = frontend.serve_batch(&[request]).expect("cached keys serve");
                    let served = &batch.served[0];
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
