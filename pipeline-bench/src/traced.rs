//! `Traced<S>`: a [`CloudletService`] decorator that times every serve
//! and fast-path probe into its lane, from outside the lane.
//!
//! A traced run boxes `Traced<Lane>` into the [`Frontend`] where an
//! untraced run boxes the bare lane, so lane spans are children of
//! `Frontend::serve_batch` and the front-end's self time is the batch
//! span minus them. Lanes of one kind share one [`LaneSpans`]; the
//! front-end only ever calls a lane under its lane lock, but the spans
//! are atomics so the decorator stays `Sync` like the lane it wraps.
//!
//! [`Frontend`]: cloudlet_core::frontend::Frontend

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cloudlet_core::arbiter::DemandContext;
use cloudlet_core::coordination::{BudgetDemand, CloudletId};
use cloudlet_core::service::{
    CloudletError, CloudletService, ServeOutcome, ServeRequest, ServeStats,
};

use crate::spans::{log2_bucket, timed, Log2Histogram, SpanStats, LOG2_BUCKETS};

fn add(counter: &AtomicU64, n: u64) {
    // relaxed-ok: span counters are statistics read after the serve loop; they publish no other data
    counter.fetch_add(n, Ordering::Relaxed);
}

fn read(counter: &AtomicU64) -> u64 {
    // relaxed-ok: read once the serve loop has returned; no other data hangs off the value
    counter.load(Ordering::Relaxed)
}

fn zero(counter: &AtomicU64) {
    // relaxed-ok: cleared between set-up and the serve loop on the one benchmark thread
    counter.store(0, Ordering::Relaxed);
}

/// Lock-free span accumulator for one lane entry point.
#[derive(Debug)]
pub struct AtomicSpan {
    calls: AtomicU64,
    total_ns: AtomicU64,
    answered: AtomicU64,
    buckets: [AtomicU64; LOG2_BUCKETS],
}

impl Default for AtomicSpan {
    fn default() -> Self {
        AtomicSpan {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; LOG2_BUCKETS],
        }
    }
}

impl AtomicSpan {
    fn record(&self, ns: u64, answered: bool) {
        add(&self.calls, 1);
        add(&self.total_ns, ns);
        add(&self.answered, u64::from(answered));
        add(&self.buckets[log2_bucket(ns)], 1);
    }

    /// The spans recorded so far.
    pub fn stats(&self) -> SpanStats {
        SpanStats {
            calls: read(&self.calls),
            total_ns: read(&self.total_ns),
            child_ns: 0,
            histogram: Log2Histogram::from_counts(std::array::from_fn(|b| read(&self.buckets[b]))),
        }
    }

    /// Calls that produced an answer (for `try_serve_hit`: a hit).
    pub fn answered(&self) -> u64 {
        read(&self.answered)
    }

    fn clear(&self) {
        for counter in [&self.calls, &self.total_ns, &self.answered]
            .into_iter()
            .chain(&self.buckets)
        {
            zero(counter);
        }
    }
}

/// The spans of one lane kind's two serve entry points.
#[derive(Debug, Default)]
pub struct LaneSpans {
    /// [`CloudletService::serve`] calls.
    pub serve: AtomicSpan,
    /// [`CloudletService::try_serve_hit`] calls.
    pub try_serve_hit: AtomicSpan,
}

impl LaneSpans {
    /// Forgets everything recorded so far (the warm-up serves of
    /// set-up), so the spans cover the timed loop only.
    pub fn clear(&self) {
        self.serve.clear();
        self.try_serve_hit.clear();
    }
}

/// A lane wrapped so its serve entry points record spans into shared
/// [`LaneSpans`]. Every other trait method forwards untimed.
#[derive(Debug)]
pub struct Traced<S> {
    inner: S,
    spans: Arc<LaneSpans>,
}

impl<S> Traced<S> {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: S, spans: Arc<LaneSpans>) -> Self {
        Traced { inner, spans }
    }
}

impl<S: CloudletService> CloudletService for Traced<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
        let (result, ns) = timed(|| self.inner.serve(request));
        self.spans.serve.record(ns, result.is_ok());
        result
    }

    fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
        let (result, ns) = timed(|| self.inner.try_serve_hit(request));
        self.spans.try_serve_hit.record(ns, result.is_some());
        result
    }

    fn summary_keys(&self) -> Vec<u64> {
        self.inner.summary_keys()
    }

    fn service_stats(&self) -> ServeStats {
        self.inner.service_stats()
    }

    fn cache_bytes(&self) -> u64 {
        self.inner.cache_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn budget_demand(&self, cloudlet: CloudletId, ctx: &DemandContext) -> BudgetDemand {
        self.inner.budget_demand(cloudlet, ctx)
    }
}

#[cfg(test)]
mod tests {
    use mobsim::time::{SimDuration, SimInstant};

    use super::*;

    /// Even keys hit on the fast path; every serve misses 100 bytes.
    #[derive(Default)]
    struct Toy {
        stats: ServeStats,
    }

    impl CloudletService for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn serve(&mut self, _: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
            let outcome = ServeOutcome::miss(100).with_service(SimDuration::from_micros(7));
            self.stats.record(&outcome);
            Ok(outcome)
        }

        fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
            request.key.is_multiple_of(2).then(ServeOutcome::hit)
        }

        fn summary_keys(&self) -> Vec<u64> {
            vec![1, 2, 3]
        }

        fn service_stats(&self) -> ServeStats {
            self.stats
        }

        fn cache_bytes(&self) -> u64 {
            42
        }

        fn capacity_bytes(&self) -> u64 {
            99
        }
    }

    #[test]
    fn traced_forwards_every_method_and_counts_calls() {
        let spans = Arc::new(LaneSpans::default());
        let mut traced = Traced::new(Toy::default(), Arc::clone(&spans));
        let mut bare = Toy::default();
        for key in 0..10 {
            let request = ServeRequest::for_user(3, key, SimInstant::from_micros(key));
            assert_eq!(traced.try_serve_hit(&request), bare.try_serve_hit(&request));
            assert_eq!(traced.serve(&request), bare.serve(&request));
        }
        assert_eq!(traced.name(), "toy");
        assert_eq!(traced.service_stats(), bare.service_stats());
        assert_eq!(traced.summary_keys(), vec![1, 2, 3]);
        assert_eq!((traced.cache_bytes(), traced.capacity_bytes()), (42, 99));
        let ctx = DemandContext::equal_priority(0);
        assert_eq!(
            traced.budget_demand(CloudletId(4), &ctx),
            bare.budget_demand(CloudletId(4), &ctx)
        );

        assert_eq!(spans.serve.stats().calls, 10);
        assert_eq!(spans.serve.answered(), 10);
        assert_eq!(spans.try_serve_hit.stats().calls, 10);
        assert_eq!(spans.try_serve_hit.answered(), 5);
        assert_eq!(spans.try_serve_hit.stats().histogram.count(), 10);
    }
}
