//! The pipelined serving front-end: bounded queues, duplicate-key
//! coalescing, and a read-optimized hit path.
//!
//! [`Frontend`] is the one serve path: a set of [`CloudletService`]
//! lanes grouped by service, where request `(service, key)` routes to
//! lane `key % group_len` of group `service`. A plain lane drains
//! serially behind an exclusive lock, so even pure cache hits — ~66% of
//! traffic per the paper's §4 — would pay that lock, and a burst of
//! identical queries would pay the full serve cost N times. The
//! front-end adds the mechanisms an edge front-end under bursty,
//! time-varying load needs:
//!
//! * **Bounded admission with backpressure.** Each lane owns a bounded
//!   queue of exclusive (write-path) serves. When a request arrives and
//!   its lane's queue is full, the configured [`OverflowPolicy`] either
//!   *rejects* it with a typed [`CloudletError::QueueFull`] or *parks*
//!   it until a slot drains. Rejection is deterministic in the request
//!   stream, so shed load is reproducible.
//! * **Duplicate-key coalescing.** Within a batch window, N requests
//!   for the same `(service, key)` cost one underlying serve: the first
//!   becomes the *leader*, the rest are *followers* that receive the
//!   leader's outcome and complete when it does. Stats count N lookups
//!   and one underlying serve. (Exact for replica/read-only lanes such
//!   as search shards, where re-serving a key is idempotent; stateful
//!   lanes see the leader's outcome fanned out, which is what a real
//!   coalescing front-end does.)
//! * **A shared-lock hit path.** Lanes sit behind a rank-checked
//!   `OrderedRwLock` (rank [`crate::lockrank::FRONT_LANE`]). In
//!   [`HitPathMode::SharedRead`] every request first consults
//!   [`CloudletService::try_serve_hit`] under a *read* lock; only
//!   misses and mutating serves take the write lock. Hits run on a
//!   small read-worker pool instead of the lane's serial queue, so they
//!   never wait behind a 6-second radio miss.
//! * **Work stealing.** When a lane's queue runs deep while a sibling
//!   in the same service group idles, the request is admitted on the
//!   sibling instead. Only meaningful for groups whose lanes are
//!   replicas over shared state (search shards route lookups through
//!   the shared, immutable [`crate::shard::ShardedTable`], so any shard
//!   serves any key identically); disabled by default.
//!
//! # Timing model
//!
//! Like the rest of the workspace, the front-end never consults the
//! host clock. [`Frontend::serve_batch`] executes serves inline (in
//! request order, which preserves per-lane serve order for stateful
//! cloudlets) and runs a deterministic discrete-event simulation over
//! the outcomes' simulated service times: each lane is one exclusive
//! server draining its bounded queue FIFO; shared-read hits run on a
//! `read_workers`-wide pool; followers complete with their leader.
//! Every completion instant, queue wait, and the batch makespan are
//! pure functions of the request stream and the configuration, so
//! reports are bit-reproducible across machines. With
//! [`FrontendConfig::pr3_baseline`] the model collapses to a per-lane
//! serial drain — makespan = busiest lane's summed service time — which
//! is what the ablation studies use as their baseline.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use analysis::sync::OrderedRwLock;

use mobsim::time::{SimDuration, SimInstant};

use crate::arbiter::{AdaptiveArbiter, BudgetDecision, EpochObservation};
use crate::coordination::CloudletId;
use crate::counters::CounterSet;
use crate::peer::{PeerConfig, PeerConsult, PeerFabric};
use crate::service::ServeRequest as ServiceRequest;
use crate::service::{
    CloudletError, CloudletService, ServeKind, ServeOutcome, ServeSource, ServeStats,
};

/// One request to the front-end: a user asking one service for one key
/// at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRequest {
    /// The requesting user. Passed through to the cloudlet's
    /// user-aware serve path; under [`RouteBy::User`] it also picks the
    /// lane, giving every user a home lane for their personalization
    /// state.
    pub user: u64,
    /// Service group index.
    pub service: u32,
    /// Service-defined key; under [`RouteBy::Key`] (the default) routes
    /// to lane `key % group_len` within the group unless work stealing
    /// redirects it.
    pub key: u64,
    /// Simulated arrival instant. Requests should be batch-ordered by
    /// non-decreasing `at` for the queue model to be meaningful (a
    /// batch of simultaneous arrivals — all [`SimInstant::ZERO`] — is
    /// the common case and is fine).
    pub at: SimInstant,
}

impl ServeRequest {
    /// A request for service group `service`.
    pub fn new(user: u64, service: u32, key: u64, at: SimInstant) -> Self {
        ServeRequest {
            user,
            service,
            key,
            at,
        }
    }

    /// The service-layer request this routing request dispatches as
    /// once a lane has been picked: the service-group index is the
    /// front-end's business and is dropped at the waist.
    fn service_request(&self) -> ServiceRequest {
        ServiceRequest::for_user(self.user, self.key, self.at)
    }
}

/// How the front-end treats cache hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitPathMode {
    /// Every request takes the lane's write lock and serial queue — the
    /// per-lane serial drain of [`FrontendConfig::pr3_baseline`].
    Exclusive,
    /// Requests first try [`CloudletService::try_serve_hit`] under a
    /// shared read lock; hits run on the read-worker pool and never
    /// enter the bounded exclusive queue.
    SharedRead,
}

/// Which request field picks the home lane within a service group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteBy {
    /// `key % group_len` — spreads one user's keys across lanes
    /// (shard-style replicas; the PR 3/4 behaviour).
    Key,
    /// `user % group_len` — pins each user to one lane, so per-user
    /// state (a population lane's personalization deltas) lives exactly
    /// once instead of once per lane the user's keys landed on.
    User,
}

/// What happens to a request whose lane queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Shed it: the request fails with [`CloudletError::QueueFull`] and
    /// is never served.
    Reject,
    /// Park it until a queue slot drains, charging the wait. Nothing is
    /// ever shed.
    Park,
}

/// Front-end configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Bounded depth of each lane's exclusive serve queue (admitted but
    /// not yet completed requests).
    pub queue_depth: usize,
    /// Whether duplicate `(service, key)` requests within a window
    /// coalesce onto one underlying serve.
    pub coalescing: bool,
    /// Length (in requests) of the coalescing window; duplicates only
    /// coalesce onto a leader in the same window. `usize::MAX` treats
    /// the whole batch as one window.
    pub coalesce_window: usize,
    /// Hit-path mode.
    pub hit_path: HitPathMode,
    /// Overflow policy for full lane queues.
    pub overflow: OverflowPolicy,
    /// Steal to an idler sibling lane of the same group when the home
    /// lane's queue is full. Enable only for replica lane groups —
    /// never with [`RouteBy::User`], which exists to keep a user's
    /// state on one lane.
    pub work_stealing: bool,
    /// Width of the shared-read worker pool serving fast-path hits.
    pub read_workers: usize,
    /// Which request field picks the home lane.
    pub route_by: RouteBy,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            queue_depth: 64,
            coalescing: true,
            coalesce_window: usize::MAX,
            hit_path: HitPathMode::SharedRead,
            overflow: OverflowPolicy::Park,
            work_stealing: false,
            read_workers: 4,
            route_by: RouteBy::Key,
        }
    }
}

impl FrontendConfig {
    /// Starts a builder seeded with [`FrontendConfig::default`]. The
    /// builder is the supported construction surface — it validates on
    /// [`FrontendConfigBuilder::build`] instead of at first use, so a
    /// bad configuration fails where it was written.
    pub fn builder() -> FrontendConfigBuilder {
        FrontendConfigBuilder {
            config: FrontendConfig::default(),
        }
    }

    /// Re-opens this configuration as a builder, for deriving variants
    /// from a preset (`FrontendConfig::pr3_baseline().to_builder()...`).
    pub fn to_builder(self) -> FrontendConfigBuilder {
        FrontendConfigBuilder { config: self }
    }

    /// The plain sharded baseline: exclusive locks for everything, no
    /// coalescing, no stealing, and a queue deep enough that nothing is
    /// ever shed or parked. Under this config a batch of simultaneous
    /// arrivals has a makespan equal to the busiest lane's summed
    /// simulated service time, so it is the baseline every ablation
    /// compares against.
    pub fn pr3_baseline() -> Self {
        FrontendConfig {
            queue_depth: usize::MAX,
            coalescing: false,
            coalesce_window: usize::MAX,
            hit_path: HitPathMode::Exclusive,
            overflow: OverflowPolicy::Park,
            work_stealing: false,
            read_workers: 1,
            route_by: RouteBy::Key,
        }
    }

    fn validate(&self) {
        assert!(self.queue_depth > 0, "queue depth must be at least 1");
        assert!(self.coalesce_window > 0, "coalesce window must be >= 1");
        assert!(self.read_workers > 0, "the read pool needs a worker");
    }
}

/// Fluent construction of a [`FrontendConfig`].
///
/// Seeded from [`FrontendConfig::builder`] (defaults) or
/// [`FrontendConfig::to_builder`] (a preset); every setter replaces one
/// field and [`FrontendConfigBuilder::build`] validates the result.
///
/// ```
/// use cloudlet_core::frontend::{FrontendConfig, OverflowPolicy};
///
/// let config = FrontendConfig::builder()
///     .queue_depth(8)
///     .coalescing(false)
///     .overflow(OverflowPolicy::Reject)
///     .build();
/// assert_eq!(config.queue_depth, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfigBuilder {
    config: FrontendConfig,
}

impl FrontendConfigBuilder {
    /// Sets the bounded depth of each lane's exclusive serve queue.
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Enables or disables duplicate-key coalescing.
    #[must_use]
    pub fn coalescing(mut self, coalescing: bool) -> Self {
        self.config.coalescing = coalescing;
        self
    }

    /// Sets the coalescing window length, in requests.
    #[must_use]
    pub fn coalesce_window(mut self, window: usize) -> Self {
        self.config.coalesce_window = window;
        self
    }

    /// Sets the hit-path mode.
    #[must_use]
    pub fn hit_path(mut self, hit_path: HitPathMode) -> Self {
        self.config.hit_path = hit_path;
        self
    }

    /// Sets the overflow policy for full lane queues.
    #[must_use]
    pub fn overflow(mut self, overflow: OverflowPolicy) -> Self {
        self.config.overflow = overflow;
        self
    }

    /// Enables or disables stealing to sibling lanes.
    #[must_use]
    pub fn work_stealing(mut self, work_stealing: bool) -> Self {
        self.config.work_stealing = work_stealing;
        self
    }

    /// Sets the width of the shared-read worker pool.
    #[must_use]
    pub fn read_workers(mut self, read_workers: usize) -> Self {
        self.config.read_workers = read_workers;
        self
    }

    /// Sets which request field picks the home lane.
    #[must_use]
    pub fn route_by(mut self, route_by: RouteBy) -> Self {
        self.config.route_by = route_by;
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (zero queue depth,
    /// window, or read pool).
    pub fn build(self) -> FrontendConfig {
        self.config.validate();
        self.config
    }
}

/// Monotonic per-lane counters, updated lock-free through the shared
/// [`CounterSet`] bank (which owns the memory-ordering argument).
#[derive(Debug, Default)]
struct FrontCounters(CounterSet<13>);

impl FrontCounters {
    const EVENTS: usize = 0;
    const HITS: usize = 1;
    const STALE_HITS: usize = 2;
    const MISSES: usize = 3;
    const SKIPPED: usize = 4;
    const ERRORS: usize = 5;
    const REJECTED: usize = 6;
    const COALESCED: usize = 7;
    const STOLEN: usize = 8;
    const RADIO_BYTES: usize = 9;
    const BUSY_MICROS: usize = 10;
    const PEER_HITS: usize = 11;
    const PEER_BYTES: usize = 12;

    fn record_outcome(&self, outcome: &ServeOutcome, coalesced: bool, stolen: bool) {
        self.0.bump(Self::EVENTS, 1);
        let bucket = match outcome.kind {
            ServeKind::Hit => Self::HITS,
            ServeKind::StaleHit => Self::STALE_HITS,
            ServeKind::Miss => Self::MISSES,
            ServeKind::Skipped => Self::SKIPPED,
        };
        self.0.bump(bucket, 1);
        // Followers count with their leader's outcome (like hits), but
        // the peer link only carried the leader's bytes.
        if outcome.source == ServeSource::Peer {
            self.0.bump(Self::PEER_HITS, 1);
        }
        if coalesced {
            self.0.bump(Self::COALESCED, 1);
        } else {
            // Followers ride the leader's serve: no radio, no busy time.
            self.0.bump(Self::RADIO_BYTES, outcome.radio_bytes);
            self.0.bump(Self::PEER_BYTES, outcome.peer_bytes);
            self.0.bump(Self::BUSY_MICROS, outcome.service.as_micros());
        }
        if stolen {
            self.0.bump(Self::STOLEN, 1);
        }
    }

    fn record_error(&self, rejected: bool) {
        self.0.bump(Self::EVENTS, 1);
        if rejected {
            self.0.bump(Self::REJECTED, 1);
        } else {
            self.0.bump(Self::ERRORS, 1);
        }
    }

    fn snapshot(&self) -> LaneTotals {
        LaneTotals {
            events: self.0.peek(Self::EVENTS),
            hits: self.0.peek(Self::HITS),
            stale_hits: self.0.peek(Self::STALE_HITS),
            misses: self.0.peek(Self::MISSES),
            skipped: self.0.peek(Self::SKIPPED),
            errors: self.0.peek(Self::ERRORS),
            rejected: self.0.peek(Self::REJECTED),
            coalesced: self.0.peek(Self::COALESCED),
            stolen: self.0.peek(Self::STOLEN),
            radio_bytes: self.0.peek(Self::RADIO_BYTES),
            peer_hits: self.0.peek(Self::PEER_HITS),
            peer_bytes: self.0.peek(Self::PEER_BYTES),
            busy: SimDuration::from_micros(self.0.peek(Self::BUSY_MICROS)),
        }
    }
}

/// One lane's cumulative front-end totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneTotals {
    /// Requests routed to (or stolen by) this lane, including rejected
    /// and coalesced ones.
    pub events: u64,
    /// Local hits.
    pub hits: u64,
    /// Stale hits.
    pub stale_hits: u64,
    /// Radio misses.
    pub misses: u64,
    /// Declined consultations.
    pub skipped: u64,
    /// Typed serve errors (excluding queue rejections).
    pub errors: u64,
    /// Requests shed with [`CloudletError::QueueFull`].
    pub rejected: u64,
    /// Follower requests that rode another request's serve.
    pub coalesced: u64,
    /// Requests admitted here after overflowing their home lane.
    pub stolen: u64,
    /// Radio bytes of underlying serves (followers charge nothing).
    pub radio_bytes: u64,
    /// Requests answered by a cell peer instead of the radio
    /// ([`ServeSource::Peer`]) — a subset of `hits`.
    pub peer_hits: u64,
    /// Peer-link bytes of underlying serves: fetched records plus
    /// wasted false-positive probes (followers charge nothing).
    pub peer_bytes: u64,
    /// Summed simulated service time of underlying serves.
    pub busy: SimDuration,
}

impl LaneTotals {
    /// Sums a set of lane totals into one aggregate.
    pub fn aggregate(lanes: &[LaneTotals]) -> LaneTotals {
        let mut total = LaneTotals::default();
        for lane in lanes {
            total.merge(lane);
        }
        total
    }

    /// The counters accumulated since `earlier` was snapshotted, as a
    /// field-wise saturating difference — how the adaptive arbiter
    /// turns cumulative [`Frontend::telemetry`] snapshots into
    /// per-epoch observations.
    #[must_use]
    pub fn delta_since(&self, earlier: &LaneTotals) -> LaneTotals {
        LaneTotals {
            events: self.events.saturating_sub(earlier.events),
            hits: self.hits.saturating_sub(earlier.hits),
            stale_hits: self.stale_hits.saturating_sub(earlier.stale_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            skipped: self.skipped.saturating_sub(earlier.skipped),
            errors: self.errors.saturating_sub(earlier.errors),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            stolen: self.stolen.saturating_sub(earlier.stolen),
            radio_bytes: self.radio_bytes.saturating_sub(earlier.radio_bytes),
            peer_hits: self.peer_hits.saturating_sub(earlier.peer_hits),
            peer_bytes: self.peer_bytes.saturating_sub(earlier.peer_bytes),
            busy: self.busy.saturating_sub(earlier.busy),
        }
    }

    fn merge(&mut self, other: &LaneTotals) {
        self.events += other.events;
        self.hits += other.hits;
        self.stale_hits += other.stale_hits;
        self.misses += other.misses;
        self.skipped += other.skipped;
        self.errors += other.errors;
        self.rejected += other.rejected;
        self.coalesced += other.coalesced;
        self.stolen += other.stolen;
        self.radio_bytes += other.radio_bytes;
        self.peer_hits += other.peer_hits;
        self.peer_bytes += other.peer_bytes;
        self.busy += other.busy;
    }
}

/// How one request fared through the front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontServed {
    /// The service-layer outcome, or the typed error ([`CloudletError::
    /// QueueFull`] for shed requests).
    pub outcome: Result<ServeOutcome, CloudletError>,
    /// The lane that served (or would have served) it.
    pub lane: usize,
    /// Whether this request was a follower riding a leader's serve.
    pub coalesced: bool,
    /// Whether it was admitted on a sibling lane by work stealing.
    pub stolen: bool,
    /// Whether it was answered on the shared-read fast path.
    pub fast_path: bool,
    /// Simulated time spent queued before its serve started (or before
    /// its leader completed, for followers).
    pub queue_wait: SimDuration,
    /// Simulated completion instant (equals arrival for rejections).
    pub completed_at: SimInstant,
}

impl FrontServed {
    /// Whether the request was served as a pure local hit.
    pub fn hit(&self) -> bool {
        matches!(
            self.outcome,
            Ok(ServeOutcome {
                kind: ServeKind::Hit,
                ..
            })
        )
    }
}

/// Batch-level report: counts, simulated makespan, throughput, and the
/// queue-wait distribution. Every figure is simulated — nothing depends
/// on the host machine.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendReport {
    /// Per-lane totals for this batch, indexed by global lane index.
    pub lanes: Vec<LaneTotals>,
    /// Simulated time from the earliest arrival to the last completion.
    pub makespan: SimDuration,
    /// Median simulated queue wait across served requests.
    pub queue_wait_p50: SimDuration,
    /// 99th-percentile simulated queue wait across served requests.
    pub queue_wait_p99: SimDuration,
    /// Worst simulated queue wait across served requests.
    pub queue_wait_max: SimDuration,
}

impl FrontendReport {
    /// Requests that entered the front-end (served + rejected + errors).
    pub fn events(&self) -> u64 {
        self.lanes.iter().map(|l| l.events).sum()
    }

    /// Pure local hits.
    pub fn hits(&self) -> u64 {
        self.lanes.iter().map(|l| l.hits).sum()
    }

    /// Stale hits.
    pub fn stale_hits(&self) -> u64 {
        self.lanes.iter().map(|l| l.stale_hits).sum()
    }

    /// Radio misses.
    pub fn misses(&self) -> u64 {
        self.lanes.iter().map(|l| l.misses).sum()
    }

    /// Declined consultations.
    pub fn skipped(&self) -> u64 {
        self.lanes.iter().map(|l| l.skipped).sum()
    }

    /// Typed serve errors (excluding queue rejections).
    pub fn errors(&self) -> u64 {
        self.lanes.iter().map(|l| l.errors).sum()
    }

    /// Requests shed by backpressure.
    pub fn rejected(&self) -> u64 {
        self.lanes.iter().map(|l| l.rejected).sum()
    }

    /// Follower requests that rode a coalesced serve.
    pub fn coalesced(&self) -> u64 {
        self.lanes.iter().map(|l| l.coalesced).sum()
    }

    /// Requests admitted on a sibling lane by work stealing.
    pub fn stolen(&self) -> u64 {
        self.lanes.iter().map(|l| l.stolen).sum()
    }

    /// Radio bytes across underlying serves.
    pub fn radio_bytes(&self) -> u64 {
        self.lanes.iter().map(|l| l.radio_bytes).sum()
    }

    /// Requests a cell peer answered instead of the radio (a subset of
    /// [`FrontendReport::hits`]).
    pub fn peer_hits(&self) -> u64 {
        self.lanes.iter().map(|l| l.peer_hits).sum()
    }

    /// Peer-link bytes across underlying serves (fetches plus wasted
    /// false-positive probes).
    pub fn peer_bytes(&self) -> u64 {
        self.lanes.iter().map(|l| l.peer_bytes).sum()
    }

    /// Requests that actually completed (everything but rejections and
    /// errors).
    pub fn served(&self) -> u64 {
        self.events() - self.rejected() - self.errors()
    }

    /// Underlying serves: completed requests minus coalesced followers.
    pub fn unique_serves(&self) -> u64 {
        self.served() - self.coalesced()
    }

    /// Aggregate pure-hit ratio over attempted requests (skips,
    /// rejections, and errors excluded from the denominator). Followers
    /// count with their leader's outcome, so coalescing never moves
    /// this number.
    pub fn hit_rate(&self) -> f64 {
        let attempted = self.served() - self.skipped();
        if attempted == 0 {
            0.0
        } else {
            self.hits() as f64 / attempted as f64
        }
    }

    /// Summed simulated service time across underlying serves.
    pub fn total_busy(&self) -> SimDuration {
        self.lanes.iter().map(|l| l.busy).sum()
    }

    /// Serving throughput in completed requests per simulated second:
    /// `served / makespan`.
    pub fn throughput_qps(&self) -> f64 {
        let makespan = self.makespan.as_secs_f64();
        if makespan == 0.0 {
            0.0
        } else {
            self.served() as f64 / makespan
        }
    }
}

/// Result of one [`Frontend::serve_batch`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendBatch {
    /// Per-request dispositions, in input order.
    pub served: Vec<FrontServed>,
    /// The batch-level report.
    pub report: FrontendReport,
}

/// One lane's unified telemetry: the front-end's own counters plus the
/// cloudlet's serve-path statistics, side by side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneTelemetry {
    /// Global lane index.
    pub lane: usize,
    /// The cloudlet's stable name.
    pub name: &'static str,
    /// Cumulative front-end totals since construction (the
    /// authoritative view — it counts fast-path hits).
    pub totals: LaneTotals,
    /// Serve-path statistics straight from the cloudlet. Fast-path hits
    /// are *not* in here: `try_serve_hit` cannot touch the cloudlet's
    /// own counters, so under [`HitPathMode::SharedRead`] these reflect
    /// only exclusive serves.
    pub stats: ServeStats,
    /// Bytes of device memory the lane's cloudlet occupies right now
    /// ([`CloudletService::cache_bytes`]) — the per-lane term of a
    /// population study's resident-memory accounting.
    pub cache_bytes: u64,
}

/// The front-end's whole telemetry surface in one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendTelemetry {
    /// Per-lane telemetry, indexed by global lane index.
    pub lanes: Vec<LaneTelemetry>,
}

impl FrontendTelemetry {
    /// All lanes summed into one [`LaneTotals`].
    pub fn aggregate(&self) -> LaneTotals {
        let totals: Vec<LaneTotals> = self.lanes.iter().map(|l| l.totals).collect();
        LaneTotals::aggregate(&totals)
    }

    /// Requests shed with [`CloudletError::QueueFull`], across lanes.
    pub fn shed(&self) -> u64 {
        self.lanes.iter().map(|l| l.totals.rejected).sum()
    }

    /// Just the per-lane front-end totals.
    pub fn lane_totals(&self) -> Vec<LaneTotals> {
        self.lanes.iter().map(|l| l.totals).collect()
    }

    /// Just the per-lane serve-path stats.
    pub fn lane_stats(&self) -> Vec<ServeStats> {
        self.lanes.iter().map(|l| l.stats).collect()
    }
}

/// One serving lane: a cloudlet behind a rank-checked read/write lock
/// (shared for fast-path hits, exclusive for everything else), with
/// lock-free counters beside it. The lane lock is the outermost lock
/// in the serve path; the sharded index a serve reads below it is
/// immutable and takes no lock (see [`crate::lockrank`]).
struct FrontLane {
    service: OrderedRwLock<Box<dyn CloudletService + Send + Sync>>,
    counters: FrontCounters,
}

impl std::fmt::Debug for FrontLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontLane")
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

/// Per-lane discrete-event state local to one `serve_batch` call.
struct LaneSim {
    /// When the lane's single exclusive server frees up.
    busy_until: SimInstant,
    /// Completion instants of admitted-but-unfinished exclusive serves,
    /// in FIFO (= completion) order.
    queue: VecDeque<SimInstant>,
}

impl LaneSim {
    fn new() -> Self {
        LaneSim {
            busy_until: SimInstant::ZERO,
            queue: VecDeque::new(),
        }
    }

    /// Queue occupancy at instant `t`: serves admitted whose completion
    /// is still in the future. Drains finished entries.
    fn occupancy_at(&mut self, t: SimInstant) -> usize {
        while self.queue.front().is_some_and(|&done| done <= t) {
            self.queue.pop_front();
        }
        self.queue.len()
    }
}

/// A remembered leader serve a follower can ride.
struct CoalesceEntry {
    lane: usize,
    outcome: ServeOutcome,
    completion: SimInstant,
}

/// One lane's membership in a cooperative peer cell: which fabric it
/// gossips its summary to, and the device id it registered under.
#[derive(Debug, Clone)]
struct PeerLink {
    fabric: Arc<PeerFabric>,
    device: u64,
}

/// The pipelined serving front-end. See the module docs for the model.
///
/// The front-end is `Sync`: [`Frontend::serve_one`] and
/// [`Frontend::serve_batch`] may be called from any number of threads.
/// Fast-path hits contend only on a shared read lock; all simulation
/// state is local to each `serve_batch` call, so concurrent batches
/// interleave safely (their per-lane serve order interleaves too, which
/// is fine for replica lanes and the usual caveat for stateful ones).
#[derive(Debug)]
pub struct Frontend {
    config: FrontendConfig,
    /// `groups[service]` lists the global lane indices of that service.
    groups: Vec<Vec<usize>>,
    lanes: Vec<FrontLane>,
    /// `peers[lane]` is the lane's cell membership, when
    /// [`Frontend::attach_peer_cells`] wired one up.
    peers: Vec<Option<PeerLink>>,
}

impl Frontend {
    /// Builds a front-end: `groups[i]` becomes service group `i`, each
    /// boxed cloudlet one lane, numbered globally in group order.
    ///
    /// # Panics
    ///
    /// Panics when any group is empty or the configuration is invalid
    /// (zero queue depth, window, or read pool).
    pub fn new(
        groups: Vec<Vec<Box<dyn CloudletService + Send + Sync>>>,
        config: FrontendConfig,
    ) -> Self {
        config.validate();
        let mut lane_groups = Vec::with_capacity(groups.len());
        let mut lanes = Vec::new();
        for group in groups {
            assert!(!group.is_empty(), "every service group needs a lane");
            let mut indices = Vec::with_capacity(group.len());
            for service in group {
                indices.push(lanes.len());
                lanes.push(FrontLane {
                    service: OrderedRwLock::new(crate::lockrank::FRONT_LANE, "front_lane", service),
                    counters: FrontCounters::default(),
                });
            }
            lane_groups.push(indices);
        }
        let peers = vec![None; lanes.len()];
        Frontend {
            config,
            groups: lane_groups,
            lanes,
            peers,
        }
    }

    /// Wires one service group's lanes into cooperative peer cells of
    /// `cell_size` contiguous lanes each (the last cell may be
    /// smaller), registering every lane's
    /// [`CloudletService::summary_keys`] inventory under its global
    /// lane index as the device id. From then on a local miss consults
    /// the cell before the radio; re-wiring a group replaces its
    /// previous cells.
    ///
    /// `cell_size == 1` degenerates to solo cells: the only member of
    /// each fabric is its own requester, so every consult falls through
    /// untouched and the no-fabric telemetry is reproduced bit for bit.
    ///
    /// Returns the cells for telemetry ([`PeerFabric::telemetry`]).
    ///
    /// # Panics
    ///
    /// Panics when the service group does not exist or `cell_size` is
    /// zero.
    pub fn attach_peer_cells(
        &mut self,
        service: u32,
        cell_size: usize,
        config: PeerConfig,
    ) -> Vec<Arc<PeerFabric>> {
        assert!(cell_size > 0, "a peer cell needs at least one device");
        let group = self.groups[service as usize].clone();
        let mut cells = Vec::new();
        for chunk in group.chunks(cell_size) {
            let fabric = Arc::new(PeerFabric::new(config));
            for &lane in chunk {
                let keys = self.lanes[lane].service.read().summary_keys();
                fabric.register(lane as u64, &keys);
                self.peers[lane] = Some(PeerLink {
                    fabric: Arc::clone(&fabric),
                    device: lane as u64,
                });
            }
            cells.push(fabric);
        }
        cells
    }

    /// Re-registers every cell-attached lane's summary from its current
    /// [`CloudletService::summary_keys`] inventory — the epoch-grained
    /// refresh that keeps summaries tracking personalization churn.
    /// Each lane's read guard is dropped before its fabric registers,
    /// keeping the lane-then-fabric lock order trivially rank-legal.
    pub fn refresh_peer_summaries(&self) {
        for (lane, link) in self.peers.iter().enumerate() {
            if let Some(link) = link {
                let keys = self.lanes[lane].service.read().summary_keys();
                link.fabric.register(link.device, &keys);
            }
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// Total lane count across all groups.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Number of service groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The stable name of the cloudlet behind lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn lane_name(&self, lane: usize) -> &'static str {
        self.lanes[lane].service.read().name()
    }

    /// One unified snapshot of everything the front-end measures:
    /// per-lane front-end totals *and* serve-path stats, with aggregate
    /// and shed-count accessors on the result.
    pub fn telemetry(&self) -> FrontendTelemetry {
        FrontendTelemetry {
            lanes: self
                .lanes
                .iter()
                .enumerate()
                .map(|(lane, l)| {
                    let service = l.service.read();
                    LaneTelemetry {
                        lane,
                        name: service.name(),
                        totals: l.counters.snapshot(),
                        stats: service.service_stats(),
                        cache_bytes: service.cache_bytes(),
                    }
                })
                .collect(),
        }
    }

    /// Runs one adaptive arbitration epoch if `now` has crossed the
    /// arbiter's next epoch boundary; returns `None` between epochs.
    ///
    /// This is the deterministic simulated-time schedule the module
    /// docs promise: the batch loop calls `arbitrate` with its current
    /// simulated instant (e.g. each batch's last completion), the
    /// arbiter diffs the cumulative [`Frontend::telemetry`] snapshot
    /// into per-epoch deltas, and every lane's
    /// [`CloudletService::budget_demand`] is consulted under its read
    /// lock with a [`crate::arbiter::DemandContext`] carrying that
    /// lane's telemetry. Lane `i` is identified as `CloudletId(i)`.
    pub fn arbitrate(
        &self,
        arbiter: &mut AdaptiveArbiter,
        now: SimInstant,
    ) -> Option<BudgetDecision> {
        if !arbiter.epoch_due(now) {
            return None;
        }
        let telemetry = self.telemetry();
        let observations: Vec<EpochObservation> = telemetry
            .lanes
            .iter()
            .map(|l| EpochObservation::new(CloudletId(l.lane as u32), l.totals, l.stats))
            .collect();
        Some(arbiter.observe_cumulative(now, &observations, |id, ctx| {
            self.lanes[id.0 as usize]
                .service
                .read()
                .budget_demand(id, ctx)
        }))
    }

    /// The home lane a request routes to before stealing.
    ///
    /// # Errors
    ///
    /// [`CloudletError::UnknownService`] when the request names a
    /// service group the front-end does not host.
    pub fn lane_of(&self, request: &ServeRequest) -> Result<usize, CloudletError> {
        let group = self
            .groups
            .get(request.service as usize)
            .filter(|g| !g.is_empty())
            .ok_or(CloudletError::UnknownService {
                service: request.service,
            })?;
        let selector = match self.config.route_by {
            RouteBy::Key => request.key,
            RouteBy::User => request.user,
        };
        Ok(group[(selector % group.len() as u64) as usize])
    }

    /// Serves the request on `lane`, trying the shared-read fast path
    /// first when configured — unless `probed` says the caller already
    /// tried it on this lane for this request and was declined. Returns
    /// the outcome and whether the fast path answered.
    ///
    /// When the lane belongs to a peer cell, a local radio miss first
    /// consults the cell *after* the lane guard is dropped: a peer hit
    /// replaces the miss outright; a fruitless consult charges its
    /// wasted false-positive probes onto the radio outcome.
    fn execute(
        &self,
        lane: usize,
        request: &ServeRequest,
        probed: bool,
    ) -> (Result<ServeOutcome, CloudletError>, bool) {
        let service_request = request.service_request();
        if self.config.hit_path == HitPathMode::SharedRead && !probed {
            let fast = {
                let service = self.lanes[lane].service.read();
                service.try_serve_hit(&service_request)
            };
            if let Some(outcome) = fast {
                return (Ok(outcome), true);
            }
        }
        let result = {
            let mut service = self.lanes[lane].service.write();
            service.serve(&service_request)
        };
        (self.consult_peers(lane, request.key, result), false)
    }

    /// The cooperative middle tier: folds a cell consult into a local
    /// radio-miss outcome. Non-misses, error results, and lanes outside
    /// any cell pass through untouched.
    fn consult_peers(
        &self,
        lane: usize,
        key: u64,
        result: Result<ServeOutcome, CloudletError>,
    ) -> Result<ServeOutcome, CloudletError> {
        let Some(link) = &self.peers[lane] else {
            return result;
        };
        let Ok(outcome) = result else {
            return result;
        };
        if outcome.kind != ServeKind::Miss {
            return Ok(outcome);
        }
        match link.fabric.consult(link.device, key) {
            PeerConsult::Hit {
                outcome: peer_outcome,
                ..
            } => Ok(peer_outcome.with_flags(outcome.flags)),
            PeerConsult::Miss {
                wasted,
                wasted_bytes,
                ..
            } => {
                let mut outcome = outcome;
                outcome.service += wasted;
                outcome.peer_bytes += wasted_bytes;
                Ok(outcome)
            }
        }
    }

    /// Serves one request immediately (no queue model — admission and
    /// coalescing are batch constructs), updating the lane counters.
    /// Thread-safe; hits contend only on the lane's read lock under
    /// [`HitPathMode::SharedRead`].
    ///
    /// # Errors
    ///
    /// Routing errors ([`CloudletError::UnknownService`]) and any typed
    /// error the cloudlet's serve path returns; cloudlet errors are
    /// also tallied in the lane's `errors` counter.
    pub fn serve_one(&self, request: ServeRequest) -> Result<FrontServed, CloudletError> {
        let lane = self.lane_of(&request)?;
        let (result, fast_path) = self.execute(lane, &request, false);
        match &result {
            Ok(outcome) => self.lanes[lane]
                .counters
                .record_outcome(outcome, false, false),
            Err(_) => self.lanes[lane].counters.record_error(false),
        }
        result.map(|outcome| FrontServed {
            outcome: Ok(outcome),
            lane,
            coalesced: false,
            stolen: false,
            fast_path,
            queue_wait: SimDuration::ZERO,
            completed_at: request.at,
        })
    }

    /// Drives a whole batch through the pipelined model: admission,
    /// coalescing, the shared-read hit pool, work stealing, and the
    /// per-lane exclusive queues, all in deterministic simulated time.
    /// Serves execute inline in request order (preserving per-lane
    /// order for stateful cloudlets); rejected requests are *not*
    /// served at all.
    ///
    /// Cloudlet-level serve errors do not fail the batch — they are
    /// tallied per lane and the remaining requests proceed.
    ///
    /// # Errors
    ///
    /// [`CloudletError::UnknownService`] when any request names a
    /// service group the front-end does not host (nothing is served).
    pub fn serve_batch(&self, requests: &[ServeRequest]) -> Result<FrontendBatch, CloudletError> {
        // Route everything first so an unknown service serves nothing.
        let homes: Vec<usize> = requests
            .iter()
            .map(|r| self.lane_of(r))
            .collect::<Result<_, _>>()?;

        let mut sims: Vec<LaneSim> = (0..self.lanes.len()).map(|_| LaneSim::new()).collect();
        let mut read_pool = vec![SimInstant::ZERO; self.config.read_workers];
        let mut in_flight: HashMap<(u32, u64), CoalesceEntry> = HashMap::new();
        let mut window = 0usize;
        let mut batch_lanes = vec![LaneTotals::default(); self.lanes.len()];
        let mut served = Vec::with_capacity(requests.len());
        let mut waits: Vec<u64> = Vec::with_capacity(requests.len());
        let mut last_completion = SimInstant::ZERO;

        for (i, (request, &home)) in requests.iter().zip(&homes).enumerate() {
            if self.config.coalesce_window != usize::MAX
                && i / self.config.coalesce_window != window
            {
                window = i / self.config.coalesce_window;
                in_flight.clear();
            }
            let t = request.at;

            // Follower: ride an already-served leader in this window.
            if self.config.coalescing {
                if let Some(entry) = in_flight.get(&(request.service, request.key)) {
                    let completed_at = entry.completion.max(t);
                    let wait = completed_at.saturating_duration_since(t);
                    self.lanes[entry.lane]
                        .counters
                        .record_outcome(&entry.outcome, true, false);
                    record_lane(
                        &mut batch_lanes[entry.lane],
                        &Ok(entry.outcome),
                        true,
                        false,
                    );
                    waits.push(wait.as_micros());
                    last_completion = last_completion.max(completed_at);
                    served.push(FrontServed {
                        outcome: Ok(entry.outcome),
                        lane: entry.lane,
                        coalesced: true,
                        stolen: false,
                        fast_path: false,
                        queue_wait: wait,
                        completed_at,
                    });
                    continue;
                }
            }

            // Fast path: a read-only hit runs on the read pool and
            // never touches the bounded exclusive queue.
            if self.config.hit_path == HitPathMode::SharedRead {
                let fast = {
                    let service = self.lanes[home].service.read();
                    service.try_serve_hit(&request.service_request())
                };
                if let Some(outcome) = fast {
                    let worker = read_pool
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &free)| free)
                        .map(|(w, _)| w)
                        .unwrap_or(0);
                    let start = read_pool[worker].max(t);
                    let completed_at = start + outcome.service;
                    read_pool[worker] = completed_at;
                    let wait = start.saturating_duration_since(t);
                    self.lanes[home]
                        .counters
                        .record_outcome(&outcome, false, false);
                    record_lane(&mut batch_lanes[home], &Ok(outcome), false, false);
                    if self.config.coalescing {
                        in_flight.insert(
                            (request.service, request.key),
                            CoalesceEntry {
                                lane: home,
                                outcome,
                                completion: completed_at,
                            },
                        );
                    }
                    waits.push(wait.as_micros());
                    last_completion = last_completion.max(completed_at);
                    served.push(FrontServed {
                        outcome: Ok(outcome),
                        lane: home,
                        coalesced: false,
                        stolen: false,
                        fast_path: true,
                        queue_wait: wait,
                        completed_at,
                    });
                    continue;
                }
            }

            // Exclusive path: admission against the bounded queue, with
            // optional stealing to an idler sibling.
            let mut target = home;
            let mut stolen = false;
            if sims[home].occupancy_at(t) >= self.config.queue_depth {
                if self.config.work_stealing {
                    let group = &self.groups[request.service as usize];
                    let victim = group
                        .iter()
                        .copied()
                        .filter(|&l| l != home)
                        .map(|l| (sims[l].occupancy_at(t), l))
                        .min()
                        .filter(|&(occ, _)| occ < self.config.queue_depth);
                    if let Some((_, sibling)) = victim {
                        target = sibling;
                        stolen = true;
                    }
                }
                if !stolen && self.config.overflow == OverflowPolicy::Reject {
                    let err = CloudletError::QueueFull {
                        lane: home,
                        depth: self.config.queue_depth,
                    };
                    self.lanes[home].counters.record_error(true);
                    batch_lanes[home].events += 1;
                    batch_lanes[home].rejected += 1;
                    served.push(FrontServed {
                        outcome: Err(err),
                        lane: home,
                        coalesced: false,
                        stolen: false,
                        fast_path: false,
                        queue_wait: SimDuration::ZERO,
                        completed_at: t,
                    });
                    continue;
                }
                // OverflowPolicy::Park: the request waits for a slot.
                // With one exclusive server per lane the FIFO start time
                // is `busy_until` either way; parking only changes
                // whether the request was shed.
            }

            // Any fast-path probe above was on the home lane and was
            // declined; a stolen request still probes its new lane.
            let (result, fast_path) = self.execute(target, request, !stolen);
            match result {
                Ok(outcome) => {
                    let start = sims[target].busy_until.max(t);
                    let completed_at = start + outcome.service;
                    sims[target].busy_until = completed_at;
                    sims[target].queue.push_back(completed_at);
                    let wait = start.saturating_duration_since(t);
                    self.lanes[target]
                        .counters
                        .record_outcome(&outcome, false, stolen);
                    record_lane(&mut batch_lanes[target], &Ok(outcome), false, stolen);
                    if self.config.coalescing {
                        in_flight.insert(
                            (request.service, request.key),
                            CoalesceEntry {
                                lane: target,
                                outcome,
                                completion: completed_at,
                            },
                        );
                    }
                    waits.push(wait.as_micros());
                    last_completion = last_completion.max(completed_at);
                    served.push(FrontServed {
                        outcome: Ok(outcome),
                        lane: target,
                        coalesced: false,
                        stolen,
                        fast_path,
                        queue_wait: wait,
                        completed_at,
                    });
                }
                Err(err) => {
                    self.lanes[target].counters.record_error(false);
                    batch_lanes[target].events += 1;
                    batch_lanes[target].errors += 1;
                    served.push(FrontServed {
                        outcome: Err(err),
                        lane: target,
                        coalesced: false,
                        stolen,
                        fast_path: false,
                        queue_wait: SimDuration::ZERO,
                        completed_at: t,
                    });
                }
            }
        }

        let first_arrival = requests
            .iter()
            .map(|r| r.at)
            .min()
            .unwrap_or(SimInstant::ZERO);
        let makespan = last_completion.saturating_duration_since(first_arrival);
        waits.sort_unstable();
        let report = FrontendReport {
            lanes: batch_lanes,
            makespan,
            queue_wait_p50: percentile(&waits, 0.50),
            queue_wait_p99: percentile(&waits, 0.99),
            queue_wait_max: SimDuration::from_micros(waits.last().copied().unwrap_or(0)),
        };
        Ok(FrontendBatch { served, report })
    }
}

/// Folds one request's disposition into a batch-local lane total.
fn record_lane(
    lane: &mut LaneTotals,
    result: &Result<ServeOutcome, CloudletError>,
    coalesced: bool,
    stolen: bool,
) {
    lane.events += 1;
    match result {
        Ok(outcome) => {
            match outcome.kind {
                ServeKind::Hit => lane.hits += 1,
                ServeKind::StaleHit => lane.stale_hits += 1,
                ServeKind::Miss => lane.misses += 1,
                ServeKind::Skipped => lane.skipped += 1,
            }
            if outcome.source == ServeSource::Peer {
                lane.peer_hits += 1;
            }
            if coalesced {
                lane.coalesced += 1;
            } else {
                lane.radio_bytes += outcome.radio_bytes;
                lane.peer_bytes += outcome.peer_bytes;
                lane.busy += outcome.service;
            }
            if stolen {
                lane.stolen += 1;
            }
        }
        Err(_) => lane.errors += 1,
    }
}

/// Nearest-rank percentile of a sorted micros slice.
fn percentile(sorted: &[u64], q: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    SimDuration::from_micros(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy replica service: keys below `cached_below` hit (100 ms),
    /// everything else misses (1 s, 500 bytes). `key == 7` is a typed
    /// error. Hits are served read-only through `try_serve_hit`.
    struct ToyLane {
        cached_below: u64,
        stats: ServeStats,
    }

    impl ToyLane {
        fn boxed(cached_below: u64) -> Box<dyn CloudletService + Send + Sync> {
            Box::new(ToyLane {
                cached_below,
                stats: ServeStats::default(),
            })
        }

        fn outcome(&self, key: u64) -> ServeOutcome {
            if key < self.cached_below {
                ServeOutcome::hit().with_service(SimDuration::from_millis(100))
            } else {
                ServeOutcome::miss(500).with_service(SimDuration::from_secs(1))
            }
        }
    }

    impl CloudletService for ToyLane {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn serve(&mut self, request: &ServiceRequest) -> Result<ServeOutcome, CloudletError> {
            if request.key == 7 {
                return Err(CloudletError::UnknownKey { key: request.key });
            }
            let outcome = self.outcome(request.key);
            self.stats.record(&outcome);
            Ok(outcome)
        }

        fn try_serve_hit(&self, request: &ServiceRequest) -> Option<ServeOutcome> {
            (request.key != 7 && request.key < self.cached_below).then(|| self.outcome(request.key))
        }

        fn service_stats(&self) -> ServeStats {
            self.stats
        }

        fn cache_bytes(&self) -> u64 {
            1024
        }

        fn summary_keys(&self) -> Vec<u64> {
            (0..self.cached_below).collect()
        }
    }

    fn frontend(lanes: usize, config: FrontendConfig) -> Frontend {
        Frontend::new(
            vec![(0..lanes).map(|_| ToyLane::boxed(100)).collect()],
            config,
        )
    }

    fn zero_batch(keys: &[u64]) -> Vec<ServeRequest> {
        keys.iter()
            .map(|&k| ServeRequest::new(k, 0, k, SimInstant::ZERO))
            .collect()
    }

    #[test]
    fn baseline_reproduces_per_lane_serial_makespan() {
        let fe = frontend(2, FrontendConfig::pr3_baseline());
        // Lane 0: keys 0 (hit), 200 (miss); lane 1: key 1 (hit).
        let batch = fe
            .serve_batch(&zero_batch(&[0, 200, 1]))
            .expect("toy batch");
        let report = &batch.report;
        assert_eq!(report.events(), 3);
        assert_eq!(report.hits(), 2);
        assert_eq!(report.misses(), 1);
        // Makespan = busiest lane's summed service time (lane 0).
        assert_eq!(
            report.makespan,
            SimDuration::from_millis(100) + SimDuration::from_secs(1)
        );
        assert_eq!(
            report.total_busy(),
            report.makespan + SimDuration::from_millis(100)
        );
        assert_eq!(report.rejected(), 0);
        assert_eq!(report.coalesced(), 0);
    }

    #[test]
    fn shared_read_hits_bypass_the_exclusive_queue() {
        let mut config = FrontendConfig::pr3_baseline();
        config.hit_path = HitPathMode::SharedRead;
        config.read_workers = 2;
        let fe = frontend(1, config);
        // One slow miss plus two hits: hits ride the read pool, so the
        // makespan is the miss alone, not miss + hits.
        let batch = fe
            .serve_batch(&zero_batch(&[200, 0, 2]))
            .expect("toy batch");
        assert_eq!(batch.report.makespan, SimDuration::from_secs(1));
        assert!(batch.served[1].fast_path && batch.served[2].fast_path);
        assert_eq!(batch.report.hits(), 2);
        // The exclusive lane only saw the miss.
        let telemetry = fe.telemetry();
        assert_eq!(telemetry.lanes[0].stats.serves, 1);
        assert_eq!(
            telemetry.lanes[0].totals.events, 3,
            "front-end counters see all"
        );
    }

    #[test]
    fn coalescing_charges_one_underlying_serve() {
        let mut config = FrontendConfig::pr3_baseline();
        config.coalescing = true;
        let fe = frontend(1, config);
        let batch = fe
            .serve_batch(&zero_batch(&[200, 200, 200, 200]))
            .expect("toy batch");
        let report = &batch.report;
        assert_eq!(report.events(), 4);
        assert_eq!(report.misses(), 4, "all four get the miss outcome");
        assert_eq!(report.coalesced(), 3);
        assert_eq!(report.unique_serves(), 1);
        assert_eq!(report.radio_bytes(), 500, "one radio exchange");
        assert_eq!(report.makespan, SimDuration::from_secs(1));
        assert!(batch.served[3].coalesced);
        assert_eq!(batch.served[3].queue_wait, SimDuration::from_secs(1));
        // The cloudlet itself served exactly once.
        assert_eq!(fe.telemetry().lanes[0].stats.serves, 1);
    }

    #[test]
    fn coalesce_windows_bound_the_sharing() {
        let mut config = FrontendConfig::pr3_baseline();
        config.coalescing = true;
        config.coalesce_window = 2;
        let fe = frontend(1, config);
        let batch = fe
            .serve_batch(&zero_batch(&[200, 200, 200, 200]))
            .expect("toy batch");
        // Windows [0,1] and [2,3]: one leader + one follower each.
        assert_eq!(batch.report.coalesced(), 2);
        assert_eq!(batch.report.unique_serves(), 2);
    }

    #[test]
    fn full_queue_rejects_deterministically_and_recovers() {
        let mut config = FrontendConfig::pr3_baseline();
        config.queue_depth = 2;
        config.overflow = OverflowPolicy::Reject;
        let fe = frontend(1, config);
        let mut requests = zero_batch(&[200, 201, 202, 203]);
        // A straggler arriving after the queue drained is admitted.
        requests.push(ServeRequest::new(
            9,
            0,
            204,
            SimInstant::from_micros(3_000_000),
        ));
        let batch = fe.serve_batch(&requests).expect("toy batch");
        assert_eq!(batch.report.rejected(), 2, "two over the depth-2 queue");
        assert_eq!(
            batch.served[2].outcome,
            Err(CloudletError::QueueFull { lane: 0, depth: 2 })
        );
        assert_eq!(
            batch.served[3].outcome,
            Err(CloudletError::QueueFull { lane: 0, depth: 2 })
        );
        assert!(batch.served[4].outcome.is_ok(), "drained queue recovers");
        // Rejected requests were never served by the cloudlet.
        assert_eq!(fe.telemetry().lanes[0].stats.serves, 3);
        // Determinism: the same stream sheds the same requests.
        let again = frontend(1, config).serve_batch(&requests).expect("batch");
        let shed = |b: &FrontendBatch| -> Vec<bool> {
            b.served.iter().map(|s| s.outcome.is_err()).collect()
        };
        assert_eq!(shed(&batch), shed(&again));
    }

    #[test]
    fn park_policy_sheds_nothing() {
        let mut config = FrontendConfig::pr3_baseline();
        config.queue_depth = 1;
        config.overflow = OverflowPolicy::Park;
        let fe = frontend(1, config);
        let batch = fe
            .serve_batch(&zero_batch(&[200, 201, 202]))
            .expect("toy batch");
        assert_eq!(batch.report.rejected(), 0);
        assert_eq!(batch.report.served(), 3);
        // FIFO waits: 0s, 1s, 2s.
        assert_eq!(batch.served[2].queue_wait, SimDuration::from_secs(2));
        assert_eq!(batch.report.queue_wait_max, SimDuration::from_secs(2));
    }

    #[test]
    fn work_stealing_balances_a_hot_lane() {
        let mut config = FrontendConfig::pr3_baseline();
        config.queue_depth = 1;
        config.work_stealing = true;
        let fe = frontend(2, config);
        // All keys even: everything homes on lane 0; stealing moves the
        // overflow to idle lane 1.
        let batch = fe
            .serve_batch(&zero_batch(&[200, 202, 204, 206]))
            .expect("toy batch");
        assert!(batch.report.stolen() > 0);
        assert_eq!(batch.report.rejected(), 0);
        assert!(
            batch.report.makespan < SimDuration::from_secs(4),
            "stealing must beat the serial 4 s drain"
        );
        let stolen_lanes: Vec<usize> = batch
            .served
            .iter()
            .filter(|s| s.stolen)
            .map(|s| s.lane)
            .collect();
        assert!(stolen_lanes.iter().all(|&l| l == 1));
    }

    /// A [`ToyLane`] that counts its fast-path probes.
    struct ProbeCounting {
        lane: ToyLane,
        probes: Arc<std::sync::atomic::AtomicU64>,
    }

    impl CloudletService for ProbeCounting {
        fn name(&self) -> &'static str {
            self.lane.name()
        }

        fn serve(&mut self, request: &ServiceRequest) -> Result<ServeOutcome, CloudletError> {
            self.lane.serve(request)
        }

        fn try_serve_hit(&self, request: &ServiceRequest) -> Option<ServeOutcome> {
            self.probes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.lane.try_serve_hit(request)
        }

        fn service_stats(&self) -> ServeStats {
            self.lane.service_stats()
        }

        fn cache_bytes(&self) -> u64 {
            self.lane.cache_bytes()
        }
    }

    #[test]
    fn each_request_probes_the_fast_path_once_per_lane() {
        let probes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let lanes = (0..2)
            .map(|_| {
                Box::new(ProbeCounting {
                    lane: ToyLane {
                        cached_below: 100,
                        stats: ServeStats::default(),
                    },
                    probes: Arc::clone(&probes),
                }) as Box<dyn CloudletService + Send + Sync>
            })
            .collect();
        let config = FrontendConfig::builder()
            .queue_depth(1)
            .coalescing(false)
            .work_stealing(true)
            .build();
        let fe = Frontend::new(vec![lanes], config);
        let count = || probes.load(std::sync::atomic::Ordering::SeqCst);
        // Everything homes on lane 0: two hits, a miss that takes the
        // queue, and a miss that finds it full and is stolen by lane 1.
        let batch = fe
            .serve_batch(&zero_batch(&[0, 200, 2, 202]))
            .expect("toy batch");
        assert_eq!(batch.report.stolen(), 1);
        assert_eq!(
            batch.served.iter().map(|s| s.fast_path).collect::<Vec<_>>(),
            [true, false, true, false]
        );
        // One probe per request on its home lane, plus one on the lane
        // that stole the last miss.
        assert_eq!(count(), 5);
        fe.serve_one(ServeRequest::new(0, 0, 204, SimInstant::ZERO))
            .expect("toy serve");
        assert_eq!(count(), 6, "serve_one probes once");
    }

    #[test]
    fn typed_errors_are_tallied_not_fatal() {
        let fe = frontend(1, FrontendConfig::default());
        let batch = fe.serve_batch(&zero_batch(&[7, 0])).expect("toy batch");
        assert_eq!(batch.report.errors(), 1);
        assert_eq!(batch.report.hits(), 1);
        assert_eq!(
            batch.served[0].outcome,
            Err(CloudletError::UnknownKey { key: 7 })
        );
    }

    #[test]
    fn unknown_service_fails_the_whole_batch() {
        let fe = frontend(1, FrontendConfig::default());
        let bad = ServeRequest::new(0, 3, 1, SimInstant::ZERO);
        assert_eq!(
            fe.serve_batch(&[bad]),
            Err(CloudletError::UnknownService { service: 3 })
        );
        assert_eq!(
            fe.serve_one(bad).expect_err("unknown group"),
            CloudletError::UnknownService { service: 3 }
        );
        assert_eq!(fe.telemetry().aggregate().events, 0, "nothing was served");
    }

    #[test]
    fn serve_one_uses_the_fast_path_for_hits() {
        let fe = frontend(1, FrontendConfig::default());
        let hit = fe
            .serve_one(ServeRequest::new(0, 0, 1, SimInstant::ZERO))
            .expect("toy serve");
        assert!(hit.fast_path && hit.hit());
        let miss = fe
            .serve_one(ServeRequest::new(0, 0, 500, SimInstant::ZERO))
            .expect("toy serve");
        assert!(!miss.fast_path && !miss.hit());
        assert_eq!(fe.lane_name(0), "toy");
        let totals = fe.telemetry().aggregate();
        assert_eq!((totals.events, totals.hits, totals.misses), (2, 1, 1));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let waits: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&waits, 0.50), SimDuration::from_micros(50));
        assert_eq!(percentile(&waits, 0.99), SimDuration::from_micros(99));
        assert_eq!(percentile(&[], 0.99), SimDuration::ZERO);
    }

    #[test]
    fn builder_defaults_match_default_exactly() {
        assert_eq!(
            FrontendConfig::builder().build(),
            FrontendConfig::default(),
            "the builder must not silently change Default semantics"
        );
        let config = FrontendConfig::builder()
            .queue_depth(8)
            .coalescing(false)
            .coalesce_window(16)
            .hit_path(HitPathMode::Exclusive)
            .overflow(OverflowPolicy::Reject)
            .work_stealing(true)
            .read_workers(2)
            .build();
        assert_eq!(
            config,
            FrontendConfig {
                queue_depth: 8,
                coalescing: false,
                coalesce_window: 16,
                hit_path: HitPathMode::Exclusive,
                overflow: OverflowPolicy::Reject,
                work_stealing: true,
                read_workers: 2,
                route_by: RouteBy::Key,
            }
        );
        // Presets re-open into builders without drifting.
        assert_eq!(
            FrontendConfig::pr3_baseline().to_builder().build(),
            FrontendConfig::pr3_baseline()
        );
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn builder_validates_on_build() {
        FrontendConfig::builder().queue_depth(0).build();
    }

    #[test]
    fn telemetry_aggregates_every_lane() {
        let fe = frontend(2, FrontendConfig::default());
        fe.serve_batch(&zero_batch(&[0, 1, 200])).expect("batch");
        let telemetry = fe.telemetry();
        assert_eq!(
            telemetry.aggregate(),
            LaneTotals::aggregate(&telemetry.lane_totals())
        );
        assert_eq!(telemetry.lane_stats().len(), 2);
        assert_eq!(telemetry.aggregate().events, 3);
        assert_eq!(telemetry.shed(), 0);
        assert_eq!(telemetry.lanes[0].name, "toy");
    }

    #[test]
    fn batch_loop_drives_the_arbiter_schedule() {
        use crate::arbiter::ArbiterConfig;

        let fe = frontend(2, FrontendConfig::default());
        let mut arbiter = AdaptiveArbiter::new(
            ArbiterConfig::new(10_000).with_epoch_length(SimDuration::from_secs(2)),
        );
        // Before the first boundary: nothing fires.
        let early = fe.serve_batch(&zero_batch(&[0, 1])).expect("batch");
        assert_eq!(
            fe.arbitrate(&mut arbiter, SimInstant::ZERO + early.report.makespan),
            None,
            "100 ms of hits is well inside epoch 1"
        );
        // A slow miss pushes simulated time past the boundary.
        let requests = vec![ServeRequest::new(0, 0, 200, SimInstant::ZERO)];
        let batch = fe.serve_batch(&requests).expect("batch");
        let now = SimInstant::ZERO + batch.report.makespan + SimDuration::from_secs(1);
        let decision = fe
            .arbitrate(&mut arbiter, now)
            .expect("epoch boundary crossed");
        assert_eq!(decision.epoch, 1);
        assert_eq!(decision.entries.len(), 2);
        // Lane 0 saw 2 of the 3 events (keys 0 and 200), lane 1 saw 1.
        assert!(decision.granted(CloudletId(0)) >= decision.granted(CloudletId(1)));
        // Same instant again: the boundary has advanced, nothing fires.
        assert_eq!(fe.arbitrate(&mut arbiter, now), None);
        assert_eq!(arbiter.decisions().len(), 1);
    }

    /// Two user-routed lanes with different inventories: lane 1 caches
    /// nothing, lane 0 caches keys 0..100.
    fn peer_frontend() -> Frontend {
        let config = FrontendConfig::builder()
            .route_by(RouteBy::User)
            .coalescing(false)
            .build();
        Frontend::new(vec![vec![ToyLane::boxed(100), ToyLane::boxed(0)]], config)
    }

    #[test]
    fn local_miss_is_served_by_a_cell_peer_before_the_radio() {
        let mut fe = peer_frontend();
        let cells = fe.attach_peer_cells(0, 2, PeerConfig::default());
        assert_eq!(cells.len(), 1);
        // User 1 homes on lane 1 (caches nothing) and asks for key 5,
        // which lane 0 advertises.
        let served = fe
            .serve_one(ServeRequest::new(1, 0, 5, SimInstant::ZERO))
            .expect("peer serve");
        let outcome = served.outcome.expect("served");
        assert_eq!(outcome.kind, ServeKind::Hit);
        assert_eq!(outcome.source, ServeSource::Peer);
        assert_eq!(outcome.radio_bytes, 0, "the radio never woke");
        assert!(outcome.peer_bytes > 0);
        let totals = fe.telemetry().aggregate();
        assert_eq!((totals.hits, totals.peer_hits, totals.misses), (1, 1, 0));
        assert_eq!(totals.peer_bytes, outcome.peer_bytes);
        assert_eq!(cells[0].telemetry().peer_hits, 1);
        // A key nobody caches still falls back to the radio.
        let fallback = fe
            .serve_one(ServeRequest::new(1, 0, 777, SimInstant::ZERO))
            .expect("radio serve");
        let outcome = fallback.outcome.expect("served");
        assert_eq!(outcome.kind, ServeKind::Miss);
        assert_eq!(outcome.source, ServeSource::Radio);
        assert_eq!(cells[0].telemetry().radio_fallbacks, 1);
    }

    #[test]
    fn solo_cells_reproduce_the_unwired_telemetry_exactly() {
        let requests: Vec<ServeRequest> = (0..40)
            .map(|i| ServeRequest::new(i % 4, 0, i * 37 % 260, SimInstant::ZERO))
            .collect();
        let bare = peer_frontend();
        let mut solo = peer_frontend();
        solo.attach_peer_cells(0, 1, PeerConfig::default());
        let bare_batch = bare.serve_batch(&requests).expect("bare batch");
        let solo_batch = solo.serve_batch(&requests).expect("solo batch");
        assert_eq!(bare_batch, solo_batch, "cell size 1 must change nothing");
        assert_eq!(
            bare.telemetry().lane_totals(),
            solo.telemetry().lane_totals()
        );
        assert_eq!(solo_batch.report.peer_hits(), 0);
        assert_eq!(solo_batch.report.peer_bytes(), 0);
    }

    #[test]
    fn refreshed_summaries_track_the_lane_inventory() {
        let mut fe = peer_frontend();
        let cells = fe.attach_peer_cells(0, 2, PeerConfig::default());
        fe.refresh_peer_summaries();
        // Registration is idempotent: still one cell of two devices.
        assert_eq!(cells[0].member_count(), 2);
        let served = fe
            .serve_one(ServeRequest::new(1, 0, 5, SimInstant::ZERO))
            .expect("peer serve");
        assert_eq!(served.outcome.expect("served").source, ServeSource::Peer);
    }
}
