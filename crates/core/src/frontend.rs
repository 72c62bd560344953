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
//!
//! # Timing model
//!
//! Like the rest of the workspace, the front-end never consults the
//! host clock. [`Frontend::serve_batch`] makes two passes over one
//! vector of dispositions:
//!
//! * **The outcome phase** walks the batch in request order, which
//!   preserves per-lane serve order for stateful cloudlets. It routes
//!   each request, coalesces it onto its key's leader, probes the fast
//!   path once, serves it exclusively and consults peers, recording the
//!   lane, the disposition (follower, fast path, exclusive or rejected)
//!   and the outcome, and counts each request into its lane's
//!   [`LaneTotals`] as it goes. It sets no simulated time. Only
//!   [`OverflowPolicy::Reject`] reads the lane queues here, because a
//!   shed request is never served: a per-lane `LaneSim` holds the
//!   completion instants of the serves still in flight, and it is
//!   `Reject` admission's queue and nothing else. Under
//!   [`OverflowPolicy::Park`] the queue depth changes nothing.
//! * **The timing pass** is a serial discrete-event simulation over
//!   those records, and the only code that sets simulated time: each
//!   lane is one exclusive server draining its queue FIFO, kept as one
//!   busy-until instant per lane; shared-read hits run on a
//!   `READ_WORKERS`-wide (4) pool; followers complete with their
//!   leader. It assigns every completion instant and queue wait, then
//!   the batch makespan and queue-wait percentiles.
//!
//! All of these are pure functions of the request stream and the
//! configuration, so reports are bit-reproducible across machines.
//! With [`FrontendConfig::pr3_baseline`] the model collapses to a
//! per-lane serial drain — makespan = busiest lane's summed service
//! time — which is what the ablation studies use as their baseline.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use analysis::sync::OrderedRwLock;

use mobsim::time::{SimDuration, SimInstant};
use mobsim::Mix64Hasher;

use crate::arbiter::{AdaptiveArbiter, BudgetDecision, EpochObservation};
use crate::coordination::CloudletId;
use crate::counters::CounterSet;
use crate::peer::{PeerConfig, PeerConsult, PeerFabric};
use crate::service::{CloudletError, CloudletService, ServeKind, ServeOutcome, ServeSource};

/// The one request type: the front-end routes the caller's request and
/// hands it to the lane unchanged.
pub use crate::service::ServeRequest;

/// Width of the shared-read worker pool serving fast-path hits.
const READ_WORKERS: usize = 4;

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
    /// not yet completed requests). Only [`OverflowPolicy::Reject`]
    /// reads it: a parked request starts when the lane's server frees
    /// up, whatever the depth.
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

    /// The plain sharded baseline: exclusive locks for everything, no
    /// coalescing, and a queue deep enough that nothing is ever shed or
    /// parked. Under this config a batch of simultaneous
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
            route_by: RouteBy::Key,
        }
    }

    fn validate(&self) {
        assert!(self.queue_depth > 0, "queue depth must be at least 1");
        assert!(self.coalesce_window > 0, "coalesce window must be >= 1");
    }
}

/// Fluent construction of a [`FrontendConfig`].
///
/// Seeded from [`FrontendConfig::builder`] (defaults); every setter
/// replaces one field and [`FrontendConfigBuilder::build`] validates the
/// result.
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

    /// Work stealing is retired; this setter remains only so callers
    /// that pass `false`, the old default, keep building.
    ///
    /// # Panics
    ///
    /// Panics on `true`.
    #[must_use]
    pub fn work_stealing(self, work_stealing: bool) -> Self {
        assert!(!work_stealing, "work stealing is retired");
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
    /// Panics when the configuration is invalid (zero queue depth or
    /// window).
    pub fn build(self) -> FrontendConfig {
        self.config.validate();
        self.config
    }
}

/// One lane's cumulative counters: a lock-free [`CounterSet`] bank
/// (which owns the memory-ordering argument) in `lane_slots!` order.
/// Serves never bump it request by request; each call adds its locally
/// counted totals in one step.
#[derive(Debug, Default)]
struct FrontCounters(CounterSet<{ LaneTotals::SLOTS }>);

impl FrontCounters {
    /// Adds a batch's totals, skipping zero fields so a lone hit costs
    /// only the adds it changes.
    fn add(&self, totals: &LaneTotals) {
        for (slot, amount) in totals.to_slots().into_iter().enumerate() {
            if amount != 0 {
                self.0.bump(slot, amount);
            }
        }
    }

    fn snapshot(&self) -> LaneTotals {
        LaneTotals::from_slots(self.0.snapshot())
    }
}

/// One lane's front-end totals: cumulative in [`Frontend::telemetry`],
/// per batch in [`FrontendReport::lanes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneTotals {
    /// Requests routed to this lane, including rejected and coalesced
    /// ones.
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

/// Writes the one `LaneTotals` ↔ counter-slot mapping from a single
/// field list: the listed `u64` fields take slots in order and `busy`
/// takes the last, in microseconds. The snapshot, the per-batch add,
/// `aggregate` and `delta_since` all go through it.
macro_rules! lane_slots {
    ($($field:ident),+ $(,)?) => {
        impl LaneTotals {
            const SLOTS: usize = [$(stringify!($field),)+ "busy"].len();

            fn to_slots(self) -> [u64; Self::SLOTS] {
                [$(self.$field,)+ self.busy.as_micros()]
            }

            fn from_slots(slots: [u64; Self::SLOTS]) -> LaneTotals {
                let [$($field,)+ busy] = slots;
                LaneTotals {
                    $($field,)+
                    busy: SimDuration::from_micros(busy),
                }
            }
        }
    };
}

lane_slots! {
    events, hits, stale_hits, misses, skipped, errors, rejected, coalesced, radio_bytes, peer_hits,
    peer_bytes,
}

impl LaneTotals {
    /// Folds one request's disposition into these totals — the
    /// front-end's one accounting rule. Every request counts one event
    /// and one outcome bucket; [`CloudletError::QueueFull`] counts as a
    /// rejection, not an error. Peer answers are a subset of hits.
    /// Followers (`coalesced`) count with their leader's outcome but
    /// add no radio bytes, peer bytes or busy time: they rode the
    /// leader's serve.
    pub fn record(&mut self, result: &Result<ServeOutcome, CloudletError>, coalesced: bool) {
        self.events += 1;
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(CloudletError::QueueFull { .. }) => {
                self.rejected += 1;
                return;
            }
            Err(_) => {
                self.errors += 1;
                return;
            }
        };
        match outcome.kind {
            ServeKind::Hit => self.hits += 1,
            ServeKind::StaleHit => self.stale_hits += 1,
            ServeKind::Miss => self.misses += 1,
            ServeKind::Skipped => self.skipped += 1,
        }
        if outcome.source == ServeSource::Peer {
            self.peer_hits += 1;
        }
        if coalesced {
            self.coalesced += 1;
        } else {
            self.radio_bytes += outcome.radio_bytes;
            self.peer_bytes += outcome.peer_bytes;
            self.busy += outcome.service;
        }
    }

    /// Sums a set of lane totals into one aggregate.
    pub fn aggregate(lanes: &[LaneTotals]) -> LaneTotals {
        lanes.iter().fold(LaneTotals::default(), |total, lane| {
            total.zip_with(lane, u64::saturating_add)
        })
    }

    /// The counters accumulated since `earlier` was snapshotted, as a
    /// field-wise saturating difference — how the adaptive arbiter
    /// turns cumulative [`Frontend::telemetry`] snapshots into
    /// per-epoch observations.
    #[must_use]
    pub fn delta_since(&self, earlier: &LaneTotals) -> LaneTotals {
        self.zip_with(earlier, u64::saturating_sub)
    }

    /// Requests that actually completed (everything but rejections and
    /// errors).
    ///
    /// This and the counts below saturate at zero: a snapshot torn
    /// across fields (see [`Frontend::telemetry`]) can hold a batch's
    /// rejections without its events.
    pub fn served(&self) -> u64 {
        self.events
            .saturating_sub(self.rejected)
            .saturating_sub(self.errors)
    }

    /// Completed requests that were not declined consultations: the
    /// denominator of every per-request rate.
    pub fn attempted(&self) -> u64 {
        self.served().saturating_sub(self.skipped)
    }

    /// Pure-hit ratio over attempted requests (skips, rejections, and
    /// errors excluded from the denominator). Followers count with
    /// their leader's outcome, so coalescing never moves this number.
    pub fn hit_rate(&self) -> f64 {
        let attempted = self.attempted();
        if attempted == 0 {
            0.0
        } else {
            self.hits as f64 / attempted as f64
        }
    }

    fn zip_with(&self, other: &LaneTotals, op: fn(u64, u64) -> u64) -> LaneTotals {
        let (a, b) = (self.to_slots(), other.to_slots());
        LaneTotals::from_slots(std::array::from_fn(|slot| op(a[slot], b[slot])))
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
    /// All lanes summed into one [`LaneTotals`].
    pub fn totals(&self) -> LaneTotals {
        LaneTotals::aggregate(&self.lanes)
    }

    /// Serving throughput in completed requests per simulated second:
    /// `served / makespan`.
    pub fn throughput_qps(&self) -> f64 {
        let makespan = self.makespan.as_secs_f64();
        if makespan == 0.0 {
            0.0
        } else {
            self.totals().served() as f64 / makespan
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

/// One lane's telemetry: the front-end's serve totals and the lane's
/// resident bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneTelemetry {
    /// Global lane index.
    pub lane: usize,
    /// The cloudlet's stable name.
    pub name: &'static str,
    /// Cumulative front-end totals since construction: every request
    /// the lane was routed, fast-path hits included.
    pub totals: LaneTotals,
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

/// One lane's queue of exclusive serves in simulated time, local to
/// one `serve_batch` call: the occupancy [`OverflowPolicy::Reject`]
/// admission reads. The timing pass does not use it; it keeps only each
/// lane's busy-until instant.
#[derive(Clone, Default)]
struct LaneSim {
    /// When the lane's single exclusive server frees up.
    busy_until: SimInstant,
    /// Completion instants of admitted-but-unfinished exclusive serves,
    /// in FIFO (= completion) order.
    queue: VecDeque<SimInstant>,
}

impl LaneSim {
    /// Queue occupancy at instant `t`: serves admitted whose completion
    /// is still in the future. Drains finished entries.
    fn occupancy_at(&mut self, t: SimInstant) -> usize {
        while self.queue.front().is_some_and(|&done| done <= t) {
            self.queue.pop_front();
        }
        self.queue.len()
    }

    /// Queues an exclusive serve of `service` arriving at `t` behind
    /// the lane's server, by the same FIFO rule the timing pass applies.
    fn admit(&mut self, t: SimInstant, service: SimDuration) {
        self.occupancy_at(t);
        self.busy_until = self.busy_until.max(t) + service;
        self.queue.push_back(self.busy_until);
    }
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
/// The front-end is `Sync`: [`Frontend::serve_batch`] may be called
/// from any number of threads.
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
    /// (zero queue depth or window).
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

    // api-ok: ROADMAP item 10 (peer churn) refreshes the summaries by
    // gossip each epoch through it.
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

    /// One snapshot of everything the front-end measures: per-lane
    /// totals and resident bytes.
    ///
    /// Each [`Frontend::serve_batch`] counts its requests locally and
    /// adds them to the cumulative lane totals in one step, so it shows
    /// up here when it returns, not request by request. Read telemetry
    /// between batches; a snapshot taken while another thread's batch
    /// is finishing may be torn across lanes and fields.
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
            .map(|l| EpochObservation::new(CloudletId(l.lane as u32), l.totals))
            .collect();
        Some(arbiter.observe_cumulative(now, &observations, |id, ctx| {
            self.lanes[id.0 as usize]
                .service
                .read()
                .budget_demand(id, ctx)
        }))
    }

    /// The lane a request routes to.
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

    /// Serves a request that leads its key on `lane`: the shared-read
    /// probe first when configured, then the exclusive serve — unless
    /// `queue`, the lane's queue under `Reject` admission, is full at
    /// arrival. Returns the outcome and whether the fast path answered.
    ///
    /// When the lane belongs to a peer cell, a local radio miss then
    /// consults the cell *after* the lane guard is dropped: a peer hit
    /// replaces the miss outright; a fruitless consult charges its
    /// wasted false-positive probes onto the radio outcome.
    fn lead(
        &self,
        lane: usize,
        request: &ServeRequest,
        mut queue: Option<&mut LaneSim>,
    ) -> (Result<ServeOutcome, CloudletError>, bool) {
        if self.config.hit_path == HitPathMode::SharedRead {
            let fast = self.lanes[lane].service.read().try_serve_hit(request);
            if let Some(outcome) = fast {
                return (Ok(outcome), true);
            }
        }
        let depth = self.config.queue_depth;
        if queue
            .as_mut()
            .is_some_and(|q| q.occupancy_at(request.at) >= depth)
        {
            return (Err(CloudletError::QueueFull { lane, depth }), false);
        }
        let result = self.lanes[lane].service.write().serve(request);
        let result = self.consult_peers(lane, request.key, result);
        if let (Some(queue), Ok(outcome)) = (queue, &result) {
            queue.admit(request.at, outcome.service);
        }
        (result, false)
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

    /// Drives a whole batch through the pipelined model: admission,
    /// coalescing, the shared-read hit pool and the per-lane exclusive
    /// queues, all in deterministic simulated time — an outcome phase,
    /// then a timing pass (see the module docs). Serves execute inline
    /// in request order (preserving per-lane order for stateful
    /// cloudlets); rejected requests are *not* served at all. One
    /// request is served as a one-request batch.
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
        let mut lanes = vec![LaneTotals::default(); self.lanes.len()];
        let (mut served, leaders) = self.outcome_phase(requests, &homes, &mut lanes);
        for (lane, totals) in self.lanes.iter().zip(&lanes) {
            lane.counters.add(totals);
        }
        let report = self.timing_pass(requests, &mut served, &leaders, lanes);
        Ok(FrontendBatch { served, report })
    }

    /// The outcome phase: in request order, each request either rides
    /// its key's leader in this window (a follower, whose leader's index
    /// goes in the second vector) or leads it through [`Frontend::lead`],
    /// and is counted into `lanes` as it goes. Every disposition is left
    /// completing at arrival for the timing pass. Only `Reject`
    /// admission keeps lane queues here, one [`LaneSim`] per lane.
    fn outcome_phase(
        &self,
        requests: &[ServeRequest],
        homes: &[usize],
        lanes: &mut [LaneTotals],
    ) -> (Vec<FrontServed>, Vec<Option<usize>>) {
        let mut queues = (self.config.overflow == OverflowPolicy::Reject)
            .then(|| vec![LaneSim::default(); self.lanes.len()]);
        // Each key's leader in this window, as an index into `served`.
        // The keys are the simulator's own hashes, so SipHash's guard
        // against crafted collisions buys nothing here.
        let mut in_flight: HashMap<(u32, u64), usize, BuildHasherDefault<Mix64Hasher>> =
            HashMap::default();
        let mut window = 0usize;
        let mut served: Vec<FrontServed> = Vec::with_capacity(requests.len());
        let mut leaders = Vec::with_capacity(requests.len());
        for (i, (request, &home)) in requests.iter().zip(homes).enumerate() {
            if self.config.coalesce_window != usize::MAX
                && i / self.config.coalesce_window != window
            {
                window = i / self.config.coalesce_window;
                in_flight.clear();
            }
            let key = (request.service, request.key);
            let leader = in_flight.get(&key).copied();
            let (lane, outcome, fast_path) = match leader {
                Some(leader) => (served[leader].lane, served[leader].outcome.clone(), false),
                None => {
                    let queue = queues.as_mut().map(|queues| &mut queues[home]);
                    let (outcome, fast_path) = self.lead(home, request, queue);
                    (home, outcome, fast_path)
                }
            };
            if self.config.coalescing && leader.is_none() && outcome.is_ok() {
                in_flight.insert(key, i);
            }
            lanes[lane].record(&outcome, leader.is_some());
            served.push(FrontServed {
                outcome,
                lane,
                coalesced: leader.is_some(),
                fast_path,
                queue_wait: SimDuration::ZERO,
                completed_at: request.at,
            });
            leaders.push(leader);
        }
        (served, leaders)
    }

    /// The timing pass: one serial walk, and the only code that sets
    /// simulated time. A follower completes with its leader (or at its
    /// own arrival, if later), a fast-path hit on the first free read
    /// worker, an exclusive serve FIFO behind its lane's server (one
    /// busy-until instant per lane), and a shed or failed request at
    /// arrival. Then the makespan and the queue-wait percentiles over
    /// served requests.
    fn timing_pass(
        &self,
        requests: &[ServeRequest],
        served: &mut [FrontServed],
        leaders: &[Option<usize>],
        lanes: Vec<LaneTotals>,
    ) -> FrontendReport {
        let mut busy_until = vec![SimInstant::ZERO; self.lanes.len()];
        let mut read_pool = [SimInstant::ZERO; READ_WORKERS];
        let mut waits: Vec<u64> = Vec::with_capacity(requests.len());
        let mut last_completion = SimInstant::ZERO;
        for (i, (request, leader)) in requests.iter().zip(leaders).enumerate() {
            let t = request.at;
            let (start, completed_at) = match (leader, &served[i].outcome) {
                (_, Err(_)) => (t, t),
                (Some(leader), Ok(_)) => {
                    let done = served[*leader].completed_at.max(t);
                    (done, done)
                }
                (None, Ok(outcome)) if served[i].fast_path => {
                    let worker = (0..READ_WORKERS).min_by_key(|&w| read_pool[w]).unwrap_or(0);
                    let start = read_pool[worker].max(t);
                    read_pool[worker] = start + outcome.service;
                    (start, read_pool[worker])
                }
                (None, Ok(outcome)) => {
                    let busy = &mut busy_until[served[i].lane];
                    let start = (*busy).max(t);
                    *busy = start + outcome.service;
                    (start, *busy)
                }
            };
            let done = &mut served[i];
            done.queue_wait = start.saturating_duration_since(t);
            done.completed_at = completed_at;
            if done.outcome.is_ok() {
                waits.push(done.queue_wait.as_micros());
                last_completion = last_completion.max(completed_at);
            }
        }

        let first_arrival = requests
            .iter()
            .map(|r| r.at)
            .min()
            .unwrap_or(SimInstant::ZERO);
        let (queue_wait_p50, queue_wait_p99) = select_percentiles(&mut waits, 0.50, 0.99);
        FrontendReport {
            lanes,
            makespan: last_completion.saturating_duration_since(first_arrival),
            queue_wait_p50,
            queue_wait_p99,
            queue_wait_max: SimDuration::from_micros(waits.iter().copied().max().unwrap_or(0)),
        }
    }
}

/// The 1-based nearest rank of quantile `q` in `len > 0` samples.
fn nearest_rank(len: usize, q: f64) -> usize {
    ((len as f64 * q).ceil() as usize).clamp(1, len)
}

/// Nearest-rank percentiles `lo <= hi` of a micros slice, found by
/// selection rather than a full sort; `values` is left reordered.
fn select_percentiles(values: &mut [u64], lo: f64, hi: f64) -> (SimDuration, SimDuration) {
    if values.is_empty() {
        return (SimDuration::ZERO, SimDuration::ZERO);
    }
    let (lo_rank, hi_rank) = (
        nearest_rank(values.len(), lo),
        nearest_rank(values.len(), hi),
    );
    let (_, &mut at_lo, above) = values.select_nth_unstable(lo_rank - 1);
    // Everything above `lo`'s rank sits in `above`, so `hi`'s rank is
    // selected there.
    let at_hi = match hi_rank - lo_rank {
        0 => at_lo,
        k => *above.select_nth_unstable(k - 1).1,
    };
    (
        SimDuration::from_micros(at_lo),
        SimDuration::from_micros(at_hi),
    )
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    use super::*;
    use crate::arbiter::DemandContext;
    use crate::coordination::BudgetDemand;
    use proptest::prelude::*;

    /// A toy replica service: keys below `cached_below` hit (100 ms),
    /// everything else misses (1 s, 500 bytes). `key == 7` is a typed
    /// error. Hits are served read-only through `try_serve_hit`;
    /// `serves` counts the calls that reach the exclusive `serve`.
    struct ToyLane {
        cached_below: u64,
        serves: Arc<AtomicU64>,
    }

    impl ToyLane {
        fn new(cached_below: u64) -> Self {
            ToyLane {
                cached_below,
                serves: Arc::default(),
            }
        }

        fn boxed(cached_below: u64) -> Box<dyn CloudletService + Send + Sync> {
            Box::new(ToyLane::new(cached_below))
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

        fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
            self.serves.fetch_add(1, Ordering::SeqCst);
            if request.key == 7 {
                return Err(CloudletError::UnknownKey { key: request.key });
            }
            Ok(self.outcome(request.key))
        }

        fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
            (request.key != 7 && request.key < self.cached_below).then(|| self.outcome(request.key))
        }

        fn cache_bytes(&self) -> u64 {
            1024
        }

        fn summary_keys(&self) -> Vec<u64> {
            (0..self.cached_below).collect()
        }
    }

    fn frontend(lanes: usize, config: FrontendConfig) -> Frontend {
        counted_frontend(lanes, config).0
    }

    /// A one-group front-end of toy lanes, with each lane's count of
    /// exclusive serves.
    fn counted_frontend(lanes: usize, config: FrontendConfig) -> (Frontend, Vec<Arc<AtomicU64>>) {
        let lanes: Vec<ToyLane> = (0..lanes).map(|_| ToyLane::new(100)).collect();
        let serves = lanes.iter().map(|l| Arc::clone(&l.serves)).collect();
        let boxed = lanes
            .into_iter()
            .map(|l| Box::new(l) as Box<dyn CloudletService + Send + Sync>)
            .collect();
        (Frontend::new(vec![boxed], config), serves)
    }

    fn zero_batch(keys: &[u64]) -> Vec<ServeRequest> {
        keys.iter()
            .map(|&k| ServeRequest::new(k, 0, k, SimInstant::ZERO))
            .collect()
    }

    /// Serves `request` as a one-request batch.
    fn serve_alone(fe: &Frontend, request: ServeRequest) -> FrontServed {
        let batch = fe.serve_batch(&[request]).expect("one-request batch");
        batch.served.into_iter().next().expect("one disposition")
    }

    #[test]
    fn baseline_reproduces_per_lane_serial_makespan() {
        let fe = frontend(2, FrontendConfig::pr3_baseline());
        // Lane 0: keys 0 (hit), 200 (miss); lane 1: key 1 (hit).
        let batch = fe
            .serve_batch(&zero_batch(&[0, 200, 1]))
            .expect("toy batch");
        let report = &batch.report;
        assert_eq!(report.totals().events, 3);
        assert_eq!(report.totals().hits, 2);
        assert_eq!(report.totals().misses, 1);
        // Makespan = busiest lane's summed service time (lane 0).
        assert_eq!(
            report.makespan,
            SimDuration::from_millis(100) + SimDuration::from_secs(1)
        );
        assert_eq!(
            report.totals().busy,
            report.makespan + SimDuration::from_millis(100)
        );
        assert_eq!(report.totals().rejected, 0);
        assert_eq!(report.totals().coalesced, 0);
    }

    #[test]
    fn shared_read_hits_bypass_the_exclusive_queue() {
        let mut config = FrontendConfig::pr3_baseline();
        config.hit_path = HitPathMode::SharedRead;
        let (fe, serves) = counted_frontend(1, config);
        // One slow miss plus two hits: hits ride the read pool, so the
        // makespan is the miss alone, not miss + hits.
        let batch = fe
            .serve_batch(&zero_batch(&[200, 0, 2]))
            .expect("toy batch");
        assert_eq!(batch.report.makespan, SimDuration::from_secs(1));
        assert!(batch.served[1].fast_path && batch.served[2].fast_path);
        // The pool has a worker for each simultaneous hit: neither waits.
        assert_eq!(batch.served[2].queue_wait, SimDuration::ZERO);
        assert_eq!(batch.report.totals().hits, 2);
        // The exclusive lane only saw the miss.
        assert_eq!(serves[0].load(Ordering::SeqCst), 1);
        assert_eq!(
            fe.telemetry().lanes[0].totals.events,
            3,
            "front-end counters see all"
        );
    }

    #[test]
    fn coalescing_charges_one_underlying_serve() {
        let mut config = FrontendConfig::pr3_baseline();
        config.coalescing = true;
        let (fe, serves) = counted_frontend(1, config);
        let batch = fe
            .serve_batch(&zero_batch(&[200, 200, 200, 200]))
            .expect("toy batch");
        let report = &batch.report;
        assert_eq!(report.totals().events, 4);
        assert_eq!(report.totals().misses, 4, "all four get the miss outcome");
        assert_eq!(report.totals().coalesced, 3);
        assert_eq!(report.totals().served() - report.totals().coalesced, 1);
        assert_eq!(report.totals().radio_bytes, 500, "one radio exchange");
        assert_eq!(report.makespan, SimDuration::from_secs(1));
        assert!(batch.served[3].coalesced);
        assert_eq!(batch.served[3].queue_wait, SimDuration::from_secs(1));
        // The cloudlet itself served exactly once.
        assert_eq!(serves[0].load(Ordering::SeqCst), 1);
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
        assert_eq!(batch.report.totals().coalesced, 2);
        assert_eq!(
            batch.report.totals().served() - batch.report.totals().coalesced,
            2
        );
    }

    #[test]
    fn full_queue_rejects_deterministically_and_recovers() {
        let mut config = FrontendConfig::pr3_baseline();
        config.queue_depth = 2;
        config.overflow = OverflowPolicy::Reject;
        let (fe, serves) = counted_frontend(1, config);
        let mut requests = zero_batch(&[200, 201, 202, 203]);
        // A straggler arriving after the queue drained is admitted.
        requests.push(ServeRequest::new(
            9,
            0,
            204,
            SimInstant::from_micros(3_000_000),
        ));
        let batch = fe.serve_batch(&requests).expect("toy batch");
        assert_eq!(
            batch.report.totals().rejected,
            2,
            "two over the depth-2 queue"
        );
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
        assert_eq!(serves[0].load(Ordering::SeqCst), 3);
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
        assert_eq!(batch.report.totals().rejected, 0);
        assert_eq!(batch.report.totals().served(), 3);
        // FIFO waits: 0s, 1s, 2s.
        assert_eq!(batch.served[2].queue_wait, SimDuration::from_secs(2));
        assert_eq!(batch.report.queue_wait_max, SimDuration::from_secs(2));
    }

    #[test]
    fn torn_totals_saturate_instead_of_underflowing() {
        // A snapshot torn across fields can hold a batch's rejections
        // without its events.
        let torn = LaneTotals {
            events: 1,
            rejected: 2,
            coalesced: 1,
            ..LaneTotals::default()
        };
        assert_eq!(torn.served(), 0);
        assert_eq!(torn.attempted(), 0);
        assert_eq!(torn.hit_rate(), 0.0);
    }

    /// A [`ToyLane`] that counts its fast-path probes.
    struct ProbeCounting {
        lane: ToyLane,
        probes: Arc<AtomicU64>,
    }

    impl CloudletService for ProbeCounting {
        fn name(&self) -> &'static str {
            self.lane.name()
        }

        fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
            self.lane.serve(request)
        }

        fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
            self.probes.fetch_add(1, Ordering::SeqCst);
            self.lane.try_serve_hit(request)
        }

        fn cache_bytes(&self) -> u64 {
            self.lane.cache_bytes()
        }
    }

    #[test]
    fn each_request_probes_the_fast_path_once_per_lane() {
        let probes = Arc::new(AtomicU64::new(0));
        let lanes = (0..2)
            .map(|_| {
                Box::new(ProbeCounting {
                    lane: ToyLane::new(100),
                    probes: Arc::clone(&probes),
                }) as Box<dyn CloudletService + Send + Sync>
            })
            .collect();
        let config = FrontendConfig::builder()
            .queue_depth(1)
            .overflow(OverflowPolicy::Reject)
            .build();
        let fe = Frontend::new(vec![lanes], config);
        let count = || probes.load(Ordering::SeqCst);
        // Everything homes on lane 0: two hits, a miss that takes the
        // queue, a miss that finds it full and is shed, and a follower
        // of each leader that was answered.
        let batch = fe
            .serve_batch(&zero_batch(&[0, 200, 2, 202, 200, 0]))
            .expect("toy batch");
        assert_eq!(batch.report.totals().rejected, 1);
        assert_eq!(batch.report.totals().coalesced, 2);
        assert_eq!(
            batch.served.iter().map(|s| s.fast_path).collect::<Vec<_>>(),
            [true, false, true, false, false, false]
        );
        // Exactly one probe per request that is not a follower.
        let leaders = batch.served.iter().filter(|s| !s.coalesced).count();
        assert_eq!(count(), leaders as u64);
        serve_alone(&fe, ServeRequest::new(0, 0, 204, SimInstant::ZERO));
        assert_eq!(
            count(),
            leaders as u64 + 1,
            "a one-request batch probes once"
        );
    }

    #[test]
    fn typed_errors_are_tallied_not_fatal() {
        let fe = frontend(1, FrontendConfig::default());
        let batch = fe.serve_batch(&zero_batch(&[7, 0])).expect("toy batch");
        assert_eq!(batch.report.totals().errors, 1);
        assert_eq!(batch.report.totals().hits, 1);
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
        assert_eq!(fe.telemetry().aggregate().events, 0, "nothing was served");
    }

    #[test]
    fn single_request_batches_use_the_fast_path_for_hits() {
        let fe = frontend(1, FrontendConfig::default());
        let hit = serve_alone(&fe, ServeRequest::new(0, 0, 1, SimInstant::ZERO));
        assert!(hit.fast_path && hit.hit());
        let miss = serve_alone(&fe, ServeRequest::new(0, 0, 500, SimInstant::ZERO));
        assert!(!miss.fast_path && !miss.hit());
        assert_eq!(fe.telemetry().lanes[0].name, "toy");
        let totals = fe.telemetry().aggregate();
        assert_eq!((totals.events, totals.hits, totals.misses), (2, 1, 1));
    }

    /// The sorted-slice oracle the selected percentiles must match.
    fn percentile(sorted: &[u64], q: f64) -> SimDuration {
        if sorted.is_empty() {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(sorted[nearest_rank(sorted.len(), q) - 1])
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let waits: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&waits, 0.50), SimDuration::from_micros(50));
        assert_eq!(percentile(&waits, 0.99), SimDuration::from_micros(99));
        assert_eq!(percentile(&[], 0.99), SimDuration::ZERO);
        let mut shuffled: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(
            select_percentiles(&mut shuffled, 0.50, 0.99),
            (SimDuration::from_micros(50), SimDuration::from_micros(99))
        );
    }

    proptest! {
        #[test]
        fn selected_percentiles_match_the_sorted_oracle(
            values in prop_oneof![
                proptest::collection::vec(0u64..1_000_000, 0..2),
                proptest::collection::vec(0u64..50, 0..400),
                proptest::collection::vec(0u64..1_000_000, 0..3_000),
                (0u64..1_000, 0usize..300).prop_map(|(v, n)| vec![v; n]),
            ],
            (lo, hi) in (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| (a.min(b), a.max(b))),
        ) {
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for (lo, hi) in [(0.50, 0.99), (lo, hi), (lo, lo)] {
                let mut selected = values.clone();
                prop_assert_eq!(
                    select_percentiles(&mut selected, lo, hi),
                    (percentile(&sorted, lo), percentile(&sorted, hi))
                );
            }
        }
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
            .build();
        assert_eq!(
            config,
            FrontendConfig {
                queue_depth: 8,
                coalescing: false,
                coalesce_window: 16,
                hit_path: HitPathMode::Exclusive,
                overflow: OverflowPolicy::Reject,
                route_by: RouteBy::Key,
            }
        );
    }

    #[test]
    #[should_panic(expected = "work stealing is retired")]
    fn work_stealing_setter_panics_on_true() {
        let _ = FrontendConfig::builder().work_stealing(true);
    }

    #[test]
    fn work_stealing_setter_accepts_false_as_the_default() {
        assert_eq!(
            FrontendConfig::builder().work_stealing(false).build(),
            FrontendConfig::default()
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
        let lanes: Vec<LaneTotals> = telemetry.lanes.iter().map(|l| l.totals).collect();
        assert_eq!(telemetry.aggregate(), LaneTotals::aggregate(&lanes));
        assert_eq!(telemetry.lanes.len(), 2);
        assert_eq!(telemetry.aggregate().events, 3);
        assert_eq!(telemetry.aggregate().rejected, 0);
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

    /// A [`ToyLane`] whose demand hook records the telemetry the
    /// arbiter hands it.
    struct DemandRecording {
        lane: ToyLane,
        seen: Arc<Mutex<Vec<LaneTotals>>>,
    }

    impl CloudletService for DemandRecording {
        fn name(&self) -> &'static str {
            self.lane.name()
        }

        fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
            self.lane.serve(request)
        }

        fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
            self.lane.try_serve_hit(request)
        }

        fn cache_bytes(&self) -> u64 {
            self.lane.cache_bytes()
        }

        fn budget_demand(&self, cloudlet: CloudletId, ctx: &DemandContext) -> BudgetDemand {
            self.seen.lock().expect("recording lock").push(ctx.totals);
            BudgetDemand {
                cloudlet,
                demand_bytes: 1024,
                priority: ctx.priority,
            }
        }
    }

    #[test]
    fn arbitrate_hands_each_lane_its_epoch_totals() {
        use crate::arbiter::ArbiterConfig;

        let seen: Vec<Arc<Mutex<Vec<LaneTotals>>>> =
            (0..2).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        let toys: Vec<ToyLane> = (0..2).map(|_| ToyLane::new(100)).collect();
        let serves: Vec<Arc<AtomicU64>> = toys.iter().map(|t| Arc::clone(&t.serves)).collect();
        let lanes = toys
            .into_iter()
            .zip(&seen)
            .map(|(lane, seen)| {
                Box::new(DemandRecording {
                    lane,
                    seen: Arc::clone(seen),
                }) as Box<dyn CloudletService + Send + Sync>
            })
            .collect();
        let config = FrontendConfig::builder()
            .hit_path(HitPathMode::SharedRead)
            .build();
        let fe = Frontend::new(vec![lanes], config);
        let mut arbiter = AdaptiveArbiter::new(
            ArbiterConfig::new(10_000).with_epoch_length(SimDuration::from_secs(1)),
        );
        // Hits (keys below 100) ride the fast path, misses take the
        // queue, and the repeated key 2 coalesces.
        let epochs: [&[u64]; 2] = [&[0, 1, 2, 2, 200, 201], &[3, 4, 5, 202, 203, 205]];
        let mut before = fe.telemetry();
        let mut served_before = [0; 2];
        for (epoch, keys) in epochs.iter().enumerate() {
            fe.serve_batch(&zero_batch(keys)).expect("toy batch");
            let now = SimInstant::ZERO + SimDuration::from_secs(epoch as u64 + 1);
            fe.arbitrate(&mut arbiter, now)
                .expect("epoch boundary crossed");
            let after = fe.telemetry();
            for (lane, seen) in seen.iter().enumerate() {
                let delta = after.lanes[lane]
                    .totals
                    .delta_since(&before.lanes[lane].totals);
                let served = serves[lane].load(Ordering::SeqCst);
                assert_eq!(
                    seen.lock().expect("recording lock")[epoch],
                    delta,
                    "lane {lane}, epoch {epoch}"
                );
                assert!(delta.hits > 0, "lane {lane} saw hits in epoch {epoch}");
                // Every miss key is distinct, so each one reaches
                // `serve` once; fast-path hits never do.
                assert_eq!(
                    served - served_before[lane],
                    delta.misses,
                    "lane {lane}, epoch {epoch}"
                );
                served_before[lane] = served;
            }
            before = after;
        }
        assert!(seen
            .iter()
            .all(|s| s.lock().expect("recording lock").len() == 2));
    }

    /// Every request a lane's serve paths received, tagged with the
    /// lane's global index, in arrival order.
    type RequestLog = Arc<Mutex<Vec<(usize, ServeRequest)>>>;

    /// A [`ToyLane`] that logs every request `serve` and `try_serve_hit`
    /// receive.
    struct RequestRecording {
        lane: ToyLane,
        index: usize,
        log: RequestLog,
    }

    impl RequestRecording {
        fn record(&self, request: &ServeRequest) {
            self.log
                .lock()
                .expect("request log")
                .push((self.index, *request));
        }
    }

    impl CloudletService for RequestRecording {
        fn name(&self) -> &'static str {
            self.lane.name()
        }

        fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
            self.record(request);
            self.lane.serve(request)
        }

        fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
            self.record(request);
            self.lane.try_serve_hit(request)
        }

        fn cache_bytes(&self) -> u64 {
            self.lane.cache_bytes()
        }
    }

    /// A front-end of recording lanes (keys below 100 hit), one group
    /// per entry of `group_sizes`, sharing one log.
    fn recording_frontend(group_sizes: &[usize], config: FrontendConfig) -> (Frontend, RequestLog) {
        let log = RequestLog::default();
        let mut groups = Vec::new();
        let mut index = 0;
        for &size in group_sizes {
            let mut group: Vec<Box<dyn CloudletService + Send + Sync>> = Vec::new();
            for _ in 0..size {
                group.push(Box::new(RequestRecording {
                    lane: ToyLane::new(100),
                    index,
                    log: Arc::clone(&log),
                }));
                index += 1;
            }
            groups.push(group);
        }
        (Frontend::new(groups, config), log)
    }

    /// Drains the log.
    fn drain(log: &RequestLog) -> Vec<(usize, ServeRequest)> {
        std::mem::take(&mut *log.lock().expect("request log"))
    }

    /// What the log holds after a shared-read batch with no coalescing:
    /// each request on its home lane, a hit probed once, a miss probed
    /// and then served.
    fn probed_then_served(fe: &Frontend, requests: &[ServeRequest]) -> Vec<(usize, ServeRequest)> {
        requests
            .iter()
            .flat_map(|r| {
                let lane = fe.lane_of(r).expect("routed");
                vec![(lane, *r); if r.key < 100 { 1 } else { 2 }]
            })
            .collect()
    }

    #[test]
    fn lanes_receive_the_callers_request_unchanged() {
        let at = SimInstant::from_micros;

        // A key-routed batch on service group 1 (lanes 1 and 2): the
        // group index and the arrival instant reach the lane.
        let (fe, log) = recording_frontend(&[1, 2], FrontendConfig::default());
        let requests = [
            ServeRequest::new(7, 1, 3, at(10)),
            ServeRequest::new(8, 1, 200, at(20)),
            ServeRequest::new(9, 1, 5, at(30)),
        ];
        fe.serve_batch(&requests).expect("key-routed batch");
        let seen = drain(&log);
        assert_eq!(seen, probed_then_served(&fe, &requests));
        assert_eq!(
            seen.iter().map(|&(lane, _)| lane).collect::<Vec<_>>(),
            [2, 1, 1, 2]
        );

        // A user-routed batch: the user picks the lane and is passed on.
        let config = FrontendConfig::builder()
            .route_by(RouteBy::User)
            .coalescing(false)
            .build();
        let (fe, log) = recording_frontend(&[2], config);
        let requests: Vec<ServeRequest> = (0..6u64)
            .map(|i| ServeRequest::new(10 + i, 0, i * 60, at(i)))
            .collect();
        fe.serve_batch(&requests).expect("user-routed batch");
        assert_eq!(drain(&log), probed_then_served(&fe, &requests));

        // A coalesced batch: only the leader reaches the lane; its
        // followers (other users, later instants) never do.
        let (fe, log) = recording_frontend(&[1], FrontendConfig::default());
        let requests = [
            ServeRequest::new(1, 0, 200, at(0)),
            ServeRequest::new(2, 0, 200, at(5)),
            ServeRequest::new(3, 0, 200, at(9)),
        ];
        let batch = fe.serve_batch(&requests).expect("coalesced batch");
        assert!(batch.served[1].coalesced && batch.served[2].coalesced);
        assert_eq!(drain(&log), [(0, requests[0]), (0, requests[0])]);
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
        let served = serve_alone(&fe, ServeRequest::new(1, 0, 5, SimInstant::ZERO));
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
        let fallback = serve_alone(&fe, ServeRequest::new(1, 0, 777, SimInstant::ZERO));
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
        let lane_totals = |fe: &Frontend| -> Vec<LaneTotals> {
            fe.telemetry().lanes.iter().map(|l| l.totals).collect()
        };
        assert_eq!(lane_totals(&bare), lane_totals(&solo));
        assert_eq!(solo_batch.report.totals().peer_hits, 0);
        assert_eq!(solo_batch.report.totals().peer_bytes, 0);
    }

    #[test]
    fn refreshed_summaries_track_the_lane_inventory() {
        let mut fe = peer_frontend();
        let cells = fe.attach_peer_cells(0, 2, PeerConfig::default());
        fe.refresh_peer_summaries();
        // Registration is idempotent: still one cell of two devices.
        assert_eq!(cells[0].member_count(), 2);
        let served = serve_alone(&fe, ServeRequest::new(1, 0, 5, SimInstant::ZERO));
        assert_eq!(served.outcome.expect("served").source, ServeSource::Peer);
    }
}
