//! The unified cloudlet service layer (§7's many-cloudlet device).
//!
//! The paper's §7 pictures several cloudlets — search, advertisements,
//! maps, web content — coexisting on one handset under a shared budget
//! arbiter ([`crate::coordination`]). Each reproduction crate originally
//! grew its own serve loop, its own hit/miss bookkeeping, and its own
//! error story, which meant fleet-level machinery (routing, budget
//! arbitration, reporting) could only ever see one of them at a time.
//!
//! This module is the common waist:
//!
//! * [`CloudletService`] — one object-safe trait every cloudlet serves
//!   through: `serve(&ServeRequest)` answers a single keyed request in
//!   simulated time, and the capacity hooks (`cache_bytes`,
//!   `capacity_bytes`, `budget_demand`) let the §7 budget arbiter
//!   inspect heterogeneous cloudlets uniformly.
//! * [`ServeRequest`] — the one request type of the whole serve stack,
//!   `{ user, service, key, at }`: the front-end routes it and hands
//!   every lane the caller's request unchanged.
//! * [`ServeOutcome`] / [`ServeKind`] / [`ServeSource`] / [`ServeFlags`]
//!   — the outcome taxonomy that subsumes the per-crate vocabularies:
//!   *what* happened (`{Hit, StaleHit, Miss, Skipped}`), *who* answered
//!   (`{Local, Peer, Radio}` — the cooperative peer tier of
//!   [`crate::peer`] sits between the local cache and the radio), and
//!   orthogonal condition bits (degraded-to-radio after damage) that
//!   compose without flag combinatorics. The front-end counts outcomes
//!   once, in [`crate::frontend::LaneTotals`]; cloudlets keep no serve
//!   tally of their own.
//! * [`CloudletError`] — the workspace-level error type. Storage and
//!   engine errors from downstream crates convert into it via `From`
//!   impls (downstream, where the orphan rule allows them), so a
//!   heterogeneous front-end surfaces one typed error end-to-end
//!   instead of a panic.
//!
//! Keys are service-defined `u64`s, in keeping with the rest of this
//! crate: a query hash for search and ads, a page index for web, a
//! packed tile coordinate for maps. The front-end in [`crate::frontend`]
//! routes `(service, key)` pairs onto `dyn CloudletService` lanes
//! without knowing which cloudlet is behind each lane.

use mobsim::time::{SimDuration, SimInstant};
use serde::{Deserialize, Serialize};

use crate::arbiter::DemandContext;
use crate::coordination::{BudgetDemand, CloudletId};
use crate::error::CoreError;

/// One request through the serve stack: a user asking one service
/// group for one key at a simulated instant.
///
/// The front-end ([`crate::frontend`]) routes it by `service` and then
/// `key` or `user`, and hands the lane the caller's request unchanged;
/// both trait methods take it by reference — the exclusive
/// [`CloudletService::serve`] path and the read-only
/// [`CloudletService::try_serve_hit`] fast path. Most cloudlets hold
/// one device's state and read only `key` and `at`; population-scale
/// lanes ([`crate::population`]) use `user` to pick whose
/// personalization delta a request reads and whose click folds in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServeRequest {
    /// The requesting user; 0 on a single-user device. Under
    /// [`crate::frontend::RouteBy::User`] it also picks the lane, giving
    /// every user a home lane for their personalization state.
    pub user: u64,
    /// Service group index within the front-end.
    pub service: u32,
    /// The service-defined key (query hash, page index, tile coord…);
    /// under [`crate::frontend::RouteBy::Key`] (the default) it routes to
    /// lane `key % group_len` within the group.
    pub key: u64,
    /// Simulated arrival instant. A batch should be ordered by
    /// non-decreasing `at` for the front-end's queue model to be
    /// meaningful (a batch of simultaneous arrivals — all
    /// [`SimInstant::ZERO`] — is the common case and is fine).
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

    /// A request on service group 0 — the whole front-end when it hosts
    /// one group, and the only group a bare cloudlet serves.
    pub fn for_user(user: u64, key: u64, at: SimInstant) -> Self {
        Self::new(user, 0, key, at)
    }
}

/// How a single request was answered, in the shared taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServeKind {
    /// Served before the radio woke (locally, or by a cooperative
    /// peer — see [`ServeOutcome::source`] for who answered).
    Hit,
    /// Served locally but the content was stale, so a background
    /// refetch was charged (pocketweb's `StaleRefetch`).
    StaleHit,
    /// Not servable before the radio; the radio had to fetch it.
    Miss,
    /// The cloudlet declined to answer (an ad consultation on a search
    /// miss: once the radio must wake anyway, the ad cache is not
    /// consulted).
    Skipped,
}

/// Who produced the answer — the three-tier serve path.
///
/// The old taxonomy could only say *what* happened (`ServeKind`); with
/// the cooperative peer tier ([`crate::peer`]) two different parties can
/// produce a `Hit`, so outcomes now carry the source explicitly:
/// local cache → peer device over WiFi-direct → radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServeSource {
    /// This device's own cloudlet state answered (also used for
    /// `Skipped`, where nothing was fetched at all).
    Local,
    /// A nearby device's cloudlet answered over the WiFi-direct peer
    /// fabric; `peer_bytes` carries the transfer.
    Peer,
    /// The radio fetched the answer from the cloud; `radio_bytes`
    /// carries the transfer.
    Radio,
}

/// Orthogonal condition bits on a [`ServeOutcome`].
///
/// These replace the old boolean fields: conditions like
/// "degraded-to-radio after detecting damaged flash" compose with any
/// `(kind, source)` pair instead of multiplying the enum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServeFlags(u8);

impl ServeFlags {
    /// No condition bits set.
    pub const NONE: ServeFlags = ServeFlags(0);
    /// Local state was found damaged while answering (e.g. a corrupt
    /// flash record) and the cloudlet degraded gracefully to another
    /// source instead of failing the request — the §5.4 path.
    pub const DEGRADED: ServeFlags = ServeFlags(1);

    /// Whether every bit in `other` is set in `self`.
    pub const fn contains(self, other: ServeFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// The union of both flag sets.
    #[must_use]
    pub const fn with(self, other: ServeFlags) -> ServeFlags {
        ServeFlags(self.0 | other.0)
    }

    /// Whether no bits are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// The outcome of serving one keyed request through a
/// [`CloudletService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeOutcome {
    /// What happened to the request.
    pub kind: ServeKind,
    /// Who answered it (the three-tier path: local / peer / radio).
    pub source: ServeSource,
    /// Orthogonal condition bits (degradation).
    pub flags: ServeFlags,
    /// Radio bytes the answer cost (0 unless the radio woke).
    pub radio_bytes: u64,
    /// WiFi-direct peer-link bytes (0 unless a peer answered).
    pub peer_bytes: u64,
    /// Simulated device time spent serving it (zero for cloudlets
    /// whose model does not charge serve time).
    pub service: SimDuration,
}

impl ServeOutcome {
    const fn base(kind: ServeKind, source: ServeSource) -> Self {
        ServeOutcome {
            kind,
            source,
            flags: ServeFlags::NONE,
            radio_bytes: 0,
            peer_bytes: 0,
            service: SimDuration::ZERO,
        }
    }

    /// A pure local hit: no radio traffic.
    pub fn hit() -> Self {
        Self::base(ServeKind::Hit, ServeSource::Local)
    }

    /// A hit answered by a cooperative peer over the WiFi-direct
    /// fabric: `peer_bytes` crossed the peer link, the radio slept.
    pub fn peer_hit(peer_bytes: u64) -> Self {
        ServeOutcome {
            peer_bytes,
            ..Self::base(ServeKind::Hit, ServeSource::Peer)
        }
    }

    /// A local answer that triggered a `radio_bytes` freshness refetch.
    pub fn stale_hit(radio_bytes: u64) -> Self {
        ServeOutcome {
            radio_bytes,
            ..Self::base(ServeKind::StaleHit, ServeSource::Local)
        }
    }

    /// A miss that cost `radio_bytes` over the radio.
    pub fn miss(radio_bytes: u64) -> Self {
        ServeOutcome {
            radio_bytes,
            ..Self::base(ServeKind::Miss, ServeSource::Radio)
        }
    }

    /// A miss forced by damaged local state: the answer *should* have
    /// been a hit, but corruption was detected and the radio answered
    /// instead — the §5.4 graceful-degradation path
    /// ([`ServeFlags::DEGRADED`]).
    pub fn recovered_miss(radio_bytes: u64) -> Self {
        Self::miss(radio_bytes).with_flags(ServeFlags::DEGRADED)
    }

    /// A declined consultation.
    pub fn skipped() -> Self {
        Self::base(ServeKind::Skipped, ServeSource::Local)
    }

    /// Attaches the simulated service time.
    #[must_use]
    pub fn with_service(mut self, service: SimDuration) -> Self {
        self.service = service;
        self
    }

    /// Sets condition bits (unioned with any already present).
    #[must_use]
    pub fn with_flags(mut self, flags: ServeFlags) -> Self {
        self.flags = self.flags.with(flags);
        self
    }

    /// Whether local state was found damaged while answering.
    pub fn is_degraded(&self) -> bool {
        self.flags.contains(ServeFlags::DEGRADED)
    }
}

/// Serving counters folded from outcomes by [`ServeStats::record`].
///
/// No cloudlet in this workspace keeps them: the front-end's
/// [`crate::frontend::LaneTotals`] is the one serve tally. The struct,
/// `record` and the provided [`CloudletService::service_stats`] remain
/// only because the standalone `pipeline-bench` package's `Traced`
/// decorator forwards that method; they go when it stops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests served (all kinds, including skipped consultations).
    pub serves: u64,
    /// Hits (local *and* peer-answered; see `peer_hits` for the split).
    pub hits: u64,
    /// Local answers that charged a freshness refetch.
    pub stale_hits: u64,
    /// Radio misses.
    pub misses: u64,
    /// Declined consultations.
    pub skipped: u64,
    /// Outcomes that degraded to the radio after detecting damaged
    /// local state ([`ServeFlags::DEGRADED`]; a subset of `misses`).
    pub recovered: u64,
    /// Hits answered by a cooperative peer ([`ServeSource::Peer`]; a
    /// subset of `hits`).
    pub peer_hits: u64,
    /// Total WiFi-direct peer-link bytes across all outcomes.
    pub peer_bytes: u64,
    /// Total radio bytes across all outcomes.
    pub radio_bytes: u64,
    /// Total simulated service time.
    pub busy: SimDuration,
}

impl ServeStats {
    /// Folds one outcome into the counters.
    pub fn record(&mut self, outcome: &ServeOutcome) {
        self.serves += 1;
        match outcome.kind {
            ServeKind::Hit => self.hits += 1,
            ServeKind::StaleHit => self.stale_hits += 1,
            ServeKind::Miss => self.misses += 1,
            ServeKind::Skipped => self.skipped += 1,
        }
        if outcome.is_degraded() {
            self.recovered += 1;
        }
        if outcome.source == ServeSource::Peer {
            self.peer_hits += 1;
        }
        self.peer_bytes += outcome.peer_bytes;
        self.radio_bytes += outcome.radio_bytes;
        self.busy += outcome.service;
    }
}

/// The workspace-level serving error.
///
/// Downstream crates convert their own errors into this one via `From`
/// impls defined next to those error types (the orphan rule allows
/// `impl From<DbError> for CloudletError` inside `flashdb`), so the
/// front-end and every `CloudletService` impl speak one error
/// language without this crate depending on any of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudletError {
    /// A cache-architecture error from this crate.
    Core(CoreError),
    /// A storage-layer failure, carried as text so `cloudlet-core`
    /// stays independent of the storage crate's error type.
    Storage {
        /// Human-readable description of the storage failure.
        detail: String,
    },
    /// The key does not name anything this cloudlet can serve.
    UnknownKey {
        /// The offending key.
        key: u64,
    },
    /// A batch named a service group the front-end does not host.
    UnknownService {
        /// The offending service group index.
        service: u32,
    },
    /// A bounded serving queue was full and the front-end's overflow
    /// policy sheds load instead of parking it
    /// ([`crate::frontend::OverflowPolicy::Reject`]).
    QueueFull {
        /// The lane whose queue was full.
        lane: usize,
        /// The queue depth that was exceeded.
        depth: usize,
    },
}

impl std::fmt::Display for CloudletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudletError::Core(e) => write!(f, "cache error: {e}"),
            CloudletError::Storage { detail } => write!(f, "storage error: {detail}"),
            CloudletError::UnknownKey { key } => write!(f, "no such key: {key:#x}"),
            CloudletError::UnknownService { service } => {
                write!(f, "no such service group: {service}")
            }
            CloudletError::QueueFull { lane, depth } => {
                write!(f, "serving queue full on lane {lane} (depth {depth})")
            }
        }
    }
}

impl std::error::Error for CloudletError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CloudletError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for CloudletError {
    fn from(e: CoreError) -> Self {
        CloudletError::Core(e)
    }
}

/// One cloudlet behind the unified serving interface.
///
/// The trait is object-safe: the front-end stores
/// `Box<dyn CloudletService + Send + Sync>` lanes and routes
/// `(service, key)` requests onto them without knowing the concrete
/// cloudlet, and counts every outcome in its own lane totals. The
/// equivalence property tests pin each impl's outcomes to its legacy
/// serve loop.
///
/// The serve surface is two methods, both taking a [`ServeRequest`]:
/// the exclusive `serve` and the read-only `try_serve_hit` fast path.
pub trait CloudletService {
    /// Short stable name for reports ("search", "web", "maps", "ads").
    fn name(&self) -> &'static str;

    /// Serves one keyed request.
    ///
    /// A miss is a *successful* serve (the radio answered); `Err` is
    /// reserved for requests the cloudlet cannot process at all — an
    /// unknown key, corrupted storage, a broken invariant.
    fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError>;

    /// Read-only fast path: answers the request *only* if it is a local
    /// hit that needs no mutation at all — no cache expansion, no click
    /// logging, no LRU touch. Returns `None` whenever exclusive access
    /// is required, sending the caller to [`CloudletService::serve`].
    ///
    /// This is what lets a serving front-end keep hits behind a shared
    /// (`RwLock` read) lock: ~66% of traffic is hits (§4), and a hit on
    /// a read-optimized cloudlet inspects state without changing it.
    /// The caller counts the outcome, as it counts every `serve`
    /// outcome; implementations must return exactly the outcome `serve`
    /// would have produced for the same request, minus any side
    /// effects.
    ///
    /// The default declines everything, which is always correct: every
    /// cloudlet works unchanged through the exclusive path.
    fn try_serve_hit(&self, request: &ServeRequest) -> Option<ServeOutcome> {
        let _ = request;
        None
    }

    /// The key hashes this cloudlet could currently answer as local
    /// hits, advertised to the cooperative peer tier ([`crate::peer`])
    /// so nearby devices can build a compact summary of what this one
    /// holds. The default opts out (an empty inventory): the cloudlet
    /// is never consulted as a peer, which is always correct.
    fn summary_keys(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Always empty counters: no cloudlet here keeps a serve tally
    /// (see [`ServeStats`]). Provided only so `pipeline-bench`'s
    /// `Traced` decorator, which forwards it, still compiles.
    fn service_stats(&self) -> ServeStats {
        ServeStats::default()
    }

    /// Bytes of device memory the cloudlet's cached state occupies now.
    fn cache_bytes(&self) -> u64;

    /// Bytes the cloudlet is sized for (its flash/DRAM budget). The
    /// default assumes the cloudlet is exactly as big as what it
    /// caches.
    fn capacity_bytes(&self) -> u64 {
        self.cache_bytes()
    }

    /// This cloudlet's demand on a shared §7 index budget, for
    /// [`crate::coordination::CloudletBudgets::set_demand`].
    ///
    /// The [`DemandContext`] carries the arbiter's utility-derived
    /// priority plus the lane's own telemetry for the epoch being
    /// arbitrated ([`crate::arbiter::AdaptiveArbiter`] fills it in;
    /// static callers pass [`DemandContext::equal_priority`]). The
    /// default demands the cloudlet's full capacity at the arbiter's
    /// priority; implementations may shrink their demand when the
    /// telemetry shows the lane idle, or dampen the priority when their
    /// cached state is not earning hits.
    fn budget_demand(&self, cloudlet: CloudletId, ctx: &DemandContext) -> BudgetDemand {
        BudgetDemand {
            cloudlet,
            demand_bytes: usize::try_from(self.capacity_bytes()).unwrap_or(usize::MAX),
            priority: ctx.priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic toy service: even keys hit, key 7 is unknown,
    /// everything else misses 100 bytes.
    struct ToyService;

    impl CloudletService for ToyService {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn serve(&mut self, request: &ServeRequest) -> Result<ServeOutcome, CloudletError> {
            if request.key == 7 {
                return Err(CloudletError::UnknownKey { key: request.key });
            }
            Ok(if request.key.is_multiple_of(2) {
                ServeOutcome::hit().with_service(SimDuration::from_micros(5))
            } else {
                ServeOutcome::miss(100).with_service(SimDuration::from_micros(50))
            })
        }

        fn cache_bytes(&self) -> u64 {
            4096
        }
    }

    #[test]
    fn outcomes_fold_into_stats() {
        let mut svc = ToyService;
        let mut stats = ServeStats::default();
        for key in 0..10 {
            let request = ServeRequest::for_user(0, key, SimInstant::ZERO);
            if key == 7 {
                assert_eq!(
                    svc.serve(&request),
                    Err(CloudletError::UnknownKey { key: 7 })
                );
            } else {
                stats.record(&svc.serve(&request).expect("toy serve"));
            }
        }
        assert_eq!(stats.serves, 9);
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.radio_bytes, 400);
        assert_eq!(stats.peer_hits, 0);
        assert_eq!(
            stats.busy,
            SimDuration::from_micros(5 * 5 + 4 * 50),
            "busy sums per-outcome service time"
        );
    }

    #[test]
    fn stale_and_skipped_outcomes_are_tracked_separately() {
        let mut stats = ServeStats::default();
        stats.record(&ServeOutcome::hit());
        stats.record(&ServeOutcome::stale_hit(64));
        stats.record(&ServeOutcome::skipped());
        assert_eq!(stats.stale_hits, 1);
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.radio_bytes, 64);
    }

    #[test]
    fn sources_and_flags_compose() {
        // A peer hit counts as a hit that kept the radio asleep, carries
        // its transfer on the peer link, and is tallied separately.
        let peer = ServeOutcome::peer_hit(512);
        assert_eq!(peer.kind, ServeKind::Hit);
        assert_eq!(peer.source, ServeSource::Peer);
        assert_eq!(peer.radio_bytes, 0);
        assert_eq!(peer.peer_bytes, 512);

        // Degradation is a flag, orthogonal to kind/source.
        let degraded = ServeOutcome::recovered_miss(128);
        assert_eq!(degraded.kind, ServeKind::Miss);
        assert_eq!(degraded.source, ServeSource::Radio);
        assert!(degraded.is_degraded());
        assert!(degraded.flags.contains(ServeFlags::DEGRADED));
        assert_eq!(degraded.with_flags(ServeFlags::DEGRADED), degraded);
        assert!(ServeFlags::NONE.is_empty());

        let mut stats = ServeStats::default();
        stats.record(&peer);
        stats.record(&degraded);
        stats.record(&ServeOutcome::hit());
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.peer_hits, 1);
        assert_eq!(stats.peer_bytes, 512);
        assert_eq!(stats.recovered, 1);
    }

    #[test]
    fn fast_path_declines_by_default() {
        let svc = ToyService;
        // Even keys would hit through `serve`, but the default read-only
        // fast path always punts to the exclusive path.
        assert_eq!(
            svc.try_serve_hit(&ServeRequest::for_user(0, 2, SimInstant::ZERO)),
            None
        );
        assert_eq!(
            svc.try_serve_hit(&ServeRequest::for_user(0, 7, SimInstant::ZERO)),
            None
        );
        // And the default peer-summary inventory opts out.
        assert!(svc.summary_keys().is_empty());
        assert_eq!(svc.service_stats(), ServeStats::default());
    }

    #[test]
    fn budget_demand_uses_capacity_and_context_priority() {
        let svc = ToyService;
        let ctx = DemandContext {
            priority: 2.0,
            ..DemandContext::equal_priority(0)
        };
        let demand = svc.budget_demand(CloudletId(3), &ctx);
        assert_eq!(demand.cloudlet, CloudletId(3));
        assert_eq!(demand.demand_bytes, 4096);
        assert!((demand.priority - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn errors_display_and_convert() {
        let core_err = CoreError::QueryNotCached { query_hash: 9 };
        let wrapped: CloudletError = core_err.clone().into();
        assert_eq!(wrapped, CloudletError::Core(core_err));
        assert!(wrapped.to_string().contains("cache error"));
        assert!(CloudletError::UnknownService { service: 4 }
            .to_string()
            .contains("service group: 4"));
        assert!(CloudletError::QueueFull { lane: 2, depth: 8 }
            .to_string()
            .contains("lane 2 (depth 8)"));
        use std::error::Error;
        assert!(wrapped.source().is_some());
        assert!(CloudletError::Storage {
            detail: "flash gone".into()
        }
        .source()
        .is_none());
    }
}
