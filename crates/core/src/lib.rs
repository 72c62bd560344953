//! The generic pocket-cloudlet cache architecture (paper §3 and §5).
//!
//! This crate is the paper's primary contribution in library form: a cloud
//! service cache that lives on a mobile device's NVM and combines a
//! **community** access model (what is popular across all users, mined from
//! service logs by a server) with a **personalization** model (what this
//! user does, recorded on the device). PocketSearch (the `pocketsearch`
//! crate) instantiates it for web search; the architecture is deliberately
//! service-agnostic — everything here is keyed by stable 64-bit hashes and
//! abstract record sizes, so the same machinery can back ads, maps, or
//! yellow-pages cloudlets (Table 2).
//!
//! * [`hashtable`] — the DRAM query hash table of §5.2.1: fixed-layout
//!   entries holding two scored results plus a flags word, with salted
//!   overflow entries for queries with more results, and its immutable
//!   serve-path image [`hashtable::frozen::FrozenTable`].
//! * [`contentgen`] — cache content generation from `(query, result,
//!   volume)` triplets under a memory or saturation threshold (§5.1).
//! * [`ranking`] — the personalized ranking update of §5.3
//!   (`S1 ← S1 + 1`, `S2 ← S2·e^{−λ}`).
//! * [`cache`] — the on-device cache state machine combining the community
//!   warm start and personalization expansion, with the Figure 17
//!   component ablations.
//! * [`update`] — the §5.4 client/server cache-management protocol.
//! * [`coordination`] — §7's multi-cloudlet resource coordination:
//!   budgets, coordinated eviction, and access isolation.
//! * [`arbiter`] — the §7 arbiter closed over live telemetry: an
//!   [`AdaptiveArbiter`] turns per-lane front-end totals into utility
//!   signals, smooths them, and periodically re-derives the budget
//!   split, logging every [`arbiter::BudgetDecision`].
//! * [`service`] — the unified serving waist of §7: the
//!   [`CloudletService`] trait with its two-method
//!   `serve`/`try_serve_hit` surface over the one [`ServeRequest`],
//!   the shared [`ServeOutcome`] taxonomy (what happened × who
//!   answered × condition flags), and the workspace-level
//!   [`CloudletError`]. The front-end's [`frontend::LaneTotals`] is the
//!   one serve tally.
//! * [`peer`] — the cooperative cloudlet tier between local-miss and
//!   the radio: a per-cell [`peer::PeerFabric`] of Bloom summaries
//!   over each device's cached keys, with modeled
//!   WiFi-direct fetch latency/energy.
//! * [`frontend`] — the pipelined serving front-end: bounded per-lane
//!   queues with typed admission/backpressure, duplicate-key
//!   coalescing, and a shared-lock read path for hits.
//! * [`population`] — population-scale serving, the one runtime form of
//!   the §4 two-part split: one frozen [`cache::CommunityCache`]
//!   snapshot plus per-user [`cache::PersonalDelta`]s behind a
//!   [`CloudletService`] lane, with O(users) resident-memory accounting.
//! * [`corpus`] — the small trait that ties hashes and record sizes back
//!   to a concrete corpus (implemented for `querylog::Universe`).
//! * [`counters`] — the shared lock-free [`counters::CounterSet`]
//!   statistics bank used by the front-end, the search fleet, and the
//!   peer fabric.
//!
//! # Scaling beyond one device
//!
//! The paper evaluates a single handset, where one thread serves one
//! user's queries. The same cache layout also has to work when a
//! cloudlet front-end serves many users at once — a shared community
//! cache on an edge box, or a simulator replaying a whole population.
//! The DRAM index serves concurrently without changing its semantics: a
//! §5.4 refresh builds a new table, so the installed one never changes
//! while it serves, and [`hashtable::frozen::FrozenTable`] is its
//! immutable image. Every serving thread reads the one image through an
//! `Arc` without any lock, and a lookup returns byte-for-byte what the
//! mutable table would. The `pocketsearch` crate's `fleet` module builds
//! the multi-threaded serving loop on top of this.
//!
//! # Example
//!
//! ```
//! use cloudlet_core::cache::{CacheMode, PocketCache};
//! use cloudlet_core::ranking::RankingPolicy;
//!
//! let mut cache = PocketCache::new(CacheMode::Full, RankingPolicy::default());
//! // Install a community entry, then serve it.
//! cache.install_pair(100, 200, 0.53);
//! let hit = cache.lookup(100).expect("installed queries hit");
//! assert_eq!(hit[0].result_hash, 200);
//! ```

pub mod arbiter;
pub mod cache;
pub mod contentgen;
pub mod coordination;
pub mod corpus;
pub mod counters;
pub mod error;
pub mod frontend;
pub mod hashtable;
pub mod lockrank;
pub mod peer;
pub mod population;
pub mod ranking;
pub mod service;
pub mod update;

pub use arbiter::{AdaptiveArbiter, ArbiterConfig, BudgetDecision, DemandContext};
pub use cache::{CacheMode, CommunityCache, PersonalDelta, PocketCache};
pub use contentgen::{AdmissionPolicy, CacheContents, CachePair};
pub use coordination::{CloudletBudgets, CloudletId, CoordinatedEviction};
pub use corpus::{CorpusView, UniverseCorpus};
pub use counters::CounterSet;
pub use error::CoreError;
pub use frontend::{
    Frontend, FrontendConfig, FrontendReport, FrontendTelemetry, HitPathMode, OverflowPolicy,
    RouteBy,
};
pub use hashtable::frozen::FrozenTable;
pub use hashtable::{QueryHashTable, ScoredResult, SLOTS_PER_ENTRY};
pub use peer::{BloomSummary, PeerConfig, PeerConsult, PeerFabric, PeerFabricStats};
pub use population::{PairTable, PopulationConfig, PopulationLane};
pub use ranking::RankingPolicy;
pub use service::{
    CloudletError, CloudletService, ServeKind, ServeOutcome, ServeRequest, ServeSource,
};
pub use update::{UpdateBundle, UpdateServer};
