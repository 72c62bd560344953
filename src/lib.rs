//! # Pocket Cloudlets
//!
//! A full reproduction of *Pocket Cloudlets* (Koukoumidis, Lymberopoulos,
//! Strauss, Liu, Burger — ASPLOS 2011) as a Rust workspace: NVM-resident
//! caches of cloud services on mobile devices, with the **PocketSearch**
//! search-and-advertisement cloudlet as the showcase.
//!
//! This crate is the facade: it re-exports every workspace crate under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! * [`nvmscale`] — NVM scaling trends (Table 1, Figure 2, Table 2).
//! * [`querylog`] — synthetic m.bing.com-style logs and the §4 analysis.
//! * [`mobsim`] — the simulated handset: radios, flash, energy, browser.
//! * [`core`] — the community + personalization cache architecture.
//! * [`flashdb`] — the 32-file flash result database (§5.2.2).
//! * [`baselines`] — LRU / LFU / browser-substring / server-only.
//! * [`pocketsearch`] — the assembled system and the §6 evaluation.
//! * [`pocketweb`] — the web-content cloudlet and the §3.2 freshness
//!   policies (overnight bulk refresh vs real-time top-K updates).
//! * [`pocketmaps`] — the mapping cloudlet of §2/§7: the 300 m tile grid,
//!   a commuter movement model, and region-prefetch policies.
//!
//! # Quickstart
//!
//! ```
//! use pocket_cloudlets::prelude::*;
//!
//! // 1. Mine a month of community search logs.
//! let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 7);
//! let logs = generator.generate_month();
//!
//! // 2. Build the community cache from the most popular pairs.
//! let triplets = TripletTable::from_log(&logs);
//! let contents = CacheContents::generate(
//!     &triplets,
//!     &UniverseCorpus::new(generator.universe()),
//!     AdmissionPolicy::CumulativeShare { share: 0.55 },
//! );
//!
//! // 3. Put it in your pocket and search.
//! let catalog = Catalog::new(generator.universe());
//! let mut pocket = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
//! let served = pocket.serve(contents.pairs()[0].query_hash);
//! assert!(served.hit, "popular queries are served without the radio");
//! ```

pub use baselines;
pub use cloudlet_core as core;
pub use flashdb;
pub use mobsim;
pub use nvmscale;
pub use pocketmaps;
pub use pocketsearch;
pub use pocketweb;
pub use querylog;

/// The items most programs need, in one import.
pub mod prelude {
    pub use baselines::{CacheRequest, QueryCache};
    pub use cloudlet_core::cache::{CacheMode, PocketCache};
    pub use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
    pub use cloudlet_core::corpus::UniverseCorpus;
    pub use cloudlet_core::frontend::{Frontend, FrontendConfig, FrontendReport};
    pub use cloudlet_core::ranking::RankingPolicy;
    pub use cloudlet_core::service::{
        CloudletError, CloudletService, ServeKind, ServeOutcome, ServeRequest,
    };
    pub use cloudlet_core::update::UpdateServer;
    pub use flashdb::{DbConfig, ResultDb, ResultRecord};
    pub use mobsim::device::Device;
    pub use mobsim::radio::RadioKind;
    pub use mobsim::time::{SimDuration, SimInstant};
    pub use nvmscale::{
        CapacityProjection, CloudletBudget, DeviceTier, ScalingTechnique, ScalingTrends,
    };
    pub use pocketmaps::{CommuterModel, PocketMaps, Position, PrefetchPolicy, TileGrid};
    pub use pocketsearch::config::PocketSearchConfig;
    pub use pocketsearch::engine::{Catalog, PocketSearch};
    pub use pocketsearch::experiment::{run_hit_rate_study, HitRateConfig, StudyInputs};
    pub use pocketsearch::fleet::{search_frontend, SearchShard};
    pub use pocketsearch::replay::{replay_population, ClassSummary};
    pub use pocketweb::{PocketWeb, RefreshPolicy, WebService, WebWorld, WorldConfig};
    pub use querylog::generator::{GeneratorConfig, LogGenerator};
    pub use querylog::triplets::TripletTable;
    pub use querylog::universe::{QueryKind, Universe, UniverseConfig};
    pub use querylog::users::UserClass;
}
