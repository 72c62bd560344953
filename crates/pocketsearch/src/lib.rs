//! PocketSearch: the search-and-advertisement pocket cloudlet (§5–§6).
//!
//! This crate assembles the full system the paper prototypes on a Sony
//! Ericsson Xperia X1a, out of the workspace's substrates:
//!
//! * the community/personalization cache (`cloudlet-core`),
//! * the 32-file flash result database (`flashdb`),
//! * the simulated handset — radios, flash timing, browser, energy
//!   (`mobsim`),
//! * and the synthetic m.bing.com logs (`querylog`).
//!
//! On top sit the paper's evaluation drivers: [`replay`] re-runs per-user
//! query streams against a configured cache exactly as §6.2 does, and
//! [`experiment`] packages the headline studies (Figure 15 latency/energy,
//! Figure 16 power traces, Figures 17–19 hit rates, §6.2.2 daily updates).
//! [`fleet`] scales serving beyond one device: [`fleet::search_frontend`]
//! serves `(user, query)` batches through a
//! `cloudlet_core::frontend::Frontend` of `S` [`fleet::SearchShard`]
//! lanes, all probing one shared immutable DRAM index.
//!
//! # Example
//!
//! ```
//! use pocketsearch::config::PocketSearchConfig;
//! use pocketsearch::engine::{Catalog, PocketSearch};
//! use querylog::generator::{GeneratorConfig, LogGenerator};
//! use querylog::triplets::TripletTable;
//! use cloudlet_core::contentgen::{AdmissionPolicy, CacheContents};
//! use cloudlet_core::corpus::UniverseCorpus;
//!
//! // Mine one month of community logs and build the cache from them.
//! let mut generator = LogGenerator::new(GeneratorConfig::test_scale(), 1);
//! let build_month = generator.generate_month();
//! let table = TripletTable::from_log(&build_month);
//! let corpus = UniverseCorpus::new(generator.universe());
//! let contents = CacheContents::generate(&table, &corpus,
//!     AdmissionPolicy::CumulativeShare { share: 0.55 });
//!
//! let catalog = Catalog::new(generator.universe());
//! let mut engine = PocketSearch::build(&contents, &catalog, PocketSearchConfig::default());
//!
//! // A popular query is served locally, an order of magnitude faster
//! // than the 3G path.
//! let popular = contents.pairs()[0].query_hash;
//! let served = engine.serve(popular);
//! assert!(served.hit);
//! assert!(served.report.total_time.as_millis_f64() < 500.0);
//! ```

pub mod advert;
pub mod config;
pub mod engine;
pub mod experiment;
pub mod fleet;
pub mod navigation;
pub mod replay;
pub mod suggest;

pub use advert::{AdCloudlet, AdOutcome};
pub use config::PocketSearchConfig;
pub use engine::{Catalog, PocketSearch, RecoveryStats, ServedQuery};
pub use fleet::{search_frontend, SearchShard};
pub use navigation::navigation_time;
pub use replay::{replay_population, ClassSummary, ReplayOutcome};
pub use suggest::{SuggestIndex, Suggestion};
