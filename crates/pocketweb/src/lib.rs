//! PocketWeb: the web-content pocket cloudlet sketched in §3 and
//! footnote 2 of the paper.
//!
//! PocketSearch caches *search results*; the content those results point
//! to is the job of "another cloudlet responsible for web content
//! caching/pre-fetching (i.e., PocketWeb)". §3.2 lays out its data
//! management problem:
//!
//! * **static data** (most pages) can be refreshed in bulk overnight,
//!   "when the device has access to power resources and high bandwidth
//!   links";
//! * **dynamic data** (news, stock prices) changes many times a day, so a
//!   cached copy goes stale — but "the amount of dynamic data that is
//!   repeatedly accessed by mobile users tends to be small": 70% of web
//!   visits are revisits to a couple of tens of pages for more than half
//!   of the users. So instead of bulk updates over the radio, "only the
//!   small set of most frequently visited data ... is updated in real
//!   time".
//!
//! This crate makes that policy executable:
//!
//! * [`world`] — a simulated web: pages with sizes, static/dynamic
//!   change periods, and versions that advance with simulated time.
//! * [`cloudlet`] — the on-device page cache over the `mobsim` flash
//!   store, with freshness tracking and the real-time subscription set.
//! * [`policy`] — the three §3.2 refresh strategies (overnight-only,
//!   real-time top-K, real-time everything) and the visit-replay driver
//!   that scores them on freshness and radio cost.
//!
//! # Example
//!
//! ```
//! use pocketweb::policy::RefreshPolicy;
//! use pocketweb::world::{WebWorld, WorldConfig};
//! use pocketweb::cloudlet::{PocketWeb, VisitOutcome};
//! use mobsim::time::SimInstant;
//!
//! let world = WebWorld::generate(WorldConfig::test_scale(), 3);
//! let mut web = PocketWeb::new(&world, RefreshPolicy::RealtimeTopK { k: 10 });
//! // Cache a page, then read it back fresh.
//! let page = world.pages()[0].id;
//! web.prefetch(&world, page, SimInstant::ZERO);
//! let outcome = web.visit(&world, page, SimInstant::ZERO);
//! assert_eq!(outcome, VisitOutcome::InstantHit);
//! ```

pub mod cloudlet;
pub mod policy;
pub mod service;
pub mod world;

pub use cloudlet::{PocketWeb, VisitOutcome};
pub use policy::{replay_visits, PolicyReport, RefreshPolicy};
pub use service::WebService;
pub use world::{PageId, PageSpec, WebWorld, WorldConfig};
