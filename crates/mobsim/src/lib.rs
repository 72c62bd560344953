//! Mobile device simulator for the Pocket Cloudlets reproduction.
//!
//! The paper measured PocketSearch on a real handset (a Sony Ericsson
//! Xperia X1a on AT&T's network). This crate replaces that testbed with a
//! deterministic device model whose defaults are calibrated to the constants
//! the paper reports, so the evaluation's *relative* results (16×/25×/7×
//! latency, 23×/41×/11× energy) emerge from the model rather than being
//! asserted:
//!
//! * [`time`] — simulation clock newtypes ([`SimDuration`], [`SimInstant`]).
//! * [`power`] — power/energy quantities and the integrating [`EnergyMeter`].
//! * [`radio`] — 3G / EDGE / 802.11g link models with wakeup latency,
//!   round trips, throughput, and per-state power draw.
//! * [`flash`] — a NAND flash store with block-granular allocation
//!   (fragmentation) and page-granular read/program timing.
//! * [`memory`] — DRAM and PCM tiers and the three-tier index-placement
//!   model of §3.3 (boot-time index load cost).
//! * [`browser`] — the render-time model behind Table 4 and Table 5.
//! * [`battery`] — charge capacity and queries-per-charge arithmetic.
//! * [`device`] — a composed [`Device`] with a base power draw.
//! * [`timeline`] — power-over-time traces for Figure 16.
//!
//! # Example
//!
//! ```
//! use mobsim::radio::{Radio, RadioKind};
//! use mobsim::time::SimInstant;
//!
//! let mut radio = Radio::new(RadioKind::ThreeG.default_model());
//! let xfer = radio.transfer(SimInstant::ZERO, 800, 50_000);
//! // A cold 3G transfer pays the multi-second wakeup penalty.
//! assert!(xfer.total_time.as_secs_f64() > 2.0);
//! ```

pub mod battery;
pub mod browser;
pub mod device;
pub mod flash;
pub mod memory;
pub mod power;
pub mod radio;
pub mod time;
pub mod timeline;

pub use battery::Battery;
pub use browser::{BrowserModel, PageWeight};
pub use device::{Device, DeviceConfig, ServiceBreakdown, ServiceReport};
pub use flash::{FlashModel, FlashStore};
pub use memory::{DramModel, IndexPlacement, MemoryTier, PcmModel, TieredMemory};
pub use power::{Energy, EnergyMeter, Power};
pub use radio::{Radio, RadioKind, RadioModel, RadioState, Transfer};
pub use time::{SimDuration, SimInstant};
pub use timeline::{PowerSegment, PowerTimeline};

/// The SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation,
/// behind [`flash`]'s stuck-bit draws and the peer tier's Bloom-summary
/// key hashes.
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
