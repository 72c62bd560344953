//! The cooperative cloudlet peer tier — devices before the radio.
//!
//! Pocket cloudlets (§6–§7) win by answering queries before the radio
//! ever wakes. Until now the repo had exactly two tiers: the local
//! cache or 3G. This module adds the missing middle tier, memcloud- and
//! NV-Fogstore-style: devices in the same simulated cell pool their
//! cloudlets, so a local miss first asks *nearby devices* over a
//! WiFi-direct link and only falls back to the radio when no peer holds
//! the key.
//!
//! The mechanism:
//!
//! * Every device registers a compact [`BloomSummary`] of the key
//!   hashes its cloudlet can answer (the
//!   [`crate::service::CloudletService::summary_keys`] inventory),
//!   alongside the exact inventory used to model the peer actually
//!   serving the fetch. Both live together in one holding per member.
//! * A local miss calls [`PeerFabric::consult`]: walk the cell's
//!   summaries, probe the claimants best-first, and on a verified hold
//!   fetch the record at modeled WiFi-direct latency/energy
//!   ([`PeerConfig::link`]). Bloom false positives are real, wasted
//!   peer exchanges: their time and bytes are charged to the outcome,
//!   which is exactly why the `peers` ablation sweeps summary bits.
//! * The membership vector, holdings included, sits behind an
//!   `OrderedRwLock` at rank [`crate::lockrank::PEER_FABRIC`] — only
//!   registration takes the write side and replaces a holding whole;
//!   consults take the read side, read the holdings in place, and
//!   otherwise touch only [`CounterSet`] slots. A consult racing a
//!   refresh therefore sees the old or the new holding, never a mix.
//!
//! A fabric with a single member (cell size 1) never produces a claim,
//! never charges a probe, and leaves every outcome untouched — the
//! solo-device telemetry is reproduced bit for bit, which the `peers`
//! ablation asserts on every run.

use std::collections::HashSet;

use analysis::sync::OrderedRwLock;
use mobsim::mix64;
use mobsim::radio::RadioModel;
use mobsim::time::SimDuration;

use crate::counters::CounterSet;
use crate::service::ServeOutcome;

/// A hand-rolled Bloom filter over cached key hashes — the compact
/// per-peer summary a device gossips to its cell.
///
/// Double hashing (Kirsch–Mitzenmacher): bit *i* of a key is
/// `(h1 + i·h2) mod m` with `h1`/`h2` independent splitmix64 mixes, so
/// `k` probes cost two multiplies, not `k` hash evaluations. False
/// positives are possible (a wasted peer probe, charged to the
/// outcome); false negatives are not — the property suite asserts the
/// measured false-positive rate stays within 2× of the analytic
/// `(1 − e^{−kn/m})^k` bound and that no inserted key is ever denied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomSummary {
    bits: Vec<u64>,
    m_bits: u64,
    hashes: u32,
    entries: u64,
}

impl BloomSummary {
    /// An empty summary of `m_bits` bits probed `hashes` times per key.
    /// Degenerate shapes are clamped sane (at least 64 bits, at least
    /// one probe) instead of failing.
    pub fn new(m_bits: usize, hashes: u32) -> Self {
        let m_bits = m_bits.max(64) as u64;
        BloomSummary {
            bits: vec![0u64; m_bits.div_ceil(64) as usize],
            m_bits,
            hashes: hashes.max(1),
            entries: 0,
        }
    }

    /// Builds a summary holding every key in `keys`.
    pub fn from_keys(keys: &[u64], m_bits: usize, hashes: u32) -> Self {
        let mut summary = Self::new(m_bits, hashes);
        for &key in keys {
            summary.insert(key);
        }
        summary
    }

    fn probes(&self, key: u64) -> impl Iterator<Item = u64> + '_ {
        let h1 = mix64(key);
        // `| 1` keeps the stride odd so probes cannot collapse onto one
        // bit when m is even.
        let h2 = mix64(key ^ 0xA076_1D64_78BD_642F) | 1;
        (0..u64::from(self.hashes)).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % self.m_bits)
    }

    /// Sets the key's bits.
    pub fn insert(&mut self, key: u64) {
        let m = self.m_bits;
        let h1 = mix64(key);
        let h2 = mix64(key ^ 0xA076_1D64_78BD_642F) | 1;
        for i in 0..u64::from(self.hashes) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.entries += 1;
    }

    /// Whether the key *may* have been inserted (never a false
    /// negative; false positives at the analytic rate).
    pub fn contains(&self, key: u64) -> bool {
        self.probes(key)
            .all(|bit| self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0)
    }

    /// Keys inserted so far (counted, not deduplicated).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// The filter width in bits.
    pub fn bits(&self) -> u64 {
        self.m_bits
    }

    /// Probes per key.
    pub fn hashes(&self) -> u32 {
        self.hashes
    }

    // api-ok: tests/peer_fabric.rs holds measured false positives to it,
    // and ROADMAP item 10's bits-per-key summary arm sizes by it.
    /// The textbook false-positive bound `(1 − e^{−kn/m})^k` for the
    /// current load — what the property suite holds measurements
    /// against.
    pub fn analytic_fp_rate(&self) -> f64 {
        let k = f64::from(self.hashes);
        let n = self.entries as f64;
        let m = self.m_bits as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }
}

/// The WiFi-direct cost and summary-shape knobs of one cell's fabric.
#[derive(Debug, Clone, Copy)]
pub struct PeerConfig {
    /// Bloom summary width in bits per peer.
    pub summary_bits: usize,
    /// Bloom probes per key.
    pub summary_hashes: u32,
    /// Bytes of a consult/fetch request over the peer link.
    pub request_bytes: u64,
    /// Bytes of a fetched record payload.
    pub response_bytes: u64,
    /// The modeled peer link (see
    /// [`RadioModel::wifi_direct_peer`] for the WiFi-direct constants
    /// vs 3G).
    pub link: RadioModel,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            summary_bits: 4096,
            summary_hashes: 4,
            request_bytes: 200,
            response_bytes: 2048,
            link: RadioModel::wifi_direct_peer(),
        }
    }
}

impl PeerConfig {
    /// Simulated time of one successful peer fetch: the power-save poll
    /// plus a warm request/response exchange on the peer link.
    pub fn fetch_time(&self) -> SimDuration {
        self.link.wakeup
            + self
                .link
                .warm_exchange_time(self.request_bytes, self.response_bytes)
    }

    /// Simulated time wasted on one false-positive probe: a warm
    /// request/deny exchange (the deny is request-sized — no payload).
    pub fn probe_time(&self) -> SimDuration {
        self.link
            .warm_exchange_time(self.request_bytes, self.request_bytes)
    }

    /// Peer-link bytes wasted by one false-positive probe.
    pub fn probe_bytes(&self) -> u64 {
        self.request_bytes * 2
    }

    /// Energy of one successful peer fetch in millijoules.
    pub fn fetch_energy_mj(&self) -> f64 {
        self.link
            .active_extra_power
            .over(self.fetch_time())
            .millijoules()
    }

    /// Energy of one false-positive probe in millijoules.
    pub fn probe_energy_mj(&self) -> f64 {
        self.link
            .active_extra_power
            .over(self.probe_time())
            .millijoules()
    }
}

/// What one device publishes to its cell: the compact summary plus the
/// exact inventory the modeled peer fetch verifies against.
#[derive(Debug)]
struct PeerHolding {
    summary: BloomSummary,
    keys: HashSet<u64>,
}

/// One registered device.
#[derive(Debug)]
struct PeerMember {
    device: u64,
    holding: PeerHolding,
}

/// The result of consulting the cell on a local miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerConsult {
    /// A peer held the key: the replacement outcome (a
    /// [`ServeOutcome::peer_hit`] carrying fetch time, fetched bytes,
    /// and any wasted false-positive probes).
    Hit {
        /// The device that served the fetch.
        peer: u64,
        /// The outcome to report instead of the radio miss.
        outcome: ServeOutcome,
        /// Summaries that claimed the key but did not hold it.
        false_positives: u32,
    },
    /// No peer held the key: the radio must answer after all. The
    /// wasted probe cost (zero when no summary false-claimed) must be
    /// added onto the radio outcome by the caller.
    Miss {
        /// Summaries that claimed the key but did not hold it.
        false_positives: u32,
        /// Peer-link time wasted probing false claimants.
        wasted: SimDuration,
        /// Peer-link bytes wasted probing false claimants.
        wasted_bytes: u64,
    },
}

/// Fabric telemetry counters, snapshotted lock-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerFabricStats {
    /// Misses that consulted the cell.
    pub consults: u64,
    /// Consults a peer answered.
    pub peer_hits: u64,
    /// Summary claims that turned out false.
    pub false_positives: u64,
    /// Total peer-link bytes moved (fetches + wasted probes).
    pub peer_bytes: u64,
    /// Consults that fell through to the radio.
    pub radio_fallbacks: u64,
}

const CONSULTS: usize = 0;
const PEER_HITS: usize = 1;
const FALSE_POSITIVES: usize = 2;
const PEER_BYTES: usize = 3;
const RADIO_FALLBACKS: usize = 4;

/// The devices of one simulated cell pooling their cloudlets.
///
/// Registration (and summary refresh) takes the ranked write lock;
/// [`consult`](PeerFabric::consult) — the serve-path operation — takes
/// the ranked read lock and reads the holdings under it, so concurrent
/// consults never serialize on each other.
pub struct PeerFabric {
    config: PeerConfig,
    members: OrderedRwLock<Vec<PeerMember>>,
    counters: CounterSet<5>,
}

impl std::fmt::Debug for PeerFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerFabric")
            .field("config", &self.config)
            .field("members", &self.member_count())
            .field("stats", &self.telemetry())
            .finish()
    }
}

impl PeerFabric {
    /// An empty cell.
    pub fn new(config: PeerConfig) -> Self {
        PeerFabric {
            config,
            members: OrderedRwLock::new(crate::lockrank::PEER_FABRIC, "peer_fabric", Vec::new()),
            counters: CounterSet::new(),
        }
    }

    /// The cell's cost/shape knobs.
    pub fn config(&self) -> &PeerConfig {
        &self.config
    }

    /// Registers (or refreshes) a device's inventory: rebuilds its
    /// Bloom summary from `keys` outside the lock, then replaces
    /// summary + exact set together under the write lock, so consults
    /// racing a refresh see either the old or the new holding, never a
    /// torn one.
    pub fn register(&self, device: u64, keys: &[u64]) {
        let holding = PeerHolding {
            summary: BloomSummary::from_keys(
                keys,
                self.config.summary_bits,
                self.config.summary_hashes,
            ),
            keys: keys.iter().copied().collect(),
        };
        let mut members = self.members.write();
        match members.iter_mut().find(|m| m.device == device) {
            Some(member) => member.holding = holding,
            None => members.push(PeerMember { device, holding }),
        }
    }

    /// Registered devices.
    ///
    /// Deliberately not named `len`: the workspace lock-order lint
    /// (R5) merges functions by bare name, and a lock-acquiring `len`
    /// would make every `.len()` call in the tree look like it takes
    /// the member roster lock.
    pub fn member_count(&self) -> usize {
        self.members.read().len()
    }

    /// Consults the cell about a key this device just missed locally.
    ///
    /// Claimants (peers whose summary contains the key) are probed
    /// best-first — smallest advertised inventory wins, i.e. the least
    /// loaded peer serves the fetch. Every false claim costs a modeled
    /// probe exchange; a verified hold costs the full fetch. The
    /// requester's own summary is never consulted.
    pub fn consult(&self, requester: u64, key: u64) -> PeerConsult {
        self.counters.bump(CONSULTS, 1);
        let members = self.members.read();
        // (entries, device, index) per claimant: deterministic
        // best-first order for the probe loop.
        let mut claimants: Vec<(u64, u64, usize)> = Vec::new();
        for (index, member) in members.iter().enumerate() {
            if member.device == requester {
                continue;
            }
            let summary = &member.holding.summary;
            if summary.contains(key) {
                claimants.push((summary.entries(), member.device, index));
            }
        }
        claimants.sort_unstable();

        let mut false_positives = 0u32;
        let mut wasted = SimDuration::ZERO;
        let mut wasted_bytes = 0u64;
        for &(_, device, index) in &claimants {
            if members[index].holding.keys.contains(&key) {
                let peer_bytes = self.config.response_bytes + wasted_bytes;
                let outcome = ServeOutcome::peer_hit(peer_bytes)
                    .with_service(self.config.fetch_time() + wasted);
                self.counters.bump(PEER_HITS, 1);
                self.counters.bump(PEER_BYTES, peer_bytes);
                self.counters
                    .bump(FALSE_POSITIVES, u64::from(false_positives));
                return PeerConsult::Hit {
                    peer: device,
                    outcome,
                    false_positives,
                };
            }
            false_positives += 1;
            wasted += self.config.probe_time();
            wasted_bytes += self.config.probe_bytes();
        }

        self.counters
            .bump(FALSE_POSITIVES, u64::from(false_positives));
        self.counters.bump(PEER_BYTES, wasted_bytes);
        self.counters.bump(RADIO_FALLBACKS, 1);
        PeerConsult::Miss {
            false_positives,
            wasted,
            wasted_bytes,
        }
    }

    /// Lock-free snapshot of the fabric's counters.
    pub fn telemetry(&self) -> PeerFabricStats {
        let snap = self.counters.snapshot();
        PeerFabricStats {
            consults: snap[CONSULTS],
            peer_hits: snap[PEER_HITS],
            false_positives: snap[FALSE_POSITIVES],
            peer_bytes: snap[PEER_BYTES],
            radio_fallbacks: snap[RADIO_FALLBACKS],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeKind, ServeSource};

    #[test]
    fn bloom_has_no_false_negatives() {
        let keys: Vec<u64> = (0..300).map(|i| mix64(i) ^ 0xDEAD).collect();
        let summary = BloomSummary::from_keys(&keys, 4096, 4);
        assert_eq!(summary.entries(), 300);
        for key in keys {
            assert!(summary.contains(key), "inserted key {key:#x} denied");
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_near_the_analytic_bound() {
        let keys: Vec<u64> = (0..256).map(|i| mix64(i * 3 + 1)).collect();
        let summary = BloomSummary::from_keys(&keys, 2048, 4);
        let probes = 8192u64;
        let fp = (0..probes)
            .map(|i| mix64(i ^ 0x5EED_0001).wrapping_add(1 << 40))
            .filter(|k| summary.contains(*k))
            .count() as f64
            / probes as f64;
        let bound = summary.analytic_fp_rate();
        assert!(bound > 0.0 && bound < 0.5, "bound {bound} out of range");
        assert!(fp <= 2.0 * bound + 0.01, "measured {fp} vs bound {bound}");
    }

    #[test]
    fn degenerate_shapes_are_clamped() {
        let mut tiny = BloomSummary::new(0, 0);
        assert_eq!(tiny.bits(), 64);
        assert_eq!(tiny.hashes(), 1);
        tiny.insert(42);
        assert!(tiny.contains(42));
    }

    #[test]
    fn consult_fetches_from_the_holder() {
        let fabric = PeerFabric::new(PeerConfig::default());
        fabric.register(0, &[]);
        fabric.register(1, &[10, 11, 12]);
        fabric.register(2, &[12, 13]);

        // Device 0 misses key 13; only device 2 holds it.
        let consult = fabric.consult(0, 13);
        let PeerConsult::Hit { peer, outcome, .. } = consult else {
            panic!("expected a peer hit, got {consult:?}");
        };
        assert_eq!(peer, 2);
        assert_eq!(outcome.kind, ServeKind::Hit);
        assert_eq!(outcome.source, ServeSource::Peer);
        assert_eq!(outcome.radio_bytes, 0);
        assert!(outcome.peer_bytes >= PeerConfig::default().response_bytes);
        assert!(outcome.service >= PeerConfig::default().fetch_time());

        // Nobody holds key 99: radio fallback.
        assert!(matches!(fabric.consult(0, 99), PeerConsult::Miss { .. }));
        let stats = fabric.telemetry();
        assert_eq!(stats.consults, 2);
        assert_eq!(stats.peer_hits, 1);
        assert_eq!(stats.radio_fallbacks, 1);
    }

    #[test]
    fn best_peer_is_the_least_loaded_claimant() {
        let fabric = PeerFabric::new(PeerConfig::default());
        fabric.register(0, &[]);
        fabric.register(1, &[7, 8, 9, 10]);
        fabric.register(2, &[7]);
        let consult = fabric.consult(0, 7);
        let PeerConsult::Hit { peer, .. } = consult else {
            panic!("expected a peer hit, got {consult:?}");
        };
        assert_eq!(peer, 2, "the smaller inventory should serve");
    }

    #[test]
    fn requester_never_answers_itself() {
        let fabric = PeerFabric::new(PeerConfig::default());
        fabric.register(5, &[1, 2, 3]);
        // A solo cell: the only registered device is the requester, so
        // every consult falls through with zero wasted cost — the
        // cell-size-1 bit-identity guarantee.
        let consult = fabric.consult(5, 2);
        assert_eq!(
            consult,
            PeerConsult::Miss {
                false_positives: 0,
                wasted: SimDuration::ZERO,
                wasted_bytes: 0,
            }
        );
    }

    #[test]
    fn register_refreshes_in_place() {
        let fabric = PeerFabric::new(PeerConfig::default());
        fabric.register(1, &[100]);
        fabric.register(2, &[]);
        assert!(matches!(fabric.consult(2, 100), PeerConsult::Hit { .. }));
        // Device 1 evicted key 100; a refresh replaces its summary.
        fabric.register(1, &[200]);
        assert_eq!(fabric.member_count(), 2);
        assert!(matches!(fabric.consult(2, 100), PeerConsult::Miss { .. }));
        assert!(matches!(fabric.consult(2, 200), PeerConsult::Hit { .. }));
    }

    #[test]
    fn wifi_direct_fetch_is_far_cheaper_than_a_3g_miss() {
        use mobsim::radio::RadioKind;
        let config = PeerConfig::default();
        let radio = RadioKind::ThreeG.default_model();
        let miss_time = radio.wakeup + radio.warm_exchange_time(200, 4096);
        let miss_mj = radio.active_extra_power.over(miss_time).millijoules();
        assert!(config.fetch_time() < miss_time);
        assert!(config.fetch_energy_mj() < miss_mj / 10.0);
        assert!(config.probe_energy_mj() < config.fetch_energy_mj());
    }
}
