//! Cellular and WiFi link models.
//!
//! The paper identifies the radio as both the latency and the power
//! bottleneck of mobile cloud access: the link needs 1.5–2 seconds to wake
//! from standby regardless of throughput, users exchange small packets so
//! round-trip latency dominates, and the active radio raises whole-device
//! power from ~900 mW to ~1500 mW. [`RadioModel`] captures those effects;
//! defaults for 3G, EDGE, and 802.11g are calibrated so that a cached search
//! query is served ~16× / ~25× / ~7× faster locally (Figure 15a) and
//! ~23× / ~41× / ~11× more energy-efficiently (Figure 15b).

use serde::{Deserialize, Serialize};

use crate::power::Power;
use crate::time::{SimDuration, SimInstant};

/// The radio links available on the simulated handset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RadioKind {
    /// UMTS/HSPA cellular data ("3G").
    ThreeG,
    /// GPRS/EDGE cellular data.
    Edge,
    /// 802.11g WiFi.
    Wifi80211g,
}

impl RadioKind {
    /// All radios, in the paper's Figure 15 order.
    pub const ALL: [RadioKind; 3] = [RadioKind::ThreeG, RadioKind::Edge, RadioKind::Wifi80211g];

    /// The calibrated default model for this link.
    pub fn default_model(self) -> RadioModel {
        match self {
            RadioKind::ThreeG => RadioModel {
                kind: self,
                wakeup: SimDuration::from_millis(2_000),
                round_trip: SimDuration::from_millis(450),
                setup_round_trips: 3,
                downlink_bps: 280_000,
                uplink_bps: 280_000,
                server_time: SimDuration::from_millis(400),
                active_extra_power: Power::from_milliwatts(450),
                idle_extra_power: Power::from_milliwatts(20),
                standby_timeout: SimDuration::from_secs(10),
            },
            RadioKind::Edge => RadioModel {
                kind: self,
                wakeup: SimDuration::from_millis(2_200),
                round_trip: SimDuration::from_millis(700),
                setup_round_trips: 3,
                downlink_bps: 100_000,
                uplink_bps: 30_000,
                server_time: SimDuration::from_millis(400),
                active_extra_power: Power::from_milliwatts(600),
                idle_extra_power: Power::from_milliwatts(20),
                standby_timeout: SimDuration::from_secs(10),
            },
            RadioKind::Wifi80211g => RadioModel {
                kind: self,
                // WiFi has no cellular wakeup, but the paper notes it is
                // rarely kept associated; this models power-save wake plus
                // association/DHCP before the first byte flows.
                wakeup: SimDuration::from_millis(1_500),
                round_trip: SimDuration::from_millis(80),
                setup_round_trips: 3,
                downlink_bps: 6_000_000,
                uplink_bps: 6_000_000,
                server_time: SimDuration::from_millis(400),
                active_extra_power: Power::from_milliwatts(520),
                idle_extra_power: Power::from_milliwatts(50),
                standby_timeout: SimDuration::from_secs(10),
            },
        }
    }
}

impl std::fmt::Display for RadioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RadioKind::ThreeG => write!(f, "3G"),
            RadioKind::Edge => write!(f, "Edge"),
            RadioKind::Wifi80211g => write!(f, "802.11g"),
        }
    }
}

/// Timing and power parameters of one radio link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioModel {
    /// Which link this models.
    pub kind: RadioKind,
    /// Time to go from standby to transmitting (cellular wakeup, or WiFi
    /// power-save wake + association).
    pub wakeup: SimDuration,
    /// One network round trip to the service.
    pub round_trip: SimDuration,
    /// Round trips spent on connection setup (DNS, TCP, TLS/HTTP) before
    /// the request round trip itself.
    pub setup_round_trips: u32,
    /// Sustained downlink goodput in bits per second.
    pub downlink_bps: u64,
    /// Sustained uplink goodput in bits per second.
    pub uplink_bps: u64,
    /// Backend processing time between request and first response byte.
    pub server_time: SimDuration,
    /// Power the active radio adds on top of the device's base draw.
    pub active_extra_power: Power,
    /// Power the idle-but-connected radio adds on top of base draw.
    pub idle_extra_power: Power,
    /// Inactivity span after which the radio drops back to standby.
    pub standby_timeout: SimDuration,
}

impl RadioModel {
    /// The WiFi-direct *peer* link used by the cooperative cloudlet
    /// tier: device-to-device inside one cell, no infrastructure AP.
    ///
    /// Compared to the 3G path a miss would otherwise take, everything
    /// that makes the radio the bottleneck is gone: no 2 s cellular
    /// wakeup (just a power-save poll of the already-formed group), a
    /// single-hop ~8 ms RTT instead of 450 ms to a tower, one setup
    /// round trip instead of three, link-rate throughput, and the
    /// "server" is a peer's in-memory cache lookup rather than a
    /// datacenter round trip. Transmit power is *lower* than
    /// infrastructure 802.11g because the peer is metres away.
    pub fn wifi_direct_peer() -> RadioModel {
        RadioModel {
            kind: RadioKind::Wifi80211g,
            wakeup: SimDuration::from_millis(40),
            round_trip: SimDuration::from_millis(8),
            setup_round_trips: 1,
            downlink_bps: 25_000_000,
            uplink_bps: 25_000_000,
            server_time: SimDuration::from_millis(5),
            active_extra_power: Power::from_milliwatts(280),
            idle_extra_power: Power::from_milliwatts(30),
            standby_timeout: SimDuration::from_secs(10),
        }
    }

    /// Time to move `bytes` over the downlink.
    pub fn downlink_time(&self, bytes: u64) -> SimDuration {
        transfer_time(bytes, self.downlink_bps)
    }

    /// Time to move `bytes` over the uplink.
    pub fn uplink_time(&self, bytes: u64) -> SimDuration {
        transfer_time(bytes, self.uplink_bps)
    }

    /// The full request/response exchange time, excluding any wakeup.
    pub fn warm_exchange_time(&self, request_bytes: u64, response_bytes: u64) -> SimDuration {
        self.round_trip * (self.setup_round_trips as u64 + 1)
            + self.uplink_time(request_bytes)
            + self.server_time
            + self.downlink_time(response_bytes)
    }
}

fn transfer_time(bytes: u64, bps: u64) -> SimDuration {
    assert!(bps > 0, "link throughput must be positive");
    SimDuration::from_micros(bytes.saturating_mul(8).saturating_mul(1_000_000) / bps)
}

/// Connection state of a radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RadioState {
    /// Connected to the network but dormant; the next transfer pays wakeup.
    Standby,
    /// Recently active; transfers within the standby timeout skip wakeup.
    Active,
}

/// Outcome of one request/response exchange over a radio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// Wakeup time paid (zero when the radio was already active).
    pub wakeup: SimDuration,
    /// Connection setup plus the request round trip.
    pub round_trips: SimDuration,
    /// Uplink serialization of the request.
    pub uplink: SimDuration,
    /// Backend processing time.
    pub server: SimDuration,
    /// Downlink serialization of the response.
    pub downlink: SimDuration,
    /// End-to-end time the exchange occupied.
    pub total_time: SimDuration,
    /// Extra power the radio drew (over device base) while active.
    pub active_extra_power: Power,
}

/// A stateful radio: a [`RadioModel`] plus its activity history, which
/// determines whether the next transfer pays the wakeup penalty.
///
/// # Example
///
/// ```
/// use mobsim::radio::{Radio, RadioKind};
/// use mobsim::time::{SimDuration, SimInstant};
///
/// let mut radio = Radio::new(RadioKind::ThreeG.default_model());
/// let cold = radio.transfer(SimInstant::ZERO, 800, 50_000);
/// assert!(cold.wakeup > SimDuration::ZERO);
///
/// // A follow-up inside the standby timeout rides the active radio.
/// let warm = radio.transfer(SimInstant::ZERO + cold.total_time, 800, 50_000);
/// assert_eq!(warm.wakeup, SimDuration::ZERO);
/// assert!(warm.total_time < cold.total_time);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Radio {
    model: RadioModel,
    state: RadioState,
    last_activity: SimInstant,
}

impl Radio {
    /// Creates a radio in standby.
    pub fn new(model: RadioModel) -> Self {
        Radio {
            model,
            state: RadioState::Standby,
            last_activity: SimInstant::ZERO,
        }
    }

    /// The underlying link model.
    pub fn model(&self) -> &RadioModel {
        &self.model
    }

    /// The radio's state as of instant `now`.
    pub fn state_at(&self, now: SimInstant) -> RadioState {
        match self.state {
            RadioState::Standby => RadioState::Standby,
            RadioState::Active => {
                if now.saturating_duration_since(self.last_activity) > self.model.standby_timeout {
                    RadioState::Standby
                } else {
                    RadioState::Active
                }
            }
        }
    }

    /// Performs a request/response exchange starting at `now`, advancing the
    /// radio's activity state.
    pub fn transfer(
        &mut self,
        now: SimInstant,
        request_bytes: u64,
        response_bytes: u64,
    ) -> Transfer {
        let wakeup = match self.state_at(now) {
            RadioState::Standby => self.model.wakeup,
            RadioState::Active => SimDuration::ZERO,
        };
        let round_trips = self.model.round_trip * (self.model.setup_round_trips as u64 + 1);
        let uplink = self.model.uplink_time(request_bytes);
        let server = self.model.server_time;
        let downlink = self.model.downlink_time(response_bytes);
        let total_time = wakeup + round_trips + uplink + server + downlink;

        self.state = RadioState::Active;
        self.last_activity = now + total_time;

        Transfer {
            wakeup,
            round_trips,
            uplink,
            server,
            downlink,
            total_time,
            active_extra_power: self.model.active_extra_power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's search exchange: ~800 B of query uplink, ~50 KB of
    /// search-result page downlink.
    const REQ: u64 = 800;
    const RESP: u64 = 50_000;

    fn cold_time(kind: RadioKind) -> SimDuration {
        let mut r = Radio::new(kind.default_model());
        r.transfer(SimInstant::ZERO, REQ, RESP).total_time
    }

    #[test]
    fn cold_3g_takes_several_seconds() {
        let t = cold_time(RadioKind::ThreeG);
        assert!(
            (5.0..7.0).contains(&t.as_secs_f64()),
            "3G exchange took {t}, expected ~5.7s"
        );
    }

    #[test]
    fn edge_is_slower_than_3g_is_slower_than_wifi() {
        let edge = cold_time(RadioKind::Edge);
        let threeg = cold_time(RadioKind::ThreeG);
        let wifi = cold_time(RadioKind::Wifi80211g);
        assert!(edge > threeg, "edge {edge} should exceed 3g {threeg}");
        assert!(threeg > wifi, "3g {threeg} should exceed wifi {wifi}");
    }

    #[test]
    fn wakeup_dominates_even_infinite_throughput() {
        // The paper: startup cost is independent of throughput and holds for
        // future link generations. A 1000x-throughput 3G still pays wakeup.
        let mut model = RadioKind::ThreeG.default_model();
        model.downlink_bps *= 1_000;
        model.uplink_bps *= 1_000;
        let mut r = Radio::new(model);
        let t = r.transfer(SimInstant::ZERO, REQ, RESP).total_time;
        assert!(t >= model.wakeup + model.round_trip * 4);
        assert!(t.as_secs_f64() > 4.0, "still {t} despite 1000x throughput");
    }

    #[test]
    fn warm_transfer_skips_wakeup() {
        let mut r = Radio::new(RadioKind::ThreeG.default_model());
        let cold = r.transfer(SimInstant::ZERO, REQ, RESP);
        assert!(cold.wakeup > SimDuration::ZERO);
        let warm = r.transfer(SimInstant::ZERO + cold.total_time, REQ, RESP);
        assert_eq!(warm.wakeup, SimDuration::ZERO);
        assert_eq!(warm.total_time + cold.wakeup, cold.total_time);
    }

    #[test]
    fn radio_times_out_back_to_standby() {
        let mut r = Radio::new(RadioKind::ThreeG.default_model());
        let first = r.transfer(SimInstant::ZERO, REQ, RESP);
        let idle_past_timeout = SimInstant::ZERO
            + first.total_time
            + r.model().standby_timeout
            + SimDuration::from_millis(1);
        assert_eq!(r.state_at(idle_past_timeout), RadioState::Standby);
        let second = r.transfer(idle_past_timeout, REQ, RESP);
        assert!(second.wakeup > SimDuration::ZERO);
    }

    #[test]
    fn transfer_breakdown_sums_to_total() {
        let mut r = Radio::new(RadioKind::Edge.default_model());
        let x = r.transfer(SimInstant::ZERO, REQ, RESP);
        assert_eq!(
            x.wakeup + x.round_trips + x.uplink + x.server + x.downlink,
            x.total_time
        );
    }

    #[test]
    fn downlink_time_matches_goodput() {
        let model = RadioKind::ThreeG.default_model();
        // 280 kbps moving 50 KB = ~1.43 s.
        let t = model.downlink_time(50_000);
        assert!((t.as_secs_f64() - 1.4286).abs() < 1e-3);
    }

    #[test]
    fn ten_consecutive_3g_queries_take_about_40_seconds() {
        // Figure 16: 10 consecutive queries over 3G occupy ~40 s of radio
        // time (first query cold, the rest warm).
        let mut r = Radio::new(RadioKind::ThreeG.default_model());
        let mut now = SimInstant::ZERO;
        let mut total = SimDuration::ZERO;
        for _ in 0..10 {
            let x = r.transfer(now, REQ, RESP);
            now += x.total_time;
            total += x.total_time;
        }
        let secs = total.as_secs_f64();
        assert!(
            (35.0..45.0).contains(&secs),
            "10 consecutive 3G queries took {secs:.1}s, expected ~40s"
        );
    }
}
