//! The composed handset model.
//!
//! [`Device`] wires together the radio models, the flash store, the browser
//! model, and a whole-device base power draw, advancing a simulation clock
//! and an [`EnergyMeter`] as queries are served; a [`Device::traced`] one
//! also records a [`PowerTimeline`] (Figure 16). It exposes the
//! two service paths of Figure 15: serving a query from the local cache and
//! serving it over a radio link.

use serde::{Deserialize, Serialize};

use crate::browser::BrowserModel;
use crate::flash::{FlashModel, FlashStore};
use crate::power::{Energy, EnergyMeter, Power};
use crate::radio::{Radio, RadioKind, Transfer};
use crate::time::{SimDuration, SimInstant};
use crate::timeline::PowerTimeline;

/// Static configuration of the handset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Whole-device draw while the user interacts locally (screen + SoC):
    /// the ~900 mW floor of the paper's Figure 16.
    pub base_power: Power,
    /// Draw while the device idles between queries (screen dimmed).
    pub idle_power: Power,
    /// Hash-table lookup time charged at the start of every query
    /// (Table 4: ~10 µs).
    pub lookup_time: SimDuration,
    /// Bytes of query uplink for a remote search.
    pub request_bytes: u64,
    /// Bytes of search-result-page downlink for a remote search.
    pub response_bytes: u64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            base_power: Power::from_milliwatts(900),
            idle_power: Power::from_milliwatts(100),
            lookup_time: SimDuration::from_micros(10),
            request_bytes: 800,
            response_bytes: 50_000,
        }
    }
}

/// Per-phase timing of one served query (Table 4's rows).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceBreakdown {
    /// Hash-table lookup.
    pub lookup: SimDuration,
    /// Fetching search results from flash (hits only).
    pub fetch: SimDuration,
    /// Radio exchange (misses only).
    pub radio: SimDuration,
    /// Browser rendering of the result page.
    pub render: SimDuration,
    /// Miscellaneous bookkeeping.
    pub misc: SimDuration,
}

impl ServiceBreakdown {
    /// Sum of all phases.
    pub fn total(&self) -> SimDuration {
        self.lookup + self.fetch + self.radio + self.render + self.misc
    }
}

/// Outcome of serving one query on the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// End-to-end user response time.
    pub total_time: SimDuration,
    /// Energy the device dissipated serving the query.
    pub energy: Energy,
    /// Per-phase timing.
    pub breakdown: ServiceBreakdown,
    /// Radio transfer details when the query went over the air.
    pub transfer: Option<Transfer>,
}

/// A simulated handset.
///
/// # Example
///
/// ```
/// use mobsim::device::Device;
/// use mobsim::radio::RadioKind;
/// use mobsim::time::SimDuration;
///
/// let mut device = Device::with_defaults();
/// let hit = device.serve_cache_hit(SimDuration::from_millis(10));
/// let miss = device.serve_via_radio(RadioKind::ThreeG);
/// let speedup = miss.total_time.ratio(hit.total_time).unwrap();
/// assert!(speedup > 10.0, "3G should be an order of magnitude slower");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    config: DeviceConfig,
    browser: BrowserModel,
    flash: FlashStore,
    radios: Vec<Radio>,
    clock: SimInstant,
    meter: EnergyMeter,
    /// Every constant-power segment, kept only on a traced device.
    timeline: Option<PowerTimeline>,
}

impl Device {
    /// Builds a device from explicit component models.
    pub fn new(config: DeviceConfig, browser: BrowserModel, flash_model: FlashModel) -> Self {
        Device {
            config,
            browser,
            flash: FlashStore::new(flash_model),
            radios: RadioKind::ALL
                .iter()
                .map(|&k| Radio::new(k.default_model()))
                .collect(),
            clock: SimInstant::ZERO,
            meter: EnergyMeter::new(),
            timeline: None,
        }
    }

    /// A default device that also records its power trace, segment by
    /// segment, for [`Device::into_timeline`].
    pub fn traced() -> Self {
        Device {
            timeline: Some(PowerTimeline::new()),
            ..Device::with_defaults()
        }
    }

    /// A device with every model at its paper-calibrated default.
    pub fn with_defaults() -> Self {
        Device::new(
            DeviceConfig::default(),
            BrowserModel::default(),
            FlashModel::default(),
        )
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The browser model.
    pub fn browser(&self) -> &BrowserModel {
        &self.browser
    }

    /// Shared access to the flash store.
    pub fn flash(&self) -> &FlashStore {
        &self.flash
    }

    /// Mutable access to the flash store (for installing cache databases).
    pub fn flash_mut(&mut self) -> &mut FlashStore {
        &mut self.flash
    }

    /// Current simulation time.
    pub fn now(&self) -> SimInstant {
        self.clock
    }

    /// The recorded power trace: every segment of a device built
    /// [`traced`](Device::traced), and empty for any other device.
    pub fn into_timeline(self) -> PowerTimeline {
        self.timeline.unwrap_or_default()
    }

    /// Energy, busy time and peak power accumulated so far.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Lets the device sit idle for `duration` at idle power.
    pub fn idle(&mut self, duration: SimDuration) {
        self.advance(duration, self.config.idle_power);
    }

    /// Serves a query from the local cache, charging the Table 4 phases:
    /// lookup, a caller-supplied flash `fetch_time`, render, and misc.
    pub fn serve_cache_hit(&mut self, fetch_time: SimDuration) -> ServiceReport {
        let start_energy = self.meter.total();
        let breakdown = ServiceBreakdown {
            lookup: self.config.lookup_time,
            fetch: fetch_time,
            radio: SimDuration::ZERO,
            render: self.browser.render_serp,
            misc: self.browser.misc,
        };
        self.advance(breakdown.lookup, self.config.base_power);
        self.advance(breakdown.fetch, self.config.base_power);
        self.advance(breakdown.render, self.config.base_power);
        self.advance(breakdown.misc, self.config.base_power);
        ServiceReport {
            total_time: breakdown.total(),
            energy: self.energy_since(start_energy),
            breakdown,
            transfer: None,
        }
    }

    /// Serves a query over a radio link: lookup (which misses), the radio
    /// exchange, then rendering the downloaded result page.
    pub fn serve_via_radio(&mut self, kind: RadioKind) -> ServiceReport {
        let start_energy = self.meter.total();
        self.advance(self.config.lookup_time, self.config.base_power);

        let (request_bytes, response_bytes) =
            (self.config.request_bytes, self.config.response_bytes);
        let now = self.clock;
        let radio = self.radio_mut(kind);
        let transfer = radio.transfer(now, request_bytes, response_bytes);
        let radio_power = self.config.base_power + transfer.active_extra_power;
        self.advance(transfer.total_time, radio_power);

        self.advance(self.browser.render_serp, self.config.base_power);
        self.advance(self.browser.misc, self.config.base_power);

        let breakdown = ServiceBreakdown {
            lookup: self.config.lookup_time,
            fetch: SimDuration::ZERO,
            radio: transfer.total_time,
            render: self.browser.render_serp,
            misc: self.browser.misc,
        };
        ServiceReport {
            total_time: breakdown.total(),
            energy: self.energy_since(start_energy),
            breakdown,
            transfer: Some(transfer),
        }
    }

    /// A bare radio exchange with no browser render — the shape of a
    /// background fetch, e.g. re-downloading a damaged database file's
    /// records during corruption recovery. Charges the transfer time at
    /// radio power and reports the energy it cost.
    pub fn fetch_via_radio(
        &mut self,
        kind: RadioKind,
        request_bytes: u64,
        response_bytes: u64,
    ) -> ServiceReport {
        let start_energy = self.meter.total();
        let now = self.clock;
        let radio = self.radio_mut(kind);
        let transfer = radio.transfer(now, request_bytes, response_bytes);
        let radio_power = self.config.base_power + transfer.active_extra_power;
        self.advance(transfer.total_time, radio_power);
        let breakdown = ServiceBreakdown {
            radio: transfer.total_time,
            ..ServiceBreakdown::default()
        };
        ServiceReport {
            total_time: breakdown.total(),
            energy: self.energy_since(start_energy),
            breakdown,
            transfer: Some(transfer),
        }
    }

    /// Charges an arbitrary activity against the clock and energy meter.
    pub fn advance(&mut self, duration: SimDuration, power: Power) {
        if duration == SimDuration::ZERO {
            return;
        }
        if let Some(timeline) = &mut self.timeline {
            timeline.push(self.clock, duration, power);
        }
        self.meter.accumulate(power, duration);
        self.clock += duration;
    }

    fn radio_mut(&mut self, kind: RadioKind) -> &mut Radio {
        // Radios are built in `RadioKind::ALL` order, which matches the
        // enum's discriminants, so each kind indexes its own radio.
        let radio = &mut self.radios[kind as usize];
        debug_assert_eq!(radio.model().kind, kind);
        radio
    }

    /// Immutable access to one of the device's radios.
    pub fn radio(&self, kind: RadioKind) -> &Radio {
        let radio = &self.radios[kind as usize];
        debug_assert_eq!(radio.model().kind, kind);
        radio
    }

    fn energy_since(&self, start: Energy) -> Energy {
        Energy::from_millijoules(self.meter.total().millijoules() - start.millijoules())
    }
}

impl Default for Device {
    fn default() -> Self {
        Device::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FETCH: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn hit_path_matches_table4_total() {
        let mut d = Device::with_defaults();
        let report = d.serve_cache_hit(FETCH);
        let ms = report.total_time.as_millis_f64();
        assert!(
            (ms - 378.01).abs() < 0.5,
            "hit path took {ms} ms, expected ~378 ms"
        );
        assert_eq!(report.breakdown.total(), report.total_time);
        assert!(report.transfer.is_none());
    }

    #[test]
    fn figure15a_speedups_hold() {
        // PocketSearch vs 3G ~16x, vs Edge ~25x, vs WiFi ~7x.
        let expectations = [
            (RadioKind::ThreeG, 14.0, 18.0),
            (RadioKind::Edge, 22.0, 28.0),
            (RadioKind::Wifi80211g, 5.5, 8.5),
        ];
        for (kind, lo, hi) in expectations {
            let mut d = Device::with_defaults();
            let hit = d.serve_cache_hit(FETCH);
            let mut d = Device::with_defaults();
            let miss = d.serve_via_radio(kind);
            let speedup = miss.total_time.ratio(hit.total_time).unwrap();
            assert!(
                (lo..hi).contains(&speedup),
                "{kind}: speedup {speedup:.1} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn figure15b_energy_ratios_hold() {
        // PocketSearch vs 3G ~23x, vs Edge ~41x, vs WiFi ~11x.
        let expectations = [
            (RadioKind::ThreeG, 20.0, 27.0),
            (RadioKind::Edge, 36.0, 46.0),
            (RadioKind::Wifi80211g, 9.0, 13.0),
        ];
        for (kind, lo, hi) in expectations {
            let mut d = Device::with_defaults();
            let hit = d.serve_cache_hit(FETCH);
            let mut d = Device::with_defaults();
            let miss = d.serve_via_radio(kind);
            let ratio = miss.energy.ratio(hit.energy).unwrap();
            assert!(
                (lo..hi).contains(&ratio),
                "{kind}: energy ratio {ratio:.1} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn energy_gap_exceeds_latency_gap() {
        // The paper stresses that the energy gap is wider than the time gap
        // because the radio raises power *and* extends time.
        let mut d1 = Device::with_defaults();
        let hit = d1.serve_cache_hit(FETCH);
        let mut d2 = Device::with_defaults();
        let miss = d2.serve_via_radio(RadioKind::ThreeG);
        let t = miss.total_time.ratio(hit.total_time).unwrap();
        let e = miss.energy.ratio(hit.energy).unwrap();
        assert!(e > t, "energy ratio {e:.1} should exceed time ratio {t:.1}");
    }

    #[test]
    fn cache_miss_lookup_overhead_is_negligible() {
        // Table 4: a miss only adds the 10 us lookup before the radio path.
        let d = Device::with_defaults();
        let lookup = d.config().lookup_time;
        let mut d = Device::with_defaults();
        let miss = d.serve_via_radio(RadioKind::ThreeG);
        let share = lookup.ratio(miss.total_time).unwrap();
        assert!(share < 1e-4, "lookup share of a miss was {share}");
    }

    #[test]
    fn clock_and_timeline_advance_together() {
        let mut d = Device::traced();
        d.serve_cache_hit(FETCH);
        d.idle(SimDuration::from_secs(1));
        d.serve_via_radio(RadioKind::ThreeG);
        let (now, busy) = (d.now(), d.meter().busy_time());
        let timeline = d.into_timeline();
        assert_eq!(timeline.end(), now);
        assert_eq!(timeline.busy_time(), now.duration_since(SimInstant::ZERO));
        assert_eq!(busy, timeline.busy_time());
    }

    #[test]
    fn only_a_traced_device_records_segments() {
        let mut d = Device::with_defaults();
        d.serve_cache_hit(FETCH);
        assert!(d.meter().busy_time() > SimDuration::ZERO);
        assert!(d.into_timeline().segments().is_empty());
    }

    #[test]
    fn consecutive_radio_queries_reuse_the_warm_radio() {
        let mut d = Device::with_defaults();
        let first = d.serve_via_radio(RadioKind::ThreeG);
        let second = d.serve_via_radio(RadioKind::ThreeG);
        assert!(first.transfer.unwrap().wakeup > SimDuration::ZERO);
        assert_eq!(second.transfer.unwrap().wakeup, SimDuration::ZERO);
        assert!(second.total_time < first.total_time);
    }

    #[test]
    fn radio_power_shows_up_in_the_timeline() {
        let mut d = Device::traced();
        d.serve_via_radio(RadioKind::ThreeG);
        let expected = d.config().base_power + RadioKind::ThreeG.default_model().active_extra_power;
        assert_eq!(d.meter().peak_power(), Some(expected));
        assert_eq!(d.into_timeline().peak_power(), Some(expected));
    }

    #[test]
    fn background_fetch_skips_lookup_and_render() {
        let mut d = Device::with_defaults();
        let fetch = d.fetch_via_radio(RadioKind::ThreeG, 800, 50_000);
        assert_eq!(fetch.breakdown.lookup, SimDuration::ZERO);
        assert_eq!(fetch.breakdown.render, SimDuration::ZERO);
        assert_eq!(fetch.breakdown.radio, fetch.total_time);
        let transfer = fetch.transfer.expect("radio was used");
        assert_eq!(transfer.total_time, fetch.total_time);

        // Same payload through the full miss path costs strictly more
        // (lookup + render on top of the same exchange).
        let mut d2 = Device::with_defaults();
        let miss = d2.serve_via_radio(RadioKind::ThreeG);
        assert!(miss.total_time > fetch.total_time);
        assert!(miss.energy.millijoules() > fetch.energy.millijoules());
    }

    #[test]
    fn total_energy_accumulates_across_queries() {
        let mut d = Device::with_defaults();
        let a = d.serve_cache_hit(FETCH);
        let b = d.serve_cache_hit(FETCH);
        let sum = a.energy.millijoules() + b.energy.millijoules();
        assert!((d.meter().total().millijoules() - sum).abs() < 1e-9);
    }
}
