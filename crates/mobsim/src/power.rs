//! Power and energy quantities, plus the integrating energy meter.
//!
//! The paper's Figure 16 shows the whole-device power at roughly 900 mW
//! while PocketSearch serves hits locally and roughly 1500 mW while the 3G
//! radio is active. Energy per query (Figure 15b) is the integral of that
//! power over the service time, which [`EnergyMeter`] computes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Electrical power in milliwatts.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Power(u32);

impl Power {
    /// Zero draw.
    pub const ZERO: Power = Power(0);

    /// Creates a power from milliwatts.
    pub const fn from_milliwatts(mw: u32) -> Self {
        Power(mw)
    }

    /// Power in milliwatts.
    pub const fn milliwatts(self) -> u32 {
        self.0
    }

    /// Energy dissipated by drawing this power for `duration`.
    pub fn over(self, duration: SimDuration) -> Energy {
        // mW * us = nJ; convert to mJ.
        Energy::from_millijoules(self.0 as f64 * duration.as_micros() as f64 / 1_000_000.0)
    }
}

impl Add for Power {
    type Output = Power;

    fn add(self, rhs: Power) -> Power {
        Power(self.0.saturating_add(rhs.0))
    }
}

impl Sub for Power {
    type Output = Power;

    fn sub(self, rhs: Power) -> Power {
        Power(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mW", self.0)
    }
}

/// Dissipated energy in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from millijoules.
    ///
    /// # Panics
    ///
    /// Panics if `mj` is negative or not finite.
    pub fn from_millijoules(mj: f64) -> Self {
        assert!(
            mj.is_finite() && mj >= 0.0,
            "energy must be finite and non-negative, got {mj}"
        );
        Energy(mj)
    }

    /// Energy in millijoules.
    pub fn millijoules(self) -> f64 {
        self.0
    }

    /// Energy in joules.
    pub fn joules(self) -> f64 {
        self.0 / 1_000.0
    }

    /// The ratio `self / other`, or `None` when `other` is zero.
    pub fn ratio(self, other: Energy) -> Option<f64> {
        if other.0 == 0.0 {
            None
        } else {
            Some(self.0 / other.0)
        }
    }
}

impl Add for Energy {
    type Output = Energy;

    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000.0 {
            write!(f, "{:.2} J", self.joules())
        } else {
            write!(f, "{:.2} mJ", self.0)
        }
    }
}

/// Integrates energy over a sequence of constant-power intervals.
///
/// # Example
///
/// ```
/// use mobsim::power::{EnergyMeter, Power};
/// use mobsim::time::SimDuration;
///
/// let mut meter = EnergyMeter::new();
/// meter.accumulate(Power::from_milliwatts(900), SimDuration::from_millis(378));
/// assert!((meter.total().millijoules() - 340.2).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    total: Energy,
    busy_time: SimDuration,
    peak: Option<Power>,
}

impl EnergyMeter {
    /// A meter with nothing accumulated.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Adds `power` drawn for `duration`.
    pub fn accumulate(&mut self, power: Power, duration: SimDuration) {
        self.total += power.over(duration);
        self.busy_time += duration;
        self.peak = Some(self.peak.map_or(power, |peak| peak.max(power)));
    }

    /// Total energy integrated so far.
    pub fn total(&self) -> Energy {
        self.total
    }

    /// Total wall-clock time accounted for.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// The highest power accumulated, or `None` before the first
    /// interval.
    pub fn peak_power(&self) -> Option<Power> {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_over_duration_is_energy() {
        // 1500 mW for 2 s = 3 J.
        let e = Power::from_milliwatts(1_500).over(SimDuration::from_secs(2));
        assert!((e.joules() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn paper_hit_energy_is_about_a_third_of_a_joule() {
        // 900 mW over the 378 ms hit path = 340 mJ, the Figure 15b baseline.
        let e = Power::from_milliwatts(900).over(SimDuration::from_millis(378));
        assert!((e.millijoules() - 340.2).abs() < 0.5);
    }

    #[test]
    fn meter_integrates_multiple_segments() {
        let mut m = EnergyMeter::new();
        m.accumulate(Power::from_milliwatts(900), SimDuration::from_secs(1));
        m.accumulate(Power::from_milliwatts(1_500), SimDuration::from_secs(1));
        assert!((m.total().joules() - 2.4).abs() < 1e-12);
        assert_eq!(m.busy_time(), SimDuration::from_secs(2));
        assert_eq!(m.peak_power(), Some(Power::from_milliwatts(1_500)));
    }

    #[test]
    fn idle_meter_has_no_peak() {
        assert_eq!(EnergyMeter::new().peak_power(), None);
    }

    #[test]
    fn energy_ratio_and_sum() {
        let a = Energy::from_millijoules(7_800.0);
        let b = Energy::from_millijoules(340.0);
        let ratio = a.ratio(b).unwrap();
        assert!((ratio - 22.94).abs() < 0.01);
        assert_eq!(b.ratio(Energy::ZERO), None);
        let total: Energy = [a, b].into_iter().sum();
        assert!((total.millijoules() - 8_140.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_energy_is_rejected() {
        let _ = Energy::from_millijoules(-1.0);
    }

    #[test]
    fn power_arithmetic_saturates() {
        let max = Power::from_milliwatts(u32::MAX);
        assert_eq!(max + Power::from_milliwatts(1), max);
        assert_eq!(Power::ZERO - Power::from_milliwatts(1), Power::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Power::from_milliwatts(900).to_string(), "900 mW");
        assert_eq!(Energy::from_millijoules(340.2).to_string(), "340.20 mJ");
        assert_eq!(Energy::from_millijoules(7_800.0).to_string(), "7.80 J");
    }
}
