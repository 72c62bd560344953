//! Battery model.
//!
//! The paper's opening motivation: "the more data is exchanged and the
//! more time the radio link is active, the lower the battery lifetime of
//! the mobile device becomes". [`Battery`] turns per-query energy numbers
//! (Figure 15b) into the quantity users feel — hours and days between
//! charges.

use serde::{Deserialize, Serialize};

use crate::power::Energy;

/// A device battery with a fixed charge capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity_mj: f64,
}

impl Battery {
    /// A 2010 smartphone battery: 1500 mAh at 3.7 V nominal ≈ 20 kJ.
    pub fn smartphone_2010() -> Self {
        Battery::from_mah(1_500.0, 3.7)
    }

    /// Creates a battery from a milliamp-hour rating and nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive and finite.
    pub fn from_mah(mah: f64, volts: f64) -> Self {
        assert!(mah.is_finite() && mah > 0.0, "capacity must be positive");
        assert!(volts.is_finite() && volts > 0.0, "voltage must be positive");
        Battery {
            // 1 mAh = 3.6 coulombs; times volts gives joules, times 1000 mJ.
            capacity_mj: mah * 3.6 * volts * 1_000.0,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> Energy {
        Energy::from_millijoules(self.capacity_mj)
    }

    /// How many events of `per_event` energy a full battery funds.
    pub fn events_per_charge(&self, per_event: Energy) -> u64 {
        if per_event.millijoules() <= 0.0 {
            return u64::MAX;
        }
        (self.capacity_mj / per_event.millijoules()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_arithmetic_is_sane() {
        // 1500 mAh * 3.7 V = 5.55 Wh = 19.98 kJ.
        let b = Battery::smartphone_2010();
        assert!((b.capacity().joules() - 19_980.0).abs() < 1.0);
    }

    #[test]
    fn figure15b_queries_per_charge() {
        // The energy gap per query becomes a battery-life gap: ~23x more
        // searches per charge from the pocket than over 3G.
        let b = Battery::smartphone_2010();
        let pocket = b.events_per_charge(Energy::from_millijoules(340.2));
        let threeg = b.events_per_charge(Energy::from_millijoules(7_960.0));
        assert!(pocket > 55_000, "pocket queries/charge {pocket}");
        assert!(threeg < 3_000, "3G queries/charge {threeg}");
        let ratio = pocket as f64 / threeg as f64;
        assert!((20.0..27.0).contains(&ratio), "ratio {ratio:.1}");
    }

    #[test]
    fn lifetime_under_constant_draw() {
        let b = Battery::smartphone_2010();
        // ~20 kJ at 900 mW = ~6.2 hours of continuous active use.
        let hours = b.capacity().millijoules() / 900.0 / 3_600.0;
        assert!((5.5..7.0).contains(&hours), "lifetime {hours:.1} h");
    }

    #[test]
    fn zero_cost_events_are_unbounded() {
        let b = Battery::smartphone_2010();
        assert_eq!(b.events_per_charge(Energy::ZERO), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_capacity_is_rejected() {
        let _ = Battery::from_mah(0.0, 3.7);
    }
}
