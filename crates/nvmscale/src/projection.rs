//! Smartphone NVM capacity evolution (paper Figure 2).
//!
//! Figure 2 of the paper applies different combinations of the Table 1
//! capacity-increasing techniques to the NVM found in a 2010 high-end
//! smartphone, producing evolution scenarios through 2026. The headline
//! observations, which this module reproduces exactly, are:
//!
//! * high-end phones may reach **1 TB of NVM as early as 2018**, and
//! * low-end phones (64× less storage, 512 MB in 2010) reach **16 GB in
//!   2018** and **256 GB eventually**.

use serde::{Deserialize, Serialize};

use crate::trends::ScalingTrends;
use crate::units::ByteSize;

/// Device market segment whose NVM capacity is being projected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceTier {
    /// Flagship smartphone (32 GiB of NVM in 2010).
    HighEnd,
    /// Entry-level smartphone (512 MiB of NVM in 2010, a 64:1 ratio).
    LowEnd,
}

impl DeviceTier {
    /// The 2010 baseline NVM capacity for this tier.
    pub fn baseline_2010(self) -> ByteSize {
        match self {
            DeviceTier::HighEnd => ByteSize::from_gib(32.0),
            DeviceTier::LowEnd => ByteSize::from_mib(512),
        }
    }

    /// Both tiers, high-end first.
    pub const ALL: [DeviceTier; 2] = [DeviceTier::HighEnd, DeviceTier::LowEnd];
}

impl std::fmt::Display for DeviceTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceTier::HighEnd => write!(f, "high-end"),
            DeviceTier::LowEnd => write!(f, "low-end"),
        }
    }
}

/// Which capacity-increasing techniques a Figure 2 scenario exploits.
///
/// Lithography scaling is always in effect; the three optional techniques
/// correspond to the separate curves of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ScalingTechnique {
    /// Stack more independently fabricated chips per package.
    pub chip_stacking: bool,
    /// Fabricate multiple cell layers on the same silicon base.
    pub cell_layers: bool,
    /// Store multiple bits per cell (helps flash, hurts post-flash).
    pub multi_level_cells: bool,
}

impl ScalingTechnique {
    /// Lithography scaling only.
    pub const fn lithography_only() -> Self {
        ScalingTechnique {
            chip_stacking: false,
            cell_layers: false,
            multi_level_cells: false,
        }
    }

    /// Every technique of Table 1 applied together (Figure 2's top curve).
    pub const fn all() -> Self {
        ScalingTechnique {
            chip_stacking: true,
            cell_layers: true,
            multi_level_cells: true,
        }
    }

    /// Adds chip stacking to the scenario.
    pub const fn with_chip_stacking(mut self) -> Self {
        self.chip_stacking = true;
        self
    }

    /// Adds monolithic cell-layer stacking to the scenario.
    pub const fn with_cell_layers(mut self) -> Self {
        self.cell_layers = true;
        self
    }

    /// The four scenarios plotted in Figure 2, from least to most aggressive.
    pub fn figure2_scenarios() -> [ScalingTechnique; 4] {
        [
            ScalingTechnique::lithography_only(),
            ScalingTechnique::lithography_only().with_chip_stacking(),
            ScalingTechnique::lithography_only()
                .with_chip_stacking()
                .with_cell_layers(),
            ScalingTechnique::all(),
        ]
    }
}

impl std::fmt::Display for ScalingTechnique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lithography")?;
        if self.chip_stacking {
            write!(f, "+chip-stack")?;
        }
        if self.cell_layers {
            write!(f, "+cell-layers")?;
        }
        if self.multi_level_cells {
            write!(f, "+mlc")?;
        }
        Ok(())
    }
}

/// NVM capacity projection for smartphones (paper Figure 2).
///
/// # Example
///
/// ```
/// use nvmscale::{CapacityProjection, DeviceTier, ScalingTechnique, ScalingTrends};
///
/// let trends = ScalingTrends::paper_table1();
/// let proj = CapacityProjection::new(&trends, ScalingTechnique::all());
/// let low_end_final = proj.capacity(DeviceTier::LowEnd, 2026).expect("in range");
/// assert_eq!(low_end_final.to_string(), "256.00 GiB");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityProjection {
    trends: ScalingTrends,
    techniques: ScalingTechnique,
}

impl CapacityProjection {
    /// Creates a projection that applies `techniques` on top of lithography
    /// scaling from `trends`.
    pub fn new(trends: &ScalingTrends, techniques: ScalingTechnique) -> Self {
        CapacityProjection {
            trends: trends.clone(),
            techniques,
        }
    }

    /// The technique set this projection applies.
    pub fn techniques(&self) -> ScalingTechnique {
        self.techniques
    }

    /// Projected NVM capacity of a `tier` device in `year`.
    ///
    /// Years between Table 1 columns snap to the most recent node. Returns
    /// `None` for years before the baseline node.
    pub fn capacity(&self, tier: DeviceTier, year: u32) -> Option<ByteSize> {
        let node = self.trends.node_at_or_before(year)?;
        let mult = node.density_multiplier(
            self.trends.baseline(),
            self.techniques.chip_stacking,
            self.techniques.cell_layers,
            self.techniques.multi_level_cells,
        );
        Some(tier.baseline_2010().scale(mult))
    }

    /// The full `(year, capacity)` series for a tier, one point per node.
    pub fn series(&self, tier: DeviceTier) -> Vec<(u32, ByteSize)> {
        self.trends
            .iter()
            .filter_map(|node| Some((node.year, self.capacity(tier, node.year)?)))
            .collect()
    }

    /// First year in which the tier's projected capacity reaches `target`,
    /// or `None` if it never does within the table's horizon.
    pub fn year_capacity_reaches(&self, tier: DeviceTier, target: ByteSize) -> Option<u32> {
        self.series(tier)
            .into_iter()
            .find(|(_, cap)| *cap >= target)
            .map(|(year, _)| year)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_projection() -> CapacityProjection {
        CapacityProjection::new(&ScalingTrends::paper_table1(), ScalingTechnique::all())
    }

    #[test]
    fn high_end_reaches_one_terabyte_in_2018() {
        let proj = full_projection();
        let cap = proj.capacity(DeviceTier::HighEnd, 2018).unwrap();
        assert_eq!(cap, ByteSize::from_tib(1.0));
        assert_eq!(
            proj.year_capacity_reaches(DeviceTier::HighEnd, ByteSize::from_tib(1.0)),
            Some(2018)
        );
    }

    #[test]
    fn low_end_hits_16_gb_in_2018_and_256_gb_eventually() {
        let proj = full_projection();
        assert_eq!(
            proj.capacity(DeviceTier::LowEnd, 2018).unwrap(),
            ByteSize::from_gib(16.0)
        );
        assert_eq!(
            proj.capacity(DeviceTier::LowEnd, 2026).unwrap(),
            ByteSize::from_gib(256.0)
        );
    }

    #[test]
    fn tiers_keep_their_64_to_1_ratio_every_year() {
        let proj = full_projection();
        for (year, high) in proj.series(DeviceTier::HighEnd) {
            let low = proj.capacity(DeviceTier::LowEnd, year).unwrap();
            let ratio = high.bytes() as f64 / low.bytes() as f64;
            assert!((ratio - 64.0).abs() < 1e-6, "ratio in {year} was {ratio}");
        }
    }

    #[test]
    fn capacity_is_monotonic_under_every_figure2_scenario() {
        let trends = ScalingTrends::paper_table1();
        for techniques in ScalingTechnique::figure2_scenarios() {
            let proj = CapacityProjection::new(&trends, techniques);
            let series = proj.series(DeviceTier::HighEnd);
            for pair in series.windows(2) {
                assert!(
                    pair[1].1 >= pair[0].1,
                    "capacity regressed between {:?} and {:?} under {techniques}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn more_techniques_never_project_less_capacity() {
        let trends = ScalingTrends::paper_table1();
        let scenarios = ScalingTechnique::figure2_scenarios();
        for year in [2010u32, 2014, 2018, 2022, 2026] {
            let mut prev = ByteSize::ZERO;
            // MLC can shrink capacity post-flash, so compare only the strictly
            // additive prefix of the scenario list.
            for techniques in &scenarios[..3] {
                let cap = CapacityProjection::new(&trends, *techniques)
                    .capacity(DeviceTier::HighEnd, year)
                    .unwrap();
                assert!(cap >= prev, "scenario ordering violated in {year}");
                prev = cap;
            }
        }
    }

    #[test]
    fn years_between_nodes_snap_backwards() {
        let proj = full_projection();
        assert_eq!(
            proj.capacity(DeviceTier::HighEnd, 2019),
            proj.capacity(DeviceTier::HighEnd, 2018)
        );
        assert_eq!(proj.capacity(DeviceTier::HighEnd, 2009), None);
    }

    #[test]
    fn baseline_year_is_identity() {
        let proj = full_projection();
        assert_eq!(
            proj.capacity(DeviceTier::HighEnd, 2010).unwrap(),
            ByteSize::from_gib(32.0)
        );
        assert_eq!(
            proj.capacity(DeviceTier::LowEnd, 2010).unwrap(),
            ByteSize::from_mib(512)
        );
    }

    #[test]
    fn display_lists_applied_techniques() {
        assert_eq!(
            ScalingTechnique::lithography_only().to_string(),
            "lithography"
        );
        assert_eq!(
            ScalingTechnique::all().to_string(),
            "lithography+chip-stack+cell-layers+mlc"
        );
    }
}
