//! Technology scaling projections (paper Table 1).
//!
//! Table 1 of the paper projects, for every two-year node from 2010 to 2026:
//! the lithography feature size, the per-layer cell scaling factor relative
//! to 2010, the number of chips per stacked package, the number of
//! monolithically stacked cell layers, and the number of bits stored per
//! cell. Flash is assumed to dominate until the 2016/2018 time frame, after
//! which a resistive or magneto-resistive technology takes over.

use serde::{Deserialize, Serialize};

/// The NVM technology assumed to be in production at a given node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NvmTechnology {
    /// Charge-based NAND flash (dominant through ~2016).
    Flash,
    /// A post-flash technology such as PCM, RRAM, or STT-MRAM.
    PostFlash,
}

impl std::fmt::Display for NvmTechnology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmTechnology::Flash => write!(f, "Flash"),
            NvmTechnology::PostFlash => write!(f, "Other NVM technology"),
        }
    }
}

/// One column of Table 1: the projected state of NVM manufacturing in a year.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechnologyNode {
    /// Calendar year of the node (2010, 2012, ..., 2026).
    pub year: u32,
    /// Lithography feature size in nanometres.
    pub feature_nm: u32,
    /// Cells-per-layer density multiplier relative to the 2010 node.
    pub scaling_factor: u32,
    /// Number of independently fabricated chips per stacked package.
    pub chip_stack: u32,
    /// Number of monolithically stacked cell layers per chip.
    pub cell_layers: u32,
    /// Number of bits stored per memory cell.
    pub bits_per_cell: u32,
    /// Which technology family the node belongs to.
    pub technology: NvmTechnology,
}

impl TechnologyNode {
    /// Density multiplier relative to the 2010 baseline when a given set of
    /// capacity-increasing techniques is exploited.
    ///
    /// Lithography scaling is always applied; chip stacking, cell stacking,
    /// and multi-level cells are opt-in, mirroring the separate curves of
    /// Figure 2. The 2010 baseline had a 4-chip stack, a single cell layer,
    /// and 2 bits per cell, so each opted-in factor is normalized to that
    /// baseline.
    pub fn density_multiplier(
        &self,
        baseline: &TechnologyNode,
        use_chip_stacking: bool,
        use_cell_layers: bool,
        use_multi_level_cells: bool,
    ) -> f64 {
        let mut mult = self.scaling_factor as f64 / baseline.scaling_factor as f64;
        if use_chip_stacking {
            mult *= self.chip_stack as f64 / baseline.chip_stack as f64;
        }
        if use_cell_layers {
            mult *= self.cell_layers as f64 / baseline.cell_layers as f64;
        }
        if use_multi_level_cells {
            mult *= self.bits_per_cell as f64 / baseline.bits_per_cell as f64;
        }
        mult
    }
}

/// The full scaling-trend table (paper Table 1).
///
/// # Example
///
/// ```
/// use nvmscale::ScalingTrends;
///
/// let trends = ScalingTrends::paper_table1();
/// let node_2018 = trends.node(2018).expect("2018 is a Table 1 column");
/// assert_eq!(node_2018.feature_nm, 11);
/// assert_eq!(node_2018.chip_stack, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingTrends {
    nodes: Vec<TechnologyNode>,
}

impl ScalingTrends {
    /// Builds the exact projections of the paper's Table 1.
    pub fn paper_table1() -> Self {
        use NvmTechnology::{Flash, PostFlash};
        let rows: [(u32, u32, u32, u32, u32, u32, NvmTechnology); 9] = [
            // (year, tech nm, scaling factor, chip stack, cell layers, bits/cell)
            (2010, 32, 1, 4, 1, 2, Flash),
            (2012, 22, 2, 4, 1, 3, Flash),
            (2014, 16, 4, 6, 1, 2, Flash),
            (2016, 11, 8, 6, 2, 2, Flash),
            (2018, 11, 8, 8, 2, 2, PostFlash),
            (2020, 8, 16, 8, 4, 1, PostFlash),
            (2022, 5, 32, 12, 4, 1, PostFlash),
            (2024, 5, 32, 12, 8, 1, PostFlash),
            (2026, 5, 32, 16, 8, 1, PostFlash),
        ];
        let nodes = rows
            .into_iter()
            .map(
                |(
                    year,
                    feature_nm,
                    scaling_factor,
                    chip_stack,
                    cell_layers,
                    bits_per_cell,
                    technology,
                )| {
                    TechnologyNode {
                        year,
                        feature_nm,
                        scaling_factor,
                        chip_stack,
                        cell_layers,
                        bits_per_cell,
                        technology,
                    }
                },
            )
            .collect();
        ScalingTrends { nodes }
    }

    /// The first (baseline) node of the table.
    pub fn baseline(&self) -> &TechnologyNode {
        &self.nodes[0]
    }

    /// The node for an exact year, if the table has a column for it.
    pub fn node(&self, year: u32) -> Option<&TechnologyNode> {
        self.nodes.iter().find(|n| n.year == year)
    }

    /// The most recent node at or before `year`, if any.
    ///
    /// Useful for querying capacity in odd years between Table 1 columns:
    /// manufacturing stays on a node until the next one ships.
    pub fn node_at_or_before(&self, year: u32) -> Option<&TechnologyNode> {
        self.nodes.iter().rev().find(|n| n.year <= year)
    }

    /// All nodes in year order.
    pub fn iter(&self) -> impl Iterator<Item = &TechnologyNode> {
        self.nodes.iter()
    }

    /// Number of nodes in the table.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table is empty (never true for validated tables).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_row_by_row() {
        let t = ScalingTrends::paper_table1();
        assert_eq!(t.len(), 9);
        let years: Vec<u32> = t.iter().map(|n| n.year).collect();
        assert_eq!(
            years,
            vec![2010, 2012, 2014, 2016, 2018, 2020, 2022, 2024, 2026]
        );
        let nm: Vec<u32> = t.iter().map(|n| n.feature_nm).collect();
        assert_eq!(nm, vec![32, 22, 16, 11, 11, 8, 5, 5, 5]);
        let sf: Vec<u32> = t.iter().map(|n| n.scaling_factor).collect();
        assert_eq!(sf, vec![1, 2, 4, 8, 8, 16, 32, 32, 32]);
        let cs: Vec<u32> = t.iter().map(|n| n.chip_stack).collect();
        assert_eq!(cs, vec![4, 4, 6, 6, 8, 8, 12, 12, 16]);
        let cl: Vec<u32> = t.iter().map(|n| n.cell_layers).collect();
        assert_eq!(cl, vec![1, 1, 1, 2, 2, 4, 4, 8, 8]);
        let bpc: Vec<u32> = t.iter().map(|n| n.bits_per_cell).collect();
        assert_eq!(bpc, vec![2, 3, 2, 2, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn flash_hands_over_to_post_flash_in_2018() {
        let t = ScalingTrends::paper_table1();
        assert_eq!(t.node(2016).unwrap().technology, NvmTechnology::Flash);
        assert_eq!(t.node(2018).unwrap().technology, NvmTechnology::PostFlash);
    }

    #[test]
    fn scaling_stalls_for_one_generation_at_the_handover() {
        // The shift from flash causes scaling to stall for one generation:
        // 2016 and 2018 share feature size and scaling factor.
        let t = ScalingTrends::paper_table1();
        let n16 = t.node(2016).unwrap();
        let n18 = t.node(2018).unwrap();
        assert_eq!(n16.feature_nm, n18.feature_nm);
        assert_eq!(n16.scaling_factor, n18.scaling_factor);
    }

    #[test]
    fn lithography_scaling_stops_at_5nm_in_2022() {
        let t = ScalingTrends::paper_table1();
        for year in [2022, 2024, 2026] {
            assert_eq!(t.node(year).unwrap().feature_nm, 5);
            assert_eq!(t.node(year).unwrap().scaling_factor, 32);
        }
    }

    #[test]
    fn node_at_or_before_snaps_to_previous_column() {
        let t = ScalingTrends::paper_table1();
        assert_eq!(t.node_at_or_before(2013).unwrap().year, 2012);
        assert_eq!(t.node_at_or_before(2010).unwrap().year, 2010);
        assert_eq!(t.node_at_or_before(2009), None);
        assert_eq!(t.node_at_or_before(2040).unwrap().year, 2026);
    }

    #[test]
    fn density_multiplier_composes_opted_in_factors() {
        let t = ScalingTrends::paper_table1();
        let base = *t.baseline();
        let n = t.node(2026).unwrap();
        // Lithography only: 32x.
        assert_eq!(n.density_multiplier(&base, false, false, false), 32.0);
        // + chip stacking: 16/4 = 4x more.
        assert_eq!(n.density_multiplier(&base, true, false, false), 128.0);
        // + cell layers: 8/1 = 8x more.
        assert_eq!(n.density_multiplier(&base, true, true, false), 1024.0);
        // + bits per cell: 1/2 = 0.5x (post-flash cells hold fewer bits).
        assert_eq!(n.density_multiplier(&base, true, true, true), 512.0);
    }
}
