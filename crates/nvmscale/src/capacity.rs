//! Cloudlet sizing arithmetic (paper Table 2).
//!
//! Table 2 of the paper asks: dedicating only 10% of the 256 GB NVM
//! projected for low-end smartphones — 25.6 GB — to caching services, how
//! many data items can each kind of pocket cloudlet hold? This module
//! reproduces that arithmetic and the surrounding headroom claims (a typical
//! user visits fewer than 1,000 URLs while the budget stores ~17,500 pages;
//! 5.5 million map tiles at 300×300 m cover a whole US state).

use serde::{Deserialize, Serialize};

use crate::units::ByteSize;

/// The kinds of pocket cloudlet the paper sizes in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CloudletKind {
    /// Cached search-result pages (the PocketSearch payload).
    WebSearch,
    /// Cached mobile advertisement banners.
    MobileAds,
    /// Yellow-pages entries: map tiles annotated with business info.
    YellowBusiness,
    /// Full cached web pages (e.g. www.cnn.com).
    WebContent,
    /// Plain 128×128-pixel map tiles.
    Mapping,
}

impl CloudletKind {
    /// All Table 2 rows, in the paper's order.
    pub const ALL: [CloudletKind; 5] = [
        CloudletKind::WebSearch,
        CloudletKind::MobileAds,
        CloudletKind::YellowBusiness,
        CloudletKind::WebContent,
        CloudletKind::Mapping,
    ];

    /// The representative size of a single cached item.
    ///
    /// The paper quotes 100 KB for a search-result page, 5 KB for ad
    /// banners and map tiles, and 1.5 MB for a full web page. Page-like
    /// items use binary units (they are file-system payloads), banner-like
    /// items decimal, matching the item counts the paper reports.
    pub fn item_size(self) -> ByteSize {
        match self {
            CloudletKind::WebSearch => ByteSize::from_kib(100),
            CloudletKind::MobileAds => ByteSize::from_kb(5),
            CloudletKind::YellowBusiness => ByteSize::from_kb(5),
            CloudletKind::WebContent => ByteSize::from_mib(1) + ByteSize::from_kib(512),
            CloudletKind::Mapping => ByteSize::from_kb(5),
        }
    }

    /// Item count the paper reports for this row of Table 2.
    pub fn paper_item_count(self) -> u64 {
        match self {
            CloudletKind::WebSearch => 270_000,
            CloudletKind::MobileAds => 5_500_000,
            CloudletKind::YellowBusiness => 5_500_000,
            CloudletKind::WebContent => 17_500,
            CloudletKind::Mapping => 5_500_000,
        }
    }

    /// Human-readable description of a single item, as in Table 2.
    pub fn item_description(self) -> &'static str {
        match self {
            CloudletKind::WebSearch => "search result page",
            CloudletKind::MobileAds => "ad banner",
            CloudletKind::YellowBusiness => "map tile with business info",
            CloudletKind::WebContent => "full web page (www.cnn.com)",
            CloudletKind::Mapping => "128x128 pixels map tile",
        }
    }
}

impl std::fmt::Display for CloudletKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudletKind::WebSearch => write!(f, "Web Search"),
            CloudletKind::MobileAds => write!(f, "Mobile Ads"),
            CloudletKind::YellowBusiness => write!(f, "Yellow Business"),
            CloudletKind::WebContent => write!(f, "Web Content"),
            CloudletKind::Mapping => write!(f, "Mapping"),
        }
    }
}

/// An estimated item count for one cloudlet kind under a byte budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ItemEstimate {
    /// The cloudlet being sized.
    pub kind: CloudletKind,
    /// Size of one cached item.
    pub item_size: ByteSize,
    /// Number of items that fit in the budget.
    pub items: u64,
}

/// The NVM slice a device dedicates to pocket cloudlets.
///
/// # Example
///
/// ```
/// use nvmscale::{CloudletBudget, CloudletKind};
///
/// let budget = CloudletBudget::paper_table2();
/// let search = budget.estimate(CloudletKind::WebSearch);
/// // Roughly 270,000 search-result pages fit in 25.6 GB.
/// assert!((search.items as f64 - 270_000.0).abs() / 270_000.0 < 0.03);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloudletBudget {
    bytes: ByteSize,
}

impl CloudletBudget {
    /// A budget of an explicit byte size.
    pub fn new(bytes: ByteSize) -> Self {
        CloudletBudget { bytes }
    }

    /// The paper's Table 2 budget: 10% of a 256 GB low-end device = 25.6 GB.
    pub fn paper_table2() -> Self {
        CloudletBudget::fraction_of_device(ByteSize::from_gib(256.0), 0.10)
    }

    /// Dedicates `fraction` of a device's NVM to cloudlets.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn fraction_of_device(device_nvm: ByteSize, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be within [0, 1], got {fraction}"
        );
        CloudletBudget {
            bytes: device_nvm.scale(fraction),
        }
    }

    /// Total bytes available to cloudlets.
    pub fn bytes(self) -> ByteSize {
        self.bytes
    }

    /// How many items of `kind` fit in this budget.
    pub fn estimate(self, kind: CloudletKind) -> ItemEstimate {
        let item_size = kind.item_size();
        ItemEstimate {
            kind,
            item_size,
            items: self.bytes.items_of(item_size),
        }
    }

    /// Every Table 2 row under this budget, in paper order.
    pub fn table2(self) -> Vec<ItemEstimate> {
        CloudletKind::ALL
            .iter()
            .map(|&k| self.estimate(k))
            .collect()
    }

    /// Ground area covered by the mapping cloudlet, in square kilometres,
    /// assuming each tile covers `tile_side_m` × `tile_side_m` metres
    /// (the paper assumes 300 m).
    pub fn map_coverage_km2(self, tile_side_m: f64) -> f64 {
        let tiles = self.estimate(CloudletKind::Mapping).items as f64;
        tiles * (tile_side_m / 1_000.0).powi(2)
    }

    /// Headroom factor between storable web pages and what a typical user
    /// actually needs: the paper's log analysis found >90% of mobile users
    /// visit fewer than `urls_visited` (1,000) URLs over several months.
    pub fn web_content_headroom(self, urls_visited: u64) -> f64 {
        if urls_visited == 0 {
            return f64::INFINITY;
        }
        self.estimate(CloudletKind::WebContent).items as f64 / urls_visited as f64
    }
}

impl Default for CloudletBudget {
    fn default() -> Self {
        CloudletBudget::paper_table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(measured: u64, paper: u64, tolerance: f64, what: &str) {
        let err = (measured as f64 - paper as f64).abs() / paper as f64;
        assert!(
            err < tolerance,
            "{what}: measured {measured} vs paper {paper} ({:.1}% off)",
            err * 100.0
        );
    }

    #[test]
    fn budget_is_25_point_6_gb() {
        let budget = CloudletBudget::paper_table2();
        assert!((budget.bytes().bytes() as f64 / 1_073_741_824.0 - 25.6).abs() < 1e-9);
    }

    #[test]
    fn every_table2_row_matches_the_paper_within_3_percent() {
        let budget = CloudletBudget::paper_table2();
        for est in budget.table2() {
            assert_close(
                est.items,
                est.kind.paper_item_count(),
                0.03,
                est.kind.item_description(),
            );
        }
    }

    #[test]
    fn table2_preserves_paper_row_order() {
        let kinds: Vec<CloudletKind> = CloudletBudget::paper_table2()
            .table2()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(kinds, CloudletKind::ALL.to_vec());
    }

    #[test]
    fn map_tiles_cover_a_us_state() {
        // 5.5M tiles at 300x300m = ~495,000 km^2, about the area of a large
        // US state (e.g. California is ~424,000 km^2).
        let coverage = CloudletBudget::paper_table2().map_coverage_km2(300.0);
        assert!(coverage > 400_000.0, "coverage was only {coverage} km^2");
    }

    #[test]
    fn web_content_headroom_is_about_17x() {
        let headroom = CloudletBudget::paper_table2().web_content_headroom(1_000);
        assert!(
            (15.0..20.0).contains(&headroom),
            "headroom was {headroom}, paper claims ~17x"
        );
    }

    #[test]
    fn headroom_for_zero_visits_is_infinite() {
        assert!(CloudletBudget::paper_table2()
            .web_content_headroom(0)
            .is_infinite());
    }

    #[test]
    fn fraction_of_device_scales_linearly() {
        let dev = ByteSize::from_gib(100.0);
        let b = CloudletBudget::fraction_of_device(dev, 0.5);
        assert!((b.bytes().bytes() as f64 / 1_073_741_824.0 - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn fraction_out_of_range_is_rejected() {
        let _ = CloudletBudget::fraction_of_device(ByteSize::from_gib(1.0), 1.5);
    }

    #[test]
    fn empty_budget_stores_nothing() {
        let b = CloudletBudget::new(ByteSize::ZERO);
        for est in b.table2() {
            assert_eq!(est.items, 0);
        }
    }
}
