//! DRAM / PCM tiers and the three-tier index-placement model of §3.3.
//!
//! Each cloudlet keeps an index of its flash-resident data in fast memory.
//! The paper observes that as indexes grow toward gigabytes, reloading them
//! from NAND into DRAM after every power cycle becomes "extremely time
//! consuming", and proposes a PCM middle tier: slower than DRAM, but
//! non-volatile, so indexes are instantly available at boot.
//! [`TieredMemory`] quantifies that tradeoff.

use serde::{Deserialize, Serialize};

use crate::flash::FlashModel;
use crate::time::SimDuration;

/// DRAM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramModel {
    /// Latency of one random index probe (a few cache-line touches).
    pub probe: SimDuration,
    /// Sustained copy bandwidth in bytes per second.
    pub bandwidth_bps: u64,
}

impl Default for DramModel {
    fn default() -> Self {
        DramModel {
            probe: SimDuration::from_micros(0), // sub-microsecond; clock is µs-granular
            bandwidth_bps: 1_000_000_000,
        }
    }
}

/// PCM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcmModel {
    /// Latency of one random index probe (PCM reads are a few times DRAM).
    pub probe: SimDuration,
    /// Sustained read bandwidth in bytes per second.
    pub read_bandwidth_bps: u64,
    /// Sustained write bandwidth in bytes per second (writes are slow).
    pub write_bandwidth_bps: u64,
}

impl Default for PcmModel {
    fn default() -> Self {
        PcmModel {
            probe: SimDuration::from_micros(1),
            read_bandwidth_bps: 400_000_000,
            write_bandwidth_bps: 50_000_000,
        }
    }
}

/// Index placement policy for a cloudlet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexPlacement {
    /// Two-tier system: index in DRAM, reloaded from flash at every boot.
    DramLoadedFromFlash,
    /// Three-tier system: index lives in PCM; instantly available at boot.
    Pcm,
    /// Hybrid: index in PCM, hot entries cached in DRAM. `hot_fraction` of
    /// probes hit the DRAM cache.
    PcmWithDramCache {
        /// Fraction of probes served by the DRAM cache, in `[0, 1]` per mille
        /// (stored as parts-per-thousand to stay `Eq`/hashable).
        hot_per_mille: u16,
    },
}

/// The memory hierarchy of §3.3, combining DRAM, PCM, and flash models.
///
/// # Example
///
/// ```
/// use mobsim::flash::FlashModel;
/// use mobsim::memory::{DramModel, IndexPlacement, PcmModel, TieredMemory};
///
/// let mem = TieredMemory::new(DramModel::default(), PcmModel::default(), FlashModel::default());
/// // A 200 KB PocketSearch index reloads from flash in ~30 ms...
/// let two_tier = mem.boot_cost(IndexPlacement::DramLoadedFromFlash, 200_000);
/// // ...but a gigabyte-scale multi-cloudlet index takes minutes.
/// let big = mem.boot_cost(IndexPlacement::DramLoadedFromFlash, 1_000_000_000);
/// assert!(two_tier.as_secs_f64() < 0.1);
/// assert!(big.as_secs_f64() > 60.0);
/// // PCM placement makes boot cost vanish.
/// assert_eq!(mem.boot_cost(IndexPlacement::Pcm, 1_000_000_000).as_micros(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TieredMemory {
    dram: DramModel,
    pcm: PcmModel,
    flash: FlashModel,
}

impl TieredMemory {
    /// Creates a hierarchy from per-tier models.
    pub fn new(dram: DramModel, pcm: PcmModel, flash: FlashModel) -> Self {
        TieredMemory { dram, pcm, flash }
    }

    /// The flash tier model.
    pub fn flash(&self) -> &FlashModel {
        &self.flash
    }

    /// Time before the index is usable after a power cycle.
    pub fn boot_cost(&self, placement: IndexPlacement, index_bytes: u64) -> SimDuration {
        match placement {
            IndexPlacement::DramLoadedFromFlash => {
                let bw = self.flash.read_bandwidth_bps();
                SimDuration::from_secs_f64(index_bytes as f64 / bw)
            }
            IndexPlacement::Pcm | IndexPlacement::PcmWithDramCache { .. } => SimDuration::ZERO,
        }
    }

    /// Expected cost of one index probe under a placement.
    pub fn probe_cost(&self, placement: IndexPlacement) -> SimDuration {
        match placement {
            IndexPlacement::DramLoadedFromFlash => self.dram.probe,
            IndexPlacement::Pcm => self.pcm.probe,
            IndexPlacement::PcmWithDramCache { hot_per_mille } => {
                let hot = f64::from(hot_per_mille.min(1_000)) / 1_000.0;
                let expected = self.dram.probe.as_micros() as f64 * hot
                    + self.pcm.probe.as_micros() as f64 * (1.0 - hot);
                SimDuration::from_micros(expected.round() as u64)
            }
        }
    }
}

impl Default for TieredMemory {
    fn default() -> Self {
        TieredMemory::new(
            DramModel::default(),
            PcmModel::default(),
            FlashModel::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcm_probes_slower_than_dram_faster_than_reload() {
        let mem = TieredMemory::default();
        let dram = mem.probe_cost(IndexPlacement::DramLoadedFromFlash);
        let pcm = mem.probe_cost(IndexPlacement::Pcm);
        assert!(pcm >= dram);
    }

    #[test]
    fn boot_cost_scales_linearly_with_index_size() {
        let mem = TieredMemory::default();
        let small = mem.boot_cost(IndexPlacement::DramLoadedFromFlash, 1_000_000);
        let large = mem.boot_cost(IndexPlacement::DramLoadedFromFlash, 10_000_000);
        let ratio = large.ratio(small).unwrap();
        assert!((ratio - 10.0).abs() < 0.01);
    }

    #[test]
    fn pcm_placements_boot_instantly() {
        let mem = TieredMemory::default();
        for placement in [
            IndexPlacement::Pcm,
            IndexPlacement::PcmWithDramCache { hot_per_mille: 500 },
        ] {
            assert_eq!(mem.boot_cost(placement, u64::MAX), SimDuration::ZERO);
        }
    }

    #[test]
    fn dram_cache_interpolates_probe_cost() {
        let mem = TieredMemory::default();
        let all_hot = mem.probe_cost(IndexPlacement::PcmWithDramCache {
            hot_per_mille: 1_000,
        });
        let all_cold = mem.probe_cost(IndexPlacement::PcmWithDramCache { hot_per_mille: 0 });
        assert_eq!(all_hot, mem.dram.probe);
        assert_eq!(all_cold, mem.pcm.probe);
        let half = mem.probe_cost(IndexPlacement::PcmWithDramCache { hot_per_mille: 500 });
        assert!(half >= all_hot && half <= all_cold);
    }

    #[test]
    fn hot_fraction_above_one_is_clamped() {
        let mem = TieredMemory::default();
        let clamped = mem.probe_cost(IndexPlacement::PcmWithDramCache {
            hot_per_mille: 9_999,
        });
        assert_eq!(clamped, mem.dram.probe);
    }

    #[test]
    fn gigabyte_index_reload_is_minutes_scale() {
        // The paper: "the size of the data indexes can reach gigabytes,
        // making its transfer between flash and main memory extremely time
        // consuming".
        let mem = TieredMemory::default();
        let t = mem.boot_cost(IndexPlacement::DramLoadedFromFlash, 2_000_000_000);
        assert!(t.as_secs_f64() > 120.0, "2 GB reload took only {t}");
    }
}
