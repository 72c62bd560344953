//! NVM technology scaling-trend model from the Pocket Cloudlets paper.
//!
//! Section 2 of *Pocket Cloudlets* (ASPLOS 2011) argues that non-volatile
//! memory (NVM) density will keep improving for at least a decade, making it
//! attractive to push large slices of cloud services onto mobile devices.
//! This crate encodes that argument as an executable model:
//!
//! * [`trends`] — the technology scaling projections of **Table 1**
//!   (feature size, chip stacking, cell layers, bits per cell, 2010–2026).
//! * [`projection`] — the smartphone NVM capacity evolution of **Figure 2**,
//!   derived by applying combinations of the Table 1 techniques to a 2010
//!   baseline device.
//! * [`capacity`] — the cloudlet sizing arithmetic of **Table 2**: how many
//!   search-result pages, ad banners, map tiles, or web sites fit in a given
//!   slice of a device's NVM.
//! * [`units`] — byte-size newtype shared by the other modules.
//!
//! # Example
//!
//! ```
//! use nvmscale::{ByteSize, CapacityProjection, DeviceTier, ScalingTrends, ScalingTechnique};
//!
//! let trends = ScalingTrends::paper_table1();
//! let projection = CapacityProjection::new(&trends, ScalingTechnique::all());
//! let capacity_2018 = projection.capacity(DeviceTier::HighEnd, 2018).expect("year in range");
//! assert!(capacity_2018 >= ByteSize::from_tib(1.0), "high-end phones reach 1 TB by 2018");
//! ```

pub mod capacity;
pub mod projection;
pub mod trends;
pub mod units;

pub use capacity::{CloudletBudget, CloudletKind, ItemEstimate};
pub use projection::{CapacityProjection, DeviceTier, ScalingTechnique};
pub use trends::{NvmTechnology, ScalingTrends, TechnologyNode};
pub use units::ByteSize;
