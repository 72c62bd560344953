//! Shared harness utilities for regenerating the paper's tables & figures.
//!
//! The `figures` and `tables` binaries (and the Criterion benches) lean on
//! this crate for consistent workload construction and plain-text
//! rendering: every experiment prints the paper's reported value next to
//! the measured one, so a run reads as a reproduction report.

// Docs coverage applies to this library only; the Criterion bench
// targets generate undocumented glue functions.
#![warn(missing_docs)]

pub mod hotpath;
pub mod render;
pub mod wallclock;
pub mod workloads;

pub use render::{ascii_chart, Table};
pub use wallclock::{measure, thread_sweep, Measurement, SweepPoint};
pub use workloads::{
    fleet_workload, frontend_workload, full_scale_study_inputs, materialized_month_requests,
    peer_cell_workload, population_requests, population_world, skewed_arbiter_workload,
    test_scale_study_inputs, PeerWorkload, PopulationWorld, StudyInputs,
};
