//! Shared harness utilities for regenerating the paper's tables & figures.
//!
//! The `figures`, `tables` and `ablations` binaries (and the
//! `pipeline-bench` package) lean on this crate for consistent workload
//! construction and plain-text rendering: every experiment prints the
//! paper's reported value next to the measured one, so a run reads as a
//! reproduction report. [`cli`] is the three binaries' one command line
//! and run context, which builds each run's study world at most once.
//! [`json`] is the one writer of the `BENCH_*.json` artifacts.
//! [`wallclock`] holds the workspace's one host timer.

// The crate does not inherit the workspace lint table (see its
// Cargo.toml), so it asks for docs coverage here.
#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod render;
pub mod wallclock;
pub mod workloads;

pub use cli::{RunContext, Sections};
pub use json::{Fields, Json};
pub use render::{ascii_chart, Table};
pub use wallclock::{measure, Measurement};
pub use workloads::{
    fleet_workload, frontend_workload, full_scale_study_inputs, materialized_month_requests,
    peer_cell_workload, population_requests, population_world, skewed_arbiter_workload,
    test_scale_study_inputs, PeerWorkload, PopulationWorld, StudyInputs,
};
