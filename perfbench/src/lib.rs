//! The facade-level benchmark of the sdwp workspace (see `README.md`).

pub mod json;
pub mod layers;
pub mod report;
pub mod rig;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod target;
pub mod workloads;

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 22;
