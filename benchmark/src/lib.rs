//! # skewbench
//!
//! The repository's benchmark: two seeded workloads that time the
//! skew-adaptive LSF index end to end (build, query, batch) and, in a
//! separate traced run, layer by layer, including the HTTP service under a
//! read/write mix. Every answer is checked; any wrong answer fails the run.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload skewed-large --seed 1 --seconds 16 --trace 0
//! ```

#![forbid(unsafe_code)]
// Timing is this crate's purpose: `Instant::now` is its measuring
// instrument and never reaches library code, so the workspace-wide ban on
// wall-clock reads (clippy.toml) does not apply here.
#![allow(clippy::disallowed_methods)]

pub mod host;
pub mod report;
pub mod run;
pub mod service;
pub mod stats;
pub mod trace;
pub mod workload;
