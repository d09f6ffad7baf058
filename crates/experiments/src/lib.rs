//! Experiment harness reproducing every table and figure of the ICDE 2025
//! paper's evaluation (§VI).
//!
//! Each artifact (Table I, Figures 4–11) has a function in [`artifacts`]
//! that regenerates the same rows/series the paper reports, over the
//! synthetic dataset substitutes of `ldp_streams::synthetic`. Run them via
//!
//! ```text
//! cargo run -p ldp-experiments --release --bin repro -- all
//! cargo run -p ldp-experiments --release --bin repro -- fig4
//! ```
//!
//! Trial counts default to 30 random subsequences per configuration
//! (the paper averages 100 runs over 50 subsequences); set `LDP_TRIALS` to
//! override or `LDP_QUICK=1` for smoke-test sizes.

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod artifacts;
pub mod config;
pub mod datasets;
pub mod report;
pub mod runner;

pub use algorithms::AlgorithmSpec;
pub use config::ExperimentConfig;
pub use datasets::{Dataset, DatasetData};
pub use report::{Series, SeriesTable};
pub use runner::{subsequence_metric, TrialSpec};
