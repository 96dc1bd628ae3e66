//! # redsim-benchmark
//!
//! The end-to-end and per-layer benchmark of the redsim simulator and
//! the `redsim-serve` daemon. One command runs four workloads, each in
//! its own process, prints every end-to-end metric with its unit and
//! sample count, and checks that the simulated outputs are correct; a
//! traced run replays each workload through the layers' public
//! functions and prints the per-layer metrics. `compare` judges two
//! sets of runs by the pairs rule; `perturb` fakes a regression to prove
//! `compare` catches one. See `README.md` beside this crate.

pub mod campaign;
pub mod catalog;
pub mod compare;
pub mod golden;
pub mod layers;
pub mod paper;
pub mod plan;
pub mod proc;
pub mod report;
pub mod serve;
pub mod span;
pub mod stats;

use std::path::PathBuf;

use plan::{Kind, Size};
use report::WorkloadResult;

/// Everything one workload process needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the timed phase runs at least (untraced runs).
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// The process's state directory, removed when it ends.
    pub dir: PathBuf,
    /// The `redsim-serve` binary the serve workloads start.
    pub serve_bin: PathBuf,
}

/// Runs one workload, traced or not.
#[must_use]
pub fn run_workload(cfg: &RunConfig) -> WorkloadResult {
    if cfg.trace {
        return layers::run(cfg);
    }
    match cfg.kind {
        Kind::PaperMatrix => paper::run(cfg),
        Kind::FaultCampaign => campaign::run(cfg),
        Kind::ServeCold => serve::run_cold(cfg),
        Kind::ServeWarm => serve::run_warm(cfg),
    }
}
