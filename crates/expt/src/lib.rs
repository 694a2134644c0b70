//! Experiment orchestration for the `kdchoice` workspace.
//!
//! The paper's value is not just the static (k,d)-choice bound but its
//! §1.3 applications — cluster job scheduling and distributed storage —
//! and the comparisons against (1+β)-style baselines. Each of those is an
//! *experiment family*: a config type, a deterministic `run(config, seed)`
//! function, and a set of reported observables. This crate owns everything
//! those families share:
//!
//! * [`Scenario`] — the one trait an experiment family implements.
//! * [`SweepRunner`] — a work-stealing parallel executor over a
//!   (config × seed) grid; results are deterministic regardless of thread
//!   count because every trial's seed is derived from its grid coordinates
//!   (`derive_seed(base_seed, trial)`, the same scheme as
//!   `kdchoice_core::run_trials`).
//! * [`MetricAccumulator`] / [`WeightedMean`] / [`Merge`] — mergeable
//!   aggregates over cells produced in parallel, built on the
//!   `kdchoice-stats` substrate.
//! * [`SweepReport`] — one uniform row format, rendered as JSON lines,
//!   CSV, or a human table; [`validate_json`] rejects malformed output.
//! * [`GridSpec`] / [`Params`] — the CLI grid syntax
//!   (`k=2,3 n=2^16 rho=0.7,0.9`) and its cartesian expansion.
//! * [`Registry`] / [`RunnableScenario`] — scenarios runnable by name,
//!   the registry the `kdchoice-bench` CLI drives.
//!
//! The crate sits *below* `kdchoice-core`: the core crate's `run_sweep`
//! is a thin adapter over [`SweepRunner`], and the scheduler and storage
//! crates implement [`Scenario`] for their simulations.
//!
//! ```
//! use kdchoice_expt::SweepRunner;
//!
//! // The runner is generic: any (config × trial) job grid runs on all
//! // cores with deterministic slot placement.
//! let cells = SweepRunner::new().run_grid(&[2u64, 3], 4, |&c, _cfg, t| c * 10 + t as u64);
//! assert_eq!(cells, vec![vec![20, 21, 22, 23], vec![30, 31, 32, 33]]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accum;
#[cfg(test)]
mod arbitrary_text;
mod grid;
mod registry;
mod report;
mod runner;
mod scenario;
mod value;

pub use accum::{Merge, MetricAccumulator, WeightedMean};
pub use grid::{Axis, GridError, GridSpec, Params};
pub use registry::{Registry, RunnableScenario};
pub use report::{ReportFormat, Row, SweepReport};
pub use runner::{SweepCell, SweepRunner, TrialRun};
pub use scenario::{configs_from_grid, percentile_fields, Fields, Scenario, MAX_GRID_CELLS};
pub use value::{validate_json, Value};
