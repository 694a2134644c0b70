//! The [`Scenario`] trait: one experiment family, pluggable into the
//! shared [`crate::SweepRunner`] and the registry-driven CLI.

use crate::grid::{Axis, GridError, GridSpec, Params};
use crate::value::Value;

/// Flat `(key, value)` pairs describing a config or a record; keys are
/// `&'static str` so building a row allocates nothing for the names.
pub type Fields = Vec<(&'static str, Value)>;

/// One experiment family: how to build a run from a config and a seed,
/// and how to report it.
///
/// Every experiment in the workspace — static (k,d)-choice trials, the
/// dynamic-k variant, the cluster-scheduling simulation, the storage
/// workload — implements this trait once, and gets the parallel sweep
/// runner, the JSONL/CSV/table reporters, and the CLI grid syntax for
/// free.
///
/// # Determinism contract
///
/// `run(config, seed)` must be a **pure function** of `(config, seed)`.
/// The runner derives the per-trial seed as
/// `derive_seed(base_seed(config), trial)`, exactly like
/// `kdchoice_core::run_trials`, so any cell of any grid is reproducible
/// in isolation and results do not depend on thread count or scheduling.
pub trait Scenario: Sync {
    /// One point of the parameter grid.
    type Config: Clone + Send + Sync;
    /// The result of one run.
    type Record: Send;

    /// The registry name, e.g. `"static"` or `"scheduler"`.
    fn name(&self) -> &'static str;

    /// One-line description for `bench list`.
    fn description(&self) -> &'static str;

    /// Executes one run. Must be deterministic in `(config, seed)`.
    fn run(&self, config: &Self::Config, seed: u64) -> Self::Record;

    /// The master seed embedded in `config`; trial `t` of this config runs
    /// with `derive_seed(base_seed(config), t)`.
    fn base_seed(&self, config: &Self::Config) -> u64;

    /// The config as flat report fields (become JSONL keys / CSV columns).
    fn config_fields(&self, config: &Self::Config) -> Fields;

    /// The record as flat report fields.
    fn record_fields(&self, record: &Self::Record) -> Fields;

    /// The grid axes this scenario accepts (for validation and help).
    fn axes(&self) -> &'static [Axis];

    /// Builds one config from a grid assignment. Absent axes take the
    /// scenario's defaults; semantic violations (e.g. `k > d`) are
    /// reported as [`GridError::BadValue`].
    fn config_from_params(&self, params: &Params) -> Result<Self::Config, GridError>;

    /// A tiny grid that finishes in well under a second — the CI smoke
    /// workload driven by `kdchoice-bench smoke`.
    fn smoke_grid(&self) -> GridSpec;
}

/// The largest sweep `configs_from_grid` will materialize. Grids above
/// this are almost certainly typos (`k=1,2,...` pasted wrong), and
/// expanding them would exhaust memory before the sweep even starts.
pub const MAX_GRID_CELLS: usize = 1 << 22;

/// Builds the configs for a grid: validates axis names against
/// [`Scenario::axes`], defaults the `seed` axis to `base_seed`, and maps
/// every assignment through [`Scenario::config_from_params`].
pub fn configs_from_grid<S: Scenario>(
    scenario: &S,
    grid: &GridSpec,
    base_seed: u64,
) -> Result<Vec<S::Config>, GridError> {
    for name in grid.axis_names() {
        if !scenario.axes().iter().any(|a| a.name == name) {
            return Err(GridError::UnknownAxis {
                axis: name.to_string(),
                scenario: scenario.name(),
            });
        }
    }
    if grid.len() > MAX_GRID_CELLS {
        return Err(GridError::TooLarge {
            cells: grid.len(),
            cap: MAX_GRID_CELLS,
        });
    }
    let mut grid = grid.clone();
    grid.set_default("seed", base_seed.to_string());
    grid.assignments()
        .iter()
        .map(|p| scenario.config_from_params(p))
        .collect()
}

/// A `Value` helper: quantile triple fields (`p50`/`p90`/`p99`) from a
/// 3-element percentile array, shared by the scheduler and storage
/// records.
pub fn percentile_fields(
    prefix_p50: &'static str,
    prefix_p90: &'static str,
    prefix_p99: &'static str,
    pct: [f64; 3],
) -> Fields {
    vec![
        (prefix_p50, Value::F64(pct[0])),
        (prefix_p90, Value::F64(pct[1])),
        (prefix_p99, Value::F64(pct[2])),
    ]
}
