//! The closed-loop placement-service workload as a
//! [`kdchoice_expt::Scenario`] named `service`.

use kdchoice_core::{ConfigError, PlacementObjective, StoreKind, MAX_DIMS};
use kdchoice_expt::{Axis, Fields, GridError, GridSpec, Params, Scenario, Value};
use kdchoice_prng::demand::DemandDistribution;

use crate::engine::ServiceBackend;
use crate::service::{
    prev_power_of_two, run_service_workload, ServiceReport, ServiceWorkloadConfig,
};

/// The concurrent placement-service experiment family: closed-loop
/// clients hammering a sharded (k,d)-choice service, measuring placement
/// throughput and max-load/gap under contention.
///
/// **Determinism caveat** (documented deviation from the experiment
/// layer's pure-function contract): each client's request stream is a
/// pure function of `(config, seed)`, but with `threads > 1` the
/// *interleaving* of commits — and therefore throughput and, slightly,
/// the final load shape — is scheduler-driven. Conservation and shard
/// invariants are re-checked on every run and reported in the
/// `conserved` column.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceScenario;

impl Scenario for ServiceScenario {
    type Config = ServiceWorkloadConfig;
    type Record = ServiceReport;

    fn name(&self) -> &'static str {
        "service"
    }

    fn description(&self) -> &'static str {
        "concurrent placement service: closed-loop clients on a sharded (k,d)-choice store"
    }

    fn run(&self, config: &Self::Config, seed: u64) -> ServiceReport {
        let mut config = config.clone();
        config.seed = seed;
        run_service_workload(&config)
    }

    fn base_seed(&self, config: &Self::Config) -> u64 {
        config.seed
    }

    fn config_fields(&self, config: &Self::Config) -> Fields {
        vec![
            ("n", Value::U64(config.bins as u64)),
            ("k", Value::U64(config.k as u64)),
            ("d", Value::U64(config.d as u64)),
            ("shards", Value::U64(config.shards as u64)),
            ("threads", Value::U64(config.threads as u64)),
            ("requests", Value::U64(config.requests_per_thread as u64)),
            ("window", Value::U64(config.window as u64)),
            ("backend", Value::Str(config.backend.name().into())),
            ("refresh", Value::U64(config.snapshot_refresh as u64)),
            ("store", Value::Str(config.store.name().into())),
            ("dims", Value::U64(config.dims as u64)),
            ("objective", Value::Str(config.objective.name().into())),
            ("demand", Value::Str(config.demand.name().into())),
        ]
    }

    fn record_fields(&self, record: &Self::Record) -> Fields {
        let max_dim_gap = record.dim_gaps.iter().cloned().fold(0.0f64, f64::max);
        vec![
            ("placements", Value::U64(record.placements)),
            ("balls_placed", Value::U64(record.balls_placed)),
            ("balls_released", Value::U64(record.balls_released)),
            ("live_balls", Value::U64(record.live_balls)),
            ("balls_per_sec", Value::F64(record.balls_per_sec)),
            ("max_load", Value::U64(u64::from(record.max_load))),
            ("gap", Value::F64(record.gap)),
            ("nu1", Value::U64(record.nu1)),
            ("conserved", Value::Bool(record.conserved)),
            ("max_dim_gap", Value::F64(max_dim_gap)),
        ]
    }

    fn axes(&self) -> &'static [Axis] {
        const AXES: &[Axis] = &[
            Axis::new("n", "bins (default 2^14)"),
            Axis::new("k", "balls per placement request (default 2)"),
            Axis::new("d", "probes per placement request, d >= k (default 4)"),
            Axis::new(
                "shards",
                "lock-striped shards, power of two <= n (default 8)",
            ),
            Axis::new("threads", "concurrent client threads (default 4)"),
            Axis::new("requests", "placement requests per client (default 10000)"),
            Axis::new(
                "window",
                "live placements per client before the oldest is released; 0 = static (default 0)",
            ),
            Axis::new(
                "backend",
                "concurrency backend: striped | shared_nothing | lockfree (default striped)",
            ),
            Axis::new(
                "refresh",
                "shared_nothing snapshot republish period in mutations (default 1)",
            ),
            Axis::new(
                "store",
                "bin store: exact | packed4 | packed8 (default exact)",
            ),
            Axis::new(
                "dims",
                "demand-vector dimensionality, 1..=8 (default 1 = scalar; dims > 1 needs backend=striped store=exact)",
            ),
            Axis::new(
                "objective",
                "probe comparison key: scalar | max_norm | weighted | capacity (default scalar)",
            ),
            Axis::new(
                "demand",
                "request demand distribution: unit | uniform | correlated | anti (default unit)",
            ),
            Axis::new(
                "demand_max",
                "largest per-dimension demand of non-unit distributions (default 4)",
            ),
            Axis::new("seed", "master seed (default: --seed)"),
        ];
        AXES
    }

    fn config_from_params(&self, params: &Params) -> Result<Self::Config, GridError> {
        let backend = ServiceBackend::parse(params.get_raw("backend").unwrap_or("striped"))
            .ok_or_else(|| params.bad_value("backend", "striped | shared_nothing | lockfree"))?;
        let snapshot_refresh = params.get_usize("refresh", 1)?;
        if snapshot_refresh == 0 {
            return Err(params.bad_value("refresh", "a period of at least 1 mutation"));
        }
        let store = StoreKind::parse(params.get_raw("store").unwrap_or("exact"))
            .ok_or_else(|| params.bad_value("store", "exact | packed4 | packed8"))?;
        let dims = params.get_usize("dims", 1)?;
        if dims == 0 || dims > MAX_DIMS {
            return Err(params.bad_value("dims", &format!("1 <= dims <= {MAX_DIMS}")));
        }
        let objective =
            PlacementObjective::parse(params.get_raw("objective").unwrap_or("scalar"), dims)
                .ok_or_else(|| {
                    params.bad_value("objective", "scalar | max_norm | weighted | capacity")
                })?;
        let demand_max = params.get_u32("demand_max", 4)?;
        if demand_max == 0 {
            return Err(params.bad_value("demand_max", "a per-dimension demand of at least 1"));
        }
        let demand =
            DemandDistribution::parse(params.get_raw("demand").unwrap_or("unit"), demand_max)
                .map_err(|_| params.bad_value("demand", "unit | uniform | correlated | anti"))?;
        let bins = params.get_usize("n", 1 << 14)?;
        let config = ServiceWorkloadConfig {
            bins,
            k: params.get_usize("k", 2)?,
            d: params.get_usize("d", 4)?,
            shards: params.get_usize("shards", 8.min(prev_power_of_two(bins.max(1))))?,
            threads: params.get_usize("threads", 4)?,
            requests_per_thread: params.get_usize("requests", 10_000)?,
            window: params.get_usize("window", 0)?,
            backend,
            snapshot_refresh,
            store,
            dims,
            objective,
            demand,
            seed: params.get_u64("seed", 0)?,
        };
        config
            .validate()
            .map_err(|err| config_error(params, &err))?;
        if config.is_vector() {
            if backend != ServiceBackend::Striped {
                return Err(params.bad_value(
                    "backend",
                    "striped (vector loads run only on the striped backend)",
                ));
            }
            if store != StoreKind::Exact {
                return Err(params.bad_value("store", "exact (vector loads need the exact store)"));
            }
        }
        Ok(config)
    }

    fn smoke_grid(&self) -> GridSpec {
        GridSpec::parse_str(
            "n=2^10 k=2 d=4 shards=4 threads=1,2 requests=1500 window=0,32 backend=striped,shared_nothing,lockfree store=exact,packed4",
        )
        .expect("service smoke grid")
    }
}

/// The [`GridError`] for a config that `validate` rejected, on the grid
/// axis that sets the offending field.
pub(crate) fn config_error(params: &Params, err: &ConfigError) -> GridError {
    let field = match *err {
        ConfigError::ZeroK => "k",
        ConfigError::ZeroParameter(field)
        | ConfigError::ExceedsLimit { name: field, .. }
        | ConfigError::NotPowerOfTwo { name: field, .. }
        | ConfigError::OutOfRange { name: field, .. } => field,
        // `k > d`; a grid cannot build probes for another bin count.
        _ => "d",
    };
    let axis = match field {
        "bins" => "n",
        "max_batch" => "batch",
        "sample_every" => "sample",
        "snapshot_refresh" => "refresh",
        // The open-loop traffic fields (`TrafficConfig::validate`).
        "poisson arrival rate" | "on/off rate" => "lambda",
        "exponential lifetime mean" | "deterministic lifetime" => "mu",
        "service rate" => "rate",
        "burst period" | "burst size" | "on phase" | "on + off cycle" => "arrivals",
        axis => axis,
    };
    params.bad_value(axis, &format!("a valid config ({err})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_expt::{configs_from_grid, SweepReport, SweepRunner};

    #[test]
    fn grid_builds_configs_with_defaults_and_validation() {
        let grid = GridSpec::parse_str("threads=1,2,4 n=2^10 requests=100").unwrap();
        let configs = configs_from_grid(&ServiceScenario, &grid, 3).unwrap();
        assert_eq!(configs.len(), 3);
        assert_eq!(configs[2].threads, 4);
        assert_eq!(configs[0].bins, 1024);
        assert_eq!(configs[0].seed, 3);

        // Small non-power-of-two n: the shard default must round *down*
        // so the unspecified-shards config stays valid.
        for bins in [1usize, 3, 5, 6, 7, 100] {
            let grid = GridSpec::parse_str(&format!("n={bins} requests=1")).unwrap();
            let configs = configs_from_grid(&ServiceScenario, &grid, 0)
                .unwrap_or_else(|e| panic!("n={bins} must be accepted: {e}"));
            assert!(
                configs[0].shards.is_power_of_two() && configs[0].shards <= bins,
                "n={bins} got shards={}",
                configs[0].shards
            );
        }

        for bad in [
            "shards=3",
            "d=1 k=2",
            "threads=0",
            "n=0",
            "backend=psychic",
            "refresh=0",
            "store=psychic",
            "backend=shared_nothing threads=4 n=2",
            "dims=0",
            "dims=9",
            "objective=psychic",
            "demand=psychic",
            "demand_max=0",
            "dims=2 backend=shared_nothing",
            "dims=2 backend=lockfree",
            "dims=2 store=packed4",
            "demand=uniform store=packed8",
        ] {
            let grid = GridSpec::parse_str(bad).unwrap();
            assert!(
                configs_from_grid(&ServiceScenario, &grid, 0).is_err(),
                "{bad} should be rejected"
            );
        }
        let sketch = GridSpec::parse_str("store=sketch").unwrap();
        assert!(matches!(
            configs_from_grid(&ServiceScenario, &sketch, 0),
            Err(GridError::BadValue { ref expected, .. }) if expected == "exact | packed4 | packed8"
        ));
    }

    /// The `dims=` axis end to end: a vector cell parses, runs the
    /// vector workload, and reports one gap per dimension in JSON.
    #[test]
    fn vector_service_cell_runs_and_reports_dim_gaps() {
        let grid = GridSpec::parse_str(
            "n=2^8 shards=2 threads=2 requests=200 window=8 dims=2 objective=max_norm demand=uniform demand_max=3",
        )
        .unwrap();
        let configs = configs_from_grid(&ServiceScenario, &grid, 7).unwrap();
        assert!(configs[0].is_vector());
        let report = ServiceScenario.run(&configs[0], 7);
        assert!(report.conserved);
        assert_eq!(report.dim_gaps.len(), 2);
        let cells = SweepRunner::new()
            .with_threads(1)
            .run_scenario(&ServiceScenario, &configs, 1);
        let sweep = SweepReport::from_cells(&ServiceScenario, &configs, &cells);
        for line in sweep.to_jsonl().lines() {
            kdchoice_expt::validate_json(line).unwrap();
            assert!(line.contains("\"max_dim_gap\""));
            assert!(line.contains("\"dims\": 2"));
        }
    }

    #[test]
    fn smoke_grid_runs_and_renders_valid_json() {
        let scenario = ServiceScenario;
        let grid = GridSpec::parse_str("n=2^8 shards=2 threads=2 requests=300 window=8").unwrap();
        let configs = configs_from_grid(&scenario, &grid, 1).unwrap();
        let cells = SweepRunner::new()
            .with_threads(1)
            .run_scenario(&scenario, &configs, 2);
        let report = SweepReport::from_cells(&scenario, &configs, &cells);
        assert_eq!(report.rows.len(), 2);
        for line in report.to_jsonl().lines() {
            kdchoice_expt::validate_json(line).unwrap();
            assert!(line.contains("\"scenario\": \"service\""));
            assert!(line.contains("\"conserved\": true"));
        }
    }
}
