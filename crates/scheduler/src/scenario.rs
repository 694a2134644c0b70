//! The cluster-scheduling simulation as a [`kdchoice_expt::Scenario`]
//! named `scheduler`.
//!
//! Replaces the bespoke serial loops the experiment binaries used to
//! carry: a grid of `(workers, k, utilization, strategy, ...)` cells runs
//! through the shared work-stealing `SweepRunner`, each cell a
//! deterministic [`simulate`] call.

use kdchoice_core::{two_tier_capacities, PlacementObjective, MAX_DIMS};
use kdchoice_expt::{Axis, Fields, GridError, GridSpec, Params, Scenario, Value};
use kdchoice_prng::demand::DemandDistribution;

use crate::{
    simulate, simulate_vector, ClusterConfig, PlacementStrategy, SchedulerReport,
    ServiceDistribution, VectorJobProfile,
};

/// Config of one scheduling cell: the cluster shape, the placement
/// strategy under test, and the (possibly degenerate) multidimensional
/// job profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerExperiment {
    /// The cluster and workload shape (embeds the master seed).
    pub cluster: ClusterConfig,
    /// The probing strategy under test.
    pub strategy: PlacementStrategy,
    /// The demand-vector model; [`VectorJobProfile::scalar`] selects the
    /// classic scalar simulation.
    pub profile: VectorJobProfile,
}

/// The §1.3 cluster-scheduling experiment family.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerScenario;

impl Scenario for SchedulerScenario {
    type Config = SchedulerExperiment;
    type Record = SchedulerReport;

    fn name(&self) -> &'static str {
        "scheduler"
    }

    fn description(&self) -> &'static str {
        "cluster job scheduling: k parallel tasks per job, pluggable probing (section 1.3)"
    }

    fn run(&self, config: &Self::Config, seed: u64) -> SchedulerReport {
        let mut cluster = config.cluster.clone();
        cluster.seed = seed;
        if config.profile.is_vector() {
            simulate_vector(&cluster, config.strategy, &config.profile)
        } else {
            simulate(&cluster, config.strategy)
        }
    }

    fn base_seed(&self, config: &Self::Config) -> u64 {
        config.cluster.seed
    }

    fn config_fields(&self, config: &Self::Config) -> Fields {
        vec![
            ("workers", Value::U64(config.cluster.workers as u64)),
            ("k", Value::U64(config.cluster.tasks_per_job as u64)),
            ("jobs", Value::U64(config.cluster.jobs as u64)),
            ("utilization", Value::F64(config.cluster.utilization())),
            ("batch", Value::U64(config.cluster.scheduler_batch as u64)),
            ("strategy", Value::Str(config.strategy.name())),
            ("dims", Value::U64(config.profile.dims as u64)),
            (
                "objective",
                Value::Str(config.profile.objective.name().into()),
            ),
            ("demand", Value::Str(config.profile.demand.name().into())),
            (
                "caps",
                Value::Str(
                    if config.profile.worker_capacities.is_some() {
                        "two_tier"
                    } else {
                        "none"
                    }
                    .into(),
                ),
            ),
        ]
    }

    fn record_fields(&self, record: &Self::Record) -> Fields {
        let max_dim_gap = record.dim_gaps.iter().cloned().fold(0.0f64, f64::max);
        vec![
            ("jobs_measured", Value::U64(record.jobs_measured as u64)),
            ("mean_response", Value::F64(record.response.mean())),
            ("p50_response", Value::F64(record.response_percentiles[0])),
            ("p90_response", Value::F64(record.response_percentiles[1])),
            ("p99_response", Value::F64(record.response_percentiles[2])),
            ("probe_messages", Value::U64(record.probe_messages)),
            ("probes_per_job", Value::F64(record.probes_per_job)),
            ("mean_outstanding", Value::F64(record.mean_outstanding)),
            ("max_queue_len", Value::U64(u64::from(record.max_queue_len))),
            ("max_dim_gap", Value::F64(max_dim_gap)),
        ]
    }

    fn axes(&self) -> &'static [Axis] {
        const AXES: &[Axis] = &[
            Axis::new("workers", "worker machines (default 64)"),
            Axis::new("k", "tasks per job (default 4)"),
            Axis::new("jobs", "jobs to run (default 2000)"),
            Axis::new("rho", "offered load in (0,1) (default 0.8)"),
            Axis::new(
                "strategy",
                "random | per-task | batch | kd | late (default kd)",
            ),
            Axis::new(
                "d",
                "probe parameter: per-task d / probes-per-task / total kd probes (default k+1 for kd, 2 otherwise)",
            ),
            Axis::new("batch", "jobs sharing one probe snapshot (default 1)"),
            Axis::new("service", "service distribution: exp | det (default exp, mean 1)"),
            Axis::new(
                "dims",
                "job demand-vector dimensionality, 1..=8 (default 1 = scalar)",
            ),
            Axis::new(
                "objective",
                "probe comparison key: scalar | max_norm | weighted | capacity (default scalar)",
            ),
            Axis::new(
                "demand",
                "job demand distribution: unit | uniform | correlated | anti (default unit)",
            ),
            Axis::new(
                "demand_max",
                "largest per-dimension demand of non-unit distributions (default 4)",
            ),
            Axis::new(
                "caps",
                "worker capacities: none | two_tier (default none; two_tier = every 4th worker 4x)",
            ),
            Axis::new("seed", "master seed (default: --seed)"),
        ];
        AXES
    }

    fn config_from_params(&self, params: &Params) -> Result<Self::Config, GridError> {
        let workers = params.get_usize("workers", 64)?;
        let k = params.get_usize("k", 4)?;
        let jobs = params.get_usize("jobs", 2000)?;
        if workers == 0 || k == 0 || jobs == 0 {
            return Err(params.bad_value("workers", "workers, k, and jobs all >= 1"));
        }
        let rho = params.get_f64("rho", 0.8)?;
        if !(rho > 0.0 && rho < 1.0) {
            return Err(params.bad_value("rho", "a utilization in (0,1)"));
        }
        let strategy = match params.get_raw("strategy").unwrap_or("kd") {
            "random" => PlacementStrategy::Random,
            "per-task" => PlacementStrategy::PerTaskDChoice {
                d: params.get_usize("d", 2)?,
            },
            "batch" => PlacementStrategy::BatchSampling {
                probes_per_task: params.get_usize("d", 2)?,
            },
            "kd" => {
                let d = params.get_usize("d", k + 1)?;
                if d < k {
                    return Err(params.bad_value("d", &format!("d >= k for kd (k={k})")));
                }
                PlacementStrategy::KdChoice { d }
            }
            "late" => PlacementStrategy::LateBinding {
                probes_per_task: params.get_usize("d", 2)?,
            },
            _ => return Err(params.bad_value("strategy", "random | per-task | batch | kd | late")),
        };
        let service = match params.get_raw("service").unwrap_or("exp") {
            "exp" => ServiceDistribution::Exponential { mean: 1.0 },
            "det" => ServiceDistribution::Deterministic { value: 1.0 },
            _ => return Err(params.bad_value("service", "exp | det")),
        };
        let batch = params.get_usize("batch", 1)?;
        if batch == 0 {
            return Err(params.bad_value("batch", "at least 1"));
        }
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
        let worker_capacities = match params.get_raw("caps").unwrap_or("none") {
            "none" => None,
            "two_tier" => Some(two_tier_capacities(workers, 4, 4)),
            _ => return Err(params.bad_value("caps", "none | two_tier")),
        };
        let profile = VectorJobProfile {
            dims,
            objective,
            demand,
            worker_capacities,
        };
        let seed = params.get_u64("seed", 0)?;
        let cluster = ClusterConfig::new(workers, k, jobs, seed)
            .with_service(service)
            .with_utilization(rho)
            .with_scheduler_batch(batch);
        Ok(SchedulerExperiment {
            cluster,
            strategy,
            profile,
        })
    }

    fn smoke_grid(&self) -> GridSpec {
        GridSpec::parse_str(
            "workers=16 k=2 jobs=120 rho=0.6 strategy=kd,batch dims=1,2 objective=max_norm",
        )
        .expect("scheduler smoke grid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_expt::{configs_from_grid, SweepReport, SweepRunner};
    use kdchoice_prng::derive_seed;

    #[test]
    fn scheduler_sweep_is_bit_identical_to_serial_simulate() {
        // Acceptance criterion: the parallel sweep path reproduces the
        // pre-refactor serial `simulate` loop bit for bit per seed.
        let grid =
            GridSpec::parse_str("workers=32 k=4 jobs=300 rho=0.7 strategy=kd,batch,random d=5")
                .unwrap();
        let configs = configs_from_grid(&SchedulerScenario, &grid, 21).unwrap();
        assert_eq!(configs.len(), 3);
        let cells = SweepRunner::new().run_scenario(&SchedulerScenario, &configs, 3);
        for (cell, config) in cells.iter().zip(&configs) {
            for run in &cell.runs {
                let mut serial_cfg = config.cluster.clone();
                serial_cfg.seed = derive_seed(config.cluster.seed, run.trial as u64);
                let serial = simulate(&serial_cfg, config.strategy);
                assert_eq!(run.record.strategy, serial.strategy);
                assert_eq!(run.record.jobs_measured, serial.jobs_measured);
                assert_eq!(run.record.response.mean(), serial.response.mean());
                assert_eq!(run.record.response_percentiles, serial.response_percentiles);
                assert_eq!(run.record.probe_messages, serial.probe_messages);
                assert_eq!(run.record.mean_outstanding, serial.mean_outstanding);
                assert_eq!(run.record.max_queue_len, serial.max_queue_len);
            }
        }
    }

    #[test]
    fn grid_parses_every_strategy() {
        for (name, expect) in [
            ("random", PlacementStrategy::Random),
            ("per-task", PlacementStrategy::PerTaskDChoice { d: 3 }),
            (
                "batch",
                PlacementStrategy::BatchSampling { probes_per_task: 3 },
            ),
            ("kd", PlacementStrategy::KdChoice { d: 3 }),
            (
                "late",
                PlacementStrategy::LateBinding { probes_per_task: 3 },
            ),
        ] {
            let grid = GridSpec::parse_str(&format!("k=2 strategy={name} d=3")).unwrap();
            let configs = configs_from_grid(&SchedulerScenario, &grid, 0).unwrap();
            assert_eq!(configs[0].strategy, expect, "{name}");
        }
        let bad = GridSpec::parse_str("strategy=psychic").unwrap();
        assert!(configs_from_grid(&SchedulerScenario, &bad, 0).is_err());
        let unstable = GridSpec::parse_str("rho=1.5").unwrap();
        assert!(configs_from_grid(&SchedulerScenario, &unstable, 0).is_err());
    }

    #[test]
    fn vector_axes_parse_and_validate() {
        let grid = GridSpec::parse_str(
            "workers=16 k=2 jobs=100 rho=0.5 dims=2 objective=max_norm demand=anti caps=two_tier",
        )
        .unwrap();
        let configs = configs_from_grid(&SchedulerScenario, &grid, 0).unwrap();
        assert!(configs[0].profile.is_vector());
        assert_eq!(configs[0].profile.dims, 2);
        assert_eq!(
            configs[0].profile.worker_capacities.as_deref(),
            Some(&kdchoice_core::two_tier_capacities(16, 4, 4)[..])
        );

        // Defaults stay on the scalar path.
        let plain = GridSpec::parse_str("workers=16 k=2 jobs=100 rho=0.5").unwrap();
        let configs = configs_from_grid(&SchedulerScenario, &plain, 0).unwrap();
        assert!(!configs[0].profile.is_vector());

        for bad in [
            "dims=0",
            "dims=9",
            "objective=psychic",
            "demand=psychic",
            "demand_max=0",
            "caps=psychic",
        ] {
            let grid = GridSpec::parse_str(bad).unwrap();
            assert!(
                configs_from_grid(&SchedulerScenario, &grid, 0).is_err(),
                "{bad} should be rejected"
            );
        }

        // Late binding composes with the vector axes now that it has an
        // event-driven vector path.
        let late = GridSpec::parse_str(
            "workers=16 k=2 jobs=100 rho=0.5 dims=2 objective=max_norm strategy=late",
        )
        .unwrap();
        let configs = configs_from_grid(&SchedulerScenario, &late, 0).unwrap();
        assert!(configs[0].profile.is_vector());
        assert_eq!(
            configs[0].strategy,
            PlacementStrategy::LateBinding { probes_per_task: 2 }
        );
    }

    /// The smoke grid's vector rows end to end: parse, run, and render
    /// per-dimension gap observables in JSON.
    #[test]
    fn vector_cells_run_and_report_max_dim_gap() {
        let grid = GridSpec::parse_str(
            "workers=16 k=2 jobs=150 rho=0.6 strategy=kd dims=2 objective=max_norm demand=uniform",
        )
        .unwrap();
        let configs = configs_from_grid(&SchedulerScenario, &grid, 5).unwrap();
        let cells =
            SweepRunner::new()
                .with_threads(1)
                .run_scenario(&SchedulerScenario, &configs, 2);
        let report = SweepReport::from_cells(&SchedulerScenario, &configs, &cells);
        assert_eq!(report.rows.len(), 2);
        for line in report.to_jsonl().lines() {
            kdchoice_expt::validate_json(line).unwrap();
            assert!(line.contains("\"dims\": 2"));
            assert!(line.contains("\"objective\": \"max_norm\""));
            assert!(line.contains("\"max_dim_gap\""));
        }
    }

    #[test]
    fn report_fields_render_valid_json() {
        let grid = GridSpec::parse_str("workers=16 k=2 jobs=100 rho=0.5").unwrap();
        let configs = configs_from_grid(&SchedulerScenario, &grid, 1).unwrap();
        let cells = SweepRunner::new().run_scenario(&SchedulerScenario, &configs, 2);
        let report = SweepReport::from_cells(&SchedulerScenario, &configs, &cells);
        assert_eq!(report.rows.len(), 2);
        for line in report.to_jsonl().lines() {
            kdchoice_expt::validate_json(line).unwrap();
            assert!(line.contains("\"scenario\": \"scheduler\""));
            assert!(line.contains("\"p99_response\""));
        }
    }
}
