//! The open-loop dynamic traffic workload as a
//! [`kdchoice_expt::Scenario`] named `open_loop`.

use kdchoice_core::{two_tier_capacities, ProbeDistribution, StoreKind};
use kdchoice_expt::{Axis, Fields, GridError, GridSpec, Params, Scenario, Value};

use crate::engine::ServiceBackend;
use crate::pipeline::{run_open_loop, OpenLoopConfig, OpenLoopReport};
use crate::scenario::config_error;
use crate::service::prev_power_of_two;
use crate::traffic::{ArrivalProcess, Lifetime, TrafficConfig};

/// The open-loop traffic experiment family: Poisson (or burst / on-off)
/// arrivals and exponential (or deterministic) ball lifetimes on a
/// virtual clock, committed at a bounded service rate through the
/// batched placement pipeline (`batch=1`: per request), reporting queueing
/// latency quantiles in ticks alongside the usual load observables.
///
/// **Determinism caveat** (same shape as the `service` scenario): the
/// arrival/commit/departure event stream and every latency statistic
/// are pure functions of `(config, seed)` at *any* thread count; the
/// final load shape is additionally exact at `threads=1` and
/// interleaving-dependent above. Conservation and shard invariants are
/// re-checked on every run (`conserved` column).
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenLoopScenario;

impl Scenario for OpenLoopScenario {
    type Config = OpenLoopConfig;
    type Record = OpenLoopReport;

    fn name(&self) -> &'static str {
        "open_loop"
    }

    fn description(&self) -> &'static str {
        "open-loop traffic: Poisson/burst arrivals + ball lifetimes on a virtual clock, batched placement pipeline, latency in ticks"
    }

    fn run(&self, config: &Self::Config, seed: u64) -> OpenLoopReport {
        let mut config = config.clone();
        config.seed = seed;
        config.record_events = false;
        run_open_loop(&config)
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
            ("backend", Value::Str(config.backend.name().into())),
            ("refresh", Value::U64(config.snapshot_refresh as u64)),
            ("store", Value::Str(config.store.name().into())),
            ("batch", Value::U64(config.max_batch as u64)),
            ("lambda", Value::F64(config.traffic.lambda_factor())),
            ("mu", Value::F64(config.traffic.lifetime.mean_ticks())),
            ("rate", Value::U64(u64::from(config.traffic.service_rate))),
            ("ticks", Value::U64(u64::from(config.traffic.ticks))),
            (
                "skew",
                Value::Str(config.probes.label().into_owned().into()),
            ),
            (
                "caps",
                Value::Str(if config.capacities.is_some() {
                    "two_tier".into()
                } else {
                    "one".into()
                }),
            ),
        ]
    }

    fn record_fields(&self, record: &Self::Record) -> Fields {
        vec![
            ("arrived", Value::U64(record.requests_arrived)),
            ("committed", Value::U64(record.requests_committed)),
            ("backlog", Value::U64(record.backlog)),
            ("balls_placed", Value::U64(record.balls_placed)),
            ("balls_released", Value::U64(record.balls_released)),
            ("live_balls", Value::U64(record.live_balls)),
            ("latency_p50", Value::F64(record.latency_p50)),
            ("latency_p99", Value::F64(record.latency_p99)),
            ("latency_mean", Value::F64(record.latency_mean)),
            ("latency_max", Value::U64(u64::from(record.latency_max))),
            ("peak_live_balls", Value::U64(record.peak_live_balls)),
            ("peak_max_load", Value::U64(u64::from(record.peak_max_load))),
            ("max_load", Value::U64(u64::from(record.final_max_load))),
            ("gap", Value::F64(record.final_gap)),
            ("util_gap", Value::F64(record.final_util_gap)),
            ("steady_gap", Value::F64(record.steady_gap_mean)),
            ("balls_per_sec", Value::F64(record.balls_per_sec)),
            ("conserved", Value::Bool(record.conserved)),
        ]
    }

    fn axes(&self) -> &'static [Axis] {
        const AXES: &[Axis] = &[
            Axis::new("n", "bins (default 2^12)"),
            Axis::new("k", "balls per placement request (default 2)"),
            Axis::new("d", "probes per placement request, d >= k (default 4)"),
            Axis::new(
                "shards",
                "lock-striped shards, power of two <= n (default 16, capped)",
            ),
            Axis::new("threads", "pipeline worker threads (default 4)"),
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
                "batch",
                "max requests per striped lock round, 1 = per request (default 64)",
            ),
            Axis::new(
                "lambda",
                "offered load as a fraction of the service rate (default 0.9)",
            ),
            Axis::new("mu", "mean ball lifetime in ticks (default 64)"),
            Axis::new(
                "life",
                "lifetime distribution: exp | det (default exp, mean mu)",
            ),
            Axis::new(
                "rate",
                "service rate, commits/tick (default n / (k * mu), the churn capacity)",
            ),
            Axis::new(
                "arrivals",
                "arrival process: poisson | burst | onoff (default poisson; same mean rate)",
            ),
            Axis::new("ticks", "virtual clock length (default 1000)"),
            Axis::new("sample", "time-series sampling stride in ticks (default 1)"),
            Axis::new(
                "skew",
                "probe skew: uniform | zipf (Zipf(s) weighted probing; default uniform)",
            ),
            Axis::new("s", "zipf exponent, skew=zipf only (default 1.0)"),
            Axis::new(
                "caps",
                "capacity spread: one | two_tier (every 10th bin 10x; default one)",
            ),
            Axis::new("seed", "master seed (default: --seed)"),
        ];
        AXES
    }

    fn config_from_params(&self, params: &Params) -> Result<Self::Config, GridError> {
        let bins = params.get_usize("n", 1 << 12)?;
        let k = params.get_usize("k", 2)?;
        let backend = ServiceBackend::parse(params.get_raw("backend").unwrap_or("striped"))
            .ok_or_else(|| params.bad_value("backend", "striped | shared_nothing | lockfree"))?;
        let snapshot_refresh = params.get_usize("refresh", 1)?;
        if snapshot_refresh == 0 {
            return Err(params.bad_value("refresh", "a period of at least 1 mutation"));
        }
        let lambda = params.get_f64("lambda", 0.9)?;
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(params.bad_value("lambda", "a positive offered-load factor"));
        }
        let mu = params.get_f64("mu", 64.0)?;
        if !(mu.is_finite() && mu >= 1.0) {
            return Err(params.bad_value("mu", "a mean lifetime of at least 1 tick"));
        }
        let lifetime = match params.get_raw("life").unwrap_or("exp") {
            "exp" => Lifetime::Exponential { mean: mu },
            "det" => Lifetime::Deterministic {
                ticks: mu.round() as u32,
            },
            _ => return Err(params.bad_value("life", "exp | det")),
        };
        // Normalize capacity against the lifetime actually simulated
        // (det rounds mu to whole ticks), not the raw mu axis value.
        let capacity = u64::from(crate::pipeline::churn_capacity(
            bins,
            k,
            lifetime.mean_ticks(),
        ));
        let rate = params.get_u64("rate", capacity)?;
        let service_rate =
            u32::try_from(rate).map_err(|_| params.bad_value("rate", "a rate fitting u32"))?;
        if service_rate == 0 {
            return Err(params.bad_value("rate", "at least one commit per tick"));
        }
        let mean_rate = lambda * service_rate as f64;
        let arrivals = match params.get_raw("arrivals").unwrap_or("poisson") {
            "poisson" => ArrivalProcess::Poisson { rate: mean_rate },
            // Same mean rate, concentrated into one burst every 16 ticks.
            "burst" => ArrivalProcess::Burst {
                period: 16,
                size: ((mean_rate * 16.0).round() as u64).max(1),
            },
            // Same mean rate, on for a quarter of each 64-tick cycle.
            "onoff" => ArrivalProcess::OnOff {
                rate: mean_rate * 4.0,
                on: 16,
                off: 48,
            },
            _ => return Err(params.bad_value("arrivals", "poisson | burst | onoff")),
        };
        let ticks = params.get_u32("ticks", 1000)?;
        if ticks == 0 {
            return Err(params.bad_value("ticks", "at least one tick"));
        }
        let s = params.get_f64("s", 1.0)?;
        if !(s.is_finite() && s >= 0.0) {
            return Err(params.bad_value("s", "a finite zipf exponent >= 0"));
        }
        let store = StoreKind::parse(params.get_raw("store").unwrap_or("exact"))
            .ok_or_else(|| params.bad_value("store", "exact | packed4 | packed8"))?;
        let mut config = OpenLoopConfig {
            bins,
            k,
            d: params.get_usize("d", 4)?,
            shards: params.get_usize("shards", 16.min(prev_power_of_two(bins.max(1))))?,
            threads: params.get_usize("threads", 4)?,
            backend,
            snapshot_refresh,
            store,
            max_batch: params.get_usize("batch", 64)?,
            traffic: TrafficConfig {
                arrivals,
                lifetime,
                ticks,
                service_rate,
            },
            probes: ProbeDistribution::Uniform, // with capacities, set below for valid bins
            capacities: None,
            sample_every: params.get_u32("sample", 1)?,
            record_events: false,
            seed: params.get_u64("seed", 0)?,
        };
        config
            .validate()
            .map_err(|err| config_error(params, &err))?;
        config.probes = match params.get_raw("skew").unwrap_or("uniform") {
            "uniform" => ProbeDistribution::Uniform,
            "zipf" => ProbeDistribution::zipf(bins, s)
                .map_err(|_| params.bad_value("s", "a valid zipf exponent"))?,
            _ => return Err(params.bad_value("skew", "uniform | zipf")),
        };
        config.capacities = match params.get_raw("caps").unwrap_or("one") {
            "one" => None,
            "two_tier" => Some(two_tier_capacities(bins, 10, 10)),
            _ => return Err(params.bad_value("caps", "one | two_tier")),
        };
        Ok(config)
    }

    fn smoke_grid(&self) -> GridSpec {
        GridSpec::parse_str(
            "n=2^8 shards=4 threads=1,2 batch=1,64 backend=striped,shared_nothing,lockfree store=exact,packed4 lambda=0.9,1.3 mu=16 ticks=160 arrivals=poisson,burst sample=8",
        )
        .expect("open_loop smoke grid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_expt::{configs_from_grid, SweepReport, SweepRunner};

    #[test]
    fn grid_builds_configs_with_defaults_and_validation() {
        let grid = GridSpec::parse_str("lambda=0.5,1.2 threads=2 ticks=100").unwrap();
        let configs = configs_from_grid(&OpenLoopScenario, &grid, 9).unwrap();
        assert_eq!(configs.len(), 2);
        assert_eq!(configs[0].bins, 1 << 12);
        assert_eq!(configs[0].max_batch, 64);
        assert_eq!(configs[0].seed, 9);
        // capacity = 4096 / (2 * 64) = 32 commits/tick.
        assert_eq!(configs[0].traffic.service_rate, 32);
        assert!((configs[1].traffic.lambda_factor() - 1.2).abs() < 1e-9);

        for bad in [
            "lambda=0",
            "lambda=-1",
            "mu=0.5",
            "life=weird",
            "rate=0",
            "arrivals=never",
            "ticks=0",
            "sample=0",
            "batch=0",
            "threads=0",
            "d=1 k=2",
            "shards=3",
            "n=0",
            "skew=psychic",
            "s=-1",
            "caps=lumpy",
            "backend=psychic",
            "refresh=0",
            "store=psychic",
            "backend=shared_nothing threads=4 n=2",
        ] {
            let grid = GridSpec::parse_str(bad).unwrap();
            assert!(
                configs_from_grid(&OpenLoopScenario, &grid, 0).is_err(),
                "{bad} should be rejected"
            );
        }
        // The batching knob is `batch=`; `mode=` is not an axis.
        let mode = GridSpec::parse_str("mode=per_request").unwrap();
        assert!(matches!(
            configs_from_grid(&OpenLoopScenario, &mode, 0),
            Err(GridError::UnknownAxis { .. })
        ));
        let sketch = GridSpec::parse_str("store=sketch").unwrap();
        assert!(matches!(
            configs_from_grid(&OpenLoopScenario, &sketch, 0),
            Err(GridError::BadValue { ref expected, .. }) if expected == "exact | packed4 | packed8"
        ));
    }

    /// A trace the grid builds but `TrafficConfig::validate` rejects is a
    /// grid error on the axis that set it, not a panic in the run.
    #[test]
    fn an_infinite_arrival_rate_is_a_lambda_error() {
        for spec in ["lambda=1e308", "arrivals=onoff lambda=1e307"] {
            let grid = GridSpec::parse_str(spec).unwrap();
            match configs_from_grid(&OpenLoopScenario, &grid, 0) {
                Err(GridError::BadValue { axis, .. }) => assert_eq!(axis, "lambda", "{spec}"),
                other => panic!("{spec}: expected a lambda error, got {other:?}"),
            }
        }
    }

    #[test]
    fn hetero_axes_build_weighted_configs() {
        let grid = GridSpec::parse_str("skew=zipf s=1.5 caps=two_tier n=2^7 ticks=80").unwrap();
        let cfg = &configs_from_grid(&OpenLoopScenario, &grid, 2).unwrap()[0];
        assert!(!cfg.probes.is_uniform());
        assert_eq!(cfg.probes.expected_n(), Some(128));
        let caps = cfg.capacities.as_ref().unwrap();
        assert_eq!(caps.len(), 128);
        assert_eq!(caps.iter().filter(|&&c| c == 10).count(), 13);
        let report = run_open_loop(cfg);
        assert!(report.conserved);
        assert_eq!(report.total_capacity, 115 + 13 * 10);
    }

    #[test]
    fn alternative_processes_preserve_the_mean_rate() {
        for spec in ["arrivals=burst", "arrivals=onoff", "life=det"] {
            let grid = GridSpec::parse_str(&format!("{spec} lambda=1.0 ticks=64")).unwrap();
            let cfg = &configs_from_grid(&OpenLoopScenario, &grid, 0).unwrap()[0];
            let factor = cfg.traffic.lambda_factor();
            assert!(
                (factor - 1.0).abs() < 0.05,
                "{spec}: lambda factor {factor}"
            );
        }
    }

    #[test]
    fn smoke_grid_runs_and_renders_valid_json() {
        let scenario = OpenLoopScenario;
        let grid =
            GridSpec::parse_str("n=2^7 shards=2 threads=2 lambda=1.1 mu=8 ticks=80 sample=8")
                .unwrap();
        let configs = configs_from_grid(&scenario, &grid, 1).unwrap();
        let cells = SweepRunner::new()
            .with_threads(1)
            .run_scenario(&scenario, &configs, 2);
        let report = SweepReport::from_cells(&scenario, &configs, &cells);
        assert_eq!(report.rows.len(), 2);
        for line in report.to_jsonl().lines() {
            kdchoice_expt::validate_json(line).unwrap();
            assert!(line.contains("\"scenario\": \"open_loop\""));
            assert!(line.contains("\"conserved\": true"));
            assert!(line.contains("\"latency_p99\""));
        }
    }
}
