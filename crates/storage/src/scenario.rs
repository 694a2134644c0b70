//! The create/read/fail storage workload as a
//! [`kdchoice_expt::Scenario`] named `storage`.

use kdchoice_expt::{Axis, Fields, GridError, GridSpec, Params, Scenario, Value};

use crate::chunk_cluster::ClusterConfig;
use crate::cluster_workload::{
    run_cluster_workload, ClusterReport, ClusterWorkloadConfig, WorkloadConfig,
};
use crate::placement::PlacementPolicy;

/// The §1.3 distributed-storage experiment family. The config is the
/// crate's [`WorkloadConfig`] unchanged — the master seed lives inside
/// it, and the runner overrides it per trial. Each trial runs
/// [`ClusterWorkloadConfig::legacy_compat`] of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageScenario;

impl Scenario for StorageScenario {
    type Config = WorkloadConfig;
    type Record = ClusterReport;

    fn name(&self) -> &'static str {
        "storage"
    }

    fn description(&self) -> &'static str {
        "distributed storage: chunk placement, Zipf reads, failure recovery (section 1.3)"
    }

    fn run(&self, config: &Self::Config, seed: u64) -> ClusterReport {
        run_cluster_workload(&ClusterWorkloadConfig::legacy_compat(config).with_seed(seed))
    }

    fn base_seed(&self, config: &Self::Config) -> u64 {
        config.seed
    }

    fn config_fields(&self, config: &Self::Config) -> Fields {
        vec![
            ("servers", Value::U64(config.servers as u64)),
            ("k", Value::U64(config.chunks_per_file as u64)),
            ("policy", Value::Str(config.policy.name())),
            ("files", Value::U64(config.files as u64)),
            ("reads", Value::U64(config.reads as u64)),
            ("zipf", Value::F64(config.zipf_exponent)),
            ("failures", Value::U64(config.failures as u64)),
        ]
    }

    fn record_fields(&self, record: &Self::Record) -> Fields {
        let s = &record.stats;
        vec![
            ("alive_servers", Value::U64(s.alive_servers as u64)),
            ("total_chunks", Value::U64(s.total_chunks)),
            ("max_load", Value::U64(u64::from(s.max_load))),
            ("mean_load", Value::F64(s.mean_load)),
            ("imbalance", Value::F64(s.imbalance)),
            ("p50_load", Value::F64(record.load_percentiles[0])),
            ("p90_load", Value::F64(record.load_percentiles[1])),
            ("p99_load", Value::F64(record.load_percentiles[2])),
            ("placement_messages", Value::U64(s.placement_messages)),
            ("read_messages", Value::U64(s.read_messages)),
            (
                "create_cost_per_file",
                Value::F64(record.create_cost_per_file),
            ),
            ("read_cost_per_op", Value::F64(record.read_cost_per_op)),
            ("recovered_chunks", Value::U64(s.recovered_chunks)),
            ("recovery_messages", Value::U64(s.recovery_messages)),
        ]
    }

    fn axes(&self) -> &'static [Axis] {
        const AXES: &[Axis] = &[
            Axis::new("servers", "storage servers (default 100)"),
            Axis::new("k", "chunks/replicas per file (default 4)"),
            Axis::new("policy", "kd | two-choice | random (default kd)"),
            Axis::new("d", "probes per file creation for kd (default 2k)"),
            Axis::new("files", "files to create (default servers*10)"),
            Axis::new("reads", "Zipf-popular reads to issue (default servers*20)"),
            Axis::new("zipf", "read popularity exponent (default 0.9)"),
            Axis::new("failures", "servers failed mid-create (default 0)"),
            Axis::new("seed", "master seed (default: --seed)"),
        ];
        AXES
    }

    fn config_from_params(&self, params: &Params) -> Result<Self::Config, GridError> {
        let servers = params.get_usize("servers", 100)?;
        let k = params.get_usize("k", 4)?;
        if servers == 0 || k == 0 {
            return Err(params.bad_value("servers", "servers and k both >= 1"));
        }
        let policy = match params.get_raw("policy").unwrap_or("kd") {
            "kd" => {
                let d = params.get_usize("d", 2 * k)?;
                if d < k {
                    return Err(params.bad_value("d", &format!("d >= k (k={k})")));
                }
                PlacementPolicy::KdChoice { d }
            }
            "two-choice" => PlacementPolicy::PerChunkTwoChoice,
            "random" => PlacementPolicy::Random,
            _ => return Err(params.bad_value("policy", "kd | two-choice | random")),
        };
        let mut config = WorkloadConfig::new(servers, k, policy);
        config.files = params.get_usize("files", config.files)?;
        config.reads = params.get_usize("reads", config.reads)?;
        config.zipf_exponent = params.get_f64("zipf", config.zipf_exponent)?;
        config.failures = params.get_usize("failures", 0)?;
        if config.failures >= servers {
            return Err(params.bad_value("failures", "fewer failures than servers"));
        }
        config.seed = params.get_u64("seed", 0)?;
        Ok(config)
    }

    fn smoke_grid(&self) -> GridSpec {
        GridSpec::parse_str("servers=20 k=2 files=100 reads=50 policy=kd,random failures=1")
            .expect("storage smoke grid")
    }

    fn throughput_unit(&self) -> &'static str {
        "ops/sec"
    }
}

/// The fault-injected replicated cluster experiment family, named
/// `cluster`: heartbeat failure detection, declarative fault plans, and
/// bounded-rate re-replication on top of the same (k,d)-choice placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterScenario;

impl ClusterScenario {
    /// Builds the fault plan selected by the `fault` axis.
    fn build_plan(
        kind: &str,
        failures: usize,
        down_ticks: u64,
        files: usize,
        params: &Params,
    ) -> Result<crate::FaultPlan, GridError> {
        use crate::{FaultEvent, FaultPlan};
        let span = (files as u64).max(2);
        match kind {
            "none" => Ok(FaultPlan::new()),
            "single" => {
                let mut plan = FaultPlan::new().at((span / 2).max(1), FaultEvent::CrashRandom);
                if down_ticks > 0 {
                    plan.push((span / 2).max(1) + down_ticks, FaultEvent::RecoverOldest);
                }
                Ok(plan)
            }
            "storm" => Ok(FaultPlan::new().storm(failures, span)),
            "rack" => {
                Ok(FaultPlan::new().at((span / 2).max(1), FaultEvent::RackOutage { rack: 0 }))
            }
            "churn" => {
                let mut plan = FaultPlan::new();
                for i in 0..failures {
                    let tick = ((i as u64 + 1) * span / (failures as u64 + 1)).max(1);
                    plan.push(tick, FaultEvent::CrashRandom);
                    plan.push(tick + down_ticks.max(1), FaultEvent::RecoverOldest);
                }
                Ok(plan)
            }
            _ => Err(params.bad_value("fault", "none | single | storm | rack | churn")),
        }
    }
}

impl Scenario for ClusterScenario {
    type Config = ClusterWorkloadConfig;
    type Record = ClusterReport;

    fn name(&self) -> &'static str {
        "cluster"
    }

    fn description(&self) -> &'static str {
        "fault-injected replicated cluster: heartbeat detection, bounded-rate re-replication, degradation metrics"
    }

    fn run(&self, config: &Self::Config, seed: u64) -> ClusterReport {
        run_cluster_workload(&config.clone().with_seed(seed))
    }

    fn base_seed(&self, config: &Self::Config) -> u64 {
        config.seed
    }

    fn config_fields(&self, config: &Self::Config) -> Fields {
        let c = &config.cluster;
        vec![
            ("servers", Value::U64(c.servers as u64)),
            ("racks", Value::U64(c.racks as u64)),
            ("k", Value::U64(c.replicas as u64)),
            ("policy", Value::Str(c.policy.name())),
            ("discipline", Value::Str(c.discipline.name().into())),
            ("hb_period", Value::U64(u64::from(c.heartbeat.period))),
            (
                "hb_timeout",
                Value::U64(u64::from(c.heartbeat.timeout_beats)),
            ),
            ("budget", Value::U64(u64::from(c.recovery.budget_per_tick))),
            (
                "ingest_cap",
                Value::U64(u64::from(c.recovery.max_ingest_per_tick)),
            ),
            ("files", Value::U64(config.files as u64)),
            ("reads", Value::U64(config.reads as u64)),
            ("zipf", Value::F64(config.zipf_exponent)),
            ("fault_events", Value::U64(config.plan.len() as u64)),
        ]
    }

    fn record_fields(&self, record: &Self::Record) -> Fields {
        let s = &record.stats;
        let d = &record.degradation;
        vec![
            ("alive_servers", Value::U64(s.alive_servers as u64)),
            ("total_chunks", Value::U64(s.total_chunks)),
            ("max_load", Value::U64(u64::from(s.max_load))),
            ("imbalance", Value::F64(s.imbalance)),
            ("p99_load", Value::F64(record.load_percentiles[2])),
            (
                "create_cost_per_file",
                Value::F64(record.create_cost_per_file),
            ),
            ("read_cost_per_op", Value::F64(record.read_cost_per_op)),
            ("recovered_chunks", Value::U64(s.recovered_chunks)),
            ("recovery_messages", Value::U64(s.recovery_messages)),
            ("crashes", Value::U64(d.crashes)),
            ("detections", Value::U64(d.detections)),
            ("detect_latency_mean", Value::F64(d.detection_latency_mean)),
            ("detect_latency_max", Value::U64(d.detection_latency_max)),
            ("peak_under_replicated", Value::U64(d.peak_under_replicated)),
            ("under_replicated_area", Value::U64(d.under_replicated_area)),
            ("ticks_to_heal", Value::U64(d.ticks_to_heal)),
            ("healed", Value::Bool(d.healed)),
            ("durability_losses", Value::U64(d.durability_losses)),
            ("unavailable_area", Value::U64(d.unavailable_area)),
            ("repair_attempts", Value::U64(d.repair_attempts)),
            ("repair_retries", Value::U64(d.repair_retries)),
            ("failed_writes", Value::U64(d.failed_writes)),
            ("degraded_reads", Value::U64(d.degraded_reads)),
            ("failed_reads", Value::U64(d.failed_reads)),
            ("peak_recovery_queue", Value::U64(d.peak_recovery_queue)),
            ("plan_errors", Value::U64(d.plan_errors)),
        ]
    }

    fn axes(&self) -> &'static [Axis] {
        const AXES: &[Axis] = &[
            Axis::new("servers", "chunkservers (default 64)"),
            Axis::new("racks", "racks, server s in rack s%racks (default 1)"),
            Axis::new("k", "replicas per chunk (default 3)"),
            Axis::new("policy", "kd | two-choice | random (default kd)"),
            Axis::new("d", "probes per placement for kd (default 2k)"),
            Axis::new(
                "discipline",
                "multiplicity | distinct | rack (default distinct)",
            ),
            Axis::new(
                "hb",
                "heartbeat period in ticks, 0 = synchronous (default 0)",
            ),
            Axis::new("timeout", "missed beats tolerated before death (default 2)"),
            Axis::new(
                "budget",
                "repair attempts per tick, 0 = unbounded (default 0)",
            ),
            Axis::new(
                "ingest",
                "repairs a destination accepts per tick, 0 = unbounded",
            ),
            Axis::new("backoff", "retry backoff base in ticks (default 1)"),
            Axis::new("files", "chunks to create (default servers*10)"),
            Axis::new("reads", "Zipf-popular reads (default servers*10)"),
            Axis::new("zipf", "read popularity exponent (default 0.9)"),
            Axis::new(
                "fault",
                "none | single | storm | rack | churn (default none)",
            ),
            Axis::new("failures", "crashes for storm/churn plans (default 4)"),
            Axis::new("down", "ticks a crashed server stays down for single/churn"),
            Axis::new("drain", "max extra ticks to quiesce (default 100000)"),
            Axis::new("seed", "master seed (default: --seed)"),
        ];
        AXES
    }

    fn config_from_params(&self, params: &Params) -> Result<Self::Config, GridError> {
        let servers = params.get_usize("servers", 64)?;
        let k = params.get_usize("k", 3)?;
        if servers == 0 || k == 0 {
            return Err(params.bad_value("servers", "servers and k both >= 1"));
        }
        let policy = match params.get_raw("policy").unwrap_or("kd") {
            "kd" => {
                let d = params.get_usize("d", 2 * k)?;
                if d < k {
                    return Err(params.bad_value("d", &format!("d >= k (k={k})")));
                }
                PlacementPolicy::KdChoice { d }
            }
            "two-choice" => PlacementPolicy::PerChunkTwoChoice,
            "random" => PlacementPolicy::Random,
            _ => return Err(params.bad_value("policy", "kd | two-choice | random")),
        };
        let racks = params.get_usize("racks", 1)?;
        if racks == 0 {
            return Err(params.bad_value("racks", "at least one rack"));
        }
        let discipline = match params.get_raw("discipline").unwrap_or("distinct") {
            "multiplicity" => crate::ReplicaDiscipline::Multiplicity,
            "distinct" => crate::ReplicaDiscipline::DistinctServers,
            "rack" => crate::ReplicaDiscipline::DistinctRacks,
            _ => return Err(params.bad_value("discipline", "multiplicity | distinct | rack")),
        };
        if discipline == crate::ReplicaDiscipline::DistinctServers && servers < k {
            return Err(params.bad_value("servers", "distinct replicas need servers >= k"));
        }
        if discipline == crate::ReplicaDiscipline::DistinctRacks && racks < k {
            return Err(params.bad_value("racks", "rack-distinct replicas need racks >= k"));
        }
        let mut cluster = ClusterConfig::new(servers, k, policy);
        cluster.racks = racks;
        cluster.discipline = discipline;
        cluster.heartbeat = crate::HeartbeatConfig::new(
            u32::try_from(params.get_u64("hb", 0)?)
                .map_err(|_| params.bad_value("hb", "fits in u32"))?,
            u32::try_from(params.get_u64("timeout", 2)?)
                .map_err(|_| params.bad_value("timeout", "fits in u32"))?,
        );
        cluster.recovery = crate::RecoveryConfig {
            budget_per_tick: u32::try_from(params.get_u64("budget", 0)?)
                .map_err(|_| params.bad_value("budget", "fits in u32"))?,
            backoff_base: u32::try_from(params.get_u64("backoff", 1)?)
                .map_err(|_| params.bad_value("backoff", "fits in u32"))?,
            max_ingest_per_tick: u32::try_from(params.get_u64("ingest", 0)?)
                .map_err(|_| params.bad_value("ingest", "fits in u32"))?,
        };
        let mut config = ClusterWorkloadConfig::new(cluster);
        config.files = params.get_usize("files", servers * 10)?;
        config.reads = params.get_usize("reads", servers * 10)?;
        config.zipf_exponent = params.get_f64("zipf", 0.9)?;
        config.drain_cap = params.get_u64("drain", 100_000)?;
        let failures = params.get_usize("failures", 4)?;
        if failures >= servers {
            return Err(params.bad_value("failures", "fewer crashes than servers"));
        }
        let down = params.get_u64("down", 0)?;
        config.plan = Self::build_plan(
            params.get_raw("fault").unwrap_or("none"),
            failures,
            down,
            config.files,
            params,
        )?;
        config.seed = params.get_u64("seed", 0)?;
        Ok(config)
    }

    fn smoke_grid(&self) -> GridSpec {
        GridSpec::parse_str(
            "servers=16 k=2 files=120 reads=60 fault=none,storm failures=3 budget=2 hb=2 timeout=1",
        )
        .expect("cluster smoke grid")
    }

    fn throughput_unit(&self) -> &'static str {
        "ops/sec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_expt::{configs_from_grid, SweepReport, SweepRunner};
    use kdchoice_prng::derive_seed;

    #[test]
    fn storage_sweep_is_bit_identical_to_serial_run_workload() {
        let grid =
            GridSpec::parse_str("servers=30 k=3 policy=kd,two-choice,random failures=2").unwrap();
        let configs = configs_from_grid(&StorageScenario, &grid, 5).unwrap();
        assert_eq!(configs.len(), 3);
        let cells = SweepRunner::new().run_scenario(&StorageScenario, &configs, 3);
        for (cell, config) in cells.iter().zip(&configs) {
            for run in &cell.runs {
                let seed = derive_seed(config.seed, run.trial as u64);
                let serial = run_cluster_workload(&ClusterWorkloadConfig::legacy_compat(
                    &config.clone().with_seed(seed),
                ));
                assert_eq!(run.record.stats, serial.stats);
                assert_eq!(run.record.policy, serial.policy);
                assert_eq!(run.record.load_percentiles, serial.load_percentiles);
                assert_eq!(run.record.read_cost_per_op, serial.read_cost_per_op);
            }
        }
    }

    #[test]
    fn grid_validates_policy_and_failures() {
        let bad_policy = GridSpec::parse_str("policy=raid5").unwrap();
        assert!(configs_from_grid(&StorageScenario, &bad_policy, 0).is_err());
        let too_many = GridSpec::parse_str("servers=4 failures=4").unwrap();
        assert!(configs_from_grid(&StorageScenario, &too_many, 0).is_err());
        let short_d = GridSpec::parse_str("k=4 d=2").unwrap();
        assert!(configs_from_grid(&StorageScenario, &short_d, 0).is_err());
    }

    #[test]
    fn cluster_grid_validates_fault_kind_and_discipline() {
        let bad_fault = GridSpec::parse_str("fault=meteor").unwrap();
        assert!(configs_from_grid(&ClusterScenario, &bad_fault, 0).is_err());
        let bad_discipline = GridSpec::parse_str("discipline=spread").unwrap();
        assert!(configs_from_grid(&ClusterScenario, &bad_discipline, 0).is_err());
        let few_racks = GridSpec::parse_str("k=3 racks=2 discipline=rack").unwrap();
        assert!(configs_from_grid(&ClusterScenario, &few_racks, 0).is_err());
        let ok = GridSpec::parse_str("k=3 racks=3 discipline=rack fault=rack hb=2").unwrap();
        let configs = configs_from_grid(&ClusterScenario, &ok, 1).unwrap();
        assert_eq!(configs.len(), 1);
        assert_eq!(configs[0].plan.len(), 1);
    }

    #[test]
    fn cluster_smoke_grid_runs_and_renders_json() {
        let configs =
            configs_from_grid(&ClusterScenario, &ClusterScenario.smoke_grid(), 9).unwrap();
        assert_eq!(configs.len(), 2);
        let cells = SweepRunner::new().run_scenario(&ClusterScenario, &configs, 1);
        let report = SweepReport::from_cells(&ClusterScenario, &configs, &cells);
        let mut saw_storm_effect = false;
        for line in report.to_jsonl().lines() {
            kdchoice_expt::validate_json(line).unwrap();
            assert!(line.contains("\"scenario\": \"cluster\""));
            assert!(line.contains("\"peak_under_replicated\""));
            saw_storm_effect |= line.contains("\"crashes\": 3");
        }
        assert!(saw_storm_effect, "the storm grid cell must crash 3 servers");
    }

    #[test]
    fn report_fields_render_valid_json() {
        let grid = GridSpec::parse_str("servers=15 k=2 files=60 reads=30").unwrap();
        let configs = configs_from_grid(&StorageScenario, &grid, 2).unwrap();
        let cells = SweepRunner::new().run_scenario(&StorageScenario, &configs, 2);
        let report = SweepReport::from_cells(&StorageScenario, &configs, &cells);
        for line in report.to_jsonl().lines() {
            kdchoice_expt::validate_json(line).unwrap();
            assert!(line.contains("\"scenario\": \"storage\""));
            assert!(line.contains("\"imbalance\""));
        }
    }
}
