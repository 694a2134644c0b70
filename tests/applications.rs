//! End-to-end integration tests for the two §1.3 applications.

use kdchoice::scheduler::{simulate, ClusterConfig, PlacementStrategy, ServiceDistribution};
use kdchoice::storage::{
    run_cluster_workload, ClusterReport, ClusterWorkloadConfig, PlacementPolicy, WorkloadConfig,
};

/// Runs the synchronous §1.3 storage workload `config` describes.
fn run_storage(config: &WorkloadConfig) -> ClusterReport {
    run_cluster_workload(&ClusterWorkloadConfig::legacy_compat(config))
}

#[test]
fn scheduler_end_to_end_determinism_and_accounting() {
    let cfg = ClusterConfig::new(64, 4, 500, 42).with_utilization(0.75);
    let a = simulate(&cfg, PlacementStrategy::KdChoice { d: 8 });
    let b = simulate(&cfg, PlacementStrategy::KdChoice { d: 8 });
    assert_eq!(a.response.count(), b.response.count());
    assert_eq!(a.response.mean(), b.response.mean());
    assert_eq!(a.probe_messages, 500 * 8);
    assert!(a.response_percentiles[0] <= a.response_percentiles[1]);
    assert!(a.response_percentiles[1] <= a.response_percentiles[2]);
}

#[test]
fn scheduler_shared_probes_beat_per_task_probing_tail() {
    let cfg = ClusterConfig::new(128, 8, 3000, 43)
        .with_utilization(0.85)
        .with_service(ServiceDistribution::Exponential { mean: 1.0 });
    let per_task = simulate(&cfg, PlacementStrategy::PerTaskDChoice { d: 2 });
    let batch = simulate(
        &cfg,
        PlacementStrategy::BatchSampling { probes_per_task: 2 },
    );
    // Same message budget; the shared-information scheme must not lose on
    // the tail (the §1.3 argument).
    assert_eq!(per_task.probe_messages, batch.probe_messages);
    assert!(batch.response_percentiles[2] <= per_task.response_percentiles[2] * 1.1);
}

#[test]
fn scheduler_heavy_tailed_service_still_works() {
    let cfg = ClusterConfig::new(64, 4, 1000, 44)
        .with_service(ServiceDistribution::Pareto {
            alpha: 1.5,
            lo: 0.1,
            hi: 50.0,
        })
        .with_utilization(0.6);
    let r = simulate(&cfg, PlacementStrategy::KdChoice { d: 8 });
    assert!(r.jobs_measured > 0);
    assert!(r.response.mean().is_finite());
}

#[test]
fn storage_end_to_end_with_failures() {
    let cfg = WorkloadConfig::new(100, 4, PlacementPolicy::KdChoice { d: 8 })
        .with_failures(10)
        .with_seed(45);
    let r = run_storage(&cfg);
    assert_eq!(r.stats.alive_servers, 90);
    assert_eq!(r.stats.total_chunks, (cfg.files * 4) as u64);
    assert!(r.stats.recovered_chunks > 0);
    assert!(r.stats.imbalance >= 1.0);
}

#[test]
fn storage_kd_read_cost_is_half_of_two_choice() {
    let kd =
        run_storage(&WorkloadConfig::new(100, 6, PlacementPolicy::KdChoice { d: 7 }).with_seed(46));
    let two =
        run_storage(&WorkloadConfig::new(100, 6, PlacementPolicy::PerChunkTwoChoice).with_seed(46));
    // §1.3: k+1 = 7 vs 2k = 12 — "approximately half".
    assert_eq!(kd.read_cost_per_op, 7.0);
    assert_eq!(two.read_cost_per_op, 12.0);
    // Placement probes likewise: d = k+1 vs 2k.
    assert_eq!(kd.create_cost_per_file, 7.0);
    assert_eq!(two.create_cost_per_file, 12.0);
}

#[test]
fn storage_balance_ordering_random_vs_kd() {
    let kd =
        run_storage(&WorkloadConfig::new(200, 3, PlacementPolicy::KdChoice { d: 6 }).with_seed(47));
    let rnd = run_storage(&WorkloadConfig::new(200, 3, PlacementPolicy::Random).with_seed(47));
    assert!(kd.stats.max_load <= rnd.stats.max_load);
}
