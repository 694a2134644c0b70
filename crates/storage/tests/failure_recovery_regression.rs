//! Deterministic regression test for storage failure recovery: with a
//! fixed seed, killing servers mid-workload must re-place every lost
//! chunk onto a server that is still alive, conserve the total chunk
//! count, and reproduce the exact same final state on every run.

use kdchoice_prng::Xoshiro256PlusPlus;
use kdchoice_storage::{
    run_cluster_workload, ChunkCluster, ClusterConfig, ClusterReport, ClusterWorkloadConfig,
    FaultEvent, FaultPlan, PlacementPolicy, WorkloadConfig,
};

/// Runs the synchronous §1.3 storage workload `config` describes.
fn run_storage(config: &WorkloadConfig) -> ClusterReport {
    run_cluster_workload(&ClusterWorkloadConfig::legacy_compat(config))
}

#[test]
fn fixed_seed_failures_conserve_chunks_and_avoid_dead_servers() {
    // One random crash per tick; synchronous detection and unbounded
    // recovery heal each within its own tick.
    let plan = (1..=4).fold(FaultPlan::new(), |plan, tick| {
        plan.at(tick, FaultEvent::CrashRandom)
    });
    let config = ClusterConfig::legacy_compat(24, 3, PlacementPolicy::KdChoice { d: 6 });
    let mut cluster = ChunkCluster::new(config, &plan);
    let mut rng = Xoshiro256PlusPlus::from_u64(0xFA11);
    for _ in 0..120 {
        cluster.create_chunk(&mut rng).unwrap();
    }
    let chunks_before = cluster.stats().total_chunks;
    assert_eq!(chunks_before, 360);

    for _ in 0..4 {
        let recovered = cluster.stats().recovered_chunks;
        let alive = cluster.alive_servers();
        cluster.tick(&mut rng);
        assert_eq!(cluster.alive_servers(), alive - 1, "one server died");
        let moved = cluster.stats().recovered_chunks - recovered;
        assert!(moved > 0, "a loaded server must have had chunks to move");
        // Chunk conservation after every single failure.
        assert_eq!(cluster.stats().total_chunks, chunks_before);
        assert_eq!(cluster.under_replicated(), 0);
        assert!(cluster.check_invariants());
    }
    assert_eq!(cluster.alive_servers(), 20);

    // Re-placement landed only on alive servers: dead servers hold no
    // chunks, and every alive server's load is consistent with the total.
    let alive_total: u64 = cluster.alive_loads().iter().map(|&l| u64::from(l)).sum();
    assert_eq!(alive_total, chunks_before);
    let stats = cluster.stats();
    assert!(
        stats.recovered_chunks <= stats.recovery_messages,
        "recovery spends at least one message per re-placed chunk"
    );
    assert!(stats.recovered_chunks >= 4, "each failure recovered chunks");
}

#[test]
fn workload_with_failures_is_a_pure_function_of_the_seed() {
    // The regression pin: two runs of the same seeded workload agree on
    // every statistic, so any change to the recovery path that alters
    // behavior is caught even if it stays "valid".
    let config = WorkloadConfig::new(32, 3, PlacementPolicy::KdChoice { d: 6 })
        .with_failures(5)
        .with_seed(2024);
    let a = run_storage(&config);
    let b = run_storage(&config);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.load_percentiles, b.load_percentiles);

    // Structural assertions on the fixed-seed outcome.
    assert_eq!(a.stats.alive_servers, 27);
    assert_eq!(a.stats.total_chunks, (config.files * 3) as u64);
    assert!(a.stats.recovered_chunks > 0);
    assert!(a.stats.recovery_messages >= a.stats.recovered_chunks);
    // Mean load over alive servers must account for every chunk.
    let implied_total = a.stats.mean_load * a.stats.alive_servers as f64;
    assert!((implied_total - a.stats.total_chunks as f64).abs() < 1e-6);
}

#[test]
fn recovery_under_every_policy_keeps_the_directory_alive_only() {
    for policy in [
        PlacementPolicy::KdChoice { d: 4 },
        PlacementPolicy::PerChunkTwoChoice,
        PlacementPolicy::Random,
    ] {
        let config = WorkloadConfig::new(20, 2, policy)
            .with_failures(6)
            .with_seed(99);
        let report = run_storage(&config);
        assert_eq!(report.stats.alive_servers, 14, "{policy}");
        assert_eq!(
            report.stats.total_chunks,
            (config.files * 2) as u64,
            "{policy}: chunks must be conserved across failures"
        );
    }
}
