//! Distributed storage with (k,d)-choice chunk placement (§1.3 of the
//! paper), including server failures and re-replication.
//!
//! ```sh
//! cargo run --release --example storage_cluster
//! ```

use kdchoice::prng::Xoshiro256PlusPlus;
use kdchoice::storage::{
    run_cluster_workload, ChunkCluster, ClusterConfig, ClusterWorkloadConfig, FaultEvent,
    FaultPlan, PlacementPolicy, WorkloadConfig,
};

fn main() {
    // --- Interactive-style walk-through ---------------------------------
    let mut rng = Xoshiro256PlusPlus::from_u64(99);
    let k = 4;
    // Synchronous heartbeats and unbounded recovery: each crash the plan
    // schedules is detected and healed within its own tick.
    let config = ClusterConfig::legacy_compat(100, k, PlacementPolicy::KdChoice { d: k + 1 });
    let plan = (1..=5).fold(FaultPlan::new(), |plan, tick| {
        plan.at(tick, FaultEvent::CrashRandom)
    });
    let mut cluster = ChunkCluster::new(config, &plan);
    println!(
        "creating 500 files of {k} chunks on 100 servers with (k,{})-choice...",
        k + 1
    );
    for _ in 0..500 {
        cluster
            .create_chunk(&mut rng)
            .expect("every server is alive");
    }
    let s = cluster.stats();
    println!(
        "  max load {} / mean {:.1} chunks per server (imbalance {:.3})",
        s.max_load, s.mean_load, s.imbalance
    );
    println!(
        "  placement probes per file: {:.1}",
        s.placement_messages as f64 / 500.0
    );
    let cost = cluster.read_chunk(0);
    println!(
        "  reading one file costs {cost} messages (k+1, vs 2k = {} for per-chunk 2-choice)",
        2 * k
    );

    println!("\nkilling 5 servers...");
    for _ in 0..5 {
        let before = cluster.stats().recovered_chunks;
        cluster.tick(&mut rng);
        let moved = cluster.stats().recovered_chunks - before;
        println!(
            "  tick {}: a server died, {moved} chunks re-replicated",
            cluster.now()
        );
    }
    let s = cluster.stats();
    println!(
        "  after recovery: {} alive, max load {}, imbalance {:.3}",
        s.alive_servers, s.max_load, s.imbalance
    );
    assert!(cluster.check_invariants());

    // --- Policy comparison under a scripted workload --------------------
    println!("\npolicy comparison (1000 servers, 20k files, 10 failures):\n");
    println!(
        "{:<20} {:>8} {:>10} {:>12} {:>12}",
        "policy", "max", "imbalance", "probes/file", "read msgs"
    );
    for policy in [
        PlacementPolicy::Random,
        PlacementPolicy::PerChunkTwoChoice,
        PlacementPolicy::KdChoice { d: k + 1 },
        PlacementPolicy::KdChoice { d: 2 * k },
    ] {
        let mut cfg = WorkloadConfig::new(1000, k, policy)
            .with_seed(7)
            .with_failures(10);
        cfg.files = 20_000;
        cfg.reads = 5_000;
        let r = run_cluster_workload(&ClusterWorkloadConfig::legacy_compat(&cfg));
        println!(
            "{:<20} {:>8} {:>10.3} {:>12.1} {:>12.1}",
            r.policy,
            r.stats.max_load,
            r.stats.imbalance,
            r.create_cost_per_file,
            r.read_cost_per_op
        );
    }
}
