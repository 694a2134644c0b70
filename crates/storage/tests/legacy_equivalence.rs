//! Golden digests of the `storage` experiment: the §1.3 create/fail/read
//! workload run on [`ChunkCluster`](kdchoice_storage::ChunkCluster) under
//! `ClusterWorkloadConfig::legacy_compat` (multiplicity placement,
//! synchronous heartbeats, unbounded recovery, random crashes at even
//! intervals of the create phase). Each config pins the `Debug` form of
//! its `StorageStats`, load percentiles, per-operation costs and policy
//! name through a 64-bit FNV-1a digest, so any change to the RNG stream,
//! the placement rule or the recovery order shows up as a changed digest.
//!
//! The digests were generated by the synchronous storage cluster this
//! configuration replaced, and the fault-injected cluster reproduced them
//! unedited. To print the table for a deliberate re-golden run
//! `cargo test -p kdchoice-storage --test legacy_equivalence -- --nocapture`
//! and copy the `got` column.
//!
//! Rows can share a digest when no pinned field tells them apart: the
//! balanced no-failure runs end in the same load summary for every seed,
//! and the Zipf rows differ only in which chunks the reads touch.

use kdchoice_expt::{configs_from_grid, Scenario};
use kdchoice_storage::{
    run_cluster_workload, ClusterWorkloadConfig, PlacementPolicy, StorageScenario, WorkloadConfig,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs every labelled config and checks its digest against the golden
/// row at the same position.
fn assert_pinned(configs: &[(String, WorkloadConfig)], golden: &[u64]) {
    let mut mismatches = Vec::new();
    for (row, (label, config)) in configs.iter().enumerate() {
        let report = run_cluster_workload(&ClusterWorkloadConfig::legacy_compat(config));
        let text = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            report.stats,
            report.load_percentiles,
            report.read_cost_per_op,
            report.create_cost_per_file,
            report.policy
        );
        let got = fnv1a(text.as_bytes());
        println!("    {got:#018x}, // {label}");
        if golden.get(row) != Some(&got) {
            mismatches.push(format!(
                "{label}: got {got:#018x}, want {:x?}",
                golden.get(row)
            ));
        }

        // Synchronous detection and unbounded recovery: every crash is
        // detected and healed in its own tick, and no create is refused.
        let d = &report.degradation;
        assert_eq!(d.crashes, config.failures as u64, "{label}");
        assert_eq!(d.detections, config.failures as u64, "{label}");
        assert_eq!(d.detection_latency_max, 0, "{label}");
        assert_eq!(d.final_under_replicated, 0, "{label}");
        assert_eq!(report.failed_creates, 0, "{label}");
    }
    assert_eq!(golden.len(), configs.len(), "one golden row per config");
    assert!(
        mismatches.is_empty(),
        "{} of {} configs changed:\n{}",
        mismatches.len(),
        configs.len(),
        mismatches.join("\n")
    );
}

#[test]
fn compat_cluster_matches_legacy_workload_without_failures() {
    let configs: Vec<_> = [0, 1, 0xDEAD]
        .into_iter()
        .map(|seed| {
            let config =
                WorkloadConfig::new(40, 3, PlacementPolicy::KdChoice { d: 6 }).with_seed(seed);
            (format!("no failures, seed {seed}"), config)
        })
        .collect();
    #[rustfmt::skip]
    let golden = [
        0x2819ffed550a609f, // no failures, seed 0
        0x2819ffed550a609f, // no failures, seed 1
        0x2819ffed550a609f, // no failures, seed 57005
    ];
    assert_pinned(&configs, &golden);
}

#[test]
fn compat_cluster_matches_legacy_workload_with_failures_across_policies() {
    let mut configs = Vec::new();
    for policy in [
        PlacementPolicy::KdChoice { d: 8 },
        PlacementPolicy::PerChunkTwoChoice,
        PlacementPolicy::Random,
    ] {
        for failures in [1, 3, 7] {
            for seed in [2, 2024] {
                let config = WorkloadConfig::new(32, 4, policy)
                    .with_failures(failures)
                    .with_seed(seed);
                configs.push((
                    format!("{policy}, {failures} failures, seed {seed}"),
                    config,
                ));
            }
        }
    }
    #[rustfmt::skip]
    let golden = [
        0x927763f4b87db8fb, // (k,8)-choice, 1 failures, seed 2
        0x9771f175a21a5633, // (k,8)-choice, 1 failures, seed 2024
        0x9b06bca1d06dcd7d, // (k,8)-choice, 3 failures, seed 2
        0x6644ec236fe80748, // (k,8)-choice, 3 failures, seed 2024
        0x546131fd5b43009f, // (k,8)-choice, 7 failures, seed 2
        0x0362b6f35be96b47, // (k,8)-choice, 7 failures, seed 2024
        0x08824effed19f085, // per-chunk 2-choice, 1 failures, seed 2
        0x0091ff2c2526463b, // per-chunk 2-choice, 1 failures, seed 2024
        0x23b025509aa37dfb, // per-chunk 2-choice, 3 failures, seed 2
        0x0fe4e40f1aea3daf, // per-chunk 2-choice, 3 failures, seed 2024
        0x0b8c48e71fcd2345, // per-chunk 2-choice, 7 failures, seed 2
        0x54cb237b048c97be, // per-chunk 2-choice, 7 failures, seed 2024
        0xff8d191439273800, // random, 1 failures, seed 2
        0xf65f1e7f7b3b82a0, // random, 1 failures, seed 2024
        0x2e26aafde853f897, // random, 3 failures, seed 2
        0xda10b2463868d171, // random, 3 failures, seed 2024
        0xdf6435296a7cffc0, // random, 7 failures, seed 2
        0xa154eb1eb5a6d551, // random, 7 failures, seed 2024
    ];
    assert_pinned(&configs, &golden);
}

#[test]
fn compat_cluster_matches_legacy_when_failures_outnumber_create_intervals() {
    // files < failures: the leftover crashes fire back to back after the
    // create phase, with no create in between.
    let mut config = WorkloadConfig::new(16, 2, PlacementPolicy::KdChoice { d: 4 })
        .with_failures(9)
        .with_seed(77);
    config.files = 5;
    config.reads = 40;
    assert_pinned(
        &[("failures outnumber files".into(), config)],
        &[0x66efa45887597858],
    );
}

#[test]
fn compat_cluster_matches_legacy_with_zipf_variants() {
    let configs: Vec<_> = [0.0, 0.9, 1.5]
        .into_iter()
        .map(|zipf| {
            let mut config = WorkloadConfig::new(24, 3, PlacementPolicy::KdChoice { d: 6 })
                .with_failures(2)
                .with_seed(5);
            config.zipf_exponent = zipf;
            (format!("zipf {zipf}"), config)
        })
        .collect();
    #[rustfmt::skip]
    let golden = [
        0x1358139f0b506e4e, // zipf 0
        0x1358139f0b506e4e, // zipf 0.9
        0x1358139f0b506e4e, // zipf 1.5
    ];
    assert_pinned(&configs, &golden);
}

#[test]
fn compat_cluster_matches_legacy_on_scenario_smoke_grid_and_cli_defaults() {
    let smoke = configs_from_grid(&StorageScenario, &StorageScenario.smoke_grid(), 0)
        .expect("storage smoke grid");
    let mut configs: Vec<_> = smoke
        .into_iter()
        .map(|config| (format!("smoke grid, {}", config.policy), config))
        .collect();
    // The `kdchoice storage` defaults: 500 servers, k = 4, 10000 files,
    // d = 2k, no failures, seed 42.
    for policy in [
        PlacementPolicy::Random,
        PlacementPolicy::PerChunkTwoChoice,
        PlacementPolicy::KdChoice { d: 8 },
    ] {
        let mut config = WorkloadConfig::new(500, 4, policy).with_seed(42);
        config.files = 10_000;
        configs.push((format!("cli defaults, {policy}"), config));
    }
    #[rustfmt::skip]
    let golden = [
        0x83e959cc6738238e, // smoke grid, (k,4)-choice
        0x47aa69852c3928c4, // smoke grid, random
        0xc50d794c22898fd7, // cli defaults, random
        0xe8423594b1922887, // cli defaults, per-chunk 2-choice
        0x0d6de34614a3b591, // cli defaults, (k,8)-choice
    ];
    assert_pinned(&configs, &golden);
}
