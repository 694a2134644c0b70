//! Golden digests of `run_cluster_workload` over the full configuration
//! grid: placement policy × replica discipline × heartbeat model × fault
//! family. Each cell pins the `Debug` form of its `StorageStats`,
//! `DegradationReport` and under-replication series through a 64-bit
//! FNV-1a digest, so any change to the RNG stream, the tick pipeline, the
//! detection arithmetic or the repair order shows up as a changed digest.
//!
//! The digests were generated before the cluster's per-create and
//! per-tick server scans were removed; the scan-free code must reproduce
//! them unedited. To print the table for a deliberate re-golden run
//! `cargo test -p kdchoice-storage --test cluster_golden -- --nocapture`
//! and copy the `got` column.

use kdchoice_storage::{
    run_cluster_workload, ClusterConfig, ClusterWorkloadConfig, FaultEvent, FaultPlan,
    HeartbeatConfig, PlacementPolicy, RecoveryConfig, ReplicaDiscipline,
};

const SERVERS: usize = 40;
const RACKS: usize = 4;
const REPLICAS: usize = 3;
const FILES: usize = 300;

const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::KdChoice { d: 6 },
    PlacementPolicy::PerChunkTwoChoice,
    PlacementPolicy::Random,
];

const DISCIPLINES: [ReplicaDiscipline; 3] = [
    ReplicaDiscipline::Multiplicity,
    ReplicaDiscipline::DistinctServers,
    ReplicaDiscipline::DistinctRacks,
];

const HEARTBEATS: [HeartbeatConfig; 4] = [
    HeartbeatConfig::synchronous(),
    HeartbeatConfig::new(1, 0),
    HeartbeatConfig::new(2, 1),
    HeartbeatConfig::new(3, 2),
];

const FAULTS: [&str; 3] = ["storm", "rack_outage", "crash_recover_join"];

/// The fault plan and recovery limits of one fault family. Each family
/// drives a different recovery mode: a budget with a per-destination
/// ingest cap, unbounded recovery with an ingest cap, and a plain budget.
fn fault(name: &str) -> (FaultPlan, RecoveryConfig) {
    match name {
        "storm" => (
            FaultPlan::new().storm(6, FILES as u64),
            RecoveryConfig {
                budget_per_tick: 3,
                backoff_base: 1,
                max_ingest_per_tick: 1,
            },
        ),
        "rack_outage" => (
            FaultPlan::new()
                .at(50, FaultEvent::RackOutage { rack: 1 })
                .at(55, FaultEvent::RackOutage { rack: 2 })
                .at(120, FaultEvent::Recover { server: 1 })
                .at(121, FaultEvent::RecoverOldest),
            RecoveryConfig {
                budget_per_tick: 0,
                backoff_base: 2,
                max_ingest_per_tick: 2,
            },
        ),
        "crash_recover_join" => (
            // A short blip (back before slow heartbeats notice), a long
            // outage that is detected and rejoins empty, a joined server
            // that is crashed in turn, and a crash on a beat tick.
            FaultPlan::new()
                .crash_with_recovery(20, 3, 2)
                .crash_with_recovery(40, 7, 30)
                .at(60, FaultEvent::Join { capacity: 1.0 })
                .at(61, FaultEvent::Join { capacity: 2.0 })
                .at(90, FaultEvent::Crash { server: SERVERS })
                .at(96, FaultEvent::Crash { server: 11 })
                .at(96, FaultEvent::CrashRandom)
                .at(150, FaultEvent::RecoverOldest),
            RecoveryConfig::budgeted(2),
        ),
        other => panic!("unknown fault family {other}"),
    }
}

fn config(
    policy: PlacementPolicy,
    discipline: ReplicaDiscipline,
    heartbeat: HeartbeatConfig,
    fault_name: &str,
    seed: u64,
) -> ClusterWorkloadConfig {
    let mut cluster = ClusterConfig::new(SERVERS, REPLICAS, policy);
    cluster.racks = RACKS;
    cluster.discipline = discipline;
    cluster.heartbeat = heartbeat;
    let (plan, recovery) = fault(fault_name);
    cluster.recovery = recovery;
    let mut config = ClusterWorkloadConfig::new(cluster).with_seed(seed);
    config.files = FILES;
    config.reads = 200;
    config.sample_every = 1;
    config.drain_cap = 20_000;
    config.plan = plan;
    config
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden row: `(policy, discipline, heartbeat, fault, digest)`.
type Golden = (usize, usize, usize, usize, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    (0, 0, 0, 0, 0x78cf1bae7944ce4c),
    (0, 0, 0, 1, 0xca14a97db080b231),
    (0, 0, 0, 2, 0x8a98722716890f91),
    (0, 0, 1, 0, 0x783c133b4a527d1e),
    (0, 0, 1, 1, 0xa0d8459be7b4b7dc),
    (0, 0, 1, 2, 0x557075b3aedd0c8a),
    (0, 0, 2, 0, 0x36339169ed82c76f),
    (0, 0, 2, 1, 0x62f1d7ad657a18ac),
    (0, 0, 2, 2, 0xb3bb848a74b18184),
    (0, 0, 3, 0, 0xf08a4051010c194c),
    (0, 0, 3, 1, 0x1fa782f3ff05037b),
    (0, 0, 3, 2, 0xf17d792595e8268e),
    (0, 1, 0, 0, 0xa9fd9a23b1face12),
    (0, 1, 0, 1, 0x3891ef8f16e223be),
    (0, 1, 0, 2, 0xb25e45c4b453f06a),
    (0, 1, 1, 0, 0x4386c5738d089f2a),
    (0, 1, 1, 1, 0xa5e0997c91ca0bab),
    (0, 1, 1, 2, 0xbf3aa5fdb01f7e43),
    (0, 1, 2, 0, 0x9171fcc82ae59535),
    (0, 1, 2, 1, 0xc92ba7c0ac1dca3e),
    (0, 1, 2, 2, 0x86cd861203cf5e92),
    (0, 1, 3, 0, 0x4ceb328efe5a170f),
    (0, 1, 3, 1, 0x8d96894a773ec5ec),
    (0, 1, 3, 2, 0x62324159238b2fcd),
    (0, 2, 0, 0, 0xb08bdbc714aaa0dd),
    (0, 2, 0, 1, 0x1776e16bcf6747a0),
    (0, 2, 0, 2, 0x92f55a360ddce1ed),
    (0, 2, 1, 0, 0xf3d171dc31161275),
    (0, 2, 1, 1, 0x695b649d7438dd9f),
    (0, 2, 1, 2, 0x910bb657c06c423b),
    (0, 2, 2, 0, 0x1aa514d82e9273a3),
    (0, 2, 2, 1, 0x03e8fada109ae814),
    (0, 2, 2, 2, 0xca05b728409ef2be),
    (0, 2, 3, 0, 0x49954ea0acfb3ab7),
    (0, 2, 3, 1, 0xf46600e052e185d0),
    (0, 2, 3, 2, 0x1e57a4cb175cfb2c),
    (1, 0, 0, 0, 0x5f67884123d5c4aa),
    (1, 0, 0, 1, 0x77056816af4a88c2),
    (1, 0, 0, 2, 0xe8c47aec8f34506a),
    (1, 0, 1, 0, 0x0f20e9795ce00e68),
    (1, 0, 1, 1, 0x01842c01abc18d8a),
    (1, 0, 1, 2, 0x5c2c4be056e0e13d),
    (1, 0, 2, 0, 0xd00607da769600b1),
    (1, 0, 2, 1, 0xf7022e83eb8b30a6),
    (1, 0, 2, 2, 0x19caa1765f1eb542),
    (1, 0, 3, 0, 0x1032466ed8ed01fe),
    (1, 0, 3, 1, 0x89e71ccd4748aeb1),
    (1, 0, 3, 2, 0x46fded8fa4dab0cb),
    (1, 1, 0, 0, 0xb22273508db0c472),
    (1, 1, 0, 1, 0xa52486a2e3bd774c),
    (1, 1, 0, 2, 0x4a17ca06d4e79a55),
    (1, 1, 1, 0, 0x6cb5ae77722c1513),
    (1, 1, 1, 1, 0xf051e35f1922b3bc),
    (1, 1, 1, 2, 0x99ce2d1838cc86e0),
    (1, 1, 2, 0, 0x2578e019a35dfcfd),
    (1, 1, 2, 1, 0x191a39f11ce3060e),
    (1, 1, 2, 2, 0xe99f77c586bdf87b),
    (1, 1, 3, 0, 0xbeff43c34fadbeca),
    (1, 1, 3, 1, 0x81c588bc0e91c07b),
    (1, 1, 3, 2, 0xd6eb932737a32771),
    (1, 2, 0, 0, 0xac6214c89b8a64f4),
    (1, 2, 0, 1, 0xc2782b8cc719c444),
    (1, 2, 0, 2, 0xd26f0bed64e25148),
    (1, 2, 1, 0, 0x67ff3eae925717d8),
    (1, 2, 1, 1, 0x3a29a3b40e3d09fa),
    (1, 2, 1, 2, 0xea22c6f0db60d241),
    (1, 2, 2, 0, 0xbcf4db36bbf7d7c3),
    (1, 2, 2, 1, 0x1d861c831f9739ae),
    (1, 2, 2, 2, 0x3a7708d0ca9bce06),
    (1, 2, 3, 0, 0xd6f6b06519e776cb),
    (1, 2, 3, 1, 0x2ab433931a98b127),
    (1, 2, 3, 2, 0x9c84db296545edfb),
    (2, 0, 0, 0, 0xcf1cade22b612394),
    (2, 0, 0, 1, 0x76b8d3a589734e1b),
    (2, 0, 0, 2, 0x700d655e7c7606df),
    (2, 0, 1, 0, 0xf6de5dd824db1c5f),
    (2, 0, 1, 1, 0x02a053904e77723f),
    (2, 0, 1, 2, 0xa4174d23b1bb7201),
    (2, 0, 2, 0, 0xd517fd3b72d0cac2),
    (2, 0, 2, 1, 0x842932443e06b6bf),
    (2, 0, 2, 2, 0x796af1ae91743472),
    (2, 0, 3, 0, 0xddf497a274eabc64),
    (2, 0, 3, 1, 0xc2431afa75a49e7c),
    (2, 0, 3, 2, 0x2066edc9c3a8fddc),
    (2, 1, 0, 0, 0x31367205f3b73a03),
    (2, 1, 0, 1, 0x5945ed2b5afbaceb),
    (2, 1, 0, 2, 0xb18bf8cfbdd9bb1c),
    (2, 1, 1, 0, 0xdb640d3d98eddf74),
    (2, 1, 1, 1, 0x7bdbdb70f6c84520),
    (2, 1, 1, 2, 0x72e919e579722020),
    (2, 1, 2, 0, 0xa3ca9e8900aedbeb),
    (2, 1, 2, 1, 0x15dcca1932bf5a4f),
    (2, 1, 2, 2, 0xf18eb7813e98b065),
    (2, 1, 3, 0, 0x77c8bc5a2d7f6fe9),
    (2, 1, 3, 1, 0x4311fdc543fc2e61),
    (2, 1, 3, 2, 0xb65590d8796a2b62),
    (2, 2, 0, 0, 0xa468aa8f6b2cd59a),
    (2, 2, 0, 1, 0xf2f58be19dbfbb3a),
    (2, 2, 0, 2, 0x4dfcbde985230a14),
    (2, 2, 1, 0, 0xc2e1cce6ce4d1008),
    (2, 2, 1, 1, 0xf61e5df917870c5a),
    (2, 2, 1, 2, 0x561578a35bb40208),
    (2, 2, 2, 0, 0xd0180eee42f92cce),
    (2, 2, 2, 1, 0x129c6edd145a5c1b),
    (2, 2, 2, 2, 0xcb38ffb4d935c93c),
    (2, 2, 3, 0, 0x45ec3672042ed0e7),
    (2, 2, 3, 1, 0x8e8e743eb6633613),
    (2, 2, 3, 2, 0xca9d7bd6baa31a03),
];

#[test]
fn cluster_workload_digests_are_pinned() {
    let mut mismatches = Vec::new();
    let mut row = 0usize;
    for (p, &policy) in POLICIES.iter().enumerate() {
        for (di, &discipline) in DISCIPLINES.iter().enumerate() {
            for (h, &heartbeat) in HEARTBEATS.iter().enumerate() {
                for (f, &fault_name) in FAULTS.iter().enumerate() {
                    let seed = 0x601d + row as u64;
                    let report = run_cluster_workload(&config(
                        policy, discipline, heartbeat, fault_name, seed,
                    ));
                    let text = format!(
                        "{:?}|{:?}|{:?}",
                        report.stats, report.degradation, report.series
                    );
                    let got = fnv1a(text.as_bytes());
                    let want = GOLDEN.get(row).copied();
                    println!("    ({p}, {di}, {h}, {f}, {got:#018x}),");
                    if want != Some((p, di, h, f, got)) {
                        mismatches.push(format!(
                            "{policy} / {} / {heartbeat:?} / {fault_name}: got {got:#018x}, want {want:x?}",
                            discipline.name()
                        ));
                    }
                    row += 1;
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {row} cells changed:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
