//! Golden digests of every driver that decides through the shared
//! "k least tentative slots" kernel on a path the dims=1 bit-identity
//! tests do not reach: the vector static fill at dims=2 under each
//! non-scalar objective, the scheduler's scalar and vector simulations,
//! the vector service workload, and the dynamic-k and serialized
//! processes. Each case pins the `Debug` form of its result through a
//! 64-bit FNV-1a digest, so any change to the probe or tie-key stream,
//! to the winners, or to the winner order shows up as a changed digest.
//!
//! The digests were generated before the per-caller slot expansions
//! were folded into the core kernel; the folded code must reproduce them
//! unedited. To print the table for a deliberate re-golden run
//! `cargo test --test kernel_golden -- --nocapture` and copy the `got`
//! column.

use kdchoice::kd::{
    run_once, run_once_vector, DynamicKChoice, PlacementObjective, ProbeDistribution, RunConfig,
    SerializedKdChoice, SigmaSchedule,
};
use kdchoice::prng::demand::DemandDistribution;
use kdchoice::scheduler::{
    simulate, simulate_vector, ClusterConfig, PlacementStrategy, VectorJobProfile,
};
use kdchoice::service::{run_vector_service_workload, ServiceReport, ServiceWorkloadConfig};

const DIMS: usize = 2;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn uniform_demand() -> DemandDistribution {
    DemandDistribution::uniform(3).expect("max >= 1")
}

/// A static (2,5)-choice fill at dims=2 with uniform demand; the
/// capacity objective runs against a non-uniform capacity map.
fn static_vector(objective: &str) -> u64 {
    let n = 512;
    let objective = PlacementObjective::parse(objective, DIMS).expect("known objective");
    let caps: Vec<u32> = (0..n).map(|i| 1 + (i % 3) as u32).collect();
    let capacities = (objective == PlacementObjective::NormalizedByCapacity).then_some(&caps[..]);
    let config = RunConfig::new(n, 11).with_balls(4 * n as u64);
    digest(&run_once_vector(
        2,
        5,
        DIMS,
        &objective,
        &uniform_demand(),
        &ProbeDistribution::Uniform,
        capacities,
        &config,
    ))
}

fn jobs_config() -> ClusterConfig {
    ClusterConfig::new(64, 4, 600, 13).with_utilization(0.8)
}

fn scheduler(strategy: PlacementStrategy) -> u64 {
    digest(&simulate(&jobs_config(), strategy))
}

fn scheduler_vector(strategy: PlacementStrategy) -> u64 {
    let profile = VectorJobProfile {
        dims: DIMS,
        objective: PlacementObjective::MaxNorm,
        demand: uniform_demand(),
        worker_capacities: None,
    };
    digest(&simulate_vector(&jobs_config(), strategy, &profile))
}

/// Every report field except the wall-clock ones.
fn service_fields(r: &ServiceReport) -> impl std::fmt::Debug {
    (
        r.placements,
        r.balls_placed,
        r.balls_released,
        r.live_balls,
        r.max_load,
        r.gap,
        r.nu1,
        r.conserved,
        r.dim_gaps.clone(),
    )
}

fn service_vector() -> u64 {
    let mut config = ServiceWorkloadConfig::new(256, 1, 3000, 17);
    config.k = 3;
    config.d = 6;
    config.window = 200;
    config.dims = DIMS;
    config.objective = PlacementObjective::MaxNorm;
    config.demand = uniform_demand();
    digest(&service_fields(&run_vector_service_workload(&config)))
}

fn dynamic(d: usize, slack: u32) -> u64 {
    let mut process = DynamicKChoice::new(d, slack).expect("valid");
    digest(&run_once(&mut process, &RunConfig::new(2048, 19)))
}

fn serialized(schedule: SigmaSchedule) -> u64 {
    let mut process = SerializedKdChoice::new(3, 5, schedule).expect("valid");
    digest(&run_once(&mut process, &RunConfig::new(2048, 23)))
}

fn cases() -> Vec<(&'static str, u64)> {
    vec![
        ("run_once_vector/max_norm", static_vector("max_norm")),
        ("run_once_vector/weighted", static_vector("weighted")),
        ("run_once_vector/capacity", static_vector("capacity")),
        (
            "simulate/kd",
            scheduler(PlacementStrategy::KdChoice { d: 8 }),
        ),
        (
            "simulate/batch",
            scheduler(PlacementStrategy::BatchSampling { probes_per_task: 2 }),
        ),
        (
            "simulate_vector/kd",
            scheduler_vector(PlacementStrategy::KdChoice { d: 8 }),
        ),
        (
            "simulate_vector/batch",
            scheduler_vector(PlacementStrategy::BatchSampling { probes_per_task: 2 }),
        ),
        ("service_vector", service_vector()),
        ("dynamic/d4+0", dynamic(4, 0)),
        ("dynamic/d6+1", dynamic(6, 1)),
        ("serialized/identity", serialized(SigmaSchedule::Identity)),
        ("serialized/reverse", serialized(SigmaSchedule::Reverse)),
        (
            "serialized/uniform",
            serialized(SigmaSchedule::UniformRandom),
        ),
    ]
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("run_once_vector/max_norm", 0x498db1f473279309),
    ("run_once_vector/weighted", 0x93bf59f7d1804d08),
    ("run_once_vector/capacity", 0x6aa0a2da55dfb7df),
    ("simulate/kd", 0xd592a0546f525039),
    ("simulate/batch", 0x94d3195d82337ee9),
    ("simulate_vector/kd", 0x75645e358f8bf0f5),
    ("simulate_vector/batch", 0x2652ef62c7ce3bc5),
    ("service_vector", 0x0b9c86f0476c7890),
    ("dynamic/d4+0", 0x5a94d21addd44521),
    ("dynamic/d6+1", 0x63bd7162407f58ca),
    ("serialized/identity", 0xff841f4fbc27c8fc),
    ("serialized/reverse", 0x4cce127b4fbb50be),
    ("serialized/uniform", 0x03c3cf73ce480581),
];

#[test]
fn kernel_drivers_match_golden_digests() {
    let got = cases();
    let mut mismatches = Vec::new();
    for (&(name, expected), &(got_name, digest)) in GOLDEN.iter().zip(&got) {
        assert_eq!(name, got_name, "golden table out of order");
        println!("    (\"{name}\", {digest:#018x}),");
        if digest != expected {
            mismatches.push(format!(
                "{name}: expected {expected:#018x}, got {digest:#018x}"
            ));
        }
    }
    assert_eq!(GOLDEN.len(), got.len(), "golden table length");
    assert!(
        mismatches.is_empty(),
        "digest mismatches:\n{}",
        mismatches.join("\n")
    );
}
