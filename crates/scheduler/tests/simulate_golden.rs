//! Golden digests of the scheduler simulations at the scale of the
//! `apps` job-scheduling half: 1000 workers, 4 tasks per job, utilisation
//! 0.9. Every strategy runs with fresh probes (`scheduler_batch` 1, which
//! reads live queue lengths) and with stale ones (`scheduler_batch` 8,
//! which reads a snapshot copied once per batch), so both placement
//! paths are pinned. Each case hashes the `Debug` form of the whole
//! `SchedulerReport` with 64-bit FNV-1a: a changed probe, tie-key or
//! service draw, a changed winner or winner order, or a changed event
//! order shows up as a changed digest.
//!
//! Exponential and Pareto service times never tie, so the `_det` cases
//! run deterministic service (every task takes one time unit): a job's
//! tasks that start together complete at one time, and those digests pin
//! the event queue's FIFO order among equal times.
//!
//! The first 15 digests were generated before the scalar simulation
//! decided through its allocation-free choice core and the event queue
//! compared integer keys; both must reproduce them unedited. The `_det`
//! digests were generated before the simulation loops handled the top
//! event in place and replaced it with its successor. To print the
//! table for a deliberate re-golden run
//! `cargo test -p kdchoice-scheduler --test simulate_golden -- --nocapture`
//! and copy the `got` column.
//!
//! The vector `random`, `per_task2` and `_capacity` digests (dims 2, at
//! both batch sizes; the capacity cases under the two-tier capacity map)
//! were generated before `simulate_on` and `simulate_vector` became two
//! instances of one event loop.

use kdchoice_core::{two_tier_capacities, PlacementObjective};
use kdchoice_prng::demand::DemandDistribution;
use kdchoice_scheduler::{
    simulate, simulate_vector, ClusterConfig, PlacementStrategy, ServiceDistribution,
    VectorJobProfile,
};

const WORKERS: usize = 1000;
const TASKS_PER_JOB: usize = 4;
const JOBS: usize = 3000;
const RHO: f64 = 0.9;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn config(batch: usize, seed: u64) -> ClusterConfig {
    ClusterConfig::new(WORKERS, TASKS_PER_JOB, JOBS, seed)
        .with_utilization(RHO)
        .with_scheduler_batch(batch)
}

fn scalar(strategy: PlacementStrategy, batch: usize) -> u64 {
    digest(&simulate(&config(batch, 31), strategy))
}

fn pareto() -> u64 {
    let cfg = ClusterConfig::new(WORKERS, TASKS_PER_JOB, JOBS, 37)
        .with_service(ServiceDistribution::Pareto {
            alpha: 1.5,
            lo: 0.5,
            hi: 50.0,
        })
        .with_utilization(RHO);
    digest(&simulate(&cfg, PlacementStrategy::KdChoice { d: 8 }))
}

fn vector_profile() -> VectorJobProfile {
    VectorJobProfile {
        dims: 2,
        objective: PlacementObjective::MaxNorm,
        demand: DemandDistribution::uniform(3).expect("max >= 1"),
        worker_capacities: None,
    }
}

fn vector(strategy: PlacementStrategy) -> u64 {
    digest(&simulate_vector(
        &config(8, 41),
        strategy,
        &vector_profile(),
    ))
}

/// The capacity objective over the two-tier map (every fourth worker
/// four times as large), which runs the capacity-normalised keys in both
/// the per-task and the k-least choice.
fn capacity_profile() -> VectorJobProfile {
    VectorJobProfile {
        dims: 2,
        objective: PlacementObjective::NormalizedByCapacity,
        demand: DemandDistribution::uniform(3).expect("max >= 1"),
        worker_capacities: Some(two_tier_capacities(WORKERS, 4, 4)),
    }
}

/// A run with every task taking exactly one time unit: the tasks a job
/// starts at once complete at one tied time, so these cases pin the
/// queue's FIFO order among equal event times.
fn deterministic_config(batch: usize, seed: u64) -> ClusterConfig {
    ClusterConfig::new(WORKERS, TASKS_PER_JOB, JOBS, seed)
        .with_service(ServiceDistribution::Deterministic { value: 1.0 })
        .with_utilization(RHO)
        .with_scheduler_batch(batch)
}

const STRATEGIES: [(&str, PlacementStrategy); 6] = [
    ("random", PlacementStrategy::Random),
    ("per_task2", PlacementStrategy::PerTaskDChoice { d: 2 }),
    (
        "batch2",
        PlacementStrategy::BatchSampling { probes_per_task: 2 },
    ),
    ("kd5", PlacementStrategy::KdChoice { d: 5 }),
    ("kd8", PlacementStrategy::KdChoice { d: 8 }),
    (
        "late2",
        PlacementStrategy::LateBinding { probes_per_task: 2 },
    ),
];

fn cases() -> Vec<(String, u64)> {
    let mut cases = Vec::new();
    for batch in [1, 8] {
        for (name, strategy) in STRATEGIES {
            cases.push((format!("simulate/{name}/b{batch}"), scalar(strategy, batch)));
        }
    }
    cases.push(("simulate/kd8_pareto/b1".into(), pareto()));
    cases.push((
        "simulate_vector/kd8/b8".into(),
        vector(PlacementStrategy::KdChoice { d: 8 }),
    ));
    cases.push((
        "simulate_vector/late2/b8".into(),
        vector(PlacementStrategy::LateBinding { probes_per_task: 2 }),
    ));
    for (name, strategy) in [STRATEGIES[4], STRATEGIES[5]] {
        let report = simulate(&deterministic_config(1, 43), strategy);
        cases.push((format!("simulate/{name}_det/b1"), digest(&report)));
    }
    let report = simulate_vector(
        &deterministic_config(8, 47),
        PlacementStrategy::KdChoice { d: 8 },
        &vector_profile(),
    );
    cases.push(("simulate_vector/kd8_det/b8".into(), digest(&report)));
    for batch in [1, 8] {
        for (name, strategy) in [STRATEGIES[0], STRATEGIES[1]] {
            let report = simulate_vector(&config(batch, 53), strategy, &vector_profile());
            cases.push((format!("simulate_vector/{name}/b{batch}"), digest(&report)));
        }
        for (name, strategy) in [STRATEGIES[1], STRATEGIES[4]] {
            let report = simulate_vector(&config(batch, 59), strategy, &capacity_profile());
            cases.push((
                format!("simulate_vector/{name}_capacity/b{batch}"),
                digest(&report),
            ));
        }
    }
    cases
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("simulate/random/b1", 0xf3ffb9812f8964bf),
    ("simulate/per_task2/b1", 0x9b67ae43bc1a2d04),
    ("simulate/batch2/b1", 0x5d0bfae8ce64df10),
    ("simulate/kd5/b1", 0x76cd68ae8fedf3f7),
    ("simulate/kd8/b1", 0x238d44db1351dee0),
    ("simulate/late2/b1", 0x86acc836dc21bf74),
    ("simulate/random/b8", 0xf3ffb9812f8964bf),
    ("simulate/per_task2/b8", 0x40b1188c40c97ea3),
    ("simulate/batch2/b8", 0x7c944f3c6fbe54ad),
    ("simulate/kd5/b8", 0x5d93c0eed019e071),
    ("simulate/kd8/b8", 0x55b76d22e100d33d),
    ("simulate/late2/b8", 0x86acc836dc21bf74),
    ("simulate/kd8_pareto/b1", 0xb73e2b472f62d303),
    ("simulate_vector/kd8/b8", 0x1ea0b77f7a6fb898),
    ("simulate_vector/late2/b8", 0x881088d0a4d00502),
    ("simulate/kd8_det/b1", 0x8ab36f9f29735819),
    ("simulate/late2_det/b1", 0x11827ef42d731d2a),
    ("simulate_vector/kd8_det/b8", 0xda2297567031306f),
    ("simulate_vector/random/b1", 0x224226a081a35629),
    ("simulate_vector/per_task2/b1", 0x9e7095d786130d6f),
    ("simulate_vector/per_task2_capacity/b1", 0x9aa10f5456ab8030),
    ("simulate_vector/kd8_capacity/b1", 0xc2b476db3fb17098),
    ("simulate_vector/random/b8", 0x224226a081a35629),
    ("simulate_vector/per_task2/b8", 0x2713465ddd163a4c),
    ("simulate_vector/per_task2_capacity/b8", 0x36d6f0a088ad48cb),
    ("simulate_vector/kd8_capacity/b8", 0xeb7199aa69ffa619),
];

#[test]
fn simulations_match_golden_digests() {
    let got = cases();
    let mut mismatches = Vec::new();
    for (&(name, expected), (got_name, digest)) in GOLDEN.iter().zip(&got) {
        assert_eq!(name, got_name, "golden table out of order");
        if *digest != expected {
            mismatches.push(format!(
                "{name}: expected {expected:#018x}, got {digest:#018x}"
            ));
        }
    }
    for (name, digest) in &got {
        println!("    (\"{name}\", {digest:#018x}),");
    }
    assert_eq!(GOLDEN.len(), got.len(), "golden table length");
    assert!(
        mismatches.is_empty(),
        "digest mismatches:\n{}",
        mismatches.join("\n")
    );
}
