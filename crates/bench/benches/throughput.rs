//! Criterion micro-benchmarks: allocation throughput (ns/ball) of
//! (k,d)-choice and the baselines, plus the application kernels.
//!
//! These are implementation benchmarks (not paper artifacts): they document
//! that the simulator is fast enough to regenerate the paper's tables at
//! full scale, and catch performance regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kdchoice_baselines::{AdaptiveProbing, DChoice, SingleChoice};
use kdchoice_core::{run_once, BallsIntoBins, KdChoice, RoundPolicy, RunConfig};
use kdchoice_scheduler::{simulate, ClusterConfig, PlacementStrategy};
use kdchoice_storage::{
    run_cluster_workload, ClusterWorkloadConfig, PlacementPolicy, WorkloadConfig,
};

const N: usize = 1 << 14;

fn bench_processes(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    type Factory = Box<dyn Fn() -> Box<dyn BallsIntoBins>>;
    let mut cases: Vec<(String, Factory)> = vec![
        (
            "single-choice".into(),
            Box::new(|| Box::new(SingleChoice::new())),
        ),
        (
            "greedy2".into(),
            Box::new(|| Box::new(DChoice::new(2).expect("valid"))),
        ),
        (
            "adaptive".into(),
            Box::new(|| Box::new(AdaptiveProbing::new(1, 32).expect("valid"))),
        ),
    ];
    for (k, d) in [(1usize, 2usize), (2, 3), (16, 17), (16, 32), (192, 193)] {
        cases.push((
            format!("kd_{k}_{d}"),
            Box::new(move || Box::new(KdChoice::new(k, d).expect("valid"))),
        ));
    }
    cases.push((
        "kd_16_32_unrestricted".into(),
        Box::new(|| {
            Box::new(
                KdChoice::new(16, 32)
                    .expect("valid")
                    .with_policy(RoundPolicy::Unrestricted),
            )
        }),
    ));
    for (name, factory) in cases {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut p = factory();
                run_once(&mut *p, &RunConfig::new(N, 42)).max_load
            })
        });
    }
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);
    let cfg = ClusterConfig::new(128, 4, 2000, 9).with_utilization(0.8);
    group.bench_function("batch_sampling_2000_jobs", |b| {
        b.iter(|| {
            simulate(
                &cfg,
                PlacementStrategy::BatchSampling { probes_per_task: 2 },
            )
        })
    });
    group.bench_function("kd_choice_2000_jobs", |b| {
        b.iter(|| simulate(&cfg, PlacementStrategy::KdChoice { d: 8 }))
    });
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    group.sample_size(10);
    let cfg = ClusterWorkloadConfig::legacy_compat(
        &WorkloadConfig::new(200, 4, PlacementPolicy::KdChoice { d: 8 }).with_seed(5),
    );
    group.bench_function("workload_2000_files", |b| {
        b.iter(|| run_cluster_workload(&cfg))
    });
    group.finish();
}

criterion_group!(benches, bench_processes, bench_scheduler, bench_storage);
criterion_main!(benches);
