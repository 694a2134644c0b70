//! Smoke tests of the umbrella crate's public surface: the prelude, the
//! cross-crate wiring, and the theory/simulation agreement at a glance.

use kdchoice::prelude::*;

#[test]
fn prelude_supports_the_quickstart_flow() {
    let mut p = KdChoice::new(2, 3).expect("valid");
    let r = run_once(&mut p, &RunConfig::new(4096, 1));
    assert_eq!(r.balls_placed, 4096);
    let pred = theorem1_prediction(2, 3, 4096);
    assert!((f64::from(r.max_load) - pred.total()).abs() < 4.0);
}

#[test]
fn prelude_exposes_baselines_and_rng() {
    let mut rng = Xoshiro256PlusPlus::from_u64(1);
    use rand::Rng;
    let _: u64 = rng.gen();
    let mut sc = SingleChoice::new();
    let mut dc = DChoice::new(2).expect("valid");
    let a = run_once(&mut sc, &RunConfig::new(4096, 2));
    let b = run_once(&mut dc, &RunConfig::new(4096, 3));
    assert!(b.max_load <= a.max_load);
}

#[test]
fn namespaced_modules_are_reachable() {
    // One item per re-exported crate, to catch wiring regressions.
    let _ = kdchoice::theory::dk_ratio(1, 2);
    let _ = kdchoice::stats::Summary::new();
    let _ = kdchoice::prng::derive_seed(1, 2);
    let _ = kdchoice::sim::Clock::new();
    let _ = kdchoice::kd::LoadVector::new(4);
    let _ = kdchoice::baselines::AlwaysGoLeft::new(2).expect("valid");
    let _ = kdchoice::scheduler::ClusterConfig::new(4, 2, 10, 0);
    let _ =
        kdchoice::storage::WorkloadConfig::new(4, 2, kdchoice::storage::PlacementPolicy::Random);
    let _ = kdchoice::baselines::BatchedParallel::new(2, 2).expect("valid");
    let _ = kdchoice::baselines::TruncatedSingleChoice::new(1);
    let _ = kdchoice::baselines::OnePlusBeta::new(0.5).expect("valid");
}

#[test]
fn run_trials_is_deterministic_across_thread_counts() {
    // The per-trial seed derivation must make results independent of the
    // machine's parallelism.
    let a = run_trials(
        |_| KdChoice::new(2, 4).expect("valid"),
        &RunConfig::new(2048, 9),
        7,
    );
    let b = run_trials(
        |_| KdChoice::new(2, 4).expect("valid"),
        &RunConfig::new(2048, 9),
        7,
    );
    let loads_a: Vec<u32> = a.results.iter().map(|r| r.max_load).collect();
    let loads_b: Vec<u32> = b.results.iter().map(|r| r.max_load).collect();
    assert_eq!(loads_a, loads_b);
}
