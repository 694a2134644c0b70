//! The refactor-safety property: the monomorphized generic path and the
//! object-safe `dyn` shim are the *same* simulated process.
//!
//! Driving a `KdChoice` directly (static dispatch: `RoundProcess`
//! monomorphized over the concrete RNG) and driving the identical
//! configuration boxed as `Box<dyn BallsIntoBins>` (dynamic dispatch
//! through the shim) must consume the RNG identically and therefore
//! produce identical results — not just in distribution, but exactly:
//! same sorted load vector, same histograms, same every observable.

use kdchoice_core::{
    run_once, run_once_with_state, BallsIntoBins, KdChoice, RoundPolicy, RunConfig,
};
use kdchoice_prng::Xoshiro256PlusPlus;
use rand::{Rng, RngCore};

/// Runs one config through the generic (static-dispatch) driver path.
fn run_generic(k: usize, d: usize, cfg: &RunConfig) -> kdchoice_core::RunResult {
    let mut p = KdChoice::new(k, d).expect("valid (k,d)");
    run_once(&mut p, cfg)
}

/// Runs the same config through the object-safe shim (dynamic dispatch).
fn run_dyn(k: usize, d: usize, cfg: &RunConfig) -> kdchoice_core::RunResult {
    let mut p: Box<dyn BallsIntoBins> = Box::new(KdChoice::new(k, d).expect("valid (k,d)"));
    run_once(&mut *p, cfg)
}

#[test]
fn generic_and_dyn_paths_agree_on_random_instances() {
    let mut meta = Xoshiro256PlusPlus::from_u64(0xE9E9);
    let mut instances = 0;
    while instances < 240 {
        let d = meta.gen_range(1..=20usize);
        let k = meta.gen_range(1..=d);
        let n = 1usize << meta.gen_range(4..11u32); // 16 .. 1024 bins
        let heavy = meta.gen_range(1..4u64); // up to m = 3n (Theorem 2 regime)
        let seed = meta.next_u64();
        let cfg = RunConfig::new(n, seed).with_balls(heavy * n as u64);
        let a = run_generic(k, d, &cfg);
        let b = run_dyn(k, d, &cfg);
        // RunResult equality covers the full observable set: max load,
        // gap, message count, rounds, and both histograms (the load
        // histogram *is* the sorted load vector up to permutation).
        assert_eq!(
            a, b,
            "diverged between dispatch paths at k={k} d={d} n={n} seed={seed}"
        );
        instances += 1;
    }
    assert!(instances >= 200, "acceptance floor: >= 200 instances");
}

#[test]
fn generic_and_dyn_final_states_agree_exactly() {
    // Sharper than histogram equality: the per-bin load vectors coincide,
    // bin by bin, because both paths draw the same bins in the same order.
    let mut meta = Xoshiro256PlusPlus::from_u64(77);
    for _ in 0..25 {
        let d = meta.gen_range(1..=17usize);
        let k = meta.gen_range(1..=d);
        let seed = meta.next_u64();
        let cfg = RunConfig::new(512, seed);
        let (_, state_generic) = {
            let mut p = KdChoice::new(k, d).unwrap();
            run_once_with_state(&mut p, &cfg)
        };
        let (_, state_dyn) = {
            let mut p: Box<dyn BallsIntoBins> = Box::new(KdChoice::new(k, d).unwrap());
            run_once_with_state(&mut *p, &cfg)
        };
        assert_eq!(state_generic.loads(), state_dyn.loads(), "k={k} d={d}");
    }
}

#[test]
fn unrestricted_policy_also_agrees_across_dispatch_paths() {
    let mut meta = Xoshiro256PlusPlus::from_u64(4242);
    for _ in 0..40 {
        let d = meta.gen_range(1..=12usize);
        let k = meta.gen_range(1..=d);
        let seed = meta.next_u64();
        let cfg = RunConfig::new(256, seed);
        let a = {
            let mut p = KdChoice::new(k, d)
                .unwrap()
                .with_policy(RoundPolicy::Unrestricted);
            run_once(&mut p, &cfg)
        };
        let b = {
            let mut p: Box<dyn BallsIntoBins> = Box::new(
                KdChoice::new(k, d)
                    .unwrap()
                    .with_policy(RoundPolicy::Unrestricted),
            );
            run_once(&mut *p, &cfg)
        };
        assert_eq!(a, b, "k={k} d={d}");
    }
}
