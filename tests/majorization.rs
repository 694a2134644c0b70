//! Integration tests for Properties (ii)–(v) of §3: the majorization
//! relations between (k,d)-choice processes, checked on trial-averaged
//! prefix sums of sorted load vectors.

use kdchoice::kd::{run_trials, KdChoice, RunConfig, TrialSet};
use kdchoice::stats::order::empirical_majorization;

const N: usize = 1 << 11;
const TRIALS: usize = 50;

fn trials(k: usize, d: usize, seed: u64) -> TrialSet {
    run_trials(
        move |_| KdChoice::new(k, d).expect("valid"),
        &RunConfig::new(N, seed),
        TRIALS,
    )
}

/// Sampling tolerance for mean prefix-sum comparisons.
const TOL: f64 = 0.012;

fn assert_majorized(label: &str, a: &TrialSet, b: &TrialSet) {
    let report = empirical_majorization(&a.sorted_load_vectors(), &b.sorted_load_vectors());
    assert!(
        report.max_relative_violation <= TOL,
        "{label}: violation {} at prefix {} (fraction {})",
        report.max_relative_violation,
        report.argmax_prefix,
        report.violated_fraction
    );
}

#[test]
fn property_ii_more_probes_majorized_by_fewer() {
    // A(k, d+α) ≤mj A(k, d).
    let more = trials(2, 6, 11);
    let fewer = trials(2, 4, 12);
    assert_majorized("A(2,6) ≤mj A(2,4)", &more, &fewer);
}

#[test]
fn property_iii_fewer_balls_majorized_by_more() {
    // A(k−α, d) ≤mj A(k, d).
    let fewer_balls = trials(1, 4, 13);
    let more_balls = trials(3, 4, 14);
    assert_majorized("A(1,4) ≤mj A(3,4)", &fewer_balls, &more_balls);
}

#[test]
fn property_iv_scaled_rounds_majorized_by_unscaled() {
    // A(αk, αd) ≤mj A(k, d).
    let scaled = trials(4, 8, 15);
    let unscaled = trials(2, 4, 16);
    assert_majorized("A(4,8) ≤mj A(2,4)", &scaled, &unscaled);
    let scaled = trials(6, 9, 17);
    let unscaled = trials(2, 3, 18);
    assert_majorized("A(6,9) ≤mj A(2,3)", &scaled, &unscaled);
}

#[test]
fn property_v_diagonal_moves_toward_single_choice() {
    // A(k, d) ≤mj A(k+α, d+α).
    let tight = trials(1, 2, 19);
    let diagonal = trials(3, 4, 20);
    assert_majorized("A(1,2) ≤mj A(3,4)", &tight, &diagonal);
    let tight = trials(2, 4, 21);
    let diagonal = trials(4, 6, 22);
    assert_majorized("A(2,4) ≤mj A(4,6)", &tight, &diagonal);
}

#[test]
fn majorization_chain_of_theorem2_coupling() {
    // The §3.2 chain: A(1, d−k+1) ≤mj A(k,d) ≤mj A(1, ⌊d/k⌋).
    let (k, d) = (2usize, 6usize);
    let lower = trials(1, d - k + 1, 23); // A(1,5)
    let mid = trials(k, d, 24);
    let upper = trials(1, d / k, 25); // A(1,3)
    assert_majorized("A(1,d−k+1) ≤mj A(k,d)", &lower, &mid);
    assert_majorized("A(k,d) ≤mj A(1,⌊d/k⌋)", &mid, &upper);
}

#[test]
fn single_choice_majorizes_every_kd_choice() {
    // A(k,d) with k<d is always at least as balanced as single choice
    // (k = d degenerate), the coarsest sanity check of the family ordering.
    let kd = trials(3, 6, 26);
    let single = trials(2, 2, 27);
    assert_majorized("A(3,6) ≤mj SA", &kd, &single);
}
