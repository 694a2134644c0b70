//! Integration tests: measured maximum loads sit inside the Theorem 1 and
//! Theorem 2 bands, and the classical baselines behave per their citations.

use kdchoice::baselines::{AdaptiveProbing, DChoice, SingleChoice};
use kdchoice::kd::{run_trials, KdChoice, RunConfig};
use kdchoice::theory::bounds::{
    d_choice_prediction, single_choice_prediction, theorem1_band, theorem2_gap_band,
};

const N: usize = 1 << 14;
const TRIALS: usize = 8;

#[test]
fn theorem1_band_holds_across_regimes() {
    for &(k, d) in &[
        (1usize, 2usize), // classic two-choice
        (1, 8),           // d-choice
        (2, 4),           // dk = 2
        (8, 16),          // dk = 2, larger round
        (4, 5),           // dk → ∞ family
        (16, 17),
        (64, 65),
        (16, 32),
    ] {
        let set = run_trials(
            move |_| KdChoice::new(k, d).expect("valid"),
            &RunConfig::new(N, 31 + (k * 100 + d) as u64),
            TRIALS,
        );
        let band = theorem1_band(k, d, N, 3.0);
        let mean = set.mean_max_load();
        assert!(
            band.contains(mean),
            "({k},{d}): mean max {mean} outside [{:.2}, {:.2}]",
            band.lo,
            band.hi
        );
    }
}

#[test]
fn theorem2_gap_is_bounded_and_flat_for_d_at_least_2k() {
    for &(k, d) in &[(1usize, 2usize), (2, 4), (4, 8)] {
        let band = theorem2_gap_band(k, d, N, 2.0);
        let mut gaps = Vec::new();
        for ratio in [1u64, 8, 32] {
            let set = run_trials(
                move |_| KdChoice::new(k, d).expect("valid"),
                &RunConfig::new(N, 77 + ratio).with_balls(ratio * N as u64),
                4,
            );
            gaps.push(set.mean_gap());
        }
        for &g in &gaps {
            assert!(
                g <= band.hi + 1.0,
                "({k},{d}): gap {g} exceeds band hi {}",
                band.hi
            );
        }
        assert!(
            gaps[2] <= gaps[0] + 2.0,
            "({k},{d}): gap must not grow with m: {gaps:?}"
        );
    }
}

#[test]
fn single_choice_matches_raab_steger_shape() {
    let set = run_trials(|_| SingleChoice::new(), &RunConfig::new(N, 5), TRIALS);
    let predicted = single_choice_prediction(N);
    let mean = set.mean_max_load();
    // ln n/lnln n times a modest constant window.
    assert!(
        mean > predicted && mean < 3.0 * predicted,
        "single choice mean {mean} vs prediction {predicted}"
    );
}

#[test]
fn d_choice_matches_azar_et_al_shape() {
    for d in [2usize, 4, 8] {
        let set = run_trials(
            move |_| DChoice::new(d).expect("valid"),
            &RunConfig::new(N, 6 + d as u64),
            TRIALS,
        );
        let predicted = d_choice_prediction(N, d);
        let mean = set.mean_max_load();
        assert!(
            mean >= predicted - 1.0 && mean <= predicted + 3.0,
            "greedy[{d}]: mean {mean} vs prediction {predicted}"
        );
    }
}

#[test]
fn kd_choice_equals_d_choice_when_k_is_1() {
    // A(1,d) IS d-choice; distributions must agree closely.
    let kd = run_trials(
        |_| KdChoice::new(1, 3).expect("valid"),
        &RunConfig::new(N, 8),
        TRIALS,
    );
    let dc = run_trials(
        |_| DChoice::new(3).expect("valid"),
        &RunConfig::new(N, 9),
        TRIALS,
    );
    assert!(
        (kd.mean_max_load() - dc.mean_max_load()).abs() <= 0.5,
        "A(1,3) {} vs greedy[3] {}",
        kd.mean_max_load(),
        dc.mean_max_load()
    );
}

#[test]
fn kd_choice_with_k_equal_d_is_single_choice() {
    let kd = run_trials(
        |_| KdChoice::new(4, 4).expect("valid"),
        &RunConfig::new(N, 10),
        TRIALS,
    );
    let sc = run_trials(|_| SingleChoice::new(), &RunConfig::new(N, 11), TRIALS);
    assert!(
        (kd.mean_max_load() - sc.mean_max_load()).abs() <= 1.2,
        "SA(4,4) {} vs single choice {}",
        kd.mean_max_load(),
        sc.mean_max_load()
    );
}

#[test]
fn adaptive_scheme_hits_its_cited_tradeoff() {
    // Czumaj–Stemann-style: lnln-grade load with (1+o(1))n messages.
    let set = run_trials(
        |_| AdaptiveProbing::new(1, 32).expect("valid"),
        &RunConfig::new(N, 12),
        TRIALS,
    );
    assert!(set.mean_max_load() <= 4.0);
    let mpb: f64 = set
        .results
        .iter()
        .map(|r| r.messages_per_ball())
        .sum::<f64>()
        / set.results.len() as f64;
    assert!(mpb < 1.4, "messages per ball {mpb}");
}

#[test]
fn message_accounting_matches_cost_model() {
    use kdchoice::theory::cost::total_messages;
    for &(k, d) in &[(1usize, 2usize), (2, 3), (16, 32)] {
        let set = run_trials(
            move |_| KdChoice::new(k, d).expect("valid"),
            &RunConfig::new(N, 13),
            2,
        );
        for r in &set.results {
            assert_eq!(r.messages, total_messages(k, d, N as u64));
        }
    }
}
