//! Integration tests of the proof-level observables: Lemma 2 (µ_y for
//! single choice drops factorially), Lemma 11 (ν_y is factorially large from
//! below), Lemma 3 (µ of (k,d)-choice is dominated by single choice), and
//! the layered-induction shape ν_{y0+i} ≤ β_i of Theorem 4.

use kdchoice::baselines::SingleChoice;
use kdchoice::kd::{run_once, run_trials, KdChoice, RunConfig};
use kdchoice::theory::dk_ratio;
use kdchoice::theory::sequences::{beta_sequence, y1_from_dk};

const N: usize = 1 << 14;

fn factorial(y: u32) -> f64 {
    (1..=u64::from(y)).map(|i| i as f64).product()
}

#[test]
fn lemma2_mu_upper_bound_for_single_choice() {
    // Pr(µ_y >= 8n/y!) is tiny: check µ_y <= 8n/y! on several runs.
    let set = run_trials(|_| SingleChoice::new(), &RunConfig::new(N, 1), 6);
    for r in &set.results {
        for y in 1..=r.max_load {
            let bound = 8.0 * N as f64 / factorial(y);
            assert!(
                (r.mu(y) as f64) <= bound.max(12.0),
                "µ_{y} = {} exceeds Lemma 2 bound {bound:.1}",
                r.mu(y)
            );
        }
    }
}

#[test]
fn lemma11_nu_lower_bound_for_single_choice() {
    // Pr(ν_y <= n/(8·y!)) is tiny for y ≪ √n: check ν_y >= n/(8·y!) for the
    // first few levels.
    let set = run_trials(|_| SingleChoice::new(), &RunConfig::new(N, 2), 6);
    for r in &set.results {
        for y in 1..=3u32 {
            let bound = N as f64 / (8.0 * factorial(y));
            assert!(
                (r.nu(y) as f64) >= bound,
                "ν_{y} = {} below Lemma 11 bound {bound:.1}",
                r.nu(y)
            );
        }
    }
}

#[test]
fn lemma3_kd_heights_are_dominated_by_single_choice() {
    // Pr(µ^SA_y >= t) >= Pr(µ^A_y >= t): on means, µ^A_y <= µ^SA_y (+noise).
    let trials = 10;
    let kd = run_trials(
        |_| KdChoice::new(3, 6).expect("valid"),
        &RunConfig::new(N, 3),
        trials,
    );
    let sa = run_trials(|_| SingleChoice::new(), &RunConfig::new(N, 4), trials);
    let mean_mu = |set: &kdchoice::kd::TrialSet, y: u32| -> f64 {
        set.results.iter().map(|r| r.mu(y) as f64).sum::<f64>() / set.results.len() as f64
    };
    for y in 2..=6u32 {
        let a = mean_mu(&kd, y);
        let s = mean_mu(&sa, y);
        assert!(
            a <= s * 1.05 + 5.0,
            "µ_{y}: (3,6)-choice {a} not dominated by single choice {s}"
        );
    }
}

#[test]
fn theorem4_layered_induction_shape_holds_empirically() {
    // ν_{y0+i} <= β_i for the β-sequence of Theorem 4 (with y0 from
    // Theorem 3). The constants are generous at finite n, so check with a
    // 2x slack factor.
    for &(k, d) in &[(1usize, 2usize), (2, 3), (4, 8)] {
        let mut p = KdChoice::new(k, d).expect("valid");
        let r = run_once(&mut p, &RunConfig::new(N, 5));
        let y0 = y1_from_dk(dk_ratio(k, d)) + 1;
        let seq = beta_sequence(N, k, d);
        for (i, &beta_i) in seq.values.iter().enumerate() {
            let nu = r.nu(y0 + i as u32) as f64;
            assert!(
                nu <= 2.0 * beta_i,
                "({k},{d}): ν_{{y0+{i}}} = {nu} exceeds 2·β_{i} = {:.1}",
                2.0 * beta_i
            );
        }
        // And the end of the induction: nothing above y0 + i* + 2.
        let top = y0 + seq.i_star as u32 + 2;
        assert!(
            r.nu(top + 1) <= 1,
            "({k},{d}): load above y0+i*+2 = {top} should be (almost) empty"
        );
    }
}

#[test]
fn nu_mu_bridge_inequality() {
    // ν_y ≤ µ_y for every process and level (used in Theorem 3's proof).
    let mut p = KdChoice::new(2, 5).expect("valid");
    let r = run_once(&mut p, &RunConfig::new(N, 6));
    for y in 0..=r.max_load {
        assert!(r.nu(y) <= r.mu(y));
    }
}
