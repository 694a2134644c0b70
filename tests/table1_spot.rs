//! Spot checks of the paper's Table 1 and its §1.2 narrative.
//!
//! The fast tests run at a reduced n (shapes are stable); the `full_` test
//! reproduces exact cells at the paper's n = 3·2¹⁶ and is `#[ignore]`d by
//! default (run with `cargo test --release -- --ignored`).

use kdchoice::baselines::SingleChoice;
use kdchoice::kd::{run_trials, KdChoice, RunConfig, TrialSet};

fn cell(n: usize, k: usize, d: usize, trials: usize, seed: u64) -> TrialSet {
    run_trials(
        move |_| KdChoice::new(k, d).expect("valid"),
        &RunConfig::new(n, seed),
        trials,
    )
}

const N_FAST: usize = 3 * (1 << 12);

#[test]
fn two_choice_cell_shape() {
    // Paper (1,2): 3, 4 at n = 3·2^16; at reduced n it stays in 3..=4.
    let set = cell(N_FAST, 1, 2, 10, 1);
    for r in &set.results {
        assert!(
            (3..=4).contains(&r.max_load),
            "two-choice max {}",
            r.max_load
        );
    }
}

#[test]
fn large_d_cells_reach_two() {
    // All d ≥ 9 columns with small k report 2 in the paper.
    for &(k, d) in &[(1usize, 9usize), (2, 17), (3, 25), (8, 65), (12, 193)] {
        let set = cell(N_FAST, k, d, 10, 2);
        assert_eq!(
            set.max_load_set_string(),
            "2",
            "({k},{d}) should reach the optimal max load 2"
        );
    }
}

#[test]
fn k_198_style_diagonal_cells_are_large() {
    // (k, k+1) with large k pays the ln dk/lnln dk term: max load ≥ 4.
    let set = cell(N_FAST, 192, 193, 10, 3);
    assert!(
        set.mean_max_load() >= 4.0,
        "diagonal cell too small: {}",
        set.mean_max_load()
    );
}

#[test]
fn section_1_2_observation_8_9_close_to_two_choice() {
    let a = cell(N_FAST, 8, 9, 10, 4);
    let b = cell(N_FAST, 1, 2, 10, 5);
    assert!(
        (a.mean_max_load() - b.mean_max_load()).abs() <= 1.0,
        "(8,9) {} vs two-choice {}",
        a.mean_max_load(),
        b.mean_max_load()
    );
}

#[test]
fn section_1_2_observation_128_193_beats_two_choice() {
    let big = cell(N_FAST, 128, 193, 10, 6);
    let two = cell(N_FAST, 1, 2, 10, 7);
    assert!(
        big.mean_max_load() < two.mean_max_load(),
        "(128,193) {} should beat two-choice {}",
        big.mean_max_load(),
        two.mean_max_load()
    );
    // And it matches (1,193).
    let pure = cell(N_FAST, 1, 193, 10, 8);
    assert_eq!(big.max_load_set_string(), pure.max_load_set_string());
}

#[test]
fn section_1_2_observation_64_65_beats_single_choice() {
    let kd = cell(N_FAST, 64, 65, 10, 9);
    let sc = run_trials(|_| SingleChoice::new(), &RunConfig::new(N_FAST, 10), 10);
    assert!(
        kd.mean_max_load() + 1.0 < sc.mean_max_load(),
        "(64,65) {} vs single choice {}",
        kd.mean_max_load(),
        sc.mean_max_load()
    );
}

/// Exact Table 1 cells at the paper's n. Slow; run with `-- --ignored`.
#[test]
#[ignore = "full paper-scale check; run with cargo test --release -- --ignored"]
fn full_table1_headline_cells() {
    let n = 3 * (1 << 16);
    let expectations: [(usize, usize, &[u32]); 6] = [
        (1, 2, &[3, 4]),
        (1, 3, &[3]),
        (2, 3, &[4]),
        (1, 9, &[2]),
        (8, 9, &[4]),
        (128, 193, &[2]),
    ];
    for (k, d, allowed) in expectations {
        let set = cell(n, k, d, 10, 11);
        for r in &set.results {
            assert!(
                allowed.contains(&r.max_load),
                "({k},{d}): observed {} outside paper set {allowed:?}",
                r.max_load
            );
        }
    }
}
