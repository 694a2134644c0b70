//! Property-based tests of the (k,d)-choice round invariants.

use kdchoice_core::{
    run_once, run_once_with_state, BallsIntoBins, KdChoice, LoadVector, RoundPolicy, RunConfig,
    SerializedKdChoice, SigmaSchedule,
};
use kdchoice_prng::Xoshiro256PlusPlus;
use proptest::prelude::*;

/// Strategy: a (k, d) pair with 1 ≤ k ≤ d ≤ 12.
fn kd_pair() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=12).prop_flat_map(|d| (1usize..=d, Just(d)))
}

/// Strategy: initial loads for a small bin set.
fn loads_vec() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..6, 2..10)
}

fn state_with(loads: &[u32]) -> LoadVector {
    let mut s = LoadVector::new(loads.len());
    for (b, &l) in loads.iter().enumerate() {
        for _ in 0..l {
            s.add_ball(b);
        }
    }
    s
}

proptest! {
    /// Ball conservation: a round adds exactly k balls (k ≤ d).
    #[test]
    fn round_conserves_balls(
        (k, d) in kd_pair(),
        loads in loads_vec(),
        seed in 0u64..1000,
    ) {
        let mut p = KdChoice::new(k, d).unwrap();
        let mut state = state_with(&loads);
        let before = state.total_balls();
        let mut rng = Xoshiro256PlusPlus::from_u64(seed);
        let mut heights = Vec::new();
        let stats = p.run_round(&mut state, &mut rng, &mut heights, u64::MAX);
        prop_assert_eq!(stats.thrown as usize, k);
        prop_assert_eq!(state.total_balls(), before + k as u64);
        prop_assert_eq!(heights.len(), k);
        prop_assert!(state.check_invariants());
    }

    /// Multiplicity rule: a bin sampled m times gains at most m balls.
    #[test]
    fn multiplicity_cap_holds(
        (k, d) in kd_pair(),
        loads in loads_vec(),
        seed in 0u64..1000,
    ) {
        let n = loads.len();
        let mut rng = Xoshiro256PlusPlus::from_u64(seed);
        use rand::Rng;
        let samples: Vec<usize> = (0..d).map(|_| rng.gen_range(0..n)).collect();
        let mut occurrences = vec![0u32; n];
        for &s in &samples { occurrences[s] += 1; }

        let mut p = KdChoice::new(k, d).unwrap();
        let mut state = state_with(&loads);
        let mut heights = Vec::new();
        p.place_round_with_samples(&mut state, &samples, k, &mut rng, &mut heights);
        for b in 0..n {
            prop_assert!(state.load(b) - loads[b] <= occurrences[b]);
        }
    }

    /// The kept set is downward closed in height: no committed ball has a
    /// height above any discarded tentative slot's height... equivalently,
    /// committed heights are the k smallest tentative heights.
    #[test]
    fn kept_heights_are_minimal(
        (k, d) in kd_pair(),
        loads in loads_vec(),
        seed in 0u64..1000,
    ) {
        let n = loads.len();
        let mut rng = Xoshiro256PlusPlus::from_u64(seed);
        use rand::Rng;
        let samples: Vec<usize> = (0..d).map(|_| rng.gen_range(0..n)).collect();
        // Tentative heights of all d slots.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let mut tentative: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let b = sorted[i];
            let mut occ = 0;
            while i < sorted.len() && sorted[i] == b {
                occ += 1;
                tentative.push(loads[b] + occ);
                i += 1;
            }
        }
        tentative.sort_unstable();

        let mut p = KdChoice::new(k, d).unwrap();
        let mut state = state_with(&loads);
        let mut heights = Vec::new();
        p.place_round_with_samples(&mut state, &samples, k, &mut rng, &mut heights);
        heights.sort_unstable();
        prop_assert_eq!(&heights[..], &tentative[..k]);
    }

    /// The unrestricted (water-filling) policy never produces a worse
    /// round-local maximum than the multiplicity policy on the same samples.
    #[test]
    fn unrestricted_dominates_multiplicity_per_round(
        (k, d) in kd_pair(),
        loads in loads_vec(),
        seed in 0u64..1000,
    ) {
        let n = loads.len();
        let mut rng = Xoshiro256PlusPlus::from_u64(seed);
        use rand::Rng;
        let samples: Vec<usize> = (0..d).map(|_| rng.gen_range(0..n)).collect();

        let run = |policy: RoundPolicy, rng: &mut Xoshiro256PlusPlus| {
            let mut p = KdChoice::new(k, d).unwrap().with_policy(policy);
            let mut state = state_with(&loads);
            let mut heights = Vec::new();
            p.place_round_with_samples(&mut state, &samples, k, rng, &mut heights);
            heights.iter().copied().max().unwrap_or(0)
        };
        let std_max = run(RoundPolicy::Multiplicity, &mut rng);
        let relaxed_max = run(RoundPolicy::Unrestricted, &mut rng);
        prop_assert!(relaxed_max <= std_max,
            "water-filling max {} > multiplicity max {}", relaxed_max, std_max);
    }

    /// Whole runs conserve balls and report consistent histograms.
    #[test]
    fn run_histograms_are_consistent(
        (k, d) in kd_pair(),
        n_exp in 6u32..10,
        seed in 0u64..500,
    ) {
        let n = 1usize << n_exp;
        let mut p = KdChoice::new(k, d).unwrap();
        let r = run_once(&mut p, &RunConfig::new(n, seed));
        prop_assert_eq!(r.balls_placed, n as u64);
        let bins: u64 = r.load_histogram.iter().sum();
        prop_assert_eq!(bins, n as u64);
        let balls: u64 = r.load_histogram.iter().enumerate()
            .map(|(l, &c)| l as u64 * c).sum();
        prop_assert_eq!(balls, n as u64);
        let placed: u64 = r.height_histogram.iter().sum();
        prop_assert_eq!(placed, n as u64);
        // nu_y <= mu_y for all y (Theorem 3's bridge inequality).
        for y in 0..=r.max_load {
            prop_assert!(r.nu(y) <= r.mu(y));
        }
    }

    /// σ permutations never change the coupled final vector.
    #[test]
    fn sigma_invariance_under_coupling(
        (k, d) in kd_pair(),
        seed in 0u64..300,
    ) {
        let n = 128;
        let run = |schedule| {
            let mut p = SerializedKdChoice::new(k, d, schedule).unwrap();
            let (_, st) = run_once_with_state(&mut p, &RunConfig::new(n, seed));
            st.sorted_descending()
        };
        prop_assert_eq!(run(SigmaSchedule::Identity), run(SigmaSchedule::Reverse));
    }

    /// Heavy runs: gap is non-negative and max load >= ceil(m/n).
    #[test]
    fn heavy_run_bounds(
        (k, d) in kd_pair(),
        ratio in 1u64..6,
        seed in 0u64..200,
    ) {
        let n = 128usize;
        let mut p = KdChoice::new(k, d).unwrap();
        let r = run_once(&mut p, &RunConfig::new(n, seed).with_balls(ratio * n as u64));
        prop_assert!(r.gap >= 0.0);
        prop_assert!(u64::from(r.max_load) >= ratio);
        prop_assert_eq!(r.balls_placed, ratio * n as u64);
    }

    /// LoadVector rank query is always within [1, n] and consistent with
    /// the load ordering.
    #[test]
    fn rank_of_is_consistent(
        loads in loads_vec(),
        seed in 0u64..200,
    ) {
        let state = state_with(&loads);
        let mut rng = Xoshiro256PlusPlus::from_u64(seed);
        let n = loads.len();
        for bin in 0..n {
            let rank = state.rank_of(bin, &mut rng);
            prop_assert!(rank >= 1 && rank <= n);
            // Bins with strictly larger loads must have strictly smaller
            // possible ranks: count them.
            let greater = loads.iter().filter(|&&l| l > loads[bin]).count();
            let ties = loads.iter().filter(|&&l| l == loads[bin]).count();
            prop_assert!(rank > greater);
            prop_assert!(rank <= greater + ties);
        }
    }
}
