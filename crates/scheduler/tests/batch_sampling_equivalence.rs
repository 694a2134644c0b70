//! Pins the §1.3 claim made by the scheduler doc-comment:
//! [`PlacementStrategy::BatchSampling`] with probe budget `d·k` **is**
//! the core (k, d·k)-choice process — on identical load snapshots, with
//! coupled RNG streams, the two implementations choose the same workers.
//!
//! Coupling: both sides draw their samples with
//! `fill_with_replacement(rng, n, d·k)` and then break ties with one
//! `next_u64` key per tentative slot in sorted-bin order (the scheduler
//! in `select_k_least_loaded`, the core in `decide_k_least`). Feeding both
//! the same seeded generator therefore makes them bit-equal, not merely
//! equal in distribution.

use kdchoice_core::{decide_k_least, LoadVector};
use kdchoice_prng::sample::fill_with_replacement;
use kdchoice_prng::Xoshiro256PlusPlus;
use kdchoice_scheduler::PlacementStrategy;
use rand::Rng;

/// Builds a `LoadVector` with the given per-bin loads.
fn load_vector(loads: &[u32]) -> LoadVector {
    let mut state = LoadVector::new(loads.len());
    for (bin, &load) in loads.iter().enumerate() {
        for _ in 0..load {
            state.add_ball(bin);
        }
    }
    state
}

/// One coupled round: scheduler batch sampling vs core (k, d·k)-choice on
/// the same snapshot and RNG stream. Returns (scheduler multiset, core
/// per-bin gains).
fn coupled_round(loads: &[u32], k: usize, d_per_task: usize, seed: u64) -> (Vec<usize>, Vec<u32>) {
    let n = loads.len();
    let probes = d_per_task * k;

    // Scheduler side: BatchSampling probes d·k workers, places the k
    // tasks on the k least loaded (multiplicities respected).
    let mut sched_rng = Xoshiro256PlusPlus::from_u64(seed);
    let strategy = PlacementStrategy::BatchSampling {
        probes_per_task: d_per_task,
    };
    let (mut chosen, probe_messages) = strategy.choose_workers(loads, k, &mut sched_rng);
    assert_eq!(probe_messages, probes as u64);
    chosen.sort_unstable();

    // Core side: draw the identical sample set from an identically seeded
    // stream, sort it, and decide one (k, d·k)-choice round with
    // `decide_k_least`, the remainder of the stream breaking ties.
    let mut core_rng = Xoshiro256PlusPlus::from_u64(seed);
    let mut samples = Vec::with_capacity(probes);
    fill_with_replacement(&mut core_rng, n, probes, &mut samples);
    samples.sort_unstable();
    let state = load_vector(loads);
    let (mut slots, mut winners) = (Vec::new(), Vec::new());
    decide_k_least(&state, &samples, k, &mut core_rng, &mut slots, &mut winners);
    let mut gains = vec![0u32; n];
    for bin in winners {
        gains[bin] += 1;
    }
    (chosen, gains)
}

#[test]
fn batch_sampling_equals_core_kd_choice_on_coupled_streams() {
    let mut meta_rng = Xoshiro256PlusPlus::from_u64(0xC0FFEE);
    for trial in 0..300 {
        let n = meta_rng.gen_range(2..40);
        let k = meta_rng.gen_range(1..=6usize);
        let d_per_task = meta_rng.gen_range(1..=4usize);
        let loads: Vec<u32> = (0..n).map(|_| meta_rng.gen_range(0..8)).collect();
        let seed = meta_rng.gen_range(0..u64::MAX);

        let (chosen, gains) = coupled_round(&loads, k, d_per_task, seed);

        // The scheduler's chosen-worker multiset must equal the bins the
        // core process placed balls into, with multiplicity.
        let mut core_multiset = Vec::new();
        for (bin, &gain) in gains.iter().enumerate() {
            for _ in 0..gain {
                core_multiset.push(bin);
            }
        }
        assert_eq!(
            chosen, core_multiset,
            "trial {trial}: n={n} k={k} d={d_per_task} loads={loads:?}"
        );
        assert_eq!(chosen.len(), k);
    }
}

#[test]
fn batch_sampling_respects_the_multiplicity_rule_like_the_core() {
    // A worker probed m times receives at most m tasks — the defining
    // constraint of the paper's process, checked through the coupling.
    let mut meta_rng = Xoshiro256PlusPlus::from_u64(7);
    for _ in 0..100 {
        let n = meta_rng.gen_range(2..6);
        let k = meta_rng.gen_range(2..=5usize);
        let loads: Vec<u32> = (0..n).map(|_| meta_rng.gen_range(0..3)).collect();
        let seed = meta_rng.gen_range(0..u64::MAX);

        let mut rng = Xoshiro256PlusPlus::from_u64(seed);
        let mut samples = Vec::new();
        fill_with_replacement(&mut rng, n, 2 * k, &mut samples);
        let mut occurrences = vec![0usize; n];
        for &s in &samples {
            occurrences[s] += 1;
        }

        let (chosen, _) = coupled_round(&loads, k, 2, seed);
        let mut placed = vec![0usize; n];
        for &w in &chosen {
            placed[w] += 1;
        }
        for bin in 0..n {
            assert!(
                placed[bin] <= occurrences[bin],
                "worker {bin} probed {} times but received {} tasks",
                occurrences[bin],
                placed[bin]
            );
        }
    }
}
