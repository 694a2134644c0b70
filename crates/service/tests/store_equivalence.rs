//! Equivalence and stress tests for the sharded concurrent store.
//!
//! 1. A 1-shard [`ShardedStore`] driven single-threaded is **bit-identical**
//!    to a plain [`LoadVector`] under the oracle's reference kernel on
//!    random placement/release op streams: same RNG consumption, same
//!    chosen bins, same loads, same canonical histogram, same cached
//!    observables.
//! 2. A multi-thread stress run asserts the merged-histogram invariants
//!    (histogram sums to `n`, total balls conserved, per-shard
//!    `check_invariants`) after concurrent placements and releases —
//!    including requests whose probes span every shard, exercising the
//!    canonical lock order.
//! 3. The **batched open-loop pipeline** is pinned to the single-thread
//!    oracle of `tests/common`, which replays the same request stream
//!    (same traffic schedule, same per-request RNGs) one request at a
//!    time on a plain `LoadVector`: every backend's one-thread run
//!    reproduces its report bit for bit, at batch sizes above one.

mod common;

use common::{assert_backends_match, reference_place};
use kdchoice_core::{BinStore, LoadVector};
use kdchoice_prng::sample::UniformBin;
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use kdchoice_service::{OpenLoopConfig, Placement, ShardedStore};
use proptest::prelude::*;

/// Serves one request through [`ShardedStore::place_batch`], a batch of
/// one.
fn place_one(
    store: &ShardedStore,
    probes: &[usize],
    k: usize,
    rng: &mut Xoshiro256PlusPlus,
) -> Placement {
    let mut batch = store.place_batch(probes, probes.len(), k, std::slice::from_mut(rng));
    batch.pop().expect("one request, one placement")
}

/// Asserts every observable of the 1-shard store matches the reference
/// `LoadVector` bit for bit.
fn assert_states_match(store: &ShardedStore, reference: &LoadVector) {
    let mut loads = Vec::new();
    store.copy_loads_into(&mut loads);
    assert_eq!(loads, reference.loads(), "per-bin loads diverged");
    assert_eq!(
        store.histogram(),
        reference.load_histogram(),
        "canonical histogram diverged"
    );
    assert_eq!(BinStore::max_load(store), reference.max_load());
    assert_eq!(BinStore::total_balls(store), reference.total_balls());
    for y in 0..=reference.max_load() + 1 {
        assert_eq!(BinStore::nu(store, y), reference.nu(y), "nu({y}) diverged");
    }
    assert_eq!(BinStore::gap(store), reference.gap());
    assert!(reference.check_invariants());
    assert!(store.check_invariants());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Random op streams: placements with random (k, d) and interleaved
    /// releases of the oldest live placement. The 1-shard store and the
    /// reference consume identically-seeded RNGs; every op must leave
    /// both sides in the same state and pick the same bins.
    #[test]
    fn one_shard_store_is_bit_identical_to_load_vector(
        seed in any::<u64>(),
        n in 1usize..50,
        ops in prop::collection::vec((0u8..4, 1usize..9), 1..80),
    ) {
        let store = ShardedStore::new(n, 1);
        let mut reference = LoadVector::new(n);
        let mut rng_store = Xoshiro256PlusPlus::from_u64(seed);
        let mut rng_ref = Xoshiro256PlusPlus::from_u64(seed);
        let sampler = UniformBin::new(n);
        let mut live: Vec<Placement> = Vec::new();

        for (kind, size) in ops {
            if kind == 0 && !live.is_empty() {
                let placement = live.remove(0);
                store.release(&placement.bins);
                for &bin in &placement.bins {
                    reference.remove_ball(bin);
                }
            } else {
                let d = size; // 1..9
                let k = 1 + (usize::from(kind) % d);
                prop_assume!(k <= d);
                // One probe stream, replayed for both sides.
                let probes: Vec<usize> =
                    (0..d).map(|_| sampler.sample(&mut rng_store)).collect();
                let probes_ref: Vec<usize> =
                    (0..d).map(|_| sampler.sample(&mut rng_ref)).collect();
                prop_assert_eq!(&probes, &probes_ref, "probe streams must agree");
                let placement = place_one(&store, &probes, k, &mut rng_store);
                let chosen = reference_place(&mut reference, &probes, k, &mut rng_ref);
                prop_assert_eq!(&placement.bins, &chosen, "chosen bins diverged");
                live.push(placement);
            }
            assert_states_match(&store, &reference);
        }
    }
}

/// Every backend's batched pipeline on one thread is bit-identical to
/// the oracle, which serves the same request stream one request at a
/// time.
#[test]
fn batched_pipeline_matches_the_oracle() {
    for (lambda, max_batch, seed) in [(0.7, 5, 0x5EED_0001u64), (1.2, 32, 0x5EED_0002)] {
        let mut config = OpenLoopConfig::at_lambda(96, 2, 4, lambda, 8.0, 150, seed);
        config.shards = 8;
        config.max_batch = max_batch;
        assert_backends_match(config, &format!("λ={lambda} batch={max_batch}"));
    }
}

/// Per-thread tallies from the stress run.
struct ClientTally {
    placed: u64,
    released: u64,
}

#[test]
fn concurrent_stress_conserves_balls_and_invariants() {
    let n = 509; // prime: every shard gets an uneven bin count
    let shards = 8;
    let threads = 8;
    let requests = 3_000;
    let store = ShardedStore::new(n, shards);
    let sampler = UniformBin::new(n);

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let store = &store;
                scope.spawn(move || {
                    let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(0xC0FFEE, t as u64));
                    let mut live: Vec<Placement> = Vec::new();
                    let mut tally = ClientTally {
                        placed: 0,
                        released: 0,
                    };
                    for i in 0..requests {
                        // Vary the request shape: k in 1..=3, d in k..=k+5;
                        // every 97th request probes one bin per shard so
                        // the full canonical lock chain is exercised under
                        // contention.
                        let k = 1 + i % 3;
                        let probes: Vec<usize> = if i % 97 == 0 {
                            (0..shards).collect()
                        } else {
                            let d = k + 1 + i % 5;
                            (0..d).map(|_| sampler.sample(&mut rng)).collect()
                        };
                        let k = k.min(probes.len());
                        let placement = place_one(store, &probes, k, &mut rng);
                        tally.placed += placement.bins.len() as u64;
                        live.push(placement);
                        if live.len() > 32 {
                            let oldest = live.remove(0);
                            tally.released += oldest.bins.len() as u64;
                            store.release(&oldest.bins);
                        }
                    }
                    // Drain half of what's left so the final state mixes
                    // live and released placements.
                    for placement in live.drain(..live.len() / 2) {
                        tally.released += placement.bins.len() as u64;
                        store.release(&placement.bins);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress client must not panic"))
            .collect()
    });

    let placed: u64 = tallies.iter().map(|t| t.placed).sum();
    let released: u64 = tallies.iter().map(|t| t.released).sum();
    assert!(placed > 0 && released > 0);

    // Merged-histogram invariants after the dust settles.
    assert!(
        store.check_invariants(),
        "shard or merged invariants broken"
    );
    let histogram = store.histogram();
    assert_eq!(
        histogram.iter().sum::<u64>(),
        n as u64,
        "histogram must sum to n"
    );
    assert_eq!(
        store.total_balls(),
        placed - released,
        "total balls must be conserved"
    );
    let balls_from_histogram: u64 = histogram
        .iter()
        .enumerate()
        .map(|(load, &count)| count * load as u64)
        .sum();
    assert_eq!(balls_from_histogram, placed - released);
    assert_eq!(store.nu(0), n as u64);
    assert!(store.max_load() > 0);
}
