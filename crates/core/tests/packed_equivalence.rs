//! Property-based equivalence of [`PackedStore`] against [`LoadVector`]
//! in the lossless window, plus bit-identical (k,d)-choice *placement*
//! streams through the shared decision kernel — the proptest lock on
//! the compact-store quantization contract.

use kdchoice_core::{decide_k_least, BinStore, LoadVector, PackedStore, StoreKind};
use kdchoice_prng::Xoshiro256PlusPlus;
use proptest::prelude::*;
use rand::{Rng, RngCore};

/// An operation stream that keeps every load inside the b-bit window
/// when replayed from empty: interleaved adds and matched removes over
/// a small bin set.
fn op_stream(bins: usize, ops: usize) -> impl Strategy<Value = Vec<(bool, usize)>> {
    prop::collection::vec((any::<bool>(), 0..bins), 1..ops + 1)
}

/// Replays `ops` on both stores, skipping adds that would leave the
/// window and removes of empty bins (so the stream is lossless by
/// construction), asserting every return value matches.
fn replay_lossless(bits: u32, bins: usize, ops: &[(bool, usize)]) -> (PackedStore, LoadVector) {
    let mut packed = PackedStore::new(bins, bits);
    let mut exact = LoadVector::new(bins);
    let window = (1u32 << bits) - 1;
    for &(is_add, bin) in ops {
        if is_add {
            // Stay within `window` of the current minimum so no counter
            // can pin even after renormalizations.
            let min = (0..bins).map(|b| exact.load(b)).min().unwrap();
            if exact.load(bin) - min < window {
                assert_eq!(packed.add_ball(bin), exact.add_ball(bin));
            }
        } else if exact.load(bin) > 0 && {
            // Removes below the running base would clamp; the base never
            // exceeds the historical minimum load, so staying above the
            // current minimum is safe.
            let min = (0..bins).map(|b| exact.load(b)).min().unwrap();
            exact.load(bin) > min || packed.base() < exact.load(bin)
        } {
            assert_eq!(packed.remove_ball(bin), exact.remove_ball(bin));
        }
    }
    (packed, exact)
}

proptest! {
    /// Random op streams inside the window: every observable of the
    /// packed store is bit-identical to the exact store.
    #[test]
    fn packed_observables_match_exact_in_window(
        ops in op_stream(9, 400),
        wide in any::<bool>(),
    ) {
        let bits = if wide { 8u32 } else { 4 };
        let (packed, exact) = replay_lossless(bits, 9, &ops);
        prop_assert!(packed.is_lossless());
        prop_assert_eq!(packed.load_histogram(), exact.load_histogram());
        prop_assert_eq!(BinStore::max_load(&packed), exact.max_load());
        prop_assert_eq!(packed.total_balls(), exact.total_balls());
        for y in 0..6 {
            prop_assert_eq!(packed.nu(y), exact.nu(y));
        }
        for bin in 0..9 {
            prop_assert_eq!(packed.load(bin), exact.load(bin));
        }
        let (mut pl, mut el) = (Vec::new(), Vec::new());
        BinStore::copy_loads_into(&packed, &mut pl);
        exact.copy_loads_into(&mut el);
        prop_assert_eq!(pl, el);
        prop_assert!(packed.check_invariants());
        prop_assert!(exact.check_invariants());
    }

    /// The placement stream itself is bit-identical: the same seeded
    /// (k,d)-choice decisions against a packed4 view pick the same
    /// winner bins in the same order as against the exact view, while
    /// loads stay in the window.
    #[test]
    fn packed_placements_are_bit_identical_in_window(
        seed in 0u64..500,
        k in 1usize..=3,
        extra in 0usize..=3,
        rounds in 1usize..60,
    ) {
        let d = k + extra;
        let n = 16usize;
        let mut packed = StoreKind::Packed4.new_slab(n);
        let mut exact = LoadVector::new(n);
        let mut rng_p = Xoshiro256PlusPlus::from_u64(seed);
        let mut rng_e = Xoshiro256PlusPlus::from_u64(seed);
        let (mut slots, mut probes) = (Vec::new(), Vec::new());
        // The stream is assertion-guarded rather than bounded a priori:
        // the moment a counter clamps (possible when d == k degenerates
        // to random placement) the lossless contract ends, so we stop.
        let mut lossless = true;
        'rounds: for _ in 0..rounds {
            probes.clear();
            probes.extend((0..d).map(|_| rng_p.next_u64() as usize % n));
            // Drive the exact RNG identically.
            for _ in 0..d { rng_e.next_u64(); }
            probes.sort_unstable();
            let (mut bins_p, mut bins_e) = (Vec::new(), Vec::new());
            let h_p = decide_k_least(&packed, &probes, k, &mut rng_p, &mut slots, &mut bins_p);
            let h_e = decide_k_least(&exact, &probes, k, &mut rng_e, &mut slots, &mut bins_e);
            prop_assert_eq!(&bins_p, &bins_e);
            prop_assert_eq!(h_p, h_e);
            for &bin in &bins_p {
                let got = packed.add_ball(bin);
                let want = exact.add_ball(bin);
                let still_lossless = match &packed {
                    kdchoice_core::BinSlab::Packed(p) => p.is_lossless(),
                    _ => unreachable!(),
                };
                if !still_lossless {
                    lossless = false;
                    break 'rounds;
                }
                prop_assert_eq!(got, want);
            }
        }
        if lossless {
            prop_assert_eq!(packed.histogram(), BinStore::histogram(&exact));
        }
        prop_assert!(packed.check_invariants());
    }

    /// Unrestricted churn (clamps allowed): the packed store never
    /// corrupts its caches, keeps the exact ball count, and quantized
    /// loads always sit within the window of the base.
    #[test]
    fn packed_saturating_churn_keeps_invariants(
        ops in op_stream(5, 600),
        wide in any::<bool>(),
    ) {
        let bits = if wide { 8u32 } else { 4 };
        let bins = 5;
        let mut packed = PackedStore::new(bins, bits);
        let mut true_loads = vec![0u64; bins];
        for &(is_add, bin) in &ops {
            if is_add {
                packed.add_ball(bin);
                true_loads[bin] += 1;
            } else if true_loads[bin] > 0 {
                packed.remove_ball(bin);
                true_loads[bin] -= 1;
            }
        }
        prop_assert_eq!(packed.total_balls(), true_loads.iter().sum::<u64>());
        let window = (1u32 << bits) - 1;
        for bin in 0..bins {
            let q = packed.load(bin);
            prop_assert!(q >= packed.base() && q <= packed.base() + window);
        }
        prop_assert!(packed.check_invariants());
    }
}

/// Deterministic saturation edge: a counter pinned at 2^b − 1 absorbs
/// adds, reports the loss, and resumes exact counting once removes
/// bring the quantized load back to the truth.
#[test]
fn saturation_edge_pins_and_recovers() {
    for bits in [4u32, 8] {
        let top = (1u32 << bits) - 1;
        let mut packed = PackedStore::new(2, bits);
        for expect in 1..=top {
            assert_eq!(packed.add_ball(0), expect);
        }
        assert_eq!(packed.load(0), top);
        assert!(packed.is_lossless());
        // Bin 1 is empty, so the minimum offset is 0 and renormalization
        // cannot help: the counter pins.
        assert_eq!(packed.add_ball(0), top);
        assert_eq!(packed.clamped_adds(), 1);
        assert_eq!(packed.total_balls(), u64::from(top) + 1);
        assert!(packed.check_invariants());
    }
}

/// Deterministic base bump: when every bin's offset rises, a saturating
/// add triggers a renormalization that bumps the base and changes no
/// quantized load.
#[test]
fn base_level_bump_preserves_quantized_loads() {
    let mut packed = PackedStore::new(4, 4);
    for _ in 0..15 {
        for bin in 0..4 {
            packed.add_ball(bin);
        }
    }
    assert_eq!(packed.base(), 0);
    let before: Vec<u32> = (0..4).map(|b| packed.load(b)).collect();
    assert_eq!(before, vec![15; 4]);
    // The 16th add renormalizes (min offset 15), then increments.
    assert_eq!(packed.add_ball(0), 16);
    assert_eq!(packed.base(), 15);
    assert_eq!(packed.renormalizations(), 1);
    assert!(packed.is_lossless());
    assert_eq!(packed.load(1), 15, "peers keep their quantized load");
    assert!(packed.check_invariants());
}

/// remove_ball across a renormalization boundary: quantized loads are
/// absolute, so descending through a historical base bump stays exact
/// until the current base, then clamps.
#[test]
fn remove_across_renormalization_boundary_clamps_at_base() {
    let mut packed = PackedStore::new(2, 4);
    let mut exact = LoadVector::new(2);
    for _ in 0..22 {
        for bin in 0..2 {
            assert_eq!(packed.add_ball(bin), exact.add_ball(bin));
        }
    }
    let base = packed.base();
    assert!(base > 0);
    for _ in 0..(22 - base) {
        for bin in 0..2 {
            assert_eq!(packed.remove_ball(bin), exact.remove_ball(bin));
        }
    }
    assert!(packed.is_lossless());
    assert_eq!(packed.load(0), base);
    assert_eq!(packed.remove_ball(0), base, "below the base: clamped");
    assert_eq!(packed.clamped_removes(), 1);
    assert!(packed.check_invariants());
}

/// A (2,4)-choice fill through the decision kernel at n=256 stays
/// lossless for packed4 far beyond n balls — the d-choice gap is what
/// makes a 4-bit window realistic.
#[test]
fn two_choice_fill_stays_lossless_at_packed4() {
    let n = 256;
    let mut slab = StoreKind::Packed4.new_slab(n);
    let mut rng = Xoshiro256PlusPlus::from_u64(0xC0FFEE);
    let (mut slots, mut probes, mut bins) = (Vec::new(), Vec::new(), Vec::new());
    // 32n balls: the average load (32) is far past the 4-bit ceiling, so
    // losslessness can only survive through repeated renormalizations.
    for _ in 0..16 * n {
        probes.clear();
        probes.extend((0..4).map(|_| rng.gen_range(0..n)));
        probes.sort_unstable();
        bins.clear();
        decide_k_least(&slab, &probes, 2, &mut rng, &mut slots, &mut bins);
        for &bin in &bins {
            slab.add_ball(bin);
        }
    }
    assert_eq!(slab.total_balls(), 32 * n as u64);
    match &slab {
        kdchoice_core::BinSlab::Packed(p) => {
            assert!(p.is_lossless(), "4-bit window must hold under (2,4)-choice");
            assert!(p.renormalizations() > 0, "the base must have advanced");
        }
        _ => unreachable!(),
    }
    assert!(slab.check_invariants());
}
