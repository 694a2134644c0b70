//! Theory regression for the memory-bounded stores: the steady-state
//! gap of an open-loop run at λ = 0.9 must sit inside the Theorem 2
//! envelope (`theorem2_gap_band`) when decisions read a `packed4` slab.
//!
//! Setup notes:
//!
//! * Theorem 2 assumes `d >= 2k`, so the cells run `k = 1, d = 2`
//!   (plain two-choice).
//! * `threads = 1, refresh = 1`: decisions read fresh state, so the
//!   measured gap is a property of the store representation alone.
//! * At λ = 0.9 the steady mean live load per bin is ≈ 0.9 — far below
//!   the 4-bit saturation ceiling — so the packed4 run is lossless and
//!   its gap is the *exact* gap of the quantized decision stream.

use kdchoice_core::StoreKind;
use kdchoice_service::{run_open_loop, OpenLoopConfig};
use kdchoice_theory::bounds::theorem2_gap_band;

const N: usize = 1 << 12;
const SEED: u64 = 0xC0_FFEE;

fn config(store: StoreKind, seed: u64) -> OpenLoopConfig {
    let mut cfg = OpenLoopConfig::at_lambda(N, 1, 2, 0.9, 64.0, 2000, seed);
    cfg.threads = 1;
    cfg.shards = 8;
    cfg.snapshot_refresh = 1;
    cfg.store = store;
    cfg.sample_every = 4;
    cfg
}

#[test]
fn packed4_steady_gap_sits_in_theorem2_envelope() {
    let band = theorem2_gap_band(1, 2, N, 3.0);
    let report = run_open_loop(&config(StoreKind::Packed4, SEED));
    assert!(report.conserved, "packed4 run must conserve");
    println!(
        "packed4 steady gap {} band [{}, {}]",
        report.steady_gap_mean, band.lo, band.hi
    );
    assert!(
        report.steady_gap_mean >= band.lo && report.steady_gap_mean <= band.hi,
        "packed4 steady gap {} outside Theorem 2 band [{}, {}]",
        report.steady_gap_mean,
        band.lo,
        band.hi
    );
}

/// Below saturation a packed slab is a pure re-encoding of the exact
/// loads, so the whole open-loop run — decisions, histogram, every gap
/// sample — replays the exact store's stream bit for bit.
#[test]
fn packed_runs_replay_the_exact_decision_stream() {
    let exact = run_open_loop(&config(StoreKind::Exact, SEED));
    for store in [StoreKind::Packed4, StoreKind::Packed8] {
        let packed = run_open_loop(&config(store, SEED));
        assert_eq!(packed.final_histogram, exact.final_histogram, "{store}");
        assert_eq!(packed.steady_gap_mean, exact.steady_gap_mean, "{store}");
        assert_eq!(packed.final_max_load, exact.final_max_load, "{store}");
        assert_eq!(packed.live_balls, exact.live_balls, "{store}");
    }
}

/// Seeded golden bands: the committed seed's steady gap per store kind,
/// pinned with generous ± slack so only genuine regressions (a changed
/// decision stream, broken renormalization) trip it. Measured on the
/// committed configuration above: exact = packed4 = packed8 = 2.2971
/// (the packed runs stay lossless, so all three replay the identical
/// decision stream).
#[test]
fn steady_gap_golden_bands_per_store_kind() {
    for (store, lo, hi) in [
        (StoreKind::Exact, 1.0, 4.0),
        (StoreKind::Packed4, 1.0, 4.0),
        (StoreKind::Packed8, 1.0, 4.0),
    ] {
        let report = run_open_loop(&config(store, SEED));
        assert!(report.conserved, "{store} run must conserve");
        println!("{store}: steady gap {}", report.steady_gap_mean);
        assert!(
            report.steady_gap_mean >= lo && report.steady_gap_mean <= hi,
            "{store}: steady gap {} outside golden band [{lo}, {hi}]",
            report.steady_gap_mean,
        );
    }
}
