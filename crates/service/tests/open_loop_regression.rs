//! Statistical regression: under open-loop churn at λ = 0.9 capacity
//! with two-choice placement (k=1, d=2), the steady-state gap stays
//! O(log log n)-sized.
//!
//! Two envelopes are asserted, both on a **seeded** run (single thread,
//! batched pipeline — fully deterministic, so this is a golden
//! regression, not a flaky distributional test):
//!
//! 1. a theory cross-check: the steady gap must sit below the
//!    `kdchoice-theory` Theorem 2 upper edge `lnln n / ln⌊d/k⌋ + O(1)`
//!    (the heavily-loaded bound is the right yardstick for a churning
//!    steady state near average load ≈ λ), and scale like `lnln n`
//!    rather than `ln n` as `n` grows;
//! 2. a golden envelope: the exact steady-gap values for the pinned
//!    seeds must stay inside a recorded band, so a placement-pipeline
//!    regression that quietly worsens balance fails loudly.
//!
//! A third test pins the open-loop stream itself: FNV digests of every
//! deterministic report field, per backend, store kind and seed.

use kdchoice_core::StoreKind;
use kdchoice_service::{run_open_loop, OpenLoopConfig, ServiceBackend};
use kdchoice_theory::bounds::theorem2_gap_band;

/// One deterministic steady-state run: two-choice, λ=0.9, exponential
/// lifetimes of mean 32 ticks, long enough to forget the empty start.
fn steady_gap(n: usize, seed: u64) -> f64 {
    let mut config = OpenLoopConfig::at_lambda(n, 1, 2, 0.9, 32.0, 1200, seed);
    config.threads = 1;
    config.sample_every = 4;
    let report = run_open_loop(&config);
    assert!(report.conserved, "n={n} seed={seed}");
    assert_eq!(report.backlog, 0, "λ=0.9 must not fall behind capacity");
    // Steady state reached: the second-half ball count hovers near λ·n.
    let live = report.live_balls as f64 / n as f64;
    assert!(
        (0.75..=1.05).contains(&live),
        "n={n}: final average load {live} not near λ=0.9"
    );
    report.steady_gap_mean
}

#[test]
fn steady_gap_stays_loglog_sized_and_inside_theory_envelope() {
    let mut gaps = Vec::new();
    for (n, seed) in [
        (1 << 10, 0xD15C0u64),
        (1 << 12, 0xD15C1),
        (1 << 14, 0xD15C2),
    ] {
        let gap = steady_gap(n, seed);
        // Theorem 2 (k=1, d=2 satisfies d >= 2k): gap on the order of
        // lnln n / ln 2 + O(1); slack 3 stands in for the O(1).
        let envelope = theorem2_gap_band(1, 2, n, 3.0);
        assert!(
            gap <= envelope.hi,
            "n={n}: steady gap {gap:.2} above Theorem 2 envelope {:.2}",
            envelope.hi
        );
        assert!(gap > 0.0, "n={n}: churning system cannot be perfectly flat");
        gaps.push((n, gap));
    }

    // O(log log n), not O(log n): quadrupling n from 2^10 to 2^14 moves
    // lnln n by ~0.31; allow generous noise but reject linear-in-log
    // growth (which would add ~2.8 to a two-choice-without-choice gap).
    let growth = gaps[2].1 - gaps[0].1;
    assert!(
        growth.abs() < 1.5,
        "gap grew by {growth:.2} from n=2^10 to n=2^14 — not loglog-flat: {gaps:?}"
    );
}

/// Golden envelope for the pinned seeds: the run is deterministic, so
/// drift outside this band means the placement pipeline (not the RNG)
/// changed behavior. Recorded from the current engine; the band allows
/// ±0.75 around the recorded values to absorb intentional stream-layout
/// changes that still balance equally well.
#[test]
fn steady_gap_golden_band() {
    let gap = steady_gap(1 << 12, 0xD15C1);
    assert!(
        (1.0..=3.5).contains(&gap),
        "steady gap {gap:.3} left the golden band [1.0, 3.5]"
    );
}

/// The contrast that proves the measurement is sharp: single choice
/// (k=1, d=1) under the same churn balances far worse than two-choice.
#[test]
fn two_choice_beats_single_choice_under_churn() {
    let n = 1 << 12;
    let mut two = OpenLoopConfig::at_lambda(n, 1, 2, 0.9, 32.0, 1200, 0xD15C3);
    two.threads = 1;
    two.sample_every = 4;
    let mut one = two.clone();
    one.d = 1;
    let two_gap = run_open_loop(&two).steady_gap_mean;
    let one_gap = run_open_loop(&one).steady_gap_mean;
    assert!(
        one_gap > two_gap + 1.0,
        "single-choice steady gap {one_gap:.2} should clearly exceed two-choice {two_gap:.2}"
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every deterministic observable of a one-thread open-loop
/// run: the final histogram, the sampled series, the steady and final
/// gaps, and the latency fields. Wall-clock fields are left out.
fn open_loop_digest(backend: ServiceBackend, store: StoreKind, seed: u64) -> u64 {
    let mut config = OpenLoopConfig::at_lambda(1 << 12, 2, 4, 0.9, 8.0, 60, seed);
    config.threads = 1;
    config.backend = backend;
    config.store = store;
    if backend == ServiceBackend::SharedNothing {
        config.snapshot_refresh = 64;
    }
    let report = run_open_loop(&config);
    assert!(report.conserved, "{} {store:?} seed {seed}", backend.name());
    let observables = (
        &report.final_histogram,
        &report.series,
        report.steady_gap_mean,
        report.final_util_gap,
        report.latency_p50,
        report.latency_p99,
        report.latency_mean,
        report.latency_max,
    );
    fnv1a(format!("{observables:?}").as_bytes())
}

/// Absolute pins of the open-loop placement stream. `backend_equivalence`
/// only compares the backends with each other, so a change that moved
/// all three alike would pass it; these digests fail on any such move.
/// Shared-nothing runs at refresh 64, so its stale-snapshot stream is
/// pinned too. To print the table for a deliberate re-golden run
/// `cargo test --test open_loop_regression -- --nocapture` and copy the
/// `got` column.
#[test]
fn open_loop_stream_digests_are_pinned() {
    use ServiceBackend::{LockFree, SharedNothing, Striped};
    use StoreKind::{Exact, Packed4};
    let cases = [
        (Striped, Exact, 0x0101, 0x3416_f484_b2d8_0fa1),
        (Striped, Exact, 0x0202, 0x7d8a_9a29_33d4_5d81),
        (Striped, Packed4, 0x0101, 0x3416_f484_b2d8_0fa1),
        (Striped, Packed4, 0x0202, 0x7d8a_9a29_33d4_5d81),
        (SharedNothing, Exact, 0x0101, 0x4421_4a43_51a4_809d),
        (SharedNothing, Exact, 0x0202, 0xb27e_827f_146c_946d),
        (SharedNothing, Packed4, 0x0101, 0x4421_4a43_51a4_809d),
        (SharedNothing, Packed4, 0x0202, 0xb27e_827f_146c_946d),
        (LockFree, Exact, 0x0101, 0x3416_f484_b2d8_0fa1),
        (LockFree, Exact, 0x0202, 0x7d8a_9a29_33d4_5d81),
        (LockFree, Packed4, 0x0101, 0x3416_f484_b2d8_0fa1),
        (LockFree, Packed4, 0x0202, 0x7d8a_9a29_33d4_5d81),
    ];
    let mut failed = Vec::new();
    for (backend, store, seed, want) in cases {
        let got = open_loop_digest(backend, store, seed);
        println!(
            "{:<15} {store:?} seed {seed:#06x}  got {got:#018x}",
            backend.name()
        );
        if got != want {
            failed.push(format!("{} {store:?} seed {seed:#06x}", backend.name()));
        }
    }
    assert!(failed.is_empty(), "open-loop digests moved: {failed:?}");
}
