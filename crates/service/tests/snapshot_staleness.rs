//! Staleness regression for the shared-nothing backend: two-choice
//! placement deciding on **stale load snapshots** must still land
//! inside the Theorem 2 gap envelope.
//!
//! The shared-nothing engine's probe path reads a relaxed-atomic load
//! snapshot that owners republish only every `snapshot_refresh` applied
//! mutations. Between refreshes a decision can undercount a bin by up
//! to the mutations the owner has buffered — the same bounded-staleness
//! regime the paper's adversarial-information arguments tolerate. This
//! test sweeps the refresh period over three orders of magnitude and
//! asserts the steady-state gap never escapes the `lnln n / ln⌊d/k⌋ +
//! O(1)` envelope that `open_loop_regression.rs` pins for the exact
//! (locked, always-fresh) path.
//!
//! The runs are single-threaded and therefore fully deterministic:
//! refresh period 1 makes the snapshot synchronous (bit-identical to
//! the single-thread oracle — locked by `backend_equivalence.rs`), so any
//! gap growth observed here is attributable to staleness alone.

use kdchoice_service::{run_open_loop, OpenLoopConfig, ServiceBackend};
use kdchoice_theory::bounds::theorem2_gap_band;

/// The refresh periods swept, in applied mutations between snapshot
/// publishes. 512 is ~an eighth of the n=4096 bin population churning.
const REFRESH_PERIODS: [usize; 4] = [1, 8, 64, 512];

/// One deterministic steady-state run on the owned backend: two-choice
/// (k=1, d=2), λ=0.9, exponential lifetimes of mean 32 ticks.
fn steady_gap(n: usize, refresh: usize, seed: u64) -> f64 {
    let mut config = OpenLoopConfig::at_lambda(n, 1, 2, 0.9, 32.0, 1200, seed);
    config.threads = 1;
    config.backend = ServiceBackend::SharedNothing;
    config.snapshot_refresh = refresh;
    config.sample_every = 4;
    let report = run_open_loop(&config);
    assert!(report.conserved, "refresh={refresh}");
    assert_eq!(report.backlog, 0, "λ=0.9 must not fall behind capacity");
    let live = report.live_balls as f64 / n as f64;
    assert!(
        (0.75..=1.05).contains(&live),
        "refresh={refresh}: final average load {live} not near λ=0.9"
    );
    report.steady_gap_mean
}

/// Every refresh period stays inside the Theorem 2 envelope: stale
/// reads cost balance, but boundedly — they cannot turn O(log log n)
/// into something worse.
#[test]
fn stale_snapshot_gap_stays_inside_theorem2_envelope() {
    let n = 1 << 12;
    let envelope = theorem2_gap_band(1, 2, n, 3.0);
    let mut gaps = Vec::new();
    for refresh in REFRESH_PERIODS {
        let gap = steady_gap(n, refresh, 0x57A1E1);
        assert!(
            gap <= envelope.hi,
            "refresh={refresh}: steady gap {gap:.2} above Theorem 2 envelope {:.2}",
            envelope.hi
        );
        assert!(gap > 0.0, "churning system cannot be perfectly flat");
        gaps.push((refresh, gap));
    }
    // Staleness can only lose information: the synchronous run must be
    // at least as balanced as the most stale one, up to noise.
    let fresh = gaps[0].1;
    let most_stale = gaps[gaps.len() - 1].1;
    assert!(
        most_stale + 1.0 >= fresh,
        "staleness sweep is not monotone-ish: {gaps:?}"
    );
}

/// The synchronous-refresh run reproduces the striped regression's
/// golden band (same config shape as `open_loop_regression.rs`), so the
/// staleness sweep is anchored to the locked baseline.
#[test]
fn synchronous_refresh_sits_in_the_locked_golden_band() {
    let gap = steady_gap(1 << 12, 1, 0xD15C1);
    assert!(
        (1.0..=3.5).contains(&gap),
        "steady gap {gap:.3} left the golden band [1.0, 3.5]"
    );
}
