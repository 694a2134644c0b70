//! Gap regression for the lock-free backend: placements deciding on
//! **racing CAS counters** must still land inside the Theorem 2 gap
//! envelope.
//!
//! The lock-free store has no snapshots to go stale — its counters are
//! the truth — but racing introduces a different information loss: a
//! decision is made against loads frozen at read time, and a lost CAS
//! forces a re-read with *fresh tie keys*, so the committed stream is
//! not the single-thread stream. After `PLACE_RETRY_LIMIT` lost races
//! the commit falls back to an unconditional `fetch_add`, which can
//! stack a ball on a bin that stopped being least-loaded mid-flight.
//! This suite sweeps the thread count over 1/2/4/8 for two-choice (1,2)
//! and for (2,4)-choice, and asserts the steady-state gap never escapes
//! the same `lnln n / ln⌊d/k⌋ + O(1)`
//! envelope that `snapshot_staleness.rs` pins for bounded-stale reads —
//! the paper's tolerance for adversarially outdated information covers
//! raced reads exactly the same way.
//!
//! The single-thread run doubles as the anchor: no CAS can fail there,
//! so it is bit-identical to the striped backend (locked by
//! `backend_equivalence.rs`) and must sit in the same golden band as
//! the locked regression baseline.

use kdchoice_service::{run_open_loop, OpenLoopConfig, ServiceBackend};
use kdchoice_theory::bounds::theorem2_gap_band;

/// The thread counts swept: the 1-thread run is deterministic; the
/// rest race placements inside each tick's commit phase.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One steady-state run of (k,d)-choice on the lock-free backend: λ=0.9,
/// exponential lifetimes of mean 32 ticks — the same config shape as
/// the staleness sweep so the envelopes compare.
fn steady_gap(n: usize, (k, d): (usize, usize), threads: usize, seed: u64) -> f64 {
    let mut config = OpenLoopConfig::at_lambda(n, k, d, 0.9, 32.0, 1200, seed);
    config.threads = threads;
    config.backend = ServiceBackend::LockFree;
    config.sample_every = 4;
    let report = run_open_loop(&config);
    assert!(report.conserved, "({k},{d}) threads={threads}");
    assert_eq!(report.backlog, 0, "λ=0.9 must not fall behind capacity");
    let live = report.live_balls as f64 / n as f64;
    assert!(
        (0.75..=1.05).contains(&live),
        "({k},{d}) threads={threads}: final average load {live} not near λ=0.9"
    );
    report.steady_gap_mean
}

/// Every thread count stays inside the Theorem 2 envelope, for
/// two-choice and for (2,4)-choice: raced commits cost balance
/// boundedly — they cannot turn O(log log n) into something worse.
#[test]
fn raced_gap_stays_inside_theorem2_envelope() {
    let n = 1 << 12;
    for (k, d) in [(1, 2), (2, 4)] {
        let envelope = theorem2_gap_band(k, d, n, 3.0);
        for threads in THREAD_COUNTS {
            let gap = steady_gap(n, (k, d), threads, 0x10CF_E0E0);
            assert!(
                gap <= envelope.hi,
                "({k},{d}) threads={threads}: steady gap {gap:.2} above Theorem 2 envelope {:.2}",
                envelope.hi
            );
            assert!(gap > 0.0, "churning system cannot be perfectly flat");
        }
    }
}

/// The single-thread run reproduces the striped regression's golden
/// band (same config shape as `open_loop_regression.rs` and
/// `snapshot_staleness.rs`), anchoring the race sweep to the locked
/// baseline.
#[test]
fn single_thread_sits_in_the_locked_golden_band() {
    let gap = steady_gap(1 << 12, (1, 2), 1, 0xD15C1);
    assert!(
        (1.0..=3.5).contains(&gap),
        "steady gap {gap:.3} left the golden band [1.0, 3.5]"
    );
}
