//! Cross-backend equivalence: the lock-striped `ShardedStore`, the
//! shared-nothing `OwnedShardEngine` and the lock-free `AtomicStore`,
//! each driven through the same public entry points and compared with
//! the single-thread oracle of `tests/common`. This is the repo's
//! standard admission harness for any concurrent store.
//!
//! The contract under test (see `kdchoice_service::engine` and
//! `kdchoice_service::AtomicStore`):
//!
//! * **Single thread** (synchronous snapshots for the owned backend; no
//!   contention, hence no CAS failures, for the lock-free one) — every
//!   backend is **bit-identical** to the oracle: same probes, same tie
//!   keys, same winners, same final histogram, same sampled time series.
//!   Locked by a proptest over random open-loop traffic and by
//!   deterministic closed-loop runs, whose streams are also pinned by
//!   absolute digests.
//! * **Any thread count** — the open-loop *event stream* (arrivals,
//!   commits, departures, every latency statistic) is schedule-driven
//!   and therefore identical across backends; only the load shape may
//!   drift once decisions read stale or raced load values.
//! * **Concurrency safety** — 8-thread runs on the owned and lock-free
//!   backends conserve balls and pass their invariant checks
//!   (merged-histogram / snapshot-vs-truth for the owned engine;
//!   in-flight-op / consistent-scan / counter-sum for the lock-free
//!   store); `conserved` reports the outcome.

mod common;

use common::{
    assert_backends_match, assert_closed_loop_matches, closed_loop_oracle, open_loop_oracle,
    BACKENDS,
};
use kdchoice_core::StoreKind;
use kdchoice_service::{
    run_open_loop, run_service_workload, run_vector_service_workload, OpenLoopConfig,
    ServiceBackend, ServiceReport, ServiceWorkloadConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Random place/release streams (Poisson arrivals, exponential
    /// lifetimes — every request is a place, every departure a release)
    /// cannot tell any backend from the oracle at `threads = 1`,
    /// `refresh = 1`.
    #[test]
    fn backends_are_bit_identical_to_the_oracle_single_thread(
        bins in 16usize..160,
        k in 1usize..=3,
        extra_d in 0usize..=3,
        lambda in 0.5f64..1.4,
        seed in any::<u64>(),
    ) {
        let d = k + extra_d.max(if k == 1 { 1 } else { 0 });
        let config = OpenLoopConfig::at_lambda(bins, k, d, lambda, 8.0, 120, seed);
        assert_backends_match(config, "proptest");
    }
}

/// The heterogeneous path — Zipf-weighted probes over two-tier
/// capacities — goes through the same decision kernel on every backend,
/// so it must be bit-identical too.
#[test]
fn weighted_probes_and_capacities_match_across_backends() {
    let bins = 128;
    let mut config = OpenLoopConfig::at_lambda(bins, 2, 4, 0.9, 16.0, 300, 0xE0_1111);
    config.probes = kdchoice_core::ProbeDistribution::zipf(bins, 1.1).unwrap();
    config.capacities = Some(kdchoice_core::two_tier_capacities(bins, 10, 10));
    config.sample_every = 8;
    assert_backends_match(config, "zipf + two_tier");
}

/// Staleness changes *decisions*, not the event stream: at `refresh >
/// 1` the owned backend must still conserve balls and commit the exact
/// schedule-driven request counts, even though the load shape is
/// allowed to drift from the oracle.
#[test]
fn stale_snapshots_preserve_the_event_stream() {
    let mut config = OpenLoopConfig::at_lambda(256, 2, 4, 0.9, 16.0, 400, 0xE0_2222);
    config.threads = 1;
    let oracle = open_loop_oracle(&config);
    config.backend = ServiceBackend::SharedNothing;
    config.snapshot_refresh = 64;
    let owned = run_open_loop(&config);
    assert!(owned.conserved);
    assert_eq!(oracle.requests_committed, owned.requests_committed);
    assert_eq!(oracle.balls_placed, owned.balls_placed);
    assert_eq!(oracle.balls_released, owned.balls_released);
    assert_eq!(oracle.live_balls, owned.live_balls);
    assert_eq!(oracle.latency_p99, owned.latency_p99);
}

/// Closed-loop equivalence: one client thread issues the same
/// probe/tie-key stream to every backend, so the final merged load
/// state must match the oracle exactly — including through the release
/// window.
#[test]
fn closed_loop_single_client_matches_across_backends() {
    for window in [0usize, 16] {
        let mut config = ServiceWorkloadConfig {
            bins: 512,
            k: 2,
            d: 4,
            shards: 8,
            threads: 1,
            requests_per_thread: 4000,
            window,
            backend: ServiceBackend::Striped,
            snapshot_refresh: 1,
            store: StoreKind::Exact,
            dims: 1,
            objective: kdchoice_core::PlacementObjective::Scalar,
            demand: kdchoice_prng::demand::DemandDistribution::Unit,
            seed: 0xE0_3333,
        };
        let oracle = closed_loop_oracle(&config);
        assert!(
            oracle.conserved,
            "window={window}: the oracle must conserve"
        );
        for backend in BACKENDS {
            config.backend = backend;
            let report = run_service_workload(&config);
            let label = format!("window={window} [{}]", backend.name());
            assert_closed_loop_matches(&report, &oracle, &label);
        }
        // The vector workload forced onto the scalar triple draws the
        // same stream.
        config.backend = ServiceBackend::Striped;
        let vector = run_vector_service_workload(&config);
        assert_closed_loop_matches(&vector, &oracle, &format!("window={window} [vector]"));
    }
}

/// d = 32 is past the kernel's const-D cut-off (16), so every backend
/// decides through the generic heap path; a (4,32) closed loop with a
/// release window must still reproduce the oracle at one thread.
#[test]
fn large_d_takes_the_heap_path() {
    let mut config = ServiceWorkloadConfig::new(64, 1, 600, 3);
    config.k = 4;
    config.d = 32;
    config.window = 16;
    let oracle = closed_loop_oracle(&config);
    assert!(oracle.conserved);
    for backend in BACKENDS {
        config.backend = backend;
        let report = run_service_workload(&config);
        assert_closed_loop_matches(&report, &oracle, backend.name());
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the deterministic end state of a one-client closed-loop
/// run. Wall-clock fields are left out.
fn closed_loop_digest(report: &ServiceReport) -> u64 {
    let observables = (
        report.live_balls,
        report.balls_released,
        report.max_load,
        report.gap.to_bits(),
        report.nu1,
    );
    fnv1a(format!("{observables:?}").as_bytes())
}

/// Absolute pins of the closed-loop client stream, per backend, release
/// window and seed, plus the vector workload at `dims = 1`. The
/// cross-backend checks compare the backends with a reference; these
/// digests also fail on a change that moved every path alike. To print
/// the table for a deliberate re-golden run `cargo test --test
/// backend_equivalence closed_loop_stream -- --nocapture` and copy the
/// `got` column.
#[test]
fn closed_loop_stream_digests_are_pinned() {
    use ServiceBackend::{LockFree, SharedNothing, Striped};
    // `None` is the vector workload forced onto a scalar config.
    let cases: [(Option<ServiceBackend>, usize, u64, u64); 16] = [
        (Some(Striped), 0, 0x0101, 0x1aa1_c8aa_799a_e593),
        (Some(Striped), 0, 0x0202, 0x2c8a_46aa_83e9_edf5),
        (Some(Striped), 16, 0x0101, 0xf9c7_d3a5_a122_3ea4),
        (Some(Striped), 16, 0x0202, 0xf9ba_6ba5_a117_0390),
        (Some(SharedNothing), 0, 0x0101, 0x1aa1_c8aa_799a_e593),
        (Some(SharedNothing), 0, 0x0202, 0x2c8a_46aa_83e9_edf5),
        (Some(SharedNothing), 16, 0x0101, 0xf9c7_d3a5_a122_3ea4),
        (Some(SharedNothing), 16, 0x0202, 0xf9ba_6ba5_a117_0390),
        (Some(LockFree), 0, 0x0101, 0x1aa1_c8aa_799a_e593),
        (Some(LockFree), 0, 0x0202, 0x2c8a_46aa_83e9_edf5),
        (Some(LockFree), 16, 0x0101, 0xf9c7_d3a5_a122_3ea4),
        (Some(LockFree), 16, 0x0202, 0xf9ba_6ba5_a117_0390),
        (None, 0, 0x0101, 0x1aa1_c8aa_799a_e593),
        (None, 0, 0x0202, 0x2c8a_46aa_83e9_edf5),
        (None, 16, 0x0101, 0xf9c7_d3a5_a122_3ea4),
        (None, 16, 0x0202, 0xf9ba_6ba5_a117_0390),
    ];
    let mut failed = Vec::new();
    for (backend, window, seed, want) in cases {
        // Light loads, so that a moved decision shows in `nu1` and
        // `max_load`: about 1.2 balls per bin without releases, and the
        // 32 live balls of a 16-placement window over 40 bins.
        let bins = if window == 0 { 4096 } else { 40 };
        let mut config = ServiceWorkloadConfig::new(bins, 1, 2500, seed);
        config.window = window;
        let (name, report) = match backend {
            Some(backend) => {
                config.backend = backend;
                (backend.name(), run_service_workload(&config))
            }
            None => ("vector", run_vector_service_workload(&config)),
        };
        assert!(report.conserved, "{name} window {window} seed {seed:#06x}");
        let got = closed_loop_digest(&report);
        println!("{name:<15} window {window:<2} seed {seed:#06x}  got {got:#018x}");
        if got != want {
            failed.push(format!("{name} window {window} seed {seed:#06x}"));
        }
    }
    assert!(failed.is_empty(), "closed-loop digests moved: {failed:?}");
}

/// A packed decision view must not break single-thread bit-identity:
/// both the owned backend (packed published snapshot) and the lock-free
/// backend (clamped read of its exact counters) publish `min(load,
/// ceiling)` to the decision kernel, and at these loads the ceiling is
/// never reached, so every backend reproduces the exact oracle bit for
/// bit.
#[test]
fn packed_store_keeps_single_thread_bit_identity() {
    let mut config = OpenLoopConfig::at_lambda(192, 2, 4, 0.9, 12.0, 240, 0xE0_7777);
    config.store = StoreKind::Packed8;
    assert_backends_match(config, "packed8");
}

/// 8-thread stress on the owned engine, closed loop with a release
/// window: `conserved` folds in ball conservation, per-shard
/// `check_invariants`, the merged-histogram checks, and the
/// snapshot-equals-truth assertion performed after the final flush.
#[test]
fn owned_engine_8_thread_stress_conserves_and_keeps_invariants() {
    let config = ServiceWorkloadConfig {
        bins: 509, // prime: uneven ownership slices
        k: 2,
        d: 4,
        shards: 8, // ignored by the owned backend
        threads: 8,
        requests_per_thread: 3000,
        window: 32,
        backend: ServiceBackend::SharedNothing,
        snapshot_refresh: 16,
        store: StoreKind::Exact,
        dims: 1,
        objective: kdchoice_core::PlacementObjective::Scalar,
        demand: kdchoice_prng::demand::DemandDistribution::Unit,
        seed: 0xE0_4444,
    };
    let report = run_service_workload(&config);
    assert!(
        report.conserved,
        "owned 8-thread run lost balls or invariants"
    );
    assert_eq!(report.placements, 8 * 3000);
    assert_eq!(report.balls_placed, 8 * 3000 * 2);
    // Every client holds exactly `window` placements at the end.
    assert_eq!(
        report.live_balls,
        8 * 32 * 2,
        "release window must bound live placements"
    );
}

/// Regression: per-tick cross-worker traffic far above the SPSC ring
/// capacity (256). A worker that finishes its pushes must keep draining
/// — not park at a barrier — or a neighbour stuck in the full-ring
/// submit path waits forever (this deadlocked before the
/// drain-while-waiting rendezvous; bins >= 2^12 at this λ/μ is exactly
/// where a tick's traffic first overflows a ring).
#[test]
fn ring_overflow_under_heavy_per_tick_traffic_terminates_and_conserves() {
    // ~460 arrivals (≈ 920 placed + 920 released balls) per tick across
    // 2 workers: several ring-fills per (producer, consumer) pair.
    let mut config = OpenLoopConfig::at_lambda(1 << 13, 2, 4, 0.9, 8.0, 60, 0xE0_6666);
    config.sample_every = 8;
    config.backend = ServiceBackend::SharedNothing;
    config.snapshot_refresh = 64;
    config.threads = 1;
    let one = run_open_loop(&config);
    for threads in [2, 8] {
        config.threads = threads;
        let many = run_open_loop(&config);
        assert!(many.conserved, "{threads} threads");
        assert_eq!(one.balls_placed, many.balls_placed, "{threads} threads");
        assert_eq!(one.balls_released, many.balls_released, "{threads} threads");
        assert_eq!(one.live_balls, many.live_balls, "{threads} threads");
    }
}

/// 8-thread open-loop run on the owned backend: the event stream (and
/// with it conservation totals and latency statistics) is pinned to the
/// schedule regardless of threading.
#[test]
fn owned_open_loop_8_threads_conserves_and_pins_the_event_stream() {
    let mut config = OpenLoopConfig::at_lambda(512, 2, 4, 0.9, 8.0, 300, 0xE0_5555);
    config.sample_every = 16;
    config.backend = ServiceBackend::SharedNothing;
    config.snapshot_refresh = 32;
    config.threads = 1;
    let one = run_open_loop(&config);
    config.threads = 8;
    let eight = run_open_loop(&config);
    assert!(one.conserved && eight.conserved);
    assert_eq!(one.requests_committed, eight.requests_committed);
    assert_eq!(one.backlog, eight.backlog);
    assert_eq!(one.balls_placed, eight.balls_placed);
    assert_eq!(one.balls_released, eight.balls_released);
    assert_eq!(one.live_balls, eight.live_balls);
    assert_eq!(one.latency_p50, eight.latency_p50);
    assert_eq!(one.latency_p99, eight.latency_p99);
    assert_eq!(one.latency_max, eight.latency_max);
    // Sampled live-ball counts are schedule-driven too (max load is not
    // once snapshots go stale, so compare only the live component).
    for (a, b) in one.series.iter().zip(eight.series.iter()) {
        assert_eq!(a.tick, b.tick);
        assert_eq!(a.live_balls, b.live_balls);
    }
}

/// The same pin for the lock-free backend: racing CAS commits may
/// reorder *which* bin wins a tie, but the schedule-driven event stream
/// (arrival/commit/departure counts, every latency statistic, sampled
/// live-ball counts) is identical at any thread count.
#[test]
fn lockfree_open_loop_8_threads_conserves_and_pins_the_event_stream() {
    let mut config = OpenLoopConfig::at_lambda(512, 2, 4, 0.9, 8.0, 300, 0xE0_8888);
    config.sample_every = 16;
    config.backend = ServiceBackend::LockFree;
    config.threads = 1;
    let one = run_open_loop(&config);
    config.threads = 8;
    let eight = run_open_loop(&config);
    assert!(one.conserved && eight.conserved);
    assert_eq!(one.requests_committed, eight.requests_committed);
    assert_eq!(one.backlog, eight.backlog);
    assert_eq!(one.balls_placed, eight.balls_placed);
    assert_eq!(one.balls_released, eight.balls_released);
    assert_eq!(one.live_balls, eight.live_balls);
    assert_eq!(one.latency_p50, eight.latency_p50);
    assert_eq!(one.latency_p99, eight.latency_p99);
    assert_eq!(one.latency_max, eight.latency_max);
    for (a, b) in one.series.iter().zip(eight.series.iter()) {
        assert_eq!(a.tick, b.tick);
        assert_eq!(a.live_balls, b.live_balls);
    }
}
