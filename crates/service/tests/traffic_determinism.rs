//! Determinism of the open-loop traffic engine (mirrors the
//! `derive_seed` contract of the experiment layer): for a fixed seed the
//! arrival/commit/departure **event stream** — and every statistic
//! computed from it (latency quantiles, committed/backlog counts, ball
//! conservation totals) — is bit-identical at every `max_batch` (1 is
//! the per-request path) and thread count.

use kdchoice_service::{
    run_open_loop, ArrivalProcess, Lifetime, OpenLoopConfig, ServiceBackend, TrafficConfig,
    TrafficSchedule,
};
use proptest::prelude::*;

fn config(seed: u64, rate: f64, service_rate: u32, ticks: u32) -> OpenLoopConfig {
    OpenLoopConfig {
        bins: 48,
        k: 2,
        d: 4,
        shards: 4,
        threads: 1,
        backend: ServiceBackend::Striped,
        snapshot_refresh: 1,
        store: kdchoice_core::StoreKind::Exact,
        max_batch: 8,
        traffic: TrafficConfig {
            arrivals: ArrivalProcess::Poisson { rate },
            lifetime: Lifetime::Exponential { mean: 6.0 },
            ticks,
            service_rate,
        },
        probes: kdchoice_core::ProbeDistribution::Uniform,
        capacities: None,
        sample_every: 1,
        record_events: true,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The schedule itself is a pure function of `(config, seed)`.
    #[test]
    fn schedule_is_a_pure_function_of_the_seed(
        seed in any::<u64>(),
        rate in 0.5f64..6.0,
        service_rate in 1u32..5,
        ticks in 1u32..120,
    ) {
        let traffic = config(0, rate, service_rate, ticks).traffic;
        let a = TrafficSchedule::generate(&traffic, seed).unwrap();
        let b = TrafficSchedule::generate(&traffic, seed).unwrap();
        prop_assert_eq!(&a, &b, "same seed must reproduce the schedule");
        prop_assert_eq!(a.arrived(), a.committed() + a.backlog());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// The engine cannot perturb the event stream: any batch size
    /// (1 = per request), any thread count — same events, same latency
    /// quantiles, same conservation totals.
    ///
    /// What each group of assertions locks:
    /// * events/latency/committed equality pins the **config contract**:
    ///   the schedule (and everything derived from it) must never start
    ///   depending on `max_batch`/`threads` — e.g. someone
    ///   folding the thread count into `traffic_seed` would fail here;
    /// * `conserved`, `live_balls`, and (single-threaded) the final
    ///   histogram are **execution-derived** — read back from the store
    ///   — so a pipeline that drops, duplicates, or misroutes commits
    ///   fails here.
    #[test]
    fn event_stream_survives_batching_and_threads(
        seed in any::<u64>(),
        rate in 0.5f64..5.0,
        service_rate in 1u32..4,
        max_batch in 1usize..20,
        threads in 2usize..5,
    ) {
        let reference = run_open_loop(&config(seed, rate, service_rate, 80));
        prop_assert!(reference.conserved);

        let variants = [
            {
                let mut c = config(seed, rate, service_rate, 80);
                c.max_batch = 1;
                c
            },
            {
                let mut c = config(seed, rate, service_rate, 80);
                c.max_batch = max_batch;
                c
            },
            {
                let mut c = config(seed, rate, service_rate, 80);
                c.threads = threads;
                c.max_batch = max_batch;
                c
            },
            {
                let mut c = config(seed, rate, service_rate, 80);
                c.threads = threads;
                c.max_batch = 1;
                c
            },
        ];
        for (i, variant) in variants.iter().enumerate() {
            let report = run_open_loop(variant);
            // Execution-derived: the store must agree with the schedule
            // under every batching/threading strategy.
            prop_assert!(report.conserved, "variant {i}");
            prop_assert_eq!(report.live_balls, reference.live_balls, "variant {i}");
            if variant.threads == 1 {
                // Single-threaded the whole final state is exact.
                prop_assert_eq!(
                    &report.final_histogram,
                    &reference.final_histogram,
                    "variant {i} final histogram"
                );
            }
            // Config contract: the schedule side must be untouched.
            prop_assert_eq!(&report.events, &reference.events, "variant {i} event stream");
            prop_assert_eq!(report.requests_arrived, reference.requests_arrived);
            prop_assert_eq!(report.requests_committed, reference.requests_committed);
            prop_assert_eq!(report.backlog, reference.backlog);
            prop_assert_eq!(report.latency_p50, reference.latency_p50, "variant {i}");
            prop_assert_eq!(report.latency_p99, reference.latency_p99, "variant {i}");
            prop_assert_eq!(report.latency_max, reference.latency_max);
            prop_assert_eq!(report.balls_placed, reference.balls_placed);
            prop_assert_eq!(report.balls_released, reference.balls_released);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Single-threaded, the *entire run* — including the load time
    /// series and final shape — is independent of the batch size, on
    /// every backend (shared-nothing at refresh 1).
    #[test]
    fn single_thread_state_is_independent_of_batch_size(
        seed in any::<u64>(),
        rate in 0.5f64..5.0,
        batch_a in 1usize..16,
        batch_b in 1usize..16,
        backend in 0usize..3,
    ) {
        let mut a = config(seed, rate, 3, 60);
        a.max_batch = batch_a;
        a.backend = [
            ServiceBackend::Striped,
            ServiceBackend::SharedNothing,
            ServiceBackend::LockFree,
        ][backend];
        let mut b = a.clone();
        b.max_batch = batch_b;
        let ra = run_open_loop(&a);
        let rb = run_open_loop(&b);
        prop_assert_eq!(&ra.series, &rb.series, "{}", a.backend.name());
        prop_assert_eq!(ra.final_max_load, rb.final_max_load);
        prop_assert_eq!(ra.final_gap, rb.final_gap);
    }
}

/// Every sample is taken at quiescence: the live-ball count at the end
/// of a tick is fixed by the schedule, so at 2 and 4 threads every
/// backend's `(tick, live_balls)` series equals its one-thread run. A
/// sample taken while a peer still releases or commits reads a partial
/// tick and fails here.
#[test]
fn sampled_live_balls_match_one_thread_at_2_and_4_threads() {
    // About 120 commits and as many departures per tick over 256 bins,
    // so a worker that sampled mid-tick would race many writes.
    let mut base = config(0x5A3E, 150.0, 120, 60);
    (base.bins, base.shards, base.record_events) = (256, 16, false);
    for backend in [
        ServiceBackend::Striped,
        ServiceBackend::SharedNothing,
        ServiceBackend::LockFree,
    ] {
        base.backend = backend;
        let live = |threads: usize| {
            let report = run_open_loop(&OpenLoopConfig {
                threads,
                ..base.clone()
            });
            assert!(report.conserved, "{} threads={threads}", backend.name());
            report
                .series
                .iter()
                .map(|s| (s.tick, s.live_balls))
                .collect::<Vec<_>>()
        };
        let reference = live(1);
        assert_eq!(reference.len(), 60);
        for threads in [2, 4] {
            assert_eq!(
                live(threads),
                reference,
                "{} threads={threads}",
                backend.name()
            );
        }
    }
}
