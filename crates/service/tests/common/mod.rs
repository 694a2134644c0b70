//! The single-thread oracle every bit-identity test compares the service
//! backends against.
//!
//! The oracle replays a request stream on a plain [`LoadVector`] through
//! [`reference_place`], a placement kernel of its own that shares no code
//! with the stores under test: a regression in the shared decision
//! kernel moves every backend alike, and only an independent reference
//! sees it. It replays two streams:
//!
//! * the **open-loop** stream ([`open_loop_oracle`]): the traffic
//!   schedule tick by tick, each tick's departures released before its
//!   commits, request `id` drawing its probes and tie keys from
//!   `request_seed(id)`, a sample every `sample_every` ticks and at the
//!   last one;
//! * the **closed-loop single-client** stream ([`closed_loop_oracle`]):
//!   one client on `derive_seed(seed, 0)`, releasing its oldest
//!   placement once more than `window` are live.

// Each test binary uses its own subset of the oracle.
#![allow(dead_code)]

use std::collections::VecDeque;

use kdchoice_core::{BinStore, LoadVector};
use kdchoice_prng::sample::UniformBin;
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use kdchoice_service::{
    run_open_loop, OpenLoopConfig, OpenLoopReport, ServiceBackend, ServiceReport,
    ServiceWorkloadConfig, TickSample, TrafficSchedule,
};
use kdchoice_stats::Histogram;
use rand::RngCore;

/// The reference (k,d)-placement kernel on a plain `LoadVector`: probes
/// sorted, one tie key per tentative slot in sorted order, `k` smallest
/// `(height, key)` slots committed in selection order.
pub fn reference_place<R: RngCore>(
    state: &mut LoadVector,
    probes: &[usize],
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut sorted = probes.to_vec();
    sorted.sort_unstable();
    let mut slots: Vec<(u32, u64, usize)> = Vec::with_capacity(sorted.len());
    let mut i = 0;
    while i < sorted.len() {
        let bin = sorted[i];
        let base = state.load(bin);
        let mut occ = 0u32;
        while i < sorted.len() && sorted[i] == bin {
            occ += 1;
            slots.push((base + occ, rng.next_u64(), bin));
            i += 1;
        }
    }
    if k < slots.len() {
        slots.select_nth_unstable_by(k - 1, |a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    }
    slots[..k]
        .iter()
        .map(|&(_, _, bin)| {
            state.add_ball(bin);
            bin
        })
        .collect()
}

/// The report a one-thread open-loop run of `config` must produce on
/// every backend. Its wall-clock fields are zero.
pub fn open_loop_oracle(config: &OpenLoopConfig) -> OpenLoopReport {
    let schedule = TrafficSchedule::generate(&config.traffic, config.traffic_seed())
        .expect("valid traffic config");
    let mut state = match &config.capacities {
        None => LoadVector::new(config.bins),
        Some(caps) => LoadVector::with_capacities(caps),
    };
    let mut placed: Vec<Vec<usize>> = vec![Vec::new(); schedule.timings.len()];
    let ticks = config.traffic.ticks;
    let mut series = Vec::new();
    for t in 0..ticks {
        for &id in &schedule.departures[t as usize] {
            for &bin in &placed[id as usize] {
                state.remove_ball(bin);
            }
        }
        let (start, end) = schedule.commit_ranges[t as usize];
        for id in start..end {
            let mut rng = Xoshiro256PlusPlus::from_u64(config.request_seed(id));
            let probes: Vec<usize> = (0..config.d)
                .map(|_| config.probes.sample(&mut rng, config.bins))
                .collect();
            placed[id as usize] = reference_place(&mut state, &probes, config.k, &mut rng);
        }
        if t % config.sample_every == 0 || t + 1 == ticks {
            let (live, max) = (state.total_balls(), state.max_load());
            series.push(TickSample {
                tick: t,
                live_balls: live,
                max_load: max,
                gap: f64::from(max) - live as f64 / config.bins as f64,
            });
        }
    }

    let mut latencies = Histogram::new();
    for latency in schedule.timings.iter().filter_map(|t| t.latency()) {
        latencies.add(latency);
    }
    let committed = schedule.committed();
    let departed: u64 = schedule.departures.iter().map(|d| d.len() as u64).sum();
    let (balls_placed, balls_released) = (committed * config.k as u64, departed * config.k as u64);
    let live_balls = state.total_balls();
    let steady: Vec<f64> = series
        .iter()
        .filter(|s| s.tick >= ticks / 2)
        .map(|s| s.gap)
        .collect();
    let last = *series.last().expect("at least one tick");
    OpenLoopReport {
        ticks,
        lambda: config.traffic.lambda_factor(),
        requests_arrived: schedule.arrived(),
        requests_committed: committed,
        backlog: schedule.backlog(),
        balls_placed,
        balls_released,
        live_balls,
        latency_p50: latencies.quantile(0.5).map_or(0.0, f64::from),
        latency_p99: latencies.quantile(0.99).map_or(0.0, f64::from),
        latency_mean: latencies.mean(),
        latency_max: latencies.max_value().unwrap_or(0),
        peak_live_balls: series.iter().map(|s| s.live_balls).max().unwrap_or(0),
        peak_max_load: series.iter().map(|s| s.max_load).max().unwrap_or(0),
        final_max_load: last.max_load,
        final_gap: last.gap,
        steady_gap_mean: if steady.is_empty() {
            0.0
        } else {
            steady.iter().sum::<f64>() / steady.len() as f64
        },
        wall_secs: 0.0,
        balls_per_sec: 0.0,
        final_util_gap: BinStore::utilization_gap(&state),
        total_capacity: BinStore::total_capacity(&state),
        conserved: live_balls == balls_placed - balls_released && state.check_invariants(),
        final_histogram: BinStore::histogram(&state),
        series,
        events: config.record_events.then(|| schedule.timings.clone()),
    }
}

/// Asserts that `report` equals `oracle` in every field but the
/// wall-clock ones.
pub fn assert_open_loop_matches(report: &OpenLoopReport, oracle: &OpenLoopReport, label: &str) {
    assert!(report.conserved, "{label}: run must conserve");
    assert_eq!(
        report.final_histogram, oracle.final_histogram,
        "{label}: final load histogram diverged from the oracle"
    );
    assert_eq!(
        report.series, oracle.series,
        "{label}: time series diverged from the oracle"
    );
    let timeless = OpenLoopReport {
        wall_secs: 0.0,
        balls_per_sec: 0.0,
        ..report.clone()
    };
    assert_eq!(
        &timeless, oracle,
        "{label}: report diverged from the oracle"
    );
}

/// Every backend; each must reproduce the oracle bit for bit at one
/// thread.
pub const BACKENDS: [ServiceBackend; 3] = [
    ServiceBackend::Striped,
    ServiceBackend::SharedNothing,
    ServiceBackend::LockFree,
];

/// Runs `config` on every backend (single thread, synchronous
/// snapshots) and asserts every deterministic observable matches the
/// oracle bit for bit.
pub fn assert_backends_match(mut config: OpenLoopConfig, label: &str) {
    config.threads = 1;
    config.snapshot_refresh = 1;
    let oracle = open_loop_oracle(&config);
    assert!(oracle.conserved, "{label}: the oracle must conserve");
    for backend in BACKENDS {
        config.backend = backend;
        let report = run_open_loop(&config);
        assert_open_loop_matches(&report, &oracle, &format!("{label} [{}]", backend.name()));
    }
}

/// The end state a one-client closed-loop run of `config` must reach on
/// every backend. Its wall-clock fields are zero.
///
/// # Panics
///
/// Panics unless `config.threads == 1`.
pub fn closed_loop_oracle(config: &ServiceWorkloadConfig) -> ServiceReport {
    assert_eq!(config.threads, 1, "the oracle replays one client");
    let mut state = LoadVector::new(config.bins);
    let sampler = UniformBin::new(config.bins);
    let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(config.seed, 0));
    let mut live = VecDeque::new();
    let mut balls_released = 0u64;
    for _ in 0..config.requests_per_thread {
        let probes: Vec<usize> = (0..config.d).map(|_| sampler.sample(&mut rng)).collect();
        let bins = reference_place(&mut state, &probes, config.k, &mut rng);
        if config.window > 0 {
            live.push_back(bins);
            if live.len() > config.window {
                for bin in live.pop_front().expect("window > 0") {
                    state.remove_ball(bin);
                    balls_released += 1;
                }
            }
        }
    }
    let placements = config.requests_per_thread as u64;
    let balls_placed = placements * config.k as u64;
    let (live_balls, max_load) = (state.total_balls(), state.max_load());
    let gap = f64::from(max_load) - live_balls as f64 / config.bins as f64;
    ServiceReport {
        placements,
        balls_placed,
        balls_released,
        live_balls,
        wall_secs: 0.0,
        placements_per_sec: 0.0,
        balls_per_sec: 0.0,
        max_load,
        gap,
        nu1: state.nu(1),
        conserved: live_balls == balls_placed - balls_released && state.check_invariants(),
        dim_gaps: vec![gap],
    }
}

/// Asserts that `report` equals `oracle` in every scalar end-state
/// field (the per-dimension gaps are the vector workload's own).
pub fn assert_closed_loop_matches(report: &ServiceReport, oracle: &ServiceReport, label: &str) {
    assert!(report.conserved, "{label}: run must conserve");
    assert_eq!(report.placements, oracle.placements, "{label}");
    assert_eq!(report.balls_placed, oracle.balls_placed, "{label}");
    assert_eq!(report.balls_released, oracle.balls_released, "{label}");
    assert_eq!(report.live_balls, oracle.live_balls, "{label}");
    assert_eq!(report.max_load, oracle.max_load, "{label}");
    assert_eq!(report.gap, oracle.gap, "{label}");
    assert_eq!(report.nu1, oracle.nu1, "{label}");
}
