//! `static_large`: the paper's static process, m = n balls into
//! n = 2^24 bins in n/k rounds of (2,4)-choice, by one closed-loop caller.
//!
//! The exact `LoadVector` table is 64 MiB, far past L2 and most of L3,
//! and the packed4 table is 8 MiB, so `prng` and `core` do all the work on
//! a working set that misses cache; no lock, atomic or traffic code runs.

use std::hint::black_box;
use std::time::Instant;

use kdchoice_core::{
    decide_k_least, run_once_compact, run_once_on, BinSlab, BinStore, HeightHistogram, KdChoice,
    LoadVector, LoadView, PackedStore, ProbeDistribution, RoundProcess, RunConfig, RunResult,
    StoreKind,
};
use kdchoice_prng::sample::fill_with_replacement;
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use kdchoice_theory::bounds::theorem1_band;

use crate::report::{median, steady_time, Outcome};
use crate::spans::Row;
use crate::{Clock, Passes, Reference, Scale, D, K};

/// Additive slack standing in for Theorem 1's `O(1)` terms, as in the
/// workspace's own envelope tests.
const THEOREM1_SLACK: f64 = 3.0;
/// Set-ups timed per pass; the median is reported.
const SETUP_REPS: usize = 5;

fn bins(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1 << 24,
        Scale::Smoke => 1 << 12,
    }
}

/// Checks one finished fill: every ball placed, histograms that sum to n
/// bins and m balls, and a max load inside the Theorem 1 band.
fn check_fill(out: &mut Outcome, r: &RunResult, n: usize, label: &str) {
    let m = n as u64;
    out.ops(r.balls_thrown, r.balls_thrown - r.balls_placed);
    out.check(r.balls_placed == m, &format!("{label}: every ball placed"));
    let bins: u64 = r.load_histogram.iter().sum();
    let balls: u64 = r
        .load_histogram
        .iter()
        .enumerate()
        .map(|(l, &c)| l as u64 * c)
        .sum();
    out.check(
        bins == n as u64 && balls == m,
        &format!("{label}: load histogram sums to n bins and m balls"),
    );
    out.check(
        r.height_histogram.iter().sum::<u64>() == m,
        &format!("{label}: height histogram sums to m"),
    );
    let band = theorem1_band(K, D, n, THEOREM1_SLACK);
    out.check(
        band.contains(f64::from(r.max_load)),
        &format!("{label}: max load {} inside Theorem 1 band", r.max_load),
    );
}

/// Times `LoadVector::new(n)` several times and returns the median
/// seconds with the last table built.
fn timed_setup(n: usize) -> (f64, LoadVector) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let start = Instant::now();
        let table = LoadVector::new(n);
        times.push(start.elapsed().as_secs_f64());
        state = Some(table);
    }
    (median(&times), state.expect("at least one set-up"))
}

/// The untraced run: passes of (exact, packed4) fills, order alternating
/// per pass, for about `seconds`.
pub fn run(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let n = bins(scale);
    let m = n as f64;
    let mut out = Outcome::default();
    let (mut exact, mut packed, mut aggregate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setups, mut gaps, mut msgs, mut unscaled) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut clock = Clock::start(Reference::MEMORY);
    let mut passes = Passes::new(seconds);
    while let Some(pass) = passes.next_pass() {
        let config = RunConfig::new(n, derive_seed(seed, pass));
        let (mut pass_secs, mut wall_secs) = (0.0, 0.0);
        for variant in 0..2 {
            let exact_turn = (variant + pass) % 2 == 0;
            let (result, wall, speed) = if exact_turn {
                let (setup, state) = timed_setup(n);
                setups.push(setup);
                let mut kd = KdChoice::new(K, D).expect("(2,4) is a valid (k,d)");
                let ((result, state), wall, speed) =
                    clock.time(|| run_once_on(&mut kd, &config, state));
                drop(state);
                check_fill(&mut out, &result, n, "exact");
                exact.push(m / (wall * speed));
                (result, wall, speed)
            } else {
                let ((result, slab), wall, speed) = clock.time(|| {
                    run_once_compact(
                        StoreKind::Packed4,
                        K,
                        D,
                        &ProbeDistribution::Uniform,
                        None,
                        &config,
                    )
                });
                let lossless = matches!(&slab, BinSlab::Packed(p) if p.is_lossless());
                out.check(lossless, "packed4: store reports lossless");
                check_fill(&mut out, &result, n, "packed4");
                packed.push(m / (wall * speed));
                (result, wall, speed)
            };
            gaps.push(result.gap);
            msgs.push(result.messages_per_ball());
            pass_secs += wall * speed;
            wall_secs += wall;
        }
        aggregate.push(2.0 * m / pass_secs);
        unscaled.push(2.0 * m / wall_secs);
    }
    clock.log();
    eprintln!("unscaled balls_per_s {}", median(&unscaled));
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", passes.first_pass_rss(), "MiB");
    out.metric("balls_per_s", median(&aggregate), "balls/s");
    out.metric(
        "balls_per_s.slowest",
        median(&exact).min(median(&packed)),
        "balls/s",
    );
    out.metric("msgs_per_ball", median(&msgs), "probes/ball");
    out.metric("gap", median(&gaps), "balls");
    out
}

/// One (k,d) round driven through the public layer calls, each wrapped in
/// its span: probe fill, `decide_k_least`, one `add_ball` per winner.
struct Ladder {
    fill: Row,
    decide: Row,
    commit: Row,
}

impl Ladder {
    fn new() -> Self {
        Self {
            fill: Row::new(true),
            decide: Row::new(true),
            commit: Row::new(true),
        }
    }

    /// Fills `store` with m = n balls round by round, then times each
    /// call once more in back-to-back batches on the filled store.
    /// Returns the max load of the m-ball fill, before the batches.
    fn fill_store<S: BinStore + LoadView>(
        &mut self,
        store: &mut S,
        seed: u64,
        batch: usize,
    ) -> u32 {
        let n = store.n();
        let mut rng = Xoshiro256PlusPlus::from_u64(seed);
        let (mut probes, mut slots, mut winners) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..n / K {
            self.fill.time(D as u64, || {
                fill_with_replacement(&mut rng, n, D, &mut probes)
            });
            probes.sort_unstable();
            winners.clear();
            self.decide.time(1, || {
                decide_k_least(&*store, &probes, K, &mut rng, &mut slots, &mut winners)
            });
            for &bin in &winners {
                self.commit.time(1, || store.add_ball(bin));
            }
        }
        let max_load = store.max_load();

        let mut sets = Vec::with_capacity(batch * D);
        self.fill.batch((batch * D) as u64, || {
            for _ in 0..batch {
                fill_with_replacement(&mut rng, n, D, &mut probes);
                sets.extend_from_slice(&probes);
            }
        });
        for set in sets.chunks_mut(D) {
            set.sort_unstable();
        }
        winners.clear();
        self.decide.batch(batch as u64, || {
            for set in sets.chunks(D) {
                decide_k_least(&*store, set, K, &mut rng, &mut slots, &mut winners);
            }
        });
        self.commit.batch(winners.len() as u64, || {
            for &bin in &winners {
                black_box(store.add_ball(bin));
            }
        });
        max_load
    }
}

/// Drives the `KdChoice` engine round by round through
/// `RoundProcess::run_round`, with a span around each round when
/// `row` is on. Returns the wall seconds and the filled table.
fn kd_rounds(row: &mut Row, n: usize, seed: u64) -> (f64, LoadVector) {
    let mut kd = KdChoice::new(K, D).expect("(2,4) is a valid (k,d)");
    let mut state = LoadVector::new(n);
    let mut rng = Xoshiro256PlusPlus::from_u64(seed);
    let mut heights = HeightHistogram::new();
    let m = n as u64;
    let mut thrown = 0u64;
    let start = Instant::now();
    while thrown < m {
        let stats = row.time(K as u64, || {
            RoundProcess::run_round(&mut kd, &mut state, &mut rng, &mut heights, m - thrown)
        });
        thrown += u64::from(stats.thrown);
    }
    (start.elapsed().as_secs_f64(), state)
}

/// The traced run: the layer ladder of the static fill, the engine's
/// per-round spans, and the tracing overhead (the same round loop with
/// spans on against spans off).
pub fn run_traced(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let n = bins(scale);
    let batch = (n / 64).max(1024);
    let band = theorem1_band(K, D, n, THEOREM1_SLACK);
    let mut out = Outcome::default();
    let mut kd_row = Row::new(true);
    let mut exact = Ladder::new();
    let mut packed = Ladder::new();
    let (mut untraced_ns, mut packed_ns, mut max_loads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut on_secs, mut off_secs) = (Vec::new(), Vec::new());
    let mut passes = Passes::new(seconds);
    while let Some(pass) = passes.next_pass() {
        let pass_seed = derive_seed(seed, pass);
        let config = RunConfig::new(n, pass_seed);
        let mut kd = KdChoice::new(K, D).expect("(2,4) is a valid (k,d)");
        let t = Instant::now();
        let (result, state) = run_once_on(&mut kd, &config, LoadVector::new(n));
        untraced_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
        drop(state);
        check_fill(&mut out, &result, n, "exact");
        max_loads.push(f64::from(result.max_load));
        let t = Instant::now();
        let (packed_result, slab) = run_once_compact(
            StoreKind::Packed4,
            K,
            D,
            &ProbeDistribution::Uniform,
            None,
            &config,
        );
        packed_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
        drop(slab);
        check_fill(&mut out, &packed_result, n, "packed4");

        let (secs, state) = kd_rounds(&mut kd_row, n, pass_seed);
        on_secs.push(secs);
        out.check(
            state.total_balls() == n as u64 && state.max_load() == result.max_load,
            "traced engine rounds reproduce run_once_on",
        );
        drop(state);
        let (secs, state) =
            kd_row.batch(n as u64, || kd_rounds(&mut Row::new(false), n, pass_seed));
        off_secs.push(secs);
        drop(state);

        let mut table = LoadVector::new(n);
        let max_load = exact.fill_store(&mut table, pass_seed, batch);
        out.check(
            table.check_invariants() && band.contains(f64::from(max_load)),
            "exact ladder: invariants and Theorem 1 band",
        );
        drop(table);
        let mut store = PackedStore::new(n, 4);
        let max_load = packed.fill_store(&mut store, pass_seed, batch);
        out.check(
            store.is_lossless() && band.contains(f64::from(max_load)),
            "packed4 ladder: lossless and Theorem 1 band",
        );
        drop(store);
    }

    out.metric(
        "balls_per_s.exact",
        1e9 / steady_time(&untraced_ns),
        "balls/s",
    );
    out.metric(
        "balls_per_s.packed4",
        1e9 / steady_time(&packed_ns),
        "balls/s",
    );
    out.metric("max_load", median(&max_loads), "balls");
    exact
        .fill
        .emit(&mut out, "prng.fill_ns_per_draw.n24", "ns", 1.0);
    kd_row.emit(&mut out, "core.kd.ns_per_ball", "ns", 1.0);
    exact
        .decide
        .emit(&mut out, "core.decide_ns.exact_n24", "ns", 1.0);
    packed
        .decide
        .emit(&mut out, "core.decide_ns.packed4_n24", "ns", 1.0);
    exact
        .commit
        .emit(&mut out, "core.commit_ns.exact_n24", "ns", 1.0);
    packed
        .commit
        .emit(&mut out, "core.commit_ns.packed4_n24", "ns", 1.0);
    let per_ball = (D as f64 / K as f64) * exact.fill.batch_mean()
        + exact.decide.batch_mean() / K as f64
        + exact.commit.batch_mean();
    out.metric(
        "core.kd.unattributed_ns_per_ball",
        steady_time(&untraced_ns) - per_ball,
        "ns",
    );
    out.metric(
        "trace.overhead_frac",
        steady_time(&on_secs) / steady_time(&off_secs) - 1.0,
        "ratio",
    );
    out
}
