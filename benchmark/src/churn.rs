//! `churn_1t` / `churn_2t`: the open-loop virtual-clock trace of
//! `OpenLoopConfig::at_lambda(2^16, 2, 4, 0.9, 8.0, ticks, seed)` driven
//! through the striped (batched), shared-nothing (refresh 64) and
//! lock-free backends at one or two threads.
//!
//! Arrivals are Poisson at 0.9× churn capacity with exponential lifetimes
//! of mean 8 ticks. The 256 KiB table stays cache-resident and releases
//! interleave with commits, so the cost is the service stack, not
//! memory. Latency on the virtual clock is fixed by the schedule, so the
//! real-time serving metric is throughput.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use kdchoice_core::{decide_k_least, BinStore, LoadVector};
use kdchoice_prng::sample::fill_with_replacement;
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use kdchoice_service::traffic::TrafficSchedule;
use kdchoice_service::{
    run_open_loop, AtomicStore, OpenLoopConfig, OpenLoopReport, OwnedShardEngine, PlaceScratch,
    ServiceBackend, ShardState, ShardedStore,
};
use kdchoice_theory::bounds::theorem2_gap_band;

use crate::report::{median, steady_time, Outcome};
use crate::spans::Row;
use crate::{Clock, Passes, Reference, Scale, D, K};

/// Offered load as a share of churn capacity.
const LAMBDA: f64 = 0.9;
/// Mean request lifetime in ticks.
const MEAN_LIFETIME: f64 = 8.0;
/// Snapshot republish period of the shared-nothing backend.
const REFRESH: usize = 64;
/// Additive slack of the Theorem 2 gap envelope the steady gap must stay
/// under.
const THEOREM2_SLACK: f64 = 3.0;
/// Requests per store call in the outside drives, as the pipeline's
/// default `max_batch`.
const MAX_BATCH: usize = 64;
/// Back-to-back calls per micro-batch of a stateless layer call.
const MICRO_BATCH: usize = 1 << 16;

const BACKENDS: [ServiceBackend; 3] = [
    ServiceBackend::Striped,
    ServiceBackend::SharedNothing,
    ServiceBackend::LockFree,
];

fn shape(scale: Scale) -> (usize, u32) {
    match scale {
        Scale::Full => (1 << 16, 200),
        Scale::Smoke => (1 << 14, 20),
    }
}

/// The open-loop configuration of one backend run.
fn config(backend: ServiceBackend, threads: usize, seed: u64, scale: Scale) -> OpenLoopConfig {
    let (bins, ticks) = shape(scale);
    let mut cfg = OpenLoopConfig::at_lambda(bins, K, D, LAMBDA, MEAN_LIFETIME, ticks, seed);
    cfg.threads = threads;
    cfg.backend = backend;
    cfg.snapshot_refresh = REFRESH;
    cfg
}

/// Generates the trace the pipeline will replay, timing the call.
fn schedule(cfg: &OpenLoopConfig) -> (f64, TrafficSchedule) {
    let start = Instant::now();
    let schedule = TrafficSchedule::generate(&cfg.traffic, cfg.traffic_seed())
        .expect("the at_lambda trace is a valid traffic config");
    (start.elapsed().as_secs_f64(), schedule)
}

/// Checks one pipeline report against its schedule: the store conserved
/// balls, the steady gap stays inside the Theorem 2 envelope, and every
/// arrived request was committed (backlog counts as refused).
fn check_report(out: &mut Outcome, r: &OpenLoopReport, s: &TrafficSchedule, label: &str) {
    let n = r.total_capacity as usize;
    out.ops(r.requests_arrived, r.backlog);
    out.check(r.conserved, &format!("{label}: store conserved balls"));
    out.check(
        r.requests_arrived == s.arrived() && r.requests_committed == s.committed(),
        &format!("{label}: report replays the generated schedule"),
    );
    let hi = theorem2_gap_band(K, D, n, THEOREM2_SLACK).hi;
    out.check(
        r.steady_gap_mean <= hi,
        &format!(
            "{label}: steady gap {} within Theorem 2 envelope {hi}",
            r.steady_gap_mean
        ),
    );
}

/// The untraced run: passes over the three backends (order rotating per
/// pass) for about `seconds`.
pub fn run(seed: u64, seconds: f64, threads: usize, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let mut rates: [Vec<f64>; 3] = Default::default();
    let (mut aggregate, mut setups, mut gaps, mut msgs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut unscaled = Vec::new();
    let mut clock = Clock::start(Reference::CACHE);
    let mut passes = Passes::new(seconds);
    while let Some(pass) = passes.next_pass() {
        let pass_seed = derive_seed(seed, pass);
        let (mut balls, mut secs, mut wall_secs, mut worst_gap) = (0u64, 0.0, 0.0, 0.0f64);
        // The three backends replay the same trace: generate it once.
        let (setup, sched) = schedule(&config(BACKENDS[0], threads, pass_seed, scale));
        setups.push(setup);
        for turn in 0..BACKENDS.len() {
            let b = (turn + pass as usize) % BACKENDS.len();
            let (report, _, speed) =
                clock.time(|| run_open_loop(&config(BACKENDS[b], threads, pass_seed, scale)));
            check_report(&mut out, &report, &sched, BACKENDS[b].name());
            // The drive loop's own seconds, at the reference host speed.
            let drive_secs = report.wall_secs * speed;
            rates[b].push(report.balls_placed as f64 / drive_secs);
            msgs.push((report.requests_committed * D as u64) as f64 / report.balls_placed as f64);
            worst_gap = worst_gap.max(report.steady_gap_mean);
            balls += report.balls_placed;
            secs += drive_secs;
            wall_secs += report.wall_secs;
        }
        aggregate.push(balls as f64 / secs);
        unscaled.push(balls as f64 / wall_secs);
        gaps.push(worst_gap);
    }
    clock.log();
    eprintln!("unscaled balls_per_s {}", median(&unscaled));
    let slowest = rates
        .iter()
        .map(|r| median(r))
        .fold(f64::INFINITY, f64::min);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", passes.first_pass_rss(), "MiB");
    out.metric("balls_per_s", median(&aggregate), "balls/s");
    out.metric("balls_per_s.slowest", slowest, "balls/s");
    out.metric("msgs_per_ball", median(&msgs), "probes/ball");
    out.metric("gap", median(&gaps), "balls");
    out
}

/// The `[lo, hi)` share of `range` worker `w` of `workers` takes — the
/// pipeline's own split of a tick's commits and departures.
fn slice(range: Range<usize>, workers: usize, w: usize) -> Range<usize> {
    let len = range.end - range.start;
    range.start + len * w / workers..range.start + len * (w + 1) / workers
}

/// Committed placements, two bins packed per request so worker threads
/// can publish them without locks. The tick barriers order every write
/// before the read that releases it.
struct Placements(Vec<AtomicU64>);

impl Placements {
    fn new(requests: usize) -> Self {
        assert_eq!(K, 2, "two bins pack into one word");
        Self((0..requests).map(|_| AtomicU64::new(0)).collect())
    }

    fn set(&self, id: usize, bins: &[usize]) {
        let word = bins[0] as u64 | (bins[1] as u64) << 32;
        self.0[id].store(word, Ordering::Relaxed);
    }

    fn get(&self, id: usize) -> [usize; 2] {
        let word = self.0[id].load(Ordering::Relaxed);
        [(word & 0xFFFF_FFFF) as usize, (word >> 32) as usize]
    }
}

/// Draws the probes and keeps the RNGs of requests `ids`: the pipeline's
/// per-request stream, pure in `(seed, id)`.
fn prepare(
    cfg: &OpenLoopConfig,
    ids: Range<usize>,
    rows: &mut Rows,
    probes: &mut Vec<usize>,
    rngs: &mut Vec<Xoshiro256PlusPlus>,
) {
    probes.clear();
    rngs.clear();
    let mut one = Vec::with_capacity(D);
    for id in ids {
        let mut rng = rows.request_rng.time(1, || {
            Xoshiro256PlusPlus::from_u64(cfg.request_seed(id as u32))
        });
        rows.fill.time(D as u64, || {
            fill_with_replacement(&mut rng, cfg.bins, D, &mut one)
        });
        probes.extend_from_slice(&one);
        rngs.push(rng);
    }
}

/// Every span row of the churn ladder.
#[derive(Clone)]
struct Rows {
    request_rng: Row,
    fill: Row,
    decide16: Row,
    release16: Row,
    generate: Row,
    sharded_place: Row,
    sharded_release: Row,
    sharded_snapshot: Row,
    lockfree_place: Row,
    lockfree_release: Row,
    lockfree_snapshot: Row,
    engine_decide: Row,
    engine_drain: Row,
}

impl Rows {
    fn new(on: bool) -> Self {
        let row = Row::new(on);
        Self {
            request_rng: row.clone(),
            fill: row.clone(),
            decide16: row.clone(),
            release16: row.clone(),
            generate: row.clone(),
            sharded_place: row.clone(),
            sharded_release: row.clone(),
            sharded_snapshot: row.clone(),
            lockfree_place: row.clone(),
            lockfree_release: row.clone(),
            lockfree_snapshot: row.clone(),
            engine_decide: row.clone(),
            engine_drain: row,
        }
    }

    fn merge(&mut self, o: &Rows) {
        self.request_rng.merge(&o.request_rng);
        self.fill.merge(&o.fill);
        self.decide16.merge(&o.decide16);
        self.release16.merge(&o.release16);
        self.generate.merge(&o.generate);
        self.sharded_place.merge(&o.sharded_place);
        self.sharded_release.merge(&o.sharded_release);
        self.sharded_snapshot.merge(&o.sharded_snapshot);
        self.lockfree_place.merge(&o.lockfree_place);
        self.lockfree_release.merge(&o.lockfree_release);
        self.lockfree_snapshot.merge(&o.lockfree_snapshot);
        self.engine_decide.merge(&o.engine_decide);
        self.engine_drain.merge(&o.engine_drain);
    }
}

/// Balls the trace leaves live at its end.
fn live_balls(s: &TrafficSchedule) -> u64 {
    let departed: u64 = s.departures.iter().map(|d| d.len() as u64).sum();
    (s.committed() - departed) * K as u64
}

/// Runs `f` as one phase block: untimed when per-call spans are on (the
/// calls inside carry their own), batch-timed on `row` when they are off.
fn phase<T>(row: &mut Row, spans: bool, units: u64, f: impl FnOnce() -> T) -> T {
    if spans {
        f()
    } else {
        row.batch(units, f)
    }
}

/// `core` alone under churn: a `LoadVector` of n = 2^16 bins fed the
/// trace by one thread through probe fill, `decide_k_least`, `add_ball`
/// and `remove_ball`.
fn drive_core(cfg: &OpenLoopConfig, s: &TrafficSchedule, rows: &mut Rows, out: &mut Outcome) {
    let mut state = LoadVector::new(cfg.bins);
    let placements = Placements::new(s.timings.len());
    let (mut probes, mut rngs, mut slots, mut winners) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for t in 0..s.commit_ranges.len() {
        for &id in &s.departures[t] {
            for bin in placements.get(id as usize) {
                rows.release16.time(1, || state.remove_ball(bin));
            }
        }
        let (lo, hi) = s.commit_ranges[t];
        prepare(cfg, lo as usize..hi as usize, rows, &mut probes, &mut rngs);
        for (i, rng) in rngs.iter_mut().enumerate() {
            let sorted = &mut probes[i * D..(i + 1) * D];
            sorted.sort_unstable();
            winners.clear();
            rows.decide16.time(1, || {
                decide_k_least(&state, sorted, K, rng, &mut slots, &mut winners)
            });
            for &bin in &winners {
                state.add_ball(bin);
            }
            placements.set(lo as usize + i, &winners);
        }
    }
    out.check(
        state.check_invariants() && state.total_balls() == live_balls(s),
        "core ladder: invariants and conservation",
    );
    // Stateless calls, repeated back to back on the final table.
    let mut rng = Xoshiro256PlusPlus::from_u64(cfg.seed);
    let mut sets = Vec::with_capacity(MICRO_BATCH * D);
    let mut one = Vec::with_capacity(D);
    rows.request_rng.batch(MICRO_BATCH as u64, || {
        for id in 0..MICRO_BATCH as u32 {
            std::hint::black_box(Xoshiro256PlusPlus::from_u64(cfg.request_seed(id)));
        }
    });
    rows.fill.batch((MICRO_BATCH * D) as u64, || {
        for _ in 0..MICRO_BATCH {
            fill_with_replacement(&mut rng, cfg.bins, D, &mut one);
            sets.extend_from_slice(&one);
        }
    });
    for set in sets.chunks_mut(D) {
        set.sort_unstable();
    }
    winners.clear();
    rows.decide16.batch(MICRO_BATCH as u64, || {
        for set in sets.chunks(D) {
            decide_k_least(&state, set, K, &mut rng, &mut slots, &mut winners);
        }
    });
    for &bin in &winners {
        state.add_ball(bin);
    }
    rows.release16.batch(winners.len() as u64, || {
        for &bin in &winners {
            std::hint::black_box(state.remove_ball(bin));
        }
    });
}

/// The striped backend driven from outside by `cfg.threads` workers under
/// the pipeline's three barriers per tick: releases, batched commits
/// through `place_batch`, and a quiescent `histogram` snapshot.
fn drive_striped(
    cfg: &OpenLoopConfig,
    s: &TrafficSchedule,
    spans: bool,
    rows: &mut Rows,
    out: &mut Outcome,
) {
    let store = ShardedStore::new(cfg.bins, cfg.shards);
    let placements = Placements::new(s.timings.len());
    let barrier = Barrier::new(cfg.threads);
    let per_worker: Vec<Rows> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|w| {
                let (store, placements, barrier) = (&store, &placements, &barrier);
                scope.spawn(move || {
                    // Per-call spans (on when spans are) and batch-timed phase
                    // blocks (filled when spans are off).
                    let (mut calls, mut blocks) = (Rows::new(spans), Rows::new(false));
                    let mut prep = Rows::new(false);
                    let (mut bins, mut probes, mut rngs) = (Vec::new(), Vec::new(), Vec::new());
                    for t in 0..s.commit_ranges.len() {
                        let deps = &s.departures[t];
                        bins.clear();
                        for &id in &deps[slice(0..deps.len(), cfg.threads, w)] {
                            bins.extend(placements.get(id as usize));
                        }
                        let units = bins.len() as u64;
                        phase(&mut blocks.sharded_release, spans, units, || {
                            for chunk in bins.chunks(MAX_BATCH * K) {
                                calls
                                    .sharded_release
                                    .time(chunk.len() as u64, || store.release(chunk));
                            }
                        });
                        barrier.wait();
                        let (lo, hi) = s.commit_ranges[t];
                        let ids = slice(lo as usize..hi as usize, cfg.threads, w);
                        prepare(cfg, ids.clone(), &mut prep, &mut probes, &mut rngs);
                        let units = (ids.len() * K) as u64;
                        phase(&mut blocks.sharded_place, spans, units, || {
                            let mut id = ids.start;
                            let batches =
                                probes.chunks(MAX_BATCH * D).zip(rngs.chunks_mut(MAX_BATCH));
                            for (p, r) in batches {
                                let placed = calls
                                    .sharded_place
                                    .time((r.len() * K) as u64, || store.place_batch(p, D, K, r));
                                for placement in placed {
                                    placements.set(id, &placement.bins);
                                    id += 1;
                                }
                            }
                        });
                        barrier.wait();
                        if w == 0 {
                            phase(&mut blocks.sharded_snapshot, spans, 1, || {
                                calls
                                    .sharded_snapshot
                                    .time(1, || BinStore::histogram(store))
                            });
                        }
                        barrier.wait();
                    }
                    calls.merge(&blocks);
                    calls
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("striped worker finished"))
            .collect()
    });
    for r in &per_worker {
        rows.merge(r);
    }
    out.check(
        store.check_invariants() && store.total_balls() == live_balls(s),
        "striped drive: invariants and conservation",
    );
}

/// The lock-free backend driven from outside by `cfg.threads` workers:
/// per-request `place_with` and `release`, a `stamped_snapshot` per tick.
/// Returns `(lost races, fallback commits, placements)`.
fn drive_lockfree(
    cfg: &OpenLoopConfig,
    s: &TrafficSchedule,
    spans: bool,
    rows: &mut Rows,
    out: &mut Outcome,
) -> (u64, u64, u64) {
    let store = AtomicStore::new(cfg.bins);
    let placements = Placements::new(s.timings.len());
    let barrier = Barrier::new(cfg.threads);
    let per_worker: Vec<Rows> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|w| {
                let (store, placements, barrier) = (&store, &placements, &barrier);
                scope.spawn(move || {
                    // Per-call spans (on when spans are) and batch-timed phase
                    // blocks (filled when spans are off).
                    let (mut calls, mut blocks) = (Rows::new(spans), Rows::new(false));
                    let mut prep = Rows::new(false);
                    let mut scratch = PlaceScratch::new();
                    let (mut probes, mut rngs) = (Vec::new(), Vec::new());
                    for t in 0..s.commit_ranges.len() {
                        let deps = &s.departures[t];
                        let mine = &deps[slice(0..deps.len(), cfg.threads, w)];
                        let units = (mine.len() * K) as u64;
                        phase(&mut blocks.lockfree_release, spans, units, || {
                            for &id in mine {
                                let bins = placements.get(id as usize);
                                calls
                                    .lockfree_release
                                    .time(K as u64, || store.release(&bins));
                            }
                        });
                        barrier.wait();
                        let (lo, hi) = s.commit_ranges[t];
                        let ids = slice(lo as usize..hi as usize, cfg.threads, w);
                        prepare(cfg, ids.clone(), &mut prep, &mut probes, &mut rngs);
                        let units = (ids.len() * K) as u64;
                        phase(&mut blocks.lockfree_place, spans, units, || {
                            for (i, rng) in rngs.iter_mut().enumerate() {
                                let p = &probes[i * D..(i + 1) * D];
                                let placement = calls
                                    .lockfree_place
                                    .time(K as u64, || store.place_with(p, K, rng, &mut scratch));
                                placements.set(ids.start + i, &placement.bins);
                            }
                        });
                        barrier.wait();
                        if w == 0 {
                            phase(&mut blocks.lockfree_snapshot, spans, 1, || {
                                calls.lockfree_snapshot.time(1, || store.stamped_snapshot())
                            });
                        }
                        barrier.wait();
                    }
                    calls.merge(&blocks);
                    calls
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lock-free worker finished"))
            .collect()
    });
    for r in &per_worker {
        rows.merge(r);
    }
    out.check(
        store.check_invariants() && BinStore::total_balls(&store) == live_balls(s),
        "lock-free drive: invariants and conservation",
    );
    (store.lost_races(), store.fallback_commits(), s.committed())
}

/// Drains every owner's inbox once, each drain a span (spans on) or a
/// batch-timed block (spans off). Returns the messages applied.
fn drain_all(
    engine: &OwnedShardEngine,
    states: &mut [ShardState],
    spans: bool,
    calls: &mut Rows,
    blocks: &mut Rows,
) -> u64 {
    let mut applied = 0;
    for (w, own) in states.iter_mut().enumerate() {
        applied += if spans {
            calls.engine_drain.time_counted(|| engine.drain(w, own))
        } else {
            blocks.engine_drain.batch_counted(|| engine.drain(w, own))
        };
    }
    applied
}

/// The shared-nothing engine with `cfg.threads` owners, driven from
/// outside by one thread that plays each owner in turn: `decide` against
/// the published snapshot, `submit_*` routed to the owner, and `drain` of
/// every inbox after each batch (before any ring can fill) and at the end
/// of each tick. Returns the cross-owner messages drained.
fn drive_engine(
    cfg: &OpenLoopConfig,
    s: &TrafficSchedule,
    spans: bool,
    rows: &mut Rows,
    out: &mut Outcome,
) -> u64 {
    let workers = cfg.threads;
    let (engine, mut states) = OwnedShardEngine::new(cfg.bins, workers, REFRESH);
    let placements = Placements::new(s.timings.len());
    // Per-call spans (on when spans are) and batch-timed phase
    // blocks (filled when spans are off).
    let (mut calls, mut blocks) = (Rows::new(spans), Rows::new(false));
    let mut prep = Rows::new(false);
    let (mut probes, mut rngs, mut slots, mut bins) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut msgs = 0u64;
    for t in 0..s.commit_ranges.len() {
        let deps = &s.departures[t];
        for w in 0..workers {
            for batch in deps[slice(0..deps.len(), workers, w)].chunks(MAX_BATCH) {
                for &id in batch {
                    for bin in placements.get(id as usize) {
                        engine.submit_remove(w, bin, &mut states[w]);
                    }
                }
                msgs += drain_all(&engine, &mut states, spans, &mut calls, &mut blocks);
            }
        }
        let (lo, hi) = s.commit_ranges[t];
        for w in 0..workers {
            let ids = slice(lo as usize..hi as usize, workers, w);
            prepare(cfg, ids.clone(), &mut prep, &mut probes, &mut rngs);
            for (i, rng) in rngs.iter_mut().enumerate() {
                let sorted = &mut probes[i * D..(i + 1) * D];
                sorted.sort_unstable();
                bins.clear();
                calls
                    .engine_decide
                    .time(1, || engine.decide(sorted, K, rng, &mut slots, &mut bins));
                for &bin in &bins {
                    engine.submit_add(w, bin, &mut states[w]);
                }
                placements.set(ids.start + i, &bins);
                if (i + 1) % MAX_BATCH == 0 {
                    msgs += drain_all(&engine, &mut states, spans, &mut calls, &mut blocks);
                }
            }
            msgs += drain_all(&engine, &mut states, spans, &mut calls, &mut blocks);
        }
        for (w, own) in states.iter_mut().enumerate() {
            while !engine.inbox_empty(w) {
                msgs += engine.drain(w, own);
            }
            engine.flush(own);
        }
    }
    let live: u64 = states.iter().map(|st| st.slab().total_balls()).sum();
    let ok = states.iter().all(|st| st.slab().check_invariants());
    out.check(
        ok && live == live_balls(s),
        "shared-nothing drive: invariants and conservation",
    );
    // `decide` reads only the snapshot: repeat it back to back.
    let mut rng = Xoshiro256PlusPlus::from_u64(cfg.seed);
    let mut sets = Vec::with_capacity(MICRO_BATCH * D);
    let mut one = Vec::with_capacity(D);
    for _ in 0..MICRO_BATCH {
        fill_with_replacement(&mut rng, cfg.bins, D, &mut one);
        one.sort_unstable();
        sets.extend_from_slice(&one);
    }
    bins.clear();
    blocks.engine_decide.batch(MICRO_BATCH as u64, || {
        for set in sets.chunks(D) {
            engine.decide(set, K, &mut rng, &mut slots, &mut bins);
        }
    });
    rows.merge(&calls);
    rows.merge(&blocks);
    msgs
}

/// Untraced pipeline runs of every backend at `threads`: per-backend
/// nanoseconds per ball and tick microseconds, plus the worst steady gap.
fn pipeline_pass(
    seed: u64,
    threads: usize,
    scale: Scale,
    out: &mut Outcome,
) -> ([f64; 3], [f64; 3], f64) {
    let (mut ns, mut tick, mut gap) = ([0.0; 3], [0.0; 3], 0.0f64);
    let (_, sched) = schedule(&config(BACKENDS[0], threads, seed, scale));
    for (b, backend) in BACKENDS.iter().enumerate() {
        let report = run_open_loop(&config(*backend, threads, seed, scale));
        check_report(out, &report, &sched, backend.name());
        ns[b] = report.wall_secs * 1e9 / report.balls_placed as f64;
        tick[b] = report.wall_secs * 1e6 / f64::from(report.ticks);
        gap = gap.max(report.steady_gap_mean);
    }
    (ns, tick, gap)
}

/// The traced run: the pipeline per backend untraced, then the same
/// trace driven from outside through each layer's calls with spans on and
/// off, for about `seconds`. Reports the ladder, the residual
/// the ladder leaves unattributed (one thread), the cost of the second
/// thread (two threads), the lock-free race ratios, the engine's message
/// rate and the tracing overhead.
pub fn run_traced(seed: u64, seconds: f64, threads: usize, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let mut rows = Rows::new(true);
    let mut ns: [Vec<f64>; 3] = Default::default();
    let mut ns_1t: [Vec<f64>; 3] = Default::default();
    let mut tick: [Vec<f64>; 3] = Default::default();
    let (mut gaps, mut on_secs, mut off_secs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lost, mut fallback, mut placed, mut msgs, mut balls) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut passes = Passes::new(seconds);
    while let Some(pass) = passes.next_pass() {
        let pass_seed = derive_seed(seed, pass);
        let (pass_ns, pass_tick, gap) = pipeline_pass(pass_seed, threads, scale, &mut out);
        gaps.push(gap);
        for b in 0..3 {
            ns[b].push(pass_ns[b]);
            tick[b].push(pass_tick[b]);
        }
        if threads > 1 {
            let (one_ns, _, _) = pipeline_pass(pass_seed, 1, scale, &mut out);
            for b in 0..3 {
                ns_1t[b].push(one_ns[b]);
            }
        }

        let cfg = config(ServiceBackend::Striped, threads, pass_seed, scale);
        let (secs, sched) = schedule(&cfg);
        let requests = sched.timings.len() as u64;
        rows.generate.add(secs * 1e9, requests);
        rows.generate.batch(requests, || schedule(&cfg));
        balls += sched.committed() * K as u64;

        drive_core(&cfg, &sched, &mut rows, &mut out);
        for spans in [true, false] {
            let mut pass_rows = Rows::new(spans);
            let t = Instant::now();
            drive_striped(&cfg, &sched, spans, &mut pass_rows, &mut out);
            let (l, f, p) = drive_lockfree(&cfg, &sched, spans, &mut pass_rows, &mut out);
            let m = drive_engine(&cfg, &sched, spans, &mut pass_rows, &mut out);
            let secs = t.elapsed().as_secs_f64();
            if spans {
                (lost, fallback, placed, msgs) = (lost + l, fallback + f, placed + p, msgs + m);
                on_secs.push(secs);
            } else {
                off_secs.push(secs);
            }
            rows.merge(&pass_rows);
        }
    }

    let names = ["striped", "shared_nothing", "lockfree"];
    let rates: Vec<f64> = ns.iter().map(|v| 1e9 / steady_time(v)).collect();
    out.metric("balls_per_s.striped", rates[0], "balls/s");
    out.metric("balls_per_s.shared_nothing", rates[1], "balls/s");
    out.metric("balls_per_s.lockfree", rates[2], "balls/s");
    out.metric("steady_gap", median(&gaps), "balls");
    rows.fill
        .emit(&mut out, "prng.fill_ns_per_draw.n16", "ns", 1.0);
    rows.request_rng
        .emit(&mut out, "prng.request_rng_ns", "ns", 1.0);
    rows.decide16
        .emit(&mut out, "core.decide_ns.exact_n16", "ns", 1.0);
    rows.release16
        .emit(&mut out, "core.release_ns.exact_n16", "ns", 1.0);
    rows.generate.emit(
        &mut out,
        "service.traffic.generate_ns_per_request",
        "ns",
        1.0,
    );
    rows.sharded_place.emit(
        &mut out,
        "service.sharded.place_batch_ns_per_ball",
        "ns",
        1.0,
    );
    rows.sharded_release
        .emit(&mut out, "service.sharded.release_ns_per_ball", "ns", 1.0);
    rows.sharded_snapshot
        .emit(&mut out, "service.sharded.snapshot_us", "us", 1e3);
    rows.lockfree_place
        .emit(&mut out, "service.lockfree.place_ns_per_ball", "ns", 1.0);
    rows.lockfree_release
        .emit(&mut out, "service.lockfree.release_ns_per_ball", "ns", 1.0);
    rows.lockfree_snapshot
        .emit(&mut out, "service.lockfree.snapshot_us", "us", 1e3);
    rows.engine_decide
        .emit(&mut out, "service.engine.decide_ns", "ns", 1.0);
    rows.engine_drain
        .emit(&mut out, "service.engine.drain_ns_per_msg", "ns", 1.0);
    let placements = placed.max(1) as f64;
    out.metric(
        "service.lockfree.lost_race_ratio",
        lost as f64 / placements,
        "ratio",
    );
    out.metric(
        "service.lockfree.fallback_ratio",
        fallback as f64 / placements,
        "ratio",
    );
    out.metric(
        "service.engine.msgs_per_ball",
        msgs as f64 / balls.max(1) as f64,
        "msgs/ball",
    );
    for (b, name) in names.iter().enumerate() {
        out.metric(
            format!("service.pipeline.tick_us.{name}"),
            steady_time(&tick[b]),
            "us",
        );
    }

    if threads == 1 {
        // What the ladder rows add up to per placed ball; releases run
        // once per placed ball in steady state.
        let balls_per_tick = balls as f64 / (passes.done() as f64 * f64::from(shape(scale).1));
        let front =
            rows.request_rng.batch_mean() / K as f64 + rows.fill.batch_mean() * D as f64 / K as f64;
        let ladder = [
            front
                + rows.sharded_place.batch_mean()
                + rows.sharded_release.batch_mean()
                + rows.sharded_snapshot.batch_mean() / balls_per_tick,
            front
                + rows.engine_decide.batch_mean() / K as f64
                + rows.engine_drain.batch_mean() * msgs as f64 / balls.max(1) as f64,
            front
                + rows.lockfree_place.batch_mean()
                + rows.lockfree_release.batch_mean()
                + rows.lockfree_snapshot.batch_mean() / balls_per_tick,
        ];
        for (b, name) in names.iter().enumerate() {
            out.metric(
                format!("service.pipeline.unattributed_ns_per_ball.{name}"),
                steady_time(&ns[b]) - ladder[b],
                "ns",
            );
        }
    } else {
        for (b, name) in names.iter().enumerate() {
            out.metric(
                format!("service.pipeline.second_thread_ns_per_ball.{name}"),
                steady_time(&ns[b]) - steady_time(&ns_1t[b]),
                "ns",
            );
        }
    }
    out.metric(
        "trace.overhead_frac",
        steady_time(&on_secs) / steady_time(&off_secs) - 1.0,
        "ratio",
    );
    out
}
