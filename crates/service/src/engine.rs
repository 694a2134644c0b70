//! The shared-nothing placement engine: thread-per-shard ownership,
//! bounded SPSC rings, and snapshot-read probe decisions.
//!
//! ## Ownership model
//!
//! [`OwnedShardEngine`] partitions the `n` bins into `W` **contiguous**
//! ranges, one per worker thread: worker `w` owns bins
//! `[ceil(w·n/W), ceil((w+1)·n/W))` and is the **only** thread that ever
//! mutates their [`LoadVector`](kdchoice_core::LoadVector) — no mutex guards any shard state. The
//! ceiling-based bounds make the inverse owner map exact arithmetic:
//! `owner(bin) = ⌊bin·W/n⌋`, no search.
//!
//! ## Ring protocol
//!
//! Cross-shard operations travel over a `W × W` matrix of bounded
//! single-producer/single-consumer rings (Lamport queues over
//! `AtomicU64` slots — safe Rust, no new dependencies). A message is one
//! packed word: bit 63 selects add/remove, the low bits carry the bin.
//! A producer whose ring is full **drains its own inbox** before
//! retrying, so the system cannot deadlock: someone always consumes.
//!
//! ## Snapshot staleness semantics
//!
//! Probe decisions never lock anything: they read a
//! [`SharedLoadSnapshot`] — one relaxed `AtomicU32` per bin — through
//! the same [`decide_k_least`] kernel the locked path mirrors. Each
//! owner republishes its dirty bins every [`OwnedShardEngine::refresh`]
//! applied mutations. `refresh = 1` on a single thread makes the
//! snapshot synchronous (always equal to the truth), which is what
//! makes the shared-nothing path **bit-identical** to the lock-striped
//! path there; larger periods trade decision accuracy for publish
//! traffic, and the staleness-vs-gap sweep in `BENCH_results.json`
//! measures that the resulting gap stays inside the Theorem 2 envelope.
//!
//! ## Which determinism guarantees survive
//!
//! | Quantity | striped | shared-nothing |
//! |---|---|---|
//! | per-request probes / tie keys | pure in `(seed, id)` | **unchanged** (same streams) |
//! | single-thread final state | exact | **bit-identical to striped** when `refresh = 1` |
//! | multi-thread final state | interleaving-dependent | interleaving-dependent (flush timing) |
//! | ball conservation, invariants | exact | **exact** (checked every run) |

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use kdchoice_core::{decide_k_least, BinSlab, LoadSnapshot, StoreKind};
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use rand::RngCore;

use crate::pipeline::{want_sample, worker_slice, DriveOutcome, Run, TickSample};
use crate::service::{EndState, ServiceReport, ServiceWorkloadConfig};
use crate::sharded::Placement;

/// Which concurrency backend serves placement and release requests.
///
/// All three backends run the same (k,d)-choice decision kernel on the same
/// per-request RNG streams from the same configs; they differ only in
/// how concurrent state is shared. The repository benchmark times them on
/// one open-loop trace (the `churn_1t` and `churn_2t` workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceBackend {
    /// The lock-striped [`crate::ShardedStore`]: cross-shard mutexes in
    /// canonical order, exact reads, one linearization point per request.
    Striped,
    /// The shared-nothing [`OwnedShardEngine`]: thread-per-shard
    /// ownership, SPSC rings, relaxed snapshot reads, no mutexes.
    SharedNothing,
    /// The lock-free [`crate::AtomicStore`]: one CAS-able `AtomicU32`
    /// per bin, optimistic read–decide–CAS commits with bounded retries,
    /// racy probe reads, no mutexes and no ownership partition.
    LockFree,
}

impl ServiceBackend {
    /// The report/axis label (`"striped"` / `"shared_nothing"` /
    /// `"lockfree"`).
    pub fn name(&self) -> &'static str {
        match self {
            ServiceBackend::Striped => "striped",
            ServiceBackend::SharedNothing => "shared_nothing",
            ServiceBackend::LockFree => "lockfree",
        }
    }

    /// Parses an axis value (the inverse of [`ServiceBackend::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "striped" => Some(ServiceBackend::Striped),
            "shared_nothing" => Some(ServiceBackend::SharedNothing),
            "lockfree" => Some(ServiceBackend::LockFree),
            _ => None,
        }
    }
}

/// Slots per SPSC ring. Overflow is handled by the producer draining its
/// own inbox, so capacity only tunes batching, not correctness.
const RING_CAPACITY: usize = 256;

/// Bit 63 of a ring message: set = remove one ball, clear = add one.
const OP_REMOVE: u64 = 1 << 63;

/// A bounded single-producer/single-consumer ring over `AtomicU64`
/// slots (a Lamport queue). The producer's release-store of `tail`
/// publishes the slot write; the consumer's release-store of `head`
/// returns the slot to the producer.
#[derive(Debug)]
struct SpscRing {
    slots: Vec<AtomicU64>,
    mask: u64,
    head: AtomicU64,
    tail: AtomicU64,
}

impl SpscRing {
    fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        Self {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
        }
    }

    /// Producer side: enqueue `msg`, or report the ring full.
    fn try_push(&self, msg: u64) -> bool {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Acquire);
        if t.wrapping_sub(h) >= self.slots.len() as u64 {
            return false;
        }
        self.slots[(t & self.mask) as usize].store(msg, Ordering::Relaxed);
        self.tail.store(t.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: dequeue the oldest message, if any.
    fn try_pop(&self) -> Option<u64> {
        let h = self.head.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Acquire);
        if h == t {
            return None;
        }
        let msg = self.slots[(h & self.mask) as usize].load(Ordering::Relaxed);
        self.head.store(h.wrapping_add(1), Ordering::Release);
        Some(msg)
    }

    fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
    }
}

/// One worker's privately-owned shard: a contiguous bin range, its
/// [`LoadVector`](kdchoice_core::LoadVector), and the dirty-bin bookkeeping for snapshot publishes.
///
/// Exactly one thread holds `&mut` to each `ShardState`; the engine
/// never aliases it. Obtain them from [`OwnedShardEngine::new`] /
/// [`OwnedShardEngine::with_capacities`] (one per worker, in worker
/// order) and hand each to its thread.
#[derive(Debug)]
pub struct ShardState {
    /// Global index of the first owned bin.
    base: usize,
    /// Loads of the owned bins (local index = global − base), in the
    /// run's [`StoreKind`] representation.
    state: BinSlab,
    /// Local indices mutated since the last snapshot publish.
    dirty: Vec<usize>,
    /// Membership mask for `dirty` (no duplicate publishes).
    dirty_mark: Vec<bool>,
    /// Mutations applied since the last publish.
    since_flush: usize,
}

impl ShardState {
    fn new(base: usize, state: BinSlab) -> Self {
        let len = state.n();
        Self {
            base,
            state,
            dirty: Vec::with_capacity(len),
            dirty_mark: vec![false; len],
            since_flush: 0,
        }
    }

    /// Global index of the first owned bin.
    pub fn base(&self) -> usize {
        self.base
    }

    /// The owned loads (read-only; local index = global − base).
    pub fn slab(&self) -> &BinSlab {
        &self.state
    }
}

/// The shared-nothing placement engine (see the module docs for the
/// ownership, ring, and staleness contracts).
///
/// The engine itself is the *shared, immutable* part: partition bounds,
/// the snapshot, and the ring matrix. All mutable state lives in the
/// per-worker [`ShardState`]s, which is exactly why no method here takes
/// a lock.
#[derive(Debug)]
pub struct OwnedShardEngine {
    snapshot: LoadSnapshot,
    /// `rings[producer * workers + consumer]`.
    rings: Vec<SpscRing>,
    /// `bounds[w] = ceil(w·n/W)`; worker `w` owns `bounds[w]..bounds[w+1]`.
    bounds: Vec<usize>,
    workers: usize,
    n: usize,
    refresh: usize,
    kind: StoreKind,
}

impl OwnedShardEngine {
    /// Creates an engine over `n` homogeneous exact bins owned by
    /// `workers` threads, republishing snapshots every `refresh`
    /// mutations. Returns the engine and one [`ShardState`] per worker
    /// (index = worker id).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `workers == 0`, `workers > n`, or
    /// `refresh == 0`.
    pub fn new(n: usize, workers: usize, refresh: usize) -> (Self, Vec<ShardState>) {
        Self::build(n, workers, refresh, None, StoreKind::Exact)
    }

    /// [`OwnedShardEngine::new`] with shard state and snapshot in the
    /// given [`StoreKind`] representation. Packed kinds publish into a
    /// [`kdchoice_core::PackedLoadSnapshot`] — 16 bins per `u64` word at
    /// b = 4 instead of 2 `AtomicU32` bins per cache line, so each
    /// refresh touches ~8× fewer lines.
    ///
    /// # Panics
    ///
    /// As [`OwnedShardEngine::new`].
    pub fn with_kind(
        n: usize,
        workers: usize,
        refresh: usize,
        kind: StoreKind,
    ) -> (Self, Vec<ShardState>) {
        Self::build(n, workers, refresh, None, kind)
    }

    /// [`OwnedShardEngine::new`] with per-bin capacities (the
    /// heterogeneous cluster); `capacities.len()` must equal `n`.
    ///
    /// # Panics
    ///
    /// As [`OwnedShardEngine::new`], plus mismatched capacity length.
    pub fn with_capacities(
        n: usize,
        workers: usize,
        refresh: usize,
        capacities: &[u32],
    ) -> (Self, Vec<ShardState>) {
        assert_eq!(capacities.len(), n, "need exactly one capacity per bin");
        Self::build(n, workers, refresh, Some(capacities), StoreKind::Exact)
    }

    /// [`OwnedShardEngine::with_capacities`] with a non-exact
    /// [`StoreKind`].
    ///
    /// # Panics
    ///
    /// As [`OwnedShardEngine::with_capacities`].
    pub fn with_kind_capacities(
        n: usize,
        workers: usize,
        refresh: usize,
        capacities: &[u32],
        kind: StoreKind,
    ) -> (Self, Vec<ShardState>) {
        assert_eq!(capacities.len(), n, "need exactly one capacity per bin");
        Self::build(n, workers, refresh, Some(capacities), kind)
    }

    fn build(
        n: usize,
        workers: usize,
        refresh: usize,
        capacities: Option<&[u32]>,
        kind: StoreKind,
    ) -> (Self, Vec<ShardState>) {
        assert!(n > 0, "need at least one bin");
        assert!(
            workers > 0 && workers <= n,
            "need 1 <= workers <= n bins (workers={workers}, n={n})"
        );
        assert!(refresh > 0, "snapshot refresh period must be at least 1");
        let bounds: Vec<usize> = (0..=workers).map(|w| (w * n).div_ceil(workers)).collect();
        let states = (0..workers)
            .map(|w| {
                let (lo, hi) = (bounds[w], bounds[w + 1]);
                let slab = match capacities {
                    None => kind.new_slab(hi - lo),
                    Some(caps) => kind.slab_with_capacities(&caps[lo..hi]),
                };
                ShardState::new(lo, slab)
            })
            .collect();
        let engine = Self {
            snapshot: LoadSnapshot::for_kind(kind, n),
            rings: (0..workers * workers)
                .map(|_| SpscRing::new(RING_CAPACITY))
                .collect(),
            bounds,
            workers,
            n,
            refresh,
            kind,
        };
        (engine, states)
    }

    /// The number of bins.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of owner threads (= shards).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The snapshot republish period, in applied mutations per owner.
    pub fn refresh(&self) -> usize {
        self.refresh
    }

    /// The [`StoreKind`] every shard's slab (and the snapshot) runs.
    pub fn store_kind(&self) -> StoreKind {
        self.kind
    }

    /// The published load snapshot probing threads decide against.
    pub fn snapshot(&self) -> &LoadSnapshot {
        &self.snapshot
    }

    /// The worker owning `bin` — exact arithmetic, no search, because
    /// the partition bounds are `ceil(w·n/W)`.
    #[inline]
    pub fn owner_of(&self, bin: usize) -> usize {
        debug_assert!(bin < self.n);
        bin * self.workers / self.n
    }

    /// The `[lo, hi)` global bin range worker `w` owns.
    pub fn owned_range(&self, w: usize) -> (usize, usize) {
        (self.bounds[w], self.bounds[w + 1])
    }

    /// Decides one (k,d)-choice placement against the **snapshot**
    /// (relaxed reads, no locks): winner bins are appended to `bins_out`
    /// and the maximum tentative height is returned. `sorted_probes`
    /// must be sorted ascending; `slots` is scratch. RNG consumption is
    /// identical to `ShardedStore::place_k_least`.
    #[inline]
    pub fn decide<R: RngCore + ?Sized>(
        &self,
        sorted_probes: &[usize],
        k: usize,
        rng: &mut R,
        slots: &mut Vec<(u32, u64, usize)>,
        bins_out: &mut Vec<usize>,
    ) -> u32 {
        decide_k_least(&self.snapshot, sorted_probes, k, rng, slots, bins_out)
    }

    fn ring(&self, from: usize, to: usize) -> &SpscRing {
        &self.rings[from * self.workers + to]
    }

    /// Applies one packed message to the owner's state and counts it
    /// toward the next snapshot publish.
    fn apply(&self, own: &mut ShardState, msg: u64) {
        let bin = (msg & !OP_REMOVE) as usize;
        let local = bin - own.base;
        if msg & OP_REMOVE != 0 {
            own.state.remove_ball(local);
        } else {
            own.state.add_ball(local);
        }
        if !own.dirty_mark[local] {
            own.dirty_mark[local] = true;
            own.dirty.push(local);
        }
        own.since_flush += 1;
        if own.since_flush >= self.refresh {
            self.flush(own);
        }
    }

    /// Publishes every dirty owned bin into the snapshot and resets the
    /// mutation counter. Owners call this implicitly every
    /// [`OwnedShardEngine::refresh`] mutations and once at shutdown.
    pub fn flush(&self, own: &mut ShardState) {
        for &local in &own.dirty {
            self.snapshot.set(own.base + local, own.state.load(local));
            own.dirty_mark[local] = false;
        }
        own.dirty.clear();
        own.since_flush = 0;
    }

    /// Drains worker `w`'s whole inbox (every ring with `w` as
    /// consumer), applying each message to `own`. Returns the number of
    /// messages applied.
    pub fn drain(&self, w: usize, own: &mut ShardState) -> u64 {
        let mut applied = 0;
        for p in 0..self.workers {
            if p == w {
                continue;
            }
            let ring = self.ring(p, w);
            while let Some(msg) = ring.try_pop() {
                self.apply(own, msg);
                applied += 1;
            }
        }
        applied
    }

    /// Whether worker `w`'s inbox is empty (for shutdown handshakes).
    pub fn inbox_empty(&self, w: usize) -> bool {
        (0..self.workers).all(|p| p == w || self.ring(p, w).is_empty())
    }

    /// Routes one add/remove for `bin` from worker `from`: applied
    /// directly when `from` owns the bin, enqueued to the owner's ring
    /// otherwise. A full ring is survived by draining `from`'s own inbox
    /// (which is what makes the routing deadlock-free) and yielding.
    fn submit(&self, from: usize, msg: u64, own: &mut ShardState) {
        let bin = (msg & !OP_REMOVE) as usize;
        let to = self.owner_of(bin);
        if to == from {
            self.apply(own, msg);
            return;
        }
        let ring = self.ring(from, to);
        while !ring.try_push(msg) {
            if self.drain(from, own) == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Routes "place one ball into `bin`" from worker `from`.
    #[inline]
    pub fn submit_add(&self, from: usize, bin: usize, own: &mut ShardState) {
        self.submit(from, bin as u64, own);
    }

    /// Routes "remove one ball from `bin`" from worker `from`.
    #[inline]
    pub fn submit_remove(&self, from: usize, bin: usize, own: &mut ShardState) {
        self.submit(from, bin as u64 | OP_REMOVE, own);
    }
}

/// Merged end-of-run observables over the per-worker shard states, plus
/// the invariant verdict (per-shard invariants, histogram consistency,
/// and snapshot-equals-truth after the final flush).
struct MergedState {
    live_balls: u64,
    histogram: Vec<u64>,
    max_load: u32,
    nu1: u64,
    total_capacity: u64,
    max_utilization: f64,
    invariants_ok: bool,
}

fn merge_states(engine: &OwnedShardEngine, states: &[ShardState]) -> MergedState {
    let mut merged = MergedState {
        live_balls: 0,
        // Reserved once from the merged max load — growing shard by
        // shard reallocates repeatedly at huge n.
        histogram: vec![
            0u64;
            states.iter().map(|s| s.state.max_load()).max().unwrap_or(0) as usize + 1
        ],
        max_load: 0,
        nu1: 0,
        total_capacity: 0,
        max_utilization: 0.0,
        invariants_ok: true,
    };
    // Packed slabs past a clamp report quantized loads, so the
    // weighted-histogram-vs-ball-count identity only holds where the
    // representation is still exact.
    let mut loads_exact = true;
    for s in states {
        merged.invariants_ok &= s.state.check_invariants();
        merged.live_balls += s.state.total_balls();
        merged.max_load = merged.max_load.max(s.state.max_load());
        merged.nu1 += s.state.nu(1);
        merged.total_capacity += s.state.total_capacity();
        merged.max_utilization = merged.max_utilization.max(s.state.max_utilization());
        s.state.accumulate_histogram(&mut merged.histogram);
        loads_exact &= match &s.state {
            BinSlab::Exact(_) => true,
            BinSlab::Packed(p) => p.is_lossless(),
        };
        // After the final flush the snapshot must equal the truth (up to
        // the packed snapshot's publish ceiling).
        for local in 0..s.state.n() {
            merged.invariants_ok &= engine.snapshot().get(s.base + local)
                == engine.snapshot().published(s.state.load(local));
        }
    }
    let bins: u64 = merged.histogram.iter().sum();
    let weighted: u64 = merged
        .histogram
        .iter()
        .enumerate()
        .map(|(l, &c)| c * l as u64)
        .sum();
    merged.invariants_ok &= bins == engine.n() as u64;
    if loads_exact {
        merged.invariants_ok &= weighted == merged.live_balls;
    }
    merged
}

/// One worker's sampled `(live, max)` pairs for the configured ticks.
type LocalSamples = Vec<(u64, u32)>;

/// One worker's reusable buffers for [`owned_tick`].
struct TickScratch {
    probes: Vec<usize>,
    slots: Vec<(u32, u64, usize)>,
    bins: Vec<usize>,
}

impl TickScratch {
    fn new(d: usize, k: usize) -> Self {
        Self {
            probes: vec![0; d],
            slots: Vec::with_capacity(d),
            bins: Vec::with_capacity(k),
        }
    }
}

/// The per-tick body shared by the single- and multi-thread open-loop
/// drivers: route my slice of departures, then decide + route my slice
/// of commits.
fn owned_tick(
    engine: &OwnedShardEngine,
    run: &Run<'_>,
    t: usize,
    w: usize,
    workers: usize,
    state: &mut ShardState,
    scratch: &mut TickScratch,
) {
    let Run {
        config,
        schedule,
        table,
        ..
    } = *run;
    let departures = &schedule.departures[t];
    let (lo, hi) = worker_slice((0, departures.len() as u32), workers, w);
    for &id in &departures[lo as usize..hi as usize] {
        scratch.bins.clear();
        table.get(id, &mut scratch.bins);
        for &bin in &scratch.bins {
            engine.submit_remove(w, bin, state);
        }
    }
    let range = worker_slice(schedule.commit_ranges[t], workers, w);
    for id in range.0..range.1 {
        let mut rng = Xoshiro256PlusPlus::from_u64(config.request_seed(id));
        config
            .probes
            .fill_each(&mut rng, config.bins, &mut scratch.probes);
        scratch.probes.sort_unstable();
        scratch.bins.clear();
        engine.decide(
            &scratch.probes,
            config.k,
            &mut rng,
            &mut scratch.slots,
            &mut scratch.bins,
        );
        for &bin in &scratch.bins {
            engine.submit_add(w, bin, state);
        }
        table.set(id, &scratch.bins);
    }
}

/// Drives an open-loop schedule through the shared-nothing engine.
///
/// `threads == 1` runs inline: no rings, and with `snapshot_refresh ==
/// 1` the snapshot is synchronous, so the run is bit-identical to the
/// striped backend (locked by `tests/backend_equivalence.rs`). With
/// more threads each tick ends in two rendezvous: first a
/// **drain-while-waiting** one — a worker that has routed all of its
/// releases and commits keeps draining its own inbox (never parking)
/// until every worker has finished pushing, which is what keeps a
/// neighbour stuck in the full-ring submit path live — then, once all
/// pushes of the tick are drained and sampled, a parking barrier (safe
/// there: nobody pushes between the two rendezvous points, so no one
/// can need a parked worker's drain).
pub(crate) fn drive_open_loop_owned(run: &Run<'_>) -> DriveOutcome {
    let config = run.config;
    assert!(
        config.threads <= config.bins,
        "shared-nothing backend needs threads <= bins (each worker owns >= 1 bin)"
    );
    assert!(
        config.snapshot_refresh >= 1,
        "snapshot refresh period must be at least 1"
    );
    let workers = config.threads;
    let (engine, mut states) = match &config.capacities {
        None => {
            OwnedShardEngine::with_kind(config.bins, workers, config.snapshot_refresh, config.store)
        }
        Some(caps) => OwnedShardEngine::with_kind_capacities(
            config.bins,
            workers,
            config.snapshot_refresh,
            caps,
            config.store,
        ),
    };
    let ticks = config.traffic.ticks as usize;
    let sampled_ticks: Vec<usize> = (0..ticks)
        .filter(|&t| want_sample(t, config.sample_every, ticks))
        .collect();

    let start = Instant::now();
    let (states, per_worker_samples): (Vec<ShardState>, Vec<LocalSamples>) = if workers == 1 {
        let mut state = states.pop().expect("one worker");
        let mut scratch = TickScratch::new(config.d, config.k);
        let mut samples = Vec::with_capacity(sampled_ticks.len());
        for t in 0..ticks {
            owned_tick(&engine, run, t, 0, 1, &mut state, &mut scratch);
            if want_sample(t, config.sample_every, ticks) {
                samples.push((state.state.total_balls(), state.state.max_load()));
            }
        }
        engine.flush(&mut state);
        (vec![state], vec![samples])
    } else {
        let barrier = Barrier::new(workers);
        // Monotone count of (worker, tick) push phases completed; tick t
        // is fully pushed once it reaches `(t + 1) * workers`. Monotone
        // so no per-tick reset can race with a late reader.
        let pushed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .drain(..)
                .enumerate()
                .map(|(w, mut state)| {
                    let engine = &engine;
                    let barrier = &barrier;
                    let pushed = &pushed;
                    let sampled = sampled_ticks.len();
                    scope.spawn(move || {
                        let mut scratch = TickScratch::new(config.d, config.k);
                        let mut samples = Vec::with_capacity(sampled);
                        for t in 0..ticks {
                            owned_tick(engine, run, t, w, workers, &mut state, &mut scratch);
                            // Drain-while-waiting rendezvous: a parked
                            // barrier here can deadlock — a worker stuck
                            // in the full-ring submit path needs *us* to
                            // keep draining until it, too, finishes its
                            // pushes for this tick.
                            pushed.fetch_add(1, Ordering::Release);
                            let goal = (t + 1) * workers;
                            while pushed.load(Ordering::Acquire) < goal {
                                if engine.drain(w, &mut state) == 0 {
                                    std::thread::yield_now();
                                }
                            }
                            engine.drain(w, &mut state);
                            if want_sample(t, config.sample_every, ticks) {
                                samples.push((state.state.total_balls(), state.state.max_load()));
                            }
                            barrier.wait(); // tick t fully applied + sampled
                        }
                        engine.flush(&mut state);
                        (state, samples)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("owned worker must not panic"))
                .unzip()
        })
    };
    let wall_secs = start.elapsed().as_secs_f64();

    // Merge the per-worker (live, max) pairs into the tick series.
    let series = sampled_ticks
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let live: u64 = per_worker_samples.iter().map(|s| s[i].0).sum();
            let max: u32 = per_worker_samples.iter().map(|s| s[i].1).max().unwrap_or(0);
            TickSample {
                tick: t as u32,
                live_balls: live,
                max_load: max,
                gap: f64::from(max) - live as f64 / config.bins as f64,
            }
        })
        .collect();

    let merged = merge_states(&engine, &states);
    DriveOutcome {
        series,
        wall_secs,
        live_balls: merged.live_balls,
        final_histogram: merged.histogram,
        final_util_gap: merged.max_utilization
            - merged.live_balls as f64 / merged.total_capacity as f64,
        total_capacity: merged.total_capacity,
        invariants_ok: merged.invariants_ok,
    }
}

/// Runs the closed-loop service workload on the shared-nothing engine:
/// the `threads` clients **are** the owners — each serves its own
/// request stream (same `derive_seed(seed, t)` streams as the striped
/// backend), decides on the snapshot, routes commits/releases over the
/// rings, and opportunistically drains its inbox between requests.
/// Shutdown is a done-counter handshake: a worker exits once every
/// client has finished issuing (release-ordered) and its own inbox is
/// empty, so no message is ever dropped.
pub(crate) fn run_service_workload_owned(config: &ServiceWorkloadConfig) -> ServiceReport {
    assert!(config.threads > 0, "need at least one client thread");
    assert!(
        config.threads <= config.bins,
        "shared-nothing backend needs threads <= bins (each worker owns >= 1 bin)"
    );
    assert!(
        config.k >= 1 && config.k <= config.d,
        "need 1 <= k <= d (k={}, d={})",
        config.k,
        config.d
    );
    let (engine, states) = OwnedShardEngine::with_kind(
        config.bins,
        config.threads,
        config.snapshot_refresh,
        config.store,
    );
    let sampler = kdchoice_prng::sample::UniformBin::new(config.bins);
    let done = AtomicUsize::new(0);

    let start = Instant::now();
    let results: Vec<(ShardState, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(w, mut state)| {
                let engine = &engine;
                let done = &done;
                scope.spawn(move || {
                    let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(config.seed, w as u64));
                    let mut probes_scratch = vec![0usize; config.d];
                    let mut slots_scratch = Vec::with_capacity(config.d);
                    let mut live: std::collections::VecDeque<Placement> =
                        std::collections::VecDeque::new();
                    let mut released = 0u64;
                    for _ in 0..config.requests_per_thread {
                        engine.drain(w, &mut state);
                        sampler.fill_seq(&mut rng, &mut probes_scratch);
                        probes_scratch.sort_unstable();
                        let mut bins = Vec::with_capacity(config.k);
                        let max_height = engine.decide(
                            &probes_scratch,
                            config.k,
                            &mut rng,
                            &mut slots_scratch,
                            &mut bins,
                        );
                        for &bin in &bins {
                            engine.submit_add(w, bin, &mut state);
                        }
                        if config.window > 0 {
                            live.push_back(Placement { bins, max_height });
                            if live.len() > config.window {
                                let oldest = live.pop_front().expect("window > 0");
                                released += oldest.bins.len() as u64;
                                for &bin in &oldest.bins {
                                    engine.submit_remove(w, bin, &mut state);
                                }
                            }
                        }
                    }
                    done.fetch_add(1, Ordering::Release);
                    loop {
                        engine.drain(w, &mut state);
                        if done.load(Ordering::Acquire) == config.threads && engine.inbox_empty(w) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    engine.flush(&mut state);
                    (state, released)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("owned client must not panic"))
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let (states, released_counts): (Vec<ShardState>, Vec<u64>) = results.into_iter().unzip();
    let merged = merge_states(&engine, &states);
    let end = EndState {
        live_balls: merged.live_balls,
        max_load: merged.max_load,
        nu1: merged.nu1,
        invariants_ok: merged.invariants_ok,
    };
    let balls_released = released_counts.iter().sum();
    ServiceReport::closed_loop(config, wall_secs, balls_released, end, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [
            ServiceBackend::Striped,
            ServiceBackend::SharedNothing,
            ServiceBackend::LockFree,
        ] {
            assert_eq!(ServiceBackend::parse(b.name()), Some(b));
        }
        assert_eq!(ServiceBackend::parse("mutex"), None);
        assert_eq!(ServiceBackend::parse("lock_free"), None);
    }

    #[test]
    fn ring_is_fifo_and_bounded() {
        let ring = SpscRing::new(4);
        assert!(ring.is_empty());
        for v in 0..4 {
            assert!(ring.try_push(v));
        }
        assert!(!ring.try_push(99), "full ring must refuse");
        for v in 0..4 {
            assert_eq!(ring.try_pop(), Some(v));
        }
        assert_eq!(ring.try_pop(), None);
        // Wrap-around keeps FIFO order.
        for v in 10..13 {
            assert!(ring.try_push(v));
        }
        assert_eq!(ring.try_pop(), Some(10));
        assert!(ring.try_push(13));
        for v in 11..14 {
            assert_eq!(ring.try_pop(), Some(v));
        }
    }

    #[test]
    fn partition_bounds_are_exact_and_cover() {
        for (n, workers) in [(16, 4), (17, 4), (509, 8), (5, 5), (7, 3), (1, 1)] {
            let (engine, states) = OwnedShardEngine::new(n, workers, 1);
            let mut covered = 0;
            for (w, s) in states.iter().enumerate() {
                let (lo, hi) = engine.owned_range(w);
                assert_eq!(lo, covered, "n={n} w={w}");
                assert_eq!(s.base(), lo);
                assert_eq!(s.slab().n(), hi - lo);
                assert!(hi > lo, "every worker owns at least one bin");
                for bin in lo..hi {
                    assert_eq!(engine.owner_of(bin), w, "n={n} workers={workers} bin={bin}");
                }
                covered = hi;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn apply_and_flush_publish_owned_loads() {
        let (engine, mut states) = OwnedShardEngine::new(10, 2, 4);
        let mut s0 = states.remove(0);
        // Worker 0 owns bins 0..5. Three mutations: below the refresh
        // period, so nothing published yet.
        engine.submit_add(0, 2, &mut s0);
        engine.submit_add(0, 2, &mut s0);
        engine.submit_add(0, 4, &mut s0);
        assert_eq!(s0.slab().load(2), 2);
        assert_eq!(engine.snapshot().get(2), 0, "refresh=4 not yet reached");
        // Fourth mutation crosses the period: all dirty bins publish.
        engine.submit_remove(0, 2, &mut s0);
        assert_eq!(engine.snapshot().get(2), 1);
        assert_eq!(engine.snapshot().get(4), 1);
    }

    #[test]
    fn cross_worker_messages_travel_the_ring() {
        let (engine, mut states) = OwnedShardEngine::new(10, 2, 1);
        let mut s1 = states.remove(1);
        let mut s0 = states.remove(0);
        // Worker 0 places into bin 7, owned by worker 1.
        engine.submit_add(0, 7, &mut s0);
        assert_eq!(s1.slab().total_balls(), 0);
        assert!(!engine.inbox_empty(1));
        assert_eq!(engine.drain(1, &mut s1), 1);
        assert_eq!(s1.slab().load(7 - s1.base()), 1);
        assert_eq!(engine.snapshot().get(7), 1, "refresh=1 is synchronous");
        assert!(engine.inbox_empty(1));
    }

    /// A packed engine publishes through the packed snapshot: same
    /// routing, ~8× fewer cache lines per refresh, values saturated at
    /// the publish ceiling.
    #[test]
    fn packed_engine_publishes_saturated_snapshot() {
        let (engine, mut states) = OwnedShardEngine::with_kind(32, 2, 1, StoreKind::Packed4);
        assert_eq!(engine.store_kind(), StoreKind::Packed4);
        assert!(matches!(engine.snapshot(), LoadSnapshot::Packed(_)));
        let mut s1 = states.remove(1);
        let mut s0 = states.remove(0);
        for _ in 0..20 {
            engine.submit_add(0, 3, &mut s0);
        }
        // A lone hot bin saturates both sides: renormalization cannot
        // advance the base while sibling bins sit at offset 0, so the
        // quantized truth and the published lane both pin at 15.
        assert_eq!(s0.slab().load(3), 15);
        assert_eq!(s0.slab().total_balls(), 20, "ball count stays exact");
        assert_eq!(engine.snapshot().get(3), 15);
        assert_eq!(engine.snapshot().published(20), 15);
        // Cross-worker traffic still routes over the rings.
        engine.submit_add(0, 31, &mut s0);
        assert_eq!(engine.drain(1, &mut s1), 1);
        assert_eq!(engine.snapshot().get(31), 1);
        let states = vec![s0, s1];
        assert!(merge_states(&engine, &states).invariants_ok);
    }

    #[test]
    #[should_panic(expected = "workers <= n")]
    fn more_workers_than_bins_rejected() {
        let _ = OwnedShardEngine::new(2, 4, 1);
    }
}
