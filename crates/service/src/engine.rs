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
//!
//! Each ring is built so that a message costs its producer and consumer
//! as few writes to a line the other core also touches as possible:
//!
//! * **Padded indices.** The producer's `tail` and the consumer's `head`
//!   each sit on their own cache line, apart from each other and from
//!   every other ring's indices. A push never invalidates the line a
//!   drain writes, and neither invalidates a neighbouring ring's.
//! * **Cached peer index.** The producer keeps a private copy of `head`
//!   and re-reads the shared one only when its copy says the ring is
//!   full, so a push that has room reads no line the consumer writes.
//! * **Batched release.** A drain reads `tail` once, applies every
//!   message published up to it, and then stores `head` once: one
//!   release of slots per batch, not one per message.
//! * **In-tick drain.** With more than one worker, each worker drains
//!   its own inbox after every 64 of its own commits (a quarter of the
//!   ring), so a peer pushing to it rarely meets a full ring.
//!
//! A producer whose ring is still full **drains its own inbox** before
//! retrying, so the system cannot deadlock: someone always consumes. The
//! open-loop tick then ends in a drain-while-waiting rendezvous (see
//! `drive_open_loop_owned`): no worker parks while a peer may still be
//! pushing, so a peer stuck on a full ring is always drained. The three
//! ring changes above touch neither rule: the cached `head` is re-read
//! before a push is refused, and the in-tick drain only adds consumption.
//!
//! ## Snapshot staleness semantics
//!
//! Probe decisions never lock anything: they read a
//! [`SharedLoadSnapshot`] — one relaxed `AtomicU32` per bin — through
//! the same [`decide_k_least`] kernel the locked path runs. Each
//! owner republishes its dirty bins every [`OwnedShardEngine::refresh`]
//! applied mutations. `refresh = 1` on a single thread makes the
//! snapshot synchronous (always equal to the truth), which is what
//! makes the shared-nothing path **bit-identical** to the lock-striped
//! path and to the single-thread oracle there; larger periods trade
//! decision accuracy for publish traffic, and the staleness-vs-gap sweep
//! in `BENCH_results.json` measures that the resulting gap stays inside
//! the Theorem 2 envelope.
//!
//! ## Which determinism guarantees survive
//!
//! | Quantity | striped | shared-nothing |
//! |---|---|---|
//! | per-request probes / tie keys | pure in `(seed, id)` | **unchanged** (same streams) |
//! | single-thread final state | bit-identical to the oracle | **bit-identical to the oracle** when `refresh = 1` |
//! | multi-thread final state | interleaving-dependent | interleaving-dependent (flush timing) |
//! | ball conservation, invariants | exact | **exact** (checked every run) |

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use kdchoice_core::{decide_k_least, sort_probes, BinSlab, LoadSnapshot, StoreKind};
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use rand::RngCore;

use crate::barrier::{Poison, SpinBarrier};
use crate::pad::CachePadded;
use crate::pipeline::{
    id_batches, want_sample, worker_slice, DriveOutcome, Run, TickSample, DRAW_BATCH,
};
use crate::service::{EndState, ServiceReport, ServiceWorkloadConfig};

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

/// With more than one worker, each worker drains its own inbox after
/// every this many of its own commits within a tick. Without it, a
/// producer whose ring fills waits in the full-ring path until the
/// consumer's own ring fills too, the consumer's first chance to drain.
const INBOX_DRAIN_EVERY: usize = RING_CAPACITY / 4;

/// Bit 63 of a ring message: set = remove one ball, clear = add one.
const OP_REMOVE: u64 = 1 << 63;

/// The producer's end of a ring: the index it publishes, and its private
/// copy of the consumer's index.
#[derive(Debug)]
struct ProducerEnd {
    tail: AtomicU64,
    /// The last `head` this producer read. Only the producer touches it.
    cached_head: AtomicU64,
}

/// A bounded single-producer/single-consumer ring over `AtomicU64`
/// slots (a Lamport queue). The producer's release-store of `tail`
/// publishes the slot write; the consumer's release-store of `head`
/// returns the slots to the producer.
///
/// `tail` and `head` sit on separate cache lines, which `repr(C)` keeps
/// two lines apart with the read-only slot pointer between them. The
/// producer keeps a private copy of `head` and re-reads the shared one
/// only when its copy says the ring is full. The consumer reads `tail`
/// once per drain and stores `head` once per drain, whatever the batch
/// size; a drain always ends caught up with the `tail` it read, so a
/// private copy of `tail` would buy it nothing.
#[derive(Debug)]
#[repr(C)]
struct SpscRing {
    producer: CachePadded<ProducerEnd>,
    slots: Box<[AtomicU64]>,
    mask: u64,
    head: CachePadded<AtomicU64>,
}

impl SpscRing {
    fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        Self {
            producer: CachePadded(ProducerEnd {
                tail: AtomicU64::new(0),
                cached_head: AtomicU64::new(0),
            }),
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            mask: capacity as u64 - 1,
            head: CachePadded(AtomicU64::new(0)),
        }
    }

    /// Producer side: enqueue `msg`, or report the ring full. A ring
    /// that looks full through the cached `head` is checked against the
    /// shared one before the push is refused.
    fn try_push(&self, msg: u64) -> bool {
        let end = &self.producer;
        let t = end.tail.load(Ordering::Relaxed);
        let capacity = self.slots.len() as u64;
        if t.wrapping_sub(end.cached_head.load(Ordering::Relaxed)) >= capacity {
            let h = self.head.load(Ordering::Acquire);
            end.cached_head.store(h, Ordering::Relaxed);
            if t.wrapping_sub(h) >= capacity {
                return false;
            }
        }
        self.slots[(t & self.mask) as usize].store(msg, Ordering::Relaxed);
        end.tail.store(t.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: hands every published message to `apply` in FIFO
    /// order, then returns their slots with one store of `head`. Returns
    /// the number of messages.
    fn drain_with(&self, mut apply: impl FnMut(u64)) -> u64 {
        let h = self.head.load(Ordering::Relaxed);
        let t = self.producer.tail.load(Ordering::Acquire);
        if h == t {
            return 0;
        }
        let mut i = h;
        while i != t {
            apply(self.slots[(i & self.mask) as usize].load(Ordering::Relaxed));
            i = i.wrapping_add(1);
        }
        self.head.store(t, Ordering::Release);
        t.wrapping_sub(h)
    }

    /// Consumer side: whether nothing is published that has not been
    /// drained (reads the shared `tail`, for shutdown handshakes).
    fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) == self.producer.tail.load(Ordering::Acquire)
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
    /// Set by a worker that unwinds; the rendezvous and the full-ring
    /// submit loop panic on it instead of waiting for that worker.
    poison: Poison,
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
            poison: Poison::default(),
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
    /// must be sorted ascending; `slots` is scratch. It is the shared
    /// kernel, so RNG consumption (one tie key per tentative slot) is the
    /// same as on every other backend.
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
            applied += self.ring(p, w).drain_with(|msg| self.apply(own, msg));
        }
        applied
    }

    /// The drain-while-waiting rendezvous: counts worker `w`'s push
    /// phase as done in `pushed`, then keeps draining its inbox, never
    /// parking, until `pushed` reaches `goal`, and drains once more. On
    /// return every message pushed before `goal` was reached is applied.
    /// Panics if a peer unwinds meanwhile (the engine's poison flag).
    fn rendezvous(&self, w: usize, own: &mut ShardState, pushed: &AtomicUsize, goal: usize) {
        pushed.fetch_add(1, Ordering::Release);
        while pushed.load(Ordering::Acquire) < goal {
            self.poison.check();
            if self.drain(w, own) == 0 {
                std::thread::yield_now();
            }
        }
        self.drain(w, own);
    }

    /// Whether worker `w`'s inbox is empty (for shutdown handshakes).
    pub fn inbox_empty(&self, w: usize) -> bool {
        (0..self.workers).all(|p| p == w || self.ring(p, w).is_empty())
    }

    /// Routes one add/remove for `bin` from worker `from`: applied
    /// directly when `from` owns the bin, enqueued to the owner's ring
    /// otherwise. A full ring is survived by draining `from`'s own inbox
    /// (which is what makes the routing deadlock-free) and yielding; it
    /// panics instead if a peer unwinds meanwhile (the poison flag).
    fn submit(&self, from: usize, msg: u64, own: &mut ShardState) {
        let bin = (msg & !OP_REMOVE) as usize;
        let to = self.owner_of(bin);
        if to == from {
            self.apply(own, msg);
            return;
        }
        let ring = self.ring(from, to);
        while !ring.try_push(msg) {
            self.poison.check();
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
    /// The probes of one drawn batch, `d` per request.
    probes: Vec<usize>,
    /// The placement RNGs of one drawn batch.
    rngs: Vec<Xoshiro256PlusPlus>,
    slots: Vec<(u32, u64, usize)>,
    bins: Vec<usize>,
}

impl TickScratch {
    fn new(d: usize, k: usize) -> Self {
        Self {
            probes: Vec::with_capacity(DRAW_BATCH * d),
            rngs: Vec::with_capacity(DRAW_BATCH),
            slots: Vec::with_capacity(d),
            bins: Vec::with_capacity(k),
        }
    }
}

/// The per-tick body of the open-loop driver: route my slice of
/// departures, then draw, decide and route my slice of commits,
/// [`DRAW_BATCH`] requests per draw ([`Run::draw_batch`]). With `P`
/// ([`Run::prefetches`]) it prefetches the snapshot lines each batch
/// will read and the table rows of upcoming departures. With more than one worker it
/// drains its own inbox every [`INBOX_DRAIN_EVERY`] commits, so that a
/// peer's ring to it rarely fills; one worker has no rings and no inbox.
/// Compiled twice (`P` on and off) and always inlined, like the
/// lock-free phase slices.
#[inline(always)]
fn owned_tick<const P: bool>(
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
    run.for_each_departure::<P>(
        &departures[lo as usize..hi as usize],
        |_| (),
        |id| {
            for bin in table.bins(id) {
                engine.submit_remove(w, bin, state);
            }
        },
    );
    let range = worker_slice(schedule.commit_ranges[t], workers, w);
    let mut i = 0usize;
    for batch in id_batches(range, DRAW_BATCH) {
        run.draw_batch::<P, _>(
            batch,
            Some(engine.snapshot()),
            &mut scratch.probes,
            &mut scratch.rngs,
        );
        let drawn = scratch
            .probes
            .chunks_mut(config.d)
            .zip(scratch.rngs.drain(..));
        for (id, (probes, mut rng)) in (batch.0..batch.1).zip(drawn) {
            if workers > 1 && i > 0 && i.is_multiple_of(INBOX_DRAIN_EVERY) {
                engine.drain(w, state);
            }
            i += 1;
            sort_probes(probes);
            scratch.bins.clear();
            engine.decide(
                probes,
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
}

/// Drives an open-loop schedule through the shared-nothing engine.
///
/// It runs `threads` workers, worker 0 on the calling thread and the rest
/// on scoped threads; one worker runs inline and never waits. With one
/// worker there are no rings, and with `snapshot_refresh == 1` the
/// snapshot is synchronous, so the run is bit-identical to the
/// single-thread oracle (locked by `tests/backend_equivalence.rs`).
///
/// Each tick ends in two synchronizations. First the
/// **drain-while-waiting** rendezvous: a worker that has routed all of
/// its releases and commits keeps draining its own inbox, never waiting
/// idle, until every worker has finished pushing. That keeps a
/// neighbour stuck in the full-ring submit path live, and its
/// `Release`/`Acquire` pushed-phase counter orders the tick's commits
/// before any later release that reads them. Each worker then samples
/// its own shard, which no one else mutates, and crosses the spin
/// barrier (`SpinBarrier`). A worker waiting there drains nothing, which
/// is safe: every push of the tick was drained at the rendezvous, and
/// nobody pushes between the two points. The barrier keeps a fast
/// worker's next-tick pushes out of a slow worker's last drain, so every
/// sample is of the tick just ended.
pub(crate) fn drive_open_loop_owned(run: &Run<'_>) -> DriveOutcome {
    let config = run.config;
    let workers = config.threads;
    let (engine, states) = match &config.capacities {
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
    let barrier = SpinBarrier::new(workers);
    // Monotone count of (worker, tick) push phases completed; tick t
    // is fully pushed once it reaches `(t + 1) * workers`. Monotone
    // so no per-tick reset can race with a late reader.
    let pushed = AtomicUsize::new(0);
    let (engine, barrier, pushed) = (&engine, &barrier, &pushed);
    let sampled = sampled_ticks.len();
    let worker = move |w: usize, mut state: ShardState| {
        let _unwinding = (engine.poison.on_unwind(), barrier.poison().on_unwind());
        let mut scratch = TickScratch::new(config.d, config.k);
        let mut samples: LocalSamples = Vec::with_capacity(sampled);
        for t in 0..ticks {
            if run.prefetches() {
                owned_tick::<true>(engine, run, t, w, workers, &mut state, &mut scratch);
            } else {
                owned_tick::<false>(engine, run, t, w, workers, &mut state, &mut scratch);
            }
            engine.rendezvous(w, &mut state, pushed, (t + 1) * workers);
            if want_sample(t, config.sample_every, ticks) {
                samples.push((state.state.total_balls(), state.state.max_load()));
            }
            barrier.wait(); // tick t fully applied + sampled
        }
        engine.flush(&mut state);
        (state, samples)
    };

    let start = Instant::now();
    let (states, per_worker_samples): (Vec<ShardState>, Vec<LocalSamples>) =
        std::thread::scope(|scope| {
            let mut states = states.into_iter();
            let first = states.next().expect("at least one worker");
            let handles: Vec<_> = states
                .enumerate()
                .map(|(i, state)| scope.spawn(move || worker(i + 1, state)))
                .collect();
            let mine = worker(0, first);
            std::iter::once(mine)
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("owned worker must not panic")),
                )
                .unzip()
        });
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

    let merged = merge_states(engine, &states);
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
/// empty, so no message is ever dropped. The caller has validated
/// `config`.
pub(crate) fn run_service_workload_owned(config: &ServiceWorkloadConfig) -> ServiceReport {
    assert!(
        config.threads <= config.bins,
        "shared-nothing backend needs threads <= bins (each worker owns >= 1 bin)"
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
                    let _unwinding = engine.poison.on_unwind();
                    let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(config.seed, w as u64));
                    let mut probes_scratch = vec![0usize; config.d];
                    let mut slots_scratch = Vec::with_capacity(config.d);
                    let mut bins = Vec::with_capacity(config.k);
                    // The live window's bins, `k` per placement, oldest first.
                    let mut live: VecDeque<usize> =
                        VecDeque::with_capacity(config.window * config.k);
                    let mut released = 0u64;
                    for _ in 0..config.requests_per_thread {
                        engine.drain(w, &mut state);
                        sampler.fill_seq(&mut rng, &mut probes_scratch);
                        sort_probes(&mut probes_scratch);
                        bins.clear();
                        engine.decide(
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
                            live.extend(&bins);
                            if live.len() > config.window * config.k {
                                released += config.k as u64;
                                for bin in live.drain(..config.k) {
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
                        engine.poison.check();
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

    /// Drains `ring` into a vector, in FIFO order.
    fn drained(ring: &SpscRing) -> Vec<u64> {
        let mut out = Vec::new();
        ring.drain_with(|msg| out.push(msg));
        out
    }

    #[test]
    fn ring_is_fifo_and_bounded() {
        let ring = SpscRing::new(4);
        assert!(ring.is_empty());
        for v in 0..4 {
            assert!(ring.try_push(v));
        }
        assert!(!ring.try_push(99), "full ring must refuse");
        assert_eq!(drained(&ring), vec![0, 1, 2, 3]);
        assert!(drained(&ring).is_empty());
        // Wrap-around keeps FIFO order: indices 7..11 cross slot 0.
        for v in 10..13 {
            assert!(ring.try_push(v));
        }
        assert_eq!(drained(&ring), vec![10, 11, 12]);
        for v in 13..17 {
            assert!(ring.try_push(v));
        }
        assert!(!ring.try_push(99), "full ring must refuse after wrapping");
        assert_eq!(drained(&ring), vec![13, 14, 15, 16]);
        assert!(ring.is_empty());
    }

    /// The producer's cached `head` goes stale as soon as the consumer
    /// drains; a push that the stale copy calls full must re-read the
    /// shared `head` and succeed.
    #[test]
    fn ring_refreshes_a_stale_cached_index_before_refusing() {
        let ring = SpscRing::new(4);
        for v in 0..4 {
            assert!(ring.try_push(v));
        }
        assert!(!ring.try_push(4), "full ring must refuse");
        assert_eq!(ring.producer.cached_head.load(Ordering::Relaxed), 0);
        assert_eq!(ring.drain_with(|_| ()), 4);
        // The copy still says full: only the re-read lets these through.
        assert_eq!(ring.producer.cached_head.load(Ordering::Relaxed), 0);
        for v in 4..8 {
            assert!(ring.try_push(v), "push {v} after the drain");
        }
        assert_eq!(ring.producer.cached_head.load(Ordering::Relaxed), 4);
        assert!(!ring.try_push(8), "full again");
        assert_eq!(drained(&ring), vec![4, 5, 6, 7]);
    }

    /// One producer thread and one consumer thread stream 2^20 sequence
    /// numbers through a tiny and a full-size ring: the consumer sees
    /// every number exactly once, in order.
    #[test]
    fn ring_two_thread_stream_is_exact() {
        const COUNT: u64 = 1 << 20;
        for capacity in [4, RING_CAPACITY] {
            let ring = SpscRing::new(capacity);
            let mut next = 0u64;
            std::thread::scope(|scope| {
                let ring = &ring;
                scope.spawn(move || {
                    for v in 0..COUNT {
                        while !ring.try_push(v) {
                            std::thread::yield_now();
                        }
                    }
                });
                while next < COUNT {
                    let got = ring.drain_with(|msg| {
                        assert_eq!(msg, next, "capacity {capacity}");
                        next += 1;
                    });
                    assert!(got <= capacity as u64, "a drain holds at most one ring");
                    if got == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            assert_eq!(next, COUNT, "capacity {capacity}");
            assert!(ring.is_empty(), "no duplicate after the last number");
        }
    }

    /// The full-ring path at engine level: two workers each push 4 ring
    /// capacities of adds, then half as many removes, to the other's bins
    /// with no drain between them. Each ring receives more than it holds
    /// before its consumer's first drain, so a push must find its ring
    /// full and wait on the drain of its own inbox; both workers then
    /// meet at the drain-while-waiting rendezvous. It must terminate
    /// with every ball applied once.
    #[test]
    fn full_rings_and_the_rendezvous_terminate_and_conserve() {
        const ADDS: usize = 4 * RING_CAPACITY;
        let (engine, states) = OwnedShardEngine::new(64, 2, 8);
        let pushed = AtomicUsize::new(0);
        let states: Vec<ShardState> = std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .into_iter()
                .enumerate()
                .map(|(w, mut state)| {
                    let (engine, pushed) = (&engine, &pushed);
                    scope.spawn(move || {
                        let (lo, hi) = engine.owned_range(1 - w);
                        let peer_bin = |i: usize| lo + i % (hi - lo);
                        for i in 0..ADDS {
                            engine.submit_add(w, peer_bin(i), &mut state);
                        }
                        for i in 0..ADDS / 2 {
                            engine.submit_remove(w, peer_bin(i), &mut state);
                        }
                        engine.rendezvous(w, &mut state, pushed, 2);
                        assert!(engine.inbox_empty(w));
                        engine.flush(&mut state);
                        state
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker must not panic"))
                .collect()
        });
        for state in &states {
            assert_eq!(state.slab().total_balls(), (ADDS / 2) as u64);
        }
        let merged = merge_states(&engine, &states);
        assert!(merged.invariants_ok);
        assert_eq!(merged.live_balls, ADDS as u64);
    }

    /// The shared-nothing wait loops under a panicking worker: with
    /// `workers` owners, worker 0 panics before it drains anything. Every
    /// other worker first pushes `flood` adds into worker 0's inbox, more
    /// than a ring holds when `flood > RING_CAPACITY` (the full-ring
    /// submit loop), then waits at the rendezvous. Each must see the
    /// poison flag and panic, never hang.
    fn a_panicking_owner_releases_its_peers(workers: usize, flood: usize) {
        let panicked = crate::barrier::tests::panics_within_timeout(move || {
            let (engine, states) = OwnedShardEngine::new(64, workers, 8);
            let pushed = AtomicUsize::new(0);
            let (engine, pushed) = (&engine, &pushed);
            std::thread::scope(|scope| {
                for (w, mut state) in states.into_iter().enumerate() {
                    scope.spawn(move || {
                        let _unwinding = engine.poison.on_unwind();
                        assert!(w != 0, "worker 0 fails");
                        let (lo, _) = engine.owned_range(0);
                        for _ in 0..flood {
                            engine.submit_add(w, lo, &mut state);
                        }
                        engine.rendezvous(w, &mut state, pushed, workers);
                    });
                }
            });
        });
        assert!(panicked, "{workers} workers, flood {flood}");
    }

    #[test]
    fn a_panicking_owner_releases_its_peers_at_two_workers() {
        a_panicking_owner_releases_its_peers(2, 0);
        a_panicking_owner_releases_its_peers(2, 2 * RING_CAPACITY);
    }

    #[test]
    fn a_panicking_owner_releases_its_peers_at_three_workers() {
        a_panicking_owner_releases_its_peers(3, 0);
        a_panicking_owner_releases_its_peers(3, 2 * RING_CAPACITY);
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
