//! The open-loop placement pipeline: executes a [`TrafficSchedule`]
//! against a [`ShardedStore`], batching commits and releases, and
//! accounts per-request latency plus instantaneous load over the run.
//!
//! Division of labor with [`crate::traffic`]: the traffic module fixes
//! *when* every request arrives, commits, and departs (a pure function
//! of `(TrafficConfig, seed)` on the **virtual clock** — integer ticks,
//! wall time never consulted); this module decides *where* the balls go
//! — (k,d)-choice placement, uniform or weighted through
//! [`ProbeDistribution`], over homogeneous or capacity-annotated bins —
//! and *how fast* the wall clock can chew through the virtual clock,
//! which is what the λ×threads throughput sweep measures.
//!
//! ## The tick barrier
//!
//! The striped and lock-free backends share one driver, `drive_ticks`;
//! each supplies only its commit, release and sample phases through the
//! crate-private `TickStore` trait. The driver runs `threads` workers,
//! worker 0 on the calling thread and the rest on scoped threads, that
//! all walk the tick sequence in lockstep. No coordinator thread runs
//! beside them, so `threads` workers occupy `threads` cores. They cross
//! one spin-then-yield barrier (`SpinBarrier`) two or three times per
//! tick:
//!
//! 1. **Releases**, then a crossing. Each worker releases its contiguous
//!    slice of the tick's departures. Departures must free load *before*
//!    the tick's commits probe it, or a commit could observe balls that
//!    the schedule says are already gone.
//! 2. **Commits**, then a crossing. Each worker commits its slice of the
//!    tick's committed-request id range (per-request RNGs derived from
//!    `(seed, id)`, so slicing cannot change any request's probes or tie
//!    keys). This crossing also orders every commit of the tick before
//!    any release of a later tick that reads its placement.
//! 3. **Quiescent sample**, on sampled ticks only, then a crossing.
//!    Every other worker waits at that crossing, so worker 0 snapshots
//!    the store (live balls, max load, gap) for the time series without
//!    racing any release or commit.
//!
//! Each crossing is an `AcqRel` arrival and an `Acquire` wait on a
//! `Release`d generation (see `barrier`): whatever a worker wrote before
//! a crossing, every worker reads after it.
//!
//! ## Which determinism guarantees survive batching / concurrency
//!
//! | Quantity | 1 thread | any threads / batch size |
//! |---|---|---|
//! | arrival/commit/departure event stream, latency quantiles, backlog | exact | **exact** (schedule is precomputed) |
//! | per-request probes and tie keys | exact | **exact** (pure in `(seed, id)`) |
//! | ball conservation, shard invariants | exact | **exact** (checked every run) |
//! | final load shape / histogram | exact (bit-identical at every `max_batch`) | interleaving-dependent |
//!
//! The first three rows and the single-thread bit-identity across
//! `max_batch` are locked by proptests in `tests/traffic_determinism.rs`;
//! the single-thread bit-identity of every backend's pipeline and the
//! one-request-at-a-time oracle of `tests/common` by
//! `tests/store_equivalence.rs`.
//!
//! ## The placement table
//!
//! A departure releases the k bins its request committed to, so every
//! backend records each commit in one [`PlacementTable`]: `requests × k`
//! `AtomicU32` bin ids in one flat allocation, no heap record per
//! request. Its loads and stores are `Relaxed`, which is enough because
//! each backend's tick loop already orders every commit before any
//! release that reads it: a request departs in a strictly later tick
//! than it commits, and every tick ends in a synchronization that all
//! workers pass. In `drive_ticks` that is the commit crossing of the
//! spin barrier: its `AcqRel` arrivals and `Acquire` wait on the
//! `Release`d generation order each worker's commits before every
//! worker's later reads. In the shared-nothing driver it is the
//! end-of-tick rendezvous: each worker's `Release` increment of the
//! pushed-phase counter pairs with every worker's `Acquire` loads of it,
//! and the spin barrier that follows the sample keeps that order. On
//! one thread program order suffices. Each entry starts as a sentinel,
//! so a second commit of a request and a departure that reads an
//! uncommitted request both fail loudly. With prefetching on
//! ([`PREFETCH_MIN_THREADS`]), the lock-free release loop reads a
//! departing row a few departures before it releases it, to prefetch its
//! bins; that read still comes after the tick's synchronization, so the
//! same ordering covers it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use kdchoice_core::{
    prefetch_line, BinStore, ConfigError, LoadVector, LoadView, ProbeDistribution, StoreKind,
};
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use kdchoice_stats::Histogram;

use crate::barrier::SpinBarrier;
use crate::engine::ServiceBackend;
use crate::lockfree::AtomicStore;
use crate::service::{check_shards, prev_power_of_two};
use crate::sharded::{BatchScratch, ShardedStore};
use crate::traffic::{ArrivalProcess, Lifetime, RequestTiming, TrafficConfig, TrafficSchedule};

/// Seed-stream tag for the traffic generator (see [`derive_seed`]).
const TRAFFIC_STREAM: u64 = 0;
/// Seed-stream tag that per-request placement RNGs derive under.
const PLACEMENT_STREAM: u64 = 1;

/// Worker threads from which the open-loop drivers prefetch: the probe
/// lines of every batch [`Run::draw_batch`] draws, and the placement-table
/// rows (lock-free: also the bins) of upcoming departures.
///
/// With two or more workers, the lines a worker reads were mostly last
/// written by another core, so each read misses in its private caches
/// whatever the table's size; prefetched a few requests early, the
/// misses of a batch overlap instead of stalling one request at a time.
/// One worker wrote every line itself, and at the churn shape (a 256 KiB
/// table) they sit in its L2, where a prefetch has no miss to hide and
/// only adds work: a 16-pair A/B on a 2-vCPU Xeon measured it costing
/// the shared-nothing one-thread path about 8%, and a later 10-pair A/B
/// on the same host read inside the noise. The gate is a thread count,
/// not a table size as the static fills' look-ahead gate is, because
/// here the misses come from sharing, not from capacity.
const PREFETCH_MIN_THREADS: usize = 2;

/// Requests per [`Run::draw_batch`] on the lock-free and shared-nothing
/// commit paths (striped draws one `max_batch` lock round per call):
/// enough probe lines in flight to overlap their misses, few enough that
/// the first of them is still cached when its request is decided.
pub(crate) const DRAW_BATCH: usize = 8;

/// The `view` of a [`Run::draw_batch`] that prefetches nothing.
const NO_VIEW: Option<&LoadVector> = None;

/// How many departures ahead the release loops prefetch a departing
/// request's placement-table row.
const ROW_AHEAD: usize = 8;

/// How many departures ahead the lock-free release loop reads a row,
/// prefetched [`ROW_AHEAD`]` - BINS_AHEAD` departures earlier, and
/// prefetches the bins it will decrement.
const BINS_AHEAD: usize = 4;

/// Configuration of one open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopConfig {
    /// Number of bins.
    pub bins: usize,
    /// Balls per placement request.
    pub k: usize,
    /// Probes per placement request (`d ≥ k`).
    pub d: usize,
    /// Shard count (power of two, ≤ bins).
    pub shards: usize,
    /// Worker threads draining the pipeline.
    pub threads: usize,
    /// Max requests per commit or release batch of the striped backend
    /// (`≥ 1`): each batch commits through [`ShardedStore::place_batch`]
    /// (one lock acquisition per involved shard) and releases through one
    /// bulk `release` call. `1` is the per-request path, up to
    /// `min(d, shards)` lock acquisitions per request. The lock-free and
    /// shared-nothing backends serve one request at a time and ignore it.
    pub max_batch: usize,
    /// The traffic trace (arrivals, lifetimes, clock length, capacity).
    pub traffic: TrafficConfig,
    /// The probe distribution placement requests sample bins from.
    /// Uniform (the default) draws the identical generator stream as
    /// before the weighted seam existed, so uniform runs are
    /// bit-identical either way.
    pub probes: ProbeDistribution,
    /// Per-bin capacities (`None` = all 1). Only the capacity-normalized
    /// observables change; placement still compares raw loads.
    pub capacities: Option<Vec<u32>>,
    /// Which concurrency backend drives the store: the lock-striped
    /// `ShardedStore`, the shared-nothing `OwnedShardEngine`, or the
    /// lock-free `AtomicStore`. The striped default keeps every pre-seam
    /// config bit-identical.
    pub backend: ServiceBackend,
    /// Shared-nothing only: owners republish their load snapshot every
    /// this many applied mutations (`≥ 1`). `1` on a single thread makes
    /// the snapshot synchronous and the run bit-identical to the other
    /// backends; ignored by [`ServiceBackend::Striped`] and by
    /// [`ServiceBackend::LockFree`] (its counters *are* the truth —
    /// nothing to republish).
    pub snapshot_refresh: usize,
    /// Which bin-store representation backs the run (exact loads or
    /// packed b-bit offsets). The exact default
    /// keeps every pre-compact config bit-identical; packed stores stay
    /// bit-identical to it while loads remain in the lossless window.
    pub store: StoreKind,
    /// Sample the load time series every this many ticks (`≥ 1`; the
    /// final tick is always sampled).
    pub sample_every: u32,
    /// Attach the full per-request event stream to the report (tests).
    pub record_events: bool,
    /// Master seed. The traffic stream and every request's placement
    /// stream derive from it under distinct tags, so the event schedule
    /// and each request's probes/tie keys are independent pure functions
    /// of `(config, seed)` — batch size and thread count cannot perturb
    /// either.
    pub seed: u64,
}

/// The **churn capacity** `bins / (k · mean_lifetime)` in commits per
/// tick, rounded to at least 1: the service rate at which the
/// steady-state average load is one ball per bin. Every λ sweep in the
/// workspace (the `at_lambda` constructor, the `open_loop` scenario's
/// `rate` default, the bench sweep, the examples) normalizes against
/// this one definition.
pub fn churn_capacity(bins: usize, k: usize, mean_lifetime: f64) -> u32 {
    ((bins as f64 / (k as f64 * mean_lifetime)).round() as u32).max(1)
}

impl OpenLoopConfig {
    /// A λ-normalized Poisson/exponential workload: the service rate is
    /// set to [`churn_capacity`] and requests arrive at `λ ×` that rate.
    pub fn at_lambda(
        bins: usize,
        k: usize,
        d: usize,
        lambda: f64,
        mean_lifetime: f64,
        ticks: u32,
        seed: u64,
    ) -> Self {
        let service_rate = churn_capacity(bins, k, mean_lifetime);
        Self {
            bins,
            k,
            d,
            shards: 16.min(prev_power_of_two(bins)),
            threads: 1,
            max_batch: 64,
            traffic: TrafficConfig {
                arrivals: ArrivalProcess::Poisson {
                    rate: lambda * f64::from(service_rate),
                },
                lifetime: Lifetime::Exponential {
                    mean: mean_lifetime,
                },
                ticks,
                service_rate,
            },
            probes: ProbeDistribution::Uniform,
            capacities: None,
            backend: ServiceBackend::Striped,
            snapshot_refresh: 1,
            store: StoreKind::Exact,
            sample_every: 1,
            record_events: false,
            seed,
        }
    }

    /// Checks every field a run relies on, so that [`run_open_loop`]
    /// fails on a bad configuration before it starts, not midway.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::ZeroParameter`] for zero `bins`, `threads`,
    ///   `max_batch` or `sample_every`, and for a zero
    ///   `snapshot_refresh` on the shared-nothing backend (the others
    ///   ignore it);
    /// * [`ConfigError::ZeroK`] for `k == 0` and
    ///   [`ConfigError::KExceedsD`] for `k > d`;
    /// * [`ConfigError::ExceedsLimit`] for `bins >= u32::MAX` (the run
    ///   records every placement as `u32` bin ids below a sentinel), on
    ///   the shared-nothing backend for `threads > bins` (each worker
    ///   owns at least one bin), and on the striped backend for
    ///   `shards > bins`;
    /// * [`ConfigError::NotPowerOfTwo`] for striped `shards` that are not
    ///   a power of two (the other backends ignore `shards`);
    /// * [`ConfigError::OutOfRange`] for a traffic trace that
    ///   [`TrafficConfig::validate`] rejects, naming its field;
    /// * [`ConfigError::ProbeSupportMismatch`] for a probe distribution
    ///   built for another bin count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let shared_nothing = self.backend == ServiceBackend::SharedNothing;
        for (name, value) in [
            ("bins", self.bins),
            ("threads", self.threads),
            ("max_batch", self.max_batch),
            ("sample_every", self.sample_every as usize),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroParameter(name));
            }
        }
        if shared_nothing && self.snapshot_refresh == 0 {
            return Err(ConfigError::ZeroParameter("snapshot_refresh"));
        }
        if self.k == 0 {
            return Err(ConfigError::ZeroK);
        }
        if self.k > self.d {
            return Err(ConfigError::KExceedsD {
                k: self.k,
                d: self.d,
            });
        }
        let max_bins = UNSET as usize - 1;
        if self.bins > max_bins {
            return Err(ConfigError::ExceedsLimit {
                name: "bins",
                value: self.bins,
                limit: max_bins,
            });
        }
        if shared_nothing && self.threads > self.bins {
            return Err(ConfigError::ExceedsLimit {
                name: "threads",
                value: self.threads,
                limit: self.bins,
            });
        }
        if self.backend == ServiceBackend::Striped {
            check_shards(self.shards, self.bins)?;
        }
        self.traffic.validate()?;
        match self.probes.expected_n() {
            Some(built_for) if built_for != self.bins => Err(ConfigError::ProbeSupportMismatch {
                built_for,
                bins: self.bins,
            }),
            _ => Ok(()),
        }
    }

    /// The seed the traffic schedule is generated from — a distinct
    /// stream of the master seed, so traffic and placement randomness
    /// never alias.
    pub fn traffic_seed(&self) -> u64 {
        derive_seed(self.seed, TRAFFIC_STREAM)
    }

    /// The seed request `id`'s placement RNG (probes, then tie keys) is
    /// built from. Pure in `(master seed, id)` — this is what makes the
    /// pipeline's placement stream independent of batching and
    /// threading, and lets tests replay a run request by request.
    pub fn request_seed(&self, id: u32) -> u64 {
        derive_seed(derive_seed(self.seed, PLACEMENT_STREAM), u64::from(id))
    }
}

/// One sampled point of the instantaneous-load time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickSample {
    /// The virtual tick the sample was taken at (end of tick).
    pub tick: u32,
    /// Balls currently held across all bins.
    pub live_balls: u64,
    /// Current maximum bin load.
    pub max_load: u32,
    /// Current gap `max load − average load`.
    pub gap: f64,
}

/// Aggregate results of one open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// Virtual ticks simulated.
    pub ticks: u32,
    /// Offered load λ (mean arrival rate / service rate).
    pub lambda: f64,
    /// Requests that arrived.
    pub requests_arrived: u64,
    /// Requests committed before the clock stopped.
    pub requests_committed: u64,
    /// Requests still queued at the end (overload backlog).
    pub backlog: u64,
    /// Balls placed (`committed × k`).
    pub balls_placed: u64,
    /// Balls released by departures.
    pub balls_released: u64,
    /// Balls still live at the end.
    pub live_balls: u64,
    /// Median queueing latency in ticks (committed requests).
    pub latency_p50: f64,
    /// 99th-percentile queueing latency in ticks.
    pub latency_p99: f64,
    /// Mean queueing latency in ticks.
    pub latency_mean: f64,
    /// Worst observed queueing latency in ticks.
    pub latency_max: u32,
    /// Peak of the live-ball time series.
    pub peak_live_balls: u64,
    /// Peak of the max-load time series.
    pub peak_max_load: u32,
    /// Final maximum load.
    pub final_max_load: u32,
    /// Final gap `max load − average load`.
    pub final_gap: f64,
    /// Mean gap over the second half of the run — the steady-state
    /// statistic the O(log log n) regression envelope is asserted on.
    pub steady_gap_mean: f64,
    /// Wall-clock seconds for the drive loop (schedule generation
    /// excluded — it is identical across batch sizes and thread counts).
    pub wall_secs: f64,
    /// Balls placed per wall-clock second — the pipeline headline.
    pub balls_per_sec: f64,
    /// Final capacity-normalized gap `max utilization − live_balls /
    /// total_capacity` (equal to `final_gap` when every capacity is 1).
    pub final_util_gap: f64,
    /// `Σ c_bin` of the store (`bins` when homogeneous).
    pub total_capacity: u64,
    /// Whether the store conserved balls and passed `check_invariants`.
    pub conserved: bool,
    /// The final count-by-load histogram (entry `l` = bins holding
    /// exactly `l` balls) — the bit-exact state the equivalence tests
    /// compare.
    pub final_histogram: Vec<u64>,
    /// The sampled load time series.
    pub series: Vec<TickSample>,
    /// The full per-request event stream, when
    /// [`OpenLoopConfig::record_events`] was set.
    pub events: Option<Vec<RequestTiming>>,
}

/// A half-open request-id range `[start, end)`.
pub(crate) type IdRange = (u32, u32);

/// The bin id of a table entry no commit has written yet.
const UNSET: u32 = u32::MAX;

/// Where every open-loop request placed its balls: `k` bin ids per
/// request in one flat table of atomics, shared by all workers of a run.
///
/// Accesses are `Relaxed`: the entries publish nothing but themselves,
/// and the tick barrier's commit crossing, or the shared-nothing
/// end-of-tick rendezvous, orders every commit before any release that
/// reads it (see the module docs).
pub(crate) struct PlacementTable {
    entries: Vec<AtomicU32>,
    k: usize,
    /// Bin count; every recorded id is below it, hence below [`UNSET`].
    bins: usize,
}

impl PlacementTable {
    /// An all-unset table for `requests` requests of `k` balls each over
    /// `bins` bins. The caller has checked `bins < u32::MAX`
    /// ([`OpenLoopConfig::validate`]), so every bin id fits in a `u32`
    /// below the unset sentinel.
    pub(crate) fn new(requests: usize, k: usize, bins: usize) -> Self {
        debug_assert!(bins < UNSET as usize, "validated bin count");
        Self {
            entries: (0..requests * k).map(|_| AtomicU32::new(UNSET)).collect(),
            k,
            bins,
        }
    }

    fn row(&self, id: u32) -> &[AtomicU32] {
        let start = id as usize * self.k;
        &self.entries[start..start + self.k]
    }

    /// Records request `id`'s `k` winner bins.
    ///
    /// # Panics
    ///
    /// Panics unless `bins.len() == k` and every bin is in range, or if
    /// `id` was already recorded.
    pub(crate) fn set(&self, id: u32, bins: &[usize]) {
        assert_eq!(bins.len(), self.k, "a placement records exactly k bins");
        // One worker commits each id, so a plain load-then-store check
        // catches any second commit without a read-modify-write.
        for (entry, &bin) in self.row(id).iter().zip(bins) {
            assert!(bin < self.bins, "bin {bin} out of range");
            assert_eq!(
                entry.load(Ordering::Relaxed),
                UNSET,
                "request {id} committed twice"
            );
            entry.store(bin as u32, Ordering::Relaxed);
        }
    }

    /// Request `id`'s `k` bins, in the order they were recorded.
    ///
    /// # Panics
    ///
    /// The iterator panics if `id` was never recorded.
    pub(crate) fn bins(&self, id: u32) -> impl Iterator<Item = usize> + '_ {
        self.row(id).iter().map(move |entry| {
            let bin = entry.load(Ordering::Relaxed);
            assert_ne!(bin, UNSET, "departure precedes commit of request {id}");
            bin as usize
        })
    }

    /// Appends request `id`'s `k` bins to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never recorded.
    pub(crate) fn get(&self, id: u32, out: &mut Vec<usize>) {
        out.extend(self.bins(id));
    }

    /// Hints that request `id`'s row is about to be read.
    fn prefetch(&self, id: u32) {
        prefetch_line(&self.row(id)[0]);
    }
}

/// The contiguous sub-range worker `w` of `workers` owns.
pub(crate) fn worker_slice(range: IdRange, workers: usize, w: usize) -> IdRange {
    let len = (range.1 - range.0) as usize;
    let lo = range.0 as usize + len * w / workers;
    let hi = range.0 as usize + len * (w + 1) / workers;
    (lo as u32, hi as u32)
}

/// What every worker of one open-loop run reads: the config, the
/// schedule, and the placement table.
pub(crate) struct Run<'a> {
    pub(crate) config: &'a OpenLoopConfig,
    pub(crate) schedule: &'a TrafficSchedule,
    pub(crate) table: &'a PlacementTable,
    /// `derive_seed(seed, PLACEMENT_STREAM)`, hoisted out of
    /// [`OpenLoopConfig::request_seed`]'s per-request work.
    place_base: u64,
}

impl<'a> Run<'a> {
    /// The run of `schedule` under `config`, recording into `table`.
    pub(crate) fn new(
        config: &'a OpenLoopConfig,
        schedule: &'a TrafficSchedule,
        table: &'a PlacementTable,
    ) -> Self {
        Self {
            config,
            schedule,
            table,
            place_base: derive_seed(config.seed, PLACEMENT_STREAM),
        }
    }

    /// Whether the run prefetches ([`PREFETCH_MIN_THREADS`]). The hot
    /// loops take the answer as a const parameter `P`, chosen once per
    /// phase slice, so that the one-thread path compiles with no prefetch
    /// code in them: a runtime test of the gate there, even one hoisted
    /// out of the loops, cost the one-thread lock-free and shared-nothing
    /// paths about 5%.
    pub(crate) fn prefetches(&self) -> bool {
        self.config.threads >= PREFETCH_MIN_THREADS
    }

    /// Draws the requests `ids`: replaces `probes` with their `d` probes
    /// each, in id order, and `rngs` with their placement RNGs,
    /// positioned at the tie keys. Each request's draw is pure in
    /// `(seed, id)`, so how a driver batches its ids changes no stream.
    /// With `P`, each probe's line in `view`, the view the batch will be
    /// decided against, is prefetched as soon as it is drawn.
    pub(crate) fn draw_batch<const P: bool, V: LoadView + ?Sized>(
        &self,
        ids: IdRange,
        view: Option<&V>,
        probes: &mut Vec<usize>,
        rngs: &mut Vec<Xoshiro256PlusPlus>,
    ) {
        let config = self.config;
        probes.clear();
        rngs.clear();
        for id in ids.0..ids.1 {
            let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(self.place_base, u64::from(id)));
            for _ in 0..config.d {
                let bin = config.probes.sample(&mut rng, config.bins);
                if let (true, Some(view)) = (P, view) {
                    view.prefetch(bin);
                }
                probes.push(bin);
            }
            rngs.push(rng);
        }
    }

    /// Hands each departing request id to `release`, in order. With `P`,
    /// each release is preceded by a prefetch of the table row of the
    /// departure [`ROW_AHEAD`] places later, and each bin of the one
    /// [`BINS_AHEAD`] places later (its row prefetched earlier) goes to
    /// `prefetch_bin`.
    pub(crate) fn for_each_departure<const P: bool>(
        &self,
        departing: &[u32],
        mut prefetch_bin: impl FnMut(usize),
        mut release: impl FnMut(u32),
    ) {
        for (i, &id) in departing.iter().enumerate() {
            if P {
                if let Some(&ahead) = departing.get(i + ROW_AHEAD) {
                    self.table.prefetch(ahead);
                }
                if let Some(&ahead) = departing.get(i + BINS_AHEAD) {
                    self.table.bins(ahead).for_each(&mut prefetch_bin);
                }
            }
            release(id);
        }
    }
}

/// `ids` cut into consecutive ranges of at most `size` ids (`size ≥ 1`;
/// any `usize`, clamped to what is left).
pub(crate) fn id_batches(ids: IdRange, size: usize) -> impl Iterator<Item = IdRange> {
    debug_assert!(size >= 1, "an empty batch never advances");
    let mut start = ids.0;
    std::iter::from_fn(move || {
        (start < ids.1).then(|| {
            let end = start + ((ids.1 - start) as usize).min(size) as u32;
            (std::mem::replace(&mut start, end), end)
        })
    })
}

/// A store [`drive_ticks`] runs an open-loop schedule through: the
/// striped [`ShardedStore`] and the lock-free `AtomicStore`. It supplies
/// the three phases of a tick; the driver owns the loop, the threads,
/// the barrier and the report.
pub(crate) trait TickStore: BinStore + Sync {
    /// One worker's reusable buffers.
    type Scratch<'s>: Default
    where
        Self: 's;

    /// Commits the requests `ids` in id order and records each in
    /// `run.table`.
    fn commit<'s>(&'s self, run: &Run<'_>, ids: IdRange, scratch: &mut Self::Scratch<'s>);

    /// Releases the departing requests `ids`.
    fn release<'s>(&'s self, run: &Run<'_>, ids: &[u32], scratch: &mut Self::Scratch<'s>);

    /// The tick's time-series sample, taken while no worker runs.
    fn sample(&self, tick: u32) -> TickSample;

    /// Whether the store's invariants hold (checked at end of run).
    fn invariants_ok(&self) -> bool;
}

impl TickStore for ShardedStore {
    /// Probes, per-request RNGs, and the batch decision buffers.
    type Scratch<'s> = (Vec<usize>, Vec<Xoshiro256PlusPlus>, BatchScratch<'s>);

    /// Commits `max_batch` requests per [`ShardedStore::place_batch`]
    /// lock round. Its loads sit behind the shard locks, so it draws with
    /// no view to prefetch.
    fn commit<'s>(
        &'s self,
        run: &Run<'_>,
        ids: IdRange,
        (probes, rngs, batch): &mut Self::Scratch<'s>,
    ) {
        let (k, d) = (run.config.k, run.config.d);
        for batch_ids in id_batches(ids, run.config.max_batch) {
            run.draw_batch::<false, _>(batch_ids, NO_VIEW, probes, rngs);
            self.place_batch_into(probes, d, k, rngs, batch);
            for (id, bins) in (batch_ids.0..batch_ids.1).zip(batch.bins.chunks(k)) {
                run.table.set(id, bins);
            }
        }
    }

    /// Releases `max_batch` requests' balls per lock round (the probe
    /// buffer holds the bin list, the batch scratch the shard locks).
    fn release<'s>(&'s self, run: &Run<'_>, ids: &[u32], (bins, _, batch): &mut Self::Scratch<'s>) {
        for chunk in ids.chunks(run.config.max_batch) {
            bins.clear();
            for &id in chunk {
                run.table.get(id, bins);
            }
            self.release_into(bins, batch);
        }
    }

    /// One combined lock round over the shards: live balls and max load.
    fn sample(&self, tick: u32) -> TickSample {
        let histogram = self.histogram();
        let mut live = 0u64;
        let mut max = 0u32;
        for (load, &count) in histogram.iter().enumerate() {
            live += count * load as u64;
            if count > 0 {
                max = load as u32;
            }
        }
        TickSample {
            tick,
            live_balls: live,
            max_load: max,
            gap: f64::from(max) - live as f64 / self.n() as f64,
        }
    }

    fn invariants_ok(&self) -> bool {
        self.check_invariants()
    }
}

/// Whether tick `t` of `ticks` is sampled into the time series.
pub(crate) fn want_sample(t: usize, sample_every: u32, ticks: usize) -> bool {
    t.is_multiple_of(sample_every as usize) || t + 1 == ticks
}

/// What a backend driver hands back to [`run_open_loop`]: the sampled
/// series, the wall time of the drive loop, and the merged end-of-run
/// store observables (every latency/backlog quantity is a schedule
/// property and is accounted centrally).
pub(crate) struct DriveOutcome {
    pub(crate) series: Vec<TickSample>,
    pub(crate) wall_secs: f64,
    pub(crate) live_balls: u64,
    pub(crate) final_histogram: Vec<u64>,
    pub(crate) final_util_gap: f64,
    pub(crate) total_capacity: u64,
    pub(crate) invariants_ok: bool,
}

/// Runs one open-loop workload: generates the traffic schedule, drives
/// it through the placement pipeline tick by tick, and reports latency
/// quantiles, load time series, throughput, and conservation.
///
/// With `threads == 1` the run is fully deterministic in `(config,
/// seed)` — including the final load shape — and bit-identical at every
/// `max_batch` (locked by `tests/store_equivalence.rs` and
/// `tests/traffic_determinism.rs`). With `threads > 1` the event stream,
/// latencies, and conservation are still exact; only the load shape
/// depends on commit interleaving, as in the closed-loop service.
///
/// # Panics
///
/// Panics, before any work, if [`OpenLoopConfig::validate`] rejects the
/// configuration, its traffic trace included.
pub fn run_open_loop(config: &OpenLoopConfig) -> OpenLoopReport {
    if let Err(e) = config.validate() {
        panic!("invalid open-loop config: {e}");
    }
    let schedule = TrafficSchedule::generate(&config.traffic, config.traffic_seed())
        .expect("validated traffic trace");

    let table = PlacementTable::new(schedule.timings.len(), config.k, config.bins);
    let run = Run::new(config, &schedule, &table);
    let (bins, kind) = (config.bins, config.store);
    let outcome = match (config.backend, &config.capacities) {
        (ServiceBackend::Striped, None) => {
            drive_ticks(&run, ShardedStore::with_kind(bins, config.shards, kind))
        }
        (ServiceBackend::Striped, Some(caps)) => drive_ticks(
            &run,
            ShardedStore::with_kind_capacities(bins, config.shards, caps, kind),
        ),
        (ServiceBackend::LockFree, None) => drive_ticks(&run, AtomicStore::with_kind(bins, kind)),
        (ServiceBackend::LockFree, Some(caps)) => {
            drive_ticks(&run, AtomicStore::with_kind_capacities(bins, caps, kind))
        }
        // Separate driver: its tick ends in a drain-while-waiting
        // rendezvous, not a barrier (a waiting owner must keep draining).
        (ServiceBackend::SharedNothing, _) => crate::engine::drive_open_loop_owned(&run),
    };
    assemble_report(config, &schedule, outcome)
}

/// The barrier-phased open-loop driver of the striped and lock-free
/// backends: `threads` workers under the tick barrier, worker 0 on the
/// calling thread and the one that samples (see the module docs). One
/// worker runs inline and never waits.
fn drive_ticks<S: TickStore>(run: &Run<'_>, store: S) -> DriveOutcome {
    let (config, schedule) = (run.config, run.schedule);
    let workers = config.threads;
    let ticks = config.traffic.ticks as usize;
    let barrier = SpinBarrier::new(workers);
    let (store, barrier) = (&store, &barrier);
    let worker = move |w: usize| {
        let _unwinding = barrier.poison().on_unwind();
        let mut scratch = S::Scratch::default();
        let mut series = Vec::new();
        if w == 0 {
            series.reserve(ticks / config.sample_every as usize + 2);
        }
        for t in 0..ticks {
            let departing = &schedule.departures[t];
            let (lo, hi) = worker_slice((0, departing.len() as u32), workers, w);
            store.release(run, &departing[lo as usize..hi as usize], &mut scratch);
            barrier.wait(); // tick t's departures freed before its commits probe
            let ids = worker_slice(schedule.commit_ranges[t], workers, w);
            store.commit(run, ids, &mut scratch);
            barrier.wait(); // tick t fully applied
            if want_sample(t, config.sample_every, ticks) {
                if w == 0 {
                    series.push(store.sample(t as u32));
                }
                barrier.wait(); // nobody mutates until the sample is taken
            }
        }
        series
    };

    let start = Instant::now();
    let series = std::thread::scope(|scope| {
        for w in 1..workers {
            scope.spawn(move || worker(w));
        }
        worker(0)
    });
    let wall_secs = start.elapsed().as_secs_f64();

    DriveOutcome {
        series,
        wall_secs,
        live_balls: store.total_balls(),
        final_histogram: store.histogram(),
        final_util_gap: store.utilization_gap(),
        total_capacity: store.total_capacity(),
        invariants_ok: store.invariants_ok(),
    }
}

/// Folds a backend's [`DriveOutcome`] and the schedule's virtual-clock
/// quantities into the report (latency accounting is identical for both
/// backends: the wall clock never perturbs virtual-clock statistics).
fn assemble_report(
    config: &OpenLoopConfig,
    schedule: &TrafficSchedule,
    outcome: DriveOutcome,
) -> OpenLoopReport {
    let mut latencies = Histogram::new();
    for timing in &schedule.timings {
        if let Some(latency) = timing.latency() {
            latencies.add(latency);
        }
    }
    let committed = schedule.committed();
    let balls_placed = committed * config.k as u64;
    let released_requests: u64 = schedule.departures.iter().map(|d| d.len() as u64).sum();
    let balls_released = released_requests * config.k as u64;
    let DriveOutcome {
        series,
        wall_secs,
        live_balls,
        final_histogram,
        final_util_gap,
        total_capacity,
        invariants_ok,
    } = outcome;
    let conserved = live_balls == balls_placed - balls_released && invariants_ok;

    let half = config.traffic.ticks / 2;
    let steady: Vec<&TickSample> = series.iter().filter(|s| s.tick >= half).collect();
    let steady_gap_mean = if steady.is_empty() {
        0.0
    } else {
        steady.iter().map(|s| s.gap).sum::<f64>() / steady.len() as f64
    };
    let final_sample = series.last().copied();

    OpenLoopReport {
        ticks: config.traffic.ticks,
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
        final_max_load: final_sample.map_or(0, |s| s.max_load),
        final_gap: final_sample.map_or(0.0, |s| s.gap),
        final_util_gap,
        total_capacity,
        steady_gap_mean,
        wall_secs,
        balls_per_sec: balls_placed as f64 / wall_secs,
        conserved,
        final_histogram,
        series,
        events: config.record_events.then(|| schedule.timings.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(max_batch: usize, threads: usize, lambda: f64) -> OpenLoopConfig {
        let mut cfg = OpenLoopConfig::at_lambda(64, 2, 4, lambda, 8.0, 120, 0xA11CE);
        cfg.shards = 4;
        cfg.threads = threads;
        cfg.max_batch = max_batch;
        cfg
    }

    #[test]
    fn at_lambda_normalizes_capacity() {
        let cfg = OpenLoopConfig::at_lambda(1 << 10, 2, 4, 0.9, 16.0, 100, 0);
        // capacity = 1024 / (2 * 16) = 32 commits/tick.
        assert_eq!(cfg.traffic.service_rate, 32);
        assert!((cfg.traffic.lambda_factor() - 0.9).abs() < 1e-12);
        assert!(cfg.shards.is_power_of_two() && cfg.shards <= cfg.bins);
    }

    #[test]
    fn worker_slices_partition_any_range() {
        for &(start, end) in &[(0u32, 0u32), (3, 17), (0, 100), (5, 6)] {
            for workers in 1..6 {
                let mut covered = start;
                for w in 0..workers {
                    let (lo, hi) = worker_slice((start, end), workers, w);
                    assert_eq!(lo, covered, "workers={workers} w={w}");
                    assert!(hi >= lo);
                    covered = hi;
                }
                assert_eq!(covered, end);
            }
        }
    }

    #[test]
    fn underloaded_run_has_low_latency_and_conserves() {
        let report = run_open_loop(&small_config(7, 1, 0.5));
        assert!(report.conserved);
        assert_eq!(report.backlog, 0);
        // At λ=0.5 the typical request is served the tick it arrives;
        // Poisson bursts may still queue a few for a tick or two.
        assert_eq!(report.latency_p50, 0.0);
        assert!(report.latency_max < 10, "max {}", report.latency_max);
        assert_eq!(
            report.live_balls,
            report.balls_placed - report.balls_released
        );
        assert!(report.balls_placed > 0);
        assert!(report.balls_released > 0);
        assert!(!report.series.is_empty());
        assert_eq!(report.series.last().unwrap().tick, 119);
    }

    #[test]
    fn overloaded_run_builds_backlog_and_latency() {
        let report = run_open_loop(&small_config(7, 1, 1.5));
        assert!(report.conserved);
        assert!(report.backlog > 0, "λ=1.5 must leave a backlog");
        assert!(report.latency_max > 5, "overload must build latency");
        assert!(report.latency_p99 >= report.latency_p50);
        // Live balls are capacity-bounded, not arrival-bounded.
        assert!(report.peak_live_balls <= report.balls_placed);
    }

    #[test]
    fn single_thread_modes_are_bit_identical() {
        for lambda in [0.6, 1.2] {
            let batched = run_open_loop(&small_config(7, 1, lambda));
            let per_request = run_open_loop(&small_config(1, 1, lambda));
            // Wall-clock fields differ; everything deterministic matches.
            assert_eq!(batched.series, per_request.series, "lambda={lambda}");
            assert_eq!(batched.final_max_load, per_request.final_max_load);
            assert_eq!(batched.live_balls, per_request.live_balls);
            assert_eq!(batched.requests_committed, per_request.requests_committed);
        }
    }

    /// A `max_batch` past `u32::MAX` (the `batch=` grid axis accepts any
    /// `usize`) commits each tick's requests in one batch.
    #[test]
    fn oversized_max_batch_commits_each_tick_in_one_batch() {
        let reference = run_open_loop(&small_config(7, 1, 0.9));
        let report = run_open_loop(&small_config(usize::MAX, 1, 0.9));
        assert!(report.conserved);
        assert_eq!(report.series, reference.series);
    }

    #[test]
    fn multi_thread_run_conserves_and_keeps_the_event_stream() {
        let mut base = small_config(7, 1, 1.1);
        base.record_events = true;
        let reference = run_open_loop(&base);
        for (threads, max_batch) in [(2, 7), (4, 1)] {
            let mut cfg = small_config(max_batch, threads, 1.1);
            cfg.record_events = true;
            let report = run_open_loop(&cfg);
            assert!(report.conserved, "threads={threads}");
            assert_eq!(report.events, reference.events, "threads={threads}");
            assert_eq!(report.latency_p99, reference.latency_p99);
            assert_eq!(report.requests_committed, reference.requests_committed);
            assert_eq!(report.live_balls, reference.live_balls);
        }
    }

    /// The striped lock round at its widest: one shard per bin, two
    /// workers racing for them, balls conserved and the event stream kept.
    #[test]
    fn striped_two_threads_with_a_shard_per_bin_conserve() {
        let mut base = small_config(7, 1, 1.1);
        base.record_events = true;
        let reference = run_open_loop(&base);
        let mut cfg = small_config(7, 2, 1.1);
        (cfg.shards, cfg.record_events) = (cfg.bins, true);
        let report = run_open_loop(&cfg);
        assert!(report.conserved);
        assert!(report.balls_released > 0);
        assert_eq!(report.events, reference.events);
        assert_eq!(report.live_balls, reference.live_balls);
    }

    #[test]
    fn sample_every_thins_the_series_but_keeps_the_last_tick() {
        let mut cfg = small_config(7, 1, 0.8);
        cfg.sample_every = 16;
        let report = run_open_loop(&cfg);
        assert!(report.series.len() < 120 / 8);
        assert_eq!(report.series.last().unwrap().tick, 119);
        assert!(report.conserved);
    }

    #[test]
    fn weighted_pipeline_conserves_and_modes_agree() {
        let mut base = small_config(7, 1, 0.9);
        base.probes = ProbeDistribution::zipf(base.bins, 1.0).unwrap();
        base.capacities = Some(kdchoice_core::two_tier_capacities(base.bins, 8, 10));
        let batched = run_open_loop(&base);
        assert!(batched.conserved);
        assert_eq!(batched.total_capacity, 64 + 8 * 9);
        assert!(batched.final_util_gap <= f64::from(batched.final_max_load));
        let mut per_request = base.clone();
        per_request.max_batch = 1;
        let per_request = run_open_loop(&per_request);
        // The weighted placement stream is also pure in (seed, id):
        // single-threaded batch sizes stay bit-identical.
        assert_eq!(batched.series, per_request.series);
        assert_eq!(batched.final_histogram, per_request.final_histogram);
    }

    #[test]
    fn homogeneous_util_gap_matches_load_gap() {
        let report = run_open_loop(&small_config(7, 1, 0.7));
        assert_eq!(report.total_capacity, 64);
        assert!((report.final_util_gap - report.final_gap).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "wrong bin count")]
    fn mismatched_probe_support_is_rejected() {
        let mut cfg = small_config(7, 1, 0.5);
        cfg.probes = ProbeDistribution::zipf(cfg.bins + 1, 1.0).unwrap();
        let _ = run_open_loop(&cfg);
    }

    #[test]
    fn placement_table_round_trips_every_k() {
        for k in 1..=3 {
            let table = PlacementTable::new(4, k, 100);
            // A bin probed twice may win twice: rows repeat bins for k >= 2.
            let row = |id: u32| (0..k).map(move |j| 7 * id as usize + j / 2);
            for id in [2u32, 0, 3] {
                table.set(id, &row(id).collect::<Vec<_>>());
            }
            let mut out = vec![99];
            table.get(3, &mut out);
            table.get(0, &mut out);
            let want: Vec<usize> = [99].into_iter().chain(row(3)).chain(row(0)).collect();
            assert_eq!(out, want, "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "committed twice")]
    fn placement_table_rejects_a_second_commit() {
        let table = PlacementTable::new(2, 2, 8);
        table.set(1, &[3, 4]);
        table.set(1, &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "departure precedes commit")]
    fn placement_table_rejects_a_read_before_commit() {
        let table = PlacementTable::new(2, 2, 8);
        table.set(0, &[3, 4]);
        table.get(1, &mut Vec::new());
    }

    /// `small_config` with one field changed, and what `validate` says.
    fn validated(change: impl FnOnce(&mut OpenLoopConfig)) -> Result<(), ConfigError> {
        let mut cfg = small_config(7, 1, 0.9);
        change(&mut cfg);
        cfg.validate()
    }

    #[test]
    fn validate_accepts_every_backend_at_the_limits() {
        for backend in [
            ServiceBackend::Striped,
            ServiceBackend::SharedNothing,
            ServiceBackend::LockFree,
        ] {
            assert_eq!(
                validated(|c| (c.backend, c.threads, c.k) = (backend, 64, 4)),
                Ok(())
            );
        }
        // Only the shared-nothing backend reads the refresh period.
        assert_eq!(validated(|c| c.snapshot_refresh = 0), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_bins() {
        let err = validated(|c| c.bins = 0);
        assert_eq!(err, Err(ConfigError::ZeroParameter("bins")));
    }

    #[test]
    fn validate_rejects_zero_threads() {
        let err = validated(|c| c.threads = 0);
        assert_eq!(err, Err(ConfigError::ZeroParameter("threads")));
    }

    #[test]
    fn validate_rejects_zero_max_batch() {
        let err = validated(|c| c.max_batch = 0);
        assert_eq!(err, Err(ConfigError::ZeroParameter("max_batch")));
    }

    #[test]
    fn validate_rejects_zero_sample_every() {
        let err = validated(|c| c.sample_every = 0);
        assert_eq!(err, Err(ConfigError::ZeroParameter("sample_every")));
    }

    #[test]
    fn validate_rejects_a_zero_shared_nothing_refresh() {
        let err =
            validated(|c| (c.backend, c.snapshot_refresh) = (ServiceBackend::SharedNothing, 0));
        assert_eq!(err, Err(ConfigError::ZeroParameter("snapshot_refresh")));
    }

    #[test]
    fn validate_rejects_zero_k() {
        assert_eq!(validated(|c| c.k = 0), Err(ConfigError::ZeroK));
    }

    #[test]
    fn validate_rejects_k_above_d() {
        let err = validated(|c| c.k = 5);
        assert_eq!(err, Err(ConfigError::KExceedsD { k: 5, d: 4 }));
    }

    /// Every bin id must fit in a `u32` below the table's unset sentinel.
    #[test]
    fn validate_rejects_bin_ids_that_reach_the_sentinel() {
        let err = validated(|c| c.bins = u32::MAX as usize);
        let limit = u32::MAX as usize - 1;
        assert_eq!(
            err,
            Err(ConfigError::ExceedsLimit {
                name: "bins",
                value: limit + 1,
                limit,
            })
        );
        assert_eq!(validated(|c| c.bins = limit), Ok(()));
    }

    #[test]
    fn validate_rejects_more_shared_nothing_threads_than_bins() {
        let err = validated(|c| (c.backend, c.threads) = (ServiceBackend::SharedNothing, 65));
        let want = ConfigError::ExceedsLimit {
            name: "threads",
            value: 65,
            limit: 64,
        };
        assert_eq!(err, Err(want));
    }

    #[test]
    fn validate_rejects_non_power_of_two_striped_shards() {
        for shards in [0, 3, 12] {
            let err = validated(|c| c.shards = shards);
            let want = ConfigError::NotPowerOfTwo {
                name: "shards",
                value: shards,
            };
            assert_eq!(err, Err(want));
        }
        // The other backends never build a `ShardedStore`.
        for backend in [ServiceBackend::SharedNothing, ServiceBackend::LockFree] {
            assert_eq!(validated(|c| (c.backend, c.shards) = (backend, 3)), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_more_striped_shards_than_bins() {
        let err = validated(|c| c.shards = 128);
        let want = ConfigError::ExceedsLimit {
            name: "shards",
            value: 128,
            limit: 64,
        };
        assert_eq!(err, Err(want));
        assert_eq!(validated(|c| c.shards = 64), Ok(()));
        let lockfree = validated(|c| (c.backend, c.shards) = (ServiceBackend::LockFree, 128));
        assert_eq!(lockfree, Ok(()));
    }

    #[test]
    fn validate_rejects_a_probe_distribution_for_other_bins() {
        let err = validated(|c| c.probes = ProbeDistribution::zipf(65, 1.0).unwrap());
        let want = ConfigError::ProbeSupportMismatch {
            built_for: 65,
            bins: 64,
        };
        assert_eq!(err, Err(want));
    }

    /// Each traffic check, reported as the field it names.
    #[test]
    fn validate_rejects_each_bad_traffic_field() {
        let base = small_config(7, 1, 0.9).traffic;
        let arrivals = |arrivals| TrafficConfig { arrivals, ..base };
        let lifetime = |lifetime| TrafficConfig { lifetime, ..base };
        let on_off = |rate, on, off| arrivals(ArrivalProcess::OnOff { rate, on, off });
        let cases = [
            (
                arrivals(ArrivalProcess::Poisson { rate: f64::NAN }),
                "poisson arrival rate",
            ),
            (
                arrivals(ArrivalProcess::Burst { period: 0, size: 1 }),
                "burst period",
            ),
            (
                arrivals(ArrivalProcess::Burst { period: 4, size: 0 }),
                "burst size",
            ),
            (on_off(0.0, 1, 1), "on/off rate"),
            (on_off(1.0, 0, 1), "on phase"),
            (on_off(1.0, u32::MAX, 1), "on + off cycle"),
            (
                lifetime(Lifetime::Exponential { mean: -1.0 }),
                "exponential lifetime mean",
            ),
            (
                lifetime(Lifetime::Deterministic { ticks: 0 }),
                "deterministic lifetime",
            ),
            (TrafficConfig { ticks: 0, ..base }, "ticks"),
            (
                TrafficConfig {
                    service_rate: 0,
                    ..base
                },
                "service rate",
            ),
        ];
        for (traffic, field) in cases {
            let want = ConfigError::from(traffic.validate().unwrap_err());
            assert!(
                matches!(want, ConfigError::OutOfRange { name, .. } if name == field),
                "{field}: {want:?}"
            );
            assert_eq!(validated(|c| c.traffic = traffic), Err(want), "{field}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid open-loop config: service rate out of range")]
    fn run_open_loop_panics_with_the_validation_message_on_a_bad_trace() {
        let mut cfg = small_config(7, 1, 0.9);
        cfg.traffic.service_rate = 0;
        let _ = run_open_loop(&cfg);
    }

    #[test]
    #[should_panic(expected = "invalid open-loop config: max_batch must be positive")]
    fn run_open_loop_panics_with_the_validation_message() {
        let mut cfg = small_config(7, 1, 0.9);
        cfg.max_batch = 0;
        let _ = run_open_loop(&cfg);
    }

    #[test]
    fn placement_table_accepts_the_largest_bin_id() {
        let bins = u32::MAX as usize - 1;
        let last = bins - 1;
        let table = PlacementTable::new(1, 1, bins);
        table.set(0, &[last]);
        let mut out = Vec::new();
        table.get(0, &mut out);
        assert_eq!(out, vec![last]);
    }
}
