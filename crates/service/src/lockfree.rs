//! The lock-free CAS-bins backend: one `AtomicU32` per bin, placements
//! committed by optimistic read–decide–CAS sequences, no mutexes and no
//! ownership partition.
//!
//! ## Why a third backend
//!
//! The lock-striped store pays mutex traffic per request and the
//! shared-nothing engine pays ring routing plus snapshot staleness; the
//! (k,d)-choice decision itself only needs *approximate* load reads (the
//! staleness-vs-gap sweep measures exactly that tolerance). So the
//! natural third point in the design space is a flat array of atomic
//! counters: probe reads are racy by construction, and a commit succeeds
//! only if the probed bins still hold the loads the decision saw.
//!
//! ## The optimistic commit protocol
//!
//! One placement request on [`AtomicStore`] runs:
//!
//! 1. **Freeze** — read each distinct probed bin's counter once
//!    (`Relaxed`) into a private frozen view.
//! 2. **Decide** — run the shared [`decide_k_least`] kernel against the
//!    frozen view (identical probe sort, slot expansion, tie-key RNG
//!    consumption and winner order as both other backends).
//! 3. **Commit** — for each winner bin, `compare_exchange(frozen,
//!    frozen + multiplicity)`. A lost race rolls back the bins already
//!    committed in this attempt, counts one lost race, and restarts from
//!    step 1 with fresh reads (and fresh tie keys from the request's own
//!    private RNG stream — no other request's stream is perturbed).
//! 4. **Bounded retries** — after [`PLACE_RETRY_LIMIT`] lost races the
//!    request stops validating and commits with unconditional
//!    `fetch_add`, which cannot fail: every request terminates, and a
//!    CAS failure implies some *other* request committed, so the system
//!    as a whole is lock-free.
//!
//! Releases are per-ball guarded CAS decrements: the current value is
//! read, asserted positive (a zero here means a double release — the
//! counter is never allowed to go negative, let alone wrap), and
//! decremented only if unchanged.
//!
//! ## Memory-ordering contract
//!
//! * Decision reads are `Relaxed`: a stale probe read only degrades
//!   decision quality, never correctness, and the Theorem 2 envelope
//!   under racing is pinned by `tests/lockfree_envelope.rs`.
//! * Commit CAS / `fetch_add` / `fetch_sub` are `AcqRel`: the successful
//!   CAS is the linearization point of the placement, and a thread that
//!   later observes the new count also observes everything the committer
//!   did before it.
//! * The operation counters behind [`AtomicStore::stamped_snapshot`] are
//!   `SeqCst`, so "no operation overlapped the scan" is a statement
//!   about one total order, not per-variable luck.
//! * What one operation is depends on the caller. Each public call
//!   ([`AtomicStore::place_with`], [`AtomicStore::release`], a
//!   `BinStore` mutation) and each closed-loop request is one. The
//!   open-loop driver counts one per worker phase slice instead: all
//!   commits of a worker's slice of a tick, or all of its releases,
//!   between one `begin_op` and one `end_op`. The claim above holds
//!   either way, because an operation's bracket spans every CAS it
//!   makes; the slice only saves the two shared-line RMWs per request.
//!   `generation` then counts completed slices in that driver.
//!
//! ## Which determinism survives racing
//!
//! | Quantity | 1 thread | any threads |
//! |---|---|---|
//! | per-request probes / tie keys | pure in `(seed, id)` | **unchanged** (CAS never loses, so no re-decides) / re-decides draw extra keys from the request's own stream only |
//! | final state vs the single-thread oracle | **bit-identical** (same streams, CAS ≡ plain write) | interleaving-dependent |
//! | ball conservation, no negative loads | exact | **exact** (CAS-validated; checked every run) |
//! | gap envelope (Theorem 2) | exact statistics | statistical, asserted at 1/2/4/8 threads |

use std::sync::atomic::{AtomicU64, Ordering};

use kdchoice_core::{
    decide_k_least, sort_probes, BinStore, LoadView, ProbeDistribution, SharedLoadSnapshot,
    StoreKind,
};
use kdchoice_prng::Xoshiro256PlusPlus;
use rand::RngCore;

use crate::pipeline::{id_batches, IdRange, Run, TickSample, TickStore, DRAW_BATCH};
use crate::service::{run_clients, EndState, ServiceReport, ServiceWorkloadConfig};
use crate::sharded::Placement;

/// Lost CAS races a placement tolerates before it stops validating and
/// commits unconditionally (see the module docs). Small on purpose: the
/// fallback is what bounds a request's worst case, and the stress suite
/// asserts how rarely it fires.
pub const PLACE_RETRY_LIMIT: usize = 8;

/// How many scan attempts [`AtomicStore::stamped_snapshot`] makes before
/// returning a snapshot marked inconsistent.
const SNAPSHOT_ATTEMPTS: usize = 8;

/// A merged load scan stamped with the store's operation generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedLoads {
    /// Completed-operation count at the time of the scan — a generation
    /// stamp that two consistent snapshots can be compared by.
    pub generation: u64,
    /// Per-bin loads in bin-index order.
    pub loads: Vec<u32>,
    /// Whether the scan provably overlapped no place/release operation
    /// (no operation started or completed while it ran). An inconsistent
    /// scan is still a valid interleaving of per-bin atomic reads.
    pub consistent: bool,
}

/// The lock-free CAS-bins store: a [`SharedLoadSnapshot`] promoted from
/// published-copy to **ground truth**, mutated only through CAS/RMW.
///
/// Unlike [`crate::ShardedStore`] (exact reads under locks) and the
/// owned engine (stale snapshot reads, exact owned truth), here the
/// atomic counters are the only state: reads are racy, commits are
/// validated. Packed [`StoreKind`]s are honored as a **decision-view
/// ceiling**: the counters stay exact (conservation is never quantized),
/// but [`LoadView::view_load`] clamps at the kind's publish ceiling
/// `2^b − 1`, reproducing what a packed snapshot would let the decision
/// see.
#[derive(Debug)]
pub struct AtomicStore {
    truth: SharedLoadSnapshot,
    capacities: Option<Vec<u32>>,
    total_capacity: u64,
    /// Decision-view clamp (`u32::MAX` for exact kinds).
    ceiling: u32,
    kind: StoreKind,
    /// Operations (place/release/trait mutations) that have started.
    ops_started: AtomicU64,
    /// Operations that have finished every counter write.
    ops_completed: AtomicU64,
    /// CAS commits lost to a concurrent interferer (places + releases).
    lost_races: AtomicU64,
    /// Placements that exhausted [`PLACE_RETRY_LIMIT`] and committed
    /// through the unconditional fallback.
    fallback_commits: AtomicU64,
}

/// Reusable per-worker scratch for [`AtomicStore::place_with`]: the
/// decision buffers, which keep their capacity across requests. The
/// open-loop commit path then allocates nothing once they have grown;
/// `place_with` itself still allocates the [`Placement`] it returns.
#[derive(Debug, Default)]
pub struct PlaceScratch {
    sorted: Vec<usize>,
    slots: Vec<(u32, u64, usize)>,
    distinct: Vec<usize>,
    frozen: Vec<u32>,
    mult: Vec<u32>,
    /// The last placement's winner bins, in selection order.
    bins: Vec<usize>,
}

impl PlaceScratch {
    /// Empty scratch; buffers grow to `d` entries on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The decide-phase view of one placement attempt: the loads frozen at
/// read time, clamped at the store's decision ceiling. Deciding against
/// frozen reads is what makes the subsequent CAS expectations exactly
/// the values the decision saw.
struct FrozenView<'a> {
    n: usize,
    /// Distinct probed bins, ascending (binary-searchable).
    bins: &'a [usize],
    loads: &'a [u32],
    ceiling: u32,
}

impl LoadView for FrozenView<'_> {
    #[inline]
    fn view_n(&self) -> usize {
        self.n
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        let i = self
            .bins
            .binary_search(&bin)
            .expect("decide reads only probed bins");
        self.loads[i].min(self.ceiling)
    }
}

impl AtomicStore {
    /// Creates an all-empty exact store over `n` homogeneous bins.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::build(n, None, StoreKind::Exact)
    }

    /// [`AtomicStore::new`] with a decision-view [`StoreKind`].
    ///
    /// # Panics
    ///
    /// As [`AtomicStore::new`].
    pub fn with_kind(n: usize, kind: StoreKind) -> Self {
        Self::build(n, None, kind)
    }

    /// [`AtomicStore::new`] with per-bin capacities (the heterogeneous
    /// cluster); `capacities.len()` must equal `n`.
    ///
    /// # Panics
    ///
    /// As [`AtomicStore::new`], plus mismatched capacity length or a
    /// zero capacity.
    pub fn with_capacities(n: usize, capacities: &[u32]) -> Self {
        Self::build(n, Some(capacities), StoreKind::Exact)
    }

    /// [`AtomicStore::with_capacities`] with a decision-view
    /// [`StoreKind`].
    ///
    /// # Panics
    ///
    /// The union of [`AtomicStore::with_kind`] and
    /// [`AtomicStore::with_capacities`].
    pub fn with_kind_capacities(n: usize, capacities: &[u32], kind: StoreKind) -> Self {
        Self::build(n, Some(capacities), kind)
    }

    fn build(n: usize, capacities: Option<&[u32]>, kind: StoreKind) -> Self {
        if let Some(caps) = capacities {
            assert_eq!(caps.len(), n, "need exactly one capacity per bin");
            assert!(caps.iter().all(|&c| c >= 1), "capacities must be >= 1");
        }
        Self {
            truth: SharedLoadSnapshot::new(n),
            total_capacity: capacities
                .map_or(n as u64, |caps| caps.iter().map(|&c| u64::from(c)).sum()),
            capacities: capacities.map(<[u32]>::to_vec),
            ceiling: kind.bits().map_or(u32::MAX, |b| (1u32 << b) - 1),
            kind,
            ops_started: AtomicU64::new(0),
            ops_completed: AtomicU64::new(0),
            lost_races: AtomicU64::new(0),
            fallback_commits: AtomicU64::new(0),
        }
    }

    /// The decision-view [`StoreKind`] (the counters themselves are
    /// always exact).
    pub fn store_kind(&self) -> StoreKind {
        self.kind
    }

    /// CAS commits lost to concurrent interferers so far (places and
    /// releases combined).
    pub fn lost_races(&self) -> u64 {
        self.lost_races.load(Ordering::Relaxed)
    }

    /// Placements that fell back to unconditional commits after
    /// [`PLACE_RETRY_LIMIT`] lost races.
    pub fn fallback_commits(&self) -> u64 {
        self.fallback_commits.load(Ordering::Relaxed)
    }

    #[inline]
    fn begin_op(&self) {
        self.ops_started.fetch_add(1, Ordering::SeqCst);
    }

    #[inline]
    fn end_op(&self) {
        self.ops_completed.fetch_add(1, Ordering::SeqCst);
    }

    /// Serves one placement request with caller-provided scratch: probes
    /// are sorted, decided through [`decide_k_least`] against a frozen
    /// read of the probed counters, and committed by per-bin CAS (see
    /// the module docs for the retry/fallback protocol). The returned
    /// heights are CAS-validated true heights.
    ///
    /// RNG consumption per attempt is the shared kernel's: one tie key per
    /// tentative slot, as on every backend. At one thread no CAS can
    /// fail, so the stream — and the placement — is bit-identical to
    /// every other backend's.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > probes.len()`, or any probe is out of
    /// range.
    pub fn place_with<R: RngCore + ?Sized>(
        &self,
        probes: &[usize],
        k: usize,
        rng: &mut R,
        scratch: &mut PlaceScratch,
    ) -> Placement {
        let max_height = self.place_into(probes, k, rng, scratch);
        Placement {
            bins: scratch.bins.clone(),
            max_height,
        }
    }

    /// [`AtomicStore::place_with`] without the returned [`Placement`]:
    /// leaves the winners in `scratch.bins` and returns the maximum ball
    /// height. Counts one operation.
    ///
    /// # Panics
    ///
    /// As [`AtomicStore::place_with`]. Every panic fires before the
    /// operation is counted as started, so a rejected request leaves no
    /// operation in flight.
    pub(crate) fn place_into<R: RngCore + ?Sized>(
        &self,
        probes: &[usize],
        k: usize,
        rng: &mut R,
        scratch: &mut PlaceScratch,
    ) -> u32 {
        self.prepare_place(probes, k, scratch);
        self.begin_op();
        let max_height = self.place_prepared(k, rng, scratch);
        self.end_op();
        max_height
    }

    /// Checks one request and sorts its probes into `scratch.sorted`:
    /// every panic of a placement fires here, before any counter write.
    #[inline(always)]
    fn prepare_place(&self, probes: &[usize], k: usize, scratch: &mut PlaceScratch) {
        assert!(k >= 1, "a placement request must place at least one ball");
        assert!(
            k <= probes.len(),
            "cannot place {k} balls on {} probed slots",
            probes.len()
        );
        let n = self.truth.len();
        scratch.sorted.clear();
        scratch.sorted.extend_from_slice(probes);
        sort_probes(&mut scratch.sorted);
        if let Some(&last) = scratch.sorted.last() {
            assert!(last < n, "probed bin {last} out of range (n={n})");
        }
    }

    /// The uncounted core of a placement: read, decide and CAS-commit the
    /// request [`AtomicStore::prepare_place`] left in `scratch.sorted`.
    /// The caller counts the operation around it.
    #[inline(always)]
    fn place_prepared<R: RngCore + ?Sized>(
        &self,
        k: usize,
        rng: &mut R,
        scratch: &mut PlaceScratch,
    ) -> u32 {
        let n = self.truth.len();
        let mut attempt = 0usize;
        loop {
            // Freeze: one Relaxed read per distinct probed bin, prefetched
            // as a batch first (memory-level parallelism, no RNG use).
            scratch.distinct.clear();
            for &bin in &scratch.sorted {
                if scratch.distinct.last() != Some(&bin) {
                    scratch.distinct.push(bin);
                }
            }
            for &bin in &scratch.distinct {
                self.truth.prefetch(bin);
            }
            scratch.frozen.clear();
            scratch
                .frozen
                .extend(scratch.distinct.iter().map(|&bin| self.truth.get(bin)));

            // Decide against the frozen view: the CAS expectations below
            // are exactly the loads the decision saw.
            let view = FrozenView {
                n,
                bins: &scratch.distinct,
                loads: &scratch.frozen,
                ceiling: self.ceiling,
            };
            scratch.bins.clear();
            decide_k_least(
                &view,
                &scratch.sorted,
                k,
                rng,
                &mut scratch.slots,
                &mut scratch.bins,
            );
            scratch.mult.clear();
            scratch.mult.resize(scratch.distinct.len(), 0);
            for &bin in &scratch.bins {
                let i = scratch
                    .distinct
                    .binary_search(&bin)
                    .expect("winner bins come from the probed set");
                scratch.mult[i] += 1;
            }

            // Commit: validate-and-swap per winner bin; past the retry
            // limit, commit unconditionally (fetch_add cannot fail).
            let fallback = attempt >= PLACE_RETRY_LIMIT;
            let mut max_height = 0u32;
            let mut lost_at = None;
            for i in 0..scratch.distinct.len() {
                let m = scratch.mult[i];
                if m == 0 {
                    continue;
                }
                let bin = scratch.distinct[i];
                if fallback {
                    max_height = max_height.max(self.truth.fetch_add(bin, m) + m);
                } else {
                    let frozen = scratch.frozen[i];
                    match self.truth.compare_exchange(bin, frozen, frozen + m) {
                        Ok(_) => max_height = max_height.max(frozen + m),
                        Err(_) => {
                            lost_at = Some(i);
                            break;
                        }
                    }
                }
            }
            let Some(lost_at) = lost_at else {
                if fallback {
                    self.fallback_commits.fetch_add(1, Ordering::Relaxed);
                }
                return max_height;
            };
            // Lost the race: undo this attempt's earlier commits (our own
            // balls only, so the guarded subtraction cannot underflow),
            // then re-read and re-decide.
            for j in 0..lost_at {
                if scratch.mult[j] > 0 {
                    self.truth.fetch_sub(scratch.distinct[j], scratch.mult[j]);
                }
            }
            self.lost_races.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
        }
    }

    /// Releases one ball per entry of `bins` (a previous placement's
    /// destination list) by guarded CAS decrements. Retries on lost
    /// races are unbounded but lock-free: each failure means another
    /// operation committed.
    ///
    /// # Panics
    ///
    /// Panics if any bin is out of range or its counter is already zero
    /// (a double release — counters never go negative).
    pub fn release(&self, bins: &[usize]) {
        self.begin_op();
        self.release_uncounted(bins.iter().copied());
        self.end_op();
    }

    /// The uncounted core of [`AtomicStore::release`]; the caller counts
    /// the operation around it.
    #[inline(always)]
    fn release_uncounted(&self, bins: impl IntoIterator<Item = usize>) {
        for bin in bins {
            loop {
                let current = self.truth.get(bin);
                assert!(
                    current > 0,
                    "release from empty bin {bin}: double release or unplaced ball"
                );
                if self
                    .truth
                    .compare_exchange(bin, current, current - 1)
                    .is_ok()
                {
                    break;
                }
                self.lost_races.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Scans the counters into a generation-stamped snapshot, retrying
    /// up to a few times for a scan that provably overlapped no
    /// operation (`consistent`). At a quiescent point (all workers
    /// parked or joined) the first scan is always consistent and exact.
    pub fn stamped_snapshot(&self) -> StampedLoads {
        let n = self.truth.len();
        let mut loads = vec![0u32; n];
        for attempt in 0..SNAPSHOT_ATTEMPTS {
            let completed_before = self.ops_completed.load(Ordering::SeqCst);
            for (bin, slot) in loads.iter_mut().enumerate() {
                *slot = self.truth.get(bin);
            }
            let started_after = self.ops_started.load(Ordering::SeqCst);
            // Every operation started by scan-end had completed before
            // scan-begin <=> none overlapped the scan.
            if completed_before == started_after || attempt + 1 == SNAPSHOT_ATTEMPTS {
                return StampedLoads {
                    generation: completed_before,
                    loads,
                    consistent: completed_before == started_after,
                };
            }
        }
        unreachable!("the loop always returns by the last attempt");
    }

    /// Verifies the store's invariants, returning `true` when all hold:
    /// no operation left in flight, a consistent stamped scan, counters
    /// that sum to `total_balls`, and a histogram covering exactly `n`
    /// bins. Meant for quiescent points (every driver checks it at end
    /// of run); mid-race it may fail spuriously on the in-flight check
    /// but never falsely pass a corrupted store.
    pub fn check_invariants(&self) -> bool {
        let started = self.ops_started.load(Ordering::SeqCst);
        let completed = self.ops_completed.load(Ordering::SeqCst);
        let snap = self.stamped_snapshot();
        let total: u64 = snap.loads.iter().map(|&l| u64::from(l)).sum();
        let histogram = self.histogram();
        let bins: u64 = histogram.iter().sum();
        let weighted: u64 = histogram
            .iter()
            .enumerate()
            .map(|(l, &c)| c * l as u64)
            .sum();
        started == completed
            && snap.consistent
            && total == self.total_balls()
            && bins == self.truth.len() as u64
            && weighted == total
    }
}

impl LoadView for AtomicStore {
    #[inline]
    fn view_n(&self) -> usize {
        self.truth.len()
    }

    /// The *decision* view: the live counter clamped at the store
    /// kind's publish ceiling (exact kinds never clamp).
    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.truth.get(bin).min(self.ceiling)
    }

    #[inline]
    fn prefetch(&self, bin: usize) {
        self.truth.prefetch(bin);
    }
}

impl BinStore for AtomicStore {
    fn n(&self) -> usize {
        self.truth.len()
    }

    /// The exact live counter (never clamped — clamping is a decision-
    /// view concern, see [`LoadView::view_load`]).
    fn load(&self, bin: usize) -> u32 {
        self.truth.get(bin)
    }

    fn add_ball(&mut self, bin: usize) -> u32 {
        self.begin_op();
        let height = self.truth.fetch_add(bin, 1) + 1;
        self.end_op();
        height
    }

    fn remove_ball(&mut self, bin: usize) -> u32 {
        self.begin_op();
        let height = self.truth.fetch_sub(bin, 1);
        self.end_op();
        height
    }

    fn max_load(&self) -> u32 {
        (0..self.truth.len())
            .map(|bin| self.truth.get(bin))
            .max()
            .unwrap_or(0)
    }

    fn total_balls(&self) -> u64 {
        (0..self.truth.len())
            .map(|bin| u64::from(self.truth.get(bin)))
            .sum()
    }

    fn nu(&self, y: u32) -> u64 {
        if y == 0 {
            return self.truth.len() as u64;
        }
        (0..self.truth.len())
            .filter(|&bin| self.truth.get(bin) >= y)
            .count() as u64
    }

    fn capacity(&self, bin: usize) -> u32 {
        assert!(bin < self.truth.len(), "bin {bin} out of range");
        self.capacities.as_ref().map_or(1, |caps| caps[bin])
    }

    fn total_capacity(&self) -> u64 {
        self.total_capacity
    }

    fn max_utilization(&self) -> f64 {
        match &self.capacities {
            None => f64::from(self.max_load()),
            Some(caps) => (0..self.truth.len())
                .map(|bin| f64::from(self.truth.get(bin)) / f64::from(caps[bin]))
                .fold(0.0, f64::max),
        }
    }

    fn copy_loads_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.truth.len()).map(|bin| self.truth.get(bin)));
    }

    fn histogram(&self) -> Vec<u64> {
        let mut histogram = vec![0u64; self.max_load() as usize + 1];
        for bin in 0..self.truth.len() {
            histogram[self.truth.get(bin) as usize] += 1;
        }
        histogram
    }
}

/// The lock-free backend of the barrier-phased open-loop driver. There
/// are no locks to amortize, so it serves one request at a time and
/// ignores `max_batch`, and `snapshot_refresh` too: the counters *are*
/// the truth, so staleness here comes from racing, not from a refresh
/// period.
///
/// **One operation per phase slice.** A worker's commit slice, and its
/// release slice, each count as *one* operation of
/// [`AtomicStore::stamped_snapshot`]: one `begin_op` before the slice's
/// first CAS and one `end_op` after its last, not a pair per request.
/// Per request, that pair is two `SeqCst` RMWs on a line every worker
/// writes; per slice it is two per worker and phase. The snapshot stays
/// sound, since a slice spans all of its CAS writes, so a scan that
/// overlapped none of the slices overlapped none of the writes. In this
/// driver `generation` therefore counts completed non-empty slices, not
/// requests; an empty slice writes nothing and is not counted.
impl TickStore for AtomicStore {
    /// Probes, per-request RNGs, and the decision buffers.
    type Scratch<'s> = (Vec<usize>, Vec<Xoshiro256PlusPlus>, PlaceScratch);

    /// Draws [`DRAW_BATCH`] requests at a time ([`Run::draw_batch`],
    /// prefetching their probed counters from two workers on), then
    /// CAS-commits them one by one: the per-request stream every backend
    /// draws.
    fn commit(&self, run: &Run<'_>, ids: IdRange, scratch: &mut Self::Scratch<'_>) {
        if ids.0 == ids.1 {
            return;
        }
        self.begin_op();
        if run.prefetches() {
            self.commit_slice::<true>(run, ids, scratch);
        } else {
            self.commit_slice::<false>(run, ids, scratch);
        }
        self.end_op();
    }

    /// Releases the departures in order, from two workers on prefetching
    /// the table rows and the counters of those a few places ahead
    /// ([`Run::for_each_departure`]).
    fn release(&self, run: &Run<'_>, ids: &[u32], _: &mut Self::Scratch<'_>) {
        if ids.is_empty() {
            return;
        }
        self.begin_op();
        if run.prefetches() {
            self.release_slice::<true>(run, ids);
        } else {
            self.release_slice::<false>(run, ids);
        }
        self.end_op();
    }

    /// One relaxed scan of live balls and max load.
    fn sample(&self, tick: u32) -> TickSample {
        let n = self.n();
        let mut live = 0u64;
        let mut max = 0u32;
        for bin in 0..n {
            let load = BinStore::load(self, bin);
            live += u64::from(load);
            max = max.max(load);
        }
        TickSample {
            tick,
            live_balls: live,
            max_load: max,
            gap: f64::from(max) - live as f64 / n as f64,
        }
    }

    fn invariants_ok(&self) -> bool {
        self.check_invariants()
    }
}

/// The uncounted phase slices of the open-loop [`TickStore`] impl, with
/// prefetching on (`P`) or compiled out. Each is compiled twice, so
/// these and the placement and release cores they call are marked
/// `#[inline(always)]`: left to itself, the compiler stops inlining the
/// CAS loops into either copy, which costs the one-thread path a call
/// per request.
impl AtomicStore {
    #[inline(always)]
    fn commit_slice<const P: bool>(
        &self,
        run: &Run<'_>,
        ids: IdRange,
        (probes, rngs, scratch): &mut <Self as TickStore>::Scratch<'_>,
    ) {
        let (k, d) = (run.config.k, run.config.d);
        for batch in id_batches(ids, DRAW_BATCH) {
            run.draw_batch::<P, _>(batch, Some(&self.truth), probes, rngs);
            for ((id, request), mut rng) in
                (batch.0..batch.1).zip(probes.chunks(d)).zip(rngs.drain(..))
            {
                self.prepare_place(request, k, scratch);
                self.place_prepared(k, &mut rng, scratch);
                run.table.set(id, &scratch.bins);
            }
        }
    }

    #[inline(always)]
    fn release_slice<const P: bool>(&self, run: &Run<'_>, ids: &[u32]) {
        run.for_each_departure::<P>(
            ids,
            |bin| self.truth.prefetch(bin),
            |id| self.release_uncounted(run.table.bins(id)),
        );
    }
}

/// Runs the closed-loop service workload on the lock-free store: the
/// client loop the striped backend runs, every client hammering one shared
/// [`AtomicStore`] with no locks anywhere. `shards` and
/// `snapshot_refresh` are ignored — there is nothing to stripe and
/// nothing to republish. The caller has validated `config`.
pub(crate) fn run_service_workload_lockfree(config: &ServiceWorkloadConfig) -> ServiceReport {
    let store = AtomicStore::with_kind(config.bins, config.store);
    let shared = &store;
    let (wall_secs, balls_released) = run_clients(config, || {
        let mut probes = vec![0usize; config.d];
        let mut scratch = PlaceScratch::new();
        move |rng: &mut Xoshiro256PlusPlus, oldest: Option<Vec<usize>>| {
            ProbeDistribution::Uniform.fill_each(rng, config.bins, &mut probes);
            shared.place_into(&probes, config.k, rng, &mut scratch);
            if let Some(oldest) = oldest {
                shared.release(&oldest);
            }
            scratch.bins.clone()
        }
    });
    let end = EndState::of(&store, store.check_invariants());
    ServiceReport::closed_loop(config, wall_secs, balls_released, end, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_core::LoadVector;

    #[test]
    fn place_and_release_round_trip() {
        let store = AtomicStore::new(16);
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let mut scratch = PlaceScratch::new();
        let p = store.place_with(&[3, 7, 3, 11], 2, &mut rng, &mut scratch);
        assert_eq!(p.bins.len(), 2);
        assert_eq!(store.total_balls(), 2);
        assert!(p.max_height >= 1);
        store.release(&p.bins);
        assert_eq!(store.total_balls(), 0);
        assert_eq!(store.lost_races(), 0, "no contention at one thread");
        assert_eq!(store.fallback_commits(), 0);
        assert!(store.check_invariants());
    }

    /// The single-thread placement is bit-identical to the exact-view
    /// kernel driven by hand: same winners, same max height, same RNG
    /// stream position afterwards.
    #[test]
    fn single_thread_matches_exact_kernel() {
        let store = AtomicStore::new(32);
        let mut reference = LoadVector::new(32);
        let mut scratch = PlaceScratch::new();
        let (mut slots, mut ref_bins) = (Vec::new(), Vec::new());
        for step in 0..400u64 {
            let mut rng = Xoshiro256PlusPlus::from_u64(step);
            let mut rng_ref = Xoshiro256PlusPlus::from_u64(step);
            let probes: Vec<usize> = (0..4).map(|_| (rng.next_u64() % 32) as usize).collect();
            let ref_probes: Vec<usize> =
                (0..4).map(|_| (rng_ref.next_u64() % 32) as usize).collect();
            let mut sorted = ref_probes.clone();
            sorted.sort_unstable();
            ref_bins.clear();
            let ref_max = decide_k_least(
                &reference,
                &sorted,
                2,
                &mut rng_ref,
                &mut slots,
                &mut ref_bins,
            );
            for &bin in &ref_bins {
                reference.add_ball(bin);
            }
            let placement = store.place_with(&probes, 2, &mut rng, &mut scratch);
            assert_eq!(placement.bins, ref_bins, "step {step}");
            assert_eq!(placement.max_height, ref_max, "step {step}");
            assert_eq!(rng.next_u64(), rng_ref.next_u64(), "RNG stream step {step}");
        }
        let mut loads = Vec::new();
        store.copy_loads_into(&mut loads);
        assert_eq!(loads, reference.loads());
    }

    /// A packed decision view clamps what the decision sees but never
    /// what the counters hold: pile 20 balls on bin 0 and the view says
    /// 15 while truth, conservation, and the histogram stay exact.
    #[test]
    fn packed_view_clamps_decisions_not_truth() {
        let mut store = AtomicStore::with_kind(4, StoreKind::Packed4);
        assert_eq!(store.store_kind(), StoreKind::Packed4);
        for _ in 0..20 {
            store.add_ball(0);
        }
        assert_eq!(BinStore::load(&store, 0), 20);
        assert_eq!(store.view_load(0), 15, "clamped at 2^4 - 1");
        assert_eq!(store.total_balls(), 20);
        assert!(store.check_invariants());
        // Beyond the ceiling every bin looks equally loaded, so the
        // decision falls back to tie keys — but commits stay exact.
        let mut rng = Xoshiro256PlusPlus::from_u64(0);
        let p = store.place_with(&[0, 1], 1, &mut rng, &mut PlaceScratch::new());
        assert_eq!(p.bins, vec![1], "bin 1 (0 < clamped 15) must win");
        assert_eq!(store.total_balls(), 21);
    }

    #[test]
    fn stamped_snapshot_is_consistent_and_exact_at_quiescence() {
        let store = AtomicStore::new(8);
        let mut rng = Xoshiro256PlusPlus::from_u64(9);
        let mut scratch = PlaceScratch::new();
        for _ in 0..10 {
            store.place_with(&[1, 2, 5, 5], 2, &mut rng, &mut scratch);
        }
        let snap = store.stamped_snapshot();
        assert!(snap.consistent);
        assert_eq!(snap.generation, 10, "one operation per placement");
        assert_eq!(snap.loads.iter().map(|&l| u64::from(l)).sum::<u64>(), 20);
        let mut loads = Vec::new();
        store.copy_loads_into(&mut loads);
        assert_eq!(snap.loads, loads);
    }

    /// The open-loop driver counts one operation per phase slice: at one
    /// thread every non-empty commit or release slice advances the
    /// generation by exactly one, an empty one by nothing, and the scan
    /// between slices reads consistent and exact.
    #[test]
    fn open_loop_slices_count_one_operation_each() {
        use crate::pipeline::{PlacementTable, Run};
        use crate::traffic::TrafficSchedule;
        use crate::OpenLoopConfig;

        let config = OpenLoopConfig::at_lambda(64, 2, 4, 0.9, 8.0, 40, 0x51CE);
        let schedule = TrafficSchedule::generate(&config.traffic, config.traffic_seed())
            .expect("valid traffic");
        let table = PlacementTable::new(schedule.timings.len(), config.k, config.bins);
        let run = Run::new(&config, &schedule, &table);
        let store = AtomicStore::new(config.bins);
        let mut scratch = Default::default();
        let (mut generation, mut slices) = (0u64, [0usize; 2]);
        let mut step = |store: &AtomicStore, requests: usize, kind: usize| {
            let want = generation + u64::from(requests > 0);
            let snap = store.stamped_snapshot();
            assert!(snap.consistent);
            assert_eq!(snap.generation, want, "{requests} requests in one slice");
            let mut loads = Vec::new();
            store.copy_loads_into(&mut loads);
            assert_eq!(snap.loads, loads);
            assert!(store.check_invariants());
            generation = want;
            slices[kind] += usize::from(requests > 0);
        };
        for t in 0..schedule.commit_ranges.len() {
            let departures = &schedule.departures[t];
            TickStore::release(&store, &run, departures, &mut scratch);
            step(&store, departures.len(), 0);
            let ids = schedule.commit_ranges[t];
            TickStore::commit(&store, &run, ids, &mut scratch);
            step(&store, (ids.1 - ids.0) as usize, 1);
        }
        assert!(
            slices[0] > 0 && slices[1] > 0,
            "both phases ran: {slices:?}"
        );
    }

    #[test]
    fn bin_store_surface_matches_load_vector_semantics() {
        let mut store = AtomicStore::new(4);
        assert_eq!(store.add_ball(1), 1);
        assert_eq!(store.add_ball(1), 2);
        assert_eq!(store.add_ball(3), 1);
        assert_eq!(BinStore::load(&store, 1), 2);
        assert_eq!(store.max_load(), 2);
        assert_eq!(store.total_balls(), 3);
        assert_eq!(store.nu(0), 4);
        assert_eq!(store.nu(1), 2);
        assert_eq!(store.nu(2), 1);
        assert_eq!(store.remove_ball(1), 2);
        assert_eq!(store.histogram(), vec![2, 2]);
        assert!((store.gap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_capacities_normalize_utilization() {
        let mut store = AtomicStore::with_capacities(4, &[1, 4, 1, 1]);
        assert_eq!(BinStore::total_capacity(&store), 7);
        assert_eq!(store.capacity(1), 4);
        for _ in 0..4 {
            store.add_ball(1);
        }
        store.add_ball(0);
        // Bin 0 at 1/1 dominates bin 1 at 4/4 only by tie; both are 1.0.
        assert!((store.max_utilization() - 1.0).abs() < 1e-12);
        assert!(store.check_invariants());
    }

    /// A rejected `k` panics before the operation is counted as started,
    /// so the store stays quiescent: no operation is left in flight and
    /// later snapshots are consistent again.
    #[test]
    fn rejected_k_leaves_no_operation_in_flight() {
        let store = AtomicStore::new(8);
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        for k in [0, 3] {
            let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.place_with(&[1, 2], k, &mut rng, &mut PlaceScratch::new())
            }));
            assert!(rejected.is_err(), "k = {k} must be rejected");
        }
        assert!(store.check_invariants());
        assert!(store.stamped_snapshot().consistent);
        store.place_with(&[1, 2], 1, &mut rng, &mut PlaceScratch::new());
        assert!(store.check_invariants());
        assert_eq!(store.stamped_snapshot().generation, 1);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_caught() {
        let store = AtomicStore::new(4);
        let mut rng = Xoshiro256PlusPlus::from_u64(0);
        let p = store.place_with(&[0, 1], 1, &mut rng, &mut PlaceScratch::new());
        store.release(&p.bins);
        store.release(&p.bins);
    }
}
