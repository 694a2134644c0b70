//! [`ShardedStore`]: `n` bins split across power-of-two lock-striped
//! shards, each shard a [`LoadVector`](kdchoice_core::LoadVector), observables merged on demand.
//!
//! **Striping.** Bin `b` lives in shard `b mod shards` at local index
//! `b div shards` (both computed with mask/shift, hence the
//! power-of-two shard count). Index-interleaved striping is what makes
//! the heterogeneous constructor capacity-proportional: the workspace's
//! capacity maps interleave fat bins by index, so every shard carries a
//! near-equal capacity share and no shard becomes the utilization hot
//! spot by construction.
//!
//! **Lock discipline.** Every multi-shard operation (placement, batch
//! placement, release) locks the distinct shards it touches in ascending
//! order — the single global lock order that makes concurrent requests
//! deadlock-free — and holds all of them from the first load read to the
//! last commit, so each request is one linearization point. A lock round
//! over `p` bins touching `m` distinct shards costs O(p + m log m): each
//! bin marks its shard in a reusable shard → guard-position table, only
//! the `m` marked shards are sorted and locked, and every load read,
//! commit and release finds its guard by one table read.
//!
//! **Determinism.** One shard driven by one thread is bit-identical to a
//! plain [`LoadVector`](kdchoice_core::LoadVector) (locked by the proptest in
//! `tests/store_equivalence.rs`). Under concurrency, per-request probe
//! and tie-key streams stay exact (they come from caller-owned RNGs);
//! only the interleaving of commits — and therefore the final load
//! shape — is scheduler-driven. Conservation and per-shard invariants
//! hold under any interleaving.

use std::sync::{Mutex, MutexGuard};

use kdchoice_core::{decide_k_least, sort_probes, BinSlab, BinStore, LoadView, StoreKind};
use rand::RngCore;

use crate::pad::CachePadded;

/// The [`HeldShards::guard_at`] entry of a shard the round does not hold.
const NOT_HELD: u32 = u32::MAX;

/// One lock round's shard locks: the held guards and, per shard, where
/// its guard sits among them. Reused across rounds, so a round allocates
/// nothing once the buffers have grown.
#[derive(Default)]
struct HeldShards<'s> {
    /// Shard id → position of its guard in `guards`; [`NOT_HELD`] for
    /// every shard outside the current round.
    guard_at: Vec<u32>,
    /// The held shard ids, ascending: `guards[i]` locks shard `held[i]`.
    held: Vec<usize>,
    guards: Vec<MutexGuard<'s, BinSlab>>,
}

impl<'s> HeldShards<'s> {
    /// Locks the distinct shards of `bins` in the canonical ascending
    /// order that makes concurrent requests deadlock-free. Each bin marks
    /// its shard in `guard_at`; only the distinct shards are sorted, then
    /// locked, each recording its guard's position.
    fn lock(&mut self, store: &'s ShardedStore, bins: &[usize]) {
        debug_assert!(self.held.is_empty(), "the previous round was unlocked");
        if self.guard_at.len() < store.shards.len() {
            self.guard_at.resize(store.shards.len(), NOT_HELD);
        }
        for &bin in bins {
            let shard = store.shard_of(bin);
            if self.guard_at[shard] == NOT_HELD {
                self.guard_at[shard] = 0; // marked; its position is set below
                self.held.push(shard);
            }
        }
        self.held.sort_unstable();
        for (pos, &shard) in self.held.iter().enumerate() {
            self.guard_at[shard] = pos as u32;
            self.guards
                .push(store.shards[shard].lock().expect("no poisoned shard"));
        }
    }

    /// The held slab of `shard`.
    #[inline]
    fn slab(&self, shard: usize) -> &BinSlab {
        &self.guards[self.guard_at[shard] as usize]
    }

    /// The held slab of `shard`, mutably.
    #[inline]
    fn slab_mut(&mut self, shard: usize) -> &mut BinSlab {
        &mut self.guards[self.guard_at[shard] as usize]
    }

    /// Releases every held lock and resets only the held shards' entries.
    fn unlock(&mut self) {
        for &shard in &self.held {
            self.guard_at[shard] = NOT_HELD;
        }
        self.held.clear();
        self.guards.clear();
    }
}

/// The loads one request reads through the shard guards it holds: the
/// [`LoadView`] that [`ShardedStore`]'s placements decide against.
struct GuardedLoads<'a, 's> {
    store: &'a ShardedStore,
    round: &'a HeldShards<'s>,
}

impl LoadView for GuardedLoads<'_, '_> {
    #[inline]
    fn view_n(&self) -> usize {
        self.store.n
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.round
            .slab(self.store.shard_of(bin))
            .load(self.store.local_of(bin))
    }
}

/// One committed placement: the bins that received balls (with
/// multiplicity) and the tallest resulting ball height.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Destination bins, one entry per placed ball (a bin sampled `m`
    /// times may appear up to `m` times).
    pub bins: Vec<usize>,
    /// The maximum height among the placed balls — the job-completion
    /// proxy of §1.3.
    pub max_height: u32,
}

/// Reusable per-worker scratch for [`ShardedStore::place_batch_into`]
/// and [`ShardedStore::release_into`]: the decision buffers, the held
/// shard locks with their shard → guard table, and the last batch's
/// winners. Every buffer keeps its capacity across batches, so a worker
/// commits without allocating once they have grown.
/// [`ShardedStore::place_batch`] and [`ShardedStore::release`] run on a
/// fresh one per call.
#[derive(Default)]
pub(crate) struct BatchScratch<'s> {
    round: HeldShards<'s>,
    sorted: Vec<usize>,
    slots: Vec<(u32, u64, usize)>,
    /// The last batch's winner bins, `k` per request in batch order.
    pub(crate) bins: Vec<usize>,
    /// The last batch's maximum ball heights, one per request.
    pub(crate) heights: Vec<u32>,
}

/// A concurrent bin store: `n` bins striped across a power-of-two number
/// of shards, shard `s` holding the bins with `bin % shards == s`, each
/// shard a mutex-guarded [`LoadVector`](kdchoice_core::LoadVector).
///
/// * **Concurrent surface** — [`ShardedStore::place_batch`] and
///   [`ShardedStore::release`] take `&self`, lock only the shards a
///   batch touches (in canonical ascending order, so concurrent
///   requests cannot deadlock), and commit atomically with respect to
///   other requests. A lock round over `p` bins in `m` distinct shards
///   costs O(p + m log m) on top of the `m` acquisitions: only the
///   distinct shards are sorted, and each load read, commit and release
///   finds its guard through a shard → guard table, not a search.
/// * **[`BinStore`] surface** — `&mut self` mutators go through
///   `Mutex::get_mut` (no lock overhead when exclusively owned), and
///   `&self` observables lock shard by shard and merge, so a
///   single-threaded caller can use a `ShardedStore` exactly like a
///   [`LoadVector`](kdchoice_core::LoadVector).
///
/// With one shard and a single thread, every operation is bit-identical
/// to the same operations on a plain [`LoadVector`](kdchoice_core::LoadVector) (locked by the
/// equivalence proptest in `tests/store_equivalence.rs`).
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<CachePadded<Mutex<BinSlab>>>,
    /// `shards.len() - 1`; shard of `bin` is `bin & mask`.
    mask: usize,
    /// `log2(shards.len())`; local index of `bin` is `bin >> bits`.
    bits: u32,
    n: usize,
    kind: StoreKind,
}

impl ShardedStore {
    /// Creates `n` empty exact bins striped over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two, or `shards > n`.
    pub fn new(n: usize, shards: usize) -> Self {
        Self::build(n, shards, None, StoreKind::Exact)
    }

    /// [`ShardedStore::new`] with each shard holding a slab of the given
    /// [`StoreKind`] — packed slabs make a shard's decision path
    /// 16 bins/word instead of 2 bins/cache-line.
    ///
    /// # Panics
    ///
    /// As [`ShardedStore::new`].
    pub fn with_kind(n: usize, shards: usize, kind: StoreKind) -> Self {
        Self::build(n, shards, None, kind)
    }

    /// Creates `n` empty bins with per-bin capacities, striped over
    /// `shards` shards — the heterogeneous-cluster store.
    ///
    /// Striping stays index-interleaved (`shard = bin mod shards`), which
    /// is exactly what makes it **capacity-proportional** for the
    /// capacity maps this workspace generates: fat bins are interleaved
    /// by index (see `kdchoice_core::two_tier_capacities`), so every
    /// shard holds a near-equal slice of the total capacity and the
    /// merged utilization observables stay contention-balanced.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ShardedStore::new`], or if
    /// `capacities.len() != n` or any capacity is 0.
    pub fn with_capacities(n: usize, shards: usize, capacities: &[u32]) -> Self {
        assert_eq!(capacities.len(), n, "need exactly one capacity per bin");
        Self::build(n, shards, Some(capacities), StoreKind::Exact)
    }

    /// [`ShardedStore::with_capacities`] with a non-exact [`StoreKind`].
    ///
    /// # Panics
    ///
    /// As [`ShardedStore::with_capacities`].
    pub fn with_kind_capacities(
        n: usize,
        shards: usize,
        capacities: &[u32],
        kind: StoreKind,
    ) -> Self {
        assert_eq!(capacities.len(), n, "need exactly one capacity per bin");
        Self::build(n, shards, Some(capacities), kind)
    }

    fn build(n: usize, shards: usize, capacities: Option<&[u32]>, kind: StoreKind) -> Self {
        assert!(
            shards > 0 && shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        assert!(
            shards <= n,
            "cannot stripe {n} bins over {shards} shards (need shards <= n)"
        );
        let bits = shards.trailing_zeros();
        let shard_vecs = (0..shards)
            .map(|s| {
                // Bins congruent to s mod shards that are < n.
                let local_bins = (n - s).div_ceil(shards);
                let slab = match capacities {
                    None => kind.new_slab(local_bins),
                    Some(caps) => {
                        let local_caps: Vec<u32> = (0..local_bins)
                            .map(|local| caps[(local << bits) | s])
                            .collect();
                        kind.slab_with_capacities(&local_caps)
                    }
                };
                CachePadded(Mutex::new(slab))
            })
            .collect();
        Self {
            shards: shard_vecs,
            mask: shards - 1,
            bits,
            n,
            kind,
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The [`StoreKind`] every shard's slab runs.
    pub fn store_kind(&self) -> StoreKind {
        self.kind
    }

    #[inline]
    fn shard_of(&self, bin: usize) -> usize {
        bin & self.mask
    }

    #[inline]
    fn local_of(&self, bin: usize) -> usize {
        bin >> self.bits
    }

    #[inline]
    fn global_of(&self, shard: usize, local: usize) -> usize {
        (local << self.bits) | shard
    }

    /// The read–decide–commit step of every request in
    /// [`ShardedStore::place_batch_into`]: decides `scratch.sorted` (one
    /// request's probes, ascending) through the core kernel
    /// ([`decide_k_least`]) over a [`GuardedLoads`] view of the held
    /// `scratch.round` (covering every probed shard), appends the winners
    /// to `scratch.bins`, then commits them in winner order under the same
    /// guards. Returns the tallest committed ball height.
    fn serve_on_guards<R: RngCore + ?Sized>(
        &self,
        scratch: &mut BatchScratch<'_>,
        k: usize,
        rng: &mut R,
    ) -> u32 {
        let BatchScratch {
            round,
            sorted,
            slots,
            bins,
            ..
        } = scratch;
        let start = bins.len();
        let view = GuardedLoads { store: self, round };
        decide_k_least(&view, sorted, k, rng, slots, bins);
        let mut max_height = 0u32;
        for &bin in &bins[start..] {
            let height = round
                .slab_mut(self.shard_of(bin))
                .add_ball(self.local_of(bin));
            max_height = max_height.max(height);
        }
        max_height
    }

    /// Serves a whole batch of same-shaped (k,d)-choice placement requests
    /// with **one lock acquisition per involved shard**: request `i`
    /// probes `probes[i*d..(i+1)*d]` (bin indices sampled with
    /// replacement by the caller) and draws its tie keys from `rngs[i]`.
    /// Each request commits one ball into each of its `k` least-loaded
    /// tentative slots — a bin probed `m` times contributes `m` slots of
    /// heights `L+1, …, L+m`, exactly the paper's multiplicity rule.
    ///
    /// The union of shards touched by any probe in the batch is locked
    /// once, in canonical ascending order, before any load is read, and
    /// released only after every ball is committed. Finding that union
    /// costs O(probes + m log m) for its `m` distinct shards (each probe
    /// marks its shard; only the marked shards are sorted), and every
    /// load read and commit reaches its guard in O(1). The requests are
    /// decided and committed **sequentially in batch order** under the
    /// held locks — each request sees every earlier request's balls,
    /// exactly as if the batch had been issued one single-request batch at
    /// a time. On a single thread every batch size is therefore
    /// bit-identical (locked by `tests/store_equivalence.rs`); the batch
    /// just amortizes the lock choreography: `batch · min(d, shards)`
    /// acquisitions collapse into at most `shards`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > d`, `probes.len() != rngs.len() * d`, or
    /// any probe is out of range.
    pub fn place_batch<R: RngCore>(
        &self,
        probes: &[usize],
        d: usize,
        k: usize,
        rngs: &mut [R],
    ) -> Vec<Placement> {
        let mut scratch = BatchScratch::default();
        self.place_batch_into(probes, d, k, rngs, &mut scratch);
        scratch
            .bins
            .chunks(k)
            .zip(&scratch.heights)
            .map(|(bins, &max_height)| Placement {
                bins: bins.to_vec(),
                max_height,
            })
            .collect()
    }

    /// [`ShardedStore::place_batch`] into caller-owned scratch: leaves
    /// request `i`'s winners in `scratch.bins[i*k..(i+1)*k]` and its
    /// maximum height in `scratch.heights[i]`, and allocates nothing once
    /// the scratch buffers have grown — the open-loop commit path.
    ///
    /// # Panics
    ///
    /// As [`ShardedStore::place_batch`].
    pub(crate) fn place_batch_into<'s, R: RngCore>(
        &'s self,
        probes: &[usize],
        d: usize,
        k: usize,
        rngs: &mut [R],
        scratch: &mut BatchScratch<'s>,
    ) {
        assert!(k >= 1, "a placement request must place at least one ball");
        assert!(k <= d, "cannot place {k} balls on {d} probed slots");
        assert_eq!(
            probes.len(),
            rngs.len() * d,
            "batch needs exactly d probes per request"
        );
        assert!(
            probes.iter().all(|&b| b < self.n),
            "probe out of range (n = {})",
            self.n
        );
        scratch.bins.clear();
        scratch.heights.clear();
        if rngs.is_empty() {
            return;
        }
        scratch.round.lock(self, probes);
        for (request, rng) in probes.chunks(d).zip(rngs.iter_mut()) {
            scratch.sorted.clear();
            scratch.sorted.extend_from_slice(request);
            sort_probes(&mut scratch.sorted);
            let max_height = self.serve_on_guards(scratch, k, rng);
            scratch.heights.push(max_height);
        }
        scratch.round.unlock();
    }

    /// Serves a release request: removes one ball from every bin in
    /// `bins` (with multiplicity), atomically with respect to concurrent
    /// requests. Shards are locked in the same canonical ascending order
    /// as [`ShardedStore::place_batch`].
    ///
    /// # Panics
    ///
    /// Panics if any bin is out of range or has no ball to remove.
    pub fn release(&self, bins: &[usize]) {
        self.release_into(bins, &mut BatchScratch::default());
    }

    /// [`ShardedStore::release`] through caller-owned scratch: reuses its
    /// lock-round buffers, so it allocates nothing once they have grown —
    /// the open-loop release path.
    ///
    /// # Panics
    ///
    /// As [`ShardedStore::release`].
    pub(crate) fn release_into<'s>(&'s self, bins: &[usize], scratch: &mut BatchScratch<'s>) {
        assert!(
            bins.iter().all(|&b| b < self.n),
            "release out of range (n = {})",
            self.n
        );
        let round = &mut scratch.round;
        round.lock(self, bins);
        for &bin in bins {
            round
                .slab_mut(self.shard_of(bin))
                .remove_ball(self.local_of(bin));
        }
        round.unlock();
    }

    /// Verifies every shard's internal invariants plus the merged-view
    /// bookkeeping: the merged histogram sums to `n` and agrees with the
    /// merged per-bin loads and ball total. The weighted-histogram ==
    /// ball-total identity only holds while every shard reports exact
    /// loads (exact slabs, or packed slabs still lossless). O(n); for
    /// tests.
    pub fn check_invariants(&self) -> bool {
        let mut shard_ok = true;
        let mut loads_exact = true;
        let mut histogram_total = 0u64;
        let mut balls_from_loads = 0u64;
        let mut loads = Vec::new();
        self.copy_loads_into(&mut loads);
        for shard in &self.shards {
            let guard = shard.lock().expect("no poisoned shard");
            shard_ok &= guard.check_invariants();
            loads_exact &= match &*guard {
                BinSlab::Exact(_) => true,
                BinSlab::Packed(p) => p.is_lossless(),
            };
        }
        let histogram = self.histogram();
        for (load, &count) in histogram.iter().enumerate() {
            histogram_total += count;
            balls_from_loads += count * load as u64;
        }
        let mut counted = vec![0u64; histogram.len()];
        for &l in &loads {
            counted[l as usize] += 1;
        }
        let balls_ok = if loads_exact {
            balls_from_loads == self.total_balls()
        } else {
            balls_from_loads >= self.total_balls()
        };
        shard_ok
            && loads.len() == self.n
            && histogram_total == self.n as u64
            && balls_ok
            && counted == histogram
    }
}

impl BinStore for ShardedStore {
    fn n(&self) -> usize {
        self.n
    }

    fn load(&self, bin: usize) -> u32 {
        assert!(bin < self.n, "bin {bin} out of range (n = {})", self.n);
        let local = self.local_of(bin);
        self.shards[self.shard_of(bin)]
            .lock()
            .expect("no poisoned shard")
            .load(local)
    }

    fn add_ball(&mut self, bin: usize) -> u32 {
        assert!(bin < self.n, "bin {bin} out of range (n = {})", self.n);
        let (shard, local) = (self.shard_of(bin), self.local_of(bin));
        self.shards[shard]
            .get_mut()
            .expect("no poisoned shard")
            .add_ball(local)
    }

    fn remove_ball(&mut self, bin: usize) -> u32 {
        assert!(bin < self.n, "bin {bin} out of range (n = {})", self.n);
        let (shard, local) = (self.shard_of(bin), self.local_of(bin));
        self.shards[shard]
            .get_mut()
            .expect("no poisoned shard")
            .remove_ball(local)
    }

    fn max_load(&self) -> u32 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("no poisoned shard").max_load())
            .max()
            .unwrap_or(0)
    }

    fn total_balls(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("no poisoned shard").total_balls())
            .sum()
    }

    fn nu(&self, y: u32) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("no poisoned shard").nu(y))
            .sum()
    }

    fn capacity(&self, bin: usize) -> u32 {
        assert!(bin < self.n, "bin {bin} out of range (n = {})", self.n);
        let local = self.local_of(bin);
        self.shards[self.shard_of(bin)]
            .lock()
            .expect("no poisoned shard")
            .capacity(local)
    }

    fn total_capacity(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("no poisoned shard").total_capacity())
            .sum()
    }

    fn max_utilization(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("no poisoned shard").max_utilization())
            .fold(0.0, f64::max)
    }

    fn copy_loads_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.n, 0);
        for (shard_id, shard) in self.shards.iter().enumerate() {
            let guard = shard.lock().expect("no poisoned shard");
            for local in 0..guard.n() {
                out[self.global_of(shard_id, local)] = guard.load(local);
            }
        }
    }

    fn histogram(&self) -> Vec<u64> {
        // Reserve once from the merged max load instead of growing the
        // vector shard by shard — at huge n the incremental resizes are
        // real allocation churn on the merge path.
        let mut merged = vec![0u64; self.max_load() as usize + 1];
        for shard in &self.shards {
            shard
                .lock()
                .expect("no poisoned shard")
                .accumulate_histogram(&mut merged);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_core::LoadVector;
    use kdchoice_prng::sample::UniformBin;
    use kdchoice_prng::Xoshiro256PlusPlus;

    /// Serves one request through [`ShardedStore::place_batch`], a batch
    /// of one.
    fn place_one(
        store: &ShardedStore,
        probes: &[usize],
        k: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Placement {
        let mut batch = store.place_batch(probes, probes.len(), k, std::slice::from_mut(rng));
        batch.pop().expect("one request, one placement")
    }

    #[test]
    fn shard_slots_live_on_their_own_cache_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<Mutex<BinSlab>>>(), 64);
        assert!(std::mem::size_of::<CachePadded<Mutex<BinSlab>>>() >= 64);
        // Vec elements are laid out at stride = size >= align, so no two
        // shard slots can share a 64-byte line.
        let store = ShardedStore::new(16, 4);
        let addrs: Vec<usize> = store
            .shards
            .iter()
            .map(|s| std::ptr::from_ref(s) as usize)
            .collect();
        for pair in addrs.windows(2) {
            assert!(pair[1] - pair[0] >= 64);
            assert_eq!(pair[0] % 64, 0);
        }
    }

    #[test]
    fn striping_covers_every_bin_exactly_once() {
        for (n, shards) in [(8, 4), (13, 4), (1, 1), (17, 8), (64, 64)] {
            let store = ShardedStore::new(n, shards);
            assert_eq!(store.n(), n);
            assert_eq!(store.shard_count(), shards);
            let sizes: usize = store.shards.iter().map(|s| s.lock().unwrap().n()).sum();
            assert_eq!(sizes, n, "n={n} shards={shards}");
            // global -> (shard, local) -> global round-trips.
            for bin in 0..n {
                assert_eq!(
                    store.global_of(store.shard_of(bin), store.local_of(bin)),
                    bin
                );
            }
            assert!(store.check_invariants());
        }
    }

    #[test]
    fn capacity_striping_matches_single_load_vector() {
        use kdchoice_core::two_tier_capacities;
        let n = 29;
        let caps = two_tier_capacities(n, 4, 10);
        let store = ShardedStore::with_capacities(n, 4, &caps);
        let mut reference = LoadVector::with_capacities(&caps);
        let mut rng = Xoshiro256PlusPlus::from_u64(17);
        for _ in 0..500 {
            let bin = rng.next_u64() as usize % n;
            place_one(&store, &[bin], 1, &mut rng);
            reference.add_ball(bin);
        }
        assert_eq!(store.total_capacity(), reference.total_capacity());
        for (bin, &cap) in caps.iter().enumerate() {
            assert_eq!(store.capacity(bin), cap, "bin {bin}");
            assert_eq!(store.load(bin), reference.load(bin), "bin {bin}");
        }
        assert!((store.max_utilization() - reference.max_utilization()).abs() < 1e-12);
        assert!((store.utilization_gap() - reference.utilization_gap()).abs() < 1e-12);
        assert!(store.check_invariants());
    }

    #[test]
    fn interleaved_fat_bins_balance_capacity_across_shards() {
        // two_tier_capacities puts fat bins at indices = 0 mod every;
        // modulo striping spreads them across shards when the stride and
        // shard count are coprime-ish; here every=3 over 4 shards.
        use kdchoice_core::two_tier_capacities;
        let n = 48;
        let caps = two_tier_capacities(n, 3, 10);
        let store = ShardedStore::with_capacities(n, 4, &caps);
        let per_shard: Vec<u64> = store
            .shards
            .iter()
            .map(|s| s.lock().unwrap().total_capacity())
            .collect();
        let (min, max) = (
            *per_shard.iter().min().unwrap(),
            *per_shard.iter().max().unwrap(),
        );
        assert_eq!(per_shard.iter().sum::<u64>(), store.total_capacity());
        assert!(
            max <= min + 9,
            "capacity skewed across shards: {per_shard:?}"
        );
    }

    #[test]
    #[should_panic(expected = "one capacity per bin")]
    fn capacity_length_mismatch_rejected() {
        let _ = ShardedStore::with_capacities(8, 2, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = ShardedStore::new(16, 3);
    }

    #[test]
    #[should_panic(expected = "shards <= n")]
    fn more_shards_than_bins_rejected() {
        let _ = ShardedStore::new(2, 4);
    }

    #[test]
    fn bin_store_surface_matches_mutations() {
        let mut store = ShardedStore::new(13, 4);
        assert_eq!(store.add_ball(5), 1);
        assert_eq!(store.add_ball(5), 2);
        assert_eq!(store.add_ball(12), 1);
        assert_eq!(store.load(5), 2);
        assert_eq!(store.max_load(), 2);
        assert_eq!(store.total_balls(), 3);
        assert_eq!(store.nu(1), 2);
        assert_eq!(store.nu(2), 1);
        assert_eq!(store.remove_ball(5), 2);
        assert_eq!(store.max_load(), 1);
        let mut loads = Vec::new();
        store.copy_loads_into(&mut loads);
        assert_eq!(loads[5], 1);
        assert_eq!(loads[12], 1);
        assert_eq!(loads.iter().map(|&l| u64::from(l)).sum::<u64>(), 2);
        assert!(store.check_invariants());
    }

    #[test]
    fn place_respects_multiplicity_and_prefers_cold_bins() {
        let store = ShardedStore::new(8, 2);
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        // Preload bin 0 heavily.
        for _ in 0..10 {
            place_one(&store, &[0], 1, &mut rng);
        }
        // Probes {0, 3, 3}: picking 2 must take both slots of bin 3
        // (heights 1, 2) over bin 0 (height 11).
        let p = place_one(&store, &[0, 3, 3], 2, &mut rng);
        let mut bins = p.bins.clone();
        bins.sort_unstable();
        assert_eq!(bins, vec![3, 3]);
        assert_eq!(p.max_height, 2);
        assert!(store.check_invariants());
    }

    #[test]
    fn release_undoes_place() {
        let store = ShardedStore::new(16, 4);
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        let mut placements = Vec::new();
        for _ in 0..50 {
            let probes: Vec<usize> = (0..4).map(|_| rng.next_u64() as usize % 16).collect();
            placements.push(place_one(&store, &probes, 2, &mut rng));
        }
        assert_eq!(store.total_balls(), 100);
        for p in &placements {
            store.release(&p.bins);
        }
        assert_eq!(store.total_balls(), 0);
        assert_eq!(store.max_load(), 0);
        assert!(store.check_invariants());
    }

    #[test]
    fn place_batch_matches_one_request_batches() {
        let (n, d, k) = (23, 4, 2);
        let batched = ShardedStore::new(n, 4);
        let sequential = ShardedStore::new(n, 4);
        let sampler = UniformBin::new(n);
        // Per-request RNG pairs with identical streams on both sides.
        for round in 0..12 {
            let count = 1 + round % 5;
            let mut rngs_a: Vec<_> = (0..count)
                .map(|i| Xoshiro256PlusPlus::from_u64(round * 100 + i))
                .collect();
            let mut rngs_b = rngs_a.clone();
            let probes: Vec<usize> = rngs_a
                .iter_mut()
                .flat_map(|rng| (0..d).map(|_| sampler.sample(rng)).collect::<Vec<_>>())
                .collect();
            for (i, rng) in rngs_b.iter_mut().enumerate() {
                let req: Vec<usize> = (0..d).map(|_| sampler.sample(rng)).collect();
                assert_eq!(req, probes[i * d..(i + 1) * d], "probe streams agree");
            }
            let batch = batched.place_batch(&probes, d, k, &mut rngs_a);
            for (i, rng) in rngs_b.iter_mut().enumerate() {
                let one = place_one(&sequential, &probes[i * d..(i + 1) * d], k, rng);
                assert_eq!(one, batch[i], "round {round} request {i}");
            }
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        batched.copy_loads_into(&mut a);
        sequential.copy_loads_into(&mut b);
        assert_eq!(a, b);
        assert!(batched.check_invariants());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let store = ShardedStore::new(8, 2);
        let mut rngs: Vec<Xoshiro256PlusPlus> = Vec::new();
        assert!(store.place_batch(&[], 3, 2, &mut rngs).is_empty());
        assert_eq!(store.total_balls(), 0);
    }

    #[test]
    #[should_panic(expected = "d probes per request")]
    fn place_batch_rejects_ragged_input() {
        let store = ShardedStore::new(8, 2);
        let mut rngs = vec![Xoshiro256PlusPlus::from_u64(1)];
        let _ = store.place_batch(&[1, 2, 3], 2, 1, &mut rngs);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn place_rejects_out_of_range_probe() {
        let store = ShardedStore::new(4, 2);
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let _ = place_one(&store, &[4], 1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one ball")]
    fn place_rejects_zero_k() {
        let store = ShardedStore::new(4, 2);
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        let _ = place_one(&store, &[1, 2], 0, &mut rng);
    }

    /// Packed shards serve the same placement stream bit-identically to
    /// exact shards while loads stay inside the 4-bit window — the
    /// striped-layer extension of the core equivalence proptests.
    #[test]
    fn packed_shards_match_exact_shards_below_saturation() {
        let n = 23;
        let exact = ShardedStore::new(n, 4);
        let packed = ShardedStore::with_kind(n, 4, StoreKind::Packed4);
        assert_eq!(exact.store_kind(), StoreKind::Exact);
        assert_eq!(packed.store_kind(), StoreKind::Packed4);
        let mut rng_a = Xoshiro256PlusPlus::from_u64(7);
        let mut rng_b = Xoshiro256PlusPlus::from_u64(7);
        for _ in 0..60 {
            let probes: Vec<usize> = (0..4).map(|_| rng_a.next_u64() as usize % n).collect();
            for _ in 0..4 {
                rng_b.next_u64();
            }
            let pa = place_one(&exact, &probes, 2, &mut rng_a);
            let pb = place_one(&packed, &probes, 2, &mut rng_b);
            assert_eq!(pa, pb);
        }
        assert_eq!(exact.histogram(), packed.histogram());
        assert_eq!(exact.max_load(), packed.max_load());
        assert!(packed.check_invariants());
    }

    /// Weighted probes proportional to two-tier capacities: placements
    /// and releases conserve balls on the heterogeneous store.
    #[test]
    fn weighted_probes_on_heterogeneous_shards_conserve() {
        use kdchoice_core::{two_tier_capacities, ProbeDistribution};
        let n = 32;
        let caps = two_tier_capacities(n, 4, 8);
        let store = ShardedStore::with_capacities(n, 4, &caps);
        let probes = ProbeDistribution::proportional_to(&caps).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(6);
        let placements: Vec<Placement> = (0..200)
            .map(|_| {
                let request: Vec<usize> = (0..4).map(|_| probes.sample(&mut rng, n)).collect();
                place_one(&store, &request, 2, &mut rng)
            })
            .collect();
        assert_eq!(store.total_balls(), 400);
        assert!(store.max_utilization() > 0.0);
        for p in &placements {
            store.release(&p.bins);
        }
        assert_eq!(store.total_balls(), 0);
        assert!(store.check_invariants());
    }

    /// The bin count of the lock-round tests.
    const ROUND_BINS: usize = 128;

    /// Shard counts the lock-round property runs over, one shard per bin
    /// last.
    const ROUND_SHARDS: [usize; 5] = [1, 2, 16, 64, ROUND_BINS];

    /// A store whose bin `b` holds `b` balls, so a load read through a
    /// guard names the bin it reached.
    fn store_loaded_with_bin_ids(n: usize, shards: usize) -> ShardedStore {
        let mut store = ShardedStore::new(n, shards);
        for bin in 0..n {
            for _ in 0..bin {
                store.add_ball(bin);
            }
        }
        store
    }

    /// Whether no shard is marked, held or locked.
    fn round_is_clear(store: &ShardedStore, round: &HeldShards<'_>) -> bool {
        round.guard_at.iter().all(|&pos| pos == NOT_HELD)
            && round.held.is_empty()
            && round.guards.is_empty()
            && store.shards.iter().all(|shard| shard.try_lock().is_ok())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// A lock round over random bins holds exactly the sorted,
        /// deduplicated shards of those bins (computed here the way the
        /// round once computed it: one shard id per bin, sorted, deduped),
        /// locks no other shard, reaches every bin through its own
        /// shard's guard, and leaves no entry behind once unlocked.
        #[test]
        fn lock_round_holds_exactly_the_probed_shards(
            shard_idx in 0..ROUND_SHARDS.len(),
            bins in proptest::collection::vec(0..ROUND_BINS, 1..300),
        ) {
            let shards = ROUND_SHARDS[shard_idx];
            let store = store_loaded_with_bin_ids(ROUND_BINS, shards);
            let mut round = HeldShards::default();
            round.lock(&store, &bins);
            let mut want: Vec<usize> = bins.iter().map(|&b| b % shards).collect();
            want.sort_unstable();
            want.dedup();
            proptest::prop_assert_eq!(&round.held, &want);
            proptest::prop_assert_eq!(round.guards.len(), want.len());
            for (shard, slot) in store.shards.iter().enumerate() {
                let held = want.binary_search(&shard).is_ok();
                proptest::prop_assert_eq!(slot.try_lock().is_err(), held, "shard {}", shard);
            }
            let view = GuardedLoads { store: &store, round: &round };
            for &bin in &bins {
                let pos = round.guard_at[bin % shards] as usize;
                proptest::prop_assert_eq!(round.held[pos], bin % shards);
                proptest::prop_assert_eq!(view.view_load(bin), bin as u32);
            }
            round.unlock();
            proptest::prop_assert!(round_is_clear(&store, &round));
        }
    }

    /// Two batches and then a release, each over its own shards, through
    /// one reused scratch: every round leaves the table clear, and the
    /// loads match the same operations run on fresh scratch each.
    #[test]
    fn lock_rounds_over_disjoint_shards_leave_no_stale_entry() {
        let (n, shards, d, k) = (64, 16, 4, 2);
        let mut store = ShardedStore::new(n, shards);
        let mut reference = ShardedStore::new(n, shards);
        // Shards 4..8 hold the balls the release removes.
        let preloaded = [4, 5, 6, 7, 20, 21];
        for &bin in &preloaded {
            store.add_ball(bin);
            reference.add_ball(bin);
        }
        let batches: [&[usize]; 2] = [
            &[0, 1, 2, 3, 16, 17, 18, 19],   // shards 0..4
            &[8, 9, 10, 11, 24, 25, 26, 27], // shards 8..12
        ];
        let mut scratch = BatchScratch::default();
        for (i, probes) in batches.into_iter().enumerate() {
            let seed = |r: u64| Xoshiro256PlusPlus::from_u64(10 * i as u64 + r);
            let mut rngs = [seed(0), seed(1)];
            store.place_batch_into(probes, d, k, &mut rngs, &mut scratch);
            assert!(round_is_clear(&store, &scratch.round), "batch {i}");
            let mut rngs = [seed(0), seed(1)];
            let want = reference.place_batch(probes, d, k, &mut rngs);
            let want: Vec<usize> = want.iter().flat_map(|p| p.bins.clone()).collect();
            assert_eq!(scratch.bins, want, "batch {i}");
        }
        store.release_into(&preloaded, &mut scratch);
        assert!(round_is_clear(&store, &scratch.round), "release");
        reference.release(&preloaded);
        // One last round over every shard reads no stale position.
        let every: Vec<usize> = (0..n).collect();
        let mut rngs: Vec<_> = (0..n / d)
            .map(|r| Xoshiro256PlusPlus::from_u64(99 + r as u64))
            .collect();
        store.place_batch_into(&every, d, k, &mut rngs.clone(), &mut scratch);
        assert!(round_is_clear(&store, &scratch.round), "full round");
        reference.place_batch(&every, d, k, &mut rngs);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        store.copy_loads_into(&mut a);
        reference.copy_loads_into(&mut b);
        assert_eq!(a, b);
        assert!(store.check_invariants());
    }

    #[test]
    fn packed_capacity_striping_keeps_exact_side_observables() {
        use kdchoice_core::two_tier_capacities;
        let n = 29;
        let caps = two_tier_capacities(n, 4, 10);
        let store = ShardedStore::with_kind_capacities(n, 4, &caps, StoreKind::Packed4);
        let mut rng = Xoshiro256PlusPlus::from_u64(17);
        for _ in 0..200 {
            let bin = rng.next_u64() as usize % n;
            place_one(&store, &[bin], 1, &mut rng);
        }
        assert_eq!(
            store.total_capacity(),
            caps.iter().map(|&c| u64::from(c)).sum::<u64>()
        );
        assert!(store.max_utilization() > 0.0);
        assert!(store.check_invariants());
    }
}
