//! Relaxed-read load views and the shared (k,d)-choice decision kernel.
//!
//! The shared-nothing service backend (`kdchoice-service`) decides
//! placements against **stale** per-bin load information: each shard's
//! owner thread periodically publishes its loads into a
//! [`SharedLoadSnapshot`], and probing threads read those counters with
//! `Relaxed` atomics instead of taking cross-shard locks. That is
//! exactly the regime the 1-2-3-Toolkit line of work analyzes (choices
//! acting on outdated load values), and Park's Theorem 2 envelope is the
//! yardstick the staleness sweep asserts against.
//!
//! [`LoadView`] names the one capability the decision step needs — "what
//! is bin `b`'s load, as far as you know?" — so the same kernel,
//! [`decide_k_least`], serves both the exact path (a [`LoadVector`]
//! behind a lock) and the relaxed path (a snapshot refreshed every `R`
//! commits). The lock-striped `ShardedStore::place_batch` decides
//! through it too, over a view of the shard guards it holds, so with an
//! exact view every backend makes the same decision on the same stream.
//! The cross-backend equivalence proptests in `kdchoice-service` lock
//! that claim against a single-thread oracle with a reference kernel of
//! its own.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

use rand::RngCore;

use crate::kernel::{decide_small, expand_slots, height_slot, select_k_least};
use crate::state::LoadVector;

/// Issues a best-effort read prefetch for the cache line holding `*ptr`.
///
/// A pure performance hint: on x86_64 it lowers to `prefetcht0`, which
/// has no memory-safety obligations (the address need not even be
/// mapped); on other targets it is a no-op. With [`advise_huge_pages`]
/// it is one of the crate's two `unsafe` carve-outs — the pointer is
/// always derived from a live reference at the call sites.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it cannot fault or write.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// Hints that `*value` is about to be read: the safe face of the
/// crate's prefetch intrinsic, for crates that forbid `unsafe` code.
/// Purely advisory, never observable in results.
#[inline(always)]
pub fn prefetch_line<T>(value: &T) {
    prefetch_read(value);
}

/// The transparent huge page size [`advise_huge_pages`] aligns to: 2 MiB,
/// the PMD-level page on x86_64 and aarch64 with 4 KiB base pages.
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// The whole huge pages inside the `bytes` bytes from address `addr`:
/// the start rounded up and the end rounded down to a
/// [`HUGE_PAGE_BYTES`] boundary, or `None` when no whole huge page fits.
pub(crate) fn huge_page_interior(addr: usize, bytes: usize) -> Option<Range<usize>> {
    let mask = HUGE_PAGE_BYTES - 1;
    let start = addr.checked_add(mask)? & !mask;
    let end = addr.checked_add(bytes)? & !mask;
    (start < end).then_some(start..end)
}

/// Advises the kernel to back `table` with transparent huge pages, so
/// probes that land at random across a large table walk fewer page
/// tables and miss the TLB less often.
///
/// Only the 2 MiB-aligned interior is advised (`madvise(MADV_HUGEPAGE)`
/// on Linux; nothing elsewhere, or when no whole huge page fits). It
/// takes effect on pages not yet touched, and only where the kernel's
/// THP mode is `madvise` (`always` backs them anyway, `never` not at
/// all). The call is advice: its result is ignored, since on failure
/// the table keeps its base pages and every value in it is the same.
#[allow(unsafe_code)]
pub(crate) fn advise_huge_pages<T>(table: &[T]) {
    let Some(range) = huge_page_interior(table.as_ptr() as usize, std::mem::size_of_val(table))
    else {
        return;
    };
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        // SAFETY: `range` lies inside `table`, which stays borrowed (so
        // mapped) for the call. `MADV_HUGEPAGE` changes neither the
        // contents nor the protection of any page, only how the kernel
        // backs the range; it may split the mapping, which no Rust code
        // can observe.
        unsafe {
            madvise(range.start as *mut c_void, range.len(), MADV_HUGEPAGE);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = range;
}

/// A read-only view of per-bin loads, possibly stale.
///
/// Implementations promise only that `view_load(bin)` is *some*
/// previously published load of `bin` — an exact view ([`LoadVector`])
/// returns the current load, a [`SharedLoadSnapshot`] returns the load
/// as of the owner's last refresh.
pub trait LoadView {
    /// The number of bins visible through this view.
    fn view_n(&self) -> usize;

    /// The (possibly stale) load of `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= view_n()`.
    fn view_load(&self, bin: usize) -> u32;

    /// Hints that `view_load(bin)` is about to be read. Implementations
    /// with a dense backing array prefetch the bin's cache line; the
    /// default is a no-op. Purely advisory — never observable in
    /// results.
    #[inline]
    fn prefetch(&self, bin: usize) {
        let _ = bin;
    }
}

impl LoadView for LoadVector {
    #[inline]
    fn view_n(&self) -> usize {
        self.n()
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.load(bin)
    }

    #[inline]
    fn prefetch(&self, bin: usize) {
        prefetch_read(&self.loads()[bin]);
    }
}

/// A lock-free array of published per-bin loads.
///
/// One `AtomicU32` per bin, read and written with `Relaxed` ordering:
/// the snapshot carries no synchronization obligations of its own — each
/// counter is an independent monotonically-published value, and the
/// decision kernel tolerates any interleaving of per-bin staleness (that
/// tolerance is the *measured* claim of the staleness-vs-gap sweep, not
/// an assumption).
///
/// Writers are the shard owners (each bin has exactly one writer in the
/// shared-nothing engine); readers are every probing thread.
#[derive(Debug)]
pub struct SharedLoadSnapshot {
    loads: Vec<AtomicU32>,
}

impl SharedLoadSnapshot {
    /// Creates an all-zero snapshot over `n` bins.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "snapshot needs at least one bin");
        Self {
            loads: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// The number of bins.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// Whether the snapshot has zero bins (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Reads the published load of `bin` (`Relaxed`).
    #[inline]
    pub fn get(&self, bin: usize) -> u32 {
        self.loads[bin].load(Ordering::Relaxed)
    }

    /// Publishes `load` as the load of `bin` (`Relaxed`). Only the bin's
    /// owner may call this in the shared-nothing engine.
    #[inline]
    pub fn set(&self, bin: usize, load: u32) {
        self.loads[bin].store(load, Ordering::Relaxed);
    }

    /// Atomically replaces `bin`'s load with `new` iff it still equals
    /// `current` (`AcqRel` on success, `Acquire` on failure).
    ///
    /// This is the commit point of the lock-free CAS-bins backend: a
    /// placement that read `current` during its decide phase commits by
    /// swapping in `current + multiplicity`, and a failure returns the
    /// interfering value (inside `Err`) so the caller can re-probe. The
    /// success ordering is `AcqRel` so a thread that later observes the
    /// new count also observes everything the committer did before it.
    #[inline]
    pub fn compare_exchange(&self, bin: usize, current: u32, new: u32) -> Result<u32, u32> {
        self.loads[bin].compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomically adds `delta` to `bin`'s load (`AcqRel`), returning the
    /// previous value. The lock-free backend's bounded-retry fallback:
    /// after too many lost races it commits unconditionally at whatever
    /// the current count is.
    #[inline]
    pub fn fetch_add(&self, bin: usize, delta: u32) -> u32 {
        self.loads[bin].fetch_add(delta, Ordering::AcqRel)
    }

    /// Atomically subtracts `delta` from `bin`'s load (`AcqRel`),
    /// returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if the previous value was less than `delta` — a counter
    /// must never go negative, so an underflow here means a double
    /// release or a rollback of balls that were never committed, and it
    /// is reported instead of silently wrapping.
    #[inline]
    pub fn fetch_sub(&self, bin: usize, delta: u32) -> u32 {
        let prev = self.loads[bin].fetch_sub(delta, Ordering::AcqRel);
        assert!(
            prev >= delta,
            "bin {bin} load underflow: subtracted {delta} from {prev}"
        );
        prev
    }
}

impl LoadView for SharedLoadSnapshot {
    #[inline]
    fn view_n(&self) -> usize {
        self.len()
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.get(bin)
    }

    #[inline]
    fn prefetch(&self, bin: usize) {
        prefetch_read(&self.loads[bin]);
    }
}

/// The [`LoadView`] instance of the decision kernel: expands
/// `sorted_probes` (ascending; sort them with [`crate::sort_probes`], which
/// runs a branchless network up to 16 probes) at heights
/// `view_load(bin) + occ`, keeps
/// the `k` least ([`select_k_least`]), and appends the winner bins to
/// `bins_out` in winner order. Every probed bin is prefetched first;
/// that draws nothing. Returns the winners' maximum tentative height.
/// `slots` is caller-provided scratch.
///
/// With `d = sorted_probes.len() <= 16` the decision runs a const-D path
/// that packs each slot into one `u128` key and sorts the keys with a
/// branchless network (a min scan when `k == 1`, nothing when `k == d`);
/// longer probe sets run [`expand_slots`] and [`select_k_least`]. Both
/// read each distinct bin's load once and draw one `next_u64` tie key
/// per slot in sorted-probe order, and both give the winner order
/// [`select_k_least`] documents: the least slot when `k == 1`, ascending
/// `(height, tie)` when `1 < k < d <= 16`, expansion order when `k == d`.
/// Either way the winners are left in `slots[..k]` as
/// `(height, tie, bin)`.
///
/// # Panics
///
/// Panics unless `1 <= k <= sorted_probes.len()`. Debug builds also
/// panic on unsorted probes: a repeated bin must be a run of adjacent
/// probes for the multiplicity rule to see it.
pub fn decide_k_least<V, R>(
    view: &V,
    sorted_probes: &[usize],
    k: usize,
    rng: &mut R,
    slots: &mut Vec<(u32, u64, usize)>,
    bins_out: &mut Vec<usize>,
) -> u32
where
    V: LoadView + ?Sized,
    R: RngCore + ?Sized,
{
    debug_assert!(
        sorted_probes.is_sorted(),
        "probes must be sorted ascending (sort_probes)"
    );
    for &bin in sorted_probes {
        view.prefetch(bin);
    }
    let base = |bin| view.view_load(bin);
    let (p, out) = (sorted_probes, bins_out);
    match sorted_probes.len() {
        1 => decide_small::<1, R>(p, k, rng, slots, out, base),
        2 => decide_small::<2, R>(p, k, rng, slots, out, base),
        3 => decide_small::<3, R>(p, k, rng, slots, out, base),
        4 => decide_small::<4, R>(p, k, rng, slots, out, base),
        5 => decide_small::<5, R>(p, k, rng, slots, out, base),
        6 => decide_small::<6, R>(p, k, rng, slots, out, base),
        7 => decide_small::<7, R>(p, k, rng, slots, out, base),
        8 => decide_small::<8, R>(p, k, rng, slots, out, base),
        9 => decide_small::<9, R>(p, k, rng, slots, out, base),
        10 => decide_small::<10, R>(p, k, rng, slots, out, base),
        11 => decide_small::<11, R>(p, k, rng, slots, out, base),
        12 => decide_small::<12, R>(p, k, rng, slots, out, base),
        13 => decide_small::<13, R>(p, k, rng, slots, out, base),
        14 => decide_small::<14, R>(p, k, rng, slots, out, base),
        15 => decide_small::<15, R>(p, k, rng, slots, out, base),
        16 => decide_small::<16, R>(p, k, rng, slots, out, base),
        _ => {
            expand_slots(p, rng, slots, base, height_slot);
            let mut max_height = 0;
            for &(height, _, bin) in select_k_least(slots, k).iter() {
                max_height = max_height.max(height);
                out.push(bin);
            }
            max_height
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::Xoshiro256PlusPlus;

    #[test]
    fn snapshot_reads_back_published_loads() {
        let snapshot = SharedLoadSnapshot::new(8);
        assert_eq!(snapshot.len(), 8);
        assert!(!snapshot.is_empty());
        for bin in 0..8 {
            assert_eq!(snapshot.get(bin), 0);
        }
        snapshot.set(3, 7);
        snapshot.set(0, 2);
        assert_eq!(snapshot.get(3), 7);
        assert_eq!(snapshot.get(0), 2);
        assert_eq!(snapshot.view_load(3), 7);
        assert_eq!(snapshot.view_n(), 8);
    }

    /// The kernel against an exact `LoadVector` view consumes the RNG
    /// and picks winners exactly like the reference expansion used by
    /// the service-layer equivalence tests.
    #[test]
    fn kernel_matches_reference_expansion_on_exact_view() {
        let mut state = LoadVector::new(6);
        state.add_ball(2);
        state.add_ball(2);
        state.add_ball(4);

        let probes = {
            let mut p = vec![4, 2, 2, 0, 5];
            p.sort_unstable();
            p
        };
        let (mut slots, mut bins) = (Vec::new(), Vec::new());
        let mut rng = Xoshiro256PlusPlus::from_u64(9);
        let max = decide_k_least(&state, &probes, 2, &mut rng, &mut slots, &mut bins);

        // Reference: expand tentative slots with an identically-seeded RNG.
        let mut rng_ref = Xoshiro256PlusPlus::from_u64(9);
        let mut expected: Vec<(u32, u64, usize)> = Vec::new();
        let mut i = 0;
        while i < probes.len() {
            let bin = probes[i];
            let base = state.load(bin);
            let mut occ = 0;
            while i < probes.len() && probes[i] == bin {
                occ += 1;
                expected.push((base + occ, rng_ref.next_u64(), bin));
                i += 1;
            }
        }
        expected.select_nth_unstable_by(1, |a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let expected_bins: Vec<usize> = expected[..2].iter().map(|s| s.2).collect();
        let expected_max = expected[..2].iter().map(|s| s.0).max().unwrap();
        assert_eq!(bins, expected_bins);
        assert_eq!(max, expected_max);
    }

    /// A stale view changes the decision, not the mechanics: winners
    /// still come from the probed set and heights reflect the snapshot.
    #[test]
    fn kernel_decides_from_the_stale_view_not_the_truth() {
        let snapshot = SharedLoadSnapshot::new(4);
        // Truth would say bin 0 is overloaded, but the snapshot is stale
        // and still calls it empty — the kernel must pick bin 0 over a
        // bin the snapshot reports as loaded.
        snapshot.set(1, 5);
        let probes = vec![0, 1];
        let (mut slots, mut bins) = (Vec::new(), Vec::new());
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let max = decide_k_least(&snapshot, &probes, 1, &mut rng, &mut slots, &mut bins);
        assert_eq!(bins, vec![0]);
        assert_eq!(max, 1);
    }

    #[test]
    #[should_panic(expected = "1 <= k <= d")]
    fn kernel_rejects_k_larger_than_d() {
        let state = LoadVector::new(2);
        let mut rng = Xoshiro256PlusPlus::from_u64(0);
        decide_k_least(&state, &[0], 2, &mut rng, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn compare_exchange_commits_only_on_the_expected_value() {
        let snapshot = SharedLoadSnapshot::new(2);
        snapshot.set(0, 3);
        assert_eq!(snapshot.compare_exchange(0, 3, 5), Ok(3));
        assert_eq!(snapshot.get(0), 5);
        // A stale expectation loses the race and reports the interferer.
        assert_eq!(snapshot.compare_exchange(0, 3, 9), Err(5));
        assert_eq!(snapshot.get(0), 5);
    }

    #[test]
    fn fetch_add_and_sub_return_previous_values() {
        let snapshot = SharedLoadSnapshot::new(1);
        assert_eq!(snapshot.fetch_add(0, 4), 0);
        assert_eq!(snapshot.fetch_sub(0, 3), 4);
        assert_eq!(snapshot.get(0), 1);
    }

    const MIB: usize = 1 << 20;

    #[test]
    fn huge_page_interior_of_a_short_region_is_empty() {
        assert_eq!(huge_page_interior(4 * MIB, 2 * MIB - 1), None);
        assert_eq!(huge_page_interior(4 * MIB + 4096, 2 * MIB), None);
        assert_eq!(huge_page_interior(4 * MIB, 0), None);
    }

    #[test]
    fn huge_page_interior_rounds_an_unaligned_start_up() {
        assert_eq!(
            huge_page_interior(4 * MIB + 16, 6 * MIB),
            Some(6 * MIB..10 * MIB)
        );
    }

    #[test]
    fn huge_page_interior_rounds_an_unaligned_end_down() {
        assert_eq!(huge_page_interior(4 * MIB, 5 * MIB), Some(4 * MIB..8 * MIB));
    }

    #[test]
    fn huge_page_interior_of_an_aligned_region_is_the_region() {
        assert_eq!(
            huge_page_interior(8 * MIB, 8 * MIB),
            Some(8 * MIB..16 * MIB)
        );
    }

    #[test]
    fn huge_page_interior_near_the_top_of_the_address_space_is_empty() {
        assert_eq!(huge_page_interior(usize::MAX - MIB, MIB), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn fetch_sub_panics_on_underflow() {
        let snapshot = SharedLoadSnapshot::new(1);
        snapshot.set(0, 1);
        snapshot.fetch_sub(0, 2);
    }
}
