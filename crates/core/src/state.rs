//! The bin-state substrate: load vector with histogram-backed queries.

use rand::{Rng, RngCore};

use crate::driver::FillTable;

/// One capacity class of a heterogeneous bin set: all bins sharing one
/// capacity value, with their own count-by-load histogram and max load —
/// the structure that keeps capacity-normalized observables cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CapacityClass {
    /// The shared capacity `c` of every bin in this class.
    capacity: u32,
    /// `count_by_load[l]` = bins of this class with load exactly `l`
    /// (same shape and truncation discipline as the global histogram).
    count_by_load: Vec<u64>,
    /// The maximum load within the class.
    max_load: u32,
}

/// The heterogeneous extension of [`LoadVector`]: per-bin capacities plus
/// per-capacity-class histograms. Boxed and optional so the homogeneous
/// case (the paper's model) pays nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Hetero {
    /// `capacity[bin]` = the bin's capacity `c_bin ≥ 1`.
    capacity: Vec<u32>,
    /// `Σ capacity` — the denominator of the average utilization.
    total_capacity: u64,
    /// `class_of[bin]` = index into `classes`.
    class_of: Vec<u32>,
    /// One entry per distinct capacity value, ascending by capacity.
    classes: Vec<CapacityClass>,
}

/// The state of `n` bins: per-bin loads plus a count-by-load histogram that
/// makes the paper's observables cheap:
///
/// * maximum load — O(1);
/// * `ν_y` (number of bins with load ≥ y, the quantity driven through the
///   layered induction of Theorems 4 and 7) — O(max load);
/// * the *rank* of a bin in the sorted order with random tie-breaking —
///   O(max load), needed by the SA_{x0} process of Definition 3.
///
/// The sorted order itself ("bin x = x-th most loaded") is never maintained
/// explicitly; every query that the paper phrases on the sorted vector is
/// answered from the histogram.
///
/// ## Heterogeneous capacities
///
/// [`LoadVector::with_capacities`] attaches a per-bin capacity `c_bin ≥ 1`
/// — the unequal-servers setting of the §1.3 applications. Bins are
/// grouped into **capacity classes** (one per distinct capacity value),
/// each maintaining its own count-by-load histogram and max load with the
/// same O(1)-per-mutation bookkeeping as the global caches, so the
/// normalized observables are cheap too:
///
/// * [`LoadVector::utilization`] — `load_bin / c_bin`;
/// * [`LoadVector::max_utilization`] — `max_bin load_bin / c_bin`, read in
///   O(#distinct capacities) (a handful in any realistic spread);
/// * [`LoadVector::utilization_gap`] — `max utilization − total_balls /
///   total_capacity`, the capacity-normalized analogue of [`LoadVector::gap`]
///   (and equal to it when every capacity is 1).
///
/// Capacities of all 1 construct the exact homogeneous representation, so
/// `with_capacities(&[1; n])` is bit-identical to `new(n)`; the add/remove
/// round-trip identity holds in every case (class histograms truncate
/// empty top levels exactly like the global one).
///
/// ```
/// use kdchoice_core::LoadVector;
///
/// let mut state = LoadVector::new(4);
/// assert_eq!(state.add_ball(2), 1); // returns the ball's height
/// assert_eq!(state.add_ball(2), 2);
/// assert_eq!(state.max_load(), 2);
/// assert_eq!(state.nu(1), 1); // one bin with >= 1 ball... (bin 2 has 2)
/// assert_eq!(state.nu(2), 1);
/// assert_eq!(state.nu(3), 0);
/// assert_eq!(state.total_balls(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadVector {
    loads: Vec<u32>,
    /// `count_by_load[l]` = number of bins with load exactly `l`.
    count_by_load: Vec<u64>,
    max_load: u32,
    total_balls: u64,
    /// Cached `ν_1` (bins with load ≥ 1). The layered-induction
    /// observables hammer `nu(y)` for tiny `y`; keeping the two leading
    /// suffix counts incrementally makes those queries O(1) instead of a
    /// histogram scan.
    nu1: u64,
    /// Cached `ν_2` (bins with load ≥ 2).
    nu2: u64,
    /// Per-bin capacities and capacity-class histograms; `None` for the
    /// homogeneous (all capacities 1) case, which pays nothing.
    hetero: Option<Box<Hetero>>,
}

impl LoadVector {
    /// Creates `n` empty bins.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one bin");
        Self {
            loads: vec![0; n],
            count_by_load: vec![n as u64],
            max_load: 0,
            total_balls: 0,
            nu1: 0,
            nu2: 0,
            hetero: None,
        }
    }

    /// Creates empty bins with the given per-bin capacities — the
    /// heterogeneous-cluster setting (unequal servers, §1.3).
    ///
    /// All capacities 1 is detected and constructs the exact homogeneous
    /// representation (bit-identical to [`LoadVector::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or any capacity is 0.
    pub fn with_capacities(capacities: &[u32]) -> Self {
        assert!(!capacities.is_empty(), "need at least one bin");
        assert!(
            capacities.iter().all(|&c| c > 0),
            "every bin needs capacity >= 1"
        );
        let mut state = Self::new(capacities.len());
        if capacities.iter().all(|&c| c == 1) {
            return state;
        }
        // One class per distinct capacity value, ascending.
        let mut distinct: Vec<u32> = capacities.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut classes: Vec<CapacityClass> = distinct
            .iter()
            .map(|&capacity| CapacityClass {
                capacity,
                count_by_load: vec![0],
                max_load: 0,
            })
            .collect();
        let class_of: Vec<u32> = capacities
            .iter()
            .map(|c| {
                let idx = distinct.binary_search(c).expect("capacity is distinct");
                classes[idx].count_by_load[0] += 1;
                idx as u32
            })
            .collect();
        state.hetero = Some(Box::new(Hetero {
            capacity: capacities.to_vec(),
            total_capacity: capacities.iter().map(|&c| u64::from(c)).sum(),
            class_of,
            classes,
        }));
        state
    }

    /// The number of bins.
    #[inline]
    pub fn n(&self) -> usize {
        self.loads.len()
    }

    /// The load of bin `bin` (0-based *index*, not rank).
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`.
    #[inline]
    pub fn load(&self, bin: usize) -> u32 {
        self.loads[bin]
    }

    /// Places one ball into bin `bin` and returns the ball's **height**
    /// (the bin's load immediately after placement, as in §2.1).
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`.
    #[inline]
    pub fn add_ball(&mut self, bin: usize) -> u32 {
        let old = self.loads[bin];
        let new = old + 1;
        self.loads[bin] = new;
        self.count_by_load[old as usize] -= 1;
        if new as usize >= self.count_by_load.len() {
            self.count_by_load.push(0);
        }
        self.count_by_load[new as usize] += 1;
        if new > self.max_load {
            self.max_load = new;
        }
        self.total_balls += 1;
        // Keep the ν_1/ν_2 suffix counts current (branchless increments).
        self.nu1 += u64::from(new == 1);
        self.nu2 += u64::from(new == 2);
        if let Some(h) = &mut self.hetero {
            let class = &mut h.classes[h.class_of[bin] as usize];
            class.count_by_load[old as usize] -= 1;
            if new as usize >= class.count_by_load.len() {
                class.count_by_load.push(0);
            }
            class.count_by_load[new as usize] += 1;
            if new > class.max_load {
                class.max_load = new;
            }
        }
        new
    }

    /// Removes one ball from bin `bin` and returns the removed ball's
    /// **height** (the bin's load immediately before removal).
    ///
    /// This is the departure primitive of the §7 infinite/dynamic process
    /// and of the service layer's release requests; all cached observables
    /// (`count_by_load`, `max_load`, `ν_1`, `ν_2`, `total_balls`) are
    /// maintained in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n` or the bin is empty.
    #[inline]
    pub fn remove_ball(&mut self, bin: usize) -> u32 {
        let old = self.loads[bin];
        assert!(old > 0, "cannot remove a ball from empty bin {bin}");
        let new = old - 1;
        self.loads[bin] = new;
        self.count_by_load[old as usize] -= 1;
        self.count_by_load[new as usize] += 1;
        self.total_balls -= 1;
        // If the last bin at the maximum emptied a level, the new maximum
        // is exactly `old - 1`: every other bin was ≤ old, the ones at
        // `old` are gone, and this bin now sits at `old - 1`.
        if old == self.max_load && self.count_by_load[old as usize] == 0 {
            self.max_load = new;
            // Drop the now-empty top level so that add-then-remove is a
            // bit-exact identity (the shape equality the 1-shard/-
            // `LoadVector` equivalence tests rely on).
            self.count_by_load.truncate(old as usize);
        }
        self.nu1 -= u64::from(old == 1);
        self.nu2 -= u64::from(old == 2);
        if let Some(h) = &mut self.hetero {
            let class = &mut h.classes[h.class_of[bin] as usize];
            class.count_by_load[old as usize] -= 1;
            class.count_by_load[new as usize] += 1;
            // Same top-level discipline as the global histogram: truncate
            // the emptied level so add-then-remove round-trips bit-exactly.
            if old == class.max_load && class.count_by_load[old as usize] == 0 {
                class.max_load = new;
                class.count_by_load.truncate(old as usize);
            }
        }
        old
    }

    /// The current maximum load.
    #[inline]
    pub fn max_load(&self) -> u32 {
        self.max_load
    }

    /// The total number of balls placed so far.
    #[inline]
    pub fn total_balls(&self) -> u64 {
        self.total_balls
    }

    /// The average load `total_balls / n`.
    pub fn average_load(&self) -> f64 {
        self.total_balls as f64 / self.n() as f64
    }

    /// The gap `max load − average load`, the quantity bounded by the
    /// heavily-loaded-case results (Theorem 2).
    pub fn gap(&self) -> f64 {
        self.max_load as f64 - self.average_load()
    }

    /// The capacity of `bin` (1 for homogeneous state).
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`.
    #[inline]
    pub fn capacity(&self, bin: usize) -> u32 {
        assert!(bin < self.loads.len(), "bin {bin} out of range");
        self.hetero.as_ref().map_or(1, |h| h.capacity[bin])
    }

    /// The total capacity `Σ c_bin` (`n` for homogeneous state).
    #[inline]
    pub fn total_capacity(&self) -> u64 {
        self.hetero
            .as_ref()
            .map_or(self.loads.len() as u64, |h| h.total_capacity)
    }

    /// Whether any bin has capacity ≠ 1.
    #[inline]
    pub fn is_heterogeneous(&self) -> bool {
        self.hetero.is_some()
    }

    /// The per-bin capacities, or `None` for homogeneous state.
    pub fn capacities(&self) -> Option<&[u32]> {
        self.hetero.as_ref().map(|h| h.capacity.as_slice())
    }

    /// The **normalized load** (utilization) of `bin`: `load_bin / c_bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`.
    #[inline]
    pub fn utilization(&self, bin: usize) -> f64 {
        f64::from(self.loads[bin]) / f64::from(self.capacity(bin))
    }

    /// The maximum utilization `max_bin load_bin / c_bin` — the
    /// heterogeneous analogue of [`LoadVector::max_load`].
    ///
    /// Answered from the per-capacity-class max loads: O(#distinct
    /// capacities) per query, O(1) maintenance per mutation. Equals
    /// `max_load` when every capacity is 1.
    pub fn max_utilization(&self) -> f64 {
        match &self.hetero {
            None => f64::from(self.max_load),
            Some(h) => h
                .classes
                .iter()
                .map(|c| f64::from(c.max_load) / f64::from(c.capacity))
                .fold(0.0, f64::max),
        }
    }

    /// The average utilization `total_balls / total_capacity`.
    pub fn average_utilization(&self) -> f64 {
        self.total_balls as f64 / self.total_capacity() as f64
    }

    /// The **capacity-normalized gap** `max utilization − average
    /// utilization` — the heterogeneous analogue of [`LoadVector::gap`]
    /// (equal to it when every capacity is 1), and the balance statistic
    /// the `hetero` scenario reports.
    pub fn utilization_gap(&self) -> f64 {
        self.max_utilization() - self.average_utilization()
    }

    /// The resident bytes of the per-bin tables: the 4-byte load array,
    /// plus (for heterogeneous state) the 4-byte capacity and 4-byte
    /// class-index tables — 4 B/bin homogeneous, 12 B/bin heterogeneous.
    /// The histograms are O(max load + #classes), not O(n), and excluded.
    /// This is the number the `gap_vs_bytes` memory accounting charges
    /// for an exact store or side-table.
    pub fn store_bytes(&self) -> u64 {
        let loads = self.loads.len() as u64 * 4;
        match &self.hetero {
            None => loads,
            // capacity: Vec<u32> + class_of: Vec<u32> on top of loads.
            Some(_) => loads * 3,
        }
    }

    /// `ν_y`: the number of bins with load at least `y`.
    ///
    /// `y ≤ 2` — the values driven through the layered induction of
    /// Theorems 4 and 7 — is answered from cached counters in O(1); larger
    /// `y` falls back to the histogram suffix sum.
    #[inline]
    pub fn nu(&self, y: u32) -> u64 {
        match y {
            0 => self.loads.len() as u64,
            1 => self.nu1,
            2 => self.nu2,
            _ => {
                let from = (y as usize).min(self.count_by_load.len());
                self.count_by_load[from..].iter().sum()
            }
        }
    }

    /// The count-by-load histogram, indexed by load value. Entry `l` is the
    /// number of bins holding exactly `l` balls. Trailing entries may be 0.
    pub fn load_histogram(&self) -> &[u64] {
        &self.count_by_load
    }

    /// A borrowed view of per-bin loads (by bin index).
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// The loads sorted in descending order — the paper's sorted load vector
    /// `(B₁, B₂, …, Bₙ)` with `B₁` the most loaded.
    pub fn sorted_descending(&self) -> Vec<u32> {
        let mut v = self.loads.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// The **rank** of `bin` in the descending sorted order (1-based: the
    /// most loaded bin has rank 1), with ties broken uniformly at random —
    /// exactly the "bin x" convention of §2.1. Needed by the SA_{x0} process
    /// (Definition 3), which discards balls landing in the top `x₀` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`.
    #[inline]
    pub fn rank_of<R: RngCore + ?Sized>(&self, bin: usize, rng: &mut R) -> usize {
        let l = self.loads[bin];
        // Bins with a strictly greater load all rank above `bin`.
        let greater: u64 = self.count_by_load[(l as usize + 1)..].iter().sum();
        let ties = self.count_by_load[l as usize];
        debug_assert!(ties >= 1);
        let offset = if ties == 1 { 0 } else { rng.gen_range(0..ties) };
        greater as usize + 1 + offset as usize
    }

    /// Verifies the internal invariants (histogram consistency, max load,
    /// ball conservation). Intended for tests and debug assertions; O(n).
    pub fn check_invariants(&self) -> bool {
        let n = self.loads.len();
        let mut hist = vec![0u64; self.count_by_load.len()];
        let mut total = 0u64;
        let mut max = 0u32;
        for &l in &self.loads {
            if (l as usize) >= hist.len() {
                return false;
            }
            hist[l as usize] += 1;
            total += u64::from(l);
            max = max.max(l);
        }
        let ge1: u64 = hist[1..].iter().sum();
        let ge2: u64 = hist.get(2..).map(|t| t.iter().sum()).unwrap_or(0);
        let hetero_ok = match &self.hetero {
            None => true,
            Some(h) => {
                let mut ok = h.capacity.len() == n
                    && h.class_of.len() == n
                    && h.total_capacity == h.capacity.iter().map(|&c| u64::from(c)).sum::<u64>();
                for (idx, class) in h.classes.iter().enumerate() {
                    let mut class_hist = vec![0u64; class.count_by_load.len()];
                    let mut class_max = 0u32;
                    for bin in 0..n {
                        if h.class_of[bin] as usize != idx {
                            continue;
                        }
                        ok &= h.capacity[bin] == class.capacity;
                        let l = self.loads[bin] as usize;
                        if l >= class_hist.len() {
                            ok = false;
                            continue;
                        }
                        class_hist[l] += 1;
                        class_max = class_max.max(self.loads[bin]);
                    }
                    ok &= class_hist == class.count_by_load && class_max == class.max_load;
                }
                ok
            }
        };
        hist == self.count_by_load
            && total == self.total_balls
            && max == self.max_load
            && self.count_by_load.iter().sum::<u64>() == n as u64
            && ge1 == self.nu1
            && ge2 == self.nu2
            && hetero_ok
    }
}

impl FillTable for LoadVector {
    fn table_bytes(&self) -> u64 {
        self.store_bytes()
    }

    fn advise_huge_pages(&self) {
        crate::snapshot::advise_huge_pages(&self.loads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::Xoshiro256PlusPlus;

    #[test]
    fn new_state_is_empty() {
        let s = LoadVector::new(5);
        assert_eq!(s.n(), 5);
        assert_eq!(s.max_load(), 0);
        assert_eq!(s.total_balls(), 0);
        assert_eq!(s.nu(0), 5);
        assert_eq!(s.nu(1), 0);
        assert_eq!(s.gap(), 0.0);
        assert!(s.check_invariants());
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = LoadVector::new(0);
    }

    #[test]
    fn add_ball_returns_heights_in_order() {
        let mut s = LoadVector::new(3);
        assert_eq!(s.add_ball(0), 1);
        assert_eq!(s.add_ball(0), 2);
        assert_eq!(s.add_ball(0), 3);
        assert_eq!(s.add_ball(1), 1);
        assert_eq!(s.max_load(), 3);
        assert_eq!(s.total_balls(), 4);
        assert!(s.check_invariants());
    }

    #[test]
    fn nu_suffix_counts() {
        let mut s = LoadVector::new(4);
        // loads: [2, 1, 0, 0]
        s.add_ball(0);
        s.add_ball(0);
        s.add_ball(1);
        assert_eq!(s.nu(0), 4);
        assert_eq!(s.nu(1), 2);
        assert_eq!(s.nu(2), 1);
        assert_eq!(s.nu(3), 0);
        assert_eq!(s.nu(100), 0);
    }

    #[test]
    fn sorted_descending_matches() {
        let mut s = LoadVector::new(4);
        s.add_ball(3);
        s.add_ball(3);
        s.add_ball(1);
        assert_eq!(s.sorted_descending(), vec![2, 1, 0, 0]);
    }

    #[test]
    fn gap_tracks_average() {
        let mut s = LoadVector::new(2);
        s.add_ball(0);
        s.add_ball(0);
        // loads [2,0]: avg 1, max 2, gap 1.
        assert_eq!(s.gap(), 1.0);
        assert_eq!(s.average_load(), 1.0);
    }

    #[test]
    fn rank_of_unique_loads() {
        let mut s = LoadVector::new(3);
        s.add_ball(1); // loads [0,1,0]
        s.add_ball(1); // loads [0,2,0]
        s.add_ball(2); // loads [0,2,1]
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        assert_eq!(s.rank_of(1, &mut rng), 1);
        assert_eq!(s.rank_of(2, &mut rng), 2);
        assert_eq!(s.rank_of(0, &mut rng), 3);
    }

    #[test]
    fn rank_of_ties_is_uniform_over_tie_range() {
        // loads [1,1,0]: bins 0 and 1 tie for ranks {1,2}; bin 2 has rank 3.
        let mut s = LoadVector::new(3);
        s.add_ball(0);
        s.add_ball(1);
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        let mut counts = [0u32; 4];
        let trials = 8000;
        for _ in 0..trials {
            counts[s.rank_of(0, &mut rng)] += 1;
        }
        assert_eq!(counts[3], 0);
        let f1 = counts[1] as f64 / trials as f64;
        let f2 = counts[2] as f64 / trials as f64;
        assert!((f1 - 0.5).abs() < 0.05, "rank-1 frequency {f1}");
        assert!((f2 - 0.5).abs() < 0.05, "rank-2 frequency {f2}");
        assert_eq!(s.rank_of(2, &mut rng), 3);
    }

    #[test]
    fn histogram_grows_with_load() {
        let mut s = LoadVector::new(1);
        for i in 1..=10 {
            assert_eq!(s.add_ball(0), i);
        }
        assert_eq!(s.load_histogram()[10], 1);
        assert_eq!(s.nu(10), 1);
        assert!(s.check_invariants());
    }

    #[test]
    fn remove_ball_returns_height_and_restores_state() {
        let mut s = LoadVector::new(3);
        s.add_ball(0);
        s.add_ball(0);
        s.add_ball(1);
        let snapshot = s.clone();
        assert_eq!(s.add_ball(0), 3);
        assert_eq!(s.remove_ball(0), 3);
        assert_eq!(s, snapshot, "add then remove must round-trip exactly");
        assert!(s.check_invariants());
    }

    #[test]
    fn remove_ball_decrements_max_load_only_when_level_empties() {
        let mut s = LoadVector::new(3);
        // loads [2, 2, 0]: two bins at the max.
        s.add_ball(0);
        s.add_ball(0);
        s.add_ball(1);
        s.add_ball(1);
        assert_eq!(s.max_load(), 2);
        assert_eq!(s.remove_ball(0), 2); // a max-load peer survives
        assert_eq!(s.max_load(), 2);
        assert_eq!(s.remove_ball(1), 2); // last bin at the max
        assert_eq!(s.max_load(), 1);
        assert!(s.check_invariants());
    }

    #[test]
    fn remove_ball_from_tall_bin_drops_max_by_exactly_one() {
        // loads [5, 1]: the gap below the max is empty levels 2..=4, but a
        // single removal can only land at height max-1.
        let mut s = LoadVector::new(2);
        for _ in 0..5 {
            s.add_ball(0);
        }
        s.add_ball(1);
        assert_eq!(s.remove_ball(0), 5);
        assert_eq!(s.max_load(), 4);
        assert!(s.check_invariants());
    }

    #[test]
    fn remove_ball_maintains_nu_caches() {
        let mut s = LoadVector::new(4);
        // loads [2, 1, 0, 0]: nu1 = 2, nu2 = 1.
        s.add_ball(0);
        s.add_ball(0);
        s.add_ball(1);
        assert_eq!((s.nu(1), s.nu(2)), (2, 1));
        s.remove_ball(0); // 2 -> 1: nu2 drops, nu1 unchanged
        assert_eq!((s.nu(1), s.nu(2)), (2, 0));
        s.remove_ball(0); // 1 -> 0: nu1 drops
        assert_eq!((s.nu(1), s.nu(2)), (1, 0));
        s.remove_ball(1); // last ball out
        assert_eq!((s.nu(1), s.nu(2)), (0, 0));
        assert_eq!(s.total_balls(), 0);
        assert_eq!(s.max_load(), 0);
        assert!(s.check_invariants());
    }

    #[test]
    #[should_panic(expected = "empty bin")]
    fn remove_ball_from_empty_bin_panics() {
        let mut s = LoadVector::new(2);
        s.add_ball(0);
        let _ = s.remove_ball(1);
    }

    #[test]
    fn add_remove_churn_keeps_invariants() {
        let mut s = LoadVector::new(32);
        let mut rng = Xoshiro256PlusPlus::from_u64(9);
        use rand::Rng;
        let mut live: Vec<usize> = Vec::new();
        for step in 0..20_000 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let b = rng.gen_range(0..32);
                s.add_ball(b);
                live.push(b);
            } else {
                let i = rng.gen_range(0..live.len());
                let b = live.swap_remove(i);
                s.remove_ball(b);
            }
            if step % 4096 == 0 {
                assert!(s.check_invariants(), "corrupted at step {step}");
            }
        }
        assert_eq!(s.total_balls(), live.len() as u64);
        assert!(s.check_invariants());
    }

    #[test]
    fn unit_capacities_are_bit_identical_to_new() {
        let a = LoadVector::new(7);
        let b = LoadVector::with_capacities(&[1; 7]);
        assert_eq!(a, b);
        assert!(!b.is_heterogeneous());
        assert_eq!(b.capacity(3), 1);
        assert_eq!(b.total_capacity(), 7);
        assert!(b.capacities().is_none());
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = LoadVector::with_capacities(&[2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn empty_capacities_rejected() {
        let _ = LoadVector::with_capacities(&[]);
    }

    #[test]
    fn utilization_observables_track_capacities() {
        // Two-tier: bin 0 is a 4× server.
        let mut s = LoadVector::with_capacities(&[4, 1, 1, 1]);
        assert!(s.is_heterogeneous());
        assert_eq!(s.capacity(0), 4);
        assert_eq!(s.total_capacity(), 7);
        assert_eq!(s.capacities(), Some(&[4, 1, 1, 1][..]));
        assert_eq!(s.max_utilization(), 0.0);

        for _ in 0..4 {
            s.add_ball(0);
        }
        // Bin 0 is at load 4 but utilization 1.0.
        assert_eq!(s.max_load(), 4);
        assert_eq!(s.utilization(0), 1.0);
        assert_eq!(s.max_utilization(), 1.0);
        s.add_ball(1);
        s.add_ball(1);
        // Bin 1 (capacity 1, load 2) now dominates utilization.
        assert_eq!(s.max_utilization(), 2.0);
        assert!((s.average_utilization() - 6.0 / 7.0).abs() < 1e-12);
        assert!((s.utilization_gap() - (2.0 - 6.0 / 7.0)).abs() < 1e-12);
        assert!(s.check_invariants());
    }

    #[test]
    fn homogeneous_utilization_gap_equals_gap() {
        let mut s = LoadVector::new(4);
        s.add_ball(2);
        s.add_ball(2);
        s.add_ball(0);
        assert_eq!(s.max_utilization(), f64::from(s.max_load()));
        assert!((s.utilization_gap() - s.gap()).abs() < 1e-12);
    }

    #[test]
    fn capacity_add_remove_round_trips_exactly() {
        let mut s = LoadVector::with_capacities(&[1, 10, 3, 10, 1]);
        s.add_ball(1);
        s.add_ball(3);
        s.add_ball(3);
        let snapshot = s.clone();
        s.add_ball(3);
        s.add_ball(0);
        assert_eq!(s.remove_ball(0), 1);
        assert_eq!(s.remove_ball(3), 3);
        assert_eq!(s, snapshot, "add then remove must round-trip exactly");
        assert!(s.check_invariants());
    }

    #[test]
    fn capacity_churn_keeps_class_invariants() {
        use rand::Rng;
        let caps: Vec<u32> = (0..24).map(|i| if i % 8 == 0 { 10 } else { 1 }).collect();
        let mut s = LoadVector::with_capacities(&caps);
        let mut rng = Xoshiro256PlusPlus::from_u64(12);
        let mut live: Vec<usize> = Vec::new();
        for step in 0..10_000 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let b = rng.gen_range(0..24);
                s.add_ball(b);
                live.push(b);
            } else {
                let i = rng.gen_range(0..live.len());
                let b = live.swap_remove(i);
                s.remove_ball(b);
            }
            if step % 2048 == 0 {
                assert!(s.check_invariants(), "corrupted at step {step}");
                // Brute-force max utilization cross-check.
                let want = (0..24)
                    .map(|b| f64::from(s.load(b)) / f64::from(caps[b]))
                    .fold(0.0, f64::max);
                assert!((s.max_utilization() - want).abs() < 1e-12);
            }
        }
        assert!(s.check_invariants());
    }

    #[test]
    fn invariants_catch_no_corruption_after_many_ops() {
        let mut s = LoadVector::new(64);
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        use rand::Rng;
        for _ in 0..10_000 {
            let b = rng.gen_range(0..64);
            s.add_ball(b);
        }
        assert!(s.check_invariants());
        assert_eq!(s.total_balls(), 10_000);
        assert_eq!(s.nu(0), 64);
    }
}
