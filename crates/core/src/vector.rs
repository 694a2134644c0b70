//! Multidimensional (vector) loads: the Narang–Dutta generalization.
//!
//! Balls carry D-dimensional resource demands (cpu/mem/net), bins
//! accumulate per-dimension loads, and probe comparison happens through a
//! [`PlacementObjective`] norm instead of the raw scalar count. Three
//! pieces live here:
//!
//! * [`VectorLoad`] — the vector-load store: flat strided per-bin
//!   dimension loads with the same cached-histogram discipline as
//!   [`LoadVector`] (O(1) add, per-dimension max/ν/gap observables), plus
//!   an embedded scalar [`LoadVector`] tracking ball counts so every
//!   scalar observable ([`BinStore`] included) stays exact.
//! * [`PlacementObjective`] — the comparison-key seam: `Scalar` (sum of
//!   dimensions — the paper's process), `MaxNorm` (L∞), `WeightedNorm`,
//!   and `NormalizedByCapacity` (max dimension utilization).
//! * [`decide_k_least_vector`] / [`run_once_vector`] — the vector
//!   instance of the core decision kernel and its static-fill driver.
//!   At dims = 1 they mirror `decide_k_least` and its eager
//!   one-tie-key-per-slot round loop exactly.
//!
//! ## Determinism contract
//!
//! With `dims = 1`, `objective = scalar`, and unit demands, the vector
//! path is **bit-identical** to the scalar path: unit demand sampling
//! consumes zero generator outputs, an integer-valued `f64` key under
//! `total_cmp` orders exactly like the `u32` height it equals, and the
//! kernel draws the same one tie per slot — so RNG streams, winners, and
//! histograms all coincide (locked by the `vector_equivalence` tests).

use rand::RngCore;

use kdchoice_prng::demand::DemandDistribution;
use kdchoice_prng::Xoshiro256PlusPlus;

use crate::driver::{HeightHistogram, RunConfig, RunResult};
use crate::kernel::{expand_slots, select_k_least, sort_probes};
use crate::probes::ProbeDistribution;
use crate::process::HeightSink;
use crate::state::LoadVector;
use crate::store::BinStore;

/// The largest supported demand-vector dimensionality. Eight covers every
/// realistic resource model (cpu/mem/net/disk/...) while keeping per-slot
/// key evaluation a short unrollable loop.
pub const MAX_DIMS: usize = 8;

/// How probe comparison keys are computed from a bin's load vector — the
/// objective seam of the multidimensional extension.
///
/// `Scalar` on `dims = 1` unit-demand state reproduces the paper's
/// process bit-exactly; the other objectives are the Narang–Dutta
/// variants for genuinely multidimensional demands.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementObjective {
    /// Sum of dimension loads (equals the ball count under unit demand) —
    /// the scalar process.
    Scalar,
    /// The L∞ norm `max_j load_j`: balance the worst dimension.
    MaxNorm,
    /// A weighted sum `Σ_j w_j · load_j`; weights must have one entry per
    /// dimension.
    WeightedNorm(Vec<f64>),
    /// The maximum dimension *utilization* `max_j load_j / c_j` against
    /// the bin's per-dimension capacities (1 when the store has none).
    NormalizedByCapacity,
}

impl PlacementObjective {
    /// Parses a grid-axis value (`scalar | max_norm | weighted |
    /// capacity`). `weighted` builds the default decaying weights
    /// `w_j = 1/(j+1)` over `dims` dimensions (dimension 0 matters most).
    pub fn parse(name: &str, dims: usize) -> Option<Self> {
        match name {
            "scalar" => Some(Self::Scalar),
            "max_norm" | "max" => Some(Self::MaxNorm),
            "weighted" | "weighted_norm" => Some(Self::WeightedNorm(
                (0..dims).map(|j| 1.0 / (j + 1) as f64).collect(),
            )),
            "capacity" | "by_capacity" => Some(Self::NormalizedByCapacity),
            _ => None,
        }
    }

    /// The grid-axis name of this objective.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::MaxNorm => "max_norm",
            Self::WeightedNorm(_) => "weighted",
            Self::NormalizedByCapacity => "capacity",
        }
    }

    /// Whether this objective over `dims` dimensions is well-formed
    /// (weighted norms need exactly one finite weight per dimension).
    pub fn validate(&self, dims: usize) -> bool {
        match self {
            Self::WeightedNorm(w) => w.len() == dims && w.iter().all(|x| x.is_finite()),
            _ => dims >= 1,
        }
    }

    /// The comparison key of the tentative load `load + occ · demand`
    /// without materializing the sum: the key the `occ`-th tentative ball
    /// of a probed bin competes with (`occ = 0` keys the resting state).
    ///
    /// `caps` are the bin's per-dimension capacities (`None` = all 1),
    /// used only by [`PlacementObjective::NormalizedByCapacity`].
    ///
    /// Keys are `f64` but **integer-valued** for `Scalar` and `MaxNorm`
    /// (loads are `u32`, sums stay below 2^53), so `total_cmp` on them
    /// orders exactly like the underlying integers — the property the
    /// dims=1 bit-identity rests on.
    #[inline]
    pub fn tentative_key(
        &self,
        load: &[u32],
        demand: &[u32],
        occ: u32,
        caps: Option<&[u32]>,
    ) -> f64 {
        debug_assert_eq!(load.len(), demand.len());
        match self {
            Self::Scalar => {
                let mut sum = 0u64;
                for j in 0..load.len() {
                    sum += u64::from(load[j]) + u64::from(occ) * u64::from(demand[j]);
                }
                sum as f64
            }
            Self::MaxNorm => {
                let mut max = 0u64;
                for j in 0..load.len() {
                    max = max.max(u64::from(load[j]) + u64::from(occ) * u64::from(demand[j]));
                }
                max as f64
            }
            Self::WeightedNorm(w) => {
                debug_assert_eq!(w.len(), load.len());
                let mut sum = 0.0f64;
                for j in 0..load.len() {
                    sum += w[j] * (f64::from(load[j]) + f64::from(occ) * f64::from(demand[j]));
                }
                sum
            }
            Self::NormalizedByCapacity => {
                let mut max = 0.0f64;
                for j in 0..load.len() {
                    let tentative = f64::from(load[j]) + f64::from(occ) * f64::from(demand[j]);
                    let c = caps.map_or(1.0, |c| f64::from(c[j]));
                    max = max.max(tentative / c);
                }
                max
            }
        }
    }

    /// The comparison key of a resting load vector.
    #[inline]
    pub fn key(&self, load: &[u32], caps: Option<&[u32]>) -> f64 {
        self.tentative_key(load, load, 0, caps)
    }
}

/// The vector-load store: `n` bins × `dims` dimensions of accumulated
/// demand, with the same cached-observable discipline as [`LoadVector`]
/// applied per dimension, plus an embedded scalar [`LoadVector`] counting
/// balls so the scalar observables (max load, ν_y, gap, utilization) stay
/// exact and cheap.
///
/// Layout is flat strided (`loads[bin * dims + j]`) — one contiguous
/// allocation, cache-friendly probes. Per-dimension histograms keep
/// `hist[j].len() == dim_max[j] + 1` (the [`LoadVector`] truncation
/// discipline), so add-then-remove round-trips bit-exactly.
///
/// ```
/// use kdchoice_core::VectorLoad;
///
/// let mut store = VectorLoad::new(2, 4);
/// store.add(1, &[3, 1]); // one ball demanding (3, 1)
/// assert_eq!(store.load_vec(1), &[3, 1]);
/// assert_eq!(store.dim_max(0), 3);
/// assert_eq!(store.dim_max(1), 1);
/// use kdchoice_core::BinStore;
/// assert_eq!(store.max_load(), 1); // one *ball*
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VectorLoad {
    dims: usize,
    /// `loads[bin * dims + j]` = accumulated demand of bin `bin` in
    /// dimension `j`.
    loads: Vec<u32>,
    /// Per-dimension maximum load.
    dim_max: Vec<u32>,
    /// `dim_hist[j][l]` = bins whose dimension-`j` load is exactly `l`;
    /// always `dim_max[j] + 1` entries.
    dim_hist: Vec<Vec<u64>>,
    /// Per-dimension total demand `Σ_bin loads[bin][j]`.
    dim_total: Vec<u64>,
    /// Per-bin per-dimension capacities, strided like `loads`; `None`
    /// when every capacity is 1.
    capacities: Option<Vec<u32>>,
    /// Scalar ball counts (with scalar capacities when the store was
    /// built from a heterogeneous capacity map).
    balls: LoadVector,
}

impl VectorLoad {
    /// Creates `n` empty bins of `dims` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `dims` is outside `1..=MAX_DIMS`.
    pub fn new(dims: usize, n: usize) -> Self {
        assert!(n > 0, "need at least one bin");
        assert!(
            (1..=MAX_DIMS).contains(&dims),
            "dims must be in 1..={MAX_DIMS} (got {dims})"
        );
        Self {
            dims,
            loads: vec![0; n * dims],
            dim_max: vec![0; dims],
            dim_hist: vec![vec![n as u64]; dims],
            dim_total: vec![0; dims],
            capacities: None,
            balls: LoadVector::new(n),
        }
    }

    /// Creates empty bins from a **scalar** per-bin capacity map,
    /// replicated across every dimension (a 4× server is 4× in cpu and
    /// mem alike) — the `hetero` scenario's construction. The embedded
    /// ball counter carries the same capacities, so the scalar
    /// utilization observables work unchanged.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LoadVector::with_capacities`]
    /// and [`VectorLoad::new`].
    pub fn with_capacities(dims: usize, capacities: &[u32]) -> Self {
        let mut state = Self::new(dims, capacities.len().max(1));
        state.balls = LoadVector::with_capacities(capacities);
        if capacities.iter().any(|&c| c != 1) {
            let mut strided = Vec::with_capacity(capacities.len() * dims);
            for &c in capacities {
                strided.resize(strided.len() + dims, c);
            }
            state.capacities = Some(strided);
        }
        state
    }

    /// Creates empty bins from a full **strided** per-bin per-dimension
    /// capacity map (`caps[bin * dims + j]`) — the scheduler's
    /// vector-capacity workers. Scalar utilization observables use
    /// dimension 0 as the scalar capacity.
    ///
    /// # Panics
    ///
    /// Panics if `strided.len()` is not a positive multiple of `dims`, or
    /// any capacity is 0.
    pub fn with_vector_capacities(dims: usize, strided: &[u32]) -> Self {
        assert!(
            !strided.is_empty() && strided.len().is_multiple_of(dims),
            "capacity map must be a positive multiple of dims"
        );
        assert!(
            strided.iter().all(|&c| c > 0),
            "every capacity must be >= 1"
        );
        let n = strided.len() / dims;
        let mut state = Self::new(dims, n);
        if strided.iter().any(|&c| c != 1) {
            let scalar: Vec<u32> = (0..n).map(|b| strided[b * dims]).collect();
            state.balls = LoadVector::with_capacities(&scalar);
            state.capacities = Some(strided.to_vec());
        }
        state
    }

    /// The dimensionality `D`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The number of bins.
    #[inline]
    pub fn n(&self) -> usize {
        self.loads.len() / self.dims
    }

    /// The load vector of `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`.
    #[inline]
    pub fn load_vec(&self, bin: usize) -> &[u32] {
        &self.loads[bin * self.dims..(bin + 1) * self.dims]
    }

    /// The full strided load table (`loads[bin * dims + j]`).
    pub fn loads_strided(&self) -> &[u32] {
        &self.loads
    }

    /// The capacity vector of `bin`, or `None` when every capacity is 1.
    #[inline]
    pub fn capacity_vec(&self, bin: usize) -> Option<&[u32]> {
        self.capacities
            .as_ref()
            .map(|c| &c[bin * self.dims..(bin + 1) * self.dims])
    }

    /// The embedded scalar ball counter (exact ball-count observables).
    pub fn balls(&self) -> &LoadVector {
        &self.balls
    }

    /// The maximum load of dimension `j`.
    #[inline]
    pub fn dim_max(&self, j: usize) -> u32 {
        self.dim_max[j]
    }

    /// The total demand accumulated in dimension `j`.
    #[inline]
    pub fn dim_total(&self, j: usize) -> u64 {
        self.dim_total[j]
    }

    /// The average load of dimension `j`.
    pub fn dim_average(&self, j: usize) -> f64 {
        self.dim_total[j] as f64 / self.n() as f64
    }

    /// The gap `max_j − average_j` of dimension `j` — the per-dimension
    /// analogue of Theorem 2's observable.
    pub fn dim_gap(&self, j: usize) -> f64 {
        f64::from(self.dim_max[j]) - self.dim_average(j)
    }

    /// All per-dimension gaps, indexed by dimension.
    pub fn dim_gaps(&self) -> Vec<f64> {
        (0..self.dims).map(|j| self.dim_gap(j)).collect()
    }

    /// The count-by-load histogram of dimension `j`.
    pub fn dim_histogram(&self, j: usize) -> &[u64] {
        &self.dim_hist[j]
    }

    /// Places one ball of demand vector `demand` into `bin`; returns the
    /// ball's **scalar height** (the bin's ball count after placement —
    /// the quantity the paper's height histograms record).
    ///
    /// O(dims) with the same per-dimension histogram bookkeeping as
    /// [`LoadVector::add_ball`].
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n` or `demand.len() != dims`.
    pub fn add(&mut self, bin: usize, demand: &[u32]) -> u32 {
        assert_eq!(demand.len(), self.dims, "demand/dims mismatch");
        let base = bin * self.dims;
        for (j, &delta) in demand.iter().enumerate() {
            if delta == 0 {
                continue;
            }
            let old = self.loads[base + j];
            let new = old + delta;
            self.loads[base + j] = new;
            let hist = &mut self.dim_hist[j];
            hist[old as usize] -= 1;
            if new as usize >= hist.len() {
                hist.resize(new as usize + 1, 0);
            }
            hist[new as usize] += 1;
            if new > self.dim_max[j] {
                self.dim_max[j] = new;
            }
            self.dim_total[j] += u64::from(delta);
        }
        self.balls.add_ball(bin)
    }

    /// Removes one ball of demand vector `demand` from `bin`; returns the
    /// removed ball's scalar height. Inverse of [`VectorLoad::add`]:
    /// add-then-remove round-trips the store bit-exactly (histograms
    /// truncate emptied top levels like [`LoadVector::remove_ball`]).
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`, `demand.len() != dims`, the bin holds no
    /// ball, or any dimension would go negative.
    pub fn remove(&mut self, bin: usize, demand: &[u32]) -> u32 {
        assert_eq!(demand.len(), self.dims, "demand/dims mismatch");
        let base = bin * self.dims;
        for (j, &delta) in demand.iter().enumerate() {
            if delta == 0 {
                continue;
            }
            let old = self.loads[base + j];
            assert!(
                old >= delta,
                "removing demand {delta} from bin {bin} dim {j} holding {old}"
            );
            let new = old - delta;
            self.loads[base + j] = new;
            let hist = &mut self.dim_hist[j];
            hist[old as usize] -= 1;
            hist[new as usize] += 1;
            if old == self.dim_max[j] && hist[old as usize] == 0 {
                // The top level emptied; scan down for the highest
                // remaining occupied level (the scan terminates at `new`
                // at the latest, where this bin now sits). Truncate so
                // add-then-remove is a bit-exact round trip.
                let mut m = old - 1;
                while hist[m as usize] == 0 {
                    m -= 1;
                }
                self.dim_max[j] = m;
                hist.truncate(m as usize + 1);
            }
            self.dim_total[j] -= u64::from(delta);
        }
        self.balls.remove_ball(bin)
    }

    /// Verifies every cached observable against a from-scratch recount
    /// (per-dimension histograms/max/total, embedded ball counter).
    /// O(n · dims); tests and debug assertions only.
    pub fn check_invariants(&self) -> bool {
        let n = self.n();
        for j in 0..self.dims {
            let mut hist = vec![0u64; self.dim_hist[j].len()];
            let mut max = 0u32;
            let mut total = 0u64;
            for bin in 0..n {
                let l = self.loads[bin * self.dims + j];
                if (l as usize) >= hist.len() {
                    return false;
                }
                hist[l as usize] += 1;
                max = max.max(l);
                total += u64::from(l);
            }
            if hist != self.dim_hist[j]
                || max != self.dim_max[j]
                || total != self.dim_total[j]
                || self.dim_hist[j].len() != self.dim_max[j] as usize + 1
            {
                return false;
            }
        }
        self.balls.check_invariants()
    }
}

/// Scalar ball-count view: a [`VectorLoad`] behind the [`BinStore`] seam
/// counts *balls* (unit demand per [`BinStore::add_ball`]), so every
/// scalar consumer (schedulers probing queue lengths, observable
/// renderers) works unchanged.
impl BinStore for VectorLoad {
    #[inline]
    fn n(&self) -> usize {
        VectorLoad::n(self)
    }

    #[inline]
    fn load(&self, bin: usize) -> u32 {
        self.balls.load(bin)
    }

    fn add_ball(&mut self, bin: usize) -> u32 {
        let base = bin * self.dims;
        for j in 0..self.dims {
            let old = self.loads[base + j];
            let new = old + 1;
            self.loads[base + j] = new;
            let hist = &mut self.dim_hist[j];
            hist[old as usize] -= 1;
            if new as usize >= hist.len() {
                hist.resize(new as usize + 1, 0);
            }
            hist[new as usize] += 1;
            if new > self.dim_max[j] {
                self.dim_max[j] = new;
            }
            self.dim_total[j] += 1;
        }
        self.balls.add_ball(bin)
    }

    fn remove_ball(&mut self, bin: usize) -> u32 {
        let unit = [1u32; MAX_DIMS];
        let height = self.balls.load(bin); // height before removal
        let _ = VectorLoad::remove(self, bin, &unit[..self.dims]);
        height
    }

    #[inline]
    fn max_load(&self) -> u32 {
        self.balls.max_load()
    }

    #[inline]
    fn total_balls(&self) -> u64 {
        self.balls.total_balls()
    }

    #[inline]
    fn nu(&self, y: u32) -> u64 {
        self.balls.nu(y)
    }

    #[inline]
    fn capacity(&self, bin: usize) -> u32 {
        self.balls.capacity(bin)
    }

    #[inline]
    fn total_capacity(&self) -> u64 {
        self.balls.total_capacity()
    }

    #[inline]
    fn max_utilization(&self) -> f64 {
        self.balls.max_utilization()
    }

    #[inline]
    fn utilization_gap(&self) -> f64 {
        self.balls.utilization_gap()
    }

    fn copy_loads_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.balls.loads());
    }

    fn histogram(&self) -> Vec<u64> {
        self.balls.load_histogram().to_vec()
    }
}

/// One tentative slot of the vector kernel: `(objective key, random
/// tie-break, scalar ball height, bin index)`.
pub type VectorSlot = (f64, u64, u32, usize);

/// The [`VectorLoad`] instance of the decision kernel: the `occ`-th
/// tentative ball of a probed bin is keyed at
/// `objective(load + occ · demand)`, the `k` least win
/// ([`select_k_least`]), and the winner bins are appended to `bins_out`
/// in selection order. Returns the winners' maximum scalar ball height.
/// With `dims = 1`, the scalar objective and unit `demand` it matches
/// `decide_k_least` bit for bit.
///
/// # Panics
///
/// Panics unless `1 <= k <= sorted_probes.len()` and `demand.len()`
/// matches the store's dimensionality.
#[allow(clippy::too_many_arguments)]
pub fn decide_k_least_vector<R: RngCore + ?Sized>(
    store: &VectorLoad,
    sorted_probes: &[usize],
    k: usize,
    demand: &[u32],
    objective: &PlacementObjective,
    rng: &mut R,
    slots: &mut Vec<VectorSlot>,
    bins_out: &mut Vec<usize>,
) -> u32 {
    assert_eq!(demand.len(), store.dims(), "demand/dims mismatch");
    expand_slots(
        sorted_probes,
        rng,
        slots,
        |bin| {
            let balls = store.balls().load(bin);
            (store.load_vec(bin), store.capacity_vec(bin), balls)
        },
        |&(load, caps, balls), bin, occ, tie| {
            let key = objective.tentative_key(load, demand, occ, caps);
            (key, tie, balls + occ, bin)
        },
    );
    let mut max_height = 0;
    for &(_, _, height, bin) in select_k_least(slots, k).iter() {
        max_height = max_height.max(height);
        bins_out.push(bin);
    }
    max_height
}

/// Runs a static (k,d)-choice fill over a [`VectorLoad`] store — a
/// round loop over [`decide_k_least_vector`] with one tie key per slot,
/// and the driver behind the `dims=`/`objective=`/`demand=` axes of the
/// `static`/`hetero` scenarios and the `vector_loads` bench section.
///
/// Each round: sample `d` probes (uniform draws batched exactly like the
/// scalar driver, weighted through [`ProbeDistribution::fill`]), sort,
/// sample **one demand vector** shared by the round's `k` balls (jobs
/// whose `k` tasks share a demand, matching the scheduler model), then
/// commit the winners of [`decide_k_least_vector`]. Demand is drawn
/// *after* the probes and *before* the tie-breaks — part of the stream
/// contract ([`DemandDistribution::Unit`] draws nothing, keeping the
/// dims=1 stream bit-identical to the scalar driver's).
///
/// `capacities` is the scalar per-bin map of the `hetero` scenario,
/// replicated across dimensions (see [`VectorLoad::with_capacities`]).
///
/// The returned [`RunResult`] reports scalar *ball* observables (same
/// meaning as every other driver); per-dimension gaps come from the
/// returned store's [`VectorLoad::dim_gaps`].
///
/// # Panics
///
/// Panics unless `1 <= k <= d`, `config.n > 0`, `objective.validate(dims)`
/// holds, and any capacity map has length `config.n`.
#[allow(clippy::too_many_arguments)]
pub fn run_once_vector(
    k: usize,
    d: usize,
    dims: usize,
    objective: &PlacementObjective,
    demand: &DemandDistribution,
    probes: &ProbeDistribution,
    capacities: Option<&[u32]>,
    config: &RunConfig,
) -> (RunResult, VectorLoad) {
    assert!(k >= 1 && k <= d, "need 1 <= k <= d (k={k}, d={d})");
    let n = config.n;
    assert!(n > 0, "need at least one bin");
    assert!(
        objective.validate(dims),
        "objective {} is not valid for dims={dims}",
        objective.name()
    );
    let mut store = match capacities {
        None => VectorLoad::new(dims, n),
        Some(caps) => {
            assert_eq!(caps.len(), n, "capacity map/bin-count mismatch");
            VectorLoad::with_capacities(dims, caps)
        }
    };
    let mut rng = Xoshiro256PlusPlus::from_u64(config.seed);
    let mut heights = HeightHistogram::new();
    let mut samples: Vec<usize> = Vec::with_capacity(d);
    let mut slots: Vec<VectorSlot> = Vec::with_capacity(d);
    let mut winners: Vec<usize> = Vec::with_capacity(k);
    let mut demand_buf: Vec<u32> = Vec::with_capacity(dims);
    let uniform = probes.is_uniform();
    let mut thrown = 0u64;
    let mut rounds = 0u64;
    let mut messages = 0u64;
    while thrown < config.balls {
        let balls = (config.balls - thrown).min(k as u64) as usize;
        if uniform {
            kdchoice_prng::sample::fill_with_replacement(&mut rng, n, d, &mut samples);
        } else {
            probes.fill(&mut rng, n, d, &mut samples);
        }
        sort_probes(&mut samples);
        demand.sample_into(&mut rng, dims, &mut demand_buf);
        winners.clear();
        decide_k_least_vector(
            &store,
            &samples,
            balls,
            &demand_buf,
            objective,
            &mut rng,
            &mut slots,
            &mut winners,
        );
        for &(_, _, height, bin) in &slots[..balls] {
            heights.record(height);
            store.add(bin, &demand_buf);
        }
        thrown += balls as u64;
        messages += d as u64;
        rounds += 1;
    }
    debug_assert!(store.check_invariants());
    let result = RunResult {
        name: format!("({k},{d})-choice@vec{dims}:{}", objective.name()),
        n,
        balls_thrown: thrown,
        balls_placed: thrown,
        max_load: store.balls().max_load(),
        gap: store.balls().max_load() as f64 - thrown as f64 / n as f64,
        messages,
        rounds,
        load_histogram: store.balls().load_histogram().to_vec(),
        height_histogram: heights.into_counts(),
        seed: config.seed,
    };
    (result, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::{BinSlab, StoreKind};
    use crate::snapshot::decide_k_least;

    /// The reference static fill over `decide_k_least`: per round a
    /// `Vec` of probes, a sort, one tie key per slot and a selection.
    /// `run_once_compact` ran this loop before it moved onto the
    /// (k,d)-choice round engine; it stays here as the scalar oracle of
    /// the vector driver.
    fn decide_k_least_fill(
        kind: StoreKind,
        k: usize,
        d: usize,
        probes: &ProbeDistribution,
        capacities: Option<&[u32]>,
        config: &RunConfig,
    ) -> (RunResult, BinSlab) {
        assert!(k >= 1 && k <= d, "need 1 <= k <= d (k={k}, d={d})");
        let n = config.n;
        assert!(n > 0, "need at least one bin");
        let mut slab = match capacities {
            None => kind.new_slab(n),
            Some(caps) => {
                assert_eq!(caps.len(), n, "capacity map/bin-count mismatch");
                kind.slab_with_capacities(caps)
            }
        };
        let mut rng = Xoshiro256PlusPlus::from_u64(config.seed);
        let mut heights = HeightHistogram::new();
        let mut samples: Vec<usize> = Vec::with_capacity(d);
        let mut slots: Vec<(u32, u64, usize)> = Vec::with_capacity(d);
        let mut winners: Vec<usize> = Vec::with_capacity(k);
        let uniform = probes.is_uniform();
        let mut thrown = 0u64;
        let mut rounds = 0u64;
        let mut messages = 0u64;
        while thrown < config.balls {
            let balls = (config.balls - thrown).min(k as u64) as usize;
            if uniform {
                kdchoice_prng::sample::fill_with_replacement(&mut rng, n, d, &mut samples);
            } else {
                probes.fill(&mut rng, n, d, &mut samples);
            }
            sort_probes(&mut samples);
            winners.clear();
            decide_k_least(&slab, &samples, balls, &mut rng, &mut slots, &mut winners);
            for &(height, _, bin) in &slots[..balls] {
                heights.record(height);
                slab.add_ball(bin);
            }
            thrown += balls as u64;
            messages += d as u64;
            rounds += 1;
        }
        debug_assert!(slab.check_invariants());
        let result = RunResult {
            name: format!("({k},{d})-choice@{}", kind.name()),
            n,
            balls_thrown: thrown,
            balls_placed: thrown,
            max_load: slab.max_load(),
            gap: slab.max_load() as f64 - thrown as f64 / n as f64,
            messages,
            rounds,
            load_histogram: slab.histogram(),
            height_histogram: heights.into_counts(),
            seed: config.seed,
        };
        (result, slab)
    }

    #[test]
    fn new_store_is_empty_and_invariant() {
        let s = VectorLoad::new(3, 8);
        assert_eq!(s.dims(), 3);
        assert_eq!(VectorLoad::n(&s), 8);
        assert_eq!(s.load_vec(5), &[0, 0, 0]);
        assert_eq!(s.dim_gaps(), vec![0.0, 0.0, 0.0]);
        assert!(s.check_invariants());
    }

    #[test]
    #[should_panic(expected = "dims must be in")]
    fn oversized_dims_rejected() {
        let _ = VectorLoad::new(MAX_DIMS + 1, 4);
    }

    #[test]
    fn add_and_remove_round_trip_exactly() {
        let mut s = VectorLoad::new(2, 4);
        s.add(0, &[2, 5]);
        s.add(1, &[1, 1]);
        let snapshot = s.clone();
        assert_eq!(s.add(0, &[4, 1]), 2); // second ball in bin 0
        assert_eq!(s.dim_max(0), 6);
        assert_eq!(s.dim_max(1), 6);
        assert_eq!(s.remove(0, &[4, 1]), 2);
        assert_eq!(s, snapshot, "add then remove must round-trip exactly");
        assert!(s.check_invariants());
    }

    #[test]
    fn per_dim_observables_track_independently() {
        let mut s = VectorLoad::new(2, 4);
        s.add(0, &[3, 1]);
        s.add(1, &[1, 2]);
        assert_eq!(s.dim_max(0), 3);
        assert_eq!(s.dim_max(1), 2);
        assert_eq!(s.dim_total(0), 4);
        assert_eq!(s.dim_total(1), 3);
        assert!((s.dim_gap(0) - 2.0).abs() < 1e-12);
        assert!((s.dim_gap(1) - 1.25).abs() < 1e-12);
        assert_eq!(s.dim_histogram(0), &[2, 1, 0, 1]);
        // Scalar view counts balls, not demand.
        assert_eq!(s.max_load(), 1);
        assert_eq!(s.total_balls(), 2);
        assert!(s.check_invariants());
    }

    #[test]
    fn remove_rescans_max_across_gap_levels() {
        // Bin 0 jumps to 10, bin 1 sits at 3; removing bin 0's ball must
        // land the max back on 3, not 9.
        let mut s = VectorLoad::new(1, 2);
        s.add(0, &[10]);
        s.add(1, &[3]);
        s.remove(0, &[10]);
        assert_eq!(s.dim_max(0), 3);
        assert_eq!(s.dim_histogram(0).len(), 4);
        assert!(s.check_invariants());
    }

    #[test]
    fn vector_churn_keeps_invariants() {
        use rand::Rng;
        let mut s = VectorLoad::new(3, 16);
        let mut rng = Xoshiro256PlusPlus::from_u64(77);
        let mut live: Vec<(usize, [u32; 3])> = Vec::new();
        for step in 0..8000 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let bin = rng.gen_range(0..16);
                let demand = [
                    rng.gen_range(0..5),
                    rng.gen_range(1..4),
                    rng.gen_range(0..8),
                ];
                s.add(bin, &demand);
                live.push((bin, demand));
            } else {
                let i = rng.gen_range(0..live.len());
                let (bin, demand) = live.swap_remove(i);
                s.remove(bin, &demand);
            }
            if step % 1024 == 0 {
                assert!(s.check_invariants(), "corrupted at step {step}");
            }
        }
        assert_eq!(s.total_balls(), live.len() as u64);
        assert!(s.check_invariants());
    }

    #[test]
    fn bin_store_view_counts_balls() {
        let mut s = VectorLoad::new(2, 4);
        assert_eq!(BinStore::add_ball(&mut s, 1), 1);
        assert_eq!(BinStore::add_ball(&mut s, 1), 2);
        assert_eq!(s.load_vec(1), &[2, 2]);
        assert_eq!(BinStore::load(&s, 1), 2);
        assert_eq!(BinStore::remove_ball(&mut s, 1), 2);
        assert_eq!(s.load_vec(1), &[1, 1]);
        assert_eq!(s.nu(1), 1);
        let mut loads = Vec::new();
        s.copy_loads_into(&mut loads);
        assert_eq!(loads, vec![0, 1, 0, 0]);
        assert!(s.check_invariants());
    }

    #[test]
    fn scalar_capacities_replicate_and_normalize() {
        let s = VectorLoad::with_capacities(2, &[4, 1, 1]);
        assert_eq!(s.capacity_vec(0), Some(&[4, 4][..]));
        assert_eq!(s.capacity_vec(1), Some(&[1, 1][..]));
        assert_eq!(s.capacity(0), 4);
        assert_eq!(s.total_capacity(), 6);
        // Uniform map stays capacity-free.
        let u = VectorLoad::with_capacities(2, &[1, 1, 1]);
        assert!(u.capacity_vec(0).is_none());
    }

    #[test]
    fn vector_capacities_take_strided_maps() {
        let s = VectorLoad::with_vector_capacities(2, &[4, 2, 1, 1]);
        assert_eq!(VectorLoad::n(&s), 2);
        assert_eq!(s.capacity_vec(0), Some(&[4, 2][..]));
        assert_eq!(s.capacity(0), 4); // dim-0 scalar capacity
    }

    #[test]
    fn objective_keys_match_hand_computation() {
        let load = [3u32, 1];
        let demand = [2u32, 4];
        assert_eq!(
            PlacementObjective::Scalar.tentative_key(&load, &demand, 1, None),
            10.0
        );
        assert_eq!(
            PlacementObjective::MaxNorm.tentative_key(&load, &demand, 1, None),
            5.0
        );
        let w = PlacementObjective::WeightedNorm(vec![1.0, 0.5]);
        assert!((w.tentative_key(&load, &demand, 1, None) - (5.0 + 0.5 * 5.0)).abs() < 1e-12);
        let caps = [10u32, 2];
        assert!(
            (PlacementObjective::NormalizedByCapacity.tentative_key(
                &load,
                &demand,
                1,
                Some(&caps)
            ) - 2.5)
                .abs()
                < 1e-12
        );
        // occ = 0 keys the resting state.
        assert_eq!(PlacementObjective::Scalar.key(&load, None), 4.0);
        assert_eq!(PlacementObjective::MaxNorm.key(&load, None), 3.0);
    }

    #[test]
    fn objective_parse_and_validate() {
        assert_eq!(
            PlacementObjective::parse("scalar", 2),
            Some(PlacementObjective::Scalar)
        );
        assert_eq!(
            PlacementObjective::parse("max_norm", 2),
            Some(PlacementObjective::MaxNorm)
        );
        let w = PlacementObjective::parse("weighted", 3).unwrap();
        assert!(w.validate(3));
        assert!(!w.validate(2));
        assert_eq!(
            PlacementObjective::parse("capacity", 2),
            Some(PlacementObjective::NormalizedByCapacity)
        );
        assert_eq!(PlacementObjective::parse("psychic", 2), None);
    }

    #[test]
    fn vector_kernel_is_bit_identical_to_scalar_kernel_at_dims_1() {
        // The heart of the determinism contract: same probes, same RNG,
        // same winners, same heights, same generator state afterward.
        let n = 64;
        let mut scalar = LoadVector::new(n);
        let mut vector = VectorLoad::new(1, n);
        let mut rng_a = Xoshiro256PlusPlus::from_u64(0xABCDE);
        let mut rng_b = Xoshiro256PlusPlus::from_u64(0xABCDE);
        let mut probe_rng = Xoshiro256PlusPlus::from_u64(7);
        let mut slots_a: Vec<(u32, u64, usize)> = Vec::new();
        let mut slots_b: Vec<VectorSlot> = Vec::new();
        for round in 0..500 {
            let d = 2 + round % 5;
            let k = 1 + round % d.min(3);
            let mut probes = Vec::new();
            kdchoice_prng::sample::fill_with_replacement(&mut probe_rng, n, d, &mut probes);
            probes.sort_unstable();
            let mut win_a = Vec::new();
            let mut win_b = Vec::new();
            let ha = decide_k_least(&scalar, &probes, k, &mut rng_a, &mut slots_a, &mut win_a);
            let hb = decide_k_least_vector(
                &vector,
                &probes,
                k,
                &[1],
                &PlacementObjective::Scalar,
                &mut rng_b,
                &mut slots_b,
                &mut win_b,
            );
            assert_eq!(win_a, win_b, "winners diverged in round {round}");
            assert_eq!(ha, hb, "max heights diverged in round {round}");
            assert_eq!(rng_a, rng_b, "generator states diverged in round {round}");
            for ((sh, _, sb), vs) in slots_a[..k].iter().zip(&slots_b[..k]) {
                assert_eq!(*sh, vs.2);
                assert_eq!(*sb, vs.3);
            }
            for &bin in &win_a {
                scalar.add_ball(bin);
                vector.add(bin, &[1]);
            }
        }
        assert_eq!(scalar.loads(), vector.loads_strided());
    }

    /// The dims = 1 scalar vector fill is the `decide_k_least` fill
    /// stream for stream ([`decide_k_least_fill`], the loop
    /// `run_once_compact` ran before it moved onto the round engine).
    #[test]
    fn run_once_vector_dims_1_scalar_matches_run_once_compact() {
        for (k, d, n, balls) in [(1, 2, 256, 1024u64), (2, 4, 512, 512), (3, 7, 128, 999)] {
            let cfg = RunConfig::new(n, 0x5EED ^ (k as u64)).with_balls(balls);
            let (scalar, _) = decide_k_least_fill(
                StoreKind::Exact,
                k,
                d,
                &ProbeDistribution::Uniform,
                None,
                &cfg,
            );
            let (vector, store) = run_once_vector(
                k,
                d,
                1,
                &PlacementObjective::Scalar,
                &DemandDistribution::Unit,
                &ProbeDistribution::Uniform,
                None,
                &cfg,
            );
            assert_eq!(scalar.max_load, vector.max_load);
            assert_eq!(scalar.gap, vector.gap);
            assert_eq!(scalar.load_histogram, vector.load_histogram);
            assert_eq!(scalar.height_histogram, vector.height_histogram);
            assert_eq!(scalar.messages, vector.messages);
            assert_eq!(scalar.rounds, vector.rounds);
            // dim-0 gap IS the scalar gap at dims=1.
            assert!((store.dim_gap(0) - scalar.gap).abs() < 1e-12);
        }
    }

    #[test]
    fn max_norm_beats_scalar_on_anti_correlated_demands() {
        // Anti-correlated demands are the adversarial case for the scalar
        // objective: summing dimensions hides which dimension is hot. The
        // max-norm objective must not do *worse* on the worst dimension.
        let cfg = RunConfig::new(256, 99).with_balls(4096);
        let demand = DemandDistribution::anti_correlated(4).unwrap();
        let (_, scalar_store) = run_once_vector(
            1,
            2,
            2,
            &PlacementObjective::Scalar,
            &demand,
            &ProbeDistribution::Uniform,
            None,
            &cfg,
        );
        let (_, max_store) = run_once_vector(
            1,
            2,
            2,
            &PlacementObjective::MaxNorm,
            &demand,
            &ProbeDistribution::Uniform,
            None,
            &cfg,
        );
        let worst_scalar = scalar_store.dim_gaps().into_iter().fold(0.0, f64::max);
        let worst_max = max_store.dim_gaps().into_iter().fold(0.0, f64::max);
        assert!(
            worst_max <= worst_scalar + 2.0,
            "max-norm per-dim gap {worst_max} vs scalar {worst_scalar}"
        );
    }

    #[test]
    fn d_choice_collapses_per_dim_gap_vs_single_choice() {
        // The Narang–Dutta headline at dims=2: two choices shrink every
        // dimension's gap dramatically vs random placement.
        let cfg = RunConfig::new(512, 4242).with_balls(8 * 512);
        let demand = DemandDistribution::uniform(4).unwrap();
        let (_, one) = run_once_vector(
            1,
            1,
            2,
            &PlacementObjective::MaxNorm,
            &demand,
            &ProbeDistribution::Uniform,
            None,
            &cfg,
        );
        let (_, two) = run_once_vector(
            1,
            2,
            2,
            &PlacementObjective::MaxNorm,
            &demand,
            &ProbeDistribution::Uniform,
            None,
            &cfg,
        );
        for j in 0..2 {
            assert!(
                two.dim_gap(j) < one.dim_gap(j),
                "dim {j}: d=2 gap {} !< d=1 gap {}",
                two.dim_gap(j),
                one.dim_gap(j)
            );
        }
    }

    #[test]
    fn capacity_objective_prefers_big_bins() {
        // One 8×-capacity bin among unit bins: under the capacity
        // objective it should absorb far more than 1/n of the demand.
        let mut caps = vec![1u32; 32];
        caps[0] = 8;
        let cfg = RunConfig::new(32, 5).with_balls(2048);
        let (_, store) = run_once_vector(
            1,
            4,
            2,
            &PlacementObjective::NormalizedByCapacity,
            &DemandDistribution::Unit,
            &ProbeDistribution::Uniform,
            Some(&caps),
            &cfg,
        );
        let big = store.balls().load(0) as f64;
        let avg = 2048.0 / 32.0;
        assert!(big > 3.0 * avg, "big bin took {big} vs average {avg}");
        assert!(store.check_invariants());
    }

    #[test]
    #[should_panic(expected = "not valid for dims")]
    fn mismatched_weighted_norm_rejected() {
        let _ = run_once_vector(
            1,
            2,
            3,
            &PlacementObjective::WeightedNorm(vec![1.0]),
            &DemandDistribution::Unit,
            &ProbeDistribution::Uniform,
            None,
            &RunConfig::new(8, 1),
        );
    }
}
