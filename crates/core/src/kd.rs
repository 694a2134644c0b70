//! The (k,d)-choice process and its monomorphized round engine, generic
//! over the store a round reads (`LoadView`) and commits to (`BinStore`).

use kdchoice_prng::sample::UniformBin;
use rand::RngCore;

use crate::error::ConfigError;
use crate::kernel::{sort_probes, transposition_sort, SMALL_D};
use crate::policy::RoundPolicy;
use crate::probes::ProbeDistribution;
use crate::process::{HeightSink, RoundProcess, RoundStats};
use crate::snapshot::LoadView;
use crate::state::LoadVector;
use crate::store::BinStore;

/// One tentative ball: the height it would have and the bin it would
/// land in.
#[derive(Debug, Clone, Copy)]
struct Tentative {
    height: u32,
    bin: u32,
}

/// A candidate bin for the water-filling (unrestricted) policy.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    bin: u32,
    load: u32,
}

/// The (k,d)-choice allocation process (§1.1 of the paper).
///
/// In each round, `d` bins are sampled i.u.r. **with replacement** and `k`
/// balls are placed into the `k` least loaded of them, a bin sampled `m`
/// times receiving at most `m` balls ([`RoundPolicy::Multiplicity`]); the
/// [`RoundPolicy::Unrestricted`] variant instead water-fills the distinct
/// sampled bins (§7 future work).
///
/// `k = d` is allowed and degenerates to the classical single-choice process
/// SA(k,k): every sampled slot keeps its ball. `k = d = 1` is plain single
/// choice, matching the paper's Table 1 column `d = 1`.
///
/// ```
/// use kdchoice_core::{KdChoice, RunConfig, run_once};
///
/// # fn main() -> Result<(), kdchoice_core::ConfigError> {
/// let mut p = KdChoice::new(3, 5)?;
/// assert_eq!(p.k(), 3);
/// assert_eq!(p.d(), 5);
/// let r = run_once(&mut p, &RunConfig::new(3 * (1 << 10), 1));
/// assert_eq!(r.messages, (3 * (1 << 10) / 3) * 5); // d probes per round
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KdChoice {
    k: usize,
    d: usize,
    policy: RoundPolicy,
    probes: ProbeDistribution,
    // Reusable scratch buffers for the d > SMALL_D paths (hot path:
    // billions of rounds in benches).
    samples: Vec<usize>,
    tentative: Vec<Tentative>,
    candidates: Vec<Candidate>,
}

impl KdChoice {
    /// Creates a (k,d)-choice process with the paper's multiplicity policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `1 ≤ k ≤ d`.
    pub fn new(k: usize, d: usize) -> Result<Self, ConfigError> {
        if k == 0 {
            return Err(ConfigError::ZeroK);
        }
        if k > d {
            return Err(ConfigError::KExceedsD { k, d });
        }
        Ok(Self {
            k,
            d,
            policy: RoundPolicy::Multiplicity,
            probes: ProbeDistribution::Uniform,
            samples: Vec::with_capacity(d),
            tentative: Vec::with_capacity(d),
            candidates: Vec::with_capacity(d),
        })
    }

    /// Switches the allocation policy (builder style).
    ///
    /// ```
    /// use kdchoice_core::{KdChoice, RoundPolicy};
    /// # fn main() -> Result<(), kdchoice_core::ConfigError> {
    /// let p = KdChoice::new(2, 3)?.with_policy(RoundPolicy::Unrestricted);
    /// assert_eq!(p.policy(), RoundPolicy::Unrestricted);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn with_policy(mut self, policy: RoundPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Switches the probe distribution (builder style) — the weighted /
    /// heterogeneous seam. Uniform (the default) and any distribution
    /// whose weights degenerate to equal keep the engine on its
    /// uniform fast paths, drawing the **identical** generator stream as
    /// before this seam existed.
    ///
    /// ```
    /// use kdchoice_core::{KdChoice, ProbeDistribution, RoundProcess};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = KdChoice::new(2, 3)?.with_probes(ProbeDistribution::zipf(64, 1.0)?);
    /// assert_eq!(p.name(), "(2,3)-choice@zipf(1)");
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn with_probes(mut self, probes: ProbeDistribution) -> Self {
        self.probes = probes;
        self
    }

    /// The active probe distribution.
    pub fn probes(&self) -> &ProbeDistribution {
        &self.probes
    }

    /// The number of balls per round, `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of sampled bins per round, `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The active round policy.
    pub fn policy(&self) -> RoundPolicy {
        self.policy
    }

    /// Runs one round with **externally chosen** samples instead of drawing
    /// them from the RNG. `balls` balls are placed (`balls ≤ samples.len()`).
    ///
    /// This is the coupling hook: the majorization experiments for
    /// Properties (ii)–(v) and the paper's scenario walk-throughs feed both
    /// processes the same sample sets. The RNG is still used for random
    /// tie-breaking, drawn only for tentative balls tied at the selection
    /// boundary.
    ///
    /// Returns the heights of the placed balls via `heights_out` (appended).
    ///
    /// # Panics
    ///
    /// Panics if `balls > samples.len()`, or if any sample is out of range.
    pub fn place_round_with_samples<R: RngCore + ?Sized>(
        &mut self,
        state: &mut LoadVector,
        samples: &[usize],
        balls: usize,
        rng: &mut R,
        heights_out: &mut Vec<u32>,
    ) {
        assert!(
            balls <= samples.len(),
            "cannot place {balls} balls from {} samples",
            samples.len()
        );
        self.samples.clear();
        self.samples.extend_from_slice(samples);
        self.commit_sampled(state, balls, rng, heights_out);
    }

    /// Commits `balls` balls on the round's probes in `self.samples` under
    /// the active policy.
    fn commit_sampled<St, R, S>(
        &mut self,
        state: &mut St,
        balls: usize,
        rng: &mut R,
        heights_out: &mut S,
    ) where
        St: BinStore + LoadView,
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        match self.policy {
            RoundPolicy::Multiplicity => {
                self.commit_multiplicity_lazy(state, balls, rng, heights_out)
            }
            RoundPolicy::Unrestricted => self.commit_unrestricted(state, balls, rng, heights_out),
        }
    }

    /// The paper's policy, lazy-key variant (the `Vec` path for
    /// `d > SMALL_D`, weighted probes and externally supplied samples):
    /// selection is by height alone; randomness is drawn only for the
    /// tentative balls whose height equals the selection boundary, of which
    /// a uniform subset is kept. Distributionally identical to drawing one
    /// random key per tentative ball, as [`crate::decide_k_least`] does —
    /// every tentative ball strictly below the boundary is kept either way,
    /// and per-ball keys induce exactly a uniform choice among boundary
    /// balls.
    fn commit_multiplicity_lazy<St, R, S>(
        &mut self,
        state: &mut St,
        balls: usize,
        rng: &mut R,
        heights_out: &mut S,
    ) where
        St: BinStore + LoadView,
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        sort_probes(&mut self.samples);
        self.tentative.clear();
        let mut i = 0;
        while i < self.samples.len() {
            let bin = self.samples[i];
            let base = state.view_load(bin);
            let mut occ = 0u32;
            while i < self.samples.len() && self.samples[i] == bin {
                occ += 1;
                self.tentative.push(Tentative {
                    height: base + occ,
                    bin: bin as u32,
                });
                i += 1;
            }
        }
        let len = self.tentative.len();
        if balls < len {
            // Boundary height: the `balls`-th smallest tentative height.
            let (_, pivot, _) = self
                .tentative
                .select_nth_unstable_by_key(balls - 1, |t| t.height);
            let hb = pivot.height;
            // Partition into [h < hb][h == hb][h ≥ hb] and pick a uniform
            // subset of the boundary band.
            let mut lt_end = 0;
            for j in 0..len {
                if self.tentative[j].height < hb {
                    self.tentative.swap(lt_end, j);
                    lt_end += 1;
                }
            }
            let mut eq_end = lt_end;
            for j in lt_end..len {
                if self.tentative[j].height == hb {
                    self.tentative.swap(eq_end, j);
                    eq_end += 1;
                }
            }
            shuffle_boundary_ties(&mut self.tentative, balls, |t| t.height, rng);
        }
        // Within any bin the kept heights are exactly L+1..=L+j, so
        // committing in slice order reproduces the kept height multiset
        // regardless of slot order.
        for t in self.tentative[..balls].iter() {
            let h = state.add_ball(t.bin as usize);
            heights_out.record(h);
        }
    }

    /// The §7 relaxation: water-fill the distinct sampled bins.
    fn commit_unrestricted<St, R, S>(
        &mut self,
        state: &mut St,
        balls: usize,
        rng: &mut R,
        heights_out: &mut S,
    ) where
        St: BinStore + LoadView,
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        sort_probes(&mut self.samples);
        self.samples.dedup();
        self.candidates.clear();
        for &bin in self.samples.iter() {
            self.candidates.push(Candidate {
                bin: bin as u32,
                load: state.view_load(bin),
            });
        }
        for _ in 0..balls {
            let idx = kdchoice_prng::sample::random_argmin(rng, &self.candidates, |c| c.load)
                .expect("candidates non-empty");
            let bin = self.candidates[idx].bin as usize;
            let h = state.add_ball(bin);
            self.candidates[idx].load = h;
            heights_out.record(h);
        }
    }

    /// The engine's fast path: `d ≤ SMALL_D`, multiplicity policy,
    /// everything on fixed stack arrays.
    ///
    /// Dispatches the runtime `d` onto a const-generic round body so the
    /// per-round loops fully unroll and the scratch arrays live in
    /// registers for the small `d` the paper actually uses.
    fn round_batched_small<St, R, S>(
        &mut self,
        state: &mut St,
        rng: &mut R,
        heights_out: &mut S,
        balls: usize,
    ) where
        St: BinStore + LoadView,
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        match self.d {
            1 => round_small::<1, St, R, S>(state, rng, heights_out, balls),
            2 => round_small::<2, St, R, S>(state, rng, heights_out, balls),
            3 => round_small::<3, St, R, S>(state, rng, heights_out, balls),
            4 => round_small::<4, St, R, S>(state, rng, heights_out, balls),
            5 => round_small::<5, St, R, S>(state, rng, heights_out, balls),
            6 => round_small::<6, St, R, S>(state, rng, heights_out, balls),
            7 => round_small::<7, St, R, S>(state, rng, heights_out, balls),
            8 => round_small::<8, St, R, S>(state, rng, heights_out, balls),
            9 => round_small::<9, St, R, S>(state, rng, heights_out, balls),
            10 => round_small::<10, St, R, S>(state, rng, heights_out, balls),
            11 => round_small::<11, St, R, S>(state, rng, heights_out, balls),
            12 => round_small::<12, St, R, S>(state, rng, heights_out, balls),
            13 => round_small::<13, St, R, S>(state, rng, heights_out, balls),
            14 => round_small::<14, St, R, S>(state, rng, heights_out, balls),
            15 => round_small::<15, St, R, S>(state, rng, heights_out, balls),
            16 => round_small::<16, St, R, S>(state, rng, heights_out, balls),
            _ => unreachable!("small path requires d <= SMALL_D"),
        }
    }
}

/// Uniform lazy tie-breaking at the selection boundary, shared by every
/// lazy commit path (`Vec`, packed-key, and grouped-array).
///
/// `slots[..balls]` must already hold the `balls` smallest heights, with
/// the boundary-height band contiguous around the cut (true after a full
/// sort or after the `[< hb][== hb][> hb]` partition). If the boundary
/// height spans the cut, a partial Fisher–Yates over the band leaves a
/// uniform subset of the tied slots in the kept prefix — consuming one
/// bounded draw per chosen tied slot instead of one key per tentative
/// ball, and none at all when no tie straddles the boundary.
#[inline]
fn shuffle_boundary_ties<T, R, F>(slots: &mut [T], balls: usize, height_of: F, rng: &mut R)
where
    R: RngCore + ?Sized,
    F: Fn(&T) -> u32,
{
    if balls >= slots.len() || height_of(&slots[balls]) != height_of(&slots[balls - 1]) {
        return;
    }
    let hb = height_of(&slots[balls - 1]);
    let mut lo = balls - 1;
    while lo > 0 && height_of(&slots[lo - 1]) == hb {
        lo -= 1;
    }
    let mut hi = balls;
    while hi + 1 < slots.len() && height_of(&slots[hi + 1]) == hb {
        hi += 1;
    }
    let ties = hi - lo + 1;
    let chosen = balls - lo;
    debug_assert!(chosen < ties, "the band spans the cut, so ties > chosen");
    for t in 0..chosen {
        let j = t + rand::lemire_u64(rng, (ties - t) as u64) as usize;
        slots.swap(lo + t, lo + j);
    }
}

/// One engine round at compile-time-known `D` (multiplicity
/// policy): `D` generator outputs pulled in a block, widened-multiplied
/// into bin indices (no division), a branchless sorting network over
/// packed `(height, bin)` keys, and tie-break draws only when tentative
/// balls straddle the selection boundary.
///
/// `inline(always)`: the per-`D` instantiations are selected by a runtime
/// match; inlining them into the caller removes a call per round on the
/// hottest path in the workspace.
#[inline(always)]
fn round_small<const D: usize, St, R, S>(
    state: &mut St,
    rng: &mut R,
    heights_out: &mut S,
    balls: usize,
) where
    St: BinStore + LoadView,
    R: RngCore + ?Sized,
    S: HeightSink + ?Sized,
{
    debug_assert!(0 < balls && balls <= D);
    let bins_dist = UniformBin::new(state.view_n());

    // 1. Block-pull the round's raw randomness, then map to bins.
    let mut raw = [0u64; D];
    for slot in raw.iter_mut() {
        *slot = rng.next_u64();
    }
    let mut bins = [0u32; D];
    for i in 0..D {
        bins[i] = bins_dist.map_raw(raw[i], rng) as u32;
    }

    // Distinctness check (O(D²) unrolled compares). With n ≫ d² a round
    // repeats a bin with probability ≈ d²/2n, so the grouped path is cold.
    let mut distinct = true;
    for i in 1..D {
        for j in 0..i {
            distinct &= bins[i] != bins[j];
        }
    }
    if !distinct {
        return round_small_grouped::<D, St, R, S>(state, rng, heights_out, balls, bins);
    }

    // 2. Each sampled bin holds one tentative ball at height load + 1.
    //    Keys pack (height << 32 | bin) so a u64 compare orders by height
    //    first; the loads issue back-to-back, overlapping cache misses.
    let mut key = [0u64; D];
    for i in 0..D {
        key[i] = ((u64::from(state.view_load(bins[i] as usize)) + 1) << 32) | u64::from(bins[i]);
    }

    // 3. Odd-even transposition network over the packed keys.
    transposition_sort(&mut key);

    // 4. Lazy tie-breaking: randomness only if the boundary height is
    //    shared between kept and discarded slots. (Keys ordered ties by
    //    bin index; the uniform boundary shuffle erases that bias.)
    shuffle_boundary_ties(&mut key, balls, |&x| (x >> 32) as u32, rng);

    // 5. Commit the balls of smallest height.
    for &k in &key[..balls] {
        let h = state.add_ball((k & 0xFFFF_FFFF) as usize);
        heights_out.record(h);
    }
}

/// The collision continuation of [`round_small`]: some bin was sampled
/// more than once, so tentative heights need the multiplicity walk
/// (heights L+1..=L+c for a bin of load L sampled c times). Probability
/// ≈ d²/2n per round — kept out of line so the hot path stays small.
#[cold]
#[inline(never)]
fn round_small_grouped<const D: usize, St, R, S>(
    state: &mut St,
    rng: &mut R,
    heights_out: &mut S,
    balls: usize,
    mut bins: [u32; D],
) where
    St: BinStore + LoadView,
    R: RngCore + ?Sized,
    S: HeightSink + ?Sized,
{
    // Group multiplicities: insertion sort of D bin indices.
    for i in 1..D {
        let mut j = i;
        while j > 0 && bins[j - 1] > bins[j] {
            bins.swap(j - 1, j);
            j -= 1;
        }
    }
    let mut tent = [(0u32, 0u32); D]; // (height, bin)
    let mut i = 0;
    while i < D {
        let bin = bins[i];
        let base = state.view_load(bin as usize);
        let mut occ = 0u32;
        while i < D && bins[i] == bin {
            occ += 1;
            tent[i] = (base + occ, bin);
            i += 1;
        }
    }

    // Order by height (stable insertion sort keeps each bin's heights
    // ascending).
    for i in 1..D {
        let mut j = i;
        while j > 0 && tent[j - 1].0 > tent[j].0 {
            tent.swap(j - 1, j);
            j -= 1;
        }
    }

    // Lazy tie-breaking, as in the distinct path.
    shuffle_boundary_ties(&mut tent, balls, |t| t.0, rng);

    // Commit. Kept heights within a bin are downward closed, so the
    // returned heights reproduce the kept multiset in slice order.
    for t in &tent[..balls] {
        let h = state.add_ball(t.1 as usize);
        heights_out.record(h);
    }
}

impl KdChoice {
    /// One round of the process over any store the engine can read and
    /// commit: the body of [`RoundProcess::run_round`], which runs it on
    /// a [`LoadVector`]. The static drivers also run it on a packed
    /// store, so every store sees one engine and one generator stream.
    #[inline]
    pub(crate) fn run_round_on<St, R, S>(
        &mut self,
        state: &mut St,
        rng: &mut R,
        heights: &mut S,
        balls_remaining: u64,
    ) -> RoundStats
    where
        St: BinStore + LoadView,
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        // Truncate the final round if fewer than k balls remain (the paper
        // assumes k | n; this keeps the driver total-ball-exact anyway).
        let balls = (self.k as u64).min(balls_remaining.max(1)) as usize;
        // Exactly-uniform distributions (including weighted ones whose
        // weights degenerated to equal) route onto the uniform engine
        // paths, whose generator consumption predates the probe seam —
        // uniform runs are bit-identical with or without it.
        let uniform = self.probes.is_uniform();
        if self.policy == RoundPolicy::Multiplicity && uniform && self.d <= SMALL_D {
            self.round_batched_small(state, rng, heights, balls);
        } else {
            let n = state.view_n();
            if uniform {
                kdchoice_prng::sample::fill_with_replacement(rng, n, self.d, &mut self.samples);
            } else {
                self.probes.fill(rng, n, self.d, &mut self.samples);
            }
            self.commit_sampled(state, balls, rng, heights);
        }
        RoundStats {
            thrown: balls as u32,
            placed: balls as u32,
            probes: self.d as u64,
        }
    }
}

impl RoundProcess for KdChoice {
    fn name(&self) -> String {
        let base = match self.policy {
            RoundPolicy::Multiplicity => format!("({},{})-choice", self.k, self.d),
            RoundPolicy::Unrestricted => {
                format!("({},{})-choice[unrestricted]", self.k, self.d)
            }
        };
        if matches!(self.probes, ProbeDistribution::Uniform) {
            base
        } else {
            format!("{base}@{}", self.probes.label())
        }
    }

    fn run_round<R, S>(
        &mut self,
        state: &mut LoadVector,
        rng: &mut R,
        heights: &mut S,
        balls_remaining: u64,
    ) -> RoundStats
    where
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        self.run_round_on(state, rng, heights, balls_remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::Xoshiro256PlusPlus;

    fn state_with_loads(loads: &[u32]) -> LoadVector {
        let mut s = LoadVector::new(loads.len());
        for (bin, &l) in loads.iter().enumerate() {
            for _ in 0..l {
                s.add_ball(bin);
            }
        }
        s
    }

    #[test]
    fn constructor_validates() {
        assert_eq!(KdChoice::new(0, 3).unwrap_err(), ConfigError::ZeroK);
        assert_eq!(
            KdChoice::new(4, 3).unwrap_err(),
            ConfigError::KExceedsD { k: 4, d: 3 }
        );
        assert!(
            KdChoice::new(3, 3).is_ok(),
            "k = d is the SA(k,k) degenerate"
        );
        assert!(KdChoice::new(1, 1).is_ok());
    }

    #[test]
    fn name_reflects_parameters_and_policy() {
        let p = KdChoice::new(2, 3).unwrap();
        assert_eq!(p.name(), "(2,3)-choice");
        let p = p.with_policy(RoundPolicy::Unrestricted);
        assert_eq!(p.name(), "(2,3)-choice[unrestricted]");
    }

    /// Paper §1, scenario (a): (3,4)-choice, bins with loads (3,2,1,0), each
    /// sampled once. Each of bin2, bin3, bin4 receives a ball. Tie-free, so
    /// the placement is exact.
    #[test]
    fn paper_scenario_a() {
        let mut p = KdChoice::new(3, 4).unwrap();
        let mut state = state_with_loads(&[3, 2, 1, 0]);
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let mut heights = Vec::new();
        p.place_round_with_samples(&mut state, &[0, 1, 2, 3], 3, &mut rng, &mut heights);
        assert_eq!(state.loads(), &[3, 3, 2, 1]);
        let mut h = heights.clone();
        h.sort_unstable();
        assert_eq!(h, vec![1, 2, 3]);
    }

    /// Paper §1, scenario (b): bin2 and bin3 sampled once, bin4 twice.
    /// "bin3 receives a ball and bin4 receives two balls".
    #[test]
    fn paper_scenario_b() {
        let mut p = KdChoice::new(3, 4).unwrap();
        let mut state = state_with_loads(&[3, 2, 1, 0]);
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        let mut heights = Vec::new();
        p.place_round_with_samples(&mut state, &[1, 2, 3, 3], 3, &mut rng, &mut heights);
        assert_eq!(state.loads(), &[3, 2, 2, 2]);
    }

    /// Paper §1, scenario (c): bin1 sampled twice, bin4 sampled twice.
    /// "bin1 receives one ball and bin4 receives two".
    #[test]
    fn paper_scenario_c() {
        let mut p = KdChoice::new(3, 4).unwrap();
        let mut state = state_with_loads(&[3, 2, 1, 0]);
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let mut heights = Vec::new();
        p.place_round_with_samples(&mut state, &[0, 0, 3, 3], 3, &mut rng, &mut heights);
        assert_eq!(state.loads(), &[4, 2, 1, 2]);
    }

    /// §7: under the unrestricted policy in (2,3)-choice with loads
    /// (0, 2, 3), both balls go into the empty bin.
    #[test]
    fn paper_section7_unrestricted_example() {
        let mut p = KdChoice::new(2, 3)
            .unwrap()
            .with_policy(RoundPolicy::Unrestricted);
        let mut state = state_with_loads(&[0, 2, 3]);
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        let mut heights = Vec::new();
        p.place_round_with_samples(&mut state, &[0, 1, 2], 2, &mut rng, &mut heights);
        assert_eq!(state.loads(), &[2, 2, 3]);
        assert_eq!(heights, vec![1, 2]);
    }

    /// Under the multiplicity policy the same configuration splits the
    /// balls: one to the empty bin, one to the load-2 bin.
    #[test]
    fn multiplicity_policy_on_section7_example() {
        let mut p = KdChoice::new(2, 3).unwrap();
        let mut state = state_with_loads(&[0, 2, 3]);
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let mut heights = Vec::new();
        p.place_round_with_samples(&mut state, &[0, 1, 2], 2, &mut rng, &mut heights);
        assert_eq!(state.loads(), &[1, 3, 3]);
    }

    /// Reference implementation of the paper's removal formulation: place
    /// one ball per sampled slot sequentially, then remove the d−k balls of
    /// maximal height. Checked equivalent to the engine's multiplicity
    /// commit on random instances.
    fn removal_reference(loads: &[u32], samples: &[usize], k: usize) -> Vec<u32> {
        let mut loads = loads.to_vec();
        let mut placed: Vec<(u32, usize)> = Vec::new(); // (height, bin)
        for &s in samples {
            loads[s] += 1;
            placed.push((loads[s], s));
        }
        // Remove the d-k of maximal height.
        placed.sort_unstable(); // ascending by height
        for &(_, bin) in placed.iter().skip(k) {
            loads[bin] -= 1;
        }
        loads
    }

    #[test]
    fn multiplicity_matches_removal_formulation_on_random_instances() {
        use rand::Rng;
        let mut rng = Xoshiro256PlusPlus::from_u64(6);
        for trial in 0..500 {
            let n = rng.gen_range(2..12);
            let d = rng.gen_range(1..=8usize);
            let k = rng.gen_range(1..=d);
            let loads: Vec<u32> = (0..n).map(|_| rng.gen_range(0..5)).collect();
            let samples: Vec<usize> = (0..d).map(|_| rng.gen_range(0..n)).collect();

            let mut p = KdChoice::new(k, d).unwrap();
            let mut state = state_with_loads(&loads);
            let mut heights = Vec::new();
            p.place_round_with_samples(&mut state, &samples, k, &mut rng, &mut heights);

            let mut got: Vec<u32> = state.loads().to_vec();
            let mut want = removal_reference(&loads, &samples, k);
            // Compare as multisets of loads: tie-breaking may route a ball
            // to a different bin of equal height, but the sorted load vector
            // must be identical (this is the paper's state space).
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "trial {trial}: k={k} d={d} samples {samples:?}");
        }
    }

    #[test]
    fn multiplicity_cap_is_respected() {
        use rand::Rng;
        let mut rng = Xoshiro256PlusPlus::from_u64(7);
        for _ in 0..300 {
            let n = 6;
            let d = rng.gen_range(2..=10usize);
            let k = rng.gen_range(1..=d);
            let loads: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
            let samples: Vec<usize> = (0..d).map(|_| rng.gen_range(0..n)).collect();
            let mut occurrences = vec![0u32; n];
            for &s in &samples {
                occurrences[s] += 1;
            }
            let mut p = KdChoice::new(k, d).unwrap();
            let mut state = state_with_loads(&loads);
            let mut heights = Vec::new();
            p.place_round_with_samples(&mut state, &samples, k, &mut rng, &mut heights);
            for bin in 0..n {
                let gained = state.load(bin) - loads[bin];
                assert!(
                    gained <= occurrences[bin],
                    "bin {bin} sampled {} times but gained {gained}",
                    occurrences[bin]
                );
            }
            assert_eq!(
                state.total_balls() as usize,
                loads.iter().sum::<u32>() as usize + k
            );
        }
    }

    #[test]
    fn k_equals_d_places_every_sample() {
        let mut p = KdChoice::new(4, 4).unwrap();
        let mut state = state_with_loads(&[9, 0, 0, 0]);
        let mut rng = Xoshiro256PlusPlus::from_u64(8);
        let mut heights = Vec::new();
        // All four samples on the most loaded bin: all four balls stay.
        p.place_round_with_samples(&mut state, &[0, 0, 0, 0], 4, &mut rng, &mut heights);
        assert_eq!(state.load(0), 13);
        assert_eq!(heights, vec![10, 11, 12, 13]);
    }

    #[test]
    fn run_round_throws_k_and_probes_d() {
        let mut p = KdChoice::new(3, 7).unwrap();
        let mut state = LoadVector::new(100);
        let mut rng = Xoshiro256PlusPlus::from_u64(9);
        let mut heights = Vec::new();
        let stats = p.run_round(&mut state, &mut rng, &mut heights, 1000);
        assert_eq!(stats.thrown, 3);
        assert_eq!(stats.placed, 3);
        assert_eq!(stats.probes, 7);
        assert_eq!(heights.len(), 3);
        assert_eq!(state.total_balls(), 3);
    }

    #[test]
    fn large_d_batched_path_works() {
        // d > SMALL_D exercises the Vec-based lazy path.
        let mut p = KdChoice::new(20, 40).unwrap();
        let mut state = LoadVector::new(64);
        let mut rng = Xoshiro256PlusPlus::from_u64(10);
        let mut heights = Vec::new();
        let stats = p.run_round(&mut state, &mut rng, &mut heights, 1000);
        assert_eq!(stats.thrown, 20);
        assert_eq!(stats.probes, 40);
        assert_eq!(state.total_balls(), 20);
        assert!(state.check_invariants());
    }

    #[test]
    fn final_round_truncates_to_remaining() {
        let mut p = KdChoice::new(4, 6).unwrap();
        let mut state = LoadVector::new(50);
        let mut rng = Xoshiro256PlusPlus::from_u64(10);
        let mut heights = Vec::new();
        let stats = p.run_round(&mut state, &mut rng, &mut heights, 2);
        assert_eq!(stats.thrown, 2);
        assert_eq!(state.total_balls(), 2);
    }

    #[test]
    fn unrestricted_places_all_balls_even_with_one_distinct_candidate() {
        let mut p = KdChoice::new(3, 4)
            .unwrap()
            .with_policy(RoundPolicy::Unrestricted);
        let mut state = LoadVector::new(5);
        let mut rng = Xoshiro256PlusPlus::from_u64(11);
        let mut heights = Vec::new();
        p.place_round_with_samples(&mut state, &[2, 2, 2, 2], 3, &mut rng, &mut heights);
        assert_eq!(state.load(2), 3);
        assert_eq!(heights, vec![1, 2, 3]);
    }

    #[test]
    fn unrestricted_prefers_least_loaded() {
        let mut p = KdChoice::new(2, 4)
            .unwrap()
            .with_policy(RoundPolicy::Unrestricted);
        let mut state = state_with_loads(&[5, 0, 5, 5]);
        let mut rng = Xoshiro256PlusPlus::from_u64(12);
        let mut heights = Vec::new();
        p.place_round_with_samples(&mut state, &[0, 1, 2, 3], 2, &mut rng, &mut heights);
        // Both balls water-fill bin 1 (loads 1 then 2 < 5).
        assert_eq!(state.load(1), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut p = KdChoice::new(2, 5).unwrap();
            let mut state = LoadVector::new(64);
            let mut rng = Xoshiro256PlusPlus::from_u64(seed);
            let mut heights = Vec::new();
            for _ in 0..32 {
                p.run_round(&mut state, &mut rng, &mut heights, u64::MAX);
            }
            (state.sorted_descending(), heights)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn ties_between_bins_are_randomized() {
        // (1,2)-choice, two empty bins sampled: the ball should land on
        // either bin with roughly equal probability under the lazy
        // boundary tie-break.
        let mut counts = [0u32; 2];
        let mut rng = Xoshiro256PlusPlus::from_u64(13);
        for _ in 0..4000 {
            let mut p = KdChoice::new(1, 2).unwrap();
            let mut state = LoadVector::new(2);
            let mut heights = Vec::new();
            p.place_round_with_samples(&mut state, &[0, 1], 1, &mut rng, &mut heights);
            if state.load(0) == 1 {
                counts[0] += 1;
            } else {
                counts[1] += 1;
            }
        }
        let f = f64::from(counts[0]) / 4000.0;
        assert!((f - 0.5).abs() < 0.05, "tie frequency {f}");
    }
}
