//! Deterministic run drivers: single runs, parallel multi-trial sets, and
//! the parallel (config × seed) sweep runner.
//!
//! Every driver is generic over [`RoundProcess`], so driving a concrete
//! process monomorphizes the whole round loop (no dynamic dispatch per
//! probe).

use std::collections::BTreeMap;

use kdchoice_expt::SweepRunner;
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use rand::{Error, RngCore};

use crate::compact::{BinSlab, PackedStore, StoreKind};
use crate::kd::KdChoice;
use crate::probes::ProbeDistribution;
use crate::process::{HeightSink, RoundProcess, RoundStats};
use crate::snapshot::LoadView;
use crate::state::LoadVector;
use crate::store::BinStore;

/// How many raw generator outputs the static fills read ahead of the
/// rounds that consume them: a (2,4) round draws about four, so a probe's
/// cache line is requested some eight rounds before it is read. A sweep
/// over 16, 32 and 64 on an n = 2^24 fill found the three within noise.
const LOOKAHEAD: usize = 32;

/// Resident table bytes from which the static fills read ahead, on an
/// exact or a packed table alike, and advise huge pages for the table
/// before the first round touches it. A smaller table stays in cache,
/// where a probe costs a few nanoseconds and the ring's per-value
/// bookkeeping costs more than the wait it hides. On a 2-vCPU Xeon with
/// 4 MiB of L2 per core, (2,4) fills lost at 256 KiB and won clearly
/// from 8 MiB (n = 2^21 exact loads). From the same size a probe's page
/// walk is worth saving: on that host, in THP mode `madvise`, 2 MiB
/// pages raised the n = 2^24 exact-plus-packed4 fill rate 27%. A
/// sparsely touched advised table holds whole 2 MiB pages where it
/// would hold 4 KiB ones.
const LOOKAHEAD_MIN_TABLE_BYTES: u64 = 8 << 20;

/// The table a static fill runs over, as [`fill_gated`] sizes and
/// prepares it.
pub(crate) trait FillTable {
    /// Resident table bytes, compared with [`LOOKAHEAD_MIN_TABLE_BYTES`].
    fn table_bytes(&self) -> u64;

    /// Advises huge pages for the array the fill's probes land in
    /// ([`advise_huge_pages`](crate::snapshot::advise_huge_pages)).
    fn advise_huge_pages(&self);
}

/// A generator [`fill_on`] draws its rounds from. Between rounds it
/// calls `top_up`, which may draw values ahead and hand each to `hint`;
/// the plain generator draws nothing ahead.
trait RoundRng: RngCore {
    fn top_up(&mut self, hint: impl FnMut(u64));
}

impl RoundRng for Xoshiro256PlusPlus {
    #[inline]
    fn top_up(&mut self, _hint: impl FnMut(u64)) {}
}

/// The driver's generator: the run's xoshiro256++ stream, read through a
/// ring of up to [`LOOKAHEAD`] outputs drawn ahead of time.
///
/// Every `RngCore` call pops the ring before falling back to the inner
/// generator, so consumers read exactly the stream a plain generator of
/// the same seed yields. Between rounds the driver calls
/// [`RoundRng::top_up`], which refills the ring and hands each new raw
/// value to a hint; the driver maps it to the bin a uniform probe would
/// draw from it ([`hinted_bin`]) and prefetches that bin's cache line.
/// Values later spent as tie keys or by weighted samplers make wasted
/// hints, which never change a result.
struct LookAhead {
    inner: Xoshiro256PlusPlus,
    ring: [u64; LOOKAHEAD],
    /// Free-running pop and push counters; `tail - head` values are
    /// buffered, oldest at `head % LOOKAHEAD`.
    head: usize,
    tail: usize,
}

impl LookAhead {
    fn new(seed: u64) -> Self {
        Self {
            inner: Xoshiro256PlusPlus::from_u64(seed),
            ring: [0; LOOKAHEAD],
            head: 0,
            tail: 0,
        }
    }

    /// Outputs drawn from the inner generator but not yet consumed.
    #[inline]
    fn buffered(&self) -> usize {
        self.tail.wrapping_sub(self.head)
    }

    /// The draw of an empty ring, kept out of line: inlined into every
    /// pop, it cost the cache-resident (2,4) fills about a tenth of their
    /// speed.
    #[cold]
    #[inline(never)]
    fn draw_through(&mut self) -> u64 {
        self.inner.next()
    }
}

impl RoundRng for LookAhead {
    /// Refills the ring, passing each newly drawn raw value to `hint` in
    /// stream order.
    #[inline]
    fn top_up(&mut self, mut hint: impl FnMut(u64)) {
        while self.buffered() < LOOKAHEAD {
            let raw = self.inner.next();
            self.ring[self.tail % LOOKAHEAD] = raw;
            self.tail = self.tail.wrapping_add(1);
            hint(raw);
        }
    }
}

impl RngCore for LookAhead {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.head == self.tail {
            return self.draw_through();
        }
        let raw = self.ring[self.head % LOOKAHEAD];
        self.head = self.head.wrapping_add(1);
        raw
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// The bin in `0..n` a uniform probe draws from `raw`: the widening
/// multiply of `UniformBin::map_raw`, which agrees with it outside its
/// probability-`n/2^64` rejection band.
#[inline]
fn hinted_bin(raw: u64, n: usize) -> usize {
    ((u128::from(raw) * n as u128) >> 64) as usize
}

/// Configuration of one simulation run.
///
/// ```
/// use kdchoice_core::RunConfig;
///
/// // n balls into n bins (the paper's standard case)...
/// let cfg = RunConfig::new(1024, 42);
/// assert_eq!(cfg.balls, 1024);
/// // ...or the heavily loaded case m > n (Theorem 2).
/// let heavy = RunConfig::new(1024, 42).with_balls(8 * 1024);
/// assert_eq!(heavy.balls, 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Number of bins `n`.
    pub n: usize,
    /// Number of balls to throw (defaults to `n`).
    pub balls: u64,
    /// Master seed; every run is a pure function of `(process, config)`.
    pub seed: u64,
}

impl RunConfig {
    /// `n` balls into `n` bins with the given seed.
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            n,
            balls: n as u64,
            seed,
        }
    }

    /// Overrides the number of balls (the heavily loaded case when
    /// `balls > n`).
    #[must_use]
    pub fn with_balls(mut self, balls: u64) -> Self {
        self.balls = balls;
        self
    }

    /// Overrides the seed (convenient when sweeping a config across seeds).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// An inline ball-height histogram: the [`HeightSink`] the drivers pass to
/// [`RoundProcess::run_round`], accumulating `height_histogram[h]` counts
/// without materializing a per-round `Vec` of heights.
#[derive(Debug, Clone, Default)]
pub struct HeightHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl HeightHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts indexed by height; entry `h` is the number of recorded balls
    /// of height `h`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded heights.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Consumes the histogram, returning the counts vector.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }
}

impl HeightSink for HeightHistogram {
    #[inline]
    fn record(&mut self, height: u32) {
        let idx = height as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }
}

/// The outcome of one run: the paper's observables plus accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The process's self-reported name.
    pub name: String,
    /// Number of bins.
    pub n: usize,
    /// Balls thrown (= `config.balls`).
    pub balls_thrown: u64,
    /// Balls actually placed (smaller only for discarding processes).
    pub balls_placed: u64,
    /// The maximum bin load `M`.
    pub max_load: u32,
    /// `max_load − balls_placed/n`, the heavily-loaded-case gap.
    pub gap: f64,
    /// Total probe messages (footnote 1 of the paper).
    pub messages: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// `load_histogram[l]` = number of bins that ended with exactly `l`
    /// balls; suffix sums give ν_y.
    pub load_histogram: Vec<u64>,
    /// `height_histogram[h]` = number of placed balls with height `h`;
    /// suffix sums give µ_y.
    pub height_histogram: Vec<u64>,
    /// The seed this run used.
    pub seed: u64,
}

impl RunResult {
    /// `ν_y`: bins that ended with at least `y` balls.
    pub fn nu(&self, y: u32) -> u64 {
        let from = (y as usize).min(self.load_histogram.len());
        self.load_histogram[from..].iter().sum()
    }

    /// `µ_y`: placed balls with height at least `y`.
    pub fn mu(&self, y: u32) -> u64 {
        let from = (y as usize).min(self.height_histogram.len());
        self.height_histogram[from..].iter().sum()
    }

    /// Messages per placed ball.
    pub fn messages_per_ball(&self) -> f64 {
        if self.balls_placed == 0 {
            0.0
        } else {
            self.messages as f64 / self.balls_placed as f64
        }
    }
}

/// Runs `process` until `config.balls` balls have been thrown, returning the
/// result. See [`run_once_with_state`] to also keep the final bin state.
pub fn run_once<P: RoundProcess + ?Sized>(process: &mut P, config: &RunConfig) -> RunResult {
    run_once_with_state(process, config).0
}

/// Like [`run_once`], additionally returning the final [`LoadVector`]
/// (needed by the figure benches, which plot the full sorted load vector).
///
/// Heights are histogrammed inline through a [`HeightHistogram`] sink — the
/// non-coupling path allocates no per-round height buffer. On a table of
/// 8 MiB or more the driver prefetches, between rounds, the bins the next
/// rounds' uniform probes will read, from generator outputs it draws
/// ahead of time; the process still reads the seed's plain xoshiro256++
/// stream, so results are the same at every size.
///
/// # Panics
///
/// Panics if the process reports a round with zero thrown balls (no
/// progress), or throws more balls than requested.
pub fn run_once_with_state<P: RoundProcess + ?Sized>(
    process: &mut P,
    config: &RunConfig,
) -> (RunResult, LoadVector) {
    run_once_on(process, config, LoadVector::new(config.n))
}

/// Like [`run_once_with_state`], but runs on a caller-supplied **empty**
/// state — the hook the heterogeneous scenarios use to drive a process
/// over [`LoadVector::with_capacities`] bins while keeping every driver
/// invariant (per-round progress, inline height histogramming, the
/// determinism contract) in one place.
///
/// # Panics
///
/// Panics if `state.n() != config.n` or `state` already holds balls, and
/// under the same conditions as [`run_once_with_state`].
pub fn run_once_on<P: RoundProcess + ?Sized>(
    process: &mut P,
    config: &RunConfig,
    state: LoadVector,
) -> (RunResult, LoadVector) {
    assert_eq!(state.n(), config.n, "state/config bin-count mismatch");
    assert_eq!(state.total_balls(), 0, "state must start empty");
    let (result, state) = fill_gated(process, config, state);
    debug_assert!(state.check_invariants());
    (result, state)
}

/// A process [`fill_on`] can run over the store `St`: every
/// [`RoundProcess`] over an exact [`LoadVector`], and [`KdChoice`]'s
/// round engine over a [`PackedStore`] as well.
trait StoreRounds<St>: RoundProcess {
    fn round_on<R: RngCore>(
        &mut self,
        state: &mut St,
        rng: &mut R,
        heights: &mut HeightHistogram,
        balls_remaining: u64,
    ) -> RoundStats;
}

impl<P: RoundProcess + ?Sized> StoreRounds<LoadVector> for P {
    #[inline]
    fn round_on<R: RngCore>(
        &mut self,
        state: &mut LoadVector,
        rng: &mut R,
        heights: &mut HeightHistogram,
        balls_remaining: u64,
    ) -> RoundStats {
        self.run_round(state, rng, heights, balls_remaining)
    }
}

impl StoreRounds<PackedStore> for KdChoice {
    #[inline]
    fn round_on<R: RngCore>(
        &mut self,
        state: &mut PackedStore,
        rng: &mut R,
        heights: &mut HeightHistogram,
        balls_remaining: u64,
    ) -> RoundStats {
        self.run_round_on(state, rng, heights, balls_remaining)
    }
}

/// [`fill_on`] from the seed's generator. When the table holds at least
/// [`LOOKAHEAD_MIN_TABLE_BYTES`], the table is first advised huge pages
/// and the generator is read through a [`LookAhead`].
fn fill_gated<St, P>(process: &mut P, config: &RunConfig, state: St) -> (RunResult, St)
where
    St: BinStore + LoadView + FillTable,
    P: StoreRounds<St> + ?Sized,
{
    if state.table_bytes() >= LOOKAHEAD_MIN_TABLE_BYTES {
        state.advise_huge_pages();
        fill_on(process, config, state, LookAhead::new(config.seed))
    } else {
        fill_on(
            process,
            config,
            state,
            Xoshiro256PlusPlus::from_u64(config.seed),
        )
    }
}

/// The static round loop, drawing from `rng`: the one loop every static
/// fill runs, over an exact or a packed table.
fn fill_on<St, P, R>(
    process: &mut P,
    config: &RunConfig,
    mut state: St,
    mut rng: R,
) -> (RunResult, St)
where
    St: BinStore + LoadView,
    P: StoreRounds<St> + ?Sized,
    R: RoundRng,
{
    process.reset();
    let n = config.n;
    let mut heights = HeightHistogram::new();
    let mut thrown = 0u64;
    let mut placed = 0u64;
    let mut messages = 0u64;
    let mut rounds = 0u64;
    while thrown < config.balls {
        rng.top_up(|raw| state.prefetch(hinted_bin(raw, n)));
        let stats = process.round_on(&mut state, &mut rng, &mut heights, config.balls - thrown);
        assert!(stats.thrown > 0, "process made no progress in a round");
        thrown += u64::from(stats.thrown);
        assert!(thrown <= config.balls, "process overshot the ball budget");
        placed += u64::from(stats.placed);
        messages += stats.probes;
        rounds += 1;
        debug_assert_eq!(heights.total(), placed);
    }
    debug_assert_eq!(state.total_balls(), placed);
    let result = RunResult {
        name: process.name(),
        n: config.n,
        balls_thrown: thrown,
        balls_placed: placed,
        max_load: state.max_load(),
        gap: state.max_load() as f64 - placed as f64 / config.n as f64,
        messages,
        rounds,
        load_histogram: state.histogram(),
        height_histogram: heights.into_counts(),
        seed: config.seed,
    };
    (result, state)
}

/// Runs a static (k,d)-choice fill over a **memory-bounded** [`BinSlab`]
/// instead of an exact [`LoadVector`] — the driver behind the `store=`
/// axis of the `static`/`hetero` scenarios and the 10^8-bin frontier
/// rows of the `gap_vs_bytes` bench.
///
/// The fill is `KdChoice::new(k, d)` with `probes`, run through the same
/// round loop as [`run_once_on`] on the slab's own store, with the same
/// look-ahead from 8 MiB of resident table. So an exact slab gives the
/// [`run_once_on`] fill over a [`LoadVector`] of the same capacities,
/// and so does a packed slab for as long as it reports lossless. Past a
/// clamp, a packed slab decides on its quantized loads, and heights
/// are the quantized heights it returns. The result is named
/// `<process name>@<store>`.
///
/// Returns the final slab alongside the result so callers can read the
/// normalized observables (`max_utilization`, `bytes_per_bin`, ...).
///
/// # Panics
///
/// Panics unless `1 <= k <= d`, `config.n > 0`, and any capacity map
/// has length `config.n`.
pub fn run_once_compact(
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
    let slab = match capacities {
        None => kind.new_slab(n),
        Some(caps) => {
            assert_eq!(caps.len(), n, "capacity map/bin-count mismatch");
            kind.slab_with_capacities(caps)
        }
    };
    let mut process = KdChoice::new(k, d)
        .expect("1 <= k <= d")
        .with_probes(probes.clone());
    let (mut result, slab) = match slab {
        BinSlab::Exact(state) => {
            let (result, state) = fill_gated(&mut process, config, state);
            (result, BinSlab::Exact(state))
        }
        BinSlab::Packed(store) => {
            let (result, store) = fill_gated(&mut process, config, store);
            (result, BinSlab::Packed(store))
        }
    };
    debug_assert!(slab.check_invariants());
    result.name = format!("{}@{kind}", result.name);
    (result, slab)
}

/// A collection of independent trials of the same process configuration.
#[derive(Debug, Clone)]
pub struct TrialSet {
    /// Per-trial results, ordered by trial index.
    pub results: Vec<RunResult>,
}

impl TrialSet {
    /// Frequency map of observed maximum loads, e.g. `{3: 7, 4: 3}` for
    /// Table 1's "3, 4" cells.
    pub fn max_load_counts(&self) -> BTreeMap<u32, usize> {
        let mut map = BTreeMap::new();
        for r in &self.results {
            *map.entry(r.max_load).or_insert(0) += 1;
        }
        map
    }

    /// The distinct observed maximum loads formatted the way the paper's
    /// Table 1 reports them: `"3, 4"`.
    pub fn max_load_set_string(&self) -> String {
        self.max_load_counts()
            .keys()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Observed max loads as f64 samples (for the statistical tests).
    pub fn max_loads_f64(&self) -> Vec<f64> {
        self.results.iter().map(|r| f64::from(r.max_load)).collect()
    }

    /// Mean of the per-trial maximum loads.
    pub fn mean_max_load(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results
            .iter()
            .map(|r| f64::from(r.max_load))
            .sum::<f64>()
            / self.results.len() as f64
    }

    /// Mean of the per-trial gaps (heavy-case observable).
    pub fn mean_gap(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results.iter().map(|r| r.gap).sum::<f64>() / self.results.len() as f64
    }

    /// The final sorted load vectors of every trial (descending), for the
    /// majorization experiments.
    pub fn sorted_load_vectors(&self) -> Vec<Vec<u32>> {
        self.results
            .iter()
            .map(|r| {
                let mut v = Vec::with_capacity(r.n);
                for (load, &count) in r.load_histogram.iter().enumerate() {
                    for _ in 0..count {
                        v.push(load as u32);
                    }
                }
                v.sort_unstable_by(|a, b| b.cmp(a));
                v
            })
            .collect()
    }
}

/// Runs `trials` independent trials in parallel threads.
///
/// Trial `i` uses the derived seed `derive_seed(config.seed, i)`, so the
/// result set is deterministic regardless of thread count, and
/// `factory(i)` builds a fresh process per trial.
///
/// The factory returns the process **by value**, as [`run_sweep`]'s does,
/// so the whole trial loop is monomorphized and nothing is boxed.
///
/// ```
/// use kdchoice_core::{run_trials, KdChoice, RunConfig};
///
/// let set = run_trials(
///     |_| KdChoice::new(2, 3).expect("valid"),
///     &RunConfig::new(1 << 10, 99),
///     10,
/// );
/// assert_eq!(set.results.len(), 10);
/// // Deterministic: same seed, same outcome set.
/// let again = run_trials(
///     |_| KdChoice::new(2, 3).expect("valid"),
///     &RunConfig::new(1 << 10, 99),
///     10,
/// );
/// assert_eq!(set.max_load_counts(), again.max_load_counts());
/// ```
pub fn run_trials<P, F>(factory: F, config: &RunConfig, trials: usize) -> TrialSet
where
    P: RoundProcess,
    F: Fn(usize) -> P + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(trials.max(1));
    let mut results: Vec<Option<RunResult>> = vec![None; trials];
    let chunk = trials.div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        for (t, slot_chunk) in results.chunks_mut(chunk.max(1)).enumerate() {
            let factory = &factory;
            let base = t * chunk.max(1);
            scope.spawn(move || {
                for (off, slot) in slot_chunk.iter_mut().enumerate() {
                    let trial = base + off;
                    let mut process = factory(trial);
                    let cfg = RunConfig {
                        seed: derive_seed(config.seed, trial as u64),
                        ..*config
                    };
                    *slot = Some(run_once(&mut process, &cfg));
                }
            });
        }
    });
    TrialSet {
        results: results
            .into_iter()
            .map(|r| r.expect("all trials completed"))
            .collect(),
    }
}

/// Runs a (config × trial) grid across threads, returning one [`TrialSet`]
/// per config, in config order.
///
/// `factory(config_index, trial_index)` builds a fresh process **by
/// value** — the grid is fully monomorphized, with no boxing anywhere.
/// Trial `t` of config `c` uses the derived seed
/// `derive_seed(configs[c].seed, t)`, identical to what [`run_trials`]
/// would use for that config alone, so sweep cells are reproducible in
/// isolation. Scheduling is delegated to `kdchoice_expt::SweepRunner` —
/// the workspace-wide work-stealing grid executor — so heterogeneous
/// configs (say n = 2¹⁰ next to n = 2²⁰) still keep all cores busy.
/// Heights are histogrammed inline; no per-round buffers.
///
/// ```
/// use kdchoice_core::{run_sweep, run_trials, KdChoice, RunConfig};
///
/// let configs = [RunConfig::new(512, 7), RunConfig::new(1024, 8)];
/// let sweep = run_sweep(|_c, _t| KdChoice::new(2, 3).expect("valid"), &configs, 5);
/// assert_eq!(sweep.len(), 2);
/// // Cell (0) reproduces a standalone run_trials of the same config.
/// let alone = run_trials(
///     |_| KdChoice::new(2, 3).expect("valid"),
///     &configs[0],
///     5,
/// );
/// assert_eq!(sweep[0].max_load_counts(), alone.max_load_counts());
/// ```
pub fn run_sweep<P, F>(factory: F, configs: &[RunConfig], trials: usize) -> Vec<TrialSet>
where
    P: RoundProcess,
    F: Fn(usize, usize) -> P + Sync,
{
    SweepRunner::new()
        .run_grid(configs, trials, |config, config_idx, trial| {
            let mut process = factory(config_idx, trial);
            let cfg = RunConfig {
                seed: derive_seed(config.seed, trial as u64),
                ..*config
            };
            run_once(&mut process, &cfg)
        })
        .into_iter()
        .map(|results| TrialSet { results })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kd::KdChoice;
    use crate::process::{HeightSink, RoundProcess, RoundStats};
    use rand::RngCore;

    #[test]
    fn run_once_conserves_balls_and_messages() {
        let mut p = KdChoice::new(2, 3).unwrap();
        let cfg = RunConfig::new(1 << 12, 11);
        let r = run_once(&mut p, &cfg);
        assert_eq!(r.balls_thrown, 1 << 12);
        assert_eq!(r.balls_placed, 1 << 12);
        assert_eq!(r.rounds, (1 << 12) / 2);
        assert_eq!(r.messages, r.rounds * 3);
        assert_eq!(r.nu(0), 1 << 12);
        assert_eq!(r.mu(1), r.balls_placed);
        assert_eq!(r.mu(0), r.balls_placed); // no ball has height 0
        assert!((r.messages_per_ball() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histograms_are_consistent_with_max_load() {
        let mut p = KdChoice::new(1, 2).unwrap();
        let cfg = RunConfig::new(1 << 12, 3);
        let r = run_once(&mut p, &cfg);
        assert_eq!(r.nu(r.max_load), r.load_histogram[r.max_load as usize]);
        assert_eq!(r.nu(r.max_load + 1), 0);
        // Ball heights cannot exceed max load.
        assert_eq!(r.mu(r.max_load + 1), 0);
        assert!(r.mu(r.max_load) >= 1);
        // Sum of load histogram = n; weighted sum = balls.
        let bins: u64 = r.load_histogram.iter().sum();
        assert_eq!(bins, r.n as u64);
        let balls: u64 = r
            .load_histogram
            .iter()
            .enumerate()
            .map(|(l, &c)| l as u64 * c)
            .sum();
        assert_eq!(balls, r.balls_placed);
    }

    #[test]
    fn mu_equals_nu_relationship() {
        // For any y: ν_y ≤ µ_y (each bin with ≥ y balls contributes at least
        // one ball of height ≥ y) — the inequality used in Theorem 3.
        let mut p = KdChoice::new(4, 6).unwrap();
        let cfg = RunConfig::new(1 << 12, 17);
        let r = run_once(&mut p, &cfg);
        for y in 0..=r.max_load {
            assert!(r.nu(y) <= r.mu(y), "nu > mu at y={y}");
        }
    }

    #[test]
    fn heavy_case_runs_m_over_k_rounds() {
        let mut p = KdChoice::new(2, 4).unwrap();
        let cfg = RunConfig::new(256, 5).with_balls(4 * 256);
        let r = run_once(&mut p, &cfg);
        assert_eq!(r.balls_placed, 1024);
        assert_eq!(r.rounds, 512);
        assert!(r.gap >= 0.0);
        assert!((r.gap - (r.max_load as f64 - 4.0)).abs() < 1e-12);
    }

    #[test]
    fn run_with_state_returns_matching_state() {
        let mut p = KdChoice::new(2, 3).unwrap();
        let cfg = RunConfig::new(512, 8);
        let (r, state) = run_once_with_state(&mut p, &cfg);
        assert_eq!(state.max_load(), r.max_load);
        assert_eq!(state.total_balls(), r.balls_placed);
        assert_eq!(state.load_histogram(), &r.load_histogram[..]);
    }

    #[test]
    fn height_histogram_records_and_resizes() {
        let mut h = HeightHistogram::new();
        h.record(3);
        h.record(1);
        h.record(3);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts(), &[0, 1, 0, 2]);
        assert_eq!(h.into_counts(), vec![0, 1, 0, 2]);
    }

    #[test]
    fn trials_are_deterministic_and_ordered() {
        let cfg = RunConfig::new(512, 100);
        let a = run_trials(|_| KdChoice::new(2, 3).unwrap(), &cfg, 8);
        let b = run_trials(|_| KdChoice::new(2, 3).unwrap(), &cfg, 8);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.max_load, y.max_load);
            assert_eq!(x.seed, y.seed);
        }
        // Different trials use different seeds.
        assert_ne!(a.results[0].seed, a.results[1].seed);
    }

    #[test]
    fn trial_set_aggregations() {
        let cfg = RunConfig::new(1 << 12, 7);
        let set = run_trials(|_| KdChoice::new(1, 2).unwrap(), &cfg, 10);
        let counts = set.max_load_counts();
        let total: usize = counts.values().sum();
        assert_eq!(total, 10);
        assert!(!set.max_load_set_string().is_empty());
        assert!(set.mean_max_load() >= 2.0);
        assert!(set.mean_gap() > 0.0);
        assert_eq!(set.max_loads_f64().len(), 10);
        // Two-choice at n=4096: max load should be small.
        assert!(set.mean_max_load() <= 6.0);
    }

    #[test]
    fn sorted_load_vectors_reconstruct_n_entries() {
        let cfg = RunConfig::new(256, 9);
        let set = run_trials(|_| KdChoice::new(2, 3).unwrap(), &cfg, 3);
        for v in set.sorted_load_vectors() {
            assert_eq!(v.len(), 256);
            assert!(v.windows(2).all(|w| w[0] >= w[1]), "must be descending");
            assert_eq!(v.iter().map(|&x| u64::from(x)).sum::<u64>(), 256);
        }
    }

    #[test]
    fn sweep_matches_run_trials_cell_by_cell() {
        let configs = [
            RunConfig::new(256, 5),
            RunConfig::new(512, 6),
            RunConfig::new(256, 7).with_balls(1024),
        ];
        let sweep = run_sweep(|_, _| KdChoice::new(2, 4).unwrap(), &configs, 4);
        assert_eq!(sweep.len(), 3);
        for (cell, cfg) in sweep.iter().zip(&configs) {
            let alone = run_trials(|_| KdChoice::new(2, 4).unwrap(), cfg, 4);
            assert_eq!(cell.results.len(), 4);
            for (a, b) in cell.results.iter().zip(&alone.results) {
                assert_eq!(a.max_load, b.max_load);
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.load_histogram, b.load_histogram);
                assert_eq!(a.height_histogram, b.height_histogram);
            }
        }
    }

    #[test]
    fn sweep_with_zero_trials_yields_empty_cells() {
        let configs = [RunConfig::new(64, 1)];
        let sweep = run_sweep(|_, _| KdChoice::new(1, 2).unwrap(), &configs, 0);
        assert_eq!(sweep.len(), 1);
        assert!(sweep[0].results.is_empty());
    }

    #[test]
    fn sweep_factory_sees_grid_coordinates() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        let configs = [RunConfig::new(64, 1), RunConfig::new(64, 2)];
        let _ = run_sweep(
            |c, t| {
                assert!(c < 2 && t < 3);
                hits.fetch_add(1, Ordering::Relaxed);
                KdChoice::new(1, 2).unwrap()
            },
            &configs,
            3,
        );
        assert_eq!(hits.load(Ordering::Relaxed), 6);
    }

    /// Bin counts the hint property runs over: powers of two and not.
    const HINT_NS: [usize; 6] = [1, 7, 1000, 1024, 1 << 20, 3 << 30];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Random interleavings of every `RngCore` call, uniform fills
        /// and `top_up` — with bursts longer than the ring — read the
        /// plain generator's stream; the hint sees each value drawn into
        /// the ring once, in stream order, and maps it to the bin
        /// `fill_with_replacement` probes with it.
        #[test]
        fn look_ahead_reads_the_plain_stream_and_hints_every_ring_value(
            seed in 0..u64::MAX,
            n_idx in 0..HINT_NS.len(),
            ops in proptest::collection::vec((0..6u8, 0..=17usize, 0..3 * LOOKAHEAD), 1..80),
        ) {
            let n = HINT_NS[n_idx];
            let mut la = LookAhead::new(seed);
            let mut plain = Xoshiro256PlusPlus::from_u64(seed);
            let mut stream = Xoshiro256PlusPlus::from_u64(seed);
            // `values[i]` is the stream's i-th output; `hinted[i]` the bin
            // the hint mapped it to, if it went through the ring.
            let (mut values, mut hinted) = (Vec::new(), Vec::<Option<usize>>::new());
            // Outputs consumed so far, counted in u64 words.
            let mut consumed = 0usize;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (op, len, burst) in ops {
                match op {
                    0 => {
                        proptest::prop_assert_eq!(la.next_u64(), plain.next_u64());
                        consumed += 1;
                    }
                    1 => {
                        proptest::prop_assert_eq!(la.next_u32(), plain.next_u32());
                        consumed += 1;
                    }
                    2 | 3 => {
                        let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
                        if op == 2 {
                            la.fill_bytes(&mut a);
                        } else {
                            la.try_fill_bytes(&mut a).unwrap();
                        }
                        plain.fill_bytes(&mut b);
                        proptest::prop_assert_eq!(a, b);
                        consumed += len.div_ceil(8);
                    }
                    4 => {
                        kdchoice_prng::sample::fill_with_replacement(&mut la, n, burst, &mut got);
                        kdchoice_prng::sample::fill_with_replacement(&mut plain, n, burst, &mut want);
                        proptest::prop_assert_eq!(&got, &want);
                        while values.len() < consumed + burst {
                            values.push(stream.next());
                            hinted.push(None);
                        }
                        for (i, &bin) in got.iter().enumerate() {
                            if let Some(hint) = hinted[consumed + i] {
                                proptest::prop_assert_eq!(hint, bin);
                            }
                        }
                        consumed += burst;
                    }
                    _ => {
                        // The ring continues the stream where the inner
                        // generator stands: right after what is buffered.
                        let mut next = consumed + la.buffered();
                        la.top_up(|raw| {
                            while values.len() <= next {
                                values.push(stream.next());
                                hinted.push(None);
                            }
                            assert_eq!(raw, values[next], "hint out of stream order");
                            assert!(hinted[next].is_none(), "value hinted twice");
                            hinted[next] = Some(hinted_bin(raw, n));
                            next += 1;
                        });
                        proptest::prop_assert_eq!(la.buffered(), LOOKAHEAD);
                        proptest::prop_assert_eq!(next, consumed + LOOKAHEAD);
                    }
                }
            }
            proptest::prop_assert_eq!(la.next_u64(), plain.next_u64());
        }

        /// `run_once_on` gives the same result and final table whether it
        /// draws through a `LookAhead` or the plain generator, for both
        /// `KdChoice` policies, the serialized process (tie keys plus a
        /// random permutation per round), every probe law and capacity
        /// map: the size gate that picks between them can change speed
        /// only.
        #[test]
        fn static_fills_agree_with_and_without_look_ahead(
            seed in 0..u64::MAX,
            k in 1..=8usize,
            extra in 0..=8usize,
            n_idx in 0..5usize,
            balls in 0..1500u64,
            variant in 0..3u8,
            zipf in 0..2u8,
            capacities in 0..2u8,
        ) {
            let (d, n) = (k + extra, [1, 7, 64, 1000, 4096][n_idx]);
            let config = RunConfig::new(n, seed).with_balls(balls);
            let mut kd = KdChoice::new(k, d).unwrap();
            if zipf == 1 {
                kd = kd.with_probes(ProbeDistribution::zipf(n, 1.0).unwrap());
            }
            let caps: Vec<u32> = (0..n).map(|i| 1 + (i % 3) as u32).collect();
            let state = || {
                if capacities == 1 {
                    LoadVector::with_capacities(&caps)
                } else {
                    LoadVector::new(n)
                }
            };
            let [ahead, plain] = match variant {
                0 => fills_with_and_without_look_ahead(kd, &config, state, seed),
                1 => fills_with_and_without_look_ahead(
                    crate::SerializedKdChoice::new(k, d, crate::SigmaSchedule::UniformRandom)
                        .unwrap(),
                    &config,
                    state,
                    seed,
                ),
                _ => fills_with_and_without_look_ahead(
                    kd.with_policy(crate::policy::RoundPolicy::Unrestricted),
                    &config,
                    state,
                    seed,
                ),
            };
            proptest::prop_assert_eq!(ahead, plain);
        }
    }

    /// Fills `state()` with `process` twice from `seed`: once drawing
    /// through a `LookAhead`, once through the plain generator. Returns
    /// each run's result (as its `Debug` text) and final table.
    fn fills_with_and_without_look_ahead<P: RoundProcess>(
        mut process: P,
        config: &RunConfig,
        state: impl Fn() -> LoadVector,
        seed: u64,
    ) -> [(String, LoadVector); 2] {
        let (ahead, ahead_state) = fill_on(&mut process, config, state(), LookAhead::new(seed));
        let (plain, plain_state) = fill_on(
            &mut process,
            config,
            state(),
            Xoshiro256PlusPlus::from_u64(seed),
        );
        [
            (format!("{ahead:?}"), ahead_state),
            (format!("{plain:?}"), plain_state),
        ]
    }

    /// Set in the fresh process that
    /// `fills_from_the_gate_are_backed_by_huge_pages` re-runs itself in.
    #[cfg(target_os = "linux")]
    const FRESH_PROCESS: &str = "KDCHOICE_THP_TEST_FRESH_PROCESS";

    /// A fill at the 8 MiB gate advises its table, so the kernel backs it
    /// with 2 MiB pages; a fill below the gate does not ask. Measured as
    /// `AnonHugePages` of each table's mapping in `/proc/self/smaps`.
    #[cfg(target_os = "linux")]
    #[test]
    fn fills_from_the_gate_are_backed_by_huge_pages() {
        const NAME: &str = "driver::tests::fills_from_the_gate_are_backed_by_huge_pages";
        if std::env::var_os(FRESH_PROCESS).is_none() {
            // Once other tests in this process free large tables, the
            // allocator may serve later ones from reused memory whose
            // pages are already touched, and advice does not convert
            // those at once. A fresh process running this test alone
            // maps both tables anew.
            let exe = std::env::current_exe().expect("the test binary's path");
            let out = std::process::Command::new(exe)
                .args(["--exact", NAME, "--nocapture", "--test-threads=1"])
                .env(FRESH_PROCESS, "1")
                .output()
                .expect("re-run the test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.contains("1 passed"), "the re-run ran no test");
            return;
        }
        let Ok(enabled) = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        else {
            println!("skipped: THP mode unreadable");
            return;
        };
        let Some(mode) = enabled
            .split_whitespace()
            .find_map(|w| w.strip_prefix('[')?.strip_suffix(']'))
        else {
            println!("skipped: no THP mode in {enabled:?}");
            return;
        };
        if mode == "never" {
            println!("skipped: THP mode is `never`");
            return;
        }
        let fill = |n: usize| {
            let config = RunConfig::new(n, 7).with_balls(1 << 12);
            let (_, state) = run_once_on(
                &mut KdChoice::new(2, 4).unwrap(),
                &config,
                LoadVector::new(n),
            );
            state
        };
        // Both stay alive, so neither mapping is freed and reused.
        let below = fill(1 << 20);
        let gated = fill(1 << 21);
        assert_eq!(below.store_bytes() * 2, LOOKAHEAD_MIN_TABLE_BYTES);
        assert_eq!(gated.store_bytes(), LOOKAHEAD_MIN_TABLE_BYTES);
        let Ok(smaps) = std::fs::read_to_string("/proc/self/smaps") else {
            println!("skipped: /proc/self/smaps unreadable");
            return;
        };
        let huge_kb = |table: &LoadVector| {
            let loads = table.loads();
            let interior = crate::snapshot::huge_page_interior(
                loads.as_ptr() as usize,
                std::mem::size_of_val(loads),
            )
            .expect("a table of 4 MiB or more holds a whole 2 MiB page");
            anon_huge_pages_kb(&smaps, interior.start).expect("the table's mapping in smaps")
        };
        let (below_kb, gated_kb) = (huge_kb(&below), huge_kb(&gated));
        println!("THP mode `{mode}`: AnonHugePages {gated_kb} kB at 8 MiB, {below_kb} kB at 4 MiB");
        assert!(gated_kb > 0, "the gated table got no huge page");
        if mode == "madvise" {
            assert_eq!(below_kb, 0, "the table below the gate got huge pages");
        }
    }

    /// `AnonHugePages` in kB of the `smaps` entry whose range holds `addr`.
    #[cfg(target_os = "linux")]
    fn anon_huge_pages_kb(smaps: &str, addr: usize) -> Option<u64> {
        let mut inside = false;
        for line in smaps.lines() {
            let first = line.split_whitespace().next().unwrap_or("");
            if let Some((lo, hi)) = first.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if inside {
                if let Some(kb) = line.strip_prefix("AnonHugePages:") {
                    return kb.trim().trim_end_matches("kB").trim().parse().ok();
                }
            }
        }
        None
    }

    /// A process that lies about progress must be caught.
    struct Stuck;
    impl RoundProcess for Stuck {
        fn name(&self) -> String {
            "stuck".into()
        }
        fn run_round<R, S>(
            &mut self,
            _state: &mut LoadVector,
            _rng: &mut R,
            _heights: &mut S,
            _balls_remaining: u64,
        ) -> RoundStats
        where
            R: RngCore + ?Sized,
            S: HeightSink + ?Sized,
        {
            RoundStats::default()
        }
    }

    #[test]
    #[should_panic(expected = "no progress")]
    fn stuck_process_panics() {
        let mut p = Stuck;
        let _ = run_once(&mut p, &RunConfig::new(4, 1));
    }
}
