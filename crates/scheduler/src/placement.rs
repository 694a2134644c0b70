//! Worker-selection strategies for job scheduling.

use std::borrow::Cow;
use std::cmp::Ordering;

use kdchoice_core::{
    decide_k_least, expand_slots, select_k_least, sort_probes, BinStore, LoadView,
    PlacementObjective,
};
use kdchoice_prng::sample::{fill_with_replacement, random_argmin};
use rand::RngCore;

/// A [`LoadView`] over a queue-length slice: the snapshot the scheduler
/// reads when probes are stale.
pub(crate) struct SliceLoads<'a>(pub(crate) &'a [u32]);

impl LoadView for SliceLoads<'_> {
    #[inline]
    fn view_n(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.0[bin]
    }
}

/// A [`LoadView`] over a live [`BinStore`]: fresh probes read the probed
/// workers' queue lengths straight from the store, `d` reads per job
/// instead of a copy of every worker's length.
pub(crate) struct LiveLoads<'a, B: ?Sized>(pub(crate) &'a B);

impl<B: BinStore + ?Sized> LoadView for LiveLoads<'_, B> {
    #[inline]
    fn view_n(&self) -> usize {
        self.0.n()
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.0.load(bin)
    }
}

/// Scratch for [`PlacementStrategy::choose_into`], reused across jobs so
/// a one-shot choice allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
pub(crate) struct ChoiceScratch {
    /// The probed workers, sorted in place before a k-least decision.
    probes: Vec<usize>,
    /// The decision kernel's tentative slots.
    slots: Vec<(u32, u64, usize)>,
    /// The chosen workers, one per task, in winner order.
    pub(crate) chosen: Vec<usize>,
}

/// `f64` under `total_cmp`, so objective keys can drive the same
/// `random_argmin` reservoir the scalar per-task path uses. Keys are
/// integer-valued for the scalar and max-norm objectives, where
/// `total_cmp` equality coincides with integer equality — the property
/// the dims=1 tie-count (and therefore RNG-stream) identity rests on.
#[derive(Debug, Clone, Copy)]
struct TotalF64(f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// How a job's `k` tasks pick their workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Each task goes to a uniformly random worker; zero probes.
    Random,
    /// Each task independently probes `d` workers and joins the least
    /// loaded — the standard multiple-choice strategy whose *job-level*
    /// performance degrades with parallelism (§1.3). `k·d` probes per job.
    PerTaskDChoice {
        /// Probes per task.
        d: usize,
    },
    /// Sparrow's batch sampling (the paper's reference \[12\]): probe
    /// `probes_per_task · k` workers and place the `k` tasks on the `k`
    /// least loaded, multiplicities respected — exactly
    /// (k, probes_per_task·k)-choice. `probes_per_task·k` probes per job.
    BatchSampling {
        /// Probes per task (Sparrow uses 2).
        probes_per_task: usize,
    },
    /// The paper's (k,d)-choice with a probe budget `d` decoupled from `k`
    /// (`d ≥ k`): `d` probes per job, e.g. `d = k+1` for near-minimal
    /// message cost.
    KdChoice {
        /// Total probes per job.
        d: usize,
    },
    /// Sparrow's **late binding**: place reservations on
    /// `probes_per_task · k` probed workers; each worker, upon becoming
    /// free, claims one of the job's not-yet-launched tasks (service time
    /// drawn at launch), and surplus reservations cancel. The strongest
    /// scheme in the Sparrow paper \[12\].
    ///
    /// Note: in this simulator probes read *perfect instantaneous* queue
    /// lengths, so [`PlacementStrategy::BatchSampling`] keeps an
    /// information advantage that real deployments lack (stale probes,
    /// unknown task durations) — late binding beats random placement here
    /// but not perfect-information batch sampling.
    LateBinding {
        /// Probes (reservations) per task.
        probes_per_task: usize,
    },
}

impl PlacementStrategy {
    /// Display name used in reports.
    ///
    /// Parameter-free strategies return a borrowed `&'static str` — no
    /// allocation on reporting paths; parameterized ones format once per
    /// call, so callers that report per run should cache the name per run
    /// (as [`crate::SchedulerReport`] does), not fetch it per event.
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            PlacementStrategy::Random => Cow::Borrowed("random"),
            PlacementStrategy::PerTaskDChoice { d } => Cow::Owned(format!("per-task {d}-choice")),
            PlacementStrategy::BatchSampling { probes_per_task } => {
                Cow::Owned(format!("batch-sampling x{probes_per_task}"))
            }
            PlacementStrategy::KdChoice { d } => Cow::Owned(format!("(k,{d})-choice")),
            PlacementStrategy::LateBinding { probes_per_task } => {
                Cow::Owned(format!("late-binding x{probes_per_task}"))
            }
        }
    }

    /// Panics when the strategy is incompatible with the job shape.
    pub(crate) fn validate(&self, k: usize, workers: usize) {
        match *self {
            PlacementStrategy::Random => {}
            PlacementStrategy::PerTaskDChoice { d } => {
                assert!(d >= 1, "per-task d-choice needs d >= 1");
            }
            PlacementStrategy::BatchSampling { probes_per_task } => {
                assert!(probes_per_task >= 1, "batch sampling needs >= 1 probe/task");
            }
            PlacementStrategy::KdChoice { d } => {
                assert!(d >= k, "(k,d)-choice needs d >= k (k={k}, d={d})");
            }
            PlacementStrategy::LateBinding { probes_per_task } => {
                assert!(probes_per_task >= 1, "late binding needs >= 1 probe/task");
            }
        }
        assert!(workers >= 1);
    }

    /// Chooses the workers for the `k` tasks of one job given the current
    /// worker loads (queue lengths). Returns `(workers, probe_messages)`;
    /// the same worker may appear multiple times (it then receives several
    /// of the job's tasks).
    ///
    /// Public so the equivalence tests can couple this kernel against the
    /// core (k,d)-choice process on a shared RNG stream.
    ///
    /// # Panics
    ///
    /// Panics for [`PlacementStrategy::LateBinding`], which is
    /// event-driven and has no one-shot worker choice.
    pub fn choose_workers<R: RngCore + ?Sized>(
        &self,
        loads: &[u32],
        k: usize,
        rng: &mut R,
    ) -> (Vec<usize>, u64) {
        let mut scratch = ChoiceScratch::default();
        let probes = self.choose_into(&SliceLoads(loads), k, rng, &mut scratch);
        (scratch.chosen, probes)
    }

    /// The one-shot choice core behind [`PlacementStrategy::choose_workers`]
    /// and the scalar simulator: writes the `k` tasks' workers into
    /// `scratch.chosen` and returns the probe messages. Batch sampling and
    /// (k,d)-choice sort their probes in place and decide through
    /// [`decide_k_least`], as [`select_k_least_loaded`] does, in the same
    /// winner order.
    pub(crate) fn choose_into<V, R>(
        &self,
        loads: &V,
        k: usize,
        rng: &mut R,
        scratch: &mut ChoiceScratch,
    ) -> u64
    where
        V: LoadView + ?Sized,
        R: RngCore + ?Sized,
    {
        let n = loads.view_n();
        let ChoiceScratch {
            probes,
            slots,
            chosen,
        } = scratch;
        let budget = match *self {
            PlacementStrategy::Random => {
                fill_with_replacement(rng, n, k, chosen);
                return 0;
            }
            PlacementStrategy::PerTaskDChoice { d } => {
                chosen.clear();
                for _ in 0..k {
                    fill_with_replacement(rng, n, d, probes);
                    let idx = random_argmin(rng, probes, |&w| loads.view_load(w)).expect("d >= 1");
                    chosen.push(probes[idx]);
                }
                return (k * d) as u64;
            }
            PlacementStrategy::BatchSampling { probes_per_task } => probes_per_task * k,
            PlacementStrategy::KdChoice { d } => d,
            PlacementStrategy::LateBinding { .. } => {
                unreachable!("late binding is event-driven; handled by the simulator")
            }
        };
        fill_with_replacement(rng, n, budget, probes);
        sort_probes(probes);
        chosen.clear();
        decide_k_least(loads, probes, k, rng, slots, chosen);
        budget as u64
    }

    /// The vector analogue of [`PlacementStrategy::choose_workers`]:
    /// workers carry `dims`-dimensional load vectors (`loads_strided[w *
    /// dims + j]`, a possibly stale snapshot) and optional per-dimension
    /// capacities in the same strided layout; the job's `k` tasks share
    /// one `demand` vector and compete on `objective` keys instead of
    /// scalar queue lengths.
    ///
    /// **RNG contract:** draw for draw identical to the scalar method —
    /// the same `fill_with_replacement` probe batches, one tie-break per
    /// tentative slot in sorted order (batch/kd), the same reservoir
    /// tie-breaking (per-task). With `dims = 1`, the scalar objective,
    /// and unit demand, keys are the scalar heights as integer `f64`s,
    /// so the chosen workers are bit-identical to the scalar method on
    /// the same stream (locked by test).
    ///
    /// # Panics
    ///
    /// Panics if the strided slices are not multiples of `dims`.
    /// [`PlacementStrategy::LateBinding`] is unreachable here exactly as
    /// in the scalar method: it makes no one-shot worker choice — the
    /// simulator drives its reservations event by event.
    #[allow(clippy::too_many_arguments)]
    pub fn choose_workers_vector<R: RngCore + ?Sized>(
        &self,
        loads_strided: &[u32],
        dims: usize,
        caps_strided: Option<&[u32]>,
        demand: &[u32],
        objective: &PlacementObjective,
        k: usize,
        rng: &mut R,
    ) -> (Vec<usize>, u64) {
        assert!(
            dims >= 1 && loads_strided.len().is_multiple_of(dims),
            "strided loads must be a multiple of dims"
        );
        assert_eq!(demand.len(), dims, "demand/dims mismatch");
        let n = loads_strided.len() / dims;
        match *self {
            PlacementStrategy::Random => {
                let mut chosen = Vec::with_capacity(k);
                fill_with_replacement(rng, n, k, &mut chosen);
                (chosen, 0)
            }
            PlacementStrategy::PerTaskDChoice { d } => {
                let mut chosen = Vec::with_capacity(k);
                let mut samples = Vec::with_capacity(d);
                for _ in 0..k {
                    fill_with_replacement(rng, n, d, &mut samples);
                    let idx = random_argmin(rng, &samples, |&w| {
                        let load = &loads_strided[w * dims..(w + 1) * dims];
                        let caps = caps_strided.map(|c| &c[w * dims..(w + 1) * dims]);
                        TotalF64(objective.tentative_key(load, demand, 1, caps))
                    })
                    .expect("d >= 1");
                    chosen.push(samples[idx]);
                }
                (chosen, (k * d) as u64)
            }
            PlacementStrategy::BatchSampling { probes_per_task } => {
                let probes = probes_per_task * k;
                let mut samples = Vec::with_capacity(probes);
                fill_with_replacement(rng, n, probes, &mut samples);
                (
                    select_k_least_loaded_vector(
                        &samples,
                        loads_strided,
                        dims,
                        caps_strided,
                        demand,
                        objective,
                        k,
                        rng,
                    ),
                    probes as u64,
                )
            }
            PlacementStrategy::KdChoice { d } => {
                let mut samples = Vec::with_capacity(d);
                fill_with_replacement(rng, n, d, &mut samples);
                (
                    select_k_least_loaded_vector(
                        &samples,
                        loads_strided,
                        dims,
                        caps_strided,
                        demand,
                        objective,
                        k,
                        rng,
                    ),
                    d as u64,
                )
            }
            PlacementStrategy::LateBinding { .. } => {
                unreachable!("late binding is event-driven; handled by the simulator")
            }
        }
    }
}

impl std::fmt::Display for PlacementStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Selects destinations for `k` tasks from `samples` (worker indices, with
/// multiplicity) through the core decision kernel
/// ([`kdchoice_core::decide_k_least`] at heights `loads[w] + occ`): a
/// worker sampled `m` times receives at most `m` tasks. `samples` may be
/// unsorted; a sorted copy is decided. The batch-sampling and
/// (k,d)-choice strategies make the same decision on probes they sort in
/// place.
///
/// # Panics
///
/// Panics unless `1 <= k <= samples.len()`.
///
/// ```
/// use kdchoice_scheduler::select_k_least_loaded;
/// use kdchoice_prng::Xoshiro256PlusPlus;
///
/// let loads = [3, 0, 5];
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// // Worker 1 sampled twice: both tasks go there (heights 1 and 2 < 4).
/// let w = select_k_least_loaded(&[0, 1, 1], &loads, 2, &mut rng);
/// assert_eq!(w, vec![1, 1]);
/// ```
pub fn select_k_least_loaded<R: RngCore + ?Sized>(
    samples: &[usize],
    loads: &[u32],
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut slots = Vec::with_capacity(samples.len());
    let mut chosen = Vec::with_capacity(k);
    decide_k_least(
        &SliceLoads(loads),
        &sorted(samples),
        k,
        rng,
        &mut slots,
        &mut chosen,
    );
    chosen
}

/// [`select_k_least_loaded`] over D-dimensional worker loads: the
/// `occ`-th tentative task of a worker is keyed at
/// `objective(load + occ · demand)` and the kernel keeps the `k` least.
/// With dims=1, the scalar objective and unit demand this is
/// stream-identical to the scalar selection.
///
/// `loads_strided`/`caps_strided` use the `[w * dims + j]` layout of
/// `kdchoice_core::VectorLoad::loads_strided`.
///
/// # Panics
///
/// Panics unless `1 <= k <= samples.len()` and the strided slices are
/// multiples of `dims`.
#[allow(clippy::too_many_arguments)]
pub fn select_k_least_loaded_vector<R: RngCore + ?Sized>(
    samples: &[usize],
    loads_strided: &[u32],
    dims: usize,
    caps_strided: Option<&[u32]>,
    demand: &[u32],
    objective: &PlacementObjective,
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(
        dims >= 1 && loads_strided.len().is_multiple_of(dims),
        "strided loads must be a multiple of dims"
    );
    let mut slots = Vec::with_capacity(samples.len());
    expand_slots(
        &sorted(samples),
        rng,
        &mut slots,
        |w| {
            let load = &loads_strided[w * dims..(w + 1) * dims];
            (load, caps_strided.map(|c| &c[w * dims..(w + 1) * dims]))
        },
        |&(load, caps), w, occ, tie| (objective.tentative_key(load, demand, occ, caps), tie, w),
    );
    select_k_least(&mut slots, k).iter().map(|s| s.2).collect()
}

/// An ascending copy of `samples`, the kernel's probe order.
fn sorted(samples: &[usize]) -> Vec<usize> {
    let mut sorted = samples.to_vec();
    sort_probes(&mut sorted);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::Xoshiro256PlusPlus;

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = [
            PlacementStrategy::Random,
            PlacementStrategy::PerTaskDChoice { d: 2 },
            PlacementStrategy::BatchSampling { probes_per_task: 2 },
            PlacementStrategy::KdChoice { d: 5 },
        ]
        .iter()
        .map(|s| s.name().into_owned())
        .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(PlacementStrategy::Random.to_string(), "random");
    }

    #[test]
    fn select_respects_multiplicity() {
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        let loads = [0, 0, 0, 0];
        // Worker 0 sampled once, cannot receive both tasks even though it
        // stays least loaded after one assignment... heights break the tie:
        // slot heights are 1 (w0), 1 (w1): both tasks spread out.
        let w = select_k_least_loaded(&[0, 1], &loads, 2, &mut rng);
        let mut sorted = w.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn select_prefers_low_load() {
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let loads = [9, 9, 0, 9];
        for _ in 0..50 {
            let w = select_k_least_loaded(&[0, 1, 2, 3], &loads, 1, &mut rng);
            assert_eq!(w, vec![2]);
        }
    }

    #[test]
    fn select_k_equals_slots_returns_all() {
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        let loads = [1, 2];
        let mut w = select_k_least_loaded(&[0, 1, 0], &loads, 3, &mut rng);
        w.sort_unstable();
        assert_eq!(w, vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn select_rejects_k_above_slots() {
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let _ = select_k_least_loaded(&[0], &[0], 2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "cannot place 0 balls")]
    fn select_rejects_k_zero() {
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let _ = select_k_least_loaded(&[0, 1], &[0, 0], 0, &mut rng);
    }

    #[test]
    fn choose_workers_counts_probes() {
        let mut rng = Xoshiro256PlusPlus::from_u64(6);
        let loads = vec![0u32; 16];
        let (w, p) = PlacementStrategy::Random.choose_workers(&loads, 4, &mut rng);
        assert_eq!((w.len(), p), (4, 0));
        let (w, p) = PlacementStrategy::PerTaskDChoice { d: 3 }.choose_workers(&loads, 4, &mut rng);
        assert_eq!((w.len(), p), (4, 12));
        let (w, p) = PlacementStrategy::BatchSampling { probes_per_task: 2 }
            .choose_workers(&loads, 4, &mut rng);
        assert_eq!((w.len(), p), (4, 8));
        let (w, p) = PlacementStrategy::KdChoice { d: 5 }.choose_workers(&loads, 4, &mut rng);
        assert_eq!((w.len(), p), (4, 5));
    }

    #[test]
    fn batch_sampling_avoids_hot_workers() {
        // One cold worker among hot ones: batch sampling with enough probes
        // should route at least one task to it almost always.
        let mut rng = Xoshiro256PlusPlus::from_u64(7);
        let mut loads = vec![10u32; 32];
        loads[17] = 0;
        let mut hits = 0;
        let trials = 200;
        for _ in 0..trials {
            let (w, _) = PlacementStrategy::BatchSampling { probes_per_task: 8 }
                .choose_workers(&loads, 4, &mut rng);
            if w.contains(&17) {
                hits += 1;
            }
        }
        // P(17 sampled in 32 probes) = 1 - (31/32)^32 ≈ 0.64; if sampled it
        // is always chosen (load 0).
        assert!(hits > trials / 3, "cold worker hit only {hits}/{trials}");
    }

    #[test]
    #[should_panic(expected = "needs d >= k")]
    fn kd_strategy_validates_d_at_least_k() {
        PlacementStrategy::KdChoice { d: 2 }.validate(4, 10);
    }

    #[test]
    fn vector_choice_at_dims_1_matches_scalar_streams_and_winners() {
        // The dims=1 contract at the kernel level: same RNG stream in,
        // same workers out, same stream position after — for every
        // one-shot strategy.
        let loads: Vec<u32> = (0..32).map(|w| (w * 7 % 5) as u32).collect();
        for (label, strategy) in [
            ("random", PlacementStrategy::Random),
            ("per-task", PlacementStrategy::PerTaskDChoice { d: 3 }),
            (
                "batch",
                PlacementStrategy::BatchSampling { probes_per_task: 2 },
            ),
            ("kd", PlacementStrategy::KdChoice { d: 5 }),
        ] {
            let mut rng_a = Xoshiro256PlusPlus::from_u64(42);
            let mut rng_b = Xoshiro256PlusPlus::from_u64(42);
            let (scalar, probes_a) = strategy.choose_workers(&loads, 4, &mut rng_a);
            let (vector, probes_b) = strategy.choose_workers_vector(
                &loads,
                1,
                None,
                &[1],
                &PlacementObjective::Scalar,
                4,
                &mut rng_b,
            );
            assert_eq!(scalar, vector, "{label}: winners diverged");
            assert_eq!(probes_a, probes_b, "{label}: probe counts diverged");
            assert_eq!(
                rng_a.next_u64(),
                rng_b.next_u64(),
                "{label}: RNG streams desynced"
            );
        }
    }

    #[test]
    fn vector_select_prefers_balanced_worker_under_max_norm() {
        // Worker 0 is scalar-lighter (sum 4 < 6) but spiked on dim 0;
        // max-norm placement of a (1,1) demand must prefer the balanced
        // worker 1, while the scalar objective prefers worker 0.
        let loads = [4, 0, 3, 3]; // dims = 2: w0 = (4,0), w1 = (3,3)
        let demand = [1, 1];
        for _ in 0..20 {
            let mut rng = Xoshiro256PlusPlus::from_u64(9);
            let w = select_k_least_loaded_vector(
                &[0, 1],
                &loads,
                2,
                None,
                &demand,
                &PlacementObjective::MaxNorm,
                1,
                &mut rng,
            );
            assert_eq!(w, vec![1]);
            let w = select_k_least_loaded_vector(
                &[0, 1],
                &loads,
                2,
                None,
                &demand,
                &PlacementObjective::Scalar,
                1,
                &mut rng,
            );
            assert_eq!(w, vec![0]);
        }
    }

    #[test]
    fn vector_select_capacity_objective_prefers_fat_worker() {
        // Same loads, but worker 0 has 8x capacity on every dimension:
        // normalized load (6/8, 2/8) beats worker 1's (1,1).
        let loads = [6, 2, 1, 1];
        let caps = [8, 8, 1, 1];
        let mut rng = Xoshiro256PlusPlus::from_u64(10);
        let w = select_k_least_loaded_vector(
            &[0, 1],
            &loads,
            2,
            Some(&caps),
            &[1, 1],
            &PlacementObjective::NormalizedByCapacity,
            1,
            &mut rng,
        );
        assert_eq!(w, vec![0]);
    }

    #[test]
    #[should_panic(expected = "event-driven")]
    fn late_binding_makes_no_one_shot_vector_choice() {
        let mut rng = Xoshiro256PlusPlus::from_u64(11);
        let _ = PlacementStrategy::LateBinding { probes_per_task: 2 }.choose_workers_vector(
            &[0, 0],
            1,
            None,
            &[1],
            &PlacementObjective::Scalar,
            1,
            &mut rng,
        );
    }
}
