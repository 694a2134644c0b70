//! Worker-selection strategies for job scheduling.

use std::borrow::Cow;

use kdchoice_core::{
    decide_k_least, expand_slots, select_k_least, sort_probes, BinStore, ConfigError, LoadView,
    PlacementObjective, VectorLoad,
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
    /// The scalar decision kernel's tentative slots.
    slots: Vec<(u32, u64, usize)>,
    /// The vector decision's tentative slots, keyed by the objective.
    key_slots: Vec<(f64, u64, usize)>,
    /// The chosen workers, one per task, in winner order.
    pub(crate) chosen: Vec<usize>,
}

/// What a one-shot choice reads of the workers: how many there are, the
/// key a per-task probe compares, and the k-least decision over the
/// sorted probes in `scratch.probes`, written to `scratch.chosen`.
pub(crate) trait ProbeView {
    /// The per-task comparison key.
    type Key: Ord;

    /// The number of workers probes are drawn from.
    fn workers(&self) -> usize;

    /// The key worker `w` offers one task.
    fn task_key(&self, w: usize) -> Self::Key;

    /// Appends the `k` winners among `scratch.probes` to
    /// `scratch.chosen`, one tie key per tentative slot in probe order.
    fn decide<R: RngCore + ?Sized>(&self, k: usize, rng: &mut R, scratch: &mut ChoiceScratch);
}

/// Scalar queue lengths: the key is the length, and the decision is
/// [`decide_k_least`] at heights `load + occ`.
impl<V: LoadView + ?Sized> ProbeView for V {
    type Key = u32;

    #[inline]
    fn workers(&self) -> usize {
        self.view_n()
    }

    #[inline]
    fn task_key(&self, w: usize) -> u32 {
        self.view_load(w)
    }

    #[inline]
    fn decide<R: RngCore + ?Sized>(&self, k: usize, rng: &mut R, scratch: &mut ChoiceScratch) {
        let ChoiceScratch {
            probes,
            slots,
            chosen,
            ..
        } = scratch;
        decide_k_least(self, probes, k, rng, slots, chosen);
    }
}

/// D-dimensional worker loads as a one-shot choice reads them: the job's
/// `k` tasks share one `demand` vector and compete on `objective` keys
/// instead of scalar queue lengths. `loads` is the live table of `store`
/// or a stale snapshot of it, in its `[w * dims + j]` layout; `store`
/// also gives the dimensionality and the capacities.
///
/// The choice is draw for draw the scalar one: the same probe batches,
/// one tie key per tentative slot in sorted order (batch/kd), the same
/// reservoir tie-breaking (per-task). With `dims = 1`, the scalar
/// objective and unit demand, keys are the scalar heights as integer
/// `f64`s, so the winners are bit-identical to the scalar choice on the
/// same stream (locked by test).
pub(crate) struct VectorView<'a> {
    /// Strided worker loads.
    pub(crate) loads: &'a [u32],
    /// The store `loads` was read from.
    pub(crate) store: &'a VectorLoad,
    /// The job's demand vector, `dims` long.
    pub(crate) demand: &'a [u32],
    /// The probe comparison key.
    pub(crate) objective: &'a PlacementObjective,
}

impl<'a> VectorView<'a> {
    /// Worker `w`'s load vector and capacities.
    #[inline]
    fn worker(&self, w: usize) -> (&'a [u32], Option<&'a [u32]>) {
        let dims = self.store.dims();
        (
            &self.loads[w * dims..(w + 1) * dims],
            self.store.capacity_vec(w),
        )
    }
}

/// The `occ`-th tentative task of a worker is keyed at
/// `objective(load + occ · demand)`, and the kernel keeps the `k` least.
impl ProbeView for VectorView<'_> {
    type Key = i64;

    #[inline]
    fn workers(&self) -> usize {
        debug_assert_eq!(self.loads.len(), self.store.loads_strided().len());
        self.store.n()
    }

    #[inline]
    fn task_key(&self, w: usize) -> i64 {
        let (load, caps) = self.worker(w);
        total_order_key(self.objective.tentative_key(load, self.demand, 1, caps))
    }

    #[inline]
    fn decide<R: RngCore + ?Sized>(&self, k: usize, rng: &mut R, scratch: &mut ChoiceScratch) {
        let ChoiceScratch {
            probes,
            key_slots,
            chosen,
            ..
        } = scratch;
        expand_slots(
            probes,
            rng,
            key_slots,
            |w| self.worker(w),
            |&(load, caps), w, occ, tie| {
                let key = self.objective.tentative_key(load, self.demand, occ, caps);
                (key, tie, w)
            },
        );
        chosen.extend(select_k_least(key_slots, k).iter().map(|s| s.2));
    }
}

/// An `f64` key as an `i64` whose order and equality are `total_cmp`'s
/// (the same bit flip `f64::total_cmp` makes), so objective keys can
/// drive the `random_argmin` reservoir the scalar per-task path uses.
/// Keys are integer-valued for the scalar and max-norm objectives, where
/// `total_cmp` equality coincides with integer equality — the property
/// the dims=1 tie-count (and therefore RNG-stream) identity rests on.
#[inline]
fn total_order_key(key: f64) -> i64 {
    let bits = key.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
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

    /// Checks the strategy's probe parameter against `k` tasks per job.
    pub(crate) fn validate(&self, k: usize) -> Result<(), ConfigError> {
        match *self {
            PlacementStrategy::PerTaskDChoice { d: 0 } => Err(ConfigError::ZeroParameter("d")),
            PlacementStrategy::BatchSampling { probes_per_task: 0 }
            | PlacementStrategy::LateBinding { probes_per_task: 0 } => {
                Err(ConfigError::ZeroParameter("probes_per_task"))
            }
            PlacementStrategy::KdChoice { d } if d < k => Err(ConfigError::KExceedsD { k, d }),
            _ => Ok(()),
        }
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
    /// and both simulations: writes the `k` tasks' workers into
    /// `scratch.chosen` and returns the probe messages. Batch sampling and
    /// (k,d)-choice sort their probes in place and decide through the
    /// view's k-least rule (for scalar loads [`decide_k_least`], as
    /// [`select_k_least_loaded`] does, in the same winner order).
    pub(crate) fn choose_into<V, R>(
        &self,
        loads: &V,
        k: usize,
        rng: &mut R,
        scratch: &mut ChoiceScratch,
    ) -> u64
    where
        V: ProbeView + ?Sized,
        R: RngCore + ?Sized,
    {
        let n = loads.workers();
        let budget = match *self {
            PlacementStrategy::Random => {
                fill_with_replacement(rng, n, k, &mut scratch.chosen);
                return 0;
            }
            PlacementStrategy::PerTaskDChoice { d } => {
                let ChoiceScratch { probes, chosen, .. } = scratch;
                chosen.clear();
                for _ in 0..k {
                    fill_with_replacement(rng, n, d, probes);
                    let idx = random_argmin(rng, probes, |&w| loads.task_key(w)).expect("d >= 1");
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
        fill_with_replacement(rng, n, budget, &mut scratch.probes);
        sort_probes(&mut scratch.probes);
        scratch.chosen.clear();
        loads.decide(k, rng, scratch);
        budget as u64
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
    #[should_panic(expected = "k must not exceed d (got k=4, d=2)")]
    fn kd_strategy_validates_d_at_least_k() {
        assert_eq!(
            PlacementStrategy::KdChoice { d: 2 }.validate(4),
            Err(ConfigError::KExceedsD { k: 4, d: 2 })
        );
        // The simulators refuse the strategy with the error's message.
        let cfg = crate::ClusterConfig::new(10, 4, 10, 1).with_utilization(0.5);
        let _ = crate::simulate(&cfg, PlacementStrategy::KdChoice { d: 2 });
    }

    /// The vector k-least decision over the sorted `probes`.
    fn select_vector(
        probes: &[usize],
        view: &VectorView<'_>,
        k: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Vec<usize> {
        let mut scratch = ChoiceScratch::default();
        scratch.probes.extend_from_slice(probes);
        view.decide(k, rng, &mut scratch);
        scratch.chosen
    }

    #[test]
    fn vector_choice_at_dims_1_matches_scalar_streams_and_winners() {
        // The dims=1 contract at the kernel level: same RNG stream in,
        // same workers out, same stream position after — for every
        // one-shot strategy.
        let loads: Vec<u32> = (0..32).map(|w| (w * 7 % 5) as u32).collect();
        let view = VectorView {
            loads: &loads,
            store: &VectorLoad::new(1, 32),
            demand: &[1],
            objective: &PlacementObjective::Scalar,
        };
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
            let mut scratch = ChoiceScratch::default();
            let probes_b = strategy.choose_into(&view, 4, &mut rng_b, &mut scratch);
            assert_eq!(scalar, scratch.chosen, "{label}: winners diverged");
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
        let store = VectorLoad::new(2, 2);
        let max_norm = VectorView {
            loads: &[4, 0, 3, 3], // dims = 2: w0 = (4,0), w1 = (3,3)
            store: &store,
            demand: &[1, 1],
            objective: &PlacementObjective::MaxNorm,
        };
        let scalar = VectorView {
            objective: &PlacementObjective::Scalar,
            ..max_norm
        };
        for _ in 0..20 {
            let mut rng = Xoshiro256PlusPlus::from_u64(9);
            assert_eq!(select_vector(&[0, 1], &max_norm, 1, &mut rng), vec![1]);
            assert_eq!(select_vector(&[0, 1], &scalar, 1, &mut rng), vec![0]);
        }
    }

    #[test]
    fn vector_select_capacity_objective_prefers_fat_worker() {
        // Same loads, but worker 0 has 8x capacity on every dimension:
        // normalized load (6/8, 2/8) beats worker 1's (1,1).
        let mut rng = Xoshiro256PlusPlus::from_u64(10);
        let view = VectorView {
            loads: &[6, 2, 1, 1],
            store: &VectorLoad::with_vector_capacities(2, &[8, 8, 1, 1]),
            demand: &[1, 1],
            objective: &PlacementObjective::NormalizedByCapacity,
        };
        assert_eq!(select_vector(&[0, 1], &view, 1, &mut rng), vec![0]);
    }

    #[test]
    #[should_panic(expected = "event-driven")]
    fn late_binding_makes_no_one_shot_vector_choice() {
        let mut rng = Xoshiro256PlusPlus::from_u64(11);
        let view = VectorView {
            loads: &[0, 0],
            store: &VectorLoad::new(1, 2),
            demand: &[1],
            objective: &PlacementObjective::Scalar,
        };
        let _ = PlacementStrategy::LateBinding { probes_per_task: 2 }.choose_into(
            &view,
            1,
            &mut rng,
            &mut ChoiceScratch::default(),
        );
    }
}
