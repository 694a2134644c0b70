//! The serialized (k,d)-choice process Aσ of Definition 1.

use rand::RngCore;

use crate::error::ConfigError;
use crate::kernel::{cmp_slots, expand_slots, height_slot, sort_probes};
use crate::process::{HeightSink, RoundProcess, RoundStats};
use crate::state::LoadVector;

/// How the per-round permutations σᵣ of Definition 1 are chosen.
///
/// Property (i) of the paper states `Aσ(k,d) ≡ A(k,d)` for **any** choice of
/// σ, proved by the natural coupling: give both processes the same `d`
/// sampled bins each round, and the number of balls in the `x` most loaded
/// bins coincides for every `x`. The implementation realizes exactly that
/// coupling — σ permutes which *ball* claims which rank among the round's
/// tentative slots, which provably cannot change the sorted load vector —
/// and the `properties` bench confirms the distributional equivalence
/// empirically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SigmaSchedule {
    /// σᵣ = (1, 2, …, k): ball s claims the s-th least loaded slot.
    #[default]
    Identity,
    /// σᵣ = (k, k−1, …, 1): ball s claims the (k−s+1)-th least loaded slot.
    Reverse,
    /// A fresh uniformly random permutation of {1,…,k} each round.
    UniformRandom,
}

impl SigmaSchedule {
    /// A short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            SigmaSchedule::Identity => "identity",
            SigmaSchedule::Reverse => "reverse",
            SigmaSchedule::UniformRandom => "random",
        }
    }
}

/// The serialized (k,d)-choice process Aσ (Definition 1).
///
/// Each round draws `d` slots i.u.r. with replacement; a bin of load `L`
/// sampled `c` times contributes tentative slots of heights `L+1, …, L+c`
/// (the paper's §2 convention that co-located balls of one round have
/// distinct heights). The slots are ranked once by `(height, random key)` —
/// "the i-th least loaded bin in S_r" with ties broken randomly — and ball
/// `s` is placed into the slot of rank `σᵣ(s)`. Since the permutation only
/// reorders which ball claims which slot, the resulting load vector is
/// *identical* to the round process A(k,d) under the shared-samples
/// coupling, which is precisely how the paper proves Property (i).
///
/// ```
/// use kdchoice_core::{SerializedKdChoice, SigmaSchedule, RunConfig, run_once};
///
/// # fn main() -> Result<(), kdchoice_core::ConfigError> {
/// let mut p = SerializedKdChoice::new(2, 3, SigmaSchedule::UniformRandom)?;
/// let r = run_once(&mut p, &RunConfig::new(1 << 12, 5))
/// ;
/// assert_eq!(r.balls_placed, 1 << 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SerializedKdChoice {
    k: usize,
    d: usize,
    schedule: SigmaSchedule,
    /// The round's tentative slots `(height, tie key, bin)`.
    slots: Vec<(u32, u64, usize)>,
    samples: Vec<usize>,
    perm: Vec<usize>,
}

impl SerializedKdChoice {
    /// Creates the serialized process.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `1 ≤ k ≤ d`.
    pub fn new(k: usize, d: usize, schedule: SigmaSchedule) -> Result<Self, ConfigError> {
        if k == 0 {
            return Err(ConfigError::ZeroK);
        }
        if k > d {
            return Err(ConfigError::KExceedsD { k, d });
        }
        Ok(Self {
            k,
            d,
            schedule,
            slots: Vec::with_capacity(d),
            samples: Vec::with_capacity(d),
            perm: Vec::with_capacity(k),
        })
    }

    /// The balls per round, `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The sampled bins per round, `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The σ schedule in use.
    pub fn schedule(&self) -> SigmaSchedule {
        self.schedule
    }
}

impl RoundProcess for SerializedKdChoice {
    fn name(&self) -> String {
        format!(
            "serialized({},{})-choice[{}]",
            self.k,
            self.d,
            self.schedule.label()
        )
    }

    fn run_round<R, S>(
        &mut self,
        state: &mut LoadVector,
        rng: &mut R,
        heights_out: &mut S,
        balls_remaining: u64,
    ) -> RoundStats
    where
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        let balls = (self.k as u64).min(balls_remaining.max(1)) as usize;
        let n = state.n();
        // Sample the round's d bins (batched, divisionless; consumes the
        // generator exactly like d successive bounded draws) and build
        // tentative slots with multiplicity-consistent heights.
        kdchoice_prng::sample::fill_with_replacement(rng, n, self.d, &mut self.samples);
        sort_probes(&mut self.samples);
        expand_slots(
            &self.samples,
            rng,
            &mut self.slots,
            |bin| state.load(bin),
            height_slot,
        );
        // Rank all d slots once: "the i-th least loaded bin in S_r".
        self.slots.sort_unstable_by(cmp_slots);
        // σ determines the order in which balls claim ranks 1..=balls.
        let sigma: &[usize] = match self.schedule {
            SigmaSchedule::Identity => {
                self.perm.clear();
                self.perm.extend(0..balls);
                &self.perm
            }
            SigmaSchedule::Reverse => {
                self.perm.clear();
                self.perm.extend((0..balls).rev());
                &self.perm
            }
            SigmaSchedule::UniformRandom => {
                self.perm = kdchoice_prng::sample::random_permutation(rng, balls);
                &self.perm
            }
        };
        // Place ball s into the slot of rank σ(s). Heights recorded are the
        // tentative slot heights — the paper's §2 convention assigns
        // co-located round balls distinct ascending heights no matter the
        // placement order.
        for &rank in sigma.iter().take(balls) {
            let (height, _, bin) = self.slots[rank];
            state.add_ball(bin);
            heights_out.record(height);
        }
        RoundStats {
            thrown: balls as u32,
            placed: balls as u32,
            probes: self.d as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_once, RunConfig};
    use crate::kd::KdChoice;
    use kdchoice_prng::Xoshiro256PlusPlus;

    #[test]
    fn constructor_validates() {
        assert!(SerializedKdChoice::new(0, 3, SigmaSchedule::Identity).is_err());
        assert!(SerializedKdChoice::new(4, 3, SigmaSchedule::Identity).is_err());
        assert!(SerializedKdChoice::new(2, 3, SigmaSchedule::Identity).is_ok());
    }

    #[test]
    fn name_mentions_schedule() {
        let p = SerializedKdChoice::new(2, 3, SigmaSchedule::Reverse).unwrap();
        let name = RoundProcess::name(&p);
        assert!(name.contains("reverse"));
        assert!(name.contains("(2,3)"));
    }

    #[test]
    fn places_exactly_the_requested_balls() {
        for schedule in [
            SigmaSchedule::Identity,
            SigmaSchedule::Reverse,
            SigmaSchedule::UniformRandom,
        ] {
            let mut p = SerializedKdChoice::new(3, 5, schedule).unwrap();
            let r = run_once(&mut p, &RunConfig::new(3 * 256, 7));
            assert_eq!(r.balls_placed, 3 * 256, "{schedule:?}");
            assert_eq!(r.balls_thrown, 3 * 256);
            // d probes per round of k balls.
            assert_eq!(r.messages, (3 * 256 / 3) * 5);
        }
    }

    /// Property (i) in its strongest executable form: under the natural
    /// coupling (same RNG stream => same sampled bins and tie-break keys),
    /// identity- and reverse-scheduled serializations produce *identical*
    /// final sorted load vectors.
    #[test]
    fn coupled_schedules_produce_identical_vectors() {
        let run = |schedule| {
            let mut p = SerializedKdChoice::new(3, 7, schedule).unwrap();
            let (_, state) =
                crate::driver::run_once_with_state(&mut p, &RunConfig::new(1 << 10, 99));
            state.sorted_descending()
        };
        assert_eq!(
            run(SigmaSchedule::Identity),
            run(SigmaSchedule::Reverse),
            "σ must not change the load vector under the shared-sample coupling"
        );
    }

    /// Mean max load over `trials` seeded runs of the process `make` builds.
    fn mean_max_load<P: RoundProcess>(make: impl Fn() -> P, n: usize, trials: u64) -> f64 {
        let mut sum = 0.0;
        for t in 0..trials {
            let r = run_once(&mut make(), &RunConfig::new(n, 2000 + t));
            sum += r.max_load as f64;
        }
        sum / trials as f64
    }

    /// The serialization coincides with the round process on the same
    /// samples: compare whole-run mean max loads across seeds.
    #[test]
    fn matches_round_process_mean_max_load() {
        let n = 1 << 10;
        let trials = 60;
        let a = mean_max_load(|| KdChoice::new(2, 3).unwrap(), n, trials);
        let b = mean_max_load(
            || SerializedKdChoice::new(2, 3, SigmaSchedule::Identity).unwrap(),
            n,
            trials,
        );
        let c = mean_max_load(
            || SerializedKdChoice::new(2, 3, SigmaSchedule::UniformRandom).unwrap(),
            n,
            trials,
        );
        assert!(
            (a - b).abs() < 0.5,
            "round {a} vs identity serialization {b}"
        );
        assert!((a - c).abs() < 0.5, "round {a} vs random serialization {c}");
    }

    #[test]
    fn slot_multiplicity_rule_holds() {
        let mut p = SerializedKdChoice::new(3, 4, SigmaSchedule::Reverse).unwrap();
        let mut state = LoadVector::new(2);
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let mut heights = Vec::new();
        for _ in 0..50 {
            let before: Vec<u32> = state.loads().to_vec();
            let occ_before = state.total_balls();
            RoundProcess::run_round(&mut p, &mut state, &mut rng, &mut heights, u64::MAX);
            let gained: u32 = state.loads().iter().zip(&before).map(|(a, b)| a - b).sum();
            assert_eq!(gained, 3);
            assert_eq!(state.total_balls(), occ_before + 3);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut p = SerializedKdChoice::new(2, 4, SigmaSchedule::UniformRandom).unwrap();
            run_once(&mut p, &RunConfig::new(1 << 10, seed)).max_load
        };
        assert_eq!(run(5), run(5));
    }
}
