//! The (1+β)-choice process of Peres, Talwar & Wieder.

use kdchoice_core::{
    ConfigError, HeightSink, LoadVector, ProbeDistribution, RoundProcess, RoundStats,
};
use rand::{Rng, RngCore};

/// The (1+β)-choice process (the paper's reference \[14\]): each ball flips
/// a β-coin; with probability β it plays two-choice, otherwise it places
/// uniformly at random. The gap from average is `Θ(log n/β)` in the heavily
/// loaded case.
///
/// The paper singles this process out as the other known single-/multi-
/// choice interpolation — "both schemes can be viewed as a mix between
/// single- and multiple-choice strategies, though these two models exhibit
/// no other structural similarities" (§1). The `tradeoff` bench plots it
/// against (k,d)-choice at matched message budgets.
///
/// ```
/// use kdchoice_baselines::OnePlusBeta;
/// use kdchoice_core::{run_once, RunConfig};
///
/// # fn main() -> Result<(), kdchoice_core::ConfigError> {
/// let mut p = OnePlusBeta::new(0.5)?;
/// let r = run_once(&mut p, &RunConfig::new(1 << 12, 1));
/// // expected 1.5 probes per ball
/// assert!((r.messages_per_ball() - 1.5).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnePlusBeta {
    beta: f64,
    probes: ProbeDistribution,
}

impl OnePlusBeta {
    /// Creates the process.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `0 ≤ β ≤ 1`.
    pub fn new(beta: f64) -> Result<Self, ConfigError> {
        if !(0.0..=1.0).contains(&beta) || beta.is_nan() {
            return Err(ConfigError::BadProbability("beta"));
        }
        Ok(Self {
            beta,
            probes: ProbeDistribution::Uniform,
        })
    }

    /// Switches the probe distribution (builder style) — the weighted
    /// (1+β) variant of the multidimensional-allocation reports, for
    /// free via the distribution seam. Both the single-choice arm and
    /// the two-choice arm probe through it; the uniform default draws
    /// the identical generator stream as before the seam existed.
    #[must_use]
    pub fn with_probes(mut self, probes: ProbeDistribution) -> Self {
        self.probes = probes;
        self
    }

    /// The active probe distribution.
    pub fn probes(&self) -> &ProbeDistribution {
        &self.probes
    }

    /// The mixing probability β.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl RoundProcess for OnePlusBeta {
    fn name(&self) -> String {
        if matches!(self.probes, ProbeDistribution::Uniform) {
            format!("(1+{})-choice", self.beta)
        } else {
            format!("(1+{})-choice@{}", self.beta, self.probes.label())
        }
    }

    fn run_round<R, S>(
        &mut self,
        state: &mut LoadVector,
        rng: &mut R,
        heights_out: &mut S,
        _balls_remaining: u64,
    ) -> RoundStats
    where
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        let n = state.n();
        let two_choice = rng.gen_bool(self.beta);
        // ProbeDistribution::sample's uniform arm is stream-identical to
        // the former `rng.gen_range(0..n)` draws.
        let (bin, probes) = if two_choice {
            let a = self.probes.sample(rng, n);
            let b = self.probes.sample(rng, n);
            let la = state.load(a);
            let lb = state.load(b);
            let chosen = if la < lb {
                a
            } else if lb < la {
                b
            } else if rng.gen_bool(0.5) {
                a
            } else {
                b
            };
            (chosen, 2)
        } else {
            (self.probes.sample(rng, n), 1)
        };
        let h = state.add_ball(bin);
        heights_out.record(h);
        RoundStats {
            thrown: 1,
            placed: 1,
            probes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_core::{run_once, run_trials, RunConfig};

    #[test]
    fn rejects_bad_beta() {
        assert!(OnePlusBeta::new(-0.1).is_err());
        assert!(OnePlusBeta::new(1.1).is_err());
        assert!(OnePlusBeta::new(f64::NAN).is_err());
        assert!(OnePlusBeta::new(0.0).is_ok());
        assert!(OnePlusBeta::new(1.0).is_ok());
    }

    #[test]
    fn beta_zero_is_single_choice() {
        let mut p = OnePlusBeta::new(0.0).unwrap();
        let r = run_once(&mut p, &RunConfig::new(1 << 12, 2));
        assert_eq!(r.messages, 1 << 12);
        assert!(r.max_load >= 4, "should look like single choice");
    }

    #[test]
    fn beta_one_is_two_choice() {
        let mut p = OnePlusBeta::new(1.0).unwrap();
        let r = run_once(&mut p, &RunConfig::new(1 << 12, 3));
        assert_eq!(r.messages, 2 << 12);
        assert!(r.max_load <= 6, "should look like two-choice");
    }

    #[test]
    fn weighted_variant_is_stream_identical_with_equal_weights() {
        let uniform = {
            let mut p = OnePlusBeta::new(0.5).unwrap();
            run_once(&mut p, &RunConfig::new(256, 4))
        };
        let weighted = {
            let mut p = OnePlusBeta::new(0.5)
                .unwrap()
                .with_probes(ProbeDistribution::weighted(&vec![3.0; 256]).unwrap());
            assert_eq!(RoundProcess::name(&p), "(1+0.5)-choice@weighted");
            run_once(&mut p, &RunConfig::new(256, 4))
        };
        assert_eq!(weighted.load_histogram, uniform.load_histogram);
        assert_eq!(weighted.height_histogram, uniform.height_histogram);
        assert_eq!(weighted.messages, uniform.messages);
    }

    #[test]
    fn zipf_probing_concentrates_load() {
        let n = 1 << 10;
        let balls = 8 * n as u64;
        let run = |probes: ProbeDistribution, seed| {
            let mut p = OnePlusBeta::new(0.5).unwrap().with_probes(probes);
            run_once(&mut p, &RunConfig::new(n, seed).with_balls(balls))
        };
        let uniform = run(ProbeDistribution::Uniform, 6);
        let zipf = run(ProbeDistribution::zipf(n, 1.0).unwrap(), 6);
        assert!(
            zipf.max_load > uniform.max_load + 4,
            "zipf {} vs uniform {}",
            zipf.max_load,
            uniform.max_load
        );
    }

    #[test]
    fn interpolates_between_extremes() {
        let n = 1 << 13;
        let mean = |beta: f64, seed: u64| {
            run_trials(
                move |_| OnePlusBeta::new(beta).unwrap(),
                &RunConfig::new(n, seed),
                8,
            )
            .mean_max_load()
        };
        let lo = mean(0.0, 4);
        let mid = mean(0.5, 5);
        let hi = mean(1.0, 6);
        assert!(hi < mid, "beta=1 ({hi}) should beat beta=0.5 ({mid})");
        assert!(mid < lo, "beta=0.5 ({mid}) should beat beta=0 ({lo})");
    }
}
