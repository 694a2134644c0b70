//! Greedy[d]: the standard d-choice process of Azar et al.

use kdchoice_core::{
    ConfigError, HeightSink, LoadVector, ProbeDistribution, RoundProcess, RoundStats,
};
use rand::RngCore;

/// The d-choice (Greedy\[d\]) process of Azar, Broder, Karlin & Upfal: each
/// ball samples `d` bins i.u.r. with replacement and joins the least loaded,
/// ties broken randomly. Maximum load `lnln n/ln d + Θ(1)` w.h.p.
///
/// Within the paper this plays two roles: the `k = 1` member of the
/// (k,d)-choice family, and the coupling target `A(1, d−k+1) ≤mj A(k,d)` of
/// the lower-bound analysis (§5).
///
/// ```
/// use kdchoice_baselines::DChoice;
/// use kdchoice_core::{run_once, RunConfig};
///
/// # fn main() -> Result<(), kdchoice_core::ConfigError> {
/// let mut p = DChoice::new(2)?;
/// let r = run_once(&mut p, &RunConfig::new(1 << 12, 1));
/// assert!(r.max_load <= 6); // two-choice: lnln n / ln 2 + O(1)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DChoice {
    d: usize,
    probes: ProbeDistribution,
    samples: Vec<usize>,
}

impl DChoice {
    /// Creates a d-choice process.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `d == 0`.
    pub fn new(d: usize) -> Result<Self, ConfigError> {
        if d == 0 {
            return Err(ConfigError::ZeroParameter("d"));
        }
        Ok(Self {
            d,
            probes: ProbeDistribution::Uniform,
            samples: Vec::with_capacity(d),
        })
    }

    /// Switches the probe distribution (builder style) — the weighted
    /// variant of greedy\[d\], for free via the distribution seam. The
    /// uniform default draws the identical generator stream as before
    /// the seam existed.
    #[must_use]
    pub fn with_probes(mut self, probes: ProbeDistribution) -> Self {
        self.probes = probes;
        self
    }

    /// The active probe distribution.
    pub fn probes(&self) -> &ProbeDistribution {
        &self.probes
    }

    /// The number of choices per ball.
    pub fn d(&self) -> usize {
        self.d
    }
}

impl RoundProcess for DChoice {
    fn name(&self) -> String {
        if matches!(self.probes, ProbeDistribution::Uniform) {
            format!("greedy[{}]", self.d)
        } else {
            format!("greedy[{}]@{}", self.d, self.probes.label())
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
        self.samples.clear();
        // ProbeDistribution::sample's uniform arm is stream-identical to
        // the former `rng.gen_range(0..n)` draws.
        for _ in 0..self.d {
            self.samples.push(self.probes.sample(rng, n));
        }
        let idx = kdchoice_prng::sample::random_argmin(rng, &self.samples, |&b| state.load(b))
            .expect("d >= 1");
        let h = state.add_ball(self.samples[idx]);
        heights_out.record(h);
        RoundStats {
            thrown: 1,
            placed: 1,
            probes: self.d as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_core::{run_once, run_trials, RunConfig};

    #[test]
    fn rejects_zero_d() {
        assert!(DChoice::new(0).is_err());
    }

    #[test]
    fn d_one_is_single_choice_shaped() {
        let set = run_trials(|_| DChoice::new(1).unwrap(), &RunConfig::new(1 << 12, 5), 8);
        assert!(set.mean_max_load() >= 5.0, "{}", set.mean_max_load());
    }

    #[test]
    fn message_cost_is_d_per_ball() {
        let mut p = DChoice::new(5).unwrap();
        let r = run_once(&mut p, &RunConfig::new(512, 6));
        assert_eq!(r.messages, 512 * 5);
    }

    #[test]
    fn two_choice_beats_single_choice() {
        let n = 1 << 13;
        let one = run_trials(|_| DChoice::new(1).unwrap(), &RunConfig::new(n, 7), 8);
        let two = run_trials(|_| DChoice::new(2).unwrap(), &RunConfig::new(n, 8), 8);
        assert!(
            two.mean_max_load() + 1.5 < one.mean_max_load(),
            "two-choice {} vs single {}",
            two.mean_max_load(),
            one.mean_max_load()
        );
    }

    #[test]
    fn weighted_variant_skews_placements() {
        // greedy[1] with two-tier probing: hot bins collect the boost.
        let mut p = DChoice::new(1)
            .unwrap()
            .with_probes(ProbeDistribution::two_tier(16, 4, 9).unwrap());
        assert_eq!(RoundProcess::name(&p), "greedy[1]@weighted");
        let (r, state) =
            kdchoice_core::run_once_with_state(&mut p, &RunConfig::new(16, 3).with_balls(4000));
        assert_eq!(r.balls_placed, 4000);
        // Hot bins (0, 4, 8, 12) carry 36/48 = 3/4 of the probe mass;
        // under single choice their load share matches it. Uniform
        // probing would give them 1/4, so this cleanly separates.
        let hot: u64 = [0usize, 4, 8, 12]
            .iter()
            .map(|&b| u64::from(state.load(b)))
            .sum();
        let share = hot as f64 / 4000.0;
        assert!((share - 0.75).abs() < 0.05, "hot-bin load share {share}");
    }

    #[test]
    fn equal_weights_match_uniform_stream() {
        let uniform = {
            let mut p = DChoice::new(3).unwrap();
            run_once(&mut p, &RunConfig::new(128, 9))
        };
        let weighted = {
            let mut p = DChoice::new(3)
                .unwrap()
                .with_probes(ProbeDistribution::weighted(&vec![2.0; 128]).unwrap());
            run_once(&mut p, &RunConfig::new(128, 9))
        };
        assert_eq!(weighted.load_histogram, uniform.load_histogram);
        assert_eq!(weighted.height_histogram, uniform.height_histogram);
    }

    #[test]
    fn larger_d_does_not_hurt() {
        let n = 1 << 12;
        let d2 = run_trials(|_| DChoice::new(2).unwrap(), &RunConfig::new(n, 9), 8);
        let d8 = run_trials(|_| DChoice::new(8).unwrap(), &RunConfig::new(n, 10), 8);
        assert!(d8.mean_max_load() <= d2.mean_max_load() + 0.5);
    }
}
