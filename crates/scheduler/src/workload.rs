//! Service-time distributions for the cluster workload.

use kdchoice_core::ConfigError;
use kdchoice_prng::dist::{BoundedPareto, Exponential};
use rand::RngCore;

/// Per-task service time distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDistribution {
    /// Exponential with the given mean (the M/M/· textbook case).
    Exponential {
        /// Mean service time.
        mean: f64,
    },
    /// Every task takes exactly this long (batch analytics tasks).
    Deterministic {
        /// The fixed service time.
        value: f64,
    },
    /// Bounded Pareto on `[lo, hi]` with shape `alpha` — heavy-tailed
    /// service times, the regime where probing quality matters most.
    Pareto {
        /// Shape parameter.
        alpha: f64,
        /// Smallest service time.
        lo: f64,
        /// Largest service time.
        hi: f64,
    },
}

impl ServiceDistribution {
    /// The distribution's mean (used for utilization accounting).
    pub fn mean(&self) -> f64 {
        match *self {
            ServiceDistribution::Exponential { mean } => mean,
            ServiceDistribution::Deterministic { value } => value,
            ServiceDistribution::Pareto { alpha, lo, hi } => {
                // Mean of the bounded Pareto.
                if (alpha - 1.0).abs() < 1e-12 {
                    let la = lo;
                    (la * (hi / lo).ln()) / (1.0 - lo / hi)
                } else {
                    let num = lo.powf(alpha) / (1.0 - (lo / hi).powf(alpha));
                    num * (alpha / (alpha - 1.0))
                        * (1.0 / lo.powf(alpha - 1.0) - 1.0 / hi.powf(alpha - 1.0))
                }
            }
        }
    }

    /// Draws one service time.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (validated lazily; construct
    /// through the public fields responsibly or via
    /// [`crate::ClusterConfig::validate`]).
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sampler().unwrap_or_else(|e| panic!("{e}")).sample(rng)
    }

    /// The sampler of this distribution, with its per-draw constants
    /// computed once; its draws are bit-identical to
    /// [`ServiceDistribution::sample`]'s. Fails with
    /// [`ConfigError::OutOfRange`] on parameters it cannot draw from.
    pub(crate) fn sampler(&self) -> Result<ServiceSampler, ConfigError> {
        let out_of_range = |name, need| ConfigError::OutOfRange { name, need };
        match *self {
            ServiceDistribution::Exponential { mean } => Exponential::new(1.0 / mean)
                .map(ServiceSampler::Exponential)
                .map_err(|_| out_of_range("exponential service mean", "finite and > 0")),
            ServiceDistribution::Deterministic { value } if value.is_finite() && value >= 0.0 => {
                Ok(ServiceSampler::Deterministic(value))
            }
            ServiceDistribution::Deterministic { .. } => Err(out_of_range(
                "deterministic service time",
                "finite and >= 0",
            )),
            ServiceDistribution::Pareto { alpha, lo, hi } => BoundedPareto::new(alpha, lo, hi)
                .map(ServiceSampler::Pareto)
                .map_err(|_| out_of_range("pareto service", "alpha > 0 and 0 < lo < hi")),
        }
    }
}

/// A [`ServiceDistribution`] ready to draw: built once per simulation so
/// that no task rebuilds its distribution.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ServiceSampler {
    Exponential(Exponential),
    Deterministic(f64),
    Pareto(BoundedPareto),
}

impl ServiceSampler {
    /// Draws one service time.
    #[inline]
    pub(crate) fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            ServiceSampler::Exponential(exp) => exp.sample(rng),
            ServiceSampler::Deterministic(value) => *value,
            ServiceSampler::Pareto(pareto) => pareto.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::Xoshiro256PlusPlus;

    #[test]
    fn deterministic_mean_and_samples() {
        let d = ServiceDistribution::Deterministic { value: 2.5 };
        assert_eq!(d.mean(), 2.5);
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        assert_eq!(d.sample(&mut rng), 2.5);
    }

    #[test]
    fn exponential_empirical_mean_matches() {
        let d = ServiceDistribution::Exponential { mean: 3.0 };
        assert_eq!(d.mean(), 3.0);
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        let m: f64 = (0..40_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 40_000.0;
        assert!((m - 3.0).abs() < 0.1, "empirical mean {m}");
    }

    #[test]
    fn pareto_empirical_mean_matches_formula() {
        let d = ServiceDistribution::Pareto {
            alpha: 1.5,
            lo: 1.0,
            hi: 100.0,
        };
        let want = d.mean();
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let m: f64 = (0..200_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 200_000.0;
        assert!(
            (m - want).abs() / want < 0.05,
            "empirical {m} vs formula {want}"
        );
    }

    #[test]
    fn pareto_alpha_one_mean_is_finite() {
        let d = ServiceDistribution::Pareto {
            alpha: 1.0,
            lo: 1.0,
            hi: 50.0,
        };
        let want = d.mean();
        assert!(want.is_finite() && want > 1.0 && want < 50.0);
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        let m: f64 = (0..200_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 200_000.0;
        assert!(
            (m - want).abs() / want < 0.06,
            "empirical {m} vs formula {want}"
        );
    }
}
