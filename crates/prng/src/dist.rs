//! Workload distributions for the scheduler and storage applications.
//!
//! The paper's applications (§1.3) are a cluster job scheduler and a
//! distributed storage system. Their simulations need inter-arrival times
//! (exponential), batch sizes (Poisson), heavy-tailed service times and file
//! sizes (bounded Pareto), popularity skew (Zipf), and general weighted
//! choices (Walker/Vose alias tables). All of these are implemented here from
//! scratch so that the workspace's output is a pure function of the seed.

use std::error::Error;
use std::fmt;

use rand::{Rng, RngCore};

/// Error returned when a distribution is constructed with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    what: &'static str,
}

impl ParamError {
    /// Creates a parameter error with a static description — public so
    /// downstream distribution adapters (e.g. the probe-distribution
    /// seam in `kdchoice-core`) report constructor misuse uniformly.
    pub fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl Error for ParamError {}

/// Draws a uniform value in the open interval (0, 1).
///
/// Open at 0 so that `ln(u)` is always finite.
#[inline]
fn open_unit<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            return u;
        }
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`).
///
/// ```
/// use kdchoice_prng::{dist::Exponential, Xoshiro256PlusPlus};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let exp = Exponential::new(2.0)?;
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `rate` is not finite and positive.
    pub fn new(rate: f64) -> Result<Self, ParamError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ParamError::new("exponential rate must be finite and > 0"));
        }
        Ok(Self { rate })
    }

    /// The rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Draws one sample by inversion.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        -open_unit(rng).ln() / self.rate
    }
}

/// Poisson distribution with mean `λ`.
///
/// Uses Knuth's product method for `λ ≤ 30` and a normal approximation with
/// continuity correction (clamped at 0) for larger means, which is accurate
/// to well under a percent in that regime and fast enough for workload
/// generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(ParamError::new("poisson mean must be finite and > 0"));
        }
        Ok(Self { lambda })
    }

    /// The mean `λ`.
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    /// Draws one sample.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda <= 30.0 {
            // Knuth: count multiplications until the product drops below e^-λ.
            let limit = (-self.lambda).exp();
            let mut product = open_unit(rng);
            let mut count = 0u64;
            while product > limit {
                product *= open_unit(rng);
                count += 1;
            }
            count
        } else {
            // Normal approximation N(λ, λ) with continuity correction.
            let z = standard_normal(rng);
            let x = self.lambda + self.lambda.sqrt() * z + 0.5;
            if x < 0.0 {
                0
            } else {
                x.floor() as u64
            }
        }
    }
}

/// Draws a standard normal via the Box–Muller transform (one of the pair).
#[inline]
fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    let u1 = open_unit(rng);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
///
/// The classic heavy-tailed service-time / file-size model: most mass near
/// `lo`, rare values near `hi`. Sampling is by inversion of the truncated
/// CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    /// `lo^α`, computed once.
    lo_alpha: f64,
    /// `hi^α`, computed once.
    hi_alpha: f64,
    /// The inversion's exponent `-1/α`, computed once.
    neg_inv_alpha: f64,
}

impl BoundedPareto {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `0 < lo < hi` and `alpha > 0`, all finite.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Result<Self, ParamError> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(ParamError::new("pareto shape must be finite and > 0"));
        }
        if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi) {
            return Err(ParamError::new("pareto bounds must satisfy 0 < lo < hi"));
        }
        Ok(Self {
            lo,
            hi,
            lo_alpha: lo.powf(alpha),
            hi_alpha: hi.powf(alpha),
            neg_inv_alpha: -1.0 / alpha,
        })
    }

    /// Draws one sample in `[lo, hi]`.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let (la, ha) = (self.lo_alpha, self.hi_alpha);
        // Inverse of F(x) = (1 - (lo/x)^α) / (1 - (lo/hi)^α).
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(self.neg_inv_alpha);
        x.clamp(self.lo, self.hi)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`
/// (`P(rank = i) ∝ 1/(i+1)^s`).
///
/// Uses a precomputed CDF table with binary search: `O(n)` memory, `O(log n)`
/// per sample, exact. Fine for the catalogue sizes (≤ millions) used in the
/// storage workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates the distribution over `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `n == 0` or `s` is not finite and ≥ 0.
    pub fn new(n: usize, s: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::new("zipf support must be non-empty"));
        }
        if !(s.is_finite() && s >= 0.0) {
            return Err(ParamError::new("zipf exponent must be finite and >= 0"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating point: the last entry must be exactly 1.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Ok(Self { cdf })
    }

    /// The size of the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Weighted discrete distribution using the Walker/Vose alias method:
/// `O(n)` construction, `O(1)` per sample.
///
/// ```
/// use kdchoice_prng::{dist::AliasTable, Xoshiro256PlusPlus};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = AliasTable::new(&[1.0, 0.0, 3.0])?;
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// for _ in 0..100 {
///     assert_ne!(table.sample(&mut rng), 1, "zero-weight index drawn");
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from non-negative weights (not necessarily
    /// normalized).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `weights` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, ParamError> {
        if weights.is_empty() {
            return Err(ParamError::new("alias table needs at least one weight"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ParamError::new(
                "alias weights must be finite and non-negative",
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ParamError::new("alias weights must not all be zero"));
        }
        let n = weights.len();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0usize; n];
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &l in &large {
            prob[l] = 1.0;
        }
        for &s in &small {
            // Only reachable through floating-point round-off.
            prob[s] = 1.0;
        }
        Ok(Self { prob, alias })
    }

    /// The number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index with probability proportional to its weight.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        let u: f64 = rng.gen();
        if u < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256PlusPlus;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn exponential_mean_matches() {
        let exp = Exponential::new(0.5).unwrap();
        assert_eq!(exp.rate(), 0.5);
        assert_eq!(exp.mean(), 2.0);
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let samples: Vec<f64> = (0..50_000).map(|_| exp.sample(&mut rng)).collect();
        let m = mean_of(&samples);
        assert!((m - 2.0).abs() < 0.05, "empirical mean {m}");
        assert!(samples.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn poisson_rejects_bad_mean() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }

    #[test]
    fn poisson_small_lambda_mean_and_variance() {
        let p = Poisson::new(4.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        let samples: Vec<f64> = (0..50_000).map(|_| p.sample(&mut rng) as f64).collect();
        let m = mean_of(&samples);
        let v = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / samples.len() as f64;
        assert!((m - 4.0).abs() < 0.08, "empirical mean {m}");
        assert!((v - 4.0).abs() < 0.25, "empirical variance {v}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_approx_sanely() {
        let p = Poisson::new(400.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let samples: Vec<f64> = (0..20_000).map(|_| p.sample(&mut rng) as f64).collect();
        let m = mean_of(&samples);
        assert!((m - 400.0).abs() < 2.0, "empirical mean {m}");
    }

    #[test]
    fn bounded_pareto_rejects_bad_params() {
        assert!(BoundedPareto::new(0.0, 1.0, 2.0).is_err());
        assert!(BoundedPareto::new(1.0, 2.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.0, 0.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let bp = BoundedPareto::new(1.2, 1.0, 1000.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        for _ in 0..20_000 {
            let x = bp.sample(&mut rng);
            assert!((1.0..=1000.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn bounded_pareto_matches_the_per_draw_formula_bit_for_bit() {
        for (alpha, lo, hi) in [(1.5, 0.5, 50.0), (1.0, 1.0, 10_000.0), (0.3, 2.0, 3.0)] {
            let bp = BoundedPareto::new(alpha, lo, hi).unwrap();
            let mut a = Xoshiro256PlusPlus::from_u64(7);
            let mut b = Xoshiro256PlusPlus::from_u64(7);
            for _ in 0..2_000 {
                let u: f64 = b.gen();
                let (la, ha) = (f64::powf(lo, alpha), f64::powf(hi, alpha));
                let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
                let want = x.clamp(lo, hi);
                assert_eq!(
                    bp.sample(&mut a).to_bits(),
                    want.to_bits(),
                    "{alpha} {lo} {hi}"
                );
            }
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        // Median should be near lo; a visible fraction should exceed 10*lo.
        let bp = BoundedPareto::new(1.0, 1.0, 10_000.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let mut samples: Vec<f64> = (0..20_000).map(|_| bp.sample(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!(median < 3.0, "median {median}");
        let tail = samples.iter().filter(|&&x| x > 10.0).count() as f64 / samples.len() as f64;
        assert!(tail > 0.05, "tail mass {tail}");
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, -1.0).is_err());
        assert!(Zipf::new(5, f64::NAN).is_err());
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        assert_eq!(z.len(), 4);
        let mut rng = Xoshiro256PlusPlus::from_u64(6);
        let mut counts = [0u32; 4];
        let trials = 40_000;
        for _ in 0..trials {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let f = c as f64 / trials as f64;
            assert!((f - 0.25).abs() < 0.02, "frequency {f}");
        }
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(100, 1.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(7);
        let trials = 30_000;
        let zero_hits = (0..trials).filter(|_| z.sample(&mut rng) == 0).count();
        // P(0) = 1/H_100 ≈ 0.193.
        let f = zero_hits as f64 / trials as f64;
        assert!((f - 0.193).abs() < 0.02, "rank-0 frequency {f}");
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(10, 2.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(8);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn alias_rejects_bad_weights() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[1.0, -0.5]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn alias_matches_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights).unwrap();
        assert_eq!(table.len(), 4);
        let mut rng = Xoshiro256PlusPlus::from_u64(9);
        let mut counts = [0u32; 4];
        let trials = 100_000;
        for _ in 0..trials {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let f = c as f64 / trials as f64;
            let want = weights[i] / 10.0;
            assert!((f - want).abs() < 0.01, "index {i}: {f} vs {want}");
        }
    }

    #[test]
    fn alias_single_category_always_drawn() {
        let table = AliasTable::new(&[0.7]).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(10);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn param_error_displays() {
        let e = Exponential::new(-1.0).unwrap_err();
        assert!(e.to_string().contains("invalid distribution parameter"));
    }
}
