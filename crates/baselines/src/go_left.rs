//! Vöcking's Always-Go-Left asymmetric d-choice.

use kdchoice_core::{ConfigError, HeightSink, LoadVector, RoundProcess, RoundStats};
use rand::{Rng, RngCore};

/// Vöcking's Always-Go-Left process ("How asymmetry helps load balancing",
/// the paper's reference \[19\]): the `n` bins are split into `d` contiguous
/// groups of (almost) equal size; each ball draws one bin i.u.r. from *each*
/// group and joins a least loaded one, breaking ties toward the **leftmost
/// group**. Maximum load `lnln n/(d·ln φ_d) + O(1)` — better than symmetric
/// d-choice by the factor-d in the denominator.
///
/// ```
/// use kdchoice_baselines::AlwaysGoLeft;
/// use kdchoice_core::{run_once, RunConfig};
///
/// # fn main() -> Result<(), kdchoice_core::ConfigError> {
/// let mut p = AlwaysGoLeft::new(2)?;
/// let r = run_once(&mut p, &RunConfig::new(1 << 12, 1));
/// assert!(r.max_load <= 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AlwaysGoLeft {
    d: usize,
}

impl AlwaysGoLeft {
    /// Creates the process with `d` groups.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `d == 0`.
    pub fn new(d: usize) -> Result<Self, ConfigError> {
        if d == 0 {
            return Err(ConfigError::ZeroParameter("d"));
        }
        Ok(Self { d })
    }

    /// The number of groups / choices per ball.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The half-open index range of group `g` within `n` bins.
    fn group_range(&self, g: usize, n: usize) -> (usize, usize) {
        let base = n / self.d;
        let rem = n % self.d;
        // First `rem` groups get one extra bin.
        let start = g * base + g.min(rem);
        let len = base + usize::from(g < rem);
        (start, start + len)
    }
}

impl RoundProcess for AlwaysGoLeft {
    fn name(&self) -> String {
        format!("go-left[{}]", self.d)
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
        debug_assert!(n >= self.d, "need at least d bins");
        let mut best_bin = usize::MAX;
        let mut best_load = u32::MAX;
        // Scan groups left to right; strict improvement required, so ties
        // resolve to the leftmost group automatically.
        for g in 0..self.d {
            let (lo, hi) = self.group_range(g, n);
            let bin = rng.gen_range(lo..hi);
            let load = state.load(bin);
            if load < best_load {
                best_load = load;
                best_bin = bin;
            }
        }
        let h = state.add_ball(best_bin);
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
        assert!(AlwaysGoLeft::new(0).is_err());
    }

    #[test]
    fn group_ranges_partition_bins() {
        for d in 1..=7 {
            let p = AlwaysGoLeft::new(d).unwrap();
            for n in [d, d + 1, 100, 101, 1024] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for g in 0..d {
                    let (lo, hi) = p.group_range(g, n);
                    assert_eq!(lo, prev_end, "gap before group {g} (d={d}, n={n})");
                    assert!(hi > lo, "empty group {g} (d={d}, n={n})");
                    covered += hi - lo;
                    prev_end = hi;
                }
                assert_eq!(covered, n, "groups must cover all bins (d={d}, n={n})");
            }
        }
    }

    #[test]
    fn places_one_ball_with_d_probes() {
        let mut p = AlwaysGoLeft::new(3).unwrap();
        let r = run_once(&mut p, &RunConfig::new(999, 2));
        assert_eq!(r.balls_placed, 999);
        assert_eq!(r.messages, 999 * 3);
    }

    #[test]
    fn go_left_is_at_least_as_good_as_two_choice() {
        use crate::DChoice;
        let n = 1 << 13;
        let gl = run_trials(|_| AlwaysGoLeft::new(2).unwrap(), &RunConfig::new(n, 4), 10);
        let two = run_trials(|_| DChoice::new(2).unwrap(), &RunConfig::new(n, 5), 10);
        assert!(
            gl.mean_max_load() <= two.mean_max_load() + 0.3,
            "go-left {} vs 2-choice {}",
            gl.mean_max_load(),
            two.mean_max_load()
        );
    }
}
