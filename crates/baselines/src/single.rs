//! The classical single-choice process.

use kdchoice_core::{HeightSink, LoadVector, RoundProcess, RoundStats};
use rand::{Rng, RngCore};

/// Classical single-choice balls-into-bins: every ball goes to one bin
/// chosen i.u.r. Maximum load `(1+o(1))·ln n/lnln n` w.h.p. for `n` balls
/// into `n` bins (Raab & Steger; the paper's reference \[15\]).
///
/// This is also the paper's **SA = SA(k,k)** process: placing `k` balls
/// i.u.r. per round is distributionally identical to placing them one at a
/// time, so a single implementation covers every `k`.
///
/// ```
/// use kdchoice_baselines::SingleChoice;
/// use kdchoice_core::{run_once, RunConfig};
///
/// let mut p = SingleChoice::new();
/// let r = run_once(&mut p, &RunConfig::new(1 << 12, 1));
/// assert_eq!(r.messages, 1 << 12); // one probe per ball
/// assert!(r.max_load >= 3); // single choice is visibly worse than 2-choice
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SingleChoice;

impl SingleChoice {
    /// Creates the process.
    pub fn new() -> Self {
        Self
    }
}

impl RoundProcess for SingleChoice {
    fn name(&self) -> String {
        "single-choice".to_string()
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
        let bin = rng.gen_range(0..state.n());
        let h = state.add_ball(bin);
        heights_out.record(h);
        RoundStats {
            thrown: 1,
            placed: 1,
            probes: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_core::{run_once, run_trials, RunConfig};

    #[test]
    fn places_every_ball() {
        let mut p = SingleChoice::new();
        let r = run_once(&mut p, &RunConfig::new(1000, 2));
        assert_eq!(r.balls_placed, 1000);
        assert_eq!(r.rounds, 1000);
        assert_eq!(r.messages_per_ball(), 1.0);
    }

    #[test]
    fn max_load_is_in_the_raab_steger_ballpark() {
        // At n = 2^14, ln n/lnln n ≈ 4.3; the w.h.p. max is ~3x that.
        let set = run_trials(|_| SingleChoice::new(), &RunConfig::new(1 << 14, 3), 10);
        let mean = set.mean_max_load();
        assert!((5.0..=13.0).contains(&mean), "mean max load {mean}");
    }

    #[test]
    fn loads_spread_over_all_bins_reasonably() {
        let mut p = SingleChoice::new();
        let r = run_once(&mut p, &RunConfig::new(1 << 12, 4));
        // Poisson(1): about 36.8% of bins stay empty.
        let empty = r.load_histogram[0] as f64 / r.n as f64;
        assert!((empty - 0.368).abs() < 0.03, "empty fraction {empty}");
    }
}
