//! SA_{x₀}: the truncated single-choice process of Definition 3.

use kdchoice_core::{HeightSink, LoadVector, RoundProcess, RoundStats};
use rand::{Rng, RngCore};

/// The SA_{x₀} process (Definition 3 of the paper): each ball chooses a bin
/// i.u.r., say bin x (the x-th most loaded at that moment, ties ranked
/// randomly); the ball is **placed only if `x > x₀`** and discarded
/// otherwise.
///
/// This process is pure lower-bound machinery: Lemma 8 shows
/// `SA_{x₀} ≤dm SA`, and Lemma 10/Corollary 3 show `SA_{γ*} ≤dm A(k,d)` for
/// `γ* = 4n/dk`, which converts single-choice lower bounds into (k,d)-choice
/// lower bounds. Implementing it lets the `properties` bench check these
/// dominations empirically.
///
/// ```
/// use kdchoice_baselines::TruncatedSingleChoice;
/// use kdchoice_core::{run_once, RunConfig};
///
/// let mut p = TruncatedSingleChoice::new(10);
/// let r = run_once(&mut p, &RunConfig::new(1 << 10, 1));
/// assert_eq!(r.balls_thrown, 1 << 10);
/// assert!(r.balls_placed < r.balls_thrown); // some balls discarded
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedSingleChoice {
    x0: usize,
}

impl TruncatedSingleChoice {
    /// Creates SA_{x₀}. `x0 = 0` never discards and equals single choice.
    pub fn new(x0: usize) -> Self {
        Self { x0 }
    }

    /// The truncation rank x₀.
    pub fn x0(&self) -> usize {
        self.x0
    }
}

impl RoundProcess for TruncatedSingleChoice {
    fn name(&self) -> String {
        format!("SA_{{{}}}", self.x0)
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
        let rank = state.rank_of(bin, rng);
        let placed = if rank > self.x0 {
            let h = state.add_ball(bin);
            heights_out.record(h);
            1
        } else {
            0
        };
        RoundStats {
            thrown: 1,
            placed,
            probes: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SingleChoice;
    use kdchoice_core::{run_once, run_trials, RunConfig};

    #[test]
    fn x0_zero_never_discards() {
        let mut p = TruncatedSingleChoice::new(0);
        let r = run_once(&mut p, &RunConfig::new(512, 1));
        assert_eq!(r.balls_placed, r.balls_thrown);
    }

    #[test]
    fn x0_n_discards_everything_after_first_levels() {
        // With x0 = n every rank is <= x0, so every ball is discarded.
        let mut p = TruncatedSingleChoice::new(512);
        let r = run_once(&mut p, &RunConfig::new(512, 2));
        assert_eq!(r.balls_placed, 0);
        assert_eq!(r.max_load, 0);
    }

    #[test]
    fn lemma8_property_ii_top_loads_differ_by_at_most_one() {
        // Lemma 8(ii): B_1 = B_{x0} or B_1 = B_{x0} + 1 — the top x0 bins
        // stay within one ball of each other (they only grow while outside
        // the top-x0, so the top is flat).
        let x0 = 16;
        let mut p = TruncatedSingleChoice::new(x0);
        let (_, state) = kdchoice_core::run_once_with_state(&mut p, &RunConfig::new(1 << 10, 3));
        let sorted = state.sorted_descending();
        let b1 = sorted[0];
        let bx0 = sorted[x0 - 1];
        assert!(
            b1 == bx0 || b1 == bx0 + 1,
            "B1 = {b1}, B_x0 = {bx0}: violates Lemma 8(ii)"
        );
    }

    #[test]
    fn lemma8_property_iii_dominated_by_single_choice() {
        // SA_{x0} <=dm SA: per-rank loads are stochastically below single
        // choice. Compare mean sorted vectors over trials.
        let n = 1 << 10;
        let trials = 30;
        let trunc = run_trials(
            |_| TruncatedSingleChoice::new(8),
            &RunConfig::new(n, 4),
            trials,
        );
        let plain = run_trials(|_| SingleChoice::new(), &RunConfig::new(n, 5), trials);
        let mean_sorted = |set: &kdchoice_core::TrialSet| -> Vec<f64> {
            let vecs = set.sorted_load_vectors();
            let mut acc = vec![0.0; n];
            for v in &vecs {
                for (i, &x) in v.iter().enumerate() {
                    acc[i] += f64::from(x);
                }
            }
            for a in &mut acc {
                *a /= vecs.len() as f64;
            }
            acc
        };
        let mt = mean_sorted(&trunc);
        let mp = mean_sorted(&plain);
        // Allow small sampling noise per coordinate.
        for i in 0..n {
            assert!(
                mt[i] <= mp[i] + 0.35,
                "rank {i}: truncated {} vs plain {}",
                mt[i],
                mp[i]
            );
        }
    }

    #[test]
    fn discard_fraction_grows_with_x0() {
        let n = 1 << 10;
        let placed = |x0: usize, seed: u64| {
            let mut p = TruncatedSingleChoice::new(x0);
            run_once(&mut p, &RunConfig::new(n, seed)).balls_placed
        };
        let p8 = placed(8, 6);
        let p128 = placed(128, 7);
        assert!(
            p128 < p8,
            "more truncation must discard more: {p128} vs {p8}"
        );
    }
}
