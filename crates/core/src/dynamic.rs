//! Dynamic-k (k,d)-choice — the other §7 future-work direction.
//!
//! > "The performance of (k,d)-choice can be further improved by adjusting
//! > the parameter k dynamically in each round…" (§7)
//!
//! [`DynamicKChoice`] keeps the probe budget `d` fixed but lets each round
//! decide how many balls to commit: it accepts every tentative slot whose
//! height is at most `⌈average load⌉ + slack` (at least one ball per round,
//! at most `k_max`). Rounds that sample only crowded bins place few balls
//! (spending their probes as reconnaissance); rounds that find empty bins
//! fill them. The `ablation` bench measures the effect.

use rand::RngCore;

use crate::error::ConfigError;
use crate::kernel::{expand_slots, height_slot, select_k_least, sort_probes};
use crate::process::{HeightSink, RoundProcess, RoundStats};
use crate::state::LoadVector;

/// (k,d)-choice with a per-round dynamic `k` (§7 future work).
///
/// Each round samples `d` bins with replacement and commits the tentative
/// slots of height ≤ `⌈(placed+1)/n⌉ + slack`, clamped to `[1, k_max]` balls.
/// The multiplicity rule is inherited from the slot construction (a bin
/// sampled `m` times contributes `m` slots).
///
/// ```
/// use kdchoice_core::{DynamicKChoice, RunConfig, run_once};
///
/// # fn main() -> Result<(), kdchoice_core::ConfigError> {
/// let mut p = DynamicKChoice::new(8, 1)?;
/// let r = run_once(&mut p, &RunConfig::new(1 << 12, 3));
/// assert_eq!(r.balls_placed, 1 << 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicKChoice {
    d: usize,
    slack: u32,
    samples: Vec<usize>,
    /// The round's tentative slots `(height, tie key, bin)`.
    tentative: Vec<(u32, u64, usize)>,
}

impl DynamicKChoice {
    /// Creates the process with probe budget `d` and acceptance threshold
    /// `⌈average⌉ + slack`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `d == 0`.
    pub fn new(d: usize, slack: u32) -> Result<Self, ConfigError> {
        if d == 0 {
            return Err(ConfigError::ZeroParameter("d"));
        }
        Ok(Self {
            d,
            slack,
            samples: Vec::with_capacity(d),
            tentative: Vec::with_capacity(d),
        })
    }

    /// The probe budget per round.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The threshold slack above the running average.
    pub fn slack(&self) -> u32 {
        self.slack
    }
}

impl RoundProcess for DynamicKChoice {
    fn name(&self) -> String {
        format!("dynamic-k({},+{})", self.d, self.slack)
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
        let n = state.n();
        kdchoice_prng::sample::fill_with_replacement(rng, n, self.d, &mut self.samples);
        sort_probes(&mut self.samples);
        expand_slots(
            &self.samples,
            rng,
            &mut self.tentative,
            |bin| state.load(bin),
            height_slot,
        );
        let threshold = ((state.total_balls() + 1).div_ceil(n as u64)) as u32 + self.slack;
        // Dynamic k: accept slots under the threshold; at least 1 (the
        // globally least loaded slot), at most what the driver still wants.
        let under = self.tentative.iter().filter(|t| t.0 <= threshold).count();
        let k_max =
            usize::try_from(balls_remaining.max(1).min(self.d as u64)).expect("bounded by d");
        let balls = under.clamp(1, k_max);
        let kept = select_k_least(&mut self.tentative, balls);
        kept.sort_unstable_by_key(|&(height, _, bin)| (bin, height));
        for &(height, _, bin) in kept.iter() {
            let h = state.add_ball(bin);
            debug_assert_eq!(h, height);
            heights_out.record(h);
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
    use crate::driver::{run_once, run_trials, RunConfig};
    use crate::kd::KdChoice;

    #[test]
    fn constructor_validates() {
        assert!(DynamicKChoice::new(0, 1).is_err());
        assert!(DynamicKChoice::new(4, 0).is_ok());
    }

    #[test]
    fn places_exactly_the_requested_balls() {
        let mut p = DynamicKChoice::new(6, 1).unwrap();
        let r = run_once(&mut p, &RunConfig::new(1 << 10, 1));
        assert_eq!(r.balls_placed, 1 << 10);
        // Never more than d balls per round.
        assert!(r.rounds >= (1u64 << 10) / 6);
    }

    #[test]
    fn committed_heights_respect_threshold_mostly() {
        // With slack 1 and n balls into n bins (average <= 1), committed
        // heights beyond 2 only occur through forced single placements.
        let mut p = DynamicKChoice::new(8, 1).unwrap();
        let r = run_once(&mut p, &RunConfig::new(1 << 12, 2));
        let above: u64 = r.mu(4);
        assert!(
            above <= r.balls_placed / 100,
            "too many balls above height 3: {above}"
        );
    }

    #[test]
    fn beats_fixed_k_on_max_load_at_same_probe_budget() {
        // Same d; dynamic k should match or beat fixed k = d/2 on max load
        // (it can refuse bad rounds), at the cost of more rounds/messages.
        let n = 1 << 13;
        let trials = 8;
        let dynamic = run_trials(
            |_| DynamicKChoice::new(8, 0).unwrap(),
            &RunConfig::new(n, 3),
            trials,
        );
        let fixed = run_trials(
            |_| KdChoice::new(4, 8).unwrap(),
            &RunConfig::new(n, 4),
            trials,
        );
        assert!(
            dynamic.mean_max_load() <= fixed.mean_max_load() + 0.25,
            "dynamic {} vs fixed {}",
            dynamic.mean_max_load(),
            fixed.mean_max_load()
        );
    }

    #[test]
    fn heavy_case_gap_stays_small() {
        let n = 1024usize;
        let mut p = DynamicKChoice::new(8, 1).unwrap();
        let r = run_once(&mut p, &RunConfig::new(n, 5).with_balls(16 * n as u64));
        assert!(r.gap <= 4.0, "gap {}", r.gap);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut p = DynamicKChoice::new(5, 1).unwrap();
            run_once(&mut p, &RunConfig::new(512, seed)).max_load
        };
        assert_eq!(run(9), run(9));
    }
}
