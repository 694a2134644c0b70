//! The eager-key (k,d)-choice stream, kept as an independent oracle for
//! `KdChoice`'s round engine.
//!
//! Each round draws `d` probes with one bounded draw each, sorts them, and
//! lets the public `decide_k_least` expand them into tentative slots with
//! one tie key per slot and pick the `k` least. `KdChoice` instead block-
//! pulls its probes and draws tie randomness only at the selection
//! boundary, so the two agree in distribution, not stream for stream.
//! `SerializedKdChoice` under the identity schedule consumes this stream
//! exactly.

use kdchoice::kd::{decide_k_least, HeightSink, LoadVector, RoundProcess, RoundStats};
use rand::{Rng, RngCore};

/// (k,d)-choice with eager tie keys, built on `decide_k_least`.
pub struct EagerKdChoice {
    k: usize,
    d: usize,
    probes: Vec<usize>,
    slots: Vec<(u32, u64, usize)>,
    winners: Vec<usize>,
}

impl EagerKdChoice {
    /// Panics unless `1 <= k <= d`.
    pub fn new(k: usize, d: usize) -> Self {
        assert!(1 <= k && k <= d, "need 1 <= k <= d (got k={k}, d={d})");
        Self {
            k,
            d,
            probes: Vec::with_capacity(d),
            slots: Vec::with_capacity(d),
            winners: Vec::with_capacity(k),
        }
    }
}

impl RoundProcess for EagerKdChoice {
    fn name(&self) -> String {
        format!("({},{})-choice", self.k, self.d)
    }

    fn run_round<R, S>(
        &mut self,
        state: &mut LoadVector,
        rng: &mut R,
        heights: &mut S,
        balls_remaining: u64,
    ) -> RoundStats
    where
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        let balls = (self.k as u64).min(balls_remaining.max(1)) as usize;
        let n = state.n();
        self.probes.clear();
        self.probes.extend((0..self.d).map(|_| rng.gen_range(0..n)));
        self.probes.sort_unstable();
        self.winners.clear();
        decide_k_least(
            &*state,
            &self.probes,
            balls,
            rng,
            &mut self.slots,
            &mut self.winners,
        );
        for &bin in &self.winners {
            heights.record(state.add_ball(bin));
        }
        RoundStats {
            thrown: balls as u32,
            placed: balls as u32,
            probes: self.d as u64,
        }
    }
}
