//! The process traits shared by (k,d)-choice and every baseline.
//!
//! [`RoundProcess`] is the **monomorphized engine trait**. `run_round` is
//! generic over the RNG and the height sink, so driving a concrete process
//! with a concrete generator compiles to a single fully inlined loop: no
//! vtable call per probe, per tie-break key, or per recorded height. All
//! drivers ([`crate::run_once`], [`crate::run_trials`],
//! [`crate::run_sweep`]) take `P: RoundProcess + ?Sized`. A caller that
//! runs several process types writes one generic helper and calls it per
//! type (as `kdchoice compare` does) rather than boxing them.

use rand::RngCore;

use crate::state::LoadVector;

/// Statistics reported by one round of an allocation process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Balls *thrown* this round (drives termination: a run ends when the
    /// configured number of balls has been thrown).
    pub thrown: u32,
    /// Balls actually *placed* this round. Less than `thrown` only for
    /// discarding processes such as SA_{x0} (Definition 3).
    pub placed: u32,
    /// Bins probed this round — the paper's message cost (footnote 1).
    pub probes: u64,
}

/// A consumer of placed-ball heights (§2.1: heights feed the µ_y
/// histogram).
///
/// The generic sink lets the drivers histogram heights inline instead of
/// materializing a per-round `Vec<u32>`; the coupling experiments that do
/// need the individual heights pass a `Vec<u32>`, which is also a sink.
pub trait HeightSink {
    /// Records the height of one placed ball.
    fn record(&mut self, height: u32);
}

impl HeightSink for Vec<u32> {
    #[inline]
    fn record(&mut self, height: u32) {
        self.push(height);
    }
}

/// The null sink, for drivers that only need the bin state (e.g. tracing).
impl HeightSink for () {
    #[inline]
    fn record(&mut self, _height: u32) {}
}

/// A sequential-round balls-into-bins allocation process with a
/// **monomorphized** round step.
///
/// Implementations mutate the shared [`LoadVector`] one round at a time;
/// the drivers own the loop, the RNG, and the metric accumulation, so that
/// *every* process — (k,d)-choice, the baselines, the serialized variant —
/// is measured identically.
///
/// `run_round` is generic over the RNG and sink, so the trait is not
/// object-safe: code that runs several process types is generic over `P`.
pub trait RoundProcess {
    /// A short human-readable name, e.g. `"(2,3)-choice"` or `"greedy[2]"`.
    fn name(&self) -> String;

    /// Runs one round: samples bins using `rng`, commits balls into
    /// `state`, and records the height of every placed ball into `heights`.
    ///
    /// A process must throw at least one ball per round
    /// (`RoundStats::thrown ≥ 1`), but may throw fewer than usual on the
    /// final partial round.
    ///
    /// `balls_remaining` is the number of balls the driver still wants
    /// thrown; processes with fixed round sizes may use it to truncate the
    /// final round.
    fn run_round<R, S>(
        &mut self,
        state: &mut LoadVector,
        rng: &mut R,
        heights: &mut S,
        balls_remaining: u64,
    ) -> RoundStats
    where
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized;

    /// Resets any per-run internal state (scratch buffers may be kept).
    /// The default implementation does nothing.
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A minimal process used to pin down the trait plumbing and the
    /// driver contract.
    struct OneByOne;

    impl RoundProcess for OneByOne {
        fn name(&self) -> String {
            "one-by-one".to_string()
        }

        fn run_round<R, S>(
            &mut self,
            state: &mut LoadVector,
            rng: &mut R,
            heights: &mut S,
            _balls_remaining: u64,
        ) -> RoundStats
        where
            R: RngCore + ?Sized,
            S: HeightSink + ?Sized,
        {
            let bin = rng.gen_range(0..state.n());
            let h = state.add_ball(bin);
            heights.record(h);
            RoundStats {
                thrown: 1,
                placed: 1,
                probes: 1,
            }
        }
    }

    #[test]
    fn null_sink_discards_heights() {
        let mut p = OneByOne;
        let mut state = LoadVector::new(4);
        let mut rng = kdchoice_prng::Xoshiro256PlusPlus::from_u64(4);
        let stats = RoundProcess::run_round(&mut p, &mut state, &mut rng, &mut (), 10);
        assert_eq!(stats.placed, 1);
        assert_eq!(state.total_balls(), 1);
    }

    #[test]
    fn round_stats_default_is_zero() {
        let s = RoundStats::default();
        assert_eq!(s.thrown, 0);
        assert_eq!(s.placed, 0);
        assert_eq!(s.probes, 0);
    }
}
