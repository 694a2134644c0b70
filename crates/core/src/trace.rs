//! Trajectory tracing: observe the maximum load and gap *during* a run.
//!
//! Theorem 2 is a statement about the end state, but its proof (§5.2)
//! partitions the process into round intervals R_i and tracks ν_y(R_i)
//! through time — and the interesting empirical phenomenon in the heavily
//! loaded case is the *trajectory*: (k,d)-choice's gap plateaus while single
//! choice's diverges. [`run_with_trace`] records checkpoints along the way.

use kdchoice_prng::Xoshiro256PlusPlus;

use crate::driver::RunConfig;
use crate::process::RoundProcess;
use crate::state::LoadVector;

/// One trajectory checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Balls thrown so far.
    pub balls: u64,
    /// Maximum load at this point.
    pub max_load: u32,
    /// `max_load − balls_placed/n`.
    pub gap: f64,
    /// Number of bins with load ≥ ⌈average⌉ + 1 (the "overloaded" count).
    pub overloaded_bins: u64,
}

/// Runs `process` like [`crate::run_once`], additionally recording a
/// [`TracePoint`] whenever the thrown-ball count crosses a checkpoint.
///
/// Checkpoints must be strictly increasing; values beyond `config.balls`
/// are ignored. The final state is always recorded as the last point.
///
/// # Panics
///
/// Panics if `checkpoints` is not strictly increasing, or if the process
/// stalls (see [`crate::run_once`]).
///
/// ```
/// use kdchoice_core::{run_with_trace, KdChoice, RunConfig};
///
/// # fn main() -> Result<(), kdchoice_core::ConfigError> {
/// let mut p = KdChoice::new(2, 4)?;
/// let cfg = RunConfig::new(256, 1).with_balls(1024);
/// let trace = run_with_trace(&mut p, &cfg, &[256, 512, 768]);
/// assert_eq!(trace.len(), 4); // 3 checkpoints + final state
/// assert_eq!(trace.last().unwrap().balls, 1024);
/// # Ok(())
/// # }
/// ```
pub fn run_with_trace<P: RoundProcess + ?Sized>(
    process: &mut P,
    config: &RunConfig,
    checkpoints: &[u64],
) -> Vec<TracePoint> {
    assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly increasing"
    );
    process.reset();
    let mut state = LoadVector::new(config.n);
    let mut rng = Xoshiro256PlusPlus::from_u64(config.seed);
    let mut thrown = 0u64;
    let mut trace: Vec<TracePoint> = Vec::with_capacity(checkpoints.len() + 1);
    let mut next_checkpoint = 0usize;
    while thrown < config.balls {
        // Tracing only observes the bin state; heights go to the null sink.
        let stats = process.run_round(&mut state, &mut rng, &mut (), config.balls - thrown);
        assert!(stats.thrown > 0, "process made no progress in a round");
        thrown += u64::from(stats.thrown);
        while next_checkpoint < checkpoints.len()
            && thrown >= checkpoints[next_checkpoint]
            && checkpoints[next_checkpoint] <= config.balls
        {
            trace.push(snapshot(&state, thrown));
            next_checkpoint += 1;
        }
        // Skip checkpoints beyond the budget.
        while next_checkpoint < checkpoints.len() && checkpoints[next_checkpoint] > config.balls {
            next_checkpoint += 1;
        }
    }
    match trace.last() {
        Some(last) if last.balls == thrown => {}
        _ => trace.push(snapshot(&state, thrown)),
    }
    trace
}

fn snapshot(state: &LoadVector, thrown: u64) -> TracePoint {
    let avg_ceil = (state.total_balls() as f64 / state.n() as f64).ceil() as u32;
    TracePoint {
        balls: thrown,
        max_load: state.max_load(),
        gap: state.gap(),
        overloaded_bins: state.nu(avg_ceil + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kd::KdChoice;

    #[test]
    fn trace_records_monotone_ball_counts() {
        let mut p = KdChoice::new(2, 4).unwrap();
        let cfg = RunConfig::new(128, 3).with_balls(1280);
        let trace = run_with_trace(&mut p, &cfg, &[128, 640, 1000]);
        assert_eq!(trace.len(), 4);
        for w in trace.windows(2) {
            assert!(w[0].balls < w[1].balls);
            assert!(w[0].max_load <= w[1].max_load, "max load is monotone");
        }
        assert_eq!(trace.last().unwrap().balls, 1280);
    }

    #[test]
    fn checkpoint_beyond_budget_is_ignored() {
        let mut p = KdChoice::new(1, 2).unwrap();
        let cfg = RunConfig::new(64, 4);
        let trace = run_with_trace(&mut p, &cfg, &[32, 1_000_000]);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].balls, 32);
        assert_eq!(trace[1].balls, 64);
    }

    #[test]
    fn empty_checkpoints_yield_final_only() {
        let mut p = KdChoice::new(1, 2).unwrap();
        let cfg = RunConfig::new(64, 5);
        let trace = run_with_trace(&mut p, &cfg, &[]);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].balls, 64);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_checkpoints_rejected() {
        let mut p = KdChoice::new(1, 2).unwrap();
        let cfg = RunConfig::new(64, 6);
        let _ = run_with_trace(&mut p, &cfg, &[10, 10]);
    }

    #[test]
    fn trace_matches_run_once_final_state() {
        let mut p1 = KdChoice::new(2, 3).unwrap();
        let mut p2 = KdChoice::new(2, 3).unwrap();
        let cfg = RunConfig::new(256, 7);
        let trace = run_with_trace(&mut p1, &cfg, &[64, 128]);
        let result = crate::driver::run_once(&mut p2, &cfg);
        let last = trace.last().unwrap();
        assert_eq!(last.max_load, result.max_load);
        assert!((last.gap - result.gap).abs() < 1e-12);
    }

    #[test]
    fn heavy_trace_gap_stays_bounded_for_d_2k() {
        let mut p = KdChoice::new(2, 4).unwrap();
        let n = 512usize;
        let cfg = RunConfig::new(n, 8).with_balls(32 * n as u64);
        let cps: Vec<u64> = (1..=31).map(|i| i * n as u64).collect();
        let trace = run_with_trace(&mut p, &cfg, &cps);
        for pt in &trace {
            assert!(
                pt.gap <= 6.0,
                "gap {} too large at {} balls",
                pt.gap,
                pt.balls
            );
        }
    }
}
