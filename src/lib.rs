//! # kdchoice — a generalization of multiple choice balls-into-bins
//!
//! This is the umbrella crate for a full reproduction of *"A Generalization
//! of Multiple Choice Balls-into-Bins: Tight Bounds"* (Gahyun Park, PODC 2011
//! brief announcement; full version arXiv:1201.3310).
//!
//! The paper studies the **(k,d)-choice process**: `n` balls are placed into
//! `n` bins over `n/k` rounds; in each round, `k ≤ d` balls are placed into
//! the `k` least loaded out of `d` bins chosen independently and uniformly at
//! random (with replacement), such that a bin sampled `m` times receives at
//! most `m` balls.
//!
//! ## Crates
//!
//! * [`kd`] — the core process ([`kd::KdChoice`]), load-vector state, and run
//!   drivers.
//! * [`baselines`] — single choice, d-choice, always-go-left, (1+β)-choice,
//!   truncated single choice SA_x0, adaptive probing, batched parallel.
//! * [`theory`] — Theorem 1/2 bound calculators and layered-induction
//!   sequences.
//! * [`stats`] — summaries, quantiles, two-sample tests, majorization checks.
//! * [`prng`] — deterministic xoshiro256++ generator, samplers, workload
//!   distributions.
//! * [`sim`] — a small discrete-event simulation engine.
//! * [`expt`] — the experiment layer: the `Scenario` trait, the parallel
//!   `SweepRunner`, mergeable accumulators, grid parsing, and the
//!   JSONL/CSV/table reporters shared by every experiment family.
//! * [`scheduler`] — parallel job scheduling application (§1.3 of the paper).
//! * [`storage`] — distributed storage application (§1.3 of the paper).
//! * [`service`] — the concurrent placement service: sharded lock-striped
//!   `BinStore` plus the (k,d)-choice placement/release frontend.
//!
//! ## Quickstart
//!
//! ```
//! use kdchoice::kd::{KdChoice, RunConfig, run_once};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // (2,3)-choice: 2 balls to the 2 least loaded of 3 sampled bins per round.
//! let mut process = KdChoice::new(2, 3)?;
//! let result = run_once(&mut process, &RunConfig::new(1 << 16, 42));
//! println!("max load = {}", result.max_load);
//! assert!(result.max_load <= 8);
//! # Ok(())
//! # }
//! ```

pub mod cli;

pub use kdchoice_baselines as baselines;
pub use kdchoice_core as kd;
pub use kdchoice_expt as expt;
pub use kdchoice_prng as prng;
pub use kdchoice_scheduler as scheduler;
pub use kdchoice_service as service;
pub use kdchoice_sim as sim;
pub use kdchoice_stats as stats;
pub use kdchoice_storage as storage;
pub use kdchoice_theory as theory;

/// Commonly used items, re-exported for convenience.
///
/// ```
/// use kdchoice::prelude::*;
///
/// let mut p = KdChoice::new(3, 5).unwrap();
/// let r = run_once(&mut p, &RunConfig::new(4096, 7));
/// assert_eq!(r.balls_placed, 4096);
/// ```
pub mod prelude {
    pub use kdchoice_baselines::{DChoice, SingleChoice};
    pub use kdchoice_core::{
        run_once, run_sweep, run_trials, BallsIntoBins, KdChoice, LoadVector, RoundPolicy,
        RoundProcess, RunConfig, RunResult,
    };
    pub use kdchoice_prng::Xoshiro256PlusPlus;
    pub use kdchoice_theory::bounds::theorem1_prediction;
}
