//! The (k,d)-choice balls-into-bins process — core library.
//!
//! This crate implements the primary contribution of *"A Generalization of
//! Multiple Choice Balls-into-Bins: Tight Bounds"* (Park, PODC 2011 /
//! arXiv:1201.3310):
//!
//! > **The (k,d)-choice process.** In each round, `k ≤ d` balls are placed
//! > into the `k` least loaded (ties broken randomly) out of `d` bins chosen
//! > independently and uniformly at random **with replacement**, such that a
//! > bin sampled `m ≥ 1` times receives at most `m` balls.
//!
//! The multiplicity rule is realized through the paper's equivalent
//! formulation: place one tentative ball in each of the `d` sampled slots
//! (heights `L+1, …, L+c` for a bin of load `L` sampled `c` times), then
//! discard the `d − k` tentative balls of maximal height.
//!
//! ## Entry points
//!
//! * [`KdChoice`] — the round-based process, with the paper's
//!   [`RoundPolicy::Multiplicity`] rule or the §7 future-work
//!   [`RoundPolicy::Unrestricted`] relaxation.
//! * [`SerializedKdChoice`] — the serialization Aσ of Definition 1, used to
//!   validate Property (i) (`Aσ ≡ A` in distribution).
//! * [`LoadVector`] — the bin-state substrate with O(1) max-load and ν_y
//!   queries, including [`LoadVector::remove_ball`] departures for the §7
//!   dynamic process.
//! * [`BinStore`] — the substrate trait naming that observable surface,
//!   shared by the scheduler, storage, and concurrent-service layers.
//! * [`run_once`] / [`run_trials`] / [`run_sweep`] — deterministic,
//!   seedable drivers; trials and sweep grids run in parallel threads with
//!   per-trial derived seeds, histogramming ball heights inline.
//! * [`run_once_compact`] — the same [`KdChoice`] engine and round loop
//!   over a memory-bounded [`BinSlab`] ([`StoreKind`]: exact, packed4 or
//!   packed8 loads); on a lossless slab it is the [`run_once_on`] fill.
//! * [`RoundProcess`] — the monomorphized engine trait every process
//!   implements; every driver is generic over it, so no call crosses a
//!   vtable. [`KdChoice`] runs one round
//!   engine; its stream is pinned by golden digests, and the root test
//!   tree keeps an eager-key oracle over [`decide_k_least`] that checks
//!   it in distribution.
//! * [`StaticScenario`] / [`DynamicScenario`] — the core experiment
//!   families plugged into the workspace experiment layer
//!   (`kdchoice-expt`), runnable by name from the `kdchoice-bench` CLI.
//!
//! ```
//! use kdchoice_core::{KdChoice, RunConfig, run_once};
//!
//! # fn main() -> Result<(), kdchoice_core::ConfigError> {
//! let mut process = KdChoice::new(2, 3)?;
//! let result = run_once(&mut process, &RunConfig::new(1 << 14, 7));
//! assert_eq!(result.balls_placed, 1 << 14);
//! assert!(result.max_load >= 2 && result.max_load <= 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the `#[allow(unsafe_code)]` carve-outs are the
// two memory hints in `snapshot`: the software-prefetch intrinsic in
// `prefetch_read` and the `madvise(MADV_HUGEPAGE)` call in
// `advise_huge_pages` (neither changes a byte of memory); everything
// else stays safe Rust.
#![deny(unsafe_code)]

mod compact;
mod driver;
mod dynamic;
mod error;
mod kd;
mod kernel;
mod policy;
pub mod probes;
mod process;
pub mod scenario;
mod serialized;
mod snapshot;
mod state;
mod store;
mod trace;
mod vector;

pub use compact::{BinSlab, LoadSnapshot, PackedLoadSnapshot, PackedStore, StoreKind};
pub use driver::{
    run_once, run_once_compact, run_once_on, run_once_with_state, run_sweep, run_trials,
    HeightHistogram, RunConfig, RunResult, TrialSet,
};
pub use dynamic::DynamicKChoice;
pub use error::ConfigError;
pub use kd::KdChoice;
pub use kernel::{
    cmp_slots, expand_slots, height_slot, select_k_least, sort_probes, SlotKey, TentativeSlot,
};
pub use policy::RoundPolicy;
pub use probes::{two_tier_capacities, ProbeDistribution};
pub use process::{HeightSink, RoundProcess, RoundStats};
pub use scenario::{DynamicScenario, HeteroScenario, StaticScenario};
pub use serialized::{SerializedKdChoice, SigmaSchedule};
pub use snapshot::{decide_k_least, prefetch_line, LoadView, SharedLoadSnapshot};
pub use state::LoadVector;
pub use store::BinStore;
pub use trace::{run_with_trace, TracePoint};
pub use vector::{
    decide_k_least_vector, run_once_vector, PlacementObjective, VectorLoad, VectorSlot, MAX_DIMS,
};
