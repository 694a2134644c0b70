//! Baseline balls-into-bins processes.
//!
//! Every scheme the paper positions (k,d)-choice against, implemented on the
//! same monomorphized [`RoundProcess`](kdchoice_core::RoundProcess) trait so
//! the experiments drive them identically, statically dispatched through
//! the generic drivers:
//!
//! * [`SingleChoice`] — the classical process; also the paper's SA = SA(k,k)
//!   equivalence class (the round structure is irrelevant for i.u.r.
//!   placements).
//! * [`DChoice`] — Greedy\[d\] of Azar, Broder, Karlin & Upfal; (k,d)-choice
//!   with `k = 1`, and the coupling target `A(1, d−k+1)` of the paper's
//!   lower bound.
//! * [`AlwaysGoLeft`] — Vöcking's asymmetric d-choice with group-partitioned
//!   bins and leftmost tie-breaking.
//! * [`OnePlusBeta`] — the (1+β)-choice process of Peres, Talwar & Wieder,
//!   the other known single/multi-choice interpolation (§1 of the paper).
//! * [`TruncatedSingleChoice`] — SA_{x₀} of Definition 3: single choice that
//!   discards balls landing in the top x₀ ranks (lower-bound machinery).
//! * [`AdaptiveProbing`] — a Czumaj–Stemann-style adaptive scheme: probe
//!   until a lightly loaded bin is found; the (1+o(1))·n-message adaptive
//!   point of comparison in §1.1.
//! * [`BatchedParallel`] — a Stemann-style synchronous collision protocol,
//!   standing in for the parallel allocation family cited in §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive;
mod dchoice;
mod go_left;
mod one_plus_beta;
mod parallel_batch;
mod single;
mod truncated;

pub use adaptive::AdaptiveProbing;
pub use dchoice::DChoice;
pub use go_left::AlwaysGoLeft;
pub use one_plus_beta::OnePlusBeta;
pub use parallel_batch::BatchedParallel;
pub use single::SingleChoice;
pub use truncated::TruncatedSingleChoice;
