//! Concurrent placement service for the (k,d)-choice process.
//!
//! The paper pitches (k,d)-choice as a primitive for real cluster
//! schedulers and storage systems (§1.3); this crate is the layer that
//! makes the primitive *servable*: a shared bin-load substrate that many
//! client threads can hit concurrently, behind the same
//! [`kdchoice_core::BinStore`] surface the single-threaded applications
//! use.
//!
//! * [`ShardedStore`] — `n` bins striped across power-of-two lock-striped
//!   shards (per-shard [`kdchoice_core::LoadVector`] + histogram),
//!   observables merged on demand. A placement request
//!   ([`ShardedStore::place_batch`], one or many requests per call) takes
//!   the shard locks its probes touch in canonical ascending order and
//!   commits balls into the `k` least-loaded tentative slots atomically;
//!   [`ShardedStore::release`] removes balls for departures (the §7
//!   infinite/dynamic process). One shard, one thread ⇒ bit-identical to
//!   a plain `LoadVector` (locked by the equivalence proptest).
//! * [`run_service_workload`] — closed-loop clients hammering one store
//!   of the configured backend, with [`ServiceWorkloadConfig::validate`]
//!   as the one typed validation point; [`ServiceScenario`] plugs it into
//!   the workspace experiment registry as `service`.
//! * **The oracle** — every bit-identity test compares every backend
//!   with one single-thread oracle (`tests/common`): the same request
//!   stream replayed on a plain `LoadVector` through a reference kernel
//!   that shares no code with the stores under test.
//! * **Open-loop traffic engine** — the opposite of closed-loop clients:
//!   requests arrive on their own virtual-clock schedule
//!   ([`TrafficSchedule`]: Poisson / burst / on-off arrivals,
//!   exponential / deterministic ball lifetimes), queue FIFO behind a
//!   bounded service rate, and are drained by a **batched placement
//!   pipeline** ([`run_open_loop`]) that commits a whole batch with one
//!   lock acquisition per shard ([`ShardedStore::place_batch`]).
//!   Queueing latency is accounted per request in virtual ticks;
//!   [`OpenLoopScenario`] registers the workload as `open_loop`.
//!
//! * **Shared-nothing backend** — [`OwnedShardEngine`] replaces lock
//!   striping with ownership: contiguous bin partitions owned by one
//!   worker each, cross-shard commits routed over bounded SPSC rings,
//!   probe decisions reading relaxed-atomic load snapshots
//!   ([`kdchoice_core::SharedLoadSnapshot`]) that owners republish every
//!   `snapshot_refresh` mutations. Selected per run via
//!   [`ServiceBackend`] on [`ServiceWorkloadConfig`] / [`OpenLoopConfig`]
//!   — same configs, same scenarios, same reports as the striped path.
//!   At one thread with synchronous snapshots it is bit-identical to the
//!   oracle (locked by `tests/backend_equivalence.rs`); the
//!   staleness-vs-gap envelope is pinned by
//!   `tests/snapshot_staleness.rs`.
//!
//! * **Lock-free CAS-bins backend** — [`AtomicStore`] drops both locks
//!   *and* ownership: one CAS-able atomic counter per bin is the ground
//!   truth, placements commit by optimistic read–decide–CAS with bounded
//!   retries (then an unconditional fallback), and releases are guarded
//!   CAS decrements that can never drive a counter negative. Selected as
//!   [`ServiceBackend::LockFree`] on the same configs and scenarios. At
//!   one thread no CAS can fail, so it is bit-identical to the oracle
//!   (locked by `tests/backend_equivalence.rs`); under racing,
//!   conservation stays exact (`tests/lockfree_stress.rs`) and the gap
//!   keeps the Theorem 2 envelope (`tests/lockfree_envelope.rs`).
//!
//! * **Heterogeneous serving** — every request path draws probes
//!   through `kdchoice_core::ProbeDistribution` (uniform, weighted,
//!   Zipf), and stores carry optional per-bin capacities
//!   ([`ShardedStore::with_capacities`], capacity-proportional striping)
//!   with capacity-normalized observables (`max_utilization`,
//!   `utilization_gap`) merged like every other observable. Uniform
//!   probing draws the identical generator stream as before the seam
//!   existed, so all determinism locks below are unchanged by it.
//!
//! * **Vector loads** — [`run_vector_service_workload`] serves
//!   D-dimensional demand vectors over a `kdchoice_core::VectorLoad`
//!   store (striped backend, exact store only), selected through the
//!   `dims=` / `objective=` / `demand=` fields of
//!   [`ServiceWorkloadConfig`]. At `dims = 1` with the scalar objective
//!   and unit demand it is bit-identical to the oracle and to every scalar
//!   backend at one thread (locked by test); reports carry per-dimension
//!   gaps.
//!
//! **Determinism under concurrency:** each client thread's probe/tie-key
//! stream is a pure function of `derive_seed(seed, client)`; the
//! interleaving of commits is not reproducible. Conservation (balls in =
//! balls held + balls released) and per-shard invariants hold under any
//! interleaving and are asserted by the stress tests. The open-loop
//! engine is stronger: its arrival/commit/departure event stream and all
//! latency statistics are bit-identical across batch sizes and thread
//! counts (locked by `tests/traffic_determinism.rs`), and a
//! single-threaded batched run is bit-identical to the oracle, which
//! serves one request at a time (locked by `tests/store_equivalence.rs`).
//! The per-module docs spell the guarantees out: [`traffic`]
//! (virtual-clock semantics), `pipeline` (the tick barrier and
//! the exact survives-concurrency table), `sharded` (striping and lock
//! discipline).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod barrier;
mod engine;
mod lockfree;
mod open_loop;
mod pad;
mod pipeline;
mod scenario;
mod service;
mod sharded;
pub mod traffic;

pub use engine::{OwnedShardEngine, ServiceBackend, ShardState};
pub use lockfree::{AtomicStore, PlaceScratch, StampedLoads, PLACE_RETRY_LIMIT};
pub use open_loop::OpenLoopScenario;
pub use pipeline::{churn_capacity, run_open_loop, OpenLoopConfig, OpenLoopReport, TickSample};
pub use scenario::ServiceScenario;
pub use service::{
    run_service_workload, run_vector_service_workload, ServiceReport, ServiceWorkloadConfig,
};
pub use sharded::{Placement, ShardedStore};
pub use traffic::{
    ArrivalProcess, Lifetime, RequestTiming, TrafficConfig, TrafficError, TrafficSchedule,
};
