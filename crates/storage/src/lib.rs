//! Distributed storage with (k,d)-choice — the paper's second application
//! (§1.3).
//!
//! > "Suppose that a new file is created and replicated into k copies (or
//! > that a large file is split into k chunks), and each of the replicas (or
//! > chunks) is to be stored on servers. The (k,d)-choice scheme provides a
//! > simple and efficient solution for fast allocation and load balance with
//! > the minimum message cost; k replicas (or chunks) are stored on the k
//! > least loaded out of d servers chosen randomly."
//!
//! This crate simulates a storage cluster: files are created as `k` chunks
//! placed by a pluggable [`PlacementPolicy`]; reads retrieve all `k` chunks
//! (cost `k+1` for directory-based (k,d) placement vs `2k` for per-chunk
//! two-choice, per §1.3); servers can fail, triggering re-replication of
//! their chunks.
//!
//! [`ChunkCluster`] is the cluster: a virtual-clock model with silent
//! crashes, heartbeat-lagged load views, missed-heartbeat death
//! detection, and bounded-rate re-replication driven by a declarative
//! [`FaultPlan`]. [`run_cluster_workload`] runs the scripted degradation
//! experiment on it and [`ClusterScenario`] binds that to the experiment
//! framework. The synchronous §1.3 experiment — instant detection,
//! recovery healed in the crash's own tick — is the special case
//! [`ClusterWorkloadConfig::legacy_compat`] builds from a
//! [`WorkloadConfig`], and [`StorageScenario`] is its binding.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod chunk_cluster;
#[cfg(test)]
#[path = "cluster_tests.rs"]
mod cluster;
mod cluster_workload;
mod fault;
mod heartbeat;
mod placement;
mod replication;
mod scenario;
#[cfg(test)]
#[path = "workload_tests.rs"]
mod workload;

pub use chunk_cluster::{
    ChunkCluster, ClusterConfig, ClusterError, DegradationReport, ReplicaDiscipline, StorageStats,
};
pub use cluster_workload::{
    run_cluster_workload, ClusterReport, ClusterWorkloadConfig, WorkloadConfig,
};
pub use fault::{FaultEvent, FaultInjector, FaultPlan};
pub use heartbeat::{HeartbeatConfig, HeartbeatTable};
pub use placement::PlacementPolicy;
pub use replication::{RecoveryConfig, RecoveryQueue, Repair};
pub use scenario::{ClusterScenario, StorageScenario};
