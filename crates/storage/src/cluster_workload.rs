//! The scripted degradation workload over the fault-injected
//! [`ChunkCluster`]: create chunks on the virtual clock while a
//! [`FaultPlan`] injects failures, drain the recovery backlog, then issue
//! Zipf-popular reads and report both the placement statistics and the
//! robustness observables. [`WorkloadConfig`] describes the synchronous
//! §1.3 experiment, which [`ClusterWorkloadConfig::legacy_compat`] turns
//! into such a run.

use kdchoice_prng::dist::Zipf;
use kdchoice_prng::Xoshiro256PlusPlus;
use kdchoice_stats::quantile::quantiles;

use crate::chunk_cluster::{ChunkCluster, ClusterConfig, DegradationReport, StorageStats};
use crate::fault::{FaultEvent, FaultPlan};
use crate::placement::PlacementPolicy;

/// Configuration of the synchronous §1.3 storage experiment: create
/// `files` files (failures injected at even intervals), then issue
/// `reads` Zipf-popular reads. Run it through
/// [`ClusterWorkloadConfig::legacy_compat`] and [`run_cluster_workload`].
///
/// ```
/// use kdchoice_storage::{
///     run_cluster_workload, ClusterWorkloadConfig, PlacementPolicy, WorkloadConfig,
/// };
///
/// let cfg = WorkloadConfig::new(50, 4, PlacementPolicy::KdChoice { d: 8 })
///     .with_failures(2)
///     .with_seed(7);
/// let report = run_cluster_workload(&ClusterWorkloadConfig::legacy_compat(&cfg));
/// assert_eq!(report.stats.alive_servers, 48);
/// assert!((report.read_cost_per_op - 5.0).abs() < 1e-9); // k+1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of servers.
    pub servers: usize,
    /// Chunks (or replicas) per file, `k`.
    pub chunks_per_file: usize,
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Files to create.
    pub files: usize,
    /// Read operations to issue (Zipf-popular files).
    pub reads: usize,
    /// Zipf exponent for read popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Servers to fail, evenly spread through the create phase.
    pub failures: usize,
    /// Master seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A sensible default workload.
    pub fn new(servers: usize, chunks_per_file: usize, policy: PlacementPolicy) -> Self {
        Self {
            servers,
            chunks_per_file,
            policy,
            files: servers * 10,
            reads: servers * 20,
            zipf_exponent: 0.9,
            failures: 0,
            seed: 0,
        }
    }

    /// Sets the number of mid-workload server failures.
    #[must_use]
    pub fn with_failures(mut self, failures: usize) -> Self {
        self.failures = failures;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Configuration of a fault-injected cluster workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterWorkloadConfig {
    /// The cluster shape: replicas, policy, discipline, heartbeats,
    /// recovery limits.
    pub cluster: ClusterConfig,
    /// Chunks to create (one per tick).
    pub files: usize,
    /// Read operations to issue after the cluster quiesces.
    pub reads: usize,
    /// Zipf exponent for read popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Extra ticks allowed after the create phase for the cluster to
    /// quiesce (detect all crashes and drain the recovery queue).
    pub drain_cap: u64,
    /// Under-replication series sampling period (0 = off).
    pub sample_every: u32,
    /// Master seed.
    pub seed: u64,
}

impl ClusterWorkloadConfig {
    /// A workload over `cluster` with no faults and defaults matching
    /// [`WorkloadConfig::new`] conventions.
    pub fn new(cluster: ClusterConfig) -> Self {
        Self {
            cluster,
            files: cluster.servers * 10,
            reads: cluster.servers * 20,
            zipf_exponent: 0.9,
            plan: FaultPlan::new(),
            drain_cap: 100_000,
            sample_every: 0,
            seed: 0,
        }
    }

    /// The synchronous §1.3 experiment `config` describes, as a run of
    /// the fault-injected cluster: [`ClusterConfig::legacy_compat`]
    /// (multiplicity placement, synchronous heartbeats, unbounded
    /// recovery) with one random crash every `files / (failures + 1)`
    /// creates. Each crash is detected and healed in its own tick, so
    /// recovery completes before the next create.
    ///
    /// # Panics
    ///
    /// Panics if `config.failures >= config.servers`.
    pub fn legacy_compat(config: &WorkloadConfig) -> Self {
        assert!(config.failures < config.servers, "cannot fail every server");
        let cluster =
            ClusterConfig::legacy_compat(config.servers, config.chunks_per_file, config.policy);
        // After creating file `f` (tick `f + 1`), crash a random server
        // when the interval divides; leftovers fire back to back after
        // the create phase.
        let mut plan = FaultPlan::new();
        let failure_every = if config.failures > 0 {
            (config.files / (config.failures + 1)).max(1)
        } else {
            usize::MAX
        };
        let mut failures_done = 0usize;
        for f in 0..config.files {
            if failures_done < config.failures && (f + 1) % failure_every == 0 {
                plan.push((f + 1) as u64, FaultEvent::CrashRandom);
                failures_done += 1;
            }
        }
        let mut tick = config.files as u64 + 1;
        while failures_done < config.failures {
            plan.push(tick, FaultEvent::CrashRandom);
            tick += 1;
            failures_done += 1;
        }
        Self {
            cluster,
            files: config.files,
            reads: config.reads,
            zipf_exponent: config.zipf_exponent,
            plan,
            drain_cap: 100_000,
            sample_every: 0,
            seed: config.seed,
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Results of one fault-injected cluster workload run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Policy name.
    pub policy: String,
    /// Cluster statistics over the master's alive servers.
    pub stats: StorageStats,
    /// Load percentiles `[p50, p90, p99]` over the master's alive servers.
    pub load_percentiles: [f64; 3],
    /// Mean messages per read operation.
    pub read_cost_per_op: f64,
    /// Mean probe messages per chunk creation.
    pub create_cost_per_file: f64,
    /// Chunk creations refused because no server was alive.
    pub failed_creates: u64,
    /// The robustness observables.
    pub degradation: DegradationReport,
    /// `(tick, under_replicated)` samples (empty when sampling is off).
    pub series: Vec<(u64, u32)>,
}

/// Runs the fault-injected workload: one chunk creation per tick while
/// the plan injects faults, then up to `drain_cap` extra ticks to
/// quiesce, then `reads` Zipf-popular reads.
///
/// # Panics
///
/// Panics on invalid parameters (propagated from [`ChunkCluster`] /
/// [`Zipf`]).
pub fn run_cluster_workload(config: &ClusterWorkloadConfig) -> ClusterReport {
    let mut rng = Xoshiro256PlusPlus::from_u64(config.seed);
    let mut cluster =
        ChunkCluster::new(config.cluster, &config.plan).with_sample_every(config.sample_every);

    // Create phase: one chunk per tick, faults firing in between.
    let mut failed_creates = 0u64;
    for _ in 0..config.files {
        if cluster.create_chunk(&mut rng).is_err() {
            failed_creates += 1;
        }
        cluster.tick(&mut rng);
    }

    // Drain phase: let remaining faults fire, detection conclude, and the
    // bounded-rate recovery queue empty (capped so livelocked repairs
    // still terminate).
    let mut extra = 0u64;
    while !cluster.quiescent() && extra < config.drain_cap {
        cluster.tick(&mut rng);
        extra += 1;
    }

    // Read phase: Zipf-popular chunks.
    if config.files > 0 && config.reads > 0 {
        let zipf = Zipf::new(config.files, config.zipf_exponent).expect("valid zipf");
        for _ in 0..config.reads {
            let chunk = zipf.sample(&mut rng) as u32;
            cluster.read_chunk(chunk);
        }
    }

    let stats = cluster.stats();
    let loads: Vec<f64> = cluster
        .alive_loads()
        .iter()
        .map(|&l| f64::from(l))
        .collect();
    let pct = quantiles(&loads, &[0.5, 0.9, 0.99]);
    let load_percentiles = if pct.len() == 3 {
        [pct[0], pct[1], pct[2]]
    } else {
        [0.0; 3]
    };
    ClusterReport {
        policy: config.cluster.policy.name().into_owned(),
        stats,
        load_percentiles,
        read_cost_per_op: if config.reads > 0 {
            stats.read_messages as f64 / config.reads as f64
        } else {
            0.0
        },
        create_cost_per_file: if config.files > 0 {
            stats.placement_messages as f64 / config.files as f64
        } else {
            0.0
        },
        failed_creates,
        degradation: cluster.degradation(),
        series: cluster.series().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::RecoveryConfig;

    #[test]
    fn cluster_workload_is_deterministic() {
        let mut config = ClusterWorkloadConfig::new(ClusterConfig::new(
            24,
            3,
            PlacementPolicy::KdChoice { d: 6 },
        ));
        config.cluster.recovery = RecoveryConfig::budgeted(2);
        config.plan = FaultPlan::new().storm(3, config.files as u64);
        config.seed = 11;
        let a = run_cluster_workload(&config);
        let b = run_cluster_workload(&config);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.degradation, b.degradation);
        assert_eq!(a.series, b.series);
    }

    #[test]
    fn faultless_run_has_clean_degradation_report() {
        let config = ClusterWorkloadConfig::new(ClusterConfig::new(
            16,
            2,
            PlacementPolicy::KdChoice { d: 4 },
        ))
        .with_seed(3);
        let r = run_cluster_workload(&config);
        assert_eq!(r.degradation.crashes, 0);
        assert_eq!(r.degradation.peak_under_replicated, 0);
        assert_eq!(r.degradation.durability_losses, 0);
        assert!(r.degradation.healed);
        assert_eq!(r.failed_creates, 0);
        assert_eq!(r.stats.total_chunks, (config.files * 2) as u64);
    }

    #[test]
    fn storm_under_finite_budget_heals_within_the_drain_cap() {
        let mut config = ClusterWorkloadConfig::new(ClusterConfig::new(
            32,
            3,
            PlacementPolicy::KdChoice { d: 6 },
        ));
        config.cluster.recovery = RecoveryConfig::budgeted(1);
        config.plan = FaultPlan::new().storm(4, config.files as u64);
        config.seed = 5;
        let r = run_cluster_workload(&config);
        assert_eq!(r.degradation.crashes, 4);
        assert_eq!(r.degradation.detections, 4);
        assert!(r.degradation.peak_under_replicated > 0);
        assert!(r.degradation.healed, "drain cap must suffice");
        assert_eq!(r.degradation.final_under_replicated, 0);
        assert!(r.degradation.ticks_to_heal > 0);
        // Conservation: every chunk is back at full replication, so the
        // alive servers hold exactly files * k replicas.
        assert_eq!(r.stats.total_chunks, (config.files * 3) as u64);
    }
}
