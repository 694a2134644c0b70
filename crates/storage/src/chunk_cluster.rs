//! The fault-injected replicated chunk cluster: a virtual-clock
//! master/chunkserver simulation where each chunk keeps `k` replicas
//! placed by (k,d)-choice, servers report load via heartbeats, a
//! [`FaultPlan`] crashes and revives nodes, and recovery is a
//! bounded-rate background queue instead of an instantaneous heal.
//!
//! # Model
//!
//! - **Placement** probes the master's view: the *alive* list (servers
//!   not yet declared dead) and — when heartbeat period > 0 — the last
//!   *reported* loads, which lag the truth. A probed destination can
//!   therefore be crashed-but-undetected; writes to it fail and the
//!   replica is rebuilt through the recovery queue.
//! - **Crashes** are silent: a crashed server stops heartbeating but the
//!   master only declares it dead after the heartbeat timeout
//!   ([`HeartbeatConfig`]), which is the *detection latency* observable.
//!   Its replicas are unreadable while it is down; if it recovers before
//!   detection they come back (a network blip), otherwise they are
//!   re-replicated and the server rejoins empty.
//! - **Recovery** drains at most a budget of repair attempts per tick
//!   ([`RecoveryConfig`]), retrying with exponential backoff when the
//!   chosen destination is dead, saturated, or constrained away.
//!
//! # Cost model
//!
//! No per-create or per-tick step scans the server list. A create costs
//! O(d + |excluded|) up to log factors: it samples from a view of the
//! alive list minus the excluded servers (the chunk's holders and the
//! replicas chosen so far, plus every member of their racks under
//! [`ReplicaDiscipline::DistinctRacks`]). A tick costs O(due fault
//! events + servers whose load changed since the last heartbeat +
//! repair attempts): heartbeats report only servers whose load changed,
//! since every other up server already reported its true load; a crash
//! back-fills the time its server was last heard; detection walks the
//! downed servers, and only while a crash awaits detection; the recovery
//! drain stops at its budget, passing over only the queued repairs still
//! in backoff ahead of it. `tick` and `create_chunk` are therefore cheap
//! enough to drive a 1000-server cluster one call at a time.
//!
//! Configured with zero heartbeat lag ([`HeartbeatConfig::synchronous`]),
//! an unbounded budget ([`RecoveryConfig::unbounded`]) and the
//! [`ReplicaDiscipline::Multiplicity`] placement rule
//! ([`ClusterConfig::legacy_compat`]), the pipeline collapses to the
//! synchronous §1.3 model: a crash is detected in the tick it happens and
//! every replica the server held is re-placed in that same tick, in the
//! order the server received them. The `storage` scenario runs in this
//! configuration; the `legacy_equivalence` integration test pins its results.

use std::collections::VecDeque;

use kdchoice_prng::sample::UniformBin;
use rand::RngCore;

use crate::fault::{FaultEvent, FaultInjector, FaultPlan};
use crate::heartbeat::{HeartbeatConfig, HeartbeatTable};
use crate::placement::{choose_constrained, choose_destinations, rack_of, PlacementPolicy};
use crate::replication::{RecoveryConfig, RecoveryQueue, Repair};

/// Errors from cluster fault operations.
///
/// Fault plans may legitimately target servers that another event already
/// killed (overlapping rack outages, double crashes); these are reported
/// as values so callers degrade gracefully instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// The targeted server is already dead.
    AlreadyDead {
        /// The server in question.
        server: usize,
    },
    /// The targeted server id is out of range.
    UnknownServer {
        /// The server in question.
        server: usize,
    },
    /// No alive server is available for the operation (creating a chunk
    /// with every server declared dead, or sampling a victim or a server
    /// to recover from an empty set).
    NoAliveServers,
    /// The targeted server is not down, so it cannot be recovered.
    NotDown {
        /// The server in question.
        server: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::AlreadyDead { server } => write!(f, "server {server} is already dead"),
            ClusterError::UnknownServer { server } => write!(f, "unknown server {server}"),
            ClusterError::NoAliveServers => write!(f, "no alive servers left"),
            ClusterError::NotDown { server } => write!(f, "server {server} is not down"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Message-cost and load statistics of a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageStats {
    /// Alive servers.
    pub alive_servers: usize,
    /// Total chunks stored on alive servers.
    pub total_chunks: u64,
    /// Maximum chunks on any alive server.
    pub max_load: u32,
    /// Mean chunks per alive server.
    pub mean_load: f64,
    /// `max_load / mean_load` (1.0 when empty).
    pub imbalance: f64,
    /// Probe messages spent on placement so far.
    pub placement_messages: u64,
    /// Messages spent on reads so far.
    pub read_messages: u64,
    /// Chunks re-replicated due to failures so far.
    pub recovered_chunks: u64,
    /// Probe messages spent during recovery so far.
    pub recovery_messages: u64,
}

/// How strictly a chunk's `k` replicas must spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaDiscipline {
    /// The §1.3 multiplicity rule: one server may hold several replicas
    /// of a chunk.
    Multiplicity,
    /// Replicas of a chunk land on distinct servers.
    DistinctServers,
    /// Replicas of a chunk land on distinct racks (hence distinct
    /// servers) — probe sets correlated by rack, the hypergraph model.
    DistinctRacks,
}

impl ReplicaDiscipline {
    /// Display name (used by report rows).
    pub fn name(&self) -> &'static str {
        match self {
            ReplicaDiscipline::Multiplicity => "multiplicity",
            ReplicaDiscipline::DistinctServers => "distinct",
            ReplicaDiscipline::DistinctRacks => "rack",
        }
    }
}

/// Static configuration of a [`ChunkCluster`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Initial number of chunkservers.
    pub servers: usize,
    /// Number of racks; server `s` lives in rack `s % racks`.
    pub racks: usize,
    /// Replicas per chunk, the paper's `k`.
    pub replicas: usize,
    /// How replica destinations are probed.
    pub policy: PlacementPolicy,
    /// Replica spread constraint.
    pub discipline: ReplicaDiscipline,
    /// Heartbeat period and failure-detection timeout.
    pub heartbeat: HeartbeatConfig,
    /// Re-replication rate limits and backoff.
    pub recovery: RecoveryConfig,
}

impl ClusterConfig {
    /// A distinct-server cluster with synchronous heartbeats and
    /// unbounded recovery; tune fields from there.
    pub fn new(servers: usize, replicas: usize, policy: PlacementPolicy) -> Self {
        Self {
            servers,
            racks: 1,
            replicas,
            policy,
            discipline: ReplicaDiscipline::DistinctServers,
            heartbeat: HeartbeatConfig::synchronous(),
            recovery: RecoveryConfig::unbounded(),
        }
    }

    /// The synchronous §1.3 storage model: multiplicity placement,
    /// synchronous heartbeats (probes see true loads and a crash is
    /// detected in its own tick) and unbounded recovery (every lost
    /// replica is re-placed in the detection tick).
    pub fn legacy_compat(servers: usize, replicas: usize, policy: PlacementPolicy) -> Self {
        Self {
            discipline: ReplicaDiscipline::Multiplicity,
            ..Self::new(servers, replicas, policy)
        }
    }
}

/// Where one replica slot of a chunk currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replica {
    /// Stored on this server (which may be crashed-but-undetected, in
    /// which case the replica is temporarily unreadable).
    On(usize),
    /// Lost; exactly one matching [`Repair`] entry is queued.
    Repairing,
}

/// One chunk: its `k` replica slots and how many are on up servers.
#[derive(Debug, Clone)]
struct ChunkState {
    replicas: Vec<Replica>,
    live: u32,
}

/// Ground-truth state of one chunkserver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Serving and heartbeating.
    Up,
    /// Silently down; the master has not noticed yet.
    Crashed,
    /// Declared dead by the master; replicas handed to recovery.
    Dead,
}

#[derive(Debug, Clone)]
struct Node {
    capacity: f64,
    status: Status,
    crashed_at: u64,
    /// Whether the load changed since the server last reported it (it is
    /// then on [`ChunkCluster::dirty`]).
    dirty: bool,
    /// Replica slots held, for recovery enumeration: `(chunk, slot)`.
    held: Vec<(u32, u16)>,
}

impl Node {
    fn new(capacity: f64) -> Self {
        Self {
            capacity,
            status: Status::Up,
            crashed_at: 0,
            dirty: false,
            held: Vec::new(),
        }
    }
}

/// Per-destination repair counts of the current tick, reset through the
/// list of servers touched so a tick never clears the whole table.
#[derive(Debug, Default)]
struct IngestCounts {
    counts: Vec<u32>,
    touched: Vec<usize>,
}

impl IngestCounts {
    fn get(&self, server: usize) -> u32 {
        self.counts.get(server).copied().unwrap_or(0)
    }

    fn add(&mut self, server: usize) {
        if server >= self.counts.len() {
            self.counts.resize(server + 1, 0);
        }
        if self.counts[server] == 0 {
            self.touched.push(server);
        }
        self.counts[server] += 1;
    }

    fn clear(&mut self) {
        for s in self.touched.drain(..) {
            self.counts[s] = 0;
        }
    }
}

/// Robustness counters accumulated over a run; snapshot via
/// [`ChunkCluster::degradation`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradationReport {
    /// Virtual ticks elapsed.
    pub ticks: u64,
    /// Servers crashed (including rack-outage members).
    pub crashes: u64,
    /// Crashes the master detected (declared dead).
    pub detections: u64,
    /// Downed servers brought back by the fault plan.
    pub rejoins: u64,
    /// Brand-new servers joined.
    pub joins: u64,
    /// Mean ticks from crash to the master declaring the server dead.
    pub detection_latency_mean: f64,
    /// Worst-case detection latency in ticks.
    pub detection_latency_max: u64,
    /// Largest number of simultaneously under-replicated chunks.
    pub peak_under_replicated: u64,
    /// Sum over ticks of the under-replicated chunk count (chunk-ticks).
    pub under_replicated_area: u64,
    /// Ticks from the first under-replication to the last return to full
    /// replication (to the final tick if never healed).
    pub ticks_to_heal: u64,
    /// Whether every chunk ended at full replication.
    pub healed: bool,
    /// Times some chunk lost its last up replica (all `k` replicas down
    /// simultaneously — a durability loss unless the server recovers).
    pub durability_losses: u64,
    /// Sum over ticks of chunks with zero up replicas (unavailability
    /// chunk-ticks).
    pub unavailable_area: u64,
    /// Repair attempts (successes + failures; budget counts these).
    pub repair_attempts: u64,
    /// Attempts that were retries of earlier failures.
    pub repair_retries: u64,
    /// Attempts refused because the chosen destination was down.
    pub failed_dead_dest: u64,
    /// Attempts refused because the destination hit its per-tick ingest
    /// cap (overloaded; re-queued with backoff).
    pub failed_overloaded: u64,
    /// Attempts where constraints left no eligible destination.
    pub failed_no_eligible: u64,
    /// Replica writes at creation that failed (stale probe picked a
    /// crashed server).
    pub failed_writes: u64,
    /// Reads served with fewer than `k` up replicas.
    pub degraded_reads: u64,
    /// Reads that found zero up replicas.
    pub failed_reads: u64,
    /// Fault-plan events that were impossible when they fired (e.g.
    /// crashing an already-dead server) and were skipped.
    pub plan_errors: u64,
    /// Largest recovery-queue backlog observed.
    pub peak_recovery_queue: u64,
    /// Chunks still under-replicated at the end of the run.
    pub final_under_replicated: u64,
}

/// The fault-injected replicated chunk cluster (see the module docs).
#[derive(Debug)]
pub struct ChunkCluster {
    config: ClusterConfig,
    now: u64,
    servers: Vec<Node>,
    /// True replica counts per server (what heartbeats report).
    loads: Vec<u32>,
    /// Master's view: servers not declared dead. Placement samples this.
    alive: Vec<usize>,
    alive_pos: Vec<usize>,
    /// Ground truth: servers actually up. Fault injection samples this.
    up: Vec<usize>,
    up_pos: Vec<usize>,
    chunks: Vec<ChunkState>,
    heartbeats: HeartbeatTable,
    /// Servers whose load changed since their last report, each once
    /// ([`Node::dirty`]); the next heartbeat flushes only these. Every
    /// other up server's reported load already equals its true load.
    dirty: Vec<usize>,
    injector: FaultInjector,
    queue: RecoveryQueue,
    /// Repair ingest per destination in the current tick.
    ingest: IngestCounts,
    /// Downed servers in crash order (for [`FaultEvent::RecoverOldest`]).
    down_fifo: VecDeque<usize>,
    crashed_undetected: usize,
    under_replicated: usize,
    unavailable: usize,
    // Message and recovery accounting.
    placement_messages: u64,
    read_messages: u64,
    recovered_chunks: u64,
    recovery_messages: u64,
    // Degradation accounting.
    crashes: u64,
    detections: u64,
    rejoins: u64,
    joins: u64,
    detection_latency_sum: u64,
    detection_latency_max: u64,
    peak_under_replicated: usize,
    under_replicated_area: u64,
    first_under_tick: Option<u64>,
    last_heal_tick: u64,
    durability_losses: u64,
    unavailable_area: u64,
    repair_attempts: u64,
    repair_retries: u64,
    failed_dead_dest: u64,
    failed_overloaded: u64,
    failed_no_eligible: u64,
    failed_writes: u64,
    degraded_reads: u64,
    failed_reads: u64,
    plan_errors: u64,
    /// `(tick, under_replicated)` samples, every `sample_every` ticks.
    series: Vec<(u64, u32)>,
    sample_every: u32,
}

impl ChunkCluster {
    /// Builds a cluster of `config.servers` empty up servers executing
    /// `plan` on the virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`, `replicas == 0`, `racks == 0`, or a
    /// `KdChoice` policy has `d < replicas`.
    pub fn new(config: ClusterConfig, plan: &FaultPlan) -> Self {
        assert!(config.servers > 0, "need at least one server");
        assert!(config.replicas > 0, "need at least one replica per chunk");
        assert!(config.racks > 0, "need at least one rack");
        if let PlacementPolicy::KdChoice { d } = config.policy {
            assert!(
                d >= config.replicas,
                "(k,d)-choice placement needs d >= k (k={}, d={d})",
                config.replicas
            );
        }
        let n = config.servers;
        Self {
            config,
            now: 0,
            servers: (0..n).map(|_| Node::new(1.0)).collect(),
            loads: vec![0; n],
            alive: (0..n).collect(),
            alive_pos: (0..n).collect(),
            up: (0..n).collect(),
            up_pos: (0..n).collect(),
            chunks: Vec::new(),
            heartbeats: HeartbeatTable::new(n),
            dirty: Vec::new(),
            injector: FaultInjector::new(plan),
            queue: RecoveryQueue::new(),
            ingest: IngestCounts::default(),
            down_fifo: VecDeque::new(),
            crashed_undetected: 0,
            under_replicated: 0,
            unavailable: 0,
            placement_messages: 0,
            read_messages: 0,
            recovered_chunks: 0,
            recovery_messages: 0,
            crashes: 0,
            detections: 0,
            rejoins: 0,
            joins: 0,
            detection_latency_sum: 0,
            detection_latency_max: 0,
            peak_under_replicated: 0,
            under_replicated_area: 0,
            first_under_tick: None,
            last_heal_tick: 0,
            durability_losses: 0,
            unavailable_area: 0,
            repair_attempts: 0,
            repair_retries: 0,
            failed_dead_dest: 0,
            failed_overloaded: 0,
            failed_no_eligible: 0,
            failed_writes: 0,
            degraded_reads: 0,
            failed_reads: 0,
            plan_errors: 0,
            series: Vec::new(),
            sample_every: 1,
        }
    }

    /// Assigns heterogeneous relative capacities to the initial servers.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the server count or any
    /// capacity is not finite and positive.
    #[must_use]
    pub fn with_capacities(mut self, capacities: &[f64]) -> Self {
        assert_eq!(
            capacities.len(),
            self.servers.len(),
            "one capacity per server"
        );
        assert!(
            capacities.iter().all(|c| c.is_finite() && *c > 0.0),
            "capacities must be finite and positive"
        );
        for (node, &c) in self.servers.iter_mut().zip(capacities) {
            node.capacity = c;
        }
        self
    }

    /// Sets how often the under-replication time series is sampled
    /// (`0` disables the series).
    #[must_use]
    pub fn with_sample_every(mut self, sample_every: u32) -> Self {
        self.sample_every = sample_every;
        self
    }

    /// The current virtual tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Servers the master considers alive.
    pub fn alive_servers(&self) -> usize {
        self.alive.len()
    }

    /// Servers actually up.
    pub fn up_servers(&self) -> usize {
        self.up.len()
    }

    /// Total servers ever (including dead and joined).
    pub fn total_servers(&self) -> usize {
        self.servers.len()
    }

    /// Chunks created so far.
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks currently missing at least one up replica.
    pub fn under_replicated(&self) -> usize {
        self.under_replicated
    }

    /// Chunks currently with zero up replicas.
    pub fn unavailable(&self) -> usize {
        self.unavailable
    }

    /// Pending repairs in the recovery queue.
    pub fn recovery_backlog(&self) -> usize {
        self.queue.len()
    }

    /// The `(tick, under_replicated)` time series (see
    /// [`Self::with_sample_every`]).
    pub fn series(&self) -> &[(u64, u32)] {
        &self.series
    }

    /// Whether all scheduled faults fired, every crash was detected or
    /// recovered, and the recovery queue is empty. Once quiescent (and
    /// with no further creates) the cluster state no longer changes.
    pub fn quiescent(&self) -> bool {
        !self.injector.pending() && self.crashed_undetected == 0 && self.queue.is_empty()
    }

    /// The load placement probes see for `server`: the true count in
    /// synchronous mode, the last heartbeat-reported count otherwise.
    fn probe_load(&self, server: usize) -> u32 {
        if self.config.heartbeat.period == 0 {
            self.loads[server]
        } else {
            self.heartbeats.snapshot(server)
        }
    }

    /// Creates one chunk and places its `k` replicas through the master's
    /// (possibly stale) view. Replica writes that land on a
    /// crashed-but-undetected server fail and are rebuilt via the
    /// recovery queue, as are slots the distinctness constraints could
    /// not immediately satisfy.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoAliveServers`] if the master's alive set is
    /// empty.
    pub fn create_chunk<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Result<u32, ClusterError> {
        if self.alive.is_empty() {
            return Err(ClusterError::NoAliveServers);
        }
        let k = self.config.replicas;
        let id = self.chunks.len() as u32;
        let (dest, probes) = self.place_replicas(k, id, rng);
        self.placement_messages += probes;
        let mut replicas = Vec::with_capacity(k);
        let mut live = 0u32;
        for slot in 0..k {
            if let Some(&s) = dest.get(slot) {
                if self.servers[s].status == Status::Up {
                    self.add_replica(s, id, slot as u16);
                    replicas.push(Replica::On(s));
                    live += 1;
                    continue;
                }
                self.failed_writes += 1;
            }
            replicas.push(Replica::Repairing);
            self.queue.push(id, slot as u16);
        }
        self.chunks.push(ChunkState { replicas, live });
        if live < k as u32 {
            self.under_replicated += 1;
            self.note_under_replication();
            if live == 0 {
                self.unavailable += 1;
                self.durability_losses += 1;
            }
        }
        Ok(id)
    }

    /// Chooses destinations for `count` replicas of chunk `chunk`
    /// according to the configured discipline.
    fn place_replicas<R: RngCore + ?Sized>(
        &self,
        count: usize,
        chunk: u32,
        rng: &mut R,
    ) -> (Vec<usize>, u64) {
        let load = |s: usize| self.probe_load(s);
        let capacity = |s: usize| self.servers[s].capacity;
        match self.config.discipline {
            ReplicaDiscipline::Multiplicity => {
                choose_destinations(self.config.policy, &self.alive, load, capacity, count, rng)
            }
            ReplicaDiscipline::DistinctServers | ReplicaDiscipline::DistinctRacks => {
                let racks = (self.config.discipline == ReplicaDiscipline::DistinctRacks)
                    .then_some(self.config.racks);
                let holders: Vec<usize> = self
                    .chunks
                    .get(chunk as usize)
                    .map(|c| {
                        c.replicas
                            .iter()
                            .filter_map(|r| match r {
                                Replica::On(s) => Some(*s),
                                Replica::Repairing => None,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                choose_constrained(
                    self.config.policy,
                    &self.alive,
                    &self.alive_pos,
                    load,
                    capacity,
                    racks,
                    &holders,
                    count,
                    rng,
                )
            }
        }
    }

    /// Reads a chunk and returns the §1.3 message cost (`k + 1` for
    /// directory placements, `2k` for per-chunk two-choice). Reads
    /// against under-replicated or unavailable chunks are counted in the
    /// degradation report.
    ///
    /// # Panics
    ///
    /// Panics if the chunk does not exist.
    pub fn read_chunk(&mut self, chunk: u32) -> u64 {
        let state = &self.chunks[chunk as usize];
        let k = self.config.replicas as u64;
        let cost = match self.config.policy {
            PlacementPolicy::PerChunkTwoChoice => 2 * k,
            PlacementPolicy::KdChoice { .. } | PlacementPolicy::Random => k + 1,
        };
        self.read_messages += cost;
        if state.live == 0 {
            self.failed_reads += 1;
        } else if u64::from(state.live) < k {
            self.degraded_reads += 1;
        }
        cost
    }

    /// Advances the virtual clock one tick: fire scheduled faults, take
    /// heartbeats, detect dead servers, drain the recovery budget, and
    /// sample metrics — in that order.
    pub fn tick<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        self.now += 1;
        let now = self.now;

        // 1. Fault injection.
        let due: Vec<(u64, FaultEvent)> = self.injector.take_due(now).to_vec();
        for (_, event) in due {
            self.apply_event(event, rng);
        }

        // 2. Heartbeats: up servers report their true load periodically.
        // Only servers whose load changed since their last report are
        // visited; `crash` back-fills the time the others were last heard.
        let period = self.config.heartbeat.period;
        if period > 0 && now.is_multiple_of(u64::from(period)) {
            for i in 0..self.dirty.len() {
                let s = self.dirty[i];
                self.servers[s].dirty = false;
                if self.servers[s].status == Status::Up {
                    self.heartbeats.report(s, self.loads[s], now);
                }
            }
            self.dirty.clear();
        }

        // 3. Detection: silent servers past the timeout are declared dead,
        // in server-id order (which fixes the repair-queue order).
        if self.crashed_undetected > 0 {
            let mut overdue: Vec<usize> = self
                .down_fifo
                .iter()
                .copied()
                .filter(|&s| {
                    self.servers[s].status == Status::Crashed
                        && self.heartbeats.overdue(s, now, self.config.heartbeat)
                })
                .collect();
            overdue.sort_unstable();
            for s in overdue {
                self.detect_dead(s);
            }
        }

        // 4. Bounded-rate recovery.
        self.drain_recovery(rng);

        // 5. Metrics.
        self.under_replicated_area += self.under_replicated as u64;
        self.unavailable_area += self.unavailable as u64;
        if self.sample_every > 0 && now.is_multiple_of(u64::from(self.sample_every)) {
            self.series.push((now, self.under_replicated as u32));
        }
    }

    /// Applies one fault event; impossible events count as plan errors.
    fn apply_event<R: RngCore + ?Sized>(&mut self, event: FaultEvent, rng: &mut R) {
        let result: Result<(), ClusterError> = match event {
            FaultEvent::Crash { server } => self.crash(server),
            FaultEvent::CrashRandom => {
                if self.up.is_empty() {
                    Err(ClusterError::NoAliveServers)
                } else {
                    let victim = self.up[UniformBin::new(self.up.len()).sample(rng)];
                    self.crash(victim)
                }
            }
            FaultEvent::RackOutage { rack } => {
                if rack >= self.config.racks {
                    Err(ClusterError::UnknownServer { server: rack })
                } else {
                    for s in (rack..self.servers.len()).step_by(self.config.racks) {
                        if self.servers[s].status == Status::Up {
                            let _ = self.crash(s);
                        }
                    }
                    Ok(())
                }
            }
            FaultEvent::Recover { server } => self.recover(server),
            FaultEvent::RecoverOldest => match self.down_fifo.front().copied() {
                Some(server) => self.recover(server),
                None => Err(ClusterError::NoAliveServers),
            },
            FaultEvent::Join { capacity } => {
                self.join(capacity);
                Ok(())
            }
        };
        if result.is_err() {
            self.plan_errors += 1;
        }
    }

    /// Silently crashes `server`: heartbeats stop, replicas become
    /// unreadable, the master does not know yet.
    fn crash(&mut self, server: usize) -> Result<(), ClusterError> {
        if server >= self.servers.len() {
            return Err(ClusterError::UnknownServer { server });
        }
        if self.servers[server].status != Status::Up {
            return Err(ClusterError::AlreadyDead { server });
        }
        self.servers[server].status = Status::Crashed;
        self.servers[server].crashed_at = self.now;
        // Up until now, the server answered every heartbeat before this
        // tick's: it was last heard at the later of its last report and
        // the last beat tick before `now`.
        let period = u64::from(self.config.heartbeat.period);
        if let Some(beats) = self.now.saturating_sub(1).checked_div(period) {
            self.heartbeats.heard_at_least(server, beats * period);
        }
        remove_member(&mut self.up, &mut self.up_pos, server);
        self.down_fifo.push_back(server);
        self.crashed_undetected += 1;
        self.crashes += 1;
        for i in 0..self.servers[server].held.len() {
            let (chunk, _) = self.servers[server].held[i];
            self.replica_lost(chunk as usize);
        }
        Ok(())
    }

    /// The master declares a silent server dead: removes it from the
    /// placement view and hands every replica it held to recovery.
    fn detect_dead(&mut self, server: usize) {
        debug_assert_eq!(self.servers[server].status, Status::Crashed);
        self.servers[server].status = Status::Dead;
        self.crashed_undetected -= 1;
        self.detections += 1;
        let latency = self.now - self.servers[server].crashed_at;
        self.detection_latency_sum += latency;
        self.detection_latency_max = self.detection_latency_max.max(latency);
        remove_member(&mut self.alive, &mut self.alive_pos, server);
        // Not marked dirty: a dead server sends no heartbeats, and
        // `recover` reports its zero load explicitly.
        self.loads[server] = 0;
        let held = std::mem::take(&mut self.servers[server].held);
        for (chunk, slot) in held {
            debug_assert_eq!(
                self.chunks[chunk as usize].replicas[slot as usize],
                Replica::On(server)
            );
            self.chunks[chunk as usize].replicas[slot as usize] = Replica::Repairing;
            self.queue.push(chunk, slot);
        }
    }

    /// Brings a downed server back (see [`FaultEvent::Recover`]).
    fn recover(&mut self, server: usize) -> Result<(), ClusterError> {
        if server >= self.servers.len() {
            return Err(ClusterError::UnknownServer { server });
        }
        match self.servers[server].status {
            Status::Up => Err(ClusterError::NotDown { server }),
            Status::Crashed => {
                // A transient blip: back before detection, replicas intact.
                self.servers[server].status = Status::Up;
                self.crashed_undetected -= 1;
                push_member(&mut self.up, &mut self.up_pos, server);
                self.down_fifo.retain(|&s| s != server);
                self.heartbeats.report(server, self.loads[server], self.now);
                for i in 0..self.servers[server].held.len() {
                    let (chunk, _) = self.servers[server].held[i];
                    self.replica_restored(chunk as usize);
                }
                self.rejoins += 1;
                Ok(())
            }
            Status::Dead => {
                // Declared dead: its replicas are being rebuilt elsewhere;
                // it rejoins as an empty server.
                self.servers[server].status = Status::Up;
                push_member(&mut self.up, &mut self.up_pos, server);
                push_member(&mut self.alive, &mut self.alive_pos, server);
                self.down_fifo.retain(|&s| s != server);
                self.heartbeats.report(server, 0, self.now);
                self.rejoins += 1;
                Ok(())
            }
        }
    }

    /// Adds a brand-new empty server (round-robin rack assignment).
    fn join(&mut self, capacity: f64) {
        let server = self.servers.len();
        self.servers
            .push(Node::new(if capacity.is_finite() && capacity > 0.0 {
                capacity
            } else {
                1.0
            }));
        self.loads.push(0);
        self.heartbeats.push(self.now);
        self.alive_pos.push(usize::MAX);
        self.up_pos.push(usize::MAX);
        push_member(&mut self.alive, &mut self.alive_pos, server);
        push_member(&mut self.up, &mut self.up_pos, server);
        self.joins += 1;
    }

    /// Stores replica `slot` of `chunk` on `server`, marking its load
    /// unreported.
    fn add_replica(&mut self, server: usize, chunk: u32, slot: u16) {
        let node = &mut self.servers[server];
        node.held.push((chunk, slot));
        self.loads[server] += 1;
        if self.config.heartbeat.period > 0 && !node.dirty {
            node.dirty = true;
            self.dirty.push(server);
        }
    }

    /// Bookkeeping when a chunk loses one up replica.
    fn replica_lost(&mut self, chunk: usize) {
        let k = self.config.replicas as u32;
        let state = &mut self.chunks[chunk];
        let old = state.live;
        state.live -= 1;
        let new = state.live;
        if old == k {
            self.under_replicated += 1;
            self.note_under_replication();
        }
        if new == 0 {
            self.unavailable += 1;
            self.durability_losses += 1;
        }
    }

    /// Bookkeeping when a chunk regains one up replica.
    fn replica_restored(&mut self, chunk: usize) {
        let k = self.config.replicas as u32;
        let state = &mut self.chunks[chunk];
        let old = state.live;
        state.live += 1;
        if old == 0 {
            self.unavailable -= 1;
        }
        if state.live == k {
            self.under_replicated -= 1;
            if self.under_replicated == 0 {
                self.last_heal_tick = self.now;
            }
        }
    }

    fn note_under_replication(&mut self) {
        self.peak_under_replicated = self.peak_under_replicated.max(self.under_replicated);
        if self.first_under_tick.is_none() {
            self.first_under_tick = Some(self.now);
        }
    }

    /// Drains up to the recovery budget of repair attempts.
    fn drain_recovery<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        if self.queue.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.queue);
        let mut ingest = std::mem::take(&mut self.ingest);
        let now = self.now;
        let recovery = self.config.recovery;
        queue.drain(now, recovery, |repair| {
            self.attempt_repair(repair, &mut ingest, rng)
        });
        ingest.clear();
        self.ingest = ingest;
        self.queue = queue;
    }

    /// One repair attempt: probe a destination through the master's
    /// (stale) view and copy the replica there. Fails — and re-queues
    /// with backoff — when the destination is down, saturated, or no
    /// eligible destination exists.
    fn attempt_repair<R: RngCore + ?Sized>(
        &mut self,
        repair: Repair,
        ingest: &mut IngestCounts,
        rng: &mut R,
    ) -> Result<(), ()> {
        debug_assert_eq!(
            self.chunks[repair.chunk as usize].replicas[repair.slot as usize],
            Replica::Repairing
        );
        self.repair_attempts += 1;
        if repair.attempts > 0 {
            self.repair_retries += 1;
        }
        if self.alive.is_empty() {
            self.failed_no_eligible += 1;
            return Err(());
        }
        let (dest, probes) = self.place_replicas(1, repair.chunk, rng);
        self.recovery_messages += probes.max(1);
        let Some(&server) = dest.first() else {
            self.failed_no_eligible += 1;
            return Err(());
        };
        if self.servers[server].status != Status::Up {
            self.failed_dead_dest += 1;
            return Err(());
        }
        let cap = self.config.recovery.max_ingest_per_tick;
        if cap > 0 {
            if ingest.get(server) >= cap {
                self.failed_overloaded += 1;
                return Err(());
            }
            ingest.add(server);
        }
        self.add_replica(server, repair.chunk, repair.slot);
        self.chunks[repair.chunk as usize].replicas[repair.slot as usize] = Replica::On(server);
        self.recovered_chunks += 1;
        self.replica_restored(repair.chunk as usize);
        Ok(())
    }

    /// The loads (replica counts) of servers the master considers alive.
    pub fn alive_loads(&self) -> Vec<u32> {
        self.alive.iter().map(|&s| self.loads[s]).collect()
    }

    /// Load and message statistics over the master's alive set.
    pub fn stats(&self) -> StorageStats {
        let loads = self.alive_loads();
        let total: u64 = loads.iter().map(|&l| u64::from(l)).sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        let mean = if loads.is_empty() {
            0.0
        } else {
            total as f64 / loads.len() as f64
        };
        StorageStats {
            alive_servers: self.alive.len(),
            total_chunks: total,
            max_load: max,
            mean_load: mean,
            imbalance: if mean > 0.0 {
                f64::from(max) / mean
            } else {
                1.0
            },
            placement_messages: self.placement_messages,
            read_messages: self.read_messages,
            recovered_chunks: self.recovered_chunks,
            recovery_messages: self.recovery_messages,
        }
    }

    /// The robustness observables accumulated so far.
    pub fn degradation(&self) -> DegradationReport {
        let ticks_to_heal = match self.first_under_tick {
            None => 0,
            Some(first) => {
                if self.under_replicated == 0 {
                    self.last_heal_tick.saturating_sub(first)
                } else {
                    self.now.saturating_sub(first)
                }
            }
        };
        DegradationReport {
            ticks: self.now,
            crashes: self.crashes,
            detections: self.detections,
            rejoins: self.rejoins,
            joins: self.joins,
            detection_latency_mean: if self.detections > 0 {
                self.detection_latency_sum as f64 / self.detections as f64
            } else {
                0.0
            },
            detection_latency_max: self.detection_latency_max,
            peak_under_replicated: self.peak_under_replicated as u64,
            under_replicated_area: self.under_replicated_area,
            ticks_to_heal,
            healed: self.under_replicated == 0,
            durability_losses: self.durability_losses,
            unavailable_area: self.unavailable_area,
            repair_attempts: self.repair_attempts,
            repair_retries: self.repair_retries,
            failed_dead_dest: self.failed_dead_dest,
            failed_overloaded: self.failed_overloaded,
            failed_no_eligible: self.failed_no_eligible,
            failed_writes: self.failed_writes,
            degraded_reads: self.degraded_reads,
            failed_reads: self.failed_reads,
            plan_errors: self.plan_errors,
            peak_recovery_queue: self.queue.peak_len() as u64,
            final_under_replicated: self.under_replicated as u64,
        }
    }

    /// Verifies internal consistency: slot/holder cross-references, live
    /// counts, queue entries matching `Repairing` slots one-to-one,
    /// membership lists, and — under the distinct disciplines — that no
    /// chunk keeps two replicas on one server (or one rack).
    pub fn check_invariants(&self) -> bool {
        // The dirty list holds each flagged server once, and an up server
        // off it has reported its true load.
        let flagged = self.servers.iter().filter(|node| node.dirty).count();
        if flagged != self.dirty.len() || self.dirty.iter().any(|&s| !self.servers[s].dirty) {
            return false;
        }
        // Membership lists vs statuses.
        for (s, node) in self.servers.iter().enumerate() {
            if self.config.heartbeat.period > 0
                && node.status == Status::Up
                && !node.dirty
                && self.heartbeats.snapshot(s) != self.loads[s]
            {
                return false;
            }
            let in_alive = self.alive_pos[s] != usize::MAX;
            let in_up = self.up_pos[s] != usize::MAX;
            let (want_alive, want_up) = match node.status {
                Status::Up => (true, true),
                Status::Crashed => (true, false),
                Status::Dead => (false, false),
            };
            if in_alive != want_alive || in_up != want_up {
                return false;
            }
            if in_alive && self.alive[self.alive_pos[s]] != s {
                return false;
            }
            if in_up && self.up[self.up_pos[s]] != s {
                return false;
            }
            if self.loads[s] as usize != node.held.len() {
                return false;
            }
            if node.status == Status::Dead && !node.held.is_empty() {
                return false;
            }
            for &(chunk, slot) in &node.held {
                if self.chunks[chunk as usize].replicas[slot as usize] != Replica::On(s) {
                    return false;
                }
            }
        }
        // Queue entries <-> Repairing slots, one to one.
        let mut pending: std::collections::HashMap<(u32, u16), usize> =
            std::collections::HashMap::new();
        for repair in self.queue.iter() {
            *pending.entry((repair.chunk, repair.slot)).or_insert(0) += 1;
        }
        let k = self.config.replicas;
        let mut under = 0usize;
        let mut unavailable = 0usize;
        for (id, chunk) in self.chunks.iter().enumerate() {
            if chunk.replicas.len() != k {
                return false;
            }
            let mut live = 0u32;
            let mut on_servers: Vec<usize> = Vec::new();
            for (slot, replica) in chunk.replicas.iter().enumerate() {
                match replica {
                    Replica::On(s) => {
                        if self.servers[*s].status == Status::Up {
                            live += 1;
                        }
                        on_servers.push(*s);
                    }
                    Replica::Repairing => {
                        let key = (id as u32, slot as u16);
                        match pending.get_mut(&key) {
                            Some(n) if *n > 0 => *n -= 1,
                            _ => return false,
                        }
                    }
                }
            }
            if live != chunk.live {
                return false;
            }
            if chunk.live < k as u32 {
                under += 1;
            }
            if chunk.live == 0 {
                unavailable += 1;
            }
            match self.config.discipline {
                ReplicaDiscipline::Multiplicity => {}
                ReplicaDiscipline::DistinctServers => {
                    let mut sorted = on_servers.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    if sorted.len() != on_servers.len() {
                        return false;
                    }
                }
                ReplicaDiscipline::DistinctRacks => {
                    let mut racks: Vec<usize> = on_servers
                        .iter()
                        .map(|&s| rack_of(s, self.config.racks))
                        .collect();
                    racks.sort_unstable();
                    racks.dedup();
                    if racks.len() != on_servers.len() {
                        return false;
                    }
                }
            }
        }
        if pending.values().any(|&n| n != 0) {
            return false;
        }
        under == self.under_replicated && unavailable == self.unavailable
    }
}

/// Swap-removes `s` from a membership list, fixing up positions.
fn remove_member(list: &mut Vec<usize>, pos: &mut [usize], s: usize) {
    let p = pos[s];
    debug_assert_ne!(p, usize::MAX);
    list.swap_remove(p);
    if p < list.len() {
        pos[list[p]] = p;
    }
    pos[s] = usize::MAX;
}

/// Appends `s` to a membership list, recording its position.
fn push_member(list: &mut Vec<usize>, pos: &mut [usize], s: usize) {
    debug_assert_eq!(pos[s], usize::MAX);
    pos[s] = list.len();
    list.push(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::Xoshiro256PlusPlus;

    fn kd(d: usize) -> PlacementPolicy {
        PlacementPolicy::KdChoice { d }
    }

    #[test]
    fn detection_waits_for_the_heartbeat_timeout() {
        let mut config = ClusterConfig::new(8, 2, kd(4));
        config.heartbeat = HeartbeatConfig::new(3, 1);
        let plan = FaultPlan::new().at(7, FaultEvent::Crash { server: 0 });
        let mut cluster = ChunkCluster::new(config, &plan);
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        for _ in 0..20 {
            cluster.create_chunk(&mut rng).unwrap();
        }
        let mut detected_at = None;
        for _ in 0..30 {
            cluster.tick(&mut rng);
            if detected_at.is_none() && cluster.alive_servers() < 8 {
                detected_at = Some(cluster.now());
            }
            assert!(cluster.check_invariants(), "tick {}", cluster.now());
        }
        // Crash at 7; last heartbeat at 6; deadline 6 + 3*2 = 12, so the
        // master declares death at tick 13.
        assert_eq!(detected_at, Some(13));
        let d = cluster.degradation();
        assert_eq!(d.detections, 1);
        assert_eq!(d.detection_latency_max, 6);
        assert!(d.healed);
    }

    /// Runs a 4-server (2,4)-choice cluster under `heartbeat` and `plan`:
    /// 12 creates, ticks up to `crash_tick - 1`, 12 more creates (so the
    /// true load of `server` moves past anything it reported), then ticks
    /// until `server` is declared dead. No repair runs before the crash,
    /// so every report `server` sent carried its load from before the
    /// second batch. Returns the detection tick, the load probes saw for
    /// `server` right after the crash tick, that earlier load, and the
    /// true load at the crash.
    fn crash_and_detect(
        heartbeat: HeartbeatConfig,
        plan: &FaultPlan,
        server: usize,
        crash_tick: u64,
    ) -> (u64, u32, u32, u32) {
        let mut config = ClusterConfig::new(4, 2, kd(4));
        config.heartbeat = heartbeat;
        let mut cluster = ChunkCluster::new(config, plan);
        let mut rng = Xoshiro256PlusPlus::from_u64(8);
        for _ in 0..12 {
            cluster.create_chunk(&mut rng).unwrap();
        }
        while cluster.now() + 1 < crash_tick {
            cluster.tick(&mut rng);
        }
        let reported = cluster.loads.get(server).copied().unwrap_or(0);
        for _ in 0..12 {
            cluster.create_chunk(&mut rng).unwrap();
        }
        cluster.tick(&mut rng);
        assert_eq!(cluster.servers[server].status, Status::Crashed);
        let probed = cluster.probe_load(server);
        let truth = cluster.loads[server];
        while cluster.servers[server].status == Status::Crashed {
            assert_eq!(cluster.probe_load(server), probed, "tick {}", cluster.now());
            cluster.tick(&mut rng);
            assert!(cluster.check_invariants(), "tick {}", cluster.now());
        }
        (cluster.now(), probed, reported, truth)
    }

    /// The tick an eagerly heartbeating master declares a server dead:
    /// the first past `last_heard + period * (timeout_beats + 1)`.
    fn eager_detection(heartbeat: HeartbeatConfig, last_heard: u64) -> u64 {
        last_heard + u64::from(heartbeat.period) * (u64::from(heartbeat.timeout_beats) + 1) + 1
    }

    #[test]
    fn crash_on_a_beat_tick_was_last_heard_at_the_previous_beat() {
        let hb = HeartbeatConfig::new(2, 1);
        let plan = FaultPlan::new().at(6, FaultEvent::Crash { server: 0 });
        let (detected, probed, reported, truth) = crash_and_detect(hb, &plan, 0, 6);
        assert_eq!(detected, eager_detection(hb, 4));
        assert_eq!(probed, reported, "the beat at 4 carried the load");
        assert_ne!(probed, truth, "the second batch went unreported");
    }

    #[test]
    fn crash_at_tick_one_was_never_heard() {
        let hb = HeartbeatConfig::new(3, 1);
        let plan = FaultPlan::new().at(1, FaultEvent::Crash { server: 0 });
        let (detected, probed, reported, _) = crash_and_detect(hb, &plan, 0, 1);
        assert_eq!(detected, eager_detection(hb, 0));
        assert_eq!(probed, 0, "no beat ran before the crash");
        assert!(reported > 0);
    }

    #[test]
    fn crash_after_a_recover_was_last_heard_at_the_recovery() {
        let hb = HeartbeatConfig::new(5, 1);
        let plan = FaultPlan::new()
            .at(2, FaultEvent::Crash { server: 0 })
            .at(3, FaultEvent::Recover { server: 0 })
            .at(4, FaultEvent::Crash { server: 0 });
        let (detected, probed, reported, truth) = crash_and_detect(hb, &plan, 0, 4);
        assert_eq!(detected, eager_detection(hb, 3));
        assert_eq!(probed, reported, "the recovery reported the intact load");
        assert_ne!(probed, truth);
    }

    #[test]
    fn crash_after_a_join_was_last_heard_at_the_join() {
        let hb = HeartbeatConfig::new(5, 1);
        let plan = FaultPlan::new()
            .at(3, FaultEvent::Join { capacity: 1.0 })
            .at(4, FaultEvent::Crash { server: 4 });
        let (detected, probed, reported, truth) = crash_and_detect(hb, &plan, 4, 4);
        assert_eq!(detected, eager_detection(hb, 3));
        assert_eq!(
            (probed, reported),
            (0, 0),
            "the join reported an empty server"
        );
        assert!(
            truth > 0,
            "the joined server took replicas before it crashed"
        );
    }

    #[test]
    fn period_one_timeout_zero_detects_two_ticks_after_the_last_beat() {
        let hb = HeartbeatConfig::new(1, 0);
        for crash_tick in [1, 5] {
            let plan = FaultPlan::new().at(crash_tick, FaultEvent::Crash { server: 1 });
            let (detected, probed, reported, truth) = crash_and_detect(hb, &plan, 1, crash_tick);
            assert_eq!(detected, eager_detection(hb, crash_tick - 1));
            assert_eq!(detected, crash_tick + 1);
            let expected = if crash_tick > 1 { reported } else { 0 };
            assert_eq!(probed, expected, "crash at {crash_tick}");
            assert_ne!(probed, truth);
        }
    }

    #[test]
    fn bounded_budget_heals_gradually_and_monotonically() {
        let mut config = ClusterConfig::new(16, 3, kd(6));
        config.recovery = RecoveryConfig::budgeted(2);
        let plan = FaultPlan::new().at(5, FaultEvent::CrashRandom);
        let mut cluster = ChunkCluster::new(config, &plan);
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        for _ in 0..80 {
            cluster.create_chunk(&mut rng).unwrap();
        }
        let mut prev = usize::MAX;
        let mut saw_under = false;
        for _ in 0..300 {
            cluster.tick(&mut rng);
            let now_under = cluster.under_replicated();
            if cluster.now() > 5 {
                assert!(
                    now_under <= prev,
                    "under-replication must shrink monotonically after the storm"
                );
            }
            prev = now_under;
            saw_under |= now_under > 0;
            if cluster.quiescent() && now_under == 0 {
                break;
            }
        }
        assert!(saw_under, "the crash must open an under-replicated window");
        assert_eq!(cluster.under_replicated(), 0);
        let d = cluster.degradation();
        assert!(d.ticks_to_heal >= 2, "budget 2 cannot heal instantly");
        assert!(cluster.check_invariants());
    }

    #[test]
    fn transient_recovery_before_detection_restores_replicas_without_repair() {
        let mut config = ClusterConfig::new(6, 2, kd(4));
        config.heartbeat = HeartbeatConfig::new(4, 2);
        let plan = FaultPlan::new().crash_with_recovery(3, 1, 4);
        let mut cluster = ChunkCluster::new(config, &plan);
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        for _ in 0..30 {
            cluster.create_chunk(&mut rng).unwrap();
        }
        for _ in 0..30 {
            cluster.tick(&mut rng);
            assert!(cluster.check_invariants());
        }
        let d = cluster.degradation();
        assert_eq!(d.crashes, 1);
        assert_eq!(d.detections, 0, "blip shorter than the timeout");
        assert_eq!(d.rejoins, 1);
        assert_eq!(cluster.stats().recovered_chunks, 0);
        assert_eq!(cluster.under_replicated(), 0);
        assert_eq!(cluster.alive_servers(), 6);
    }

    #[test]
    fn rack_outage_crashes_the_whole_rack() {
        let mut config = ClusterConfig::new(12, 2, kd(6));
        config.racks = 4;
        config.discipline = ReplicaDiscipline::DistinctRacks;
        let plan = FaultPlan::new().at(2, FaultEvent::RackOutage { rack: 1 });
        let mut cluster = ChunkCluster::new(config, &plan);
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        for _ in 0..40 {
            cluster.create_chunk(&mut rng).unwrap();
        }
        for _ in 0..60 {
            cluster.tick(&mut rng);
            assert!(cluster.check_invariants(), "tick {}", cluster.now());
        }
        let d = cluster.degradation();
        assert_eq!(d.crashes, 3, "rack 1 holds servers 1, 5, 9");
        assert_eq!(d.detections, 3);
        assert!(d.healed);
        assert_eq!(cluster.alive_servers(), 9);
        // No chunk lost both its replicas: distinct racks meant at most
        // one replica per chunk lived in rack 1.
        assert_eq!(d.durability_losses, 0);
        assert_eq!(d.failed_reads, 0);
    }

    #[test]
    fn joins_absorb_load_and_extend_the_cluster() {
        let config = ClusterConfig::new(4, 2, kd(4));
        let plan = FaultPlan::new()
            .at(1, FaultEvent::Join { capacity: 1.0 })
            .at(1, FaultEvent::Join { capacity: 2.0 });
        let mut cluster = ChunkCluster::new(config, &plan);
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        cluster.tick(&mut rng);
        assert_eq!(cluster.total_servers(), 6);
        assert_eq!(cluster.alive_servers(), 6);
        for _ in 0..120 {
            cluster.create_chunk(&mut rng).unwrap();
        }
        assert!(cluster.check_invariants());
        // The joined servers participate in placement.
        assert!(cluster.alive_loads()[4] > 0);
        assert!(cluster.alive_loads()[5] > 0);
    }

    #[test]
    fn overlapping_fault_targets_degrade_to_plan_errors() {
        let config = ClusterConfig::new(3, 1, PlacementPolicy::Random);
        let plan = FaultPlan::new()
            .at(1, FaultEvent::Crash { server: 0 })
            .at(2, FaultEvent::Crash { server: 0 })
            .at(2, FaultEvent::Recover { server: 2 })
            .at(3, FaultEvent::Crash { server: 99 });
        let mut cluster = ChunkCluster::new(config, &plan);
        let mut rng = Xoshiro256PlusPlus::from_u64(6);
        for _ in 0..5 {
            cluster.tick(&mut rng);
        }
        let d = cluster.degradation();
        assert_eq!(d.crashes, 1);
        assert_eq!(d.plan_errors, 3);
        assert!(cluster.check_invariants());
    }

    #[test]
    fn stale_heartbeat_probes_can_pick_dead_destinations_and_retry() {
        // Period 6 with a long timeout: a crashed server stays in the
        // master's alive view for a while, so recovery placement can pick
        // it and must retry.
        let mut config = ClusterConfig::new(4, 2, kd(8));
        config.heartbeat = HeartbeatConfig::new(6, 3);
        config.recovery = RecoveryConfig::budgeted(4);
        let plan = FaultPlan::new()
            .at(8, FaultEvent::Crash { server: 0 })
            .at(9, FaultEvent::Crash { server: 1 });
        let mut cluster = ChunkCluster::new(config, &plan);
        let mut rng = Xoshiro256PlusPlus::from_u64(7);
        for _ in 0..60 {
            cluster.create_chunk(&mut rng).unwrap();
        }
        for _ in 0..200 {
            cluster.tick(&mut rng);
            assert!(cluster.check_invariants(), "tick {}", cluster.now());
        }
        let d = cluster.degradation();
        assert_eq!(d.detections, 2);
        assert!(d.detection_latency_max >= 6);
        assert!(
            d.healed,
            "under-replicated at end: {}",
            d.final_under_replicated
        );
        assert!(cluster.quiescent());
    }
}
