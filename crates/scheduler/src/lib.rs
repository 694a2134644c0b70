//! Parallel job scheduling with (k,d)-choice — the paper's first
//! application (§1.3).
//!
//! > "Suppose that a job consists of k tasks to be scheduled in parallel,
//! > and each task issues d random probes individually (as in d-choice). In
//! > this case, it is likely that there will be a ball/task whose d possible
//! > destinations are all heavily loaded. Since a job's completion time is
//! > determined by the task finishing last, the performance of the standard
//! > multiple choice degrades as a job's parallelism increases. Our
//! > (k,d)-choice model solves this problem by letting k tasks share
//! > information across all the probes in a job."
//!
//! This crate simulates exactly that scenario: a cluster of FIFO workers, a
//! Poisson stream of jobs of `k` parallel tasks each, and pluggable probing
//! strategies ([`PlacementStrategy`]):
//!
//! * [`PlacementStrategy::Random`] — no probing;
//! * [`PlacementStrategy::PerTaskDChoice`] — the degraded per-task d-choice
//!   described above;
//! * [`PlacementStrategy::BatchSampling`] — Sparrow's batch sampling
//!   (reference \[12\]): probe `d·k` workers, place the `k` tasks on the `k`
//!   least loaded — which is precisely (k, d·k)-choice;
//! * [`PlacementStrategy::KdChoice`] — the paper's process with a probe
//!   budget `d` decoupled from `k` (e.g. `d = k+1` for near-minimal message
//!   cost).
//!
//! A job's **response time** is the completion time of its last task; the
//! experiment regenerating the §1.3 claim compares tail response times at
//! matched or lower message budgets.
//!
//! **Multidimensional jobs** ([`simulate_vector`]): jobs may carry a
//! D-dimensional resource demand vector (CPU/memory/IO…, drawn once per
//! job from a `DemandDistribution` and shared by its `k` tasks), workers
//! accumulate demand in a `kdchoice_core::VectorLoad` and may carry
//! per-dimension capacities, and probes compete on a
//! [`kdchoice_core::PlacementObjective`] key (max-norm, weighted norm,
//! capacity-normalized) instead of the scalar queue length. Queue
//! *lengths* (task counts) still drive the FIFO service model — demand
//! vectors shape only the placement decision and the per-dimension gap
//! observables. At `dims = 1` with the scalar objective and unit demand
//! the vector simulation is bit-identical to [`simulate`] (locked by
//! test). Late binding is event-driven rather than one-shot: a
//! reservation carries its job's demand vector from enqueue to claim or
//! cancellation, so probed loads include reserved demand exactly as the
//! scalar path's queue lengths include reservations.
//!
//! **One event loop.** [`simulate`], [`simulate_on`] and
//! [`simulate_vector`] are instances of one crate-private loop,
//! monomorphised over the load substrate: scalar queue lengths in any
//! [`BinStore`], or demand vectors in a `VectorLoad`. The substrate draws
//! a job's demand at arrival (unit demand draws nothing), adds and
//! removes a task's load, makes the one-shot choice and reports its
//! gaps; the loop owns the events, the workers, late binding, the probe
//! snapshot and the report. The snapshot rule is the same on both
//! substrates: at `scheduler_batch` 1 a job reads the live loads, and at
//! batch `b` a snapshot of every worker's load is copied once every `b`
//! jobs.
//!
//! The loop peeks the earliest event and handles it while it stays on
//! top of the [`EventQueue`] (the task completions an arrival starts are
//! pushed behind it, at a later `(time, seq)` key). Each event then ends
//! with exactly one heap operation: [`EventQueue::replace_top`] when it
//! has a successor (the worker's next task or claimed reservation, or
//! the next job arrival), one sift down, and [`EventQueue::pop`]
//! otherwise. `replace_top` is by definition a pop followed by a push, so
//! the event order and every report are the ones a pop-then-push loop
//! gives; golden digests lock this, including deterministic-service runs
//! whose task completions tie in time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod placement;
mod scenario;
mod workload;

pub use placement::{select_k_least_loaded, PlacementStrategy};
use placement::{ChoiceScratch, LiveLoads, SliceLoads, VectorView};
pub use scenario::{SchedulerExperiment, SchedulerScenario};
pub use workload::ServiceDistribution;

use std::collections::VecDeque;

use kdchoice_core::{BinStore, ConfigError, LoadVector, PlacementObjective, VectorLoad};
use kdchoice_prng::demand::DemandDistribution;
use kdchoice_prng::dist::Exponential;
use kdchoice_prng::Xoshiro256PlusPlus;
use kdchoice_sim::{Clock, EventQueue, TimeWeighted};
use kdchoice_stats::quantile::quantiles;
use kdchoice_stats::Summary;
use rand::Rng;

/// Configuration of one cluster-scheduling simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker machines.
    pub workers: usize,
    /// Tasks per job (`k` in the paper's framing).
    pub tasks_per_job: usize,
    /// Total jobs to run.
    pub jobs: usize,
    /// Poisson arrival rate (jobs per unit time).
    pub arrival_rate: f64,
    /// Per-task service time distribution.
    pub service: ServiceDistribution,
    /// Fraction of earliest-arriving jobs excluded from statistics.
    pub warmup_fraction: f64,
    /// Probe staleness: consecutive jobs in a batch of this size share one
    /// queue-length snapshot (modeling multiple independent schedulers or
    /// probe latency, as in Sparrow), copied once per batch. `1` =
    /// perfectly fresh probes: each job reads its probed workers' live
    /// queue lengths and copies nothing. Must be at least 1; the
    /// simulators panic otherwise.
    pub scheduler_batch: usize,
    /// Master seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// A reasonable default scenario: utilization is set via
    /// [`ClusterConfig::with_utilization`].
    pub fn new(workers: usize, tasks_per_job: usize, jobs: usize, seed: u64) -> Self {
        Self {
            workers,
            tasks_per_job,
            jobs,
            arrival_rate: 1.0,
            service: ServiceDistribution::Exponential { mean: 1.0 },
            warmup_fraction: 0.1,
            scheduler_batch: 1,
            seed,
        }
    }

    /// Makes probes stale: batches of `batch` consecutive jobs share one
    /// queue-length snapshot (Sparrow's multi-scheduler race).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    #[must_use]
    pub fn with_scheduler_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "scheduler batch must be at least 1");
        self.scheduler_batch = batch;
        self
    }

    /// Sets the arrival rate so that the offered load is `rho` (fraction of
    /// aggregate service capacity).
    #[must_use]
    pub fn with_utilization(mut self, rho: f64) -> Self {
        assert!(rho > 0.0 && rho < 1.0, "utilization must be in (0,1)");
        let per_job_work = self.tasks_per_job as f64 * self.service.mean();
        self.arrival_rate = rho * self.workers as f64 / per_job_work;
        self
    }

    /// Replaces the service distribution.
    #[must_use]
    pub fn with_service(mut self, service: ServiceDistribution) -> Self {
        self.service = service;
        self
    }

    /// The offered load `λ·k·E[S]/workers`.
    pub fn utilization(&self) -> f64 {
        self.arrival_rate * self.tasks_per_job as f64 * self.service.mean() / self.workers as f64
    }

    /// Checks every field a simulation relies on, and `strategy` against
    /// the job shape; the simulators panic with this error's message.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::ZeroParameter`] for zero `workers`,
    ///   `tasks_per_job`, `jobs` or `scheduler_batch`, or a zero per-task
    ///   `d` or batch-sampling or late-binding `probes_per_task`;
    /// * [`ConfigError::KExceedsD`] for (k,d)-choice with `d < k`;
    /// * [`ConfigError::BadProbability`] for a `warmup_fraction` outside
    ///   `[0, 1]`;
    /// * [`ConfigError::OutOfRange`] for an `arrival_rate` that is not
    ///   finite and positive, a service distribution that cannot be drawn
    ///   from, or a utilization of 1 or more (an unstable cluster).
    pub fn validate(&self, strategy: PlacementStrategy) -> Result<(), ConfigError> {
        for (name, value) in [
            ("workers", self.workers),
            ("tasks_per_job", self.tasks_per_job),
            ("jobs", self.jobs),
            ("scheduler_batch", self.scheduler_batch),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroParameter(name));
            }
        }
        if !(0.0..=1.0).contains(&self.warmup_fraction) {
            return Err(ConfigError::BadProbability("warmup_fraction"));
        }
        Exponential::new(self.arrival_rate).map_err(|_| ConfigError::OutOfRange {
            name: "arrival_rate",
            need: "finite and > 0",
        })?;
        self.service.sampler()?;
        let utilization = self.utilization();
        if utilization.is_nan() || utilization >= 1.0 {
            return Err(ConfigError::OutOfRange {
                name: "utilization",
                need: "< 1 (the cluster is unstable otherwise)",
            });
        }
        strategy.validate(self.tasks_per_job)
    }

    /// [`ClusterConfig::validate`], panicking with its message: the check
    /// every simulation makes on entry.
    fn assert_valid(&self, strategy: PlacementStrategy) {
        if let Err(e) = self.validate(strategy) {
            panic!("invalid cluster config: {e}");
        }
    }
}

/// The multidimensional job model driving [`simulate_vector`]: demand
/// dimensionality, the probe-comparison objective, the per-job demand
/// distribution, and optional scalar worker capacities (replicated
/// across dimensions, consumed by
/// [`PlacementObjective::NormalizedByCapacity`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorJobProfile {
    /// Demand-vector dimensionality (1..=`kdchoice_core::MAX_DIMS`).
    pub dims: usize,
    /// The probe comparison key.
    pub objective: PlacementObjective,
    /// Per-job demand distribution (one vector per job, shared by its
    /// `k` tasks).
    pub demand: DemandDistribution,
    /// Optional per-worker capacities (one scalar per worker, replicated
    /// across dimensions). Capacities shape the *placement objective*
    /// only — the FIFO service model is unchanged.
    pub worker_capacities: Option<Vec<u32>>,
}

impl VectorJobProfile {
    /// The degenerate profile equivalent to the scalar simulation:
    /// `dims = 1`, scalar objective, unit demand, no capacities.
    pub fn scalar() -> Self {
        Self {
            dims: 1,
            objective: PlacementObjective::Scalar,
            demand: DemandDistribution::Unit,
            worker_capacities: None,
        }
    }

    /// Whether this profile exercises anything beyond the scalar path.
    pub fn is_vector(&self) -> bool {
        self.dims != 1
            || self.objective != PlacementObjective::Scalar
            || self.demand != DemandDistribution::Unit
            || self.worker_capacities.is_some()
    }
}

/// Aggregate results of one scheduling simulation.
#[derive(Debug, Clone)]
pub struct SchedulerReport {
    /// The strategy's display name.
    pub strategy: String,
    /// Jobs measured (post-warmup).
    pub jobs_measured: usize,
    /// Summary of job response times (last-task completion − arrival).
    pub response: Summary,
    /// Response-time percentiles `[p50, p90, p99]`.
    pub response_percentiles: [f64; 3],
    /// Total probe messages issued by the scheduler.
    pub probe_messages: u64,
    /// Probe messages per job.
    pub probes_per_job: f64,
    /// Time-weighted mean of total outstanding tasks in the cluster.
    pub mean_outstanding: f64,
    /// Maximum queue length (including the running task) seen at any worker.
    pub max_queue_len: u32,
    /// Peak per-dimension load gap (`max_w load_j(w) − mean_w load_j(w)`
    /// per dimension `j`), sampled right after each job's placements
    /// commit and maximized over the run. The scalar path reports the
    /// single-entry queue-length gap; [`simulate_vector`] reports one
    /// entry per demand dimension.
    pub dim_gaps: Vec<f64>,
}

/// A queue entry at a worker: a concrete task, or a late-binding
/// reservation that will claim a task (or cancel) when it reaches service.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// A task of `job` with its service time drawn at assignment.
    Task(u32, f64),
    /// A late-binding reservation for `job`.
    Reservation(u32),
}

/// One worker: a FIFO queue of entries plus the running task.
///
/// The worker's queue *length* (including the running task and pending
/// reservations — the probed "load", as in Sparrow) is not stored here:
/// it lives in the shared [`BinStore`] substrate, one bin per worker, so
/// the scheduler tracks load through the same interface as the core
/// process, the storage cluster, and the concurrent placement service.
#[derive(Debug, Default)]
struct Worker {
    /// Pending entries, not including the one in service.
    pending: VecDeque<Entry>,
    /// Job id of the task in service, if busy.
    running: Option<u32>,
}

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Job with this index arrives.
    JobArrival(u32),
    /// The running task at this worker completes.
    TaskComplete(u32),
}

/// Runs one simulation; deterministic in `(config, strategy)`.
///
/// # Panics
///
/// Panics if [`ClusterConfig::validate`] rejects the configuration: an
/// unstable one (utilization ≥ 1), a degenerate one (zero
/// workers/jobs/tasks, or a `scheduler_batch` of 0), an invalid service
/// distribution, or a strategy whose probe parameter does not fit the job.
///
/// ```
/// use kdchoice_scheduler::{simulate, ClusterConfig, PlacementStrategy};
///
/// let cfg = ClusterConfig::new(100, 4, 500, 7).with_utilization(0.6);
/// let report = simulate(&cfg, PlacementStrategy::KdChoice { d: 8 });
/// assert_eq!(report.jobs_measured, 450); // 10% warmup excluded
/// assert!(report.response.mean() > 0.0);
/// ```
pub fn simulate(config: &ClusterConfig, strategy: PlacementStrategy) -> SchedulerReport {
    config.assert_valid(strategy);
    // Worker queue lengths live in the shared bin-load substrate; any
    // `BinStore` implementation slots in via `simulate_on`.
    simulate_on(config, strategy, LoadVector::new(config.workers))
}

/// [`simulate`] over an explicit [`BinStore`] tracking worker queue
/// lengths (one bin per worker; must start empty).
///
/// This is the substrate seam of the service-layer refactor: the
/// default [`simulate`] plugs in a [`LoadVector`], and any other
/// implementation — e.g. `kdchoice-service`'s `ShardedStore` — produces
/// the identical simulation, since the store is driven through the
/// trait surface only (locked by a cross-substrate test).
pub fn simulate_on<B: BinStore>(
    config: &ClusterConfig,
    strategy: PlacementStrategy,
    queue_lens: B,
) -> SchedulerReport {
    config.assert_valid(strategy);
    assert_eq!(queue_lens.n(), config.workers, "one bin per worker");
    assert_eq!(queue_lens.total_balls(), 0, "store must start empty");
    run(config, strategy, queue_lens, 1)
}

/// [`simulate`] with multidimensional job demands: jobs draw a demand
/// vector per [`VectorJobProfile::demand`] at arrival (shared by the
/// job's `k` tasks), workers accumulate demand in a
/// [`kdchoice_core::VectorLoad`], and probes compete on
/// [`VectorJobProfile::objective`] keys over the strided loads (live, or
/// a stale snapshot per `scheduler_batch`).
///
/// The FIFO service model, event ordering, and every scalar observable
/// are those of [`simulate`]; the per-job RNG stream is `demand draws →
/// probe draws → tie-break draws → service draws` (unit demand draws
/// nothing). With the [`VectorJobProfile::scalar`] profile the run is
/// **bit-identical** to [`simulate`] — same responses, probe counts,
/// queue peaks, and gap — locked by test.
///
/// [`PlacementStrategy::LateBinding`] is event-driven here exactly as
/// in [`simulate`]: reservations enqueue the job's demand vector at
/// probed workers (so probed loads include reserved demand, matching
/// the scalar path where queue lengths include reservations) and a
/// cancelled reservation subtracts the same vector it added.
///
/// # Panics
///
/// Panics under [`simulate`]'s conditions, if the objective does not
/// validate against `profile.dims`, or if a capacity map's length
/// differs from `config.workers`.
pub fn simulate_vector(
    config: &ClusterConfig,
    strategy: PlacementStrategy,
    profile: &VectorJobProfile,
) -> SchedulerReport {
    config.assert_valid(strategy);
    let dims = profile.dims;
    assert!(
        profile.objective.validate(dims),
        "objective does not validate against dims={dims}"
    );
    let store = match &profile.worker_capacities {
        Some(caps) => {
            assert_eq!(caps.len(), config.workers, "one capacity per worker");
            VectorLoad::with_capacities(dims, caps)
        }
        None => VectorLoad::new(dims, config.workers),
    };
    let loads = VectorLoads {
        store,
        profile,
        job_demands: vec![0; config.jobs * dims],
        demand_buf: Vec::with_capacity(dims),
    };
    run(config, strategy, loads, dims)
}

/// The load substrate of one simulation: what a job's arrival draws, what
/// a task adds to its worker, how probes read loads, which gaps are
/// observed. [`run`]'s event loop owns everything else.
trait JobLoads {
    /// Begins `job`'s arrival, before any of its probes are drawn: draws
    /// its demand, where it has one (unit demand draws nothing).
    #[inline]
    fn arrive(&mut self, _job: usize, _rng: &mut Xoshiro256PlusPlus) {}

    /// Adds a task or reservation of `job` at `w`; returns `w`'s queue length.
    fn add(&mut self, w: usize, job: usize) -> u32;

    /// Removes a task or cancelled reservation of `job` from `w`.
    fn remove(&mut self, w: usize, job: usize);

    /// Copies every worker's load into `snapshot`.
    fn snapshot_into(&self, snapshot: &mut Vec<u32>);

    /// Chooses `job`'s workers into `scratch.chosen` from `snapshot`, or
    /// from the live loads when it is `None`; returns the probe messages.
    fn choose(
        &self,
        strategy: PlacementStrategy,
        job: usize,
        k: usize,
        snapshot: Option<&[u32]>,
        rng: &mut Xoshiro256PlusPlus,
        scratch: &mut ChoiceScratch,
    ) -> u64;

    /// Raises each dimension's peak gap to its current gap.
    fn record_gaps(&self, peaks: &mut [f64]);

    /// Whether no task's load is left and the substrate is consistent.
    fn drained(&self) -> bool;
}

/// Scalar queue lengths in any [`BinStore`]: a task adds one ball.
impl<B: BinStore> JobLoads for B {
    #[inline]
    fn add(&mut self, w: usize, _job: usize) -> u32 {
        self.add_ball(w)
    }

    #[inline]
    fn remove(&mut self, w: usize, _job: usize) {
        self.remove_ball(w);
    }

    #[inline]
    fn snapshot_into(&self, snapshot: &mut Vec<u32>) {
        self.copy_loads_into(snapshot);
    }

    #[inline]
    fn choose(
        &self,
        strategy: PlacementStrategy,
        _job: usize,
        k: usize,
        snapshot: Option<&[u32]>,
        rng: &mut Xoshiro256PlusPlus,
        scratch: &mut ChoiceScratch,
    ) -> u64 {
        match snapshot {
            None => strategy.choose_into(&LiveLoads(self), k, rng, scratch),
            Some(loads) => strategy.choose_into(&SliceLoads(loads), k, rng, scratch),
        }
    }

    #[inline]
    fn record_gaps(&self, peaks: &mut [f64]) {
        peaks[0] = peaks[0].max(self.gap());
    }

    fn drained(&self) -> bool {
        self.total_balls() == 0
    }
}

/// D-dimensional demands in a [`VectorLoad`]: a task adds its job's
/// demand vector, kept from arrival until the job's last task completes,
/// so that every removal (a cancelled reservation's included) subtracts
/// exactly what was added.
struct VectorLoads<'a> {
    store: VectorLoad,
    profile: &'a VectorJobProfile,
    /// Each job's demand vector, `dims` entries per job.
    job_demands: Vec<u32>,
    /// The arriving job's demand draw.
    demand_buf: Vec<u32>,
}

impl VectorLoads<'_> {
    /// Where `job`'s demand vector sits in `job_demands`.
    #[inline]
    fn demand_range(&self, job: usize) -> std::ops::Range<usize> {
        let dims = self.profile.dims;
        job * dims..(job + 1) * dims
    }
}

impl JobLoads for VectorLoads<'_> {
    #[inline]
    fn arrive(&mut self, job: usize, rng: &mut Xoshiro256PlusPlus) {
        let range = self.demand_range(job);
        let demand = &self.profile.demand;
        demand.sample_into(rng, range.len(), &mut self.demand_buf);
        self.job_demands[range].copy_from_slice(&self.demand_buf);
    }

    #[inline]
    fn add(&mut self, w: usize, job: usize) -> u32 {
        self.store.add(w, &self.job_demands[self.demand_range(job)])
    }

    #[inline]
    fn remove(&mut self, w: usize, job: usize) {
        self.store
            .remove(w, &self.job_demands[self.demand_range(job)]);
    }

    #[inline]
    fn snapshot_into(&self, snapshot: &mut Vec<u32>) {
        snapshot.clear();
        snapshot.extend_from_slice(self.store.loads_strided());
    }

    #[inline]
    fn choose(
        &self,
        strategy: PlacementStrategy,
        job: usize,
        k: usize,
        snapshot: Option<&[u32]>,
        rng: &mut Xoshiro256PlusPlus,
        scratch: &mut ChoiceScratch,
    ) -> u64 {
        let view = VectorView {
            loads: snapshot.unwrap_or(self.store.loads_strided()),
            store: &self.store,
            demand: &self.job_demands[self.demand_range(job)],
            objective: &self.profile.objective,
        };
        strategy.choose_into(&view, k, rng, scratch)
    }

    #[inline]
    fn record_gaps(&self, peaks: &mut [f64]) {
        for (j, peak) in peaks.iter_mut().enumerate() {
            *peak = peak.max(self.store.dim_gap(j));
        }
    }

    fn drained(&self) -> bool {
        self.store.check_invariants() && self.store.balls().total_balls() == 0
    }
}

/// The event loop of every simulation, over the load substrate `loads`
/// (validated and empty) of `dims` dimensions.
fn run<L: JobLoads>(
    config: &ClusterConfig,
    strategy: PlacementStrategy,
    mut loads: L,
    dims: usize,
) -> SchedulerReport {
    let mut rng = Xoshiro256PlusPlus::from_u64(config.seed);
    let interarrival = Exponential::new(config.arrival_rate).expect("validated arrival rate");
    let service_time = config
        .service
        .sampler()
        .expect("validated service distribution");
    let mut workers: Vec<Worker> = (0..config.workers).map(|_| Worker::default()).collect();
    let mut queue = EventQueue::new();
    let mut clock = Clock::new();

    let k = config.tasks_per_job;
    let warmup = ((config.jobs as f64) * config.warmup_fraction).floor() as usize;
    let mut arrivals: Vec<f64> = vec![0.0; config.jobs];
    let mut remaining: Vec<u32> = vec![0; config.jobs];
    // Tasks launched so far per job (only consulted by late binding).
    let mut launched: Vec<u32> = vec![0; config.jobs];
    let mut responses: Vec<f64> = Vec::with_capacity(config.jobs - warmup);
    let mut probe_messages = 0u64;
    let mut outstanding = TimeWeighted::new(0.0, 0.0);
    let mut outstanding_now = 0i64;
    let mut max_queue_len = 0u32;
    let mut peak_gaps = vec![0.0f64; dims];
    // The probed load snapshot, refreshed once per scheduler batch; fresh
    // probes (scheduler_batch = 1) read the live loads and never fill it.
    let mut snapshot: Vec<u32> = Vec::new();
    let mut jobs_since_refresh = 0usize;
    let mut scratch = ChoiceScratch::default();

    queue.push(interarrival.sample(&mut rng), Event::JobArrival(0));

    while let Some((t, &event)) = queue.peek() {
        clock.advance_to(t);
        let successor = match event {
            Event::JobArrival(job) => {
                let job_idx = job as usize;
                arrivals[job_idx] = t;
                remaining[job_idx] = k as u32;
                loads.arrive(job_idx, &mut rng);
                if let PlacementStrategy::LateBinding { probes_per_task } = strategy {
                    // Place reservations on d·k probed workers; idle workers
                    // claim a task immediately, busy workers enqueue. A
                    // reservation holds its job's load until it claims a
                    // task or cancels.
                    let probes = probes_per_task * k;
                    probe_messages += probes as u64;
                    for _ in 0..probes {
                        let w = rng.gen_range(0..config.workers);
                        let worker = &mut workers[w];
                        if worker.running.is_none() && launched[job_idx] < k as u32 {
                            launched[job_idx] += 1;
                            let service = service_time.sample(&mut rng);
                            worker.running = Some(job);
                            max_queue_len = max_queue_len.max(loads.add(w, job_idx));
                            queue.push(t + service, Event::TaskComplete(w as u32));
                        } else if launched[job_idx] < k as u32 {
                            worker.pending.push_back(Entry::Reservation(job));
                            max_queue_len = max_queue_len.max(loads.add(w, job_idx));
                        }
                    }
                    // Degenerate safety net: if every probe hit the same few
                    // idle workers and fewer than k tasks have homes, bind
                    // the remainder to random workers (Sparrow retries).
                    while launched[job_idx] < k as u32 {
                        let w = rng.gen_range(0..config.workers);
                        launched[job_idx] += 1;
                        let service = service_time.sample(&mut rng);
                        let worker = &mut workers[w];
                        max_queue_len = max_queue_len.max(loads.add(w, job_idx));
                        if worker.running.is_none() {
                            worker.running = Some(job);
                            queue.push(t + service, Event::TaskComplete(w as u32));
                        } else {
                            worker.pending.push_back(Entry::Task(job, service));
                        }
                    }
                } else {
                    // Probe and choose workers for the k tasks up front,
                    // reading the live loads or the stale snapshot.
                    let stale = config.scheduler_batch > 1;
                    if stale {
                        if jobs_since_refresh == 0 {
                            loads.snapshot_into(&mut snapshot);
                        }
                        jobs_since_refresh = (jobs_since_refresh + 1) % config.scheduler_batch;
                    }
                    let view = stale.then_some(&snapshot[..]);
                    probe_messages +=
                        loads.choose(strategy, job_idx, k, view, &mut rng, &mut scratch);
                    debug_assert_eq!(scratch.chosen.len(), k);
                    for &w in &scratch.chosen {
                        let service = service_time.sample(&mut rng);
                        let worker = &mut workers[w];
                        max_queue_len = max_queue_len.max(loads.add(w, job_idx));
                        if worker.running.is_none() {
                            worker.running = Some(job);
                            queue.push(t + service, Event::TaskComplete(w as u32));
                        } else {
                            worker.pending.push_back(Entry::Task(job, service));
                        }
                    }
                }
                loads.record_gaps(&mut peak_gaps);
                outstanding_now += k as i64;
                outstanding.update(t, outstanding_now as f64);
                let next = job_idx + 1;
                (next < config.jobs).then(|| {
                    let arrival = t + interarrival.sample(&mut rng);
                    (arrival, Event::JobArrival(next as u32))
                })
            }
            Event::TaskComplete(w) => {
                let widx = w as usize;
                let fj = workers[widx].running.take().expect("worker was busy") as usize;
                loads.remove(widx, fj);
                outstanding_now -= 1;
                outstanding.update(t, outstanding_now as f64);
                // Pull the next runnable entry: concrete tasks run as-is;
                // reservations launch a task if their job still needs one
                // (the reserved load becomes the task's), and cancel —
                // removing their load — otherwise.
                let mut successor = None;
                while let Some(entry) = workers[widx].pending.pop_front() {
                    match entry {
                        Entry::Task(next_job, service) => {
                            workers[widx].running = Some(next_job);
                            successor = Some((t + service, Event::TaskComplete(w)));
                            break;
                        }
                        Entry::Reservation(res_job) => {
                            let rj = res_job as usize;
                            if launched[rj] < k as u32 {
                                launched[rj] += 1;
                                let service = service_time.sample(&mut rng);
                                workers[widx].running = Some(res_job);
                                successor = Some((t + service, Event::TaskComplete(w)));
                                break;
                            }
                            // Cancelled reservation: drop and keep looking.
                            loads.remove(widx, rj);
                        }
                    }
                }
                remaining[fj] -= 1;
                if remaining[fj] == 0 && fj >= warmup {
                    responses.push(t - arrivals[fj]);
                }
                successor
            }
        };
        // One heap operation ends the event: a pop, or a pop then a push
        // in one sift down.
        match successor {
            Some((time, event)) => queue.replace_top(time, event),
            None => queue.pop(),
        };
    }
    debug_assert!(loads.drained(), "tasks leaked load");

    let response = Summary::from_iter(responses.iter().copied());
    let pct = quantiles(&responses, &[0.5, 0.9, 0.99]);
    let percentiles = if pct.len() == 3 {
        [pct[0], pct[1], pct[2]]
    } else {
        [0.0; 3]
    };
    SchedulerReport {
        strategy: strategy.name().into_owned(),
        jobs_measured: responses.len(),
        response,
        response_percentiles: percentiles,
        probe_messages,
        probes_per_job: probe_messages as f64 / config.jobs as f64,
        mean_outstanding: outstanding.average(clock.now()),
        max_queue_len,
        dim_gaps: peak_gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config(seed: u64) -> ClusterConfig {
        ClusterConfig::new(64, 4, 400, seed).with_utilization(0.7)
    }

    #[test]
    fn utilization_is_respected() {
        let cfg = base_config(1);
        assert!((cfg.utilization() - 0.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_config_is_rejected() {
        let mut cfg = base_config(1);
        cfg.arrival_rate *= 2.0; // utilization 1.4
        let _ = simulate(&cfg, PlacementStrategy::Random);
    }

    #[test]
    fn all_jobs_complete_and_accounting_balances() {
        let cfg = base_config(2);
        let r = simulate(&cfg, PlacementStrategy::KdChoice { d: 5 });
        assert_eq!(r.jobs_measured, 400 - 40);
        // (k,d)-choice probes d workers per job.
        assert_eq!(r.probe_messages, 400 * 5);
        assert!((r.probes_per_job - 5.0).abs() < 1e-12);
        assert!(r.response.min().unwrap() > 0.0);
        assert!(r.max_queue_len >= 1);
        assert!(r.mean_outstanding > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = base_config(3);
        let a = simulate(
            &cfg,
            PlacementStrategy::BatchSampling { probes_per_task: 2 },
        );
        let b = simulate(
            &cfg,
            PlacementStrategy::BatchSampling { probes_per_task: 2 },
        );
        assert_eq!(a.response.mean(), b.response.mean());
        assert_eq!(a.probe_messages, b.probe_messages);
        assert_eq!(a.max_queue_len, b.max_queue_len);
    }

    #[test]
    fn probing_beats_random_at_high_load() {
        let cfg = ClusterConfig::new(64, 4, 2000, 4).with_utilization(0.85);
        let rand = simulate(&cfg, PlacementStrategy::Random);
        let batch = simulate(
            &cfg,
            PlacementStrategy::BatchSampling { probes_per_task: 2 },
        );
        assert!(
            batch.response.mean() < rand.response.mean(),
            "batch {} vs random {}",
            batch.response.mean(),
            rand.response.mean()
        );
    }

    #[test]
    fn batch_sampling_improves_tail_over_per_task_probing() {
        // The §1.3 claim: sharing probes across the job's tasks reduces the
        // chance that some task lands on a loaded machine, which shows up in
        // the response-time tail. Use equal message budgets.
        let cfg = ClusterConfig::new(128, 8, 4000, 5).with_utilization(0.85);
        let per_task = simulate(&cfg, PlacementStrategy::PerTaskDChoice { d: 2 });
        let batch = simulate(
            &cfg,
            PlacementStrategy::BatchSampling { probes_per_task: 2 },
        );
        assert_eq!(per_task.probe_messages, batch.probe_messages);
        let tail_pt = per_task.response_percentiles[2];
        let tail_b = batch.response_percentiles[2];
        assert!(
            tail_b <= tail_pt * 1.05,
            "batch p99 {tail_b} should not lose to per-task p99 {tail_pt}"
        );
    }

    #[test]
    fn kd_choice_with_small_d_uses_far_fewer_messages() {
        let cfg = base_config(6);
        let kd = simulate(&cfg, PlacementStrategy::KdChoice { d: 5 }); // k+1 probes
        let batch = simulate(
            &cfg,
            PlacementStrategy::BatchSampling { probes_per_task: 2 },
        );
        assert!(kd.probe_messages <= batch.probe_messages);
    }

    #[test]
    fn deterministic_service_works() {
        let cfg = base_config(7).with_service(ServiceDistribution::Deterministic { value: 0.5 });
        let r = simulate(&cfg, PlacementStrategy::Random);
        assert!(r.response.min().unwrap() >= 0.5 - 1e-12);
    }

    #[test]
    fn late_binding_completes_every_job() {
        let cfg = base_config(8);
        let r = simulate(&cfg, PlacementStrategy::LateBinding { probes_per_task: 2 });
        assert_eq!(r.jobs_measured, 400 - 40);
        assert_eq!(r.probe_messages, 400 * 2 * 4);
        assert!(r.response.mean() > 0.0);
    }

    #[test]
    fn late_binding_is_deterministic() {
        let cfg = base_config(9);
        let a = simulate(&cfg, PlacementStrategy::LateBinding { probes_per_task: 2 });
        let b = simulate(&cfg, PlacementStrategy::LateBinding { probes_per_task: 2 });
        assert_eq!(a.response.mean(), b.response.mean());
    }

    #[test]
    fn late_binding_beats_random_but_not_perfect_information_batch() {
        // In Sparrow, late binding wins because probed queue lengths are
        // stale and task durations unknown. This simulator gives batch
        // sampling *perfect instantaneous* queue information, so batch
        // sampling retains the information advantage — late binding must
        // still clearly beat unprobed random placement. (Recorded as a
        // substitution note in DESIGN.md.)
        let cfg = ClusterConfig::new(128, 8, 4000, 10).with_utilization(0.9);
        let random = simulate(&cfg, PlacementStrategy::Random);
        let late = simulate(&cfg, PlacementStrategy::LateBinding { probes_per_task: 2 });
        assert!(
            late.response.mean() < random.response.mean(),
            "late binding mean {} vs random mean {}",
            late.response.mean(),
            random.response.mean()
        );
    }

    #[test]
    fn stale_probes_degrade_batch_sampling_monotonically() {
        // With scheduler_batch > 1, many jobs act on one queue snapshot and
        // pile onto the same apparently-idle workers (Sparrow's
        // multi-scheduler race). Batch sampling degrades as the snapshot
        // ages; late binding never trusts a snapshot and is unaffected.
        let base = ClusterConfig::new(128, 8, 3000, 12).with_utilization(0.9);
        let mean_at = |batch: usize, s: PlacementStrategy| {
            simulate(&base.clone().with_scheduler_batch(batch), s)
                .response
                .mean()
        };
        let bs = PlacementStrategy::BatchSampling { probes_per_task: 2 };
        let lb = PlacementStrategy::LateBinding { probes_per_task: 2 };
        let fresh = mean_at(1, bs);
        let stale32 = mean_at(32, bs);
        let stale256 = mean_at(256, bs);
        assert!(
            fresh < stale32 && stale32 < stale256,
            "staleness must degrade batch sampling monotonically: {fresh:.2} {stale32:.2} {stale256:.2}"
        );
        // Late binding is immune to snapshot staleness (it never reads one).
        let late_fresh = mean_at(1, lb);
        let late_stale = mean_at(256, lb);
        assert!((late_fresh - late_stale).abs() < 1e-9);
        // At extreme staleness late binding overtakes batch sampling on the
        // mean — Sparrow's regime.
        assert!(
            late_stale < stale256,
            "late binding {late_stale:.2} should beat extremely stale batch sampling {stale256:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_scheduler_batch_rejected() {
        let _ = base_config(13).with_scheduler_batch(0);
    }

    /// A config whose `scheduler_batch` of 0 bypassed the builder.
    fn zero_batch_literal() -> ClusterConfig {
        ClusterConfig {
            scheduler_batch: 0,
            ..base_config(13)
        }
    }

    #[test]
    #[should_panic(expected = "scheduler_batch must be positive")]
    fn zero_scheduler_batch_field_rejected_by_simulate() {
        let _ = simulate(&zero_batch_literal(), PlacementStrategy::KdChoice { d: 5 });
    }

    #[test]
    #[should_panic(expected = "scheduler_batch must be positive")]
    fn zero_scheduler_batch_field_rejected_by_late_binding() {
        let strategy = PlacementStrategy::LateBinding { probes_per_task: 2 };
        let _ = simulate(&zero_batch_literal(), strategy);
    }

    #[test]
    #[should_panic(expected = "scheduler_batch must be positive")]
    fn zero_scheduler_batch_field_rejected_by_simulate_vector() {
        let strategy = PlacementStrategy::KdChoice { d: 5 };
        let _ = simulate_vector(&zero_batch_literal(), strategy, &VectorJobProfile::scalar());
    }

    #[test]
    #[should_panic(expected = "scheduler_batch must be positive")]
    fn zero_scheduler_batch_field_rejected_by_vector_late_binding() {
        let strategy = PlacementStrategy::LateBinding { probes_per_task: 2 };
        let _ = simulate_vector(&zero_batch_literal(), strategy, &VectorJobProfile::scalar());
    }

    #[test]
    fn validate_checks_each_strategy_at_its_limits() {
        let cfg = base_config(16); // k = 4
        for (strategy, want) in [
            (PlacementStrategy::Random, Ok(())),
            (PlacementStrategy::PerTaskDChoice { d: 1 }, Ok(())),
            (
                PlacementStrategy::PerTaskDChoice { d: 0 },
                Err(ConfigError::ZeroParameter("d")),
            ),
            (
                PlacementStrategy::BatchSampling { probes_per_task: 1 },
                Ok(()),
            ),
            (
                PlacementStrategy::BatchSampling { probes_per_task: 0 },
                Err(ConfigError::ZeroParameter("probes_per_task")),
            ),
            (PlacementStrategy::KdChoice { d: 4 }, Ok(())),
            (
                PlacementStrategy::KdChoice { d: 3 },
                Err(ConfigError::KExceedsD { k: 4, d: 3 }),
            ),
            (
                PlacementStrategy::LateBinding { probes_per_task: 1 },
                Ok(()),
            ),
            (
                PlacementStrategy::LateBinding { probes_per_task: 0 },
                Err(ConfigError::ZeroParameter("probes_per_task")),
            ),
        ] {
            assert_eq!(cfg.validate(strategy), want, "{strategy}");
        }
    }

    #[test]
    fn validate_rejects_degenerate_cluster_fields() {
        let kd = PlacementStrategy::KdChoice { d: 5 };
        let with = |change: fn(&mut ClusterConfig)| {
            let mut cfg = base_config(16);
            change(&mut cfg);
            cfg.validate(kd)
        };
        assert_eq!(
            with(|c| c.workers = 0),
            Err(ConfigError::ZeroParameter("workers"))
        );
        assert_eq!(
            with(|c| c.tasks_per_job = 0),
            Err(ConfigError::ZeroParameter("tasks_per_job"))
        );
        assert_eq!(
            with(|c| c.jobs = 0),
            Err(ConfigError::ZeroParameter("jobs"))
        );
        assert_eq!(
            with(|c| c.scheduler_batch = 0),
            Err(ConfigError::ZeroParameter("scheduler_batch"))
        );
        assert_eq!(
            with(|c| c.warmup_fraction = 1.5),
            Err(ConfigError::BadProbability("warmup_fraction"))
        );
        for arrival_rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = ClusterConfig {
                arrival_rate,
                ..base_config(16)
            };
            let got = cfg.validate(kd);
            assert!(
                matches!(
                    got,
                    Err(ConfigError::OutOfRange {
                        name: "arrival_rate",
                        ..
                    })
                ),
                "rate {arrival_rate}: {got:?}"
            );
        }
        let unstable = with(|c| c.arrival_rate *= 2.0);
        assert!(
            matches!(
                unstable,
                Err(ConfigError::OutOfRange {
                    name: "utilization",
                    ..
                })
            ),
            "{unstable:?}"
        );
    }

    #[test]
    fn validate_rejects_service_distributions_that_cannot_be_drawn() {
        let kd = PlacementStrategy::KdChoice { d: 5 };
        for service in [
            ServiceDistribution::Exponential { mean: 0.0 },
            ServiceDistribution::Exponential { mean: -1.0 },
            ServiceDistribution::Exponential { mean: f64::NAN },
            ServiceDistribution::Deterministic { value: -0.5 },
            ServiceDistribution::Deterministic {
                value: f64::INFINITY,
            },
            ServiceDistribution::Pareto {
                alpha: 0.0,
                lo: 1.0,
                hi: 2.0,
            },
            ServiceDistribution::Pareto {
                alpha: 1.5,
                lo: 2.0,
                hi: 1.0,
            },
        ] {
            let cfg = ClusterConfig {
                service,
                ..base_config(16)
            };
            let got = cfg.validate(kd);
            assert!(
                matches!(got, Err(ConfigError::OutOfRange { .. })),
                "{service:?}: {got:?}"
            );
        }
    }

    #[test]
    fn sharded_store_substrate_reproduces_load_vector_run() {
        // The substrate seam holds: driving the identical simulation on a
        // ShardedStore instead of a LoadVector changes nothing — the
        // store is consulted only through the BinStore surface and the
        // RNG stream never touches it.
        use kdchoice_service::ShardedStore;
        let cfg = base_config(14);
        for strategy in [
            PlacementStrategy::KdChoice { d: 5 },
            PlacementStrategy::LateBinding { probes_per_task: 2 },
        ] {
            let a = simulate(&cfg, strategy);
            let b = simulate_on(&cfg, strategy, ShardedStore::new(cfg.workers, 4));
            assert_eq!(a.response.mean(), b.response.mean());
            assert_eq!(a.response_percentiles, b.response_percentiles);
            assert_eq!(a.probe_messages, b.probe_messages);
            assert_eq!(a.max_queue_len, b.max_queue_len);
            assert_eq!(a.mean_outstanding, b.mean_outstanding);
        }
    }

    /// A [`LoadVector`] that counts the snapshot copies taken of it.
    struct CountingCopies {
        inner: LoadVector,
        copies: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl BinStore for CountingCopies {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn load(&self, bin: usize) -> u32 {
            self.inner.load(bin)
        }
        fn add_ball(&mut self, bin: usize) -> u32 {
            self.inner.add_ball(bin)
        }
        fn remove_ball(&mut self, bin: usize) -> u32 {
            self.inner.remove_ball(bin)
        }
        fn max_load(&self) -> u32 {
            self.inner.max_load()
        }
        fn total_balls(&self) -> u64 {
            self.inner.total_balls()
        }
        fn nu(&self, y: u32) -> u64 {
            self.inner.nu(y)
        }
        fn copy_loads_into(&self, out: &mut Vec<u32>) {
            self.copies.set(self.copies.get() + 1);
            BinStore::copy_loads_into(&self.inner, out);
        }
        fn histogram(&self) -> Vec<u64> {
            BinStore::histogram(&self.inner)
        }
    }

    #[test]
    fn fresh_probes_copy_nothing_and_stale_probes_copy_once_per_batch() {
        for (batch, copies) in [(1, 0), (8, 50), (7, 58)] {
            let cfg = base_config(15).with_scheduler_batch(batch);
            let copied = std::rc::Rc::default();
            let store = CountingCopies {
                inner: LoadVector::new(cfg.workers),
                copies: std::rc::Rc::clone(&copied),
            };
            let strategy = PlacementStrategy::KdChoice { d: 5 };
            let reference = simulate(&cfg, strategy);
            let counted = simulate_on(&cfg, strategy, store);
            assert_eq!(copied.get(), copies, "batch {batch}");
            assert_eq!(
                format!("{reference:?}"),
                format!("{counted:?}"),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn vector_simulation_at_dims_1_is_bit_identical_to_scalar() {
        // The lock at the simulator level: the degenerate
        // profile reproduces `simulate` bit for bit, for every strategy
        // — including event-driven late binding — same RNG draws, same
        // winners, same report.
        // Both probe paths run: live loads at batch 1, a snapshot
        // refreshed every 8 jobs at batch 8.
        let profile = VectorJobProfile::scalar();
        assert!(!profile.is_vector());
        for batch in [1, 8] {
            let cfg = base_config(20).with_scheduler_batch(batch);
            for strategy in [
                PlacementStrategy::Random,
                PlacementStrategy::PerTaskDChoice { d: 2 },
                PlacementStrategy::BatchSampling { probes_per_task: 2 },
                PlacementStrategy::KdChoice { d: 5 },
                PlacementStrategy::LateBinding { probes_per_task: 2 },
            ] {
                let scalar = simulate(&cfg, strategy);
                let vector = simulate_vector(&cfg, strategy, &profile);
                let at = format!("{strategy} batch {batch}");
                assert_eq!(scalar.jobs_measured, vector.jobs_measured, "{at}");
                assert_eq!(scalar.response.mean(), vector.response.mean(), "{at}");
                assert_eq!(
                    scalar.response_percentiles, vector.response_percentiles,
                    "{at}"
                );
                assert_eq!(scalar.probe_messages, vector.probe_messages, "{at}");
                assert_eq!(scalar.max_queue_len, vector.max_queue_len, "{at}");
                assert_eq!(scalar.mean_outstanding, vector.mean_outstanding, "{at}");
                assert_eq!(scalar.dim_gaps, vector.dim_gaps, "{at}");
                assert_eq!(vector.dim_gaps.len(), 1, "{at}");
            }
        }
    }

    #[test]
    fn vector_jobs_complete_and_report_per_dim_gaps() {
        let cfg = base_config(21);
        let profile = VectorJobProfile {
            dims: 3,
            objective: PlacementObjective::MaxNorm,
            demand: DemandDistribution::parse("anti", 4).unwrap(),
            worker_capacities: None,
        };
        assert!(profile.is_vector());
        let r = simulate_vector(&cfg, PlacementStrategy::KdChoice { d: 5 }, &profile);
        assert_eq!(r.jobs_measured, 400 - 40);
        assert_eq!(r.probe_messages, 400 * 5);
        assert_eq!(r.dim_gaps.len(), 3);
        assert!(
            r.dim_gaps.iter().all(|&g| g > 0.0),
            "every dimension saw imbalance: {:?}",
            r.dim_gaps
        );
        // Deterministic in (config, strategy, profile).
        let again = simulate_vector(&cfg, PlacementStrategy::KdChoice { d: 5 }, &profile);
        assert_eq!(r.response.mean(), again.response.mean());
        assert_eq!(r.dim_gaps, again.dim_gaps);
    }

    #[test]
    fn vector_capacities_drive_the_capacity_objective() {
        let cfg = base_config(22);
        let profile = VectorJobProfile {
            dims: 2,
            objective: PlacementObjective::NormalizedByCapacity,
            demand: DemandDistribution::parse("uniform", 3).unwrap(),
            worker_capacities: Some(kdchoice_core::two_tier_capacities(cfg.workers, 4, 4)),
        };
        let r = simulate_vector(&cfg, PlacementStrategy::KdChoice { d: 5 }, &profile);
        assert_eq!(r.jobs_measured, 400 - 40);
        assert_eq!(r.dim_gaps.len(), 2);
    }

    #[test]
    fn vector_late_binding_completes_jobs_and_conserves_demand() {
        // The event-driven vector path: reservations carry demand, claims
        // convert it, cancellations subtract it. Every job completes, the
        // per-dimension gaps are populated, and the run is deterministic.
        // (The end-of-run debug asserts inside `simulate_vector` check
        // that no cancelled reservation leaked demand.)
        let cfg = base_config(23);
        let profile = VectorJobProfile {
            dims: 3,
            objective: PlacementObjective::MaxNorm,
            demand: DemandDistribution::parse("anti", 4).unwrap(),
            worker_capacities: None,
        };
        let strategy = PlacementStrategy::LateBinding { probes_per_task: 2 };
        let r = simulate_vector(&cfg, strategy, &profile);
        assert_eq!(r.jobs_measured, 400 - 40);
        assert_eq!(r.probe_messages, 400 * 2 * 4);
        assert_eq!(r.dim_gaps.len(), 3);
        assert!(r.dim_gaps.iter().all(|&g| g > 0.0));
        let again = simulate_vector(&cfg, strategy, &profile);
        assert_eq!(r.response.mean(), again.response.mean());
        assert_eq!(r.dim_gaps, again.dim_gaps);
    }

    #[test]
    #[should_panic(expected = "objective does not validate")]
    fn vector_mode_rejects_mismatched_weighted_norm() {
        let cfg = base_config(24);
        let profile = VectorJobProfile {
            dims: 3,
            objective: PlacementObjective::WeightedNorm(vec![1.0, 0.5]),
            demand: DemandDistribution::Unit,
            worker_capacities: None,
        };
        let _ = simulate_vector(&cfg, PlacementStrategy::KdChoice { d: 5 }, &profile);
    }

    #[test]
    fn late_binding_survives_probe_collisions() {
        // Tiny cluster, large jobs: many probes collide; the safety net
        // must still launch exactly k tasks per job.
        let cfg = ClusterConfig::new(3, 4, 100, 11).with_utilization(0.5);
        let r = simulate(&cfg, PlacementStrategy::LateBinding { probes_per_task: 1 });
        assert_eq!(r.jobs_measured, 90);
    }
}
