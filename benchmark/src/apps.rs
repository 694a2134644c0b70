//! `apps`: the paper's two applications in one process, one after the
//! other.
//!
//! Storage: a `ChunkCluster` of 1000 servers, 3 replicas placed by
//! (3,6)-choice on distinct servers, heartbeats every 2 ticks with one
//! tolerated miss, a recovery budget of 4 repairs per tick, and a crash
//! storm of 12 servers during the create phase, followed by Zipf(0.9)
//! reads. Scheduler: `simulate` with 1000 workers, 4 tasks per job,
//! (4,8)-choice and utilisation 0.9. It is the only workload that runs
//! `storage`'s placement, `scheduler::select_k_least_loaded` and `sim`.

use std::hint::black_box;
use std::time::Instant;

use kdchoice_prng::dist::{Exponential, Zipf};
use kdchoice_prng::sample::fill_with_replacement;
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use kdchoice_scheduler::{
    select_k_least_loaded, simulate, ClusterConfig as JobsConfig, PlacementStrategy,
    SchedulerReport,
};
use kdchoice_sim::EventQueue;
use kdchoice_storage::{
    run_cluster_workload, ChunkCluster, ClusterConfig, ClusterReport, ClusterWorkloadConfig,
    FaultPlan, HeartbeatConfig, PlacementPolicy, RecoveryConfig,
};

use crate::report::{median, steady_rate, steady_time, Outcome};
use crate::spans::Row;
use crate::{Clock, Passes, Reference, Scale};

const SERVERS: usize = 1000;
const REPLICAS: usize = 3;
const STORAGE_D: usize = 6;
const CRASHES: usize = 12;
const ZIPF_EXPONENT: f64 = 0.9;
const WORKERS: usize = 1000;
const TASKS_PER_JOB: usize = 4;
const SCHEDULER_D: usize = 8;
const RHO: f64 = 0.9;
/// Extra ticks the cluster may take to quiesce after the create phase.
const DRAIN_CAP: u64 = 100_000;
/// Set-ups timed per pass; the median is reported.
const SETUP_REPS: usize = 5;
/// Back-to-back calls per micro-batch.
const MICRO_BATCH: usize = 1 << 14;

/// `(files, reads, jobs)` of one pass.
fn shape(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (20_000, 40_000, 60_000),
        Scale::Smoke => (300, 600, 500),
    }
}

fn servers(scale: Scale) -> usize {
    match scale {
        Scale::Full => SERVERS,
        Scale::Smoke => 200,
    }
}

fn cluster_config(scale: Scale) -> ClusterConfig {
    let mut cluster = ClusterConfig::new(
        servers(scale),
        REPLICAS,
        PlacementPolicy::KdChoice { d: STORAGE_D },
    );
    cluster.heartbeat = HeartbeatConfig::new(2, 1);
    cluster.recovery = RecoveryConfig::budgeted(4);
    cluster
}

fn storage_config(seed: u64, scale: Scale) -> ClusterWorkloadConfig {
    let (files, reads, _) = shape(scale);
    let mut config = ClusterWorkloadConfig::new(cluster_config(scale)).with_seed(seed);
    config.files = files;
    config.reads = reads;
    config.zipf_exponent = ZIPF_EXPONENT;
    config.plan = FaultPlan::new().storm(CRASHES, files as u64);
    config.drain_cap = DRAIN_CAP;
    config
}

fn jobs_config(seed: u64, scale: Scale) -> JobsConfig {
    let (_, _, jobs) = shape(scale);
    let workers = match scale {
        Scale::Full => WORKERS,
        Scale::Smoke => 50,
    };
    JobsConfig::new(workers, TASKS_PER_JOB, jobs, seed).with_utilization(RHO)
}

const STRATEGY: PlacementStrategy = PlacementStrategy::KdChoice { d: SCHEDULER_D };

/// Replica placements of a storage run: creates that landed plus
/// successful repairs.
fn replicas_placed(r: &ClusterReport, files: usize) -> u64 {
    (files * REPLICAS) as u64 - r.degradation.failed_writes + r.stats.recovered_chunks
}

/// Checks the storage half: the cluster healed, and failed creates,
/// failed reads and durability losses count as refused operations.
fn check_storage(out: &mut Outcome, r: &ClusterReport, files: usize, reads: usize) {
    let d = &r.degradation;
    out.ops(
        (files + reads) as u64,
        r.failed_creates + d.failed_reads + d.durability_losses,
    );
    out.check(d.healed, "storage: every chunk back at full replication");
    out.check(
        d.crashes == CRASHES as u64 && d.detections == d.crashes,
        "storage: every crash of the storm detected",
    );
    out.check(
        r.stats.total_chunks == (files * REPLICAS) as u64,
        "storage: alive servers hold every replica",
    );
}

/// Checks the scheduler half: every post-warm-up job measured and a
/// positive, finite tail.
fn check_jobs(out: &mut Outcome, r: &SchedulerReport, cfg: &JobsConfig) {
    out.ops(cfg.jobs as u64, 0);
    let warmup = (cfg.jobs as f64 * cfg.warmup_fraction).floor() as usize;
    out.check(
        r.jobs_measured == cfg.jobs - warmup,
        "scheduler: every post-warm-up job completed",
    );
    let p99 = r.response_percentiles[2];
    out.check(
        p99.is_finite() && p99 > 0.0 && p99 >= r.response_percentiles[0],
        "scheduler: response tail finite and ordered",
    );
}

/// Times building the cluster, its fault plan and the job model, several
/// times; returns the median seconds.
fn timed_setup(scale: Scale, seed: u64) -> f64 {
    let (files, _, _) = shape(scale);
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let plan = FaultPlan::new().storm(CRASHES, files as u64);
        let cluster = ChunkCluster::new(cluster_config(scale), &plan);
        let jobs = jobs_config(seed, scale);
        times.push(start.elapsed().as_secs_f64());
        black_box((cluster, jobs));
    }
    median(&times)
}

/// One untraced pass: the storage half, then the scheduler half, each
/// with its wall seconds and the clock's factor to the reference host
/// speed.
struct Pass {
    storage: ClusterReport,
    storage_secs: f64,
    storage_speed: f64,
    jobs: SchedulerReport,
    jobs_secs: f64,
    jobs_speed: f64,
}

fn pass(seed: u64, scale: Scale, clock: &mut Clock, out: &mut Outcome) -> Pass {
    let (files, reads, _) = shape(scale);
    let storage_cfg = storage_config(derive_seed(seed, 0), scale);
    let (storage, storage_secs, storage_speed) = clock.time(|| run_cluster_workload(&storage_cfg));
    check_storage(out, &storage, files, reads);
    let jobs_cfg = jobs_config(derive_seed(seed, 1), scale);
    let (jobs, jobs_secs, jobs_speed) = clock.time(|| simulate(&jobs_cfg, STRATEGY));
    check_jobs(out, &jobs, &jobs_cfg);
    Pass {
        storage,
        storage_secs,
        storage_speed,
        jobs,
        jobs_secs,
        jobs_speed,
    }
}

/// The untraced run: storage-then-scheduler passes for about `seconds`.
pub fn run(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let (files, _, jobs) = shape(scale);
    let tasks = (jobs * TASKS_PER_JOB) as f64;
    let mut out = Outcome::default();
    let (mut setups, mut aggregate, mut storage_rate, mut jobs_rate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut msgs, mut gaps, mut unscaled) = (Vec::new(), Vec::new(), Vec::new());
    let mut clock = Clock::start(Reference::CACHE);
    let mut passes = Passes::new(seconds);
    while let Some(n) = passes.next_pass() {
        let pass_seed = derive_seed(seed, n);
        setups.push(timed_setup(scale, pass_seed));
        let p = pass(pass_seed, scale, &mut clock, &mut out);
        let replicas = replicas_placed(&p.storage, files) as f64;
        let storage_secs = p.storage_secs * p.storage_speed;
        let jobs_secs = p.jobs_secs * p.jobs_speed;
        storage_rate.push(replicas / storage_secs);
        jobs_rate.push(tasks / jobs_secs);
        aggregate.push((replicas + tasks) / (storage_secs + jobs_secs));
        unscaled.push((replicas + tasks) / (p.storage_secs + p.jobs_secs));
        let probes = (p.storage.stats.placement_messages
            + p.storage.stats.recovery_messages
            + p.jobs.probe_messages) as f64;
        msgs.push(probes / (replicas + tasks));
        gaps.push(p.storage.stats.max_load as f64 - p.storage.stats.mean_load);
    }
    clock.log();
    eprintln!("unscaled balls_per_s {}", median(&unscaled));
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", passes.first_pass_rss(), "MiB");
    out.metric("balls_per_s", median(&aggregate), "balls/s");
    out.metric(
        "balls_per_s.slowest",
        median(&storage_rate).min(median(&jobs_rate)),
        "balls/s",
    );
    out.metric("msgs_per_ball", median(&msgs), "probes/ball");
    out.metric("gap", median(&gaps), "balls");
    out
}

/// The storage half driven from outside: one `create_chunk` and one
/// `tick` per file, ticks until quiescent, then Zipf reads, with a span
/// around each create and tick when `rows` are on. Returns the cluster.
fn drive_storage(
    seed: u64,
    scale: Scale,
    create: &mut Row,
    tick: &mut Row,
    out: &mut Outcome,
) -> ChunkCluster {
    let (files, reads, _) = shape(scale);
    let config = storage_config(seed, scale);
    let mut rng = Xoshiro256PlusPlus::from_u64(config.seed);
    let mut cluster = ChunkCluster::new(config.cluster, &config.plan).with_sample_every(0);
    let mut refused = 0u64;
    for _ in 0..files {
        if create.time(1, || cluster.create_chunk(&mut rng)).is_err() {
            refused += 1;
        }
        tick.time(1, || cluster.tick(&mut rng));
    }
    let mut extra = 0;
    while !cluster.quiescent() && extra < config.drain_cap {
        tick.time(1, || cluster.tick(&mut rng));
        extra += 1;
    }
    let zipf = Zipf::new(files, config.zipf_exponent).expect("a valid Zipf law");
    for _ in 0..reads {
        cluster.read_chunk(zipf.sample(&mut rng) as u32);
    }
    let d = cluster.degradation();
    out.ops(
        (files + reads) as u64,
        refused + d.failed_reads + d.durability_losses,
    );
    out.check(
        d.healed && cluster.check_invariants(),
        "storage drive: healed with invariants intact",
    );
    cluster
}

/// A (4,8)-choice fill of the workers to the simulation's mean queue
/// length, then `select_k_least_loaded` timed per call and back to back.
fn select_ladder(row: &mut Row, seed: u64, scale: Scale) {
    let workers = jobs_config(seed, scale).workers;
    let mut rng = Xoshiro256PlusPlus::from_u64(seed);
    let mut loads = vec![0u32; workers];
    let mut samples = Vec::with_capacity(SCHEDULER_D);
    let jobs = ((workers as f64 * RHO) as usize / TASKS_PER_JOB).max(1);
    for _ in 0..jobs {
        fill_with_replacement(&mut rng, workers, SCHEDULER_D, &mut samples);
        let chosen = row.time(1, || {
            select_k_least_loaded(&samples, &loads, TASKS_PER_JOB, &mut rng)
        });
        for w in chosen {
            loads[w] += 1;
        }
    }
    let mut sets = Vec::with_capacity(MICRO_BATCH * SCHEDULER_D);
    for _ in 0..MICRO_BATCH {
        fill_with_replacement(&mut rng, workers, SCHEDULER_D, &mut samples);
        sets.extend_from_slice(&samples);
    }
    for set in sets.chunks(SCHEDULER_D) {
        row.time(1, || {
            select_k_least_loaded(set, &loads, TASKS_PER_JOB, &mut rng)
        });
    }
    row.batch(MICRO_BATCH as u64, || {
        for set in sets.chunks(SCHEDULER_D) {
            black_box(select_k_least_loaded(set, &loads, TASKS_PER_JOB, &mut rng));
        }
    });
}

/// The simulation's event loop shape: a queue holding one pending
/// completion per worker, each step one `pop` and one `push`.
fn event_ladder(row: &mut Row, seed: u64) {
    let mut rng = Xoshiro256PlusPlus::from_u64(seed);
    let service = Exponential::new(1.0).expect("a positive rate");
    let mut queue = EventQueue::new();
    for w in 0..WORKERS as u32 {
        queue.push(service.sample(&mut rng), w);
    }
    let step = |queue: &mut EventQueue<u32>, rng: &mut Xoshiro256PlusPlus| {
        let (t, w) = queue.pop().expect("a pending event per worker");
        queue.push(t + service.sample(rng), w);
    };
    for _ in 0..MICRO_BATCH {
        row.time(1, || step(&mut queue, &mut rng));
    }
    row.batch(MICRO_BATCH as u64, || {
        for _ in 0..MICRO_BATCH {
            step(&mut queue, &mut rng);
        }
    });
    black_box(queue.len());
}

/// The traced run: untraced passes for the variant rates, the storage
/// half driven call by call with spans on and off, and the scheduler's
/// selection and event-queue ladders, for about `seconds`.
pub fn run_traced(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let (files, reads, jobs) = shape(scale);
    let mut out = Outcome::default();
    let (mut create, mut tick) = (Row::new(true), Row::new(true));
    let (mut select, mut event) = (Row::new(true), Row::new(true));
    let (mut storage_ops, mut jobs_rate, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut on_secs, mut off_secs) = (Vec::new(), Vec::new());
    let (mut repair_attempts, mut crashes) = (0u64, 0u64);
    let mut clock = Clock::start(Reference::CACHE);
    let mut passes = Passes::new(seconds);
    while let Some(n) = passes.next_pass() {
        let pass_seed = derive_seed(seed, n);
        let p = pass(pass_seed, scale, &mut clock, &mut out);
        let ops = (files * REPLICAS) as u64 + p.storage.degradation.repair_attempts + reads as u64;
        storage_ops.push(ops as f64 / p.storage_secs);
        jobs_rate.push(jobs as f64 / p.jobs_secs);
        p99s.push(p.jobs.response_percentiles[2]);

        let storage_seed = derive_seed(pass_seed, 0);
        let t = Instant::now();
        let cluster = drive_storage(storage_seed, scale, &mut create, &mut tick, &mut out);
        on_secs.push(t.elapsed().as_secs_f64());
        let d = cluster.degradation();
        repair_attempts += d.repair_attempts;
        crashes += d.crashes;
        let (mut off_create, mut off_tick) = (Row::new(false), Row::new(false));
        let t = Instant::now();
        drive_storage(
            storage_seed,
            scale,
            &mut off_create,
            &mut off_tick,
            &mut out,
        );
        off_secs.push(t.elapsed().as_secs_f64());

        // Back-to-back creates, then back-to-back ticks, on a fault-free
        // cluster of the same shape.
        let mut rng = Xoshiro256PlusPlus::from_u64(pass_seed);
        let mut fresh = ChunkCluster::new(cluster_config(scale), &FaultPlan::new());
        create.batch(files as u64, || {
            for _ in 0..files {
                black_box(fresh.create_chunk(&mut rng).is_ok());
            }
        });
        tick.batch(files as u64, || {
            for _ in 0..files {
                fresh.tick(&mut rng);
            }
        });

        select_ladder(&mut select, pass_seed, scale);
        event_ladder(&mut event, pass_seed);
    }
    out.metric("ops_per_s.storage", steady_rate(&storage_ops), "ops/s");
    out.metric("jobs_per_s.scheduler", steady_rate(&jobs_rate), "jobs/s");
    out.metric("job_response_p99", median(&p99s), "sim_time");
    create.emit(&mut out, "storage.create_ns", "ns", 1.0);
    tick.emit(&mut out, "storage.tick_ns", "ns", 1.0);
    out.metric(
        "storage.repairs_per_crash",
        repair_attempts as f64 / crashes.max(1) as f64,
        "repairs/crash",
    );
    select.emit(&mut out, "scheduler.select_ns", "ns", 1.0);
    event.emit(&mut out, "sim.event_ns", "ns", 1.0);
    out.metric(
        "trace.overhead_frac",
        steady_time(&on_secs) / steady_time(&off_secs) - 1.0,
        "ratio",
    );
    out
}
