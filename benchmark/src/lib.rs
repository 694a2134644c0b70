//! The repository benchmark for the (k,d)-choice placement library.
//!
//! One serial, single-process tool. It runs a workload from a seed for a
//! fixed time, checks the workload's outputs, and prints every metric by
//! name with its unit. It calls only the public functions of the library
//! crates, so each layer is measured from outside, by timing the calls
//! into it.
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics. Traced
//! runs (`--trace 1`) wrap the layer calls in spans and report the
//! per-layer ladder, its residuals, and the tracing overhead. See
//! `README.md` beside this crate for why each workload exists and which
//! end-to-end metric each layer metric should move.

pub mod apps;
pub mod churn;
pub mod host;
pub mod report;
pub mod spans;
pub mod static_large;

use std::time::Instant;

use report::Outcome;

/// Balls per request / round: the paper's `k`.
pub const K: usize = 2;
/// Probes per request / round: the paper's `d`.
pub const D: usize = 4;

/// Input size: the real workload, or a tiny one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Tiny n, few ticks, few files and jobs.
    Smoke,
}

/// Paces the passes of a run. The first pass always runs; another starts
/// only if a pass of the mean length so far still ends within the run's
/// seconds, so a run never overshoots its time by a whole pass.
pub struct Passes {
    start: Instant,
    seconds: f64,
    done: u64,
    first_pass_rss: f64,
}

impl Passes {
    /// Pacing for a run of `seconds`, starting now.
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            done: 0,
            first_pass_rss: 0.0,
        }
    }

    /// The index of the next pass to run, or `None` when the run is over.
    pub fn next_pass(&mut self) -> Option<u64> {
        let elapsed = self.start.elapsed().as_secs_f64();
        if self.done == 1 {
            self.first_pass_rss = host::peak_rss_mib();
        }
        if self.done > 0 && elapsed * (self.done + 1) as f64 / self.done as f64 > self.seconds {
            return None;
        }
        self.done += 1;
        Some(self.done - 1)
    }

    /// Passes started so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Peak resident set size in MiB when the first pass ended. Later
    /// passes reuse freed memory to a degree that depends on how many
    /// fit in the run, so only the first pass is a fixed amount of work.
    pub fn first_pass_rss(&self) -> f64 {
        self.first_pass_rss
    }
}

/// The reference work a [`Clock`] runs after each section: a two-choice
/// fill of a table of `bins` counters from a splitmix64 stream, `draws`
/// draws long. It calls no library code, so only the host's speed moves
/// it.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    bins: usize,
    draws: u32,
    /// Seconds one call takes on an unslowed core of the host the
    /// benchmark was tuned on: 2 vCPUs of an Intel Xeon VM with 2 MiB of
    /// L2 and 105 MiB of shared L3. Sections are scaled to this speed.
    nominal_secs: f64,
}

impl Reference {
    /// 256 KiB, the churn workloads' table: works from L2, as the service
    /// stack and the applications do.
    pub const CACHE: Self = Self {
        bins: 1 << 16,
        draws: 1 << 22,
        nominal_secs: 0.03,
    };

    /// 32 MiB: works from L3 and memory, as the static fill does.
    pub const MEMORY: Self = Self {
        bins: 1 << 23,
        draws: 1 << 21,
        nominal_secs: 0.07,
    };

    /// Runs the reference once on `table` and returns its seconds.
    fn secs(&self, table: &mut [u32]) -> f64 {
        table.fill(0);
        let mask = table.len() - 1;
        let mut x = 0u64;
        let start = Instant::now();
        for _ in 0..self.draws {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let (a, b) = (z as usize & mask, (z >> 32) as usize & mask);
            let bin = if table[a] <= table[b] { a } else { b };
            table[bin] += 1;
        }
        std::hint::black_box(&*table);
        start.elapsed().as_secs_f64()
    }
}

/// Times the sections of an untraced run against the host's speed.
///
/// On a shared host another tenant slows a core by up to half, in phases
/// of seconds to minutes, so whole runs land in a slow or a fast phase
/// and no statistic over one run's passes removes that. The reference
/// work, run after every section, slows with the host and never with the
/// program under test.
pub struct Clock {
    reference: Reference,
    table: Vec<u32>,
    refs: Vec<f64>,
}

impl Clock {
    /// A clock whose reference has run once to warm up and once timed.
    pub fn start(reference: Reference) -> Self {
        let mut table = vec![0; reference.bins];
        reference.secs(&mut table);
        let refs = vec![reference.secs(&mut table)];
        Self {
            reference,
            table,
            refs,
        }
    }

    /// Runs `f`. Returns its result, its wall seconds, and the factor that
    /// scales a duration measured within it to the reference host speed:
    /// the reference's nominal seconds over the mean of its times just
    /// before and just after `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        let before = *self.refs.last().expect("start timed the reference");
        let after = self.reference.secs(&mut self.table);
        self.refs.push(after);
        let speed = 2.0 * self.reference.nominal_secs / (before + after);
        (out, secs, speed)
    }

    /// Prints the run's reference times on stderr: how slow the host ran,
    /// against the reference's nominal seconds.
    pub fn log(&self) {
        eprintln!(
            "reference_secs median {} fastest {} calls {}",
            report::median(&self.refs),
            self.refs.iter().copied().fold(f64::INFINITY, f64::min),
            self.refs.len()
        );
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["static_large", "churn_1t", "churn_2t", "apps"];

/// End-to-end metrics, emitted by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("balls_per_s", "balls/s"),
    ("balls_per_s.slowest", "balls/s"),
    ("msgs_per_ball", "probes/ball"),
    ("gap", "balls"),
];

/// Per-layer span rows; each expands to the per-call median plus its
/// `.p99`, `.samples` and `.batch_mean`.
pub const LAYER_ROWS: [(&str, &str); 23] = [
    ("prng.fill_ns_per_draw.n24", "ns"),
    ("prng.fill_ns_per_draw.n16", "ns"),
    ("prng.request_rng_ns", "ns"),
    ("core.kd.ns_per_ball", "ns"),
    ("core.decide_ns.exact_n24", "ns"),
    ("core.decide_ns.packed4_n24", "ns"),
    ("core.decide_ns.exact_n16", "ns"),
    ("core.commit_ns.exact_n24", "ns"),
    ("core.commit_ns.packed4_n24", "ns"),
    ("core.release_ns.exact_n16", "ns"),
    ("service.traffic.generate_ns_per_request", "ns"),
    ("service.sharded.place_batch_ns_per_ball", "ns"),
    ("service.sharded.release_ns_per_ball", "ns"),
    ("service.sharded.snapshot_us", "us"),
    ("service.lockfree.place_ns_per_ball", "ns"),
    ("service.lockfree.release_ns_per_ball", "ns"),
    ("service.lockfree.snapshot_us", "us"),
    ("service.engine.decide_ns", "ns"),
    ("service.engine.drain_ns_per_msg", "ns"),
    ("storage.create_ns", "ns"),
    ("storage.tick_ns", "ns"),
    ("scheduler.select_ns", "ns"),
    ("sim.event_ns", "ns"),
];

/// Per-layer single values: each variant's own rate and quality from the
/// untraced passes of the traced run, then ratios, counts and residuals.
pub const LAYER_VALUES: [(&str, &str); 25] = [
    ("balls_per_s.exact", "balls/s"),
    ("balls_per_s.packed4", "balls/s"),
    ("max_load", "balls"),
    ("balls_per_s.striped", "balls/s"),
    ("balls_per_s.shared_nothing", "balls/s"),
    ("balls_per_s.lockfree", "balls/s"),
    ("steady_gap", "balls"),
    ("ops_per_s.storage", "ops/s"),
    ("jobs_per_s.scheduler", "jobs/s"),
    ("job_response_p99", "sim_time"),
    ("core.kd.unattributed_ns_per_ball", "ns"),
    ("service.lockfree.lost_race_ratio", "ratio"),
    ("service.lockfree.fallback_ratio", "ratio"),
    ("service.engine.msgs_per_ball", "msgs/ball"),
    ("service.pipeline.tick_us.striped", "us"),
    ("service.pipeline.tick_us.shared_nothing", "us"),
    ("service.pipeline.tick_us.lockfree", "us"),
    ("service.pipeline.unattributed_ns_per_ball.striped", "ns"),
    (
        "service.pipeline.unattributed_ns_per_ball.shared_nothing",
        "ns",
    ),
    ("service.pipeline.unattributed_ns_per_ball.lockfree", "ns"),
    ("service.pipeline.second_thread_ns_per_ball.striped", "ns"),
    (
        "service.pipeline.second_thread_ns_per_ball.shared_nothing",
        "ns",
    ),
    ("service.pipeline.second_thread_ns_per_ball.lockfree", "ns"),
    ("storage.repairs_per_crash", "repairs/crash"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric `(name, unit)`, in output order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (row, unit) in LAYER_ROWS {
        names.push((row.to_owned(), unit));
        names.push((format!("{row}.p99"), unit));
        names.push((format!("{row}.samples"), "count"));
        names.push((format!("{row}.batch_mean"), unit));
    }
    names.extend(LAYER_VALUES.iter().map(|&(n, u)| (n.to_owned(), u)));
    names
}

/// Runs `workload` from `seed` for about `seconds`, traced or not, and
/// returns the outcome with exactly the metric set of its mode: every
/// end-to-end metric untraced, every per-layer metric traced. A layer a
/// workload does not exercise reads 0 in its traced run.
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Outcome, String> {
    let mut out = match (workload, trace) {
        ("static_large", false) => static_large::run(seed, seconds, scale),
        ("static_large", true) => static_large::run_traced(seed, seconds, scale),
        ("churn_1t", false) => churn::run(seed, seconds, 1, scale),
        ("churn_2t", false) => churn::run(seed, seconds, 2, scale),
        ("churn_1t", true) => churn::run_traced(seed, seconds, 1, scale),
        ("churn_2t", true) => churn::run_traced(seed, seconds, 2, scale),
        ("apps", false) => apps::run(seed, seconds, scale),
        ("apps", true) => apps::run_traced(seed, seconds, scale),
        _ => {
            return Err(format!(
                "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    let expected: Vec<(String, &'static str)> = if trace {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let measured = std::mem::take(&mut out.metrics);
    for m in &measured {
        assert!(
            expected.iter().any(|(name, _)| *name == m.name),
            "workload emitted unlisted metric {}",
            m.name
        );
    }
    for (name, unit) in expected {
        let value = measured.iter().find(|m| m.name == name).map(|m| m.value);
        assert!(
            trace || value.is_some(),
            "untraced run did not measure {name}"
        );
        out.metric(name, value.unwrap_or(0.0), unit);
    }
    Ok(out)
}
