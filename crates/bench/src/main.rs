//! The `kdchoice-bench` CLI: every experiment family in the workspace,
//! runnable by name over a parameter grid, plus the balance-envelope
//! harness.
//!
//! ```sh
//! kdchoice-bench list                          # registered scenarios + axes
//! kdchoice-bench run static --grid k=2,3 d=4 n=2^16 --trials 8 --format table
//! kdchoice-bench run scheduler --grid strategy=kd,batch rho=0.7,0.9 --format jsonl
//! kdchoice-bench run service --grid threads=1,2,4,8 window=256 --format table
//! kdchoice-bench run open_loop --grid lambda=0.9,1.2 threads=8 --format table
//! kdchoice-bench smoke                         # tiny grid per scenario; JSON validated
//! kdchoice-bench throughput [--quick]          # balance envelopes -> BENCH_results.json
//! kdchoice-bench figures                       # BENCH_results.json -> docs/*.svg
//! kdchoice-bench                               # = throughput (back-compat)
//! ```
//!
//! `throughput` keeps its name but records balance, not speed: the gap
//! under snapshot staleness, per-dimension vector gaps, cluster
//! degradation under a crash storm and the gap each bin-store
//! representation pays per byte, each checked live against its Theorem 2
//! envelope. Every speed number lives in the repository benchmark
//! (`benchmark/`), which times the same code interleaved and at scale.
//!
//! Every `run` sweep executes on the shared work-stealing
//! [`SweepRunner`]: all (config × trial) cells in parallel across all
//! cores, per-trial seeds derived from the grid coordinates, so output is
//! identical no matter the thread count.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use kdchoice_core::{
    run_once_compact, run_once_vector, BinSlab, DynamicScenario, HeteroScenario,
    PlacementObjective, ProbeDistribution, RunConfig, StaticScenario, StoreKind,
};
use kdchoice_expt::{GridSpec, Registry, ReportFormat, SweepRunner};
use kdchoice_prng::demand::DemandDistribution;
use kdchoice_scheduler::SchedulerScenario;
use kdchoice_service::{
    run_open_loop, OpenLoopConfig, OpenLoopScenario, ServiceBackend, ServiceScenario,
};
use kdchoice_storage::{
    run_cluster_workload, ClusterConfig, ClusterScenario, ClusterWorkloadConfig, FaultPlan,
    HeartbeatConfig, PlacementPolicy, RecoveryConfig, StorageScenario,
};

/// Builds the workspace scenario registry: all eight experiment families.
fn registry() -> Registry {
    Registry::new()
        .with(Box::new(StaticScenario))
        .with(Box::new(DynamicScenario))
        .with(Box::new(HeteroScenario))
        .with(Box::new(SchedulerScenario))
        .with(Box::new(StorageScenario))
        .with(Box::new(ClusterScenario))
        .with(Box::new(ServiceScenario))
        .with(Box::new(OpenLoopScenario))
}

fn usage() -> &'static str {
    "usage:\n  \
     kdchoice-bench list\n  \
     kdchoice-bench run <scenario> [--grid k=v1,v2 ...] [--trials N] [--seed S] [--format jsonl|csv|table] [--threads N]\n  \
     kdchoice-bench smoke\n  \
     kdchoice-bench throughput [--quick]  (record the Theorem 2 balance envelopes into BENCH_results.json;\n                                       --quick checks the same document at smoke scale, writes nothing;\n                                       speed is timed by the repository benchmark in benchmark/)\n  \
     kdchoice-bench figures          (render BENCH_results.json curves into docs/*.svg)\n  \
     kdchoice-bench [--quick]        (same as `throughput`)"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            cmd_list();
            ExitCode::SUCCESS
        }
        Some("run") => match cmd_run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}\n\n{}", usage());
                ExitCode::FAILURE
            }
        },
        Some("smoke") => match cmd_smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("smoke failed: {msg}");
                ExitCode::FAILURE
            }
        },
        Some("throughput") => match cmd_throughput(args.iter().any(|a| a == "--quick")) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("throughput failed: {msg}");
                ExitCode::FAILURE
            }
        },
        Some("figures") => match cmd_figures() {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("figures failed: {msg}");
                ExitCode::FAILURE
            }
        },
        None => match cmd_throughput(false) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("throughput failed: {msg}");
                ExitCode::FAILURE
            }
        },
        Some("--quick") => match cmd_throughput(true) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("throughput failed: {msg}");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// `list`: registered scenarios with their grid axes.
fn cmd_list() {
    let registry = registry();
    println!("registered scenarios:\n");
    for scenario in registry.iter() {
        println!("  {:<10} {}", scenario.name(), scenario.description());
        for axis in scenario.axes() {
            println!("      {:<10} {}", axis.name, axis.help);
        }
        println!();
    }
    println!("run one with: kdchoice-bench run <scenario> --grid <axis>=<v1>,<v2> ...");
}

/// `run <scenario> ...`: one parallel grid sweep, rendered to stdout.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let scenario_name = args.first().ok_or("missing scenario name")?;
    let mut grid_tokens: Vec<String> = Vec::new();
    let mut trials = 3usize;
    let mut seed = 0u64;
    let mut format = ReportFormat::JsonLines;
    let mut threads = 0usize;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--grid" => {
                i += 1;
                while i < args.len() && !args[i].starts_with("--") {
                    grid_tokens.push(args[i].clone());
                    i += 1;
                }
            }
            "--trials" => {
                i += 1;
                trials = next_value(args, i, "--trials")?;
                i += 1;
            }
            "--seed" => {
                i += 1;
                seed = next_value(args, i, "--seed")?;
                i += 1;
            }
            "--format" => {
                i += 1;
                let raw = args.get(i).ok_or("--format needs a value")?;
                format = raw.parse().map_err(|e| format!("{e}"))?;
                i += 1;
            }
            "--threads" => {
                i += 1;
                threads = next_value(args, i, "--threads")?;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    let registry = registry();
    let scenario = registry
        .require(scenario_name)
        .map_err(|e| format!("{e} (have: {})", registry.names().join(", ")))?;
    let grid = GridSpec::parse(&grid_tokens).map_err(|e| format!("{e}"))?;
    let runner = SweepRunner::new().with_threads(threads);
    let report = scenario
        .run_grid(&grid, trials, seed, &runner)
        .map_err(|e| format!("{e}"))?;
    print!("{}", report.render(format));
    Ok(())
}

fn next_value<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, String> {
    args.get(i)
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: bad value `{}`", args[i]))
}

/// `smoke`: every registered scenario on its tiny grid; every JSONL line
/// must validate, or the process exits non-zero (the CI gate).
fn cmd_smoke() -> Result<(), String> {
    let registry = registry();
    let runner = SweepRunner::new();
    for scenario in registry.iter() {
        let start = Instant::now();
        let report = scenario
            .run_grid(&scenario.smoke_grid(), 2, 1, &runner)
            .map_err(|e| format!("{}: {e}", scenario.name()))?;
        if report.rows.is_empty() {
            return Err(format!("{}: smoke grid produced no rows", scenario.name()));
        }
        let jsonl = report.to_jsonl();
        for (lineno, line) in jsonl.lines().enumerate() {
            kdchoice_expt::validate_json(line).map_err(|e| {
                format!(
                    "{}: malformed JSON on line {}: {e}\n  {line}",
                    scenario.name(),
                    lineno + 1
                )
            })?;
        }
        println!(
            "smoke {:<10} {:>3} rows ok in {:>6.1?}",
            scenario.name(),
            report.rows.len(),
            start.elapsed()
        );
        print!("{jsonl}");
    }
    println!("smoke: all scenarios produced well-formed JSON");
    Ok(())
}

// ---------------------------------------------------------------------------
// Balance-envelope harness (BENCH_results.json)
// ---------------------------------------------------------------------------

/// One refresh period of the staleness sweep: steady-state gap of the
/// owned engine deciding on snapshots republished every `refresh`
/// mutations, against the Theorem 2 envelope for (k=1, d=2).
struct StalenessGap {
    refresh: usize,
    bins: usize,
    steady_gap: f64,
    envelope_hi: f64,
    within_envelope: bool,
}

/// Sweeps the snapshot refresh period on the deterministic
/// single-threaded owned engine — the same (k=1, d=2), λ=0.9 churn
/// config the `open_loop_regression` and `snapshot_staleness` tests
/// pin, so the committed numbers and CI assert the same envelope.
fn measure_staleness_gap() -> Vec<StalenessGap> {
    let bins = 1 << 12;
    let envelope = kdchoice_theory::bounds::theorem2_gap_band(1, 2, bins, 3.0);
    [1usize, 8, 64, 512]
        .into_iter()
        .map(|refresh| {
            let mut config = OpenLoopConfig::at_lambda(bins, 1, 2, 0.9, 32.0, 1200, 0xBE7C4);
            config.threads = 1;
            config.backend = ServiceBackend::SharedNothing;
            config.snapshot_refresh = refresh;
            config.sample_every = 4;
            let report = run_open_loop(&config);
            assert!(report.conserved, "staleness sweep must conserve balls");
            StalenessGap {
                refresh,
                bins,
                steady_gap: report.steady_gap_mean,
                envelope_hi: envelope.hi,
                within_envelope: report.steady_gap_mean <= envelope.hi,
            }
        })
        .collect()
}

/// One cell of the memory-vs-balance frontier: a (2,4)-choice static
/// fill through `run_once_compact` on one store kind, recording the
/// bytes the decision state occupies per bin next to the gap it pays.
/// Exact and (lossless) packed rows report the true gap of the identical
/// decision stream.
struct GapVsBytes {
    store: &'static str,
    n: usize,
    balls: u64,
    bytes_per_bin: f64,
    max_load: u32,
    gap: f64,
    lossless: bool,
}

/// Store kinds swept by the frontier (all three representations).
const GAP_STORE_KINDS: [StoreKind; 3] = [StoreKind::Exact, StoreKind::Packed4, StoreKind::Packed8];

/// Runs one frontier cell: a single seeded fill, so the row is
/// deterministic.
fn measure_gap_vs_bytes_cell(kind: StoreKind, n: usize, balls: u64) -> GapVsBytes {
    let cfg = RunConfig::new(n, 0xBE7C4).with_balls(balls);
    let (result, slab) = run_once_compact(kind, 2, 4, &ProbeDistribution::Uniform, None, &cfg);
    let lossless = match &slab {
        BinSlab::Exact(_) => true,
        BinSlab::Packed(p) => p.is_lossless(),
    };
    GapVsBytes {
        store: kind.name(),
        n,
        balls,
        bytes_per_bin: slab.bytes_per_bin(),
        max_load: result.max_load,
        gap: result.gap,
        lossless,
    }
}

/// Sweeps store kind × n up to the 10^8-bin frontier. The largest grid
/// point (n = 2^24 ≈ 1.7·10^7 bins) and the frontier rows put the exact
/// store's u32 loads far past any cache (64 MB / 400 MB hot state); the
/// packed rows shrink the same decision state 8×.
fn measure_gap_vs_bytes(quick: bool) -> Vec<GapVsBytes> {
    let cells: &[(usize, u64)] = if quick {
        &[(1 << 12, 4)]
    } else {
        &[(1 << 16, 4), (1 << 20, 4), (1 << 24, 2), (100_000_000, 1)]
    };
    let mut rows = Vec::new();
    for &(n, ratio) in cells {
        for kind in GAP_STORE_KINDS {
            rows.push(measure_gap_vs_bytes_cell(kind, n, ratio * n as u64));
        }
    }
    rows
}

/// One cell of the graceful-degradation sweep: a seeded crash storm
/// against the fault-injected cluster at one recovery budget, measuring
/// how deep the under-replication window gets and how long healing
/// takes.
struct ClusterDegradation {
    budget: u32,
    failures: usize,
    servers: usize,
    k: usize,
    files: usize,
    peak_under_replicated: u64,
    under_replicated_p99: u64,
    under_replicated_area: u64,
    ticks_to_heal: u64,
    healed: bool,
    detection_latency_mean: f64,
    durability_losses: u64,
    repair_attempts: u64,
    replicas_placed: u64,
}

/// Sweeps recovery budget × failure count over a fixed storm seed. Every
/// cell replays the same creates and crash schedule; only the repair
/// rate differs, so the degradation curve isolates the budget's effect.
fn measure_cluster_degradation(quick: bool) -> Vec<ClusterDegradation> {
    let (servers, files, budgets, failure_counts): (usize, usize, &[u32], &[usize]) = if quick {
        (50, 1_000, &[2, 0], &[4])
    } else {
        (200, 8_000, &[1, 4, 16, 0], &[4, 12])
    };
    let k = 3;
    let mut rows = Vec::new();
    for &failures in failure_counts {
        for &budget in budgets {
            let mut cluster =
                ClusterConfig::new(servers, k, PlacementPolicy::KdChoice { d: 2 * k });
            cluster.heartbeat = HeartbeatConfig::new(2, 1);
            cluster.recovery = if budget == 0 {
                RecoveryConfig::unbounded()
            } else {
                RecoveryConfig::budgeted(budget)
            };
            let mut config = ClusterWorkloadConfig::new(cluster);
            config.files = files;
            config.reads = 0;
            config.sample_every = 1;
            config.plan = FaultPlan::new().storm(failures, files as u64);
            config.seed = 0xBE7C4;
            let report = run_cluster_workload(&config);
            assert!(
                report.degradation.healed,
                "degradation sweep must heal (budget {budget}, failures {failures})"
            );
            let mut under: Vec<u32> = report.series.iter().map(|&(_, u)| u).collect();
            under.sort_unstable();
            let p99 = under
                .get((under.len().saturating_sub(1)) * 99 / 100)
                .copied()
                .unwrap_or(0);
            let replicas_placed = (files * k) as u64 + report.stats.recovered_chunks;
            rows.push(ClusterDegradation {
                budget,
                failures,
                servers,
                k,
                files,
                peak_under_replicated: report.degradation.peak_under_replicated,
                under_replicated_p99: u64::from(p99),
                under_replicated_area: report.degradation.under_replicated_area,
                ticks_to_heal: report.degradation.ticks_to_heal,
                healed: report.degradation.healed,
                detection_latency_mean: report.degradation.detection_latency_mean,
                durability_losses: report.degradation.durability_losses,
                repair_attempts: report.degradation.repair_attempts,
                replicas_placed,
            });
        }
    }
    rows
}

/// One cell of the multidimensional-load sweep: a static fill of
/// vector-demand balls under the max-norm objective, with the
/// per-dimension gap profile of the final state.
struct VectorLoadRow {
    dims: usize,
    d: usize,
    n: usize,
    balls: u64,
    max_load: u32,
    scalar_gap: f64,
    dim_gaps: Vec<f64>,
    /// Demand-scaled Theorem 2 envelope, present only where the bound
    /// applies (d >= 2k).
    envelope_hi: Option<f64>,
}

impl VectorLoadRow {
    fn max_dim_gap(&self) -> f64 {
        self.dim_gaps.iter().cloned().fold(0.0f64, f64::max)
    }
}

/// The `vector_loads` sweep: one-choice vs two-choice static fills of
/// `4n` balls whose demands are uniform `1..=4` vectors, placed by the
/// max-norm objective, at dims in {2, 4}. The d=1 rows are the baseline
/// that shows what probing buys per dimension; the d=2 rows must sit
/// inside the demand-scaled Theorem 2 envelope (the same bar the
/// `vector_envelope` test suite asserts in CI).
fn measure_vector_loads(quick: bool) -> Vec<VectorLoadRow> {
    const DEMAND_MAX: u32 = 4;
    let ns: &[usize] = if quick {
        &[1 << 12, 1 << 14]
    } else {
        &[1 << 14, 1 << 16, 1 << 18, 1 << 20]
    };
    let demand = DemandDistribution::uniform(DEMAND_MAX).expect("harness demand distribution");
    let mut rows = Vec::new();
    for &n in ns {
        for dims in [2usize, 4] {
            for d in [1usize, 2] {
                let balls = 4 * n as u64;
                let seed = 0xD1E5_0000u64 ^ (n as u64) ^ ((dims as u64) << 48) ^ ((d as u64) << 56);
                let config = RunConfig::new(n, seed).with_balls(balls);
                let (result, store) = run_once_vector(
                    1,
                    d,
                    dims,
                    &PlacementObjective::MaxNorm,
                    &demand,
                    &ProbeDistribution::Uniform,
                    None,
                    &config,
                );
                assert!(store.check_invariants(), "vector store invariants (n={n})");
                let envelope_hi = (d >= 2).then(|| {
                    kdchoice_theory::bounds::vector_gap_band(
                        1,
                        d,
                        n,
                        DEMAND_MAX,
                        2.0 * f64::from(DEMAND_MAX),
                    )
                    .hi
                });
                rows.push(VectorLoadRow {
                    dims,
                    d,
                    n,
                    balls,
                    max_load: result.max_load,
                    scalar_gap: result.gap,
                    dim_gaps: store.dim_gaps(),
                    envelope_hi,
                });
            }
        }
    }
    rows
}

/// Renders the `vector_loads` rows as a JSON array.
fn vector_rows_json(rows: &[VectorLoadRow]) -> String {
    let mut out = String::from("[\n");
    for (i, v) in rows.iter().enumerate() {
        let gaps = v
            .dim_gaps
            .iter()
            .map(|g| format!("{g:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        let envelope = match v.envelope_hi {
            Some(hi) => format!("{hi:.3}"),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "    {{\n      \"dims\": {},\n      \"k\": 1,\n      \"d\": {},\n      \"n\": {},\n      \"balls\": {},\n      \"objective\": \"max_norm\",\n      \"demand\": \"uniform(4)\",\n      \"max_load\": {},\n      \"scalar_gap\": {:.3},\n      \"dim_gaps\": [{}],\n      \"max_dim_gap\": {:.3},\n      \"theorem2_envelope_hi\": {}\n    }}",
            v.dims,
            v.d,
            v.n,
            v.balls,
            v.max_load,
            v.scalar_gap,
            gaps,
            v.max_dim_gap(),
            envelope,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    out
}

/// Renders the `gap_vs_bytes` rows as a JSON array.
fn gap_rows_json(rows: &[GapVsBytes]) -> String {
    let mut out = String::from("[\n");
    for (i, g) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"store\": \"{}\",\n      \"n\": {},\n      \"balls\": {},\n      \"bytes_per_bin\": {:.3},\n      \"max_load\": {},\n      \"gap\": {:.3},\n      \"lossless\": {}\n    }}",
            g.store,
            g.n,
            g.balls,
            g.bytes_per_bin,
            g.max_load,
            g.gap,
            g.lossless,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    out
}

/// Renders the `BENCH_results.json` document. Full and quick mode both
/// call it, so CI validates the exact shape the full run commits.
fn render_json(
    staleness: &[StalenessGap],
    degradation: &[ClusterDegradation],
    gap: &[GapVsBytes],
    vector: &[VectorLoadRow],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"harness\": \"kdchoice-bench throughput\",\n");
    out.push_str(
        "  \"scope\": \"balance only: every row is one seeded, deterministic run, checked against its Theorem 2 envelope where one applies; speed is timed by the repository benchmark (benchmark/, BENCHMARK.json)\",\n",
    );
    out.push_str(
        "  \"staleness_vs_gap_note\": \"steady-state gap of the shared-nothing engine deciding on load snapshots republished every `snapshot_refresh` mutations (single thread, deterministic; two-choice k=1 d=2 churn at lambda=0.9, n=2^12); every row must stay within the Theorem 2 envelope lnln n / ln(d/k) + 3, the same bar tests/snapshot_staleness.rs asserts in CI\",\n",
    );
    out.push_str("  \"staleness_vs_gap\": [\n");
    for (i, s) in staleness.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"snapshot_refresh\": {},\n      \"n\": {},\n      \"steady_gap\": {:.3},\n      \"theorem2_envelope_hi\": {:.3},\n      \"within_envelope\": {}\n    }}",
            s.refresh, s.bins, s.steady_gap, s.envelope_hi, s.within_envelope,
        );
        out.push_str(if i + 1 < staleness.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"cluster_degradation_note\": \"graceful-degradation curve of the fault-injected replicated cluster: one seeded crash storm (heartbeat period 2, 1 tolerated miss, k=3 with d=6 probes) replayed at each recovery budget; budget 0 = unbounded (instantaneous legacy healing). under_replicated_p99 is the 99th percentile of the per-tick under-replicated chunk count, ticks_to_heal the span from first under-replication to full re-replication, replicas_placed the creates plus repairs\",\n",
    );
    out.push_str("  \"cluster_degradation\": [\n");
    for (i, c) in degradation.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"scenario\": \"cluster\",\n      \"budget_per_tick\": {},\n      \"failures\": {},\n      \"servers\": {},\n      \"k\": {},\n      \"chunks\": {},\n      \"peak_under_replicated\": {},\n      \"under_replicated_p99\": {},\n      \"under_replicated_area\": {},\n      \"ticks_to_heal\": {},\n      \"healed\": {},\n      \"detection_latency_mean_ticks\": {:.2},\n      \"durability_losses\": {},\n      \"repair_attempts\": {},\n      \"replicas_placed\": {}\n    }}",
            c.budget,
            c.failures,
            c.servers,
            c.k,
            c.files,
            c.peak_under_replicated,
            c.under_replicated_p99,
            c.under_replicated_area,
            c.ticks_to_heal,
            c.healed,
            c.detection_latency_mean,
            c.durability_losses,
            c.repair_attempts,
            c.replicas_placed,
        );
        out.push_str(if i + 1 < degradation.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"gap_vs_bytes_note\": \"memory-vs-balance frontier: (2,4)-choice static fills through the one (k,d)-choice round engine on each bin-store representation, up to the 10^8-bin frontier, one seeded fill per row. bytes_per_bin is the decision-path state (u32 loads = 4.0; 4/8-bit packed lanes = 0.5/1.0). Exact and lossless packed rows pay zero gap penalty (bit-identical decision stream)\",\n",
    );
    out.push_str("  \"gap_vs_bytes\": ");
    out.push_str(&gap_rows_json(gap));
    out.push_str(",\n");
    out.push_str(
        "  \"vector_loads_note\": \"multidimensional loads: static fills of 4n balls whose demands are per-dimension uniform 1..=4 vectors, placed k=1 by the max-norm objective on the VectorLoad store. d=1 rows are the no-choice baseline; d=2 rows exercise two-choice and must keep every per-dimension gap inside the demand-scaled Theorem 2 envelope Delta*lnln(n)/ln(d/k) + 2*Delta (theorem2_envelope_hi; null where d < 2k and the bound does not apply — the same bar the vector_envelope test suite asserts in CI). dims=1 with the scalar objective is bit-identical to the scalar engine and is therefore covered by the scalar sections, not re-measured here\",\n",
    );
    out.push_str("  \"vector_loads\": ");
    out.push_str(&vector_rows_json(vector));
    out.push_str("\n}\n");
    out
}

/// `figures`: re-reads `BENCH_results.json` and renders the staleness,
/// gap-vs-bytes and vector-load curves into `docs/` as dependency-free
/// SVG (see `kdchoice_bench::svg`).
fn cmd_figures() -> Result<(), String> {
    use kdchoice_bench::svg::{extract_objects, get_f64, Chart, Series};

    let json = std::fs::read_to_string("BENCH_results.json").map_err(|e| {
        format!("read BENCH_results.json (run `kdchoice-bench throughput` first): {e}")
    })?;

    let staleness = extract_objects(&json, "staleness_vs_gap");
    if staleness.is_empty() {
        return Err("BENCH_results.json has no staleness_vs_gap section — regenerate it".into());
    }
    let pick = |field: &str| -> Vec<(f64, f64)> {
        staleness
            .iter()
            .filter_map(|row| Some((get_f64(row, "snapshot_refresh")?, get_f64(row, field)?)))
            .collect()
    };
    let staleness_chart = Chart {
        title: "Steady-state gap vs snapshot staleness (k=1, d=2, lambda=0.9)".into(),
        x_label: "snapshot refresh period, mutations (log2)".into(),
        y_label: "steady gap (balls)".into(),
        log2_x: true,
        series: vec![
            Series {
                label: "measured steady gap".into(),
                points: pick("steady_gap"),
                color: "#1f77b4",
            },
            Series {
                label: "Theorem 2 envelope (hi)".into(),
                points: pick("theorem2_envelope_hi"),
                color: "#2ca02c",
            },
        ],
    };

    let gap_rows = extract_objects(&json, "gap_vs_bytes");
    if gap_rows.is_empty() {
        return Err("BENCH_results.json has no gap_vs_bytes section — regenerate it".into());
    }
    let mut ns: Vec<u64> = gap_rows
        .iter()
        .filter_map(|row| get_f64(row, "n").map(|v| v as u64))
        .collect();
    ns.sort_unstable();
    ns.dedup();
    const PALETTE: [&str; 5] = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd"];
    let gap_chart = Chart {
        title: "Balance gap vs decision-state bytes per bin (static fill, k=2 d=4)".into(),
        x_label: "bytes per bin (exact=4, packed8=1, packed4=0.5)".into(),
        y_label: "gap (balls)".into(),
        log2_x: false,
        series: ns
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut points: Vec<(f64, f64)> = gap_rows
                    .iter()
                    .filter(|row| get_f64(row, "n").map(|v| v as u64) == Some(n))
                    .filter_map(|row| Some((get_f64(row, "bytes_per_bin")?, get_f64(row, "gap")?)))
                    .collect();
                points.sort_by(|a, b| a.0.total_cmp(&b.0));
                Series {
                    label: format!("n = {n}"),
                    points,
                    color: PALETTE[i % PALETTE.len()],
                }
            })
            .collect(),
    };

    let vector_rows = extract_objects(&json, "vector_loads");
    if vector_rows.is_empty() {
        return Err("BENCH_results.json has no vector_loads section — regenerate it".into());
    }
    let vector_curve = |d: f64, dims: f64| -> Vec<(f64, f64)> {
        let mut points: Vec<(f64, f64)> = vector_rows
            .iter()
            .filter(|row| get_f64(row, "d") == Some(d) && get_f64(row, "dims") == Some(dims))
            .filter_map(|row| Some((get_f64(row, "n")?, get_f64(row, "max_dim_gap")?)))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        points
    };
    let vector_chart = Chart {
        title: "Max per-dimension gap vs n (uniform 1..=4 vector demands, max-norm)".into(),
        x_label: "bins n (log2)".into(),
        y_label: "max per-dimension gap (balls)".into(),
        log2_x: true,
        series: vec![
            Series {
                label: "d=1, dims=2 (no choice)".into(),
                points: vector_curve(1.0, 2.0),
                color: "#d62728",
            },
            Series {
                label: "d=1, dims=4 (no choice)".into(),
                points: vector_curve(1.0, 4.0),
                color: "#ff7f0e",
            },
            Series {
                label: "d=2, dims=2 (two-choice)".into(),
                points: vector_curve(2.0, 2.0),
                color: "#1f77b4",
            },
            Series {
                label: "d=2, dims=4 (two-choice)".into(),
                points: vector_curve(2.0, 4.0),
                color: "#2ca02c",
            },
        ],
    };

    std::fs::create_dir_all("docs").map_err(|e| format!("create docs/: {e}"))?;
    for (path, chart) in [
        ("docs/fig_staleness_gap.svg", &staleness_chart),
        ("docs/fig_gap_vs_bytes.svg", &gap_chart),
        ("docs/fig_vector_loads.svg", &vector_chart),
    ] {
        std::fs::write(path, chart.render()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn profile_name() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// `throughput`: runs the four balance sections, asserts each envelope
/// live, and renders and validates the `BENCH_results.json` document.
/// Full mode writes it; `--quick` runs smaller grids and writes nothing.
fn cmd_throughput(quick: bool) -> Result<(), String> {
    if profile_name() == "debug" && !quick {
        eprintln!(
            "note: running the full workload in a debug build; use --release for the committed numbers"
        );
    }
    println!(
        "kdchoice balance-envelope harness: {} grids, profile = {}",
        if quick { "quick" } else { "full" },
        profile_name()
    );

    // Staleness vs gap on the deterministic single-threaded owned engine.
    println!();
    let staleness = measure_staleness_gap();
    for s in &staleness {
        println!(
            "staleness  refresh={:<4} steady gap {:.3} (Theorem 2 envelope {:.3}){}",
            s.refresh,
            s.steady_gap,
            s.envelope_hi,
            if s.within_envelope {
                ""
            } else {
                "  OUTSIDE ENVELOPE"
            },
        );
        assert!(
            s.within_envelope,
            "staleness sweep left the Theorem 2 envelope at refresh={}",
            s.refresh
        );
    }

    // Graceful degradation of the fault-injected replicated cluster.
    println!();
    let degradation = measure_cluster_degradation(quick);
    for c in &degradation {
        println!(
            "cluster    budget={:<4} failures={:<3} peak under-replicated {:>5} (p99 {:>5}) | heal {:>6} ticks{}",
            if c.budget == 0 {
                "inf".to_string()
            } else {
                c.budget.to_string()
            },
            c.failures,
            c.peak_under_replicated,
            c.under_replicated_p99,
            c.ticks_to_heal,
            if c.durability_losses > 0 {
                format!(" ({} durability losses)", c.durability_losses)
            } else {
                String::new()
            },
        );
    }

    // Memory-bounded stores: the gap-vs-bytes frontier.
    println!();
    let gap = measure_gap_vs_bytes(quick);
    for g in &gap {
        println!(
            "compact    {:<7} n=10^{:<4.1} {:>5.2} B/bin | max load {:>3} gap {:>9.3}{}",
            g.store,
            (g.n as f64).log10(),
            g.bytes_per_bin,
            g.max_load,
            g.gap,
            if g.lossless { "" } else { " (lossy)" },
        );
    }

    // Multidimensional loads: per-dimension gaps of vector-demand fills.
    println!();
    let vector = measure_vector_loads(quick);
    for v in &vector {
        let envelope = match v.envelope_hi {
            Some(hi) => format!(" (envelope {hi:.3})"),
            None => String::new(),
        };
        println!(
            "vector     dims={} d={} n=2^{:<2} max load {:>3} | max per-dim gap {:>7.3}{}",
            v.dims,
            v.d,
            v.n.trailing_zeros(),
            v.max_load,
            v.max_dim_gap(),
            envelope,
        );
        if let Some(hi) = v.envelope_hi {
            assert!(
                v.max_dim_gap() <= hi,
                "vector fill left the demand-scaled Theorem 2 envelope at dims={} n={}",
                v.dims,
                v.n
            );
        }
    }

    let json = render_json(&staleness, &degradation, &gap, &vector);
    kdchoice_expt::validate_json(&json)
        .map_err(|e| format!("harness emitted malformed JSON: {e}"))?;
    if quick {
        println!("\nquick BENCH_results.json document validated (not written)");
    } else {
        std::fs::write("BENCH_results.json", &json)
            .map_err(|e| format!("write BENCH_results.json: {e}"))?;
        println!("\nwrote BENCH_results.json");
    }
    Ok(())
}
