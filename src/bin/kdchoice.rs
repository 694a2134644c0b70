//! The `kdchoice` command-line tool: run (k,d)-choice and friends from the
//! shell.
//!
//! ```sh
//! kdchoice run --k 2 --d 3 --n 65536 --trials 10
//! kdchoice run --k 2 --d 4 --n 4096 --balls 262144       # heavy case
//! kdchoice compare --n 65536 --trials 5                  # vs baselines
//! kdchoice trace --k 2 --d 4 --n 4096 --ratio 32         # gap trajectory
//! kdchoice bounds --k 16 --d 17 --n 196608               # theory only
//! kdchoice scheduler --workers 200 --k 8 --jobs 10000
//! kdchoice storage --servers 500 --k 4 --files 10000
//! ```

use std::error::Error;
use std::process::ExitCode;

use kdchoice::baselines::{AdaptiveProbing, DChoice, OnePlusBeta, SingleChoice};
use kdchoice::cli::CliArgs;
use kdchoice::kd::{run_trials, run_with_trace, KdChoice, RoundPolicy, RoundProcess, RunConfig};
use kdchoice::scheduler::{simulate, ClusterConfig, PlacementStrategy};
use kdchoice::storage::{
    run_cluster_workload, ClusterWorkloadConfig, PlacementPolicy, WorkloadConfig,
};
use kdchoice::theory::bounds::{theorem1_prediction, theorem2_gap_band};
use kdchoice::theory::cost::messages_per_ball;

const USAGE: &str = "kdchoice — the (k,d)-choice balls-into-bins toolkit

USAGE:
    kdchoice <command> [--key value ...]

COMMANDS:
    run        run (k,d)-choice        --k --d --n [--balls --seed --trials --unrestricted]
    compare    compare against baselines  --n [--trials --seed]
    trace      heavy-case gap trajectory  --k --d --n --ratio [--seed]
    bounds     print Theorem 1/2 predictions  --k --d --n
    scheduler  cluster scheduling demo  --workers --k --jobs [--util --seed]
    storage    storage cluster demo     --servers --k --files [--d --failures --seed]
    help       print this message
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(raw: &[String]) -> Result<(), Box<dyn Error>> {
    let args = CliArgs::parse(raw.iter().map(String::as_str))?;
    match args.command.as_deref() {
        Some("run") => cmd_run(&args),
        Some("compare") => cmd_compare(&args),
        Some("trace") => cmd_trace(&args),
        Some("bounds") => cmd_bounds(&args),
        Some("scheduler") => cmd_scheduler(&args),
        Some("storage") => cmd_storage(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'").into()),
    }
}

fn cmd_run(args: &CliArgs) -> Result<(), Box<dyn Error>> {
    let k = args.get_usize("k", 2)?;
    let d = args.get_usize("d", 3)?;
    let n = args.get_usize("n", 1 << 16)?;
    let balls = args.get_u64("balls", n as u64)?;
    let seed = args.get_u64("seed", 42)?;
    let trials = args.get_usize("trials", 1)?;
    let policy = if args.get_flag("unrestricted") {
        RoundPolicy::Unrestricted
    } else {
        RoundPolicy::Multiplicity
    };
    let cfg = RunConfig::new(n, seed).with_balls(balls);
    // Validate eagerly for a clean error message before any worker thread
    // constructs the process.
    KdChoice::new(k, d)?;
    let set = run_trials(
        move |_| {
            KdChoice::new(k, d)
                .expect("validated above")
                .with_policy(policy)
        },
        &cfg,
        trials.max(1),
    );
    println!("({k},{d})-choice [{policy}]: {balls} balls into {n} bins, {trials} trial(s)");
    println!("  max loads    : {}", set.max_load_set_string());
    println!("  mean max     : {:.3}", set.mean_max_load());
    println!("  mean gap     : {:.3}", set.mean_gap());
    println!("  messages/ball: {:.3}", messages_per_ball(k, d));
    if k < d {
        let p = theorem1_prediction(k, d, n);
        println!(
            "  theory       : {:.2} (layered {:.2} + dk {:.2}, {:?})",
            p.total(),
            p.layered_term,
            p.dk_term,
            p.regime
        );
    }
    Ok(())
}

fn cmd_compare(args: &CliArgs) -> Result<(), Box<dyn Error>> {
    let n = args.get_usize("n", 1 << 16)?;
    let trials = args.get_usize("trials", 5)?;
    let seed = args.get_u64("seed", 42)?;
    let cfg = RunConfig::new(n, seed);
    println!(
        "{:<22} {:>12} {:>10} {:>12}",
        "process", "max loads", "mean max", "msgs/ball"
    );
    compare_row("single-choice", SingleChoice::new, &cfg, trials);
    compare_row(
        "greedy[2]",
        || DChoice::new(2).expect("valid"),
        &cfg,
        trials,
    );
    compare_row(
        "(1+0.5)-choice",
        || OnePlusBeta::new(0.5).expect("valid"),
        &cfg,
        trials,
    );
    compare_row(
        "adaptive",
        || AdaptiveProbing::new(1, 32).expect("valid"),
        &cfg,
        trials,
    );
    compare_row(
        "(2,3)-choice",
        || KdChoice::new(2, 3).expect("valid"),
        &cfg,
        trials,
    );
    compare_row(
        "(16,17)-choice",
        || KdChoice::new(16, 17).expect("valid"),
        &cfg,
        trials,
    );
    compare_row(
        "(16,32)-choice",
        || KdChoice::new(16, 32).expect("valid"),
        &cfg,
        trials,
    );
    Ok(())
}

/// Runs `trials` of the process `make` builds and prints its `compare`
/// row. Generic, so every generator draw is a direct call.
fn compare_row<P: RoundProcess>(
    name: &str,
    make: impl Fn() -> P + Sync,
    cfg: &RunConfig,
    trials: usize,
) {
    let set = run_trials(|_| make(), cfg, trials);
    let mpb: f64 = set
        .results
        .iter()
        .map(|r| r.messages_per_ball())
        .sum::<f64>()
        / set.results.len() as f64;
    println!(
        "{:<22} {:>12} {:>10.2} {:>12.3}",
        name,
        set.max_load_set_string(),
        set.mean_max_load(),
        mpb
    );
}

fn cmd_trace(args: &CliArgs) -> Result<(), Box<dyn Error>> {
    let k = args.get_usize("k", 2)?;
    let d = args.get_usize("d", 4)?;
    let n = args.get_usize("n", 1 << 12)?;
    let ratio = args.get_u64("ratio", 16)?;
    let seed = args.get_u64("seed", 42)?;
    let mut p = KdChoice::new(k, d)?;
    let balls = ratio * n as u64;
    let checkpoints: Vec<u64> = (1..ratio).map(|i| i * n as u64).collect();
    let cfg = RunConfig::new(n, seed).with_balls(balls);
    let trace = run_with_trace(&mut p, &cfg, &checkpoints);
    if d >= 2 * k {
        let band = theorem2_gap_band(k, d, n, 2.0);
        println!(
            "Theorem 2 gap band for ({k},{d}) at n = {n}: [{:.1}, {:.1}]",
            band.lo, band.hi
        );
    }
    println!(
        "{:>12} {:>8} {:>8} {:>12}",
        "balls", "max", "gap", "overloaded"
    );
    for pt in trace {
        println!(
            "{:>12} {:>8} {:>8.2} {:>12}",
            pt.balls, pt.max_load, pt.gap, pt.overloaded_bins
        );
    }
    Ok(())
}

fn cmd_bounds(args: &CliArgs) -> Result<(), Box<dyn Error>> {
    let k = args.get_usize("k", 2)?;
    let d = args.get_usize("d", 3)?;
    let n = args.get_usize("n", 3 * (1 << 16))?;
    KdChoice::new(k, d)?;
    let p = theorem1_prediction(k, d, n);
    println!("(k,d) = ({k},{d}), n = {n}");
    println!("  regime        : {:?}", p.regime);
    println!("  layered term  : {:.3}", p.layered_term);
    println!("  dk term       : {:.3}", p.dk_term);
    println!("  prediction    : {:.3} (± O(1))", p.total());
    println!("  messages/ball : {:.3}", messages_per_ball(k, d));
    if k < d && d >= 2 * k {
        let band = theorem2_gap_band(k, d, n, 0.0);
        println!(
            "  heavy-case gap: [{:.2} − O(1), {:.2} + O(1)] (Theorem 2)",
            band.lo, band.hi
        );
    }
    Ok(())
}

fn cmd_scheduler(args: &CliArgs) -> Result<(), Box<dyn Error>> {
    let workers = args.get_usize("workers", 200)?;
    let k = args.get_usize("k", 8)?;
    let jobs = args.get_usize("jobs", 10_000)?;
    let util = args.get_f64("util", 0.85)?;
    let seed = args.get_u64("seed", 42)?;
    let cfg = ClusterConfig::new(workers, k, jobs, seed).with_utilization(util);
    println!(
        "{:<22} {:>10} {:>8} {:>8} {:>12}",
        "strategy", "mean resp", "p50", "p99", "probes/job"
    );
    for strategy in [
        PlacementStrategy::Random,
        PlacementStrategy::PerTaskDChoice { d: 2 },
        PlacementStrategy::BatchSampling { probes_per_task: 2 },
        PlacementStrategy::LateBinding { probes_per_task: 2 },
        PlacementStrategy::KdChoice { d: k + 1 },
        PlacementStrategy::KdChoice { d: 2 * k },
    ] {
        let r = simulate(&cfg, strategy);
        println!(
            "{:<22} {:>10.3} {:>8.3} {:>8.3} {:>12.1}",
            r.strategy,
            r.response.mean(),
            r.response_percentiles[0],
            r.response_percentiles[2],
            r.probes_per_job
        );
    }
    Ok(())
}

fn cmd_storage(args: &CliArgs) -> Result<(), Box<dyn Error>> {
    let servers = args.get_usize("servers", 500)?;
    let k = args.get_usize("k", 4)?;
    let files = args.get_usize("files", servers * 20)?;
    let d = args.get_usize("d", 2 * k)?;
    let failures = args.get_usize("failures", 0)?;
    let seed = args.get_u64("seed", 42)?;
    println!(
        "{:<20} {:>8} {:>10} {:>12} {:>12}",
        "policy", "max", "imbalance", "probes/file", "read msgs"
    );
    for policy in [
        PlacementPolicy::Random,
        PlacementPolicy::PerChunkTwoChoice,
        PlacementPolicy::KdChoice { d },
    ] {
        let mut cfg = WorkloadConfig::new(servers, k, policy)
            .with_seed(seed)
            .with_failures(failures);
        cfg.files = files;
        let r = run_cluster_workload(&ClusterWorkloadConfig::legacy_compat(&cfg));
        println!(
            "{:<20} {:>8} {:>10.3} {:>12.1} {:>12.1}",
            r.policy,
            r.stats.max_load,
            r.stats.imbalance,
            r.create_cost_per_file,
            r.read_cost_per_op
        );
    }
    Ok(())
}
