//! Open-loop dynamic traffic: Poisson arrivals, exponential ball
//! lifetimes, a bounded service rate, and the batched placement
//! pipeline — the "heavy traffic from millions of users" regime.
//!
//! Sweeps the offered load λ across the stability boundary and prints
//! queueing latency (in virtual ticks) next to the load observables:
//! below capacity the queue is invisible; at λ = 1.2 the backlog and
//! latency grow without bound while (k,d)-choice keeps the *load* gap
//! flat.
//!
//! ```sh
//! cargo run --release --example open_loop
//! ```

use kdchoice::service::{churn_capacity, run_open_loop, OpenLoopConfig};

fn main() {
    let n = 1 << 12;
    let (k, d) = (2, 4);
    let mean_lifetime = 32.0;
    let ticks = 1200;
    println!(
        "open-loop (k,d)=({k},{d}) on n={n} bins, exponential lifetimes (mean {mean_lifetime} ticks), {ticks} ticks"
    );
    let capacity = churn_capacity(n, k, mean_lifetime);
    println!("service capacity: {capacity} requests/tick (steady state ≈ λ·n balls)\n");
    println!(
        "{:>5} {:>9} {:>9} {:>11} {:>11} {:>9} {:>7} {:>8}",
        "λ", "committed", "backlog", "p50 (ticks)", "p99 (ticks)", "peak load", "gap", "Mballs/s"
    );
    for lambda in [0.5, 0.9, 0.99, 1.2] {
        let mut config = OpenLoopConfig::at_lambda(n, k, d, lambda, mean_lifetime, ticks, 0xFEED);
        config.sample_every = 4;
        let report = run_open_loop(&config);
        assert!(report.conserved, "open-loop run must conserve balls");
        println!(
            "{:>5} {:>9} {:>9} {:>11.1} {:>11.1} {:>9} {:>7.2} {:>8.2}",
            lambda,
            report.requests_committed,
            report.backlog,
            report.latency_p50,
            report.latency_p99,
            report.peak_max_load,
            report.steady_gap_mean,
            report.balls_per_sec / 1e6,
        );
    }
    println!(
        "\nbelow capacity: zero latency. above: latency/backlog diverge, the load gap does not."
    );
}
