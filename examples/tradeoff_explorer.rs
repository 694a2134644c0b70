//! Explore the (k,d) parameter space: maximum load vs message cost.
//!
//! The paper's headline (§1.1): picking k and d appropriately buys
//! * constant max load at 2 messages/ball (d = 2k, k = polylog n), or
//! * o(lnln n) max load at (1+o(1)) messages/ball (d − k = Θ(ln n)).
//!
//! ```sh
//! cargo run --release --example tradeoff_explorer [n]
//! ```

use kdchoice::kd::{run_trials, KdChoice, RunConfig};
use kdchoice::theory::bounds::theorem1_prediction;
use kdchoice::theory::cost::{constant_load_params, near_minimal_message_params};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1 << 16);
    let trials = 5;
    let lnln = (n as f64).ln().ln();
    println!("n = {n} (lnln n = {lnln:.2}), {trials} trials per point\n");
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>10}",
        "(k,d)", "msgs/ball", "max loads", "mean max", "theory"
    );

    let (kc, dc) = constant_load_params(n);
    let (km, dm) = near_minimal_message_params(n);
    let params: Vec<(usize, usize)> = vec![
        (1, 1),   // single choice
        (1, 2),   // two-choice
        (1, 4),   // four-choice
        (4, 5),   // k ≈ d small
        (16, 17), // k ≈ d medium
        (16, 32), // dk = 2
        (kc, dc), // constant load corner
        (km, dm), // near-minimal messages corner
    ];
    for (k, d) in params {
        let set = run_trials(
            move |_| KdChoice::new(k, d).expect("valid"),
            &RunConfig::new(n, 1000 + (k * 7 + d) as u64),
            trials,
        );
        let pred = theorem1_prediction(k, d, n);
        println!(
            "{:<16} {:>10.3} {:>12} {:>12.2} {:>10.2}",
            format!("({k},{d})"),
            d as f64 / k as f64,
            set.max_load_set_string(),
            set.mean_max_load(),
            pred.total(),
        );
    }
    println!("\ntheory column: Theorem 1 point prediction (± O(1) slack applies)");
    Ok(())
}
