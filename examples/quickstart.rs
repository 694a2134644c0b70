//! Quickstart: run the (k,d)-choice process and inspect the paper's
//! observables.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kdchoice::kd::{run_once_with_state, run_trials, KdChoice, RunConfig};
use kdchoice::theory::bounds::theorem1_prediction;
use kdchoice::theory::cost::messages_per_ball;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 16;
    let (k, d) = (2, 3);

    // --- One run, full detail -------------------------------------------
    let mut process = KdChoice::new(k, d)?;
    let (result, state) = run_once_with_state(&mut process, &RunConfig::new(n, 42));

    println!("({k},{d})-choice: {n} balls into {n} bins");
    println!("  max load          : {}", result.max_load);
    println!(
        "  messages          : {} ({:.2}/ball)",
        result.messages,
        result.messages_per_ball()
    );
    println!("  rounds            : {}", result.rounds);

    // ν_y: number of bins with load ≥ y (drops doubly exponentially).
    println!("  load distribution (bins with load = l):");
    for (l, &count) in result.load_histogram.iter().enumerate() {
        if count > 0 {
            println!("    l = {l}: {count}");
        }
    }
    // µ_y: number of balls with height ≥ y.
    println!("  mu_2 (balls at height >= 2): {}", result.mu(2));
    println!("  nu_2 (bins with load >= 2) : {}", result.nu(2));
    assert!(result.nu(2) <= result.mu(2), "nu <= mu always (Theorem 3)");

    // The top of the sorted load vector (the paper's B_1, B_2, ...).
    let sorted = state.sorted_descending();
    println!(
        "  top of sorted vector: {:?}",
        &sorted[..8.min(sorted.len())]
    );

    // --- Theory comparison ----------------------------------------------
    let pred = theorem1_prediction(k, d, n);
    println!(
        "\nTheorem 1 prediction: {:.2} (layered {:.2} + dk-term {:.2}, regime {:?})",
        pred.total(),
        pred.layered_term,
        pred.dk_term,
        pred.regime
    );
    println!(
        "message cost model  : {:.2} probes/ball",
        messages_per_ball(k, d)
    );

    // --- Ten trials, Table 1 style --------------------------------------
    let set = run_trials(
        move |_| KdChoice::new(k, d).expect("valid"),
        &RunConfig::new(n, 7),
        10,
    );
    println!(
        "\n10 trials: observed max loads = {{{}}}, mean = {:.2}",
        set.max_load_set_string(),
        set.mean_max_load()
    );
    Ok(())
}
