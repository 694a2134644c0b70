//! The heavily loaded case (Theorem 2): m > n balls into n bins.
//!
//! For d ≥ 2k, the gap between the maximum and the average load stays
//! bounded as m grows — while single choice's gap diverges like
//! √(m/n · ln n). This example sweeps m/n and prints both.
//!
//! ```sh
//! cargo run --release --example heavy_load
//! ```

use kdchoice::baselines::SingleChoice;
use kdchoice::kd::{run_trials, KdChoice, RunConfig};
use kdchoice::theory::bounds::theorem2_gap_band;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 14;
    let trials = 5;
    let (k, d) = (2, 4);
    let band = theorem2_gap_band(k, d, n, 2.0);
    println!("n = {n}, ({k},{d})-choice vs single choice, {trials} trials");
    println!(
        "Theorem 2 gap band for ({k},{d}): [{:.1}, {:.1}]\n",
        band.lo, band.hi
    );
    println!("{:>6} {:>16} {:>16}", "m/n", "(k,d) gap", "single gap");
    for ratio in [1u64, 2, 4, 8, 16, 32, 64] {
        let kd = run_trials(
            move |_| KdChoice::new(k, d).expect("valid"),
            &RunConfig::new(n, 3000 + ratio).with_balls(ratio * n as u64),
            trials,
        );
        let sc = run_trials(
            |_| SingleChoice::new(),
            &RunConfig::new(n, 4000 + ratio).with_balls(ratio * n as u64),
            trials,
        );
        println!(
            "{:>6} {:>16.2} {:>16.2}",
            ratio,
            kd.mean_gap(),
            sc.mean_gap()
        );
    }
    println!("\n(k,d)-choice: flat gap. single choice: diverging gap.");
    Ok(())
}
