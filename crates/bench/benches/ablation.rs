//! Ablation for the paper's §7 conjecture: relaxing the multiplicity rule
//! ("the less-loaded candidate bins can receive more balls regardless of how
//! many times those bins are sampled") should **reduce the maximum load even
//! when k ≈ d**, possibly to a constant.
//!
//! Compares [`RoundPolicy::Multiplicity`] (the analyzed policy) against
//! [`RoundPolicy::Unrestricted`] (greedy water-filling over distinct sampled
//! bins) across the (k,k+1) family where the dk term hurts the most.

use kdchoice_bench::table::Table;
use kdchoice_bench::{fast_mode, print_header};
use kdchoice_core::{run_trials, DynamicKChoice, KdChoice, RoundPolicy, RunConfig};

fn main() {
    let (n, trials) = if fast_mode() {
        (3 * (1 << 10), 3)
    } else {
        (3 * (1 << 14), 10)
    };
    print_header(
        "§7 ablation: multiplicity rule vs unrestricted water-filling",
        &format!("n = {n}, trials = {trials}"),
    );

    let configs: [(usize, usize); 6] = [(2, 3), (4, 5), (16, 17), (48, 49), (192, 193), (16, 32)];
    let mut t = Table::new(vec![
        "(k,d)".into(),
        "multiplicity max".into(),
        "unrestricted max".into(),
        "improvement".into(),
    ]);
    for (i, &(k, d)) in configs.iter().enumerate() {
        let std = run_trials(
            move |_| KdChoice::new(k, d).expect("valid"),
            &RunConfig::new(n, 12_000 + i as u64),
            trials,
        );
        let relaxed = run_trials(
            move |_| {
                KdChoice::new(k, d)
                    .expect("valid")
                    .with_policy(RoundPolicy::Unrestricted)
            },
            &RunConfig::new(n, 12_100 + i as u64),
            trials,
        );
        t.row(vec![
            format!("({k},{d})"),
            std.max_load_set_string(),
            relaxed.max_load_set_string(),
            format!("{:+.2}", std.mean_max_load() - relaxed.mean_max_load()),
        ]);
        // The relaxation can only help (it dominates the standard policy).
        assert!(
            relaxed.mean_max_load() <= std.mean_max_load() + 0.35,
            "({k},{d}): unrestricted {} worse than multiplicity {}",
            relaxed.mean_max_load(),
            std.mean_max_load()
        );
    }
    t.print();

    // The §7 conjecture's sharpest form: for k ≈ d large, water-filling
    // keeps the max load tiny where the multiplicity rule pays ln dk/lnln dk.
    let k = 192;
    let std = run_trials(
        move |_| KdChoice::new(k, k + 1).expect("valid"),
        &RunConfig::new(n, 12_200),
        trials,
    );
    let relaxed = run_trials(
        move |_| {
            KdChoice::new(k, k + 1)
                .expect("valid")
                .with_policy(RoundPolicy::Unrestricted)
        },
        &RunConfig::new(n, 12_201),
        trials,
    );
    println!(
        "\n(192,193): multiplicity mean max = {:.2}, unrestricted mean max = {:.2}",
        std.mean_max_load(),
        relaxed.mean_max_load()
    );
    assert!(
        relaxed.mean_max_load() + 1.0 < std.mean_max_load(),
        "water-filling should clearly beat the multiplicity rule at k≈d"
    );
    println!("§7 conjecture direction confirmed");

    // The other §7 direction: dynamic k per round at fixed probe budget d.
    println!("\n§7 dynamic-k variant (probe budget d, adaptive round size):\n");
    let mut t = Table::new(vec![
        "process".into(),
        "max loads".into(),
        "mean max".into(),
        "msgs/ball".into(),
    ]);
    for d in [4usize, 8, 16] {
        let fixed = run_trials(
            move |_| KdChoice::new(d / 2, d).expect("valid"),
            &RunConfig::new(n, 12_300 + d as u64),
            trials,
        );
        let dynamic = run_trials(
            move |_| DynamicKChoice::new(d, 0).expect("valid"),
            &RunConfig::new(n, 12_400 + d as u64),
            trials,
        );
        let mpb = |set: &kdchoice_core::TrialSet| -> f64 {
            set.results
                .iter()
                .map(|r| r.messages_per_ball())
                .sum::<f64>()
                / set.results.len() as f64
        };
        t.row(vec![
            format!("fixed ({},{})", d / 2, d),
            fixed.max_load_set_string(),
            format!("{:.2}", fixed.mean_max_load()),
            format!("{:.2}", mpb(&fixed)),
        ]);
        t.row(vec![
            format!("dynamic-k({d},+0)"),
            dynamic.max_load_set_string(),
            format!("{:.2}", dynamic.mean_max_load()),
            format!("{:.2}", mpb(&dynamic)),
        ]);
        assert!(
            dynamic.mean_max_load() <= fixed.mean_max_load() + 0.25,
            "dynamic k should not lose to fixed k at d = {d}"
        );
    }
    t.print();
    println!("\ndynamic-k matches or beats fixed-k max load (at higher message cost)");
}
