//! Empirically checks the **Properties of (k,d)-choice** from §3:
//!
//! (i)   Aσ(k,d) ≡ A(k,d) for any serialization schedule σ
//!       (two-sample tests on max-load distributions);
//! (ii)  A(k,d+α) ≤mj A(k,d) — more probes flatten the vector;
//! (iii) A(k−α,d) ≤mj A(k,d) — fewer balls per round flatten it;
//! (iv)  A(αk,αd) ≤mj A(k,d) — scaled-up rounds flatten it;
//! (v)   A(k,d) ≤mj A(k+α,d+α) — diagonal moves toward single choice.
//!
//! Majorization is checked on trial-averaged prefix sums of the sorted load
//! vectors (`E[B_{≤x}]`, a consequence of Definition 2(ii) by linearity),
//! reporting the worst relative violation over all prefixes.

use kdchoice_bench::table::Table;
use kdchoice_bench::{fast_mode, print_header};
use kdchoice_core::{run_trials, KdChoice, RunConfig, SerializedKdChoice, SigmaSchedule};
use kdchoice_stats::order::empirical_majorization;
use kdchoice_stats::tests::mann_whitney_u;

fn main() {
    let (n, trials) = if fast_mode() {
        (1 << 10, 20)
    } else {
        (1 << 13, 60)
    };
    print_header(
        "Properties (i)-(v) of (k,d)-choice (§3)",
        &format!("n = {n}, trials = {trials}"),
    );

    // ---- Property (i): serialization equivalence ----
    println!("\nProperty (i): Aσ(k,d) ≡ A(k,d) — Mann-Whitney on max loads\n");
    let mut t = Table::new(vec![
        "(k,d)".into(),
        "schedule".into(),
        "mean max (A)".into(),
        "mean max (Aσ)".into(),
        "p-value".into(),
        "equivalent".into(),
    ]);
    for &(k, d) in &[(2usize, 3usize), (3, 5), (8, 12)] {
        let base = run_trials(
            move |_| KdChoice::new(k, d).expect("valid"),
            &RunConfig::new(n, 9100 + (k * 13 + d) as u64),
            trials,
        );
        for schedule in [
            SigmaSchedule::Identity,
            SigmaSchedule::Reverse,
            SigmaSchedule::UniformRandom,
        ] {
            let ser = run_trials(
                move |_| SerializedKdChoice::new(k, d, schedule).expect("valid"),
                &RunConfig::new(n, 9500 + (k * 17 + d) as u64),
                trials,
            );
            let test = mann_whitney_u(&base.max_loads_f64(), &ser.max_loads_f64());
            let equivalent = test.p_value > 0.01;
            t.row(vec![
                format!("({k},{d})"),
                schedule.label().to_string(),
                format!("{:.2}", base.mean_max_load()),
                format!("{:.2}", ser.mean_max_load()),
                format!("{:.3}", test.p_value),
                if equivalent { "yes" } else { "NO" }.to_string(),
            ]);
            assert!(
                equivalent,
                "({k},{d}) schedule {}: distributions differ (p = {})",
                schedule.label(),
                test.p_value
            );
        }
    }
    t.print();

    // ---- Properties (ii)-(v): majorization ----
    println!("\nProperties (ii)-(v): A1 ≤mj A2 via mean prefix sums\n");
    let mut t = Table::new(vec![
        "property".into(),
        "A1".into(),
        "A2".into(),
        "max rel violation".into(),
        "holds".into(),
    ]);
    // (property, (k1,d1) ≤mj (k2,d2))
    type Case = (&'static str, (usize, usize), (usize, usize));
    let cases: Vec<Case> = vec![
        ("(ii) more probes", (2, 6), (2, 4)),
        ("(ii) more probes", (4, 12), (4, 6)),
        ("(iii) fewer balls", (1, 4), (3, 4)),
        ("(iii) fewer balls", (2, 8), (6, 8)),
        ("(iv) scaled rounds", (4, 8), (2, 4)),
        ("(iv) scaled rounds", (9, 12), (3, 4)),
        ("(v) diagonal", (1, 2), (3, 4)),
        ("(v) diagonal", (2, 4), (6, 8)),
        ("(v) diagonal", (4, 5), (16, 17)),
    ];
    // Sampling noise on mean prefix sums is O(1/sqrt(trials)) relative.
    let tolerance = 2.5 / (trials as f64).sqrt() * 0.05 + 0.004;
    for (label, (k1, d1), (k2, d2)) in cases {
        let a = run_trials(
            move |_| KdChoice::new(k1, d1).expect("valid"),
            &RunConfig::new(n, 9900 + (k1 * 19 + d1) as u64),
            trials,
        );
        let b = run_trials(
            move |_| KdChoice::new(k2, d2).expect("valid"),
            &RunConfig::new(n, 9950 + (k2 * 23 + d2) as u64),
            trials,
        );
        let report = empirical_majorization(&a.sorted_load_vectors(), &b.sorted_load_vectors());
        let holds = report.max_relative_violation <= tolerance;
        t.row(vec![
            label.to_string(),
            format!("({k1},{d1})"),
            format!("({k2},{d2})"),
            format!("{:.5}", report.max_relative_violation),
            if holds { "yes" } else { "NO" }.to_string(),
        ]);
        assert!(
            holds,
            "{label}: ({k1},{d1}) ≤mj ({k2},{d2}) violated by {} at prefix {}",
            report.max_relative_violation, report.argmax_prefix
        );
    }
    t.print();
    println!("\nall §3 property checks passed (tolerance {tolerance:.5})");
}
