//! Verifies the **Theorem 1** scaling (and Corollary 1) empirically:
//! the measured maximum load is swept across `n` for parameter families in
//! each regime and compared against the predicted bands.
//!
//! * dk = O(1) family `(k, 2k)`: M = lnln n / ln(k+1) ± O(1) — flat in n
//!   once k is moderate, matching Theorem 1(i);
//! * diverging-dk family `(k, k+1)`: M = lnln n / ln 2 + (1±o(1))·ln dk/lnln dk,
//!   matching Theorem 1(ii);
//! * `(1, d)`: the classical d-choice regression check.

use kdchoice_bench::table::Table;
use kdchoice_bench::{fast_mode, print_header};
use kdchoice_core::{run_trials, KdChoice, RunConfig};
use kdchoice_theory::bounds::{theorem1_band, theorem1_prediction};
use kdchoice_theory::dk_ratio;

fn main() {
    let (sizes, trials): (Vec<usize>, usize) = if fast_mode() {
        (vec![1 << 12, 1 << 14], 3)
    } else {
        (vec![1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20], 10)
    };
    print_header(
        "Theorem 1 sweep: measured max load vs predicted band",
        &format!("n in {sizes:?}, trials = {trials}, slack = 3"),
    );

    let families: Vec<(&str, usize, usize)> = vec![
        ("d-choice (1,2)", 1, 2),
        ("d-choice (1,4)", 1, 4),
        ("dk=2 (2,4)", 2, 4),
        ("dk=2 (8,16)", 8, 16),
        ("dk=2 (64,128)", 64, 128),
        ("dk→∞ (4,5)", 4, 5),
        ("dk→∞ (16,17)", 16, 17),
        ("dk→∞ (64,65)", 64, 65),
    ];

    let mut t = Table::new(vec![
        "family".into(),
        "n".into(),
        "dk".into(),
        "regime".into(),
        "prediction".into(),
        "band".into(),
        "measured mean".into(),
        "in band".into(),
    ]);
    let slack = 3.0;
    let mut violations = 0usize;
    for &(label, k, d) in &families {
        for &n in &sizes {
            let set = run_trials(
                move |_| KdChoice::new(k, d).expect("valid"),
                &RunConfig::new(n, 6000 + (k * 7 + d) as u64),
                trials,
            );
            let mean = set.mean_max_load();
            let p = theorem1_prediction(k, d, n);
            let band = theorem1_band(k, d, n, slack);
            let ok = band.contains(mean);
            if !ok {
                violations += 1;
            }
            t.row(vec![
                label.to_string(),
                n.to_string(),
                format!("{:.2}", dk_ratio(k, d)),
                format!("{:?}", p.regime),
                format!("{:.2}", p.total()),
                format!("[{:.1},{:.1}]", band.lo, band.hi),
                format!("{mean:.2}"),
                if ok { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.print();

    // Monotonicity shape: within the (k,k+1) family at fixed n, the max
    // load grows with k (the dk term takes over) — Corollary 1's direction.
    let n = *sizes.last().expect("non-empty");
    let mut prev = 0.0;
    println!("\nCorollary 1 direction at n = {n} (family (k,k+1), mean max):");
    for &k in &[4usize, 16, 64] {
        let set = run_trials(
            move |_| KdChoice::new(k, k + 1).expect("valid"),
            &RunConfig::new(n, 7000 + k as u64),
            trials,
        );
        let mean = set.mean_max_load();
        println!("  k={k:<4} mean max = {mean:.2}");
        assert!(
            mean + 0.75 >= prev,
            "max load should not decrease as k -> d (got {mean} after {prev})"
        );
        prev = mean;
    }

    println!("\nband violations: {violations} (0 expected)");
    assert_eq!(violations, 0, "some measurements fell outside the band");
}
