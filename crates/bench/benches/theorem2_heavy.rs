//! Verifies **Theorem 2** (heavily loaded case): for `d ≥ 2k` and `m > n`
//! balls into `n` bins, the excess over the average
//! `M(k,d,m,n) − m/n` stays within
//! `[lnln n/ln(d−k+1) − O(1), lnln n/ln⌊d/k⌋ + O(1)]`
//! — in particular it does **not grow with m**, unlike single choice whose
//! gap grows like √(m/n · ln n).

use kdchoice_baselines::SingleChoice;
use kdchoice_bench::table::Table;
use kdchoice_bench::{fast_mode, print_header};
use kdchoice_core::{run_trials, KdChoice, RunConfig};
use kdchoice_theory::bounds::theorem2_gap_band;

fn main() {
    let (n, trials, ratios): (usize, usize, Vec<u64>) = if fast_mode() {
        (1 << 10, 3, vec![1, 4, 16])
    } else {
        (1 << 14, 8, vec![1, 2, 4, 8, 16, 32, 64])
    };
    print_header(
        "Theorem 2: heavy case gap (max load − m/n) for d ≥ 2k",
        &format!("n = {n}, trials = {trials}, m/n in {ratios:?}, slack = 2"),
    );

    let configs: [(usize, usize); 4] = [(1, 2), (2, 4), (4, 8), (2, 5)];
    let mut t = Table::new(
        std::iter::once("process".to_string())
            .chain(ratios.iter().map(|r| format!("m/n={r}")))
            .chain(std::iter::once("band".to_string()))
            .collect(),
    );

    for &(k, d) in &configs {
        let band = theorem2_gap_band(k, d, n, 2.0);
        let mut row = vec![format!("({k},{d})-choice")];
        let mut gaps = Vec::new();
        for &r in &ratios {
            let set = run_trials(
                move |_| KdChoice::new(k, d).expect("valid"),
                &RunConfig::new(n, 8000 + (k * 31 + d) as u64 + r).with_balls(r * n as u64),
                trials,
            );
            let gap = set.mean_gap();
            gaps.push(gap);
            row.push(format!("{gap:.2}"));
        }
        row.push(format!("[{:.1},{:.1}]", band.lo, band.hi));
        t.row(row);
        // Shape assertions: the gap is bounded (within slack) and flat in m.
        for (i, &g) in gaps.iter().enumerate() {
            assert!(
                g <= band.hi + 1.0,
                "({k},{d}) at m/n={}: gap {g} above band {}",
                ratios[i],
                band.hi
            );
        }
        let first = gaps.first().copied().unwrap_or(0.0);
        let last = gaps.last().copied().unwrap_or(0.0);
        assert!(
            last <= first + 2.0,
            "({k},{d}): gap grew with m ({first:.2} -> {last:.2}); Theorem 2 says it must not"
        );
    }

    // Contrast: single choice's gap must grow visibly with m.
    let mut row = vec!["single-choice".to_string()];
    let mut sc_gaps = Vec::new();
    for &r in &ratios {
        let set = run_trials(
            |_| SingleChoice::new(),
            &RunConfig::new(n, 8900 + r).with_balls(r * n as u64),
            trials,
        );
        sc_gaps.push(set.mean_gap());
        row.push(format!("{:.2}", set.mean_gap()));
    }
    row.push("Θ(√(m/n·ln n))".to_string());
    t.row(row);
    t.print();

    let sc_first = sc_gaps.first().copied().unwrap_or(0.0);
    let sc_last = sc_gaps.last().copied().unwrap_or(0.0);
    assert!(
        sc_last > sc_first * 1.5,
        "single-choice gap should grow with m ({sc_first:.2} -> {sc_last:.2})"
    );
    println!("\n(k,d)-choice gaps stay flat in m; single-choice grows: shape confirmed");
}
