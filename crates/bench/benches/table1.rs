//! Regenerates **Table 1** of the paper: "The maximum bin load for
//! (k,d)-choice with n = 3·2¹⁶ and varying k and d values" — every cell is
//! the set of maximum loads observed over 10 independent runs.
//!
//! Run with `cargo bench --bench table1` (full, the paper's exact n and
//! trial count) or `KD_FAST=1 cargo bench --bench table1` (reduced).

use kdchoice_bench::table::Table;
use kdchoice_bench::table1_data::{paper_cells, D_VALUES, K_VALUES};
use kdchoice_bench::{fast_mode, print_header, TABLE1_N, TABLE1_TRIALS};
use kdchoice_core::{run_trials, KdChoice, RunConfig};

fn main() {
    let (n, trials) = if fast_mode() {
        (3 * (1 << 12), 3)
    } else {
        (TABLE1_N, TABLE1_TRIALS)
    };
    print_header(
        "Table 1: max bin load of (k,d)-choice",
        &format!("n = {n}, trials per cell = {trials}, seed = 20110601"),
    );

    // Measure every paper cell.
    let mut measured: Vec<(usize, usize, String, &'static str)> = Vec::new();
    for (k, d, paper) in paper_cells() {
        let cfg = RunConfig::new(n, 20_110_601 + (k * 1000 + d) as u64);
        let set = run_trials(
            move |_| KdChoice::new(k, d).expect("valid cell"),
            &cfg,
            trials,
        );
        measured.push((k, d, set.max_load_set_string(), paper));
    }

    // Render in the paper's grid layout (measured values).
    let mut grid = Table::new(
        std::iter::once("k \\ d".to_string())
            .chain(D_VALUES.iter().map(|d| format!("d={d}")))
            .collect(),
    );
    for &k in &K_VALUES {
        let mut row = vec![format!("k={k}")];
        for &d in &D_VALUES {
            let cell = measured
                .iter()
                .find(|&&(mk, md, ..)| mk == k && md == d)
                .map(|(_, _, m, _)| m.clone())
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        grid.row(row);
    }
    println!("\nMeasured grid (sets of max loads over {trials} runs):\n");
    grid.print();

    // Side-by-side comparison with the published values.
    let mut cmp = Table::new(vec![
        "k".into(),
        "d".into(),
        "paper".into(),
        "measured".into(),
        "overlap".into(),
    ]);
    let mut agree = 0usize;
    let mut total = 0usize;
    for (k, d, m, paper) in &measured {
        let paper_set: Vec<&str> = paper.split(", ").collect();
        let measured_set: Vec<&str> = m.split(", ").collect();
        let overlap = measured_set.iter().any(|v| paper_set.contains(v));
        total += 1;
        if overlap {
            agree += 1;
        }
        cmp.row(vec![
            k.to_string(),
            d.to_string(),
            paper.to_string(),
            m.clone(),
            if overlap { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("\nPaper vs measured:\n");
    cmp.print();
    println!(
        "\ncells with overlapping observed sets: {agree}/{total}{}",
        if fast_mode() {
            "  (fast mode: smaller n shifts small-d cells)"
        } else {
            ""
        }
    );

    // The §1.2 headline observations.
    let find = |k: usize, d: usize| -> &String {
        &measured
            .iter()
            .find(|&&(mk, md, ..)| mk == k && md == d)
            .expect("cell exists")
            .2
    };
    println!("\n§1.2 observations:");
    println!(
        "  (8,9)-choice = {} vs two-choice (1,2) = {}",
        find(8, 9),
        find(1, 2)
    );
    println!(
        "  (128,193)-choice = {} vs (1,193)-choice = {} vs two-choice = {}",
        find(128, 193),
        find(1, 193),
        find(1, 2)
    );
    println!(
        "  (64,65)-choice = {} vs single-choice (1,1) = {}",
        find(64, 65),
        find(1, 1)
    );
}
