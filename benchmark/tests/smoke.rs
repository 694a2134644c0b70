//! Smoke sizes of every workload, traced and untraced, checked against
//! the metric list in `BENCHMARK.json`; and a guard that the benchmark
//! calls nothing the library plans to delete.

use std::fs;
use std::path::Path;

use kdchoice_benchmark::{per_layer_metrics, run, Scale, END_TO_END, WORKLOADS};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> String {
    fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json exists")
}

#[test]
fn every_listed_metric_is_declared_in_benchmark_json() {
    let json = benchmark_json();
    let e2e: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    let layers = per_layer_metrics();
    for (name, unit) in e2e.iter().chain(&layers) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{workload}\", \"why\": ")));
    }
    let declared = json.matches("\"name\": ").count();
    assert_eq!(declared, WORKLOADS.len() + e2e.len() + layers.len());
}

#[test]
fn smoke_runs_emit_every_metric_and_fail_nothing() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run(workload, 7, 0.01, trace, Scale::Smoke).expect("known workload");
            assert!(out.correct(), "{workload} trace={trace}: a check failed");
            assert_eq!(
                out.failed, 0,
                "{workload} trace={trace}: failed_frac must be 0"
            );
            assert!(out.attempted > 0);
            let expected: Vec<(String, &str)> = if trace {
                per_layer_metrics()
            } else {
                END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
            };
            let got: Vec<(String, &str)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit))
                .collect();
            assert_eq!(got, expected, "{workload} trace={trace}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{workload}: {} not finite", m.name);
                if !trace {
                    assert!(m.value > 0.0, "{workload}: {} must never be 0", m.name);
                }
            }
            let line = out.to_json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("nope", 1, 0.01, false, Scale::Smoke).is_err());
}

/// Names of code the library plans to delete. The benchmark must not
/// call any of it, so a deletion never breaks the benchmark.
const DELETION_CANDIDATES: [&str; 6] = [
    "EngineVersion",
    "Legacy",
    "Sketch",
    "StorageCluster",
    "run_workload",
    "PerRequest",
];

#[test]
fn sources_name_no_deletion_candidate() {
    let mut files = vec![
        manifest_dir().join("run.py"),
        manifest_dir().join("Cargo.toml"),
    ];
    for entry in fs::read_dir(manifest_dir().join("src")).expect("src exists") {
        files.push(entry.expect("readable entry").path());
    }
    for file in files {
        let text = fs::read_to_string(&file).expect("readable source");
        for name in DELETION_CANDIDATES {
            assert!(
                !text.contains(name),
                "{} names deletion candidate {name}",
                file.display()
            );
        }
    }
}
