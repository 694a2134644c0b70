//! Golden digests of the static fill drivers: `run_once` (and
//! `run_once_on`) over `KdChoice` under both policies, the eager-key
//! oracle of `common::eager`, a `DChoice` baseline, `run_once_compact`
//! over every `StoreKind`, and one `run_trials` and `run_sweep` set. Each case
//! pins the `Debug` form of its `RunResult` (plus the final per-bin loads
//! and utilization gap where the run keeps its store) through a 64-bit
//! FNV-1a digest, so any change to the generator stream the drivers hand
//! the processes, to the winners, or to the observables shows up as a
//! changed digest.
//!
//! The `run_once*`, `run_trials` and `run_sweep` digests were generated
//! before the drivers learned to prefetch the probes of the next rounds;
//! the drivers must reproduce them unedited. `run_once/legacy(2,4)` was
//! generated by the eager-key engine `KdChoice` used to ship; the test
//! oracle reproduces it, so the oracle is that engine's stream. The
//! `compact/*` digests were generated when `run_once_compact` moved onto
//! the `KdChoice` round engine. Its contract with that engine is locked
//! separately: every lossless compact case equals the `run_once_on` fill
//! of the same process, seed and capacities
//! (`lossless_compact_fills_equal_the_engine_fill`). To print the table
//! for a deliberate re-golden run `cargo test --test static_driver_golden
//! -- --nocapture` and copy the `got` column.

mod common;

use common::eager::EagerKdChoice;
use kdchoice::baselines::DChoice;
use kdchoice::kd::{
    run_once, run_once_compact, run_once_on, run_sweep, run_trials, BinSlab, KdChoice, LoadVector,
    ProbeDistribution, RoundPolicy, RoundProcess, RunConfig, StoreKind,
};

const N: usize = 4096;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn kd(k: usize, d: usize) -> KdChoice {
    KdChoice::new(k, d).expect("valid (k,d)")
}

fn zipf() -> ProbeDistribution {
    ProbeDistribution::zipf(N, 1.0).expect("valid Zipf exponent")
}

/// Two capacity classes, 1 and 4, interleaved.
fn capacities() -> Vec<u32> {
    (0..N).map(|i| if i % 4 == 0 { 4 } else { 1 }).collect()
}

fn once(mut process: impl RoundProcess, config: &RunConfig) -> u64 {
    digest(&run_once(&mut process, config))
}

fn with_capacities() -> u64 {
    let mut process = kd(2, 4);
    let config = RunConfig::new(N, 29).with_balls(3 * N as u64);
    let (result, state) = run_once_on(
        &mut process,
        &config,
        LoadVector::with_capacities(&capacities()),
    );
    digest(&(result, state.loads(), state.utilization_gap()))
}

/// The run shape of every `compact/*` case.
fn compact_config() -> RunConfig {
    RunConfig::new(N, 41).with_balls(2 * N as u64)
}

fn compact(kind: StoreKind, probes: &ProbeDistribution, capacities: Option<&[u32]>) -> u64 {
    let (result, slab) = run_once_compact(kind, 2, 4, probes, capacities, &compact_config());
    let mut loads = Vec::new();
    slab.copy_loads_into(&mut loads);
    digest(&(result, loads, slab.utilization_gap()))
}

fn trials() -> u64 {
    let set = run_trials(|_| kd(2, 3), &RunConfig::new(N, 43), 6);
    digest(&set.results)
}

fn sweep() -> u64 {
    let configs = [
        RunConfig::new(N, 47),
        RunConfig::new(N / 2, 53).with_balls(N as u64),
    ];
    let sets = run_sweep(|_, _| kd(3, 5), &configs, 3);
    digest(&sets.iter().map(|s| &s.results).collect::<Vec<_>>())
}

fn cases() -> Vec<(&'static str, u64)> {
    let caps = capacities();
    let base = RunConfig::new(N, 7);
    vec![
        ("run_once/batched(2,4)", once(kd(2, 4), &base)),
        (
            "run_once/batched(8,48)",
            once(kd(8, 48), &base.with_seed(11)),
        ),
        (
            "run_once/batched(16,96)",
            once(kd(16, 96), &base.with_seed(12)),
        ),
        (
            "run_once/legacy(2,4)",
            once(EagerKdChoice::new(2, 4), &base.with_seed(13)),
        ),
        (
            "run_once/unrestricted(3,5)",
            once(
                kd(3, 5).with_policy(RoundPolicy::Unrestricted),
                &base.with_seed(17),
            ),
        ),
        ("run_once/k=d(4,4)", once(kd(4, 4), &base.with_seed(19))),
        (
            "run_once/zipf(2,4)",
            once(kd(2, 4).with_probes(zipf()), &base.with_seed(23)),
        ),
        ("run_once_on/capacities(2,4)", with_capacities()),
        (
            "run_once/m=8n(2,4)",
            once(kd(2, 4), &base.with_seed(31).with_balls(8 * N as u64)),
        ),
        (
            "run_once/m%k!=0(3,5)",
            once(kd(3, 5), &base.with_seed(33).with_balls(N as u64 + 1)),
        ),
        // Labelled from when it ran boxed; the concrete type draws the
        // same stream, so the digest is unchanged.
        (
            "run_once/dyn_dchoice(3)",
            once(DChoice::new(3).expect("valid d"), &RunConfig::new(N, 37)),
        ),
        (
            "compact/exact",
            compact(StoreKind::Exact, &ProbeDistribution::Uniform, None),
        ),
        (
            "compact/packed4",
            compact(StoreKind::Packed4, &ProbeDistribution::Uniform, None),
        ),
        (
            "compact/packed8",
            compact(StoreKind::Packed8, &ProbeDistribution::Uniform, None),
        ),
        (
            "compact/exact+caps",
            compact(StoreKind::Exact, &ProbeDistribution::Uniform, Some(&caps)),
        ),
        (
            "compact/packed4+caps",
            compact(StoreKind::Packed4, &ProbeDistribution::Uniform, Some(&caps)),
        ),
        (
            "compact/packed8+caps",
            compact(StoreKind::Packed8, &ProbeDistribution::Uniform, Some(&caps)),
        ),
        (
            "compact/exact+zipf",
            compact(StoreKind::Exact, &zipf(), None),
        ),
        (
            "compact/packed4+zipf",
            compact(StoreKind::Packed4, &zipf(), None),
        ),
        (
            "compact/packed8+zipf",
            compact(StoreKind::Packed8, &zipf(), None),
        ),
        ("run_trials/(2,3)x6", trials()),
        ("run_sweep/(3,5)x2x3", sweep()),
    ]
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("run_once/batched(2,4)", 0xf7a2f0fdac02ad64),
    ("run_once/batched(8,48)", 0x53d0253aeb857333),
    ("run_once/batched(16,96)", 0x52dfdb869a4beb9e),
    ("run_once/legacy(2,4)", 0x8e6b8a835ef16764),
    ("run_once/unrestricted(3,5)", 0x4866145a1a63ad79),
    ("run_once/k=d(4,4)", 0x6b95b0b326839b20),
    ("run_once/zipf(2,4)", 0x716f5c70bc49bf3c),
    ("run_once_on/capacities(2,4)", 0x36903b00dc1b3f58),
    ("run_once/m=8n(2,4)", 0xcfaee5cfbbbbec23),
    ("run_once/m%k!=0(3,5)", 0xa70c5c46dc310666),
    ("run_once/dyn_dchoice(3)", 0x22d638ff80cea72d),
    ("compact/exact", 0x19139f9bb2598582),
    ("compact/packed4", 0x4b16deecc0122563),
    ("compact/packed8", 0xbe15f52642679bdf),
    ("compact/exact+caps", 0xe0bb85c9f62848d2),
    ("compact/packed4+caps", 0x4173c80a7dff1f4f),
    ("compact/packed8+caps", 0xeb3fae378040691b),
    ("compact/exact+zipf", 0xfbf65a1d37a2ee2a),
    ("compact/packed4+zipf", 0x82b8c9fadd0a3df0),
    ("compact/packed8+zipf", 0x72d82a74f11ad19d),
    ("run_trials/(2,3)x6", 0x842d61a829ab6bbf),
    ("run_sweep/(3,5)x2x3", 0xd14ebd7021505721),
];

#[test]
fn static_drivers_match_golden_digests() {
    let got = cases();
    let mut mismatches = Vec::new();
    for (&(name, expected), &(got_name, digest)) in GOLDEN.iter().zip(&got) {
        assert_eq!(name, got_name, "golden table out of order");
        if digest != expected {
            mismatches.push(format!(
                "{name}: expected {expected:#018x}, got {digest:#018x}"
            ));
        }
    }
    for (name, digest) in &got {
        println!("    (\"{name}\", {digest:#018x}),");
    }
    assert_eq!(GOLDEN.len(), got.len(), "golden table length");
    assert!(
        mismatches.is_empty(),
        "digest mismatches:\n{}",
        mismatches.join("\n")
    );
}

/// The compact contract: on a slab that stays lossless, `run_once_compact`
/// is the `run_once_on` fill of `KdChoice::new(2, 4)` with the same probes,
/// seed and capacities — the same result (name aside), final loads and
/// utilization gap. `packed4+zipf` saturates its 4-bit lanes, so it is
/// left out and must say so.
#[test]
fn lossless_compact_fills_equal_the_engine_fill() {
    let caps = capacities();
    let (uniform, zipf) = (ProbeDistribution::Uniform, zipf());
    let config = compact_config();
    let lossless: [(StoreKind, &ProbeDistribution, Option<&[u32]>); 8] = [
        (StoreKind::Exact, &uniform, None),
        (StoreKind::Packed4, &uniform, None),
        (StoreKind::Packed8, &uniform, None),
        (StoreKind::Exact, &uniform, Some(&caps)),
        (StoreKind::Packed4, &uniform, Some(&caps)),
        (StoreKind::Packed8, &uniform, Some(&caps)),
        (StoreKind::Exact, &zipf, None),
        (StoreKind::Packed8, &zipf, None),
    ];
    for (kind, probes, capacities) in lossless {
        let label = format!("{kind} {} caps={}", probes.label(), capacities.is_some());
        let (mut compact, slab) = run_once_compact(kind, 2, 4, probes, capacities, &config);
        if let BinSlab::Packed(p) = &slab {
            assert!(p.is_lossless(), "{label}: slab must stay lossless");
        }
        let state = capacities.map_or_else(|| LoadVector::new(N), LoadVector::with_capacities);
        let mut process = kd(2, 4).with_probes(probes.clone());
        let (engine, state) = run_once_on(&mut process, &config, state);
        assert_eq!(compact.name, format!("{}@{kind}", engine.name), "{label}");
        compact.name = engine.name.clone();
        assert_eq!(compact, engine, "{label}");
        let mut loads = Vec::new();
        slab.copy_loads_into(&mut loads);
        assert_eq!(loads, state.loads(), "{label}");
        assert_eq!(slab.utilization_gap(), state.utilization_gap(), "{label}");
    }
    let (_, slab) = run_once_compact(StoreKind::Packed4, 2, 4, &zipf, None, &config);
    assert!(
        matches!(&slab, BinSlab::Packed(p) if !p.is_lossless()),
        "packed4+zipf saturates its lanes"
    );
}
