//! The core experiment families as [`kdchoice_expt::Scenario`]s: static
//! (k,d)-choice trials and the §7 dynamic-k variant.
//!
//! These plug the round engines into the workspace experiment layer —
//! the `kdchoice-bench` CLI runs them by name (`static`, `dynamic`) over
//! a parameter grid, in parallel, with the shared report format.

use kdchoice_expt::{Axis, Fields, GridError, GridSpec, Params, Scenario, Value};
use kdchoice_prng::demand::DemandDistribution;

use crate::compact::StoreKind;
use crate::driver::{run_once, run_once_compact, run_once_on, RunConfig, RunResult};
use crate::dynamic::DynamicKChoice;
use crate::kd::KdChoice;
use crate::probes::{two_tier_capacities, ProbeDistribution};
use crate::state::LoadVector;
use crate::vector::{run_once_vector, PlacementObjective, MAX_DIMS};

/// Parses the shared `dims=` / `objective=` / `demand=` / `demand_max=`
/// axes of the vector-load extension and validates their combination.
///
/// Returns `(dims, objective, demand)`; `(1, Scalar, Unit)` — the
/// defaults — selects the locked scalar path.
fn vector_params_from(
    params: &Params,
) -> Result<(usize, PlacementObjective, DemandDistribution), GridError> {
    let dims = params.get_usize("dims", 1)?;
    if dims == 0 || dims > MAX_DIMS {
        return Err(params.bad_value("dims", &format!("1 <= dims <= {MAX_DIMS}")));
    }
    let objective =
        PlacementObjective::parse(params.get_raw("objective").unwrap_or("scalar"), dims)
            .ok_or_else(|| {
                params.bad_value("objective", "scalar | max_norm | weighted | capacity")
            })?;
    let demand_max = params.get_u32("demand_max", 4)?;
    if demand_max == 0 {
        return Err(params.bad_value("demand_max", "a per-dimension demand of at least 1"));
    }
    let demand = DemandDistribution::parse(params.get_raw("demand").unwrap_or("unit"), demand_max)
        .map_err(|_| params.bad_value("demand", "unit | uniform | correlated | anti"))?;
    Ok((dims, objective, demand))
}

/// Whether a `(dims, objective, demand)` triple leaves the locked scalar
/// path — anything but `(1, Scalar, Unit)` routes through
/// [`run_once_vector`] and requires `store=exact`.
fn is_vector_cell(
    dims: usize,
    objective: &PlacementObjective,
    demand: &DemandDistribution,
) -> bool {
    dims != 1 || *objective != PlacementObjective::Scalar || *demand != DemandDistribution::Unit
}

/// The report fields shared by every [`RunResult`]-producing scenario.
fn run_result_fields(r: &RunResult) -> Fields {
    vec![
        ("process", Value::Str(r.name.clone().into())),
        ("max_load", Value::U64(u64::from(r.max_load))),
        ("gap", Value::F64(r.gap)),
        ("balls_placed", Value::U64(r.balls_placed)),
        ("messages", Value::U64(r.messages)),
        ("messages_per_ball", Value::F64(r.messages_per_ball())),
        ("rounds", Value::U64(r.rounds)),
        ("nu_2", Value::U64(r.nu(2))),
        ("mu_2", Value::U64(r.mu(2))),
    ]
}

/// Config of one static (k,d)-choice cell: process parameters plus the
/// run shape.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticConfig {
    /// Balls per round, `k`.
    pub k: usize,
    /// Probes per round, `d ≥ k`.
    pub d: usize,
    /// Which bin-store representation holds the loads. `Exact` runs the
    /// round engine over a [`LoadVector`]; the packed kinds run it over the
    /// packed table ([`run_once_compact`]).
    pub store: StoreKind,
    /// Demand-vector dimensionality (1 = the scalar paper process).
    pub dims: usize,
    /// How probe comparison keys are computed from a load vector.
    pub objective: PlacementObjective,
    /// How per-round demand vectors are drawn.
    pub demand: DemandDistribution,
    /// Bins, balls, and master seed.
    pub run: RunConfig,
}

impl StaticConfig {
    /// Whether this cell routes through the vector driver.
    pub fn is_vector(&self) -> bool {
        is_vector_cell(self.dims, &self.objective, &self.demand)
    }
}

/// Static (k,d)-choice trials — the paper's Table 1 / Theorem 1 setting,
/// as a registry scenario named `static`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticScenario;

impl Scenario for StaticScenario {
    type Config = StaticConfig;
    type Record = RunResult;

    fn name(&self) -> &'static str {
        "static"
    }

    fn description(&self) -> &'static str {
        "static (k,d)-choice balls-into-bins trials (Table 1 / Theorems 1-2)"
    }

    fn run(&self, config: &Self::Config, seed: u64) -> RunResult {
        if config.is_vector() {
            return run_once_vector(
                config.k,
                config.d,
                config.dims,
                &config.objective,
                &config.demand,
                &ProbeDistribution::Uniform,
                None,
                &config.run.with_seed(seed),
            )
            .0;
        }
        if !config.store.is_exact() {
            return run_once_compact(
                config.store,
                config.k,
                config.d,
                &ProbeDistribution::Uniform,
                None,
                &config.run.with_seed(seed),
            )
            .0;
        }
        let mut process =
            KdChoice::new(config.k, config.d).expect("validated at config construction");
        run_once(&mut process, &config.run.with_seed(seed))
    }

    fn base_seed(&self, config: &Self::Config) -> u64 {
        config.run.seed
    }

    fn config_fields(&self, config: &Self::Config) -> Fields {
        vec![
            ("k", Value::U64(config.k as u64)),
            ("d", Value::U64(config.d as u64)),
            ("n", Value::U64(config.run.n as u64)),
            ("balls", Value::U64(config.run.balls)),
            ("store", Value::Str(config.store.name().into())),
            ("dims", Value::U64(config.dims as u64)),
            ("objective", Value::Str(config.objective.name().into())),
            ("demand", Value::Str(config.demand.name().into())),
        ]
    }

    fn record_fields(&self, record: &Self::Record) -> Fields {
        run_result_fields(record)
    }

    fn axes(&self) -> &'static [Axis] {
        const AXES: &[Axis] = &[
            Axis::new("k", "balls per round (default 2)"),
            Axis::new("d", "probes per round, d >= k (default k+1)"),
            Axis::new("n", "bins (default 2^16; accepts 2^k)"),
            Axis::new("balls", "balls to throw (default n)"),
            Axis::new(
                "store",
                "bin store: exact | packed4 | packed8 (default exact)",
            ),
            Axis::new(
                "dims",
                "demand-vector dimensionality, 1..=8 (default 1 = the scalar paper process)",
            ),
            Axis::new(
                "objective",
                "probe comparison key: scalar | max_norm | weighted | capacity (default scalar)",
            ),
            Axis::new(
                "demand",
                "ball demand distribution: unit | uniform | correlated | anti (default unit)",
            ),
            Axis::new(
                "demand_max",
                "largest per-dimension demand of non-unit distributions (default 4)",
            ),
            Axis::new("seed", "master seed (default: --seed)"),
        ];
        AXES
    }

    fn config_from_params(&self, params: &Params) -> Result<Self::Config, GridError> {
        let k = params.get_usize("k", 2)?;
        let d = params.get_usize("d", k + 1)?;
        if k == 0 || k > d {
            return Err(params.bad_value("d", &format!("1 <= k <= d (got k={k}, d={d})")));
        }
        let n = params.get_usize("n", 1 << 16)?;
        if n == 0 {
            return Err(params.bad_value("n", "at least one bin"));
        }
        let store = StoreKind::parse(params.get_raw("store").unwrap_or("exact"))
            .ok_or_else(|| params.bad_value("store", "exact | packed4 | packed8"))?;
        let (dims, objective, demand) = vector_params_from(params)?;
        if is_vector_cell(dims, &objective, &demand) && store != StoreKind::Exact {
            return Err(params.bad_value(
                "store",
                "exact (vector loads — dims > 1, non-scalar objective, or non-unit demand — need the exact store)",
            ));
        }
        let seed = params.get_u64("seed", 0)?;
        let balls = params.get_u64("balls", n as u64)?;
        Ok(StaticConfig {
            k,
            d,
            store,
            dims,
            objective,
            demand,
            run: RunConfig::new(n, seed).with_balls(balls),
        })
    }

    fn smoke_grid(&self) -> GridSpec {
        GridSpec::parse_str("k=1,2 d=3 n=512 store=exact,packed4").expect("static smoke grid")
    }

    fn throughput_unit(&self) -> &'static str {
        "balls/sec"
    }
}

/// Config of one dynamic-k cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicConfig {
    /// Probe budget per round.
    pub d: usize,
    /// Acceptance slack above the running average.
    pub slack: u32,
    /// Bins, balls, and master seed.
    pub run: RunConfig,
}

/// Dynamic-k (k,d)-choice (§7 future work) as a registry scenario named
/// `dynamic`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicScenario;

impl Scenario for DynamicScenario {
    type Config = DynamicConfig;
    type Record = RunResult;

    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn description(&self) -> &'static str {
        "dynamic-k (k,d)-choice: per-round k adapts to the sampled loads (section 7)"
    }

    fn run(&self, config: &Self::Config, seed: u64) -> RunResult {
        let mut process =
            DynamicKChoice::new(config.d, config.slack).expect("validated at config construction");
        run_once(&mut process, &config.run.with_seed(seed))
    }

    fn base_seed(&self, config: &Self::Config) -> u64 {
        config.run.seed
    }

    fn config_fields(&self, config: &Self::Config) -> Fields {
        vec![
            ("d", Value::U64(config.d as u64)),
            ("slack", Value::U64(u64::from(config.slack))),
            ("n", Value::U64(config.run.n as u64)),
            ("balls", Value::U64(config.run.balls)),
        ]
    }

    fn record_fields(&self, record: &Self::Record) -> Fields {
        run_result_fields(record)
    }

    fn axes(&self) -> &'static [Axis] {
        const AXES: &[Axis] = &[
            Axis::new("d", "probes per round (default 8)"),
            Axis::new("slack", "acceptance slack above average load (default 1)"),
            Axis::new("n", "bins (default 2^16; accepts 2^k)"),
            Axis::new("balls", "balls to throw (default n)"),
            Axis::new("seed", "master seed (default: --seed)"),
        ];
        AXES
    }

    fn config_from_params(&self, params: &Params) -> Result<Self::Config, GridError> {
        let d = params.get_usize("d", 8)?;
        if d == 0 {
            return Err(params.bad_value("d", "at least one probe per round"));
        }
        let slack = params.get_u32("slack", 1)?;
        let n = params.get_usize("n", 1 << 16)?;
        if n == 0 {
            return Err(params.bad_value("n", "at least one bin"));
        }
        let seed = params.get_u64("seed", 0)?;
        let balls = params.get_u64("balls", n as u64)?;
        Ok(DynamicConfig {
            d,
            slack,
            run: RunConfig::new(n, seed).with_balls(balls),
        })
    }

    fn smoke_grid(&self) -> GridSpec {
        GridSpec::parse_str("d=4,8 n=512").expect("dynamic smoke grid")
    }

    fn throughput_unit(&self) -> &'static str {
        "balls/sec"
    }
}

/// The probe skew of one `hetero` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeSkew {
    /// Uniform probing — the paper's model (and the bit-identical
    /// baseline the equivalence test pins).
    Uniform,
    /// Zipf(s) probing, `P(bin i) ∝ 1/(i+1)^s`.
    Zipf(f64),
    /// Two-tier probing: every `every`-th bin is probed `ratio×` as
    /// often.
    TwoTier,
    /// Capacity-proportional probing `P(bin) ∝ c_bin` (uniform when the
    /// capacity spread is flat).
    Capacity,
}

impl ProbeSkew {
    /// The report label.
    pub fn label(&self) -> &'static str {
        match self {
            ProbeSkew::Uniform => "uniform",
            ProbeSkew::Zipf(_) => "zipf",
            ProbeSkew::TwoTier => "two_tier",
            ProbeSkew::Capacity => "capacity",
        }
    }
}

/// The capacity spread of one `hetero` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacitySpread {
    /// Every bin has capacity 1 (homogeneous — the paper's model).
    One,
    /// Every `every`-th bin has capacity `ratio`, the rest capacity 1
    /// (the "two-tier 10×" cluster).
    TwoTier,
}

impl CapacitySpread {
    /// The report label.
    pub fn label(&self) -> &'static str {
        match self {
            CapacitySpread::One => "one",
            CapacitySpread::TwoTier => "two_tier",
        }
    }
}

/// Config of one heterogeneous cell: probe skew × capacity spread ×
/// (k, d) × offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroConfig {
    /// Balls per round, `k`.
    pub k: usize,
    /// Probes per round, `d ≥ k`.
    pub d: usize,
    /// Number of bins.
    pub n: usize,
    /// How probes are skewed across bins.
    pub skew: ProbeSkew,
    /// How capacities are spread across bins.
    pub spread: CapacitySpread,
    /// The two-tier boost: probe weight and/or capacity of the hot/fat
    /// bins.
    pub ratio: u32,
    /// The two-tier stride: bins `≡ 0 mod every` are hot/fat.
    pub every: usize,
    /// Offered load in balls **per unit capacity**: the run throws
    /// `round(lambda × total_capacity)` balls, so `lambda = 1` fills the
    /// cluster to one ball per capacity unit regardless of the spread.
    pub lambda: f64,
    /// Which bin-store representation holds the loads.
    pub store: StoreKind,
    /// Demand-vector dimensionality (1 = the scalar process).
    pub dims: usize,
    /// How probe comparison keys are computed from a load vector.
    pub objective: PlacementObjective,
    /// How per-round demand vectors are drawn.
    pub demand: DemandDistribution,
    /// Master seed.
    pub seed: u64,
}

impl HeteroConfig {
    /// The per-bin capacity map of this cell (`None` = all 1).
    pub fn capacities(&self) -> Option<Vec<u32>> {
        match self.spread {
            CapacitySpread::One => None,
            CapacitySpread::TwoTier => Some(two_tier_capacities(self.n, self.every, self.ratio)),
        }
    }

    /// The probe distribution of this cell.
    pub fn probe_distribution(&self) -> ProbeDistribution {
        match self.skew {
            ProbeSkew::Uniform => ProbeDistribution::Uniform,
            ProbeSkew::Zipf(s) => {
                ProbeDistribution::zipf(self.n, s).expect("validated at config construction")
            }
            ProbeSkew::TwoTier => ProbeDistribution::two_tier(self.n, self.every, self.ratio)
                .expect("validated at config construction"),
            ProbeSkew::Capacity => match self.capacities() {
                Some(caps) => ProbeDistribution::proportional_to(&caps)
                    .expect("validated at config construction"),
                None => ProbeDistribution::Uniform,
            },
        }
    }

    /// `Σ c_bin` of this cell.
    pub fn total_capacity(&self) -> u64 {
        self.capacities()
            .map_or(self.n as u64, |c| c.iter().map(|&x| u64::from(x)).sum())
    }

    /// Balls thrown by this cell: `round(lambda × total_capacity)`, at
    /// least 1.
    pub fn balls(&self) -> u64 {
        ((self.lambda * self.total_capacity() as f64).round() as u64).max(1)
    }

    /// Whether this cell routes through the vector driver.
    pub fn is_vector(&self) -> bool {
        is_vector_cell(self.dims, &self.objective, &self.demand)
    }
}

/// The record of one heterogeneous run: the usual [`RunResult`] plus the
/// capacity-normalized observables read off the final state.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroRecord {
    /// The standard run observables (max load, load gap, histograms, …).
    pub result: RunResult,
    /// Final `max_bin load_bin / c_bin`.
    pub max_utilization: f64,
    /// Final capacity-normalized gap `max utilization − balls /
    /// total_capacity`.
    pub utilization_gap: f64,
    /// `Σ c_bin` of the cell.
    pub total_capacity: u64,
    /// Per-dimension gaps `max_j − mean_j` of the final state. One entry
    /// per dimension; on the scalar path this is `[result.gap]`.
    pub dim_gaps: Vec<f64>,
}

/// Heterogeneous bins & weighted probing as a registry scenario named
/// `hetero`: (k,d)-choice under skewed probe distributions (Zipf,
/// two-tier, capacity-proportional) over unequal-capacity bins, reporting
/// both the raw load observables and their capacity-normalized analogues.
///
/// With `skew=uniform` and `spread=one` the cell runs the **identical
/// generator stream** as the `static` scenario at the same `(k, d, n,
/// balls, seed)` — locked bit-for-bit by test — so the heterogeneous
/// family is a strict superset of the paper's setting, not a parallel
/// implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeteroScenario;

impl Scenario for HeteroScenario {
    type Config = HeteroConfig;
    type Record = HeteroRecord;

    fn name(&self) -> &'static str {
        "hetero"
    }

    fn description(&self) -> &'static str {
        "heterogeneous bins: weighted/Zipf/two-tier probing over unequal capacities, capacity-normalized gap"
    }

    fn run(&self, config: &Self::Config, seed: u64) -> HeteroRecord {
        let run = RunConfig::new(config.n, seed).with_balls(config.balls());
        if config.is_vector() {
            let (result, store) = run_once_vector(
                config.k,
                config.d,
                config.dims,
                &config.objective,
                &config.demand,
                &config.probe_distribution(),
                config.capacities().as_deref(),
                &run,
            );
            return HeteroRecord {
                max_utilization: store.balls().max_utilization(),
                utilization_gap: store.balls().utilization_gap(),
                total_capacity: store.balls().total_capacity(),
                dim_gaps: store.dim_gaps(),
                result,
            };
        }
        if !config.store.is_exact() {
            let (result, slab) = run_once_compact(
                config.store,
                config.k,
                config.d,
                &config.probe_distribution(),
                config.capacities().as_deref(),
                &run,
            );
            return HeteroRecord {
                max_utilization: slab.max_utilization(),
                utilization_gap: slab.utilization_gap(),
                total_capacity: slab.total_capacity(),
                dim_gaps: vec![result.gap],
                result,
            };
        }
        let state = match config.capacities() {
            None => LoadVector::new(config.n),
            Some(caps) => LoadVector::with_capacities(&caps),
        };
        let mut process = KdChoice::new(config.k, config.d)
            .expect("validated at config construction")
            .with_probes(config.probe_distribution());
        let (result, final_state) = run_once_on(&mut process, &run, state);
        HeteroRecord {
            max_utilization: final_state.max_utilization(),
            utilization_gap: final_state.utilization_gap(),
            total_capacity: final_state.total_capacity(),
            dim_gaps: vec![result.gap],
            result,
        }
    }

    fn base_seed(&self, config: &Self::Config) -> u64 {
        config.seed
    }

    fn config_fields(&self, config: &Self::Config) -> Fields {
        let s = match config.skew {
            ProbeSkew::Zipf(s) => s,
            _ => 0.0,
        };
        vec![
            ("k", Value::U64(config.k as u64)),
            ("d", Value::U64(config.d as u64)),
            ("n", Value::U64(config.n as u64)),
            ("skew", Value::Str(config.skew.label().into())),
            ("s", Value::F64(s)),
            ("spread", Value::Str(config.spread.label().into())),
            ("ratio", Value::U64(u64::from(config.ratio))),
            ("every", Value::U64(config.every as u64)),
            ("lambda", Value::F64(config.lambda)),
            ("balls", Value::U64(config.balls())),
            ("store", Value::Str(config.store.name().into())),
            ("dims", Value::U64(config.dims as u64)),
            ("objective", Value::Str(config.objective.name().into())),
            ("demand", Value::Str(config.demand.name().into())),
        ]
    }

    fn record_fields(&self, record: &Self::Record) -> Fields {
        let mut fields = run_result_fields(&record.result);
        fields.push(("max_util", Value::F64(record.max_utilization)));
        fields.push(("util_gap", Value::F64(record.utilization_gap)));
        fields.push(("capacity", Value::U64(record.total_capacity)));
        let max_dim_gap = record.dim_gaps.iter().cloned().fold(0.0f64, f64::max);
        fields.push(("max_dim_gap", Value::F64(max_dim_gap)));
        fields
    }

    fn axes(&self) -> &'static [Axis] {
        const AXES: &[Axis] = &[
            Axis::new(
                "skew",
                "probe skew: uniform | zipf | two_tier | capacity (default uniform)",
            ),
            Axis::new("s", "zipf exponent, skew=zipf only (default 1.0)"),
            Axis::new(
                "spread",
                "capacity spread: one | two_tier (default one = all capacities 1)",
            ),
            Axis::new(
                "ratio",
                "two-tier boost: hot-bin probe weight / fat-bin capacity (default 10)",
            ),
            Axis::new(
                "every",
                "two-tier stride: bins = 0 mod every are hot/fat (default 10)",
            ),
            Axis::new("k", "balls per round (default 2)"),
            Axis::new("d", "probes per round, d >= k (default 4)"),
            Axis::new("n", "bins (default 2^12; accepts 2^k)"),
            Axis::new(
                "lambda",
                "balls per unit capacity; throws round(lambda * total capacity) balls (default 1.0)",
            ),
            Axis::new(
                "store",
                "bin store: exact | packed4 | packed8 (default exact)",
            ),
            Axis::new(
                "dims",
                "demand-vector dimensionality, 1..=8 (default 1 = the scalar process)",
            ),
            Axis::new(
                "objective",
                "probe comparison key: scalar | max_norm | weighted | capacity (default scalar)",
            ),
            Axis::new(
                "demand",
                "ball demand distribution: unit | uniform | correlated | anti (default unit)",
            ),
            Axis::new(
                "demand_max",
                "largest per-dimension demand of non-unit distributions (default 4)",
            ),
            Axis::new("seed", "master seed (default: --seed)"),
        ];
        AXES
    }

    fn config_from_params(&self, params: &Params) -> Result<Self::Config, GridError> {
        let k = params.get_usize("k", 2)?;
        let d = params.get_usize("d", 4)?;
        if k == 0 || k > d {
            return Err(params.bad_value("d", &format!("1 <= k <= d (got k={k}, d={d})")));
        }
        let n = params.get_usize("n", 1 << 12)?;
        if n == 0 {
            return Err(params.bad_value("n", "at least one bin"));
        }
        let s = params.get_f64("s", 1.0)?;
        if !(s.is_finite() && s >= 0.0) {
            return Err(params.bad_value("s", "a finite zipf exponent >= 0"));
        }
        let skew = match params.get_raw("skew").unwrap_or("uniform") {
            "uniform" => ProbeSkew::Uniform,
            "zipf" => ProbeSkew::Zipf(s),
            "two_tier" => ProbeSkew::TwoTier,
            "capacity" => ProbeSkew::Capacity,
            _ => {
                return Err(params.bad_value("skew", "uniform | zipf | two_tier | capacity"));
            }
        };
        let spread = match params.get_raw("spread").unwrap_or("one") {
            "one" => CapacitySpread::One,
            "two_tier" => CapacitySpread::TwoTier,
            _ => return Err(params.bad_value("spread", "one | two_tier")),
        };
        let ratio = params.get_u32("ratio", 10)?;
        if ratio == 0 {
            return Err(params.bad_value("ratio", "a boost of at least 1"));
        }
        let every = params.get_usize("every", 10)?;
        if every == 0 {
            return Err(params.bad_value("every", "a stride of at least 1"));
        }
        let lambda = params.get_f64("lambda", 1.0)?;
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(params.bad_value("lambda", "a positive load factor"));
        }
        let store = StoreKind::parse(params.get_raw("store").unwrap_or("exact"))
            .ok_or_else(|| params.bad_value("store", "exact | packed4 | packed8"))?;
        let (dims, objective, demand) = vector_params_from(params)?;
        if is_vector_cell(dims, &objective, &demand) && store != StoreKind::Exact {
            return Err(params.bad_value(
                "store",
                "exact (vector loads — dims > 1, non-scalar objective, or non-unit demand — need the exact store)",
            ));
        }
        Ok(HeteroConfig {
            k,
            d,
            n,
            skew,
            spread,
            ratio,
            every,
            lambda,
            store,
            dims,
            objective,
            demand,
            seed: params.get_u64("seed", 0)?,
        })
    }

    fn smoke_grid(&self) -> GridSpec {
        GridSpec::parse_str(
            "n=2^8 k=2 d=4 skew=uniform,zipf,two_tier,capacity spread=one,two_tier lambda=1 every=8",
        )
        .expect("hetero smoke grid")
    }

    fn throughput_unit(&self) -> &'static str {
        "balls/sec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_expt::{configs_from_grid, SweepReport, SweepRunner};
    use kdchoice_prng::derive_seed;

    #[test]
    fn static_sweep_is_bit_identical_to_serial_run_once() {
        // The acceptance criterion: the scenario path through the shared
        // SweepRunner reproduces the pre-refactor serial loop bit for bit.
        let grid = GridSpec::parse_str("k=1,2 d=3 n=256 seed=9").unwrap();
        let configs = configs_from_grid(&StaticScenario, &grid, 9).unwrap();
        assert_eq!(configs.len(), 2);
        let trials = 4;
        let cells = SweepRunner::new().run_scenario(&StaticScenario, &configs, trials);
        for (cell, config) in cells.iter().zip(&configs) {
            for run in &cell.runs {
                // Pre-refactor serial path: run_once with the derived seed.
                let mut p = KdChoice::new(config.k, config.d).unwrap();
                let seed = derive_seed(config.run.seed, run.trial as u64);
                let serial = run_once(&mut p, &config.run.with_seed(seed));
                assert_eq!(run.record, serial, "k={} trial={}", config.k, run.trial);
            }
        }
    }

    #[test]
    fn dynamic_sweep_is_bit_identical_to_serial_run_once() {
        let grid = GridSpec::parse_str("d=6 n=256").unwrap();
        let configs = configs_from_grid(&DynamicScenario, &grid, 3).unwrap();
        let cells = SweepRunner::new().run_scenario(&DynamicScenario, &configs, 3);
        for (cell, config) in cells.iter().zip(&configs) {
            for run in &cell.runs {
                let mut p = DynamicKChoice::new(config.d, config.slack).unwrap();
                let seed = derive_seed(config.run.seed, run.trial as u64);
                let serial = run_once(&mut p, &config.run.with_seed(seed));
                assert_eq!(run.record, serial);
            }
        }
    }

    #[test]
    fn static_grid_validates_parameters() {
        let bad = GridSpec::parse_str("k=4 d=2").unwrap();
        assert!(configs_from_grid(&StaticScenario, &bad, 0).is_err());
        let unknown = GridSpec::parse_str("q=1").unwrap();
        assert!(matches!(
            configs_from_grid(&StaticScenario, &unknown, 0),
            Err(GridError::UnknownAxis { .. })
        ));
        // `KdChoice` runs one round engine, so there is no engine axis.
        let engine = GridSpec::parse_str("engine=batched n=64").unwrap();
        assert!(matches!(
            configs_from_grid(&StaticScenario, &engine, 0),
            Err(GridError::UnknownAxis { .. })
        ));
        for bad in ["store=psychic", "store=sketch"] {
            let bad_store = GridSpec::parse_str(bad).unwrap();
            assert!(matches!(
                configs_from_grid(&StaticScenario, &bad_store, 0),
                Err(GridError::BadValue { ref expected, .. }) if expected == "exact | packed4 | packed8"
            ));
        }
        let stores = GridSpec::parse_str("store=exact,packed4,packed8 n=64").unwrap();
        let configs = configs_from_grid(&StaticScenario, &stores, 0).unwrap();
        assert_eq!(configs[1].store, StoreKind::Packed4);
        assert_eq!(configs[2].store, StoreKind::Packed8);
    }

    /// The `store=` axis of the static scenario: a packed cell runs the
    /// identical engine stream as an exact compact fill (the slab stays
    /// lossless at n balls into n bins).
    #[test]
    fn static_store_axis_matches_exact_compact_fill() {
        use crate::driver::run_once_compact;
        let grid = GridSpec::parse_str("k=2 d=4 n=256 store=packed4,packed8 seed=21").unwrap();
        let configs = configs_from_grid(&StaticScenario, &grid, 21).unwrap();
        let run = RunConfig::new(256, 21);
        let (exact, slab) = run_once_compact(
            StoreKind::Exact,
            2,
            4,
            &ProbeDistribution::Uniform,
            None,
            &run,
        );
        assert!(slab.check_invariants());
        for cfg in &configs {
            let got = StaticScenario.run(cfg, 21);
            assert_eq!(got.max_load, exact.max_load, "{}", cfg.store);
            assert_eq!(got.load_histogram, exact.load_histogram, "{}", cfg.store);
            assert_eq!(
                got.height_histogram, exact.height_histogram,
                "{}",
                cfg.store
            );
        }
    }

    #[test]
    fn reports_render_valid_json() {
        let grid = GridSpec::parse_str("k=2 d=4 n=128").unwrap();
        let configs = configs_from_grid(&StaticScenario, &grid, 1).unwrap();
        let cells = SweepRunner::new().run_scenario(&StaticScenario, &configs, 2);
        let report = SweepReport::from_cells(&StaticScenario, &configs, &cells);
        assert_eq!(report.rows.len(), 2);
        for line in report.to_jsonl().lines() {
            kdchoice_expt::validate_json(line).unwrap();
            assert!(line.contains("\"scenario\": \"static\""));
            assert!(line.contains("\"max_load\""));
        }
    }

    #[test]
    fn smoke_grids_are_tiny_and_runnable() {
        for scenario in [
            &StaticScenario as &dyn kdchoice_expt::RunnableScenario,
            &DynamicScenario,
            &HeteroScenario,
        ] {
            let report = scenario
                .run_grid(&scenario.smoke_grid(), 1, 0, &SweepRunner::new())
                .unwrap();
            assert!(!report.rows.is_empty());
            assert!(report.rows.len() <= 8, "smoke grid too large");
        }
    }

    /// The acceptance criterion of the heterogeneous tentpole: with all
    /// weights equal and all capacities 1, the `hetero` cell's event
    /// stream — and therefore its entire result, histograms included —
    /// is **bit-identical** to the pre-existing uniform `static` path.
    #[test]
    fn hetero_uniform_is_bit_identical_to_static() {
        let grid = GridSpec::parse_str("k=1,2 d=2,4 n=256 lambda=1 seed=13").unwrap();
        let hetero_configs = configs_from_grid(&HeteroScenario, &grid, 13).unwrap();
        assert_eq!(hetero_configs.len(), 4);
        for cfg in &hetero_configs {
            assert_eq!(cfg.balls(), 256);
            for trial in 0..3u64 {
                let seed = derive_seed(cfg.seed, trial);
                let hetero = HeteroScenario.run(cfg, seed);
                let static_cfg = StaticConfig {
                    k: cfg.k,
                    d: cfg.d,
                    store: StoreKind::Exact,
                    dims: 1,
                    objective: PlacementObjective::Scalar,
                    demand: DemandDistribution::Unit,
                    run: RunConfig::new(cfg.n, 13).with_balls(256),
                };
                let uniform = StaticScenario.run(&static_cfg, seed);
                assert_eq!(
                    hetero.result, uniform,
                    "k={} d={} trial={trial}",
                    cfg.k, cfg.d
                );
                // Homogeneous capacities: the normalized observables
                // coincide with the raw ones.
                assert_eq!(hetero.total_capacity, 256);
                assert_eq!(hetero.max_utilization, f64::from(uniform.max_load));
                assert!((hetero.utilization_gap - uniform.gap).abs() < 1e-12);
            }
        }
    }

    /// An equal-weight `Weighted` distribution degenerates to the same
    /// stream: the seam itself cannot perturb uniform results.
    #[test]
    fn equal_weight_process_matches_uniform_process() {
        use crate::driver::run_once;
        let cfg = RunConfig::new(512, 77).with_balls(1024);
        let mut uniform = KdChoice::new(2, 4).unwrap();
        let want = run_once(&mut uniform, &cfg);
        let mut weighted = KdChoice::new(2, 4)
            .unwrap()
            .with_probes(ProbeDistribution::weighted(&vec![5.0; 512]).unwrap());
        let mut got = run_once(&mut weighted, &cfg);
        // The name advertises the declared distribution ("@weighted");
        // everything observable is identical.
        assert_eq!(got.name, "(2,4)-choice@weighted");
        got.name = want.name.clone();
        assert_eq!(got, want);
    }

    #[test]
    fn hetero_grid_validates_parameters() {
        for bad in [
            "skew=psychic",
            "spread=lumpy",
            "s=-1",
            "ratio=0",
            "every=0",
            "lambda=0",
            "lambda=-2",
            "k=3 d=2",
            "n=0",
            "store=psychic",
        ] {
            let grid = GridSpec::parse_str(bad).unwrap();
            assert!(
                configs_from_grid(&HeteroScenario, &grid, 0).is_err(),
                "{bad} should be rejected"
            );
        }
        let sketch = GridSpec::parse_str("store=sketch").unwrap();
        assert!(matches!(
            configs_from_grid(&HeteroScenario, &sketch, 0),
            Err(GridError::BadValue { ref expected, .. }) if expected == "exact | packed4 | packed8"
        ));
        let grid = GridSpec::parse_str("skew=zipf s=1.5 spread=two_tier n=100").unwrap();
        let cfg = &configs_from_grid(&HeteroScenario, &grid, 0).unwrap()[0];
        assert_eq!(cfg.skew, ProbeSkew::Zipf(1.5));
        assert_eq!(cfg.spread, CapacitySpread::TwoTier);
        // 10 fat bins of capacity 10 + 90 of capacity 1.
        assert_eq!(cfg.total_capacity(), 190);
        assert_eq!(cfg.balls(), 190);
    }

    /// A packed slab carries the capacity seam end to end: the `hetero`
    /// `store=packed4` cell reports the same capacity totals as its
    /// config and sane normalized observables.
    #[test]
    fn hetero_packed_store_carries_capacities() {
        let grid = GridSpec::parse_str(
            "skew=capacity spread=two_tier n=128 every=8 lambda=2 store=packed4",
        )
        .unwrap();
        let cfg = &configs_from_grid(&HeteroScenario, &grid, 4).unwrap()[0];
        let rec = HeteroScenario.run(cfg, 4);
        assert_eq!(rec.total_capacity, cfg.total_capacity());
        assert_eq!(rec.result.balls_placed, cfg.balls());
        assert!(rec.max_utilization > 0.0);
        assert!(rec.result.name.contains("packed4"), "{}", rec.result.name);
    }

    /// Zipf probing concentrates load: the head bin must end far above
    /// average, and the capacity-normalized gap must exceed the uniform
    /// cell's.
    #[test]
    fn zipf_skew_produces_a_worse_gap_than_uniform() {
        let grid = GridSpec::parse_str("skew=uniform,zipf s=1.0 n=2^10 d=4 lambda=4").unwrap();
        let configs = configs_from_grid(&HeteroScenario, &grid, 3).unwrap();
        let uniform = HeteroScenario.run(&configs[0], 3);
        let zipf = HeteroScenario.run(&configs[1], 3);
        assert_eq!(uniform.result.balls_placed, zipf.result.balls_placed);
        assert!(
            zipf.utilization_gap > uniform.utilization_gap + 1.0,
            "zipf gap {} vs uniform gap {}",
            zipf.utilization_gap,
            uniform.utilization_gap
        );
        assert!(zipf.result.name.contains("zipf"), "{}", zipf.result.name);
        // A packed cell keeps the probe label and appends its store.
        let grid =
            GridSpec::parse_str("skew=zipf s=1.0 n=2^10 d=4 lambda=4 store=packed4").unwrap();
        let cfg = &configs_from_grid(&HeteroScenario, &grid, 3).unwrap()[0];
        let packed = HeteroScenario.run(cfg, 3);
        assert_eq!(packed.result.name, format!("{}@packed4", zipf.result.name));
    }

    /// Capacity-proportional probing over a two-tier cluster keeps
    /// utilization far more balanced than probing it uniformly. Single
    /// choice (k = d = 1) isolates the sampling effect: with d > 1 the
    /// least-loaded rule compares **raw** loads, which actively steers
    /// balls away from fat bins and cancels much of the capacity skew.
    #[test]
    fn capacity_proportional_probing_balances_utilization() {
        let grid = GridSpec::parse_str(
            "skew=uniform,capacity spread=two_tier ratio=10 every=4 n=2^10 k=1 d=1 lambda=8",
        )
        .unwrap();
        let configs = configs_from_grid(&HeteroScenario, &grid, 5).unwrap();
        let blind = HeteroScenario.run(&configs[0], 5);
        let matched = HeteroScenario.run(&configs[1], 5);
        assert_eq!(blind.total_capacity, matched.total_capacity);
        assert!(
            matched.utilization_gap < blind.utilization_gap,
            "capacity-aware {} vs capacity-blind {}",
            matched.utilization_gap,
            blind.utilization_gap
        );
    }

    /// The `dims=`/`objective=`/`demand=` axes: explicit scalar defaults
    /// stay on the locked path (bit-identical records), vector cells
    /// route through the vector driver, and invalid combinations are
    /// rejected at parse time.
    #[test]
    fn static_vector_axes_route_and_validate() {
        // Explicit defaults == omitted axes, bit for bit.
        let explicit =
            GridSpec::parse_str("k=2 d=4 n=256 dims=1 objective=scalar demand=unit seed=5")
                .unwrap();
        let implicit = GridSpec::parse_str("k=2 d=4 n=256 seed=5").unwrap();
        let e = &configs_from_grid(&StaticScenario, &explicit, 5).unwrap()[0];
        let i = &configs_from_grid(&StaticScenario, &implicit, 5).unwrap()[0];
        assert!(!e.is_vector());
        assert_eq!(StaticScenario.run(e, 5), StaticScenario.run(i, 5));

        // A vector cell runs the vector driver and places every ball.
        let vec_grid =
            GridSpec::parse_str("k=2 d=4 n=256 dims=2 objective=max_norm demand=uniform seed=5")
                .unwrap();
        let v = &configs_from_grid(&StaticScenario, &vec_grid, 5).unwrap()[0];
        assert!(v.is_vector());
        let rec = StaticScenario.run(v, 5);
        assert_eq!(rec.balls_placed, 256);
        assert!(rec.name.contains("vec2:max_norm"), "{}", rec.name);

        // Invalid combinations are parse errors, not panics.
        for bad in [
            "dims=0",
            "dims=9",
            "objective=psychic",
            "demand=psychic",
            "demand_max=0",
            "dims=2 store=packed4",
            "demand=uniform store=packed8",
            "objective=max_norm store=packed4",
        ] {
            let grid = GridSpec::parse_str(bad).unwrap();
            assert!(
                configs_from_grid(&StaticScenario, &grid, 0).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    /// A heterogeneous vector cell carries capacities into the vector
    /// store and reports one gap per dimension.
    #[test]
    fn hetero_vector_cell_reports_per_dim_gaps() {
        let grid = GridSpec::parse_str(
            "skew=capacity spread=two_tier n=128 every=8 lambda=2 dims=2 objective=capacity demand=anti demand_max=3",
        )
        .unwrap();
        let cfg = &configs_from_grid(&HeteroScenario, &grid, 11).unwrap()[0];
        assert!(cfg.is_vector());
        let rec = HeteroScenario.run(cfg, 11);
        assert_eq!(rec.dim_gaps.len(), 2);
        assert!(rec.dim_gaps.iter().all(|g| g.is_finite() && *g >= 0.0));
        assert_eq!(rec.total_capacity, cfg.total_capacity());
        assert_eq!(rec.result.balls_placed, cfg.balls());
        // Scalar cells report exactly the scalar gap.
        let scalar_grid = GridSpec::parse_str("n=128 lambda=1").unwrap();
        let scalar_cfg = &configs_from_grid(&HeteroScenario, &scalar_grid, 11).unwrap()[0];
        let scalar_rec = HeteroScenario.run(scalar_cfg, 11);
        assert_eq!(scalar_rec.dim_gaps, vec![scalar_rec.result.gap]);
        // Vector cells also reject non-exact stores at parse time.
        let bad = GridSpec::parse_str("dims=2 store=packed4").unwrap();
        assert!(configs_from_grid(&HeteroScenario, &bad, 0).is_err());
    }

    #[test]
    fn hetero_reports_render_valid_json() {
        let grid = GridSpec::parse_str("skew=two_tier spread=two_tier n=128 every=8").unwrap();
        let configs = configs_from_grid(&HeteroScenario, &grid, 1).unwrap();
        let cells = SweepRunner::new().run_scenario(&HeteroScenario, &configs, 2);
        let report = SweepReport::from_cells(&HeteroScenario, &configs, &cells);
        assert_eq!(report.rows.len(), 2);
        for line in report.to_jsonl().lines() {
            kdchoice_expt::validate_json(line).unwrap();
            assert!(line.contains("\"scenario\": \"hetero\""));
            assert!(line.contains("\"util_gap\""));
            assert!(line.contains("\"max_util\""));
        }
    }
}
