//! The closed-loop multi-client service workload behind the `service`
//! scenario: [`ServiceWorkloadConfig`], its one validation point, and the
//! drivers that serve it on the striped, lock-free and vector stores.

use std::sync::Mutex;
use std::time::Instant;

use kdchoice_core::{
    decide_k_least_vector, sort_probes, BinStore, ConfigError, PlacementObjective,
    ProbeDistribution, StoreKind, VectorLoad, VectorSlot,
};
use kdchoice_prng::demand::DemandDistribution;
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};

use crate::engine::ServiceBackend;
use crate::sharded::{BatchScratch, ShardedStore};

/// Configuration of one closed-loop service workload: `threads` clients
/// each issue `requests_per_thread` placement requests back to back,
/// optionally releasing their oldest live placement once more than
/// `window` are outstanding (the §7 infinite/dynamic process; `window ==
/// 0` disables releases and the run is the static process).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceWorkloadConfig {
    /// Number of bins.
    pub bins: usize,
    /// Balls per placement request.
    pub k: usize,
    /// Probes per placement request (`d ≥ k`).
    pub d: usize,
    /// Shard count (power of two, ≤ bins).
    pub shards: usize,
    /// Concurrent client threads.
    pub threads: usize,
    /// Placement requests issued by each client.
    pub requests_per_thread: usize,
    /// Live placements each client retains; 0 = never release.
    pub window: usize,
    /// Which concurrency backend serves the requests. With
    /// [`ServiceBackend::SharedNothing`] the clients **are** the shard
    /// owners (`shards` is ignored; ownership = threads) and `threads <=
    /// bins` is required. [`ServiceBackend::LockFree`] ignores `shards`
    /// and `snapshot_refresh` — one flat CAS-bins array serves everyone.
    pub backend: ServiceBackend,
    /// Shared-nothing only: snapshot republish period in mutations
    /// (`>= 1`); ignored by the striped backend.
    pub snapshot_refresh: usize,
    /// Which bin-store representation backs the workload (exact loads
    /// or packed b-bit offsets).
    pub store: StoreKind,
    /// Demand-vector dimensionality (1 = the scalar process). Anything
    /// but `(1, Scalar, Unit)` routes through the vector workload, which
    /// supports only the striped backend over the exact store.
    pub dims: usize,
    /// How probe comparison keys are computed from a load vector.
    pub objective: PlacementObjective,
    /// How per-request demand vectors are drawn.
    pub demand: DemandDistribution,
    /// Master seed; client `t` runs on `derive_seed(seed, t)`.
    pub seed: u64,
}

impl ServiceWorkloadConfig {
    /// A small default workload: `(2,4)`-choice over `bins` bins.
    pub fn new(bins: usize, threads: usize, requests_per_thread: usize, seed: u64) -> Self {
        Self {
            bins,
            k: 2,
            d: 4,
            shards: 8.min(prev_power_of_two(bins)),
            threads,
            requests_per_thread,
            window: 0,
            backend: ServiceBackend::Striped,
            snapshot_refresh: 1,
            store: StoreKind::Exact,
            dims: 1,
            objective: PlacementObjective::Scalar,
            demand: DemandDistribution::Unit,
            seed,
        }
    }

    /// Whether this workload routes through the vector driver (anything
    /// but the scalar `(dims=1, Scalar, Unit)` triple).
    pub fn is_vector(&self) -> bool {
        self.dims != 1
            || self.objective != PlacementObjective::Scalar
            || self.demand != DemandDistribution::Unit
    }

    /// Checks the parameters a run relies on: at least one bin and one
    /// client thread, `1 <= k <= d`, and the backend's own limits
    /// (power-of-two `shards <= bins` for the scalar striped workload,
    /// the only one that builds a `ShardedStore`; `threads <= bins` for
    /// shared-nothing). The vector workload's striped/exact restriction
    /// is checked where it runs and where the scenario is parsed.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroParameter`] for zero `bins` or `threads`,
    /// [`ConfigError::ZeroK`] for `k == 0`,
    /// [`ConfigError::KExceedsD`] for `k > d`,
    /// [`ConfigError::NotPowerOfTwo`] for scalar striped `shards` that
    /// are not a power of two, and [`ConfigError::ExceedsLimit`] for
    /// scalar striped `shards > bins` or shared-nothing `threads > bins`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.bins == 0 {
            return Err(ConfigError::ZeroParameter("bins"));
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroParameter("threads"));
        }
        if self.k == 0 {
            return Err(ConfigError::ZeroK);
        }
        if self.k > self.d {
            return Err(ConfigError::KExceedsD {
                k: self.k,
                d: self.d,
            });
        }
        match self.backend {
            ServiceBackend::Striped if !self.is_vector() => check_shards(self.shards, self.bins),
            ServiceBackend::SharedNothing if self.threads > self.bins => {
                Err(ConfigError::ExceedsLimit {
                    name: "threads",
                    value: self.threads,
                    limit: self.bins,
                })
            }
            _ => Ok(()),
        }
    }

    /// [`ServiceWorkloadConfig::validate`], panicking with its message.
    fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid service config: {e}");
        }
    }
}

/// The striped backend's shard limits: `shards` is a power of two no
/// larger than `bins`, as `ShardedStore::new` requires.
pub(crate) fn check_shards(shards: usize, bins: usize) -> Result<(), ConfigError> {
    if !shards.is_power_of_two() {
        return Err(ConfigError::NotPowerOfTwo {
            name: "shards",
            value: shards,
        });
    }
    if shards > bins {
        return Err(ConfigError::ExceedsLimit {
            name: "shards",
            value: shards,
            limit: bins,
        });
    }
    Ok(())
}

/// The largest power of two ≤ `n` (`n ≥ 1`) — the round-*down* helper
/// shard defaults must use (`next_power_of_two` rounds up and can exceed
/// `n`, which `ShardedStore::new` rejects).
pub(crate) fn prev_power_of_two(n: usize) -> usize {
    assert!(n >= 1);
    if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() / 2
    }
}

/// Aggregate results of one closed-loop service workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Placement requests served.
    pub placements: u64,
    /// Balls placed (`placements × k`).
    pub balls_placed: u64,
    /// Balls released.
    pub balls_released: u64,
    /// Balls still live at the end (`placed − released`).
    pub live_balls: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Placement requests per second.
    pub placements_per_sec: f64,
    /// Balls placed per second — the thread-scaling headline number.
    pub balls_per_sec: f64,
    /// Final maximum load over all bins.
    pub max_load: u32,
    /// Final gap `max load − average load`.
    pub gap: f64,
    /// `ν_1` at the end (bins holding at least one ball).
    pub nu1: u64,
    /// Whether the merged store passed `check_invariants` and conserved
    /// balls (`total == placed − released`).
    pub conserved: bool,
    /// Per-dimension gaps `max_j − mean_j` of the final state; on the
    /// scalar paths this is `[gap]`.
    pub dim_gaps: Vec<f64>,
}

/// Runs one closed-loop workload: spawns `threads` clients hammering a
/// shared store of the configured backend, then reads the merged
/// observables.
///
/// Each client's request stream (its sampled probes and tie keys) is a
/// pure function of `derive_seed(config.seed, client_index)`; the
/// *interleaving* of commits across clients — and therefore wall-clock
/// throughput and (slightly) the final load shape — is scheduler-driven
/// and not reproducible across runs. Conservation and per-shard
/// invariants hold regardless, and are re-checked on every run.
///
/// # Panics
///
/// Panics with the [`ServiceWorkloadConfig::validate`] message on an
/// invalid configuration, the backend's own limits included.
pub fn run_service_workload(config: &ServiceWorkloadConfig) -> ServiceReport {
    if config.is_vector() {
        return run_vector_service_workload(config);
    }
    config.assert_valid();
    if config.backend == ServiceBackend::SharedNothing {
        return crate::engine::run_service_workload_owned(config);
    }
    if config.backend == ServiceBackend::LockFree {
        return crate::lockfree::run_service_workload_lockfree(config);
    }
    let store = ShardedStore::with_kind(config.bins, config.shards, config.store);
    let shared = &store;
    let (wall_secs, balls_released) = run_clients(config, || {
        let mut probes = vec![0usize; config.d];
        let mut scratch = BatchScratch::default();
        move |rng: &mut Xoshiro256PlusPlus, oldest: Option<Vec<usize>>| {
            ProbeDistribution::Uniform.fill_each(rng, config.bins, &mut probes);
            let rngs = std::slice::from_mut(rng);
            shared.place_batch_into(&probes, config.d, config.k, rngs, &mut scratch, false);
            if let Some(oldest) = oldest {
                shared.release_into(&oldest, &mut scratch, false);
            }
            scratch.bins.clone()
        }
    });
    let end = EndState::of(&store, store.check_invariants());
    ServiceReport::closed_loop(config, wall_secs, balls_released, end, None)
}

/// The closed-loop client loop of the striped, lock-free and vector
/// workloads. Client `t` runs on `derive_seed(config.seed, t)` and
/// serves its `requests_per_thread` requests through its own `client()`
/// closure, which places one request, then releases `oldest` if given,
/// and returns the new placement. Once `window` placements are live,
/// each request passes the client's oldest as `oldest`; with `window ==
/// 0` nothing is released. Returns the wall time and the balls released
/// (`k` per release: every placement commits exactly `k` balls).
pub(crate) fn run_clients<L, S>(
    config: &ServiceWorkloadConfig,
    client: impl Fn() -> S + Sync,
) -> (f64, u64)
where
    S: FnMut(&mut Xoshiro256PlusPlus, Option<L>) -> L,
{
    let start = Instant::now();
    let releases: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|t| {
                let client = &client;
                scope.spawn(move || {
                    let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(config.seed, t as u64));
                    let mut serve = client();
                    let mut live = std::collections::VecDeque::new();
                    let mut releases = 0u64;
                    for _ in 0..config.requests_per_thread {
                        let oldest = if config.window > 0 && live.len() == config.window {
                            releases += 1;
                            live.pop_front()
                        } else {
                            None
                        };
                        let placement = serve(&mut rng, oldest);
                        if config.window > 0 {
                            live.push_back(placement);
                        }
                    }
                    releases
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread must not panic"))
            .sum()
    });
    (start.elapsed().as_secs_f64(), releases * config.k as u64)
}

/// The final store state a closed-loop [`ServiceReport`] reads.
pub(crate) struct EndState {
    pub(crate) live_balls: u64,
    pub(crate) max_load: u32,
    /// `ν_1`: bins holding at least one ball.
    pub(crate) nu1: u64,
    pub(crate) invariants_ok: bool,
}

impl EndState {
    /// The end state of `store`, with the result of its invariant check.
    pub(crate) fn of(store: &impl BinStore, invariants_ok: bool) -> Self {
        Self {
            live_balls: store.total_balls(),
            max_load: store.max_load(),
            nu1: store.nu(1),
            invariants_ok,
        }
    }
}

impl ServiceReport {
    /// The report of a finished closed-loop run of any backend.
    /// `dim_gaps` defaults to the scalar `[gap]`.
    pub(crate) fn closed_loop(
        config: &ServiceWorkloadConfig,
        wall_secs: f64,
        balls_released: u64,
        end: EndState,
        dim_gaps: Option<Vec<f64>>,
    ) -> Self {
        let placements = (config.threads * config.requests_per_thread) as u64;
        let balls_placed = placements * config.k as u64;
        let gap = f64::from(end.max_load) - end.live_balls as f64 / config.bins as f64;
        Self {
            placements,
            balls_placed,
            balls_released,
            live_balls: end.live_balls,
            wall_secs,
            placements_per_sec: placements as f64 / wall_secs,
            balls_per_sec: balls_placed as f64 / wall_secs,
            max_load: end.max_load,
            gap,
            nu1: end.nu1,
            conserved: end.live_balls == balls_placed - balls_released && end.invariants_ok,
            dim_gaps: dim_gaps.unwrap_or_else(|| vec![gap]),
        }
    }
}

/// Runs one closed-loop **vector-load** workload: `threads` clients share
/// a [`VectorLoad`] store behind one mutex, each request sampling `d`
/// uniform probes, one demand vector, and committing the `k` slots with
/// the smallest objective keys ([`decide_k_least_vector`]).
///
/// The per-client generator stream is `d` probe draws, then the demand
/// draws, then one tie-break per tentative slot — **exactly** the striped
/// scalar service's stream when `dims = 1`, `objective = Scalar`, and
/// `demand = Unit` ([`DemandDistribution::Unit`] draws nothing), so a
/// single-threaded run is bit-identical to [`run_service_workload`] on
/// either scalar backend; the equivalence tests pin this. Windowed
/// releases remember each placement's demand vector and subtract it
/// dimension-for-dimension.
///
/// This is also where a scalar-looking config routed by
/// [`ServiceWorkloadConfig::is_vector`] lands; calling it directly with a
/// scalar triple forces the vector machinery (the equivalence tests do).
///
/// # Panics
///
/// Panics with the [`ServiceWorkloadConfig::validate`] message on an
/// invalid configuration, and on a malformed objective, the
/// shared-nothing backend (vector stores have no owned-shard engine
/// yet), or a non-exact store (packed lanes cannot hold vector loads).
pub fn run_vector_service_workload(config: &ServiceWorkloadConfig) -> ServiceReport {
    config.assert_valid();
    assert!(
        config.objective.validate(config.dims),
        "objective {} is not valid for dims={}",
        config.objective.name(),
        config.dims
    );
    assert!(
        config.backend == ServiceBackend::Striped,
        "vector loads support only the striped backend (got {})",
        config.backend.name()
    );
    assert!(
        config.store == StoreKind::Exact,
        "vector loads need store=exact (got {})",
        config.store.name()
    );
    let store = Mutex::new(VectorLoad::new(config.dims, config.bins));
    let shared = &store;
    let (wall_secs, balls_released) = run_clients(config, || {
        let mut probes = vec![0usize; config.d];
        let mut slots: Vec<VectorSlot> = Vec::with_capacity(config.d);
        let mut demand: Vec<u32> = Vec::with_capacity(config.dims);
        move |rng: &mut Xoshiro256PlusPlus, oldest: Option<(Vec<usize>, Vec<u32>)>| {
            ProbeDistribution::Uniform.fill_each(rng, config.bins, &mut probes);
            sort_probes(&mut probes);
            config.demand.sample_into(rng, config.dims, &mut demand);
            let mut bins = Vec::with_capacity(config.k);
            let guard = &mut *shared.lock().expect("store mutex poisoned");
            decide_k_least_vector(
                guard,
                &probes,
                config.k,
                &demand,
                &config.objective,
                rng,
                &mut slots,
                &mut bins,
            );
            for &bin in &bins {
                guard.add(bin, &demand);
            }
            if let Some((old_bins, old_demand)) = oldest {
                for &bin in &old_bins {
                    guard.remove(bin, &old_demand);
                }
            }
            (bins, demand.clone())
        }
    });
    let store = store.into_inner().expect("store mutex poisoned");
    let end = EndState::of(store.balls(), store.check_invariants());
    ServiceReport::closed_loop(
        config,
        wall_secs,
        balls_released,
        end,
        Some(store.dim_gaps()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_zero_k() {
        let mut cfg = ServiceWorkloadConfig::new(8, 1, 1, 0);
        cfg.k = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroK));
    }

    #[test]
    fn service_validates_k_and_d() {
        let mut cfg = ServiceWorkloadConfig::new(8, 1, 1, 0);
        (cfg.k, cfg.d) = (3, 2);
        assert_eq!(cfg.validate(), Err(ConfigError::KExceedsD { k: 3, d: 2 }));
        cfg.d = 3;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_bins_and_threads() {
        let mut cfg = ServiceWorkloadConfig::new(8, 0, 1, 0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter("threads")));
        cfg.threads = 1;
        cfg.bins = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter("bins")));
    }

    #[test]
    fn validate_rejects_non_power_of_two_striped_shards() {
        let mut cfg = ServiceWorkloadConfig::new(8, 1, 1, 0);
        for shards in [0, 3, 6] {
            cfg.shards = shards;
            let want = ConfigError::NotPowerOfTwo {
                name: "shards",
                value: shards,
            };
            assert_eq!(cfg.validate(), Err(want));
        }
        // The other backends and the vector workload ignore `shards`.
        for backend in [ServiceBackend::SharedNothing, ServiceBackend::LockFree] {
            cfg.backend = backend;
            assert_eq!(cfg.validate(), Ok(()));
        }
        cfg.backend = ServiceBackend::Striped;
        cfg.dims = 2;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_more_striped_shards_than_bins() {
        let mut cfg = ServiceWorkloadConfig::new(8, 1, 1, 0);
        cfg.shards = 16;
        let want = ConfigError::ExceedsLimit {
            name: "shards",
            value: 16,
            limit: 8,
        };
        assert_eq!(cfg.validate(), Err(want));
        cfg.shards = 8;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_more_shared_nothing_threads_than_bins() {
        let mut cfg = ServiceWorkloadConfig::new(8, 9, 1, 0);
        // The striped and lock-free clients share the bins.
        assert_eq!(cfg.validate(), Ok(()));
        cfg.backend = ServiceBackend::SharedNothing;
        let want = ConfigError::ExceedsLimit {
            name: "threads",
            value: 9,
            limit: 8,
        };
        assert_eq!(cfg.validate(), Err(want));
        cfg.threads = 8;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalid service config: k must not exceed d (got k=5, d=4)")]
    fn workload_panics_with_the_validation_message() {
        let mut cfg = ServiceWorkloadConfig::new(8, 1, 1, 0);
        cfg.k = 5;
        let _ = run_service_workload(&cfg);
    }

    #[test]
    fn single_thread_workload_is_exact() {
        let cfg = ServiceWorkloadConfig {
            bins: 64,
            k: 2,
            d: 4,
            shards: 4,
            threads: 1,
            requests_per_thread: 500,
            window: 0,
            backend: ServiceBackend::Striped,
            snapshot_refresh: 1,
            store: StoreKind::Exact,
            dims: 1,
            objective: PlacementObjective::Scalar,
            demand: DemandDistribution::Unit,
            seed: 11,
        };
        let report = run_service_workload(&cfg);
        assert_eq!(report.placements, 500);
        assert_eq!(report.balls_placed, 1000);
        assert_eq!(report.balls_released, 0);
        assert_eq!(report.live_balls, 1000);
        assert!(report.conserved);
        assert!(report.max_load >= 16, "1000 balls over 64 bins");
        assert!(report.gap >= 0.0);
    }

    #[test]
    fn windowed_workload_releases_and_conserves() {
        let cfg = ServiceWorkloadConfig {
            bins: 32,
            k: 2,
            d: 4,
            shards: 4,
            threads: 4,
            requests_per_thread: 300,
            window: 10,
            backend: ServiceBackend::Striped,
            snapshot_refresh: 1,
            store: StoreKind::Exact,
            dims: 1,
            objective: PlacementObjective::Scalar,
            demand: DemandDistribution::Unit,
            seed: 5,
        };
        let report = run_service_workload(&cfg);
        assert_eq!(report.placements, 1200);
        assert!(report.balls_released > 0);
        // Each client retains at most `window` live placements of k balls.
        assert!(report.live_balls <= (4 * 10 * 2) as u64);
        assert!(report.conserved);
    }

    /// Satellite of the vector tentpole: forcing a scalar `(dims=1,
    /// Scalar, Unit)` workload through the vector machinery reproduces
    /// **both** scalar backends bit for bit at `threads = 1` — same
    /// final loads, same gap, same ν₁ — because the generator stream
    /// (d probe draws, zero demand draws, one tie per slot) and the
    /// `total_cmp`-on-integer-keys comparisons coincide.
    #[test]
    fn vector_workload_at_dims_1_matches_both_scalar_backends() {
        for window in [0usize, 16] {
            let mut cfg = ServiceWorkloadConfig::new(64, 1, 700, 29);
            cfg.window = window;
            let vector = run_vector_service_workload(&cfg);
            for backend in [
                ServiceBackend::Striped,
                ServiceBackend::SharedNothing,
                ServiceBackend::LockFree,
            ] {
                cfg.backend = backend;
                let scalar = run_service_workload(&cfg);
                assert!(!cfg.is_vector(), "scalar triple must not route to vector");
                assert_eq!(
                    vector.max_load,
                    scalar.max_load,
                    "{} window={window}",
                    backend.name()
                );
                assert_eq!(vector.live_balls, scalar.live_balls);
                assert_eq!(vector.balls_released, scalar.balls_released);
                assert_eq!(vector.nu1, scalar.nu1, "{}", backend.name());
                assert!((vector.gap - scalar.gap).abs() < 1e-12);
                assert!(vector.conserved && scalar.conserved);
            }
            assert_eq!(vector.dim_gaps.len(), 1);
            assert!((vector.dim_gaps[0] - vector.gap).abs() < 1e-12);
        }
    }

    #[test]
    fn vector_workload_places_releases_and_conserves() {
        let mut cfg = ServiceWorkloadConfig::new(64, 4, 400, 17);
        cfg.dims = 3;
        cfg.objective = PlacementObjective::MaxNorm;
        cfg.demand = DemandDistribution::anti_correlated(4).unwrap();
        cfg.window = 8;
        assert!(cfg.is_vector());
        // The scalar frontend routes vector configs to the vector driver.
        let report = run_service_workload(&cfg);
        assert_eq!(report.placements, 1600);
        assert!(report.balls_released > 0);
        assert!(report.live_balls <= (4 * 8 * 2) as u64);
        assert!(report.conserved);
        assert_eq!(report.dim_gaps.len(), 3);
        assert!(report.dim_gaps.iter().all(|g| g.is_finite() && *g >= 0.0));
    }

    #[test]
    #[should_panic(expected = "striped backend")]
    fn vector_workload_rejects_shared_nothing() {
        let mut cfg = ServiceWorkloadConfig::new(16, 1, 1, 0);
        cfg.dims = 2;
        cfg.objective = PlacementObjective::MaxNorm;
        cfg.backend = ServiceBackend::SharedNothing;
        let _ = run_service_workload(&cfg);
    }

    #[test]
    #[should_panic(expected = "store=exact")]
    fn vector_workload_rejects_packed_stores() {
        let mut cfg = ServiceWorkloadConfig::new(16, 1, 1, 0);
        cfg.dims = 2;
        cfg.objective = PlacementObjective::MaxNorm;
        cfg.store = StoreKind::Packed4;
        let _ = run_service_workload(&cfg);
    }

    #[test]
    fn default_config_shards_are_valid() {
        for bins in [1usize, 2, 3, 7, 8, 9, 100, 1024] {
            let cfg = ServiceWorkloadConfig::new(bins, 1, 1, 0);
            assert!(
                cfg.shards.is_power_of_two() && cfg.shards <= bins,
                "bins={bins}"
            );
            let _ = run_service_workload(&cfg);
        }
    }
}
