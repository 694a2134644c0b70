//! [`PlacementService`]: the (k,d)-choice placement/release frontend,
//! plus the closed-loop multi-client workload used by the `service`
//! scenario and the thread-scaling throughput harness.

use std::sync::Mutex;
use std::time::Instant;

use kdchoice_core::{
    decide_k_least_vector, BinStore, PlacementObjective, ProbeDistribution, StoreKind, VectorLoad,
    VectorSlot,
};
use kdchoice_prng::demand::DemandDistribution;
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use rand::RngCore;

use crate::engine::ServiceBackend;
use crate::sharded::{Placement, ShardedStore};

/// Errors constructing a [`PlacementService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// `k` was zero.
    ZeroK,
    /// `d < k`: a request cannot place `k` balls on fewer probed slots.
    TooFewProbes {
        /// Requested balls per placement.
        k: usize,
        /// Requested probes per placement.
        d: usize,
    },
    /// A weighted probe distribution was built for a different number of
    /// bins than the store holds.
    ProbeMismatch {
        /// Bins in the store.
        store_n: usize,
        /// Support size the distribution was built for.
        probes_n: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::ZeroK => write!(f, "k must be at least 1"),
            ServiceError::TooFewProbes { k, d } => {
                write!(f, "(k,d)-choice service needs d >= k (k={k}, d={d})")
            }
            ServiceError::ProbeMismatch { store_n, probes_n } => write!(
                f,
                "probe distribution built for {probes_n} bins, store holds {store_n}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A concurrent (k,d)-choice placement service over a [`ShardedStore`].
///
/// Many client threads share one `&PlacementService`; each placement
/// request samples `d` bins i.u.r. with replacement from the caller's
/// own RNG (per-thread streams stay deterministic), then commits balls
/// into the `k` least-loaded tentative slots atomically — probes span
/// shards, shard locks are taken in canonical ascending order, and the
/// read–decide–commit sequence holds every involved lock, so a request
/// is one linearization point.
///
/// ```
/// use kdchoice_service::{PlacementService, ShardedStore};
/// use kdchoice_prng::Xoshiro256PlusPlus;
///
/// let service = PlacementService::new(ShardedStore::new(64, 8), 2, 4).unwrap();
/// let mut rng = Xoshiro256PlusPlus::from_u64(7);
/// let placement = service.place(&mut rng);
/// assert_eq!(placement.bins.len(), 2);
/// service.release(&placement);
/// use kdchoice_core::BinStore;
/// assert_eq!(service.store().total_balls(), 0);
/// ```
#[derive(Debug)]
pub struct PlacementService {
    store: ShardedStore,
    probes: ProbeDistribution,
    k: usize,
    d: usize,
}

impl PlacementService {
    /// Wraps `store` in a (k,d)-choice service frontend with uniform
    /// probing (the paper's model).
    pub fn new(store: ShardedStore, k: usize, d: usize) -> Result<Self, ServiceError> {
        if k == 0 {
            return Err(ServiceError::ZeroK);
        }
        if d < k {
            return Err(ServiceError::TooFewProbes { k, d });
        }
        Ok(Self {
            store,
            probes: ProbeDistribution::Uniform,
            k,
            d,
        })
    }

    /// Switches the probe distribution (builder style) — the weighted /
    /// heterogeneous service. The uniform default (and any distribution
    /// whose weights degenerate to equal) draws the identical generator
    /// stream as before the seam existed, so existing per-client streams
    /// are unperturbed.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::ProbeMismatch`] when a non-uniform
    /// distribution was built for a different bin count.
    pub fn with_probes(mut self, probes: ProbeDistribution) -> Result<Self, ServiceError> {
        if let Some(probes_n) = probes.expected_n() {
            if probes_n != self.store.n() {
                return Err(ServiceError::ProbeMismatch {
                    store_n: self.store.n(),
                    probes_n,
                });
            }
        }
        self.probes = probes;
        Ok(self)
    }

    /// The active probe distribution.
    pub fn probes(&self) -> &ProbeDistribution {
        &self.probes
    }

    /// Balls per placement request.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Probes per placement request.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The underlying store (merged observables on demand).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Consumes the service, returning the store.
    pub fn into_store(self) -> ShardedStore {
        self.store
    }

    /// Serves one placement request: samples `d` bins from `rng` through
    /// the probe distribution, commits the `k` least-loaded tentative
    /// slots atomically.
    pub fn place<R: RngCore + ?Sized>(&self, rng: &mut R) -> Placement {
        let n = self.store.n();
        let mut probes = [0usize; 16];
        if self.d <= probes.len() {
            let probes = &mut probes[..self.d];
            for p in probes.iter_mut() {
                *p = self.probes.sample(rng, n);
            }
            self.store.place_k_least(probes, self.k, rng)
        } else {
            let probes: Vec<usize> = (0..self.d).map(|_| self.probes.sample(rng, n)).collect();
            self.store.place_k_least(&probes, self.k, rng)
        }
    }

    /// Serves a release request for a previous placement.
    pub fn release(&self, placement: &Placement) {
        self.store.release(&placement.bins);
    }
}

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
/// shared [`PlacementService`], then reads the merged observables.
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
/// Panics on invalid configuration (zero threads/bins, `d < k`,
/// non-power-of-two shards).
pub fn run_service_workload(config: &ServiceWorkloadConfig) -> ServiceReport {
    assert!(config.threads > 0, "need at least one client thread");
    if config.is_vector() {
        return run_vector_service_workload(config);
    }
    if config.backend == ServiceBackend::SharedNothing {
        return crate::engine::run_service_workload_owned(config);
    }
    if config.backend == ServiceBackend::LockFree {
        return crate::lockfree::run_service_workload_lockfree(config);
    }
    let store = ShardedStore::with_kind(config.bins, config.shards, config.store);
    let service = PlacementService::new(store, config.k, config.d)
        .unwrap_or_else(|e| panic!("invalid service config: {e}"));
    let (wall_secs, balls_released) = run_clients(
        config,
        || |rng: &mut Xoshiro256PlusPlus| service.place(rng),
        |oldest: Placement| service.release(&oldest),
    );
    let store = service.into_store();
    let end = EndState::of(&store, store.check_invariants());
    ServiceReport::closed_loop(config, wall_secs, balls_released, end, None)
}

/// The closed-loop client loop of the striped, lock-free and vector
/// workloads. Client `t` runs on `derive_seed(config.seed, t)`, issues
/// `requests_per_thread` placements through its own `client()` closure,
/// and passes its oldest live placement to `release` once more than
/// `window` are live. Returns the wall time and the balls released (`k`
/// per release: every placement commits exactly `k` balls).
pub(crate) fn run_clients<L, P>(
    config: &ServiceWorkloadConfig,
    client: impl Fn() -> P + Sync,
    release: impl Fn(L) + Sync,
) -> (f64, u64)
where
    P: FnMut(&mut Xoshiro256PlusPlus) -> L,
{
    let start = Instant::now();
    let releases: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|t| {
                let (client, release) = (&client, &release);
                scope.spawn(move || {
                    let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(config.seed, t as u64));
                    let mut place = client();
                    let mut live = std::collections::VecDeque::new();
                    let mut releases = 0u64;
                    for _ in 0..config.requests_per_thread {
                        let placement = place(&mut rng);
                        if config.window > 0 {
                            live.push_back(placement);
                            if live.len() > config.window {
                                release(live.pop_front().expect("window > 0"));
                                releases += 1;
                            }
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
/// Panics on invalid configuration: zero threads/bins, `d < k`, a
/// malformed objective, the shared-nothing backend (vector stores have no
/// owned-shard engine yet), or a non-exact store (packed lanes cannot
/// hold vector loads).
pub fn run_vector_service_workload(config: &ServiceWorkloadConfig) -> ServiceReport {
    assert!(config.threads > 0, "need at least one client thread");
    assert!(config.bins > 0, "need at least one bin");
    assert!(
        config.k >= 1 && config.k <= config.d,
        "need 1 <= k <= d (k={}, d={})",
        config.k,
        config.d
    );
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
    let (wall_secs, balls_released) = run_clients(
        config,
        || {
            let mut probes = vec![0usize; config.d];
            let mut slots: Vec<VectorSlot> = Vec::with_capacity(config.d);
            let mut demand: Vec<u32> = Vec::with_capacity(config.dims);
            move |rng: &mut Xoshiro256PlusPlus| {
                for p in probes.iter_mut() {
                    *p = ProbeDistribution::Uniform.sample(rng, config.bins);
                }
                probes.sort_unstable();
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
                (bins, demand.clone())
            }
        },
        |(bins, demand): (Vec<usize>, Vec<u32>)| {
            let guard = &mut *shared.lock().expect("store mutex poisoned");
            for &bin in &bins {
                guard.remove(bin, &demand);
            }
        },
    );
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
    fn service_validates_k_and_d() {
        assert_eq!(
            PlacementService::new(ShardedStore::new(8, 2), 0, 3).unwrap_err(),
            ServiceError::ZeroK
        );
        assert_eq!(
            PlacementService::new(ShardedStore::new(8, 2), 3, 2).unwrap_err(),
            ServiceError::TooFewProbes { k: 3, d: 2 }
        );
        assert!(PlacementService::new(ShardedStore::new(8, 2), 2, 2).is_ok());
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

    #[test]
    fn with_probes_validates_support_size() {
        let service = PlacementService::new(ShardedStore::new(8, 2), 2, 4).unwrap();
        assert_eq!(
            service
                .with_probes(ProbeDistribution::zipf(9, 1.0).unwrap())
                .unwrap_err(),
            ServiceError::ProbeMismatch {
                store_n: 8,
                probes_n: 9
            }
        );
        let service = PlacementService::new(ShardedStore::new(8, 2), 2, 4)
            .unwrap()
            .with_probes(ProbeDistribution::zipf(8, 1.0).unwrap())
            .unwrap();
        assert!(!service.probes().is_uniform());
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let p = service.place(&mut rng);
        assert_eq!(p.bins.len(), 2);
    }

    #[test]
    fn weighted_service_on_heterogeneous_store_conserves() {
        use kdchoice_core::two_tier_capacities;
        let n = 32;
        let caps = two_tier_capacities(n, 4, 8);
        let store = ShardedStore::with_capacities(n, 4, &caps);
        let service = PlacementService::new(store, 2, 4)
            .unwrap()
            .with_probes(ProbeDistribution::proportional_to(&caps).unwrap())
            .unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(6);
        let placements: Vec<Placement> = (0..200).map(|_| service.place(&mut rng)).collect();
        assert_eq!(service.store().total_balls(), 400);
        assert!(service.store().max_utilization() > 0.0);
        for p in &placements {
            service.release(p);
        }
        assert_eq!(service.store().total_balls(), 0);
        assert!(service.store().check_invariants());
    }

    #[test]
    fn large_d_takes_the_heap_path() {
        let service = PlacementService::new(ShardedStore::new(64, 8), 4, 32).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let p = service.place(&mut rng);
        assert_eq!(p.bins.len(), 4);
        assert_eq!(service.store().total_balls(), 4);
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
