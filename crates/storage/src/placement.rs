//! Placement policies and destination selection for
//! [`crate::ChunkCluster`].
//!
//! Two selection routines live here:
//!
//! - [`choose_destinations`] is the §1.3 selection: probes are drawn with
//!   replacement and the multiplicity rule lets one server receive
//!   several chunks of a file. The `storage` scenario places through it,
//!   and the `legacy_equivalence` test pins its probe stream.
//! - [`choose_constrained`] enforces replica *distinctness* (no two
//!   replicas of a chunk on one server, optionally no two on one rack)
//!   by greedy selection over sorted probe slots with bounded re-probe
//!   rounds — the hypergraph-probe model where probe sets are correlated
//!   by rack.
//!
//! Both expand their `KdChoice` probes through the core decision kernel
//! (`kdchoice_core::expand_slots`), keyed by `(load + occ) / capacity`.

use std::borrow::Cow;

use kdchoice_core::{cmp_slots, expand_slots, select_k_least, sort_probes};
use kdchoice_prng::sample::UniformBin;
use rand::{Rng, RngCore};

/// How a file's `k` chunks (or a chunk's `k` replicas) pick their servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// The paper's scheme: sample `d` alive servers i.u.r. (with
    /// replacement) and store the `k` chunks on the `k` least loaded,
    /// multiplicities respected. Placement costs `d` probe messages; a read
    /// costs `k + 1` (one directory lookup + `k` fetches).
    KdChoice {
        /// Probes per file creation (`d ≥ k`).
        d: usize,
    },
    /// Each chunk independently picks the less loaded of 2 sampled servers.
    /// Placement costs `2k` probes; §1.3 charges reads `2k` messages (two
    /// candidate locations per chunk must be addressed).
    PerChunkTwoChoice,
    /// Each chunk goes to a uniformly random alive server; no probes; reads
    /// cost `k + 1` via the directory.
    Random,
}

impl PlacementPolicy {
    /// Display name.
    ///
    /// Parameter-free policies return a borrowed `&'static str` — no
    /// allocation on reporting paths; `KdChoice` formats once per call,
    /// so report builders cache it per run (as
    /// [`crate::ClusterReport`] does) rather than fetching per event.
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            PlacementPolicy::KdChoice { d } => Cow::Owned(format!("(k,{d})-choice")),
            PlacementPolicy::PerChunkTwoChoice => Cow::Borrowed("per-chunk 2-choice"),
            PlacementPolicy::Random => Cow::Borrowed("random"),
        }
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Places `count` chunks on servers chosen by `policy` among `alive`,
/// reading per-server chunk counts through `load` and relative capacities
/// through `capacity`; returns `(destinations, probe_messages)`.
///
/// This is the multiplicity-respecting §1.3 selection. `KdChoice` keys
/// the sorted probes by capacity ratio and keeps the `count` least
/// through the core kernel ([`select_k_least`]); the winners, in
/// selection order, are the destinations. The `storage` scenario's golden
/// digests pin its probe and tie-break RNG stream.
///
/// # Panics
///
/// Panics if `alive` is empty, or under `KdChoice { d }` unless
/// `1 <= count <= d`.
pub(crate) fn choose_destinations<R, L, C>(
    policy: PlacementPolicy,
    alive: &[usize],
    load: L,
    capacity: C,
    count: usize,
    rng: &mut R,
) -> (Vec<usize>, u64)
where
    R: RngCore + ?Sized,
    L: Fn(usize) -> u32,
    C: Fn(usize) -> f64,
{
    assert!(!alive.is_empty(), "no alive servers left");
    let effective = |s: usize| f64::from(load(s)) / capacity(s);
    match policy {
        PlacementPolicy::Random => {
            let pick = UniformBin::new(alive.len());
            let dest = (0..count).map(|_| alive[pick.sample(rng)]).collect();
            (dest, 0)
        }
        PlacementPolicy::PerChunkTwoChoice => {
            let pick = UniformBin::new(alive.len());
            let mut dest = Vec::with_capacity(count);
            for _ in 0..count {
                let a = alive[pick.sample(rng)];
                let b = alive[pick.sample(rng)];
                let (la, lb) = (effective(a), effective(b));
                // Note: loads within a single file placement are read
                // once; simultaneous chunk placements of one file do not
                // see each other — matching independent per-chunk
                // placement.
                let chosen = if la < lb {
                    a
                } else if lb < la {
                    b
                } else if rng.gen_bool(0.5) {
                    a
                } else {
                    b
                };
                dest.push(chosen);
            }
            (dest, 2 * count as u64)
        }
        PlacementPolicy::KdChoice { d } => {
            let pick = UniformBin::new(alive.len());
            let mut slots = capacity_slots(d, |rng| alive[pick.sample(rng)], load, capacity, rng);
            let dest = select_k_least(&mut slots, count).iter().map(|s| s.2);
            (dest.collect(), d as u64)
        }
    }
}

/// Draws `d` servers with `draw`, sorts them, and expands them through
/// the core kernel, keying a server's `occ`-th tentative chunk at
/// `(load + occ) / capacity`.
fn capacity_slots<R: RngCore + ?Sized>(
    d: usize,
    mut draw: impl FnMut(&mut R) -> usize,
    load: impl Fn(usize) -> u32,
    capacity: impl Fn(usize) -> f64,
    rng: &mut R,
) -> Vec<(f64, u64, usize)> {
    let mut sampled: Vec<usize> = (0..d).map(|_| draw(rng)).collect();
    sort_probes(&mut sampled);
    let mut slots = Vec::with_capacity(d);
    expand_slots(
        &sampled,
        rng,
        &mut slots,
        |s| (load(s), capacity(s)),
        |&(base, cap), s, occ, tie| (f64::from(base + occ) / cap, tie, s),
    );
    slots
}

/// How many fresh probe rounds [`choose_constrained`] spends before
/// returning a shortfall (each round costs the policy's probe messages).
const MAX_PROBE_ROUNDS: usize = 4;

/// The rack of `server` among `racks` racks: servers are assigned
/// round-robin, initial and joined alike.
pub(crate) fn rack_of(server: usize, racks: usize) -> usize {
    server % racks
}

/// The survivors of `alive` after removing an excluded set, in `alive`
/// order, as an indexable view: `get(j)` is the `j`-th element of
/// `alive.iter().filter(|s| !excluded.contains(s))` without that pool
/// ever being built. Construction costs O(|excluded| log |excluded|) and
/// a lookup O(log |excluded|), independent of `alive.len()`.
#[derive(Debug)]
pub(crate) struct EligiblePool<'a> {
    alive: &'a [usize],
    /// `p_i - i` for the sorted, deduped `alive` positions `p_i` of the
    /// excluded servers. The sequence is non-decreasing, and the number
    /// of its entries `<= j` is how many excluded positions precede the
    /// `j`-th survivor.
    shifted: Vec<usize>,
}

impl<'a> EligiblePool<'a> {
    /// The view of `alive` without `excluded`, where `alive_pos[s]` is
    /// the position of `s` in `alive` (`usize::MAX` when absent).
    /// Duplicates and servers missing from `alive` are ignored.
    pub(crate) fn new(
        alive: &'a [usize],
        alive_pos: &[usize],
        excluded: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut shifted: Vec<usize> = excluded
            .into_iter()
            .map(|s| alive_pos[s])
            .filter(|&p| p != usize::MAX)
            .collect();
        shifted.sort_unstable();
        shifted.dedup();
        for (i, p) in shifted.iter_mut().enumerate() {
            *p -= i;
        }
        Self { alive, shifted }
    }

    /// The number of surviving servers.
    pub(crate) fn len(&self) -> usize {
        self.alive.len() - self.shifted.len()
    }

    /// Whether no server survives.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `j`-th surviving server in `alive` order (`j < len()`).
    pub(crate) fn get(&self, j: usize) -> usize {
        self.alive[j + self.shifted.partition_point(|&q| q <= j)]
    }
}

/// Places up to `count` replicas on *distinct* servers drawn from `alive`
/// (with `alive_pos` its position index), skipping the `holders` of the
/// chunk and — when `racks` is `Some(r)`, rack-aware over `r` racks —
/// every server in a rack a holder occupies or a replica picked earlier
/// in this call took.
///
/// Each probe round samples from an [`EligiblePool`] over the excluded
/// set, so a call costs O(d + |excluded|) up to log factors, not
/// O(`alive.len()`); the RNG draws equal those of sampling the filtered
/// pool itself.
///
/// Returns `(destinations, probe_messages)`; `destinations.len()` may be
/// smaller than `count` when the constraints exhaust the eligible set
/// (the caller keeps the missing replicas pending and retries later, so
/// degradation is graceful rather than a panic).
///
/// A `KdChoice` probe round expands its probes like
/// [`choose_destinations`], ranks all of them in the kernel's slot order
/// ([`cmp_slots`]), and takes eligible servers in that order.
///
/// Probe/message accounting mirrors [`choose_destinations`]: `Random`
/// spends no probe messages, `PerChunkTwoChoice` spends 2 per replica,
/// `KdChoice { d }` spends `d` per probe round.
#[allow(clippy::too_many_arguments)]
pub(crate) fn choose_constrained<R, L, C>(
    policy: PlacementPolicy,
    alive: &[usize],
    alive_pos: &[usize],
    load: L,
    capacity: C,
    racks: Option<usize>,
    holders: &[usize],
    count: usize,
    rng: &mut R,
) -> (Vec<usize>, u64)
where
    R: RngCore + ?Sized,
    L: Fn(usize) -> u32,
    C: Fn(usize) -> f64,
{
    let mut chosen: Vec<usize> = Vec::with_capacity(count);
    let mut racks_taken: Vec<usize> = match racks {
        Some(r) => holders.iter().map(|&s| rack_of(s, r)).collect(),
        None => Vec::new(),
    };
    let mut messages = 0u64;
    let effective = |s: usize| f64::from(load(s)) / capacity(s);
    let eligible = |s: usize, chosen: &[usize], racks_taken: &[usize]| {
        !holders.contains(&s)
            && !chosen.contains(&s)
            && racks.is_none_or(|r| !racks_taken.contains(&rack_of(s, r)))
    };
    // Rack-aware, the taken racks' members cover the holders and the
    // chosen servers too.
    let pool = |chosen: &[usize], racks_taken: &[usize]| match racks {
        Some(r) => EligiblePool::new(
            alive,
            alive_pos,
            racks_taken
                .iter()
                .flat_map(|&rack| (rack..alive_pos.len()).step_by(r)),
        ),
        None => EligiblePool::new(alive, alive_pos, holders.iter().chain(chosen).copied()),
    };
    let take = |s: usize, chosen: &mut Vec<usize>, racks_taken: &mut Vec<usize>| {
        if let Some(r) = racks {
            racks_taken.push(rack_of(s, r));
        }
        chosen.push(s);
    };

    match policy {
        PlacementPolicy::Random => {
            for _ in 0..count {
                let pool = pool(&chosen, &racks_taken);
                if pool.is_empty() {
                    break;
                }
                let s = pool.get(UniformBin::new(pool.len()).sample(rng));
                take(s, &mut chosen, &mut racks_taken);
            }
        }
        PlacementPolicy::PerChunkTwoChoice => {
            for _ in 0..count {
                let pool = pool(&chosen, &racks_taken);
                if pool.is_empty() {
                    break;
                }
                messages += 2;
                let pick = UniformBin::new(pool.len());
                let a = pool.get(pick.sample(rng));
                let b = pool.get(pick.sample(rng));
                let (la, lb) = (effective(a), effective(b));
                let s = if la < lb {
                    a
                } else if lb < la {
                    b
                } else if rng.gen_bool(0.5) {
                    a
                } else {
                    b
                };
                take(s, &mut chosen, &mut racks_taken);
            }
        }
        PlacementPolicy::KdChoice { d } => {
            for _ in 0..MAX_PROBE_ROUNDS {
                if chosen.len() == count {
                    break;
                }
                let pool = pool(&chosen, &racks_taken);
                if pool.is_empty() {
                    break;
                }
                messages += d as u64;
                let pick = UniformBin::new(pool.len());
                let mut slots =
                    capacity_slots(d, |rng| pool.get(pick.sample(rng)), &load, &capacity, rng);
                slots.sort_unstable_by(cmp_slots);
                for &(_, _, s) in &slots {
                    if chosen.len() == count {
                        break;
                    }
                    if eligible(s, &chosen, &racks_taken) {
                        take(s, &mut chosen, &mut racks_taken);
                    }
                }
            }
        }
    }
    (chosen, messages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::sample::shuffle;
    use kdchoice_prng::Xoshiro256PlusPlus;
    use proptest::prelude::*;

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn constrained_kd_yields_distinct_servers() {
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let alive = identity(10);
        for _ in 0..200 {
            let (dest, msgs) = choose_constrained(
                PlacementPolicy::KdChoice { d: 6 },
                &alive,
                &alive,
                |_| 0,
                |_| 1.0,
                None,
                &[],
                3,
                &mut rng,
            );
            assert_eq!(dest.len(), 3);
            let mut sorted = dest.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must land on distinct servers");
            assert!(msgs >= 6);
        }
    }

    #[test]
    fn constrained_rack_aware_yields_distinct_racks() {
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        let alive = identity(12);
        // 4 racks of 3 servers each: rack = s % 4.
        for policy in [
            PlacementPolicy::KdChoice { d: 8 },
            PlacementPolicy::PerChunkTwoChoice,
            PlacementPolicy::Random,
        ] {
            for _ in 0..100 {
                let (dest, _) = choose_constrained(
                    policy,
                    &alive,
                    &alive,
                    |_| 0,
                    |_| 1.0,
                    Some(4),
                    &[],
                    3,
                    &mut rng,
                );
                assert_eq!(dest.len(), 3, "{policy}");
                let mut racks: Vec<usize> = dest.iter().map(|&s| s % 4).collect();
                racks.sort_unstable();
                racks.dedup();
                assert_eq!(racks.len(), 3, "{policy}: replicas must span racks");
            }
        }
    }

    #[test]
    fn rack_aware_skips_the_racks_of_holders() {
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let alive = identity(12);
        for _ in 0..100 {
            let (dest, _) = choose_constrained(
                PlacementPolicy::KdChoice { d: 6 },
                &alive,
                &alive,
                |_| 0,
                |_| 1.0,
                Some(4),
                &[1, 6],
                2,
                &mut rng,
            );
            assert_eq!(dest.len(), 2);
            assert!(dest.iter().all(|&s| s % 4 == 0 || s % 4 == 3), "{dest:?}");
        }
    }

    #[test]
    fn constrained_reports_shortfall_instead_of_panicking() {
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        // Only 2 eligible servers but 4 replicas wanted.
        let alive = identity(3);
        let (dest, _) = choose_constrained(
            PlacementPolicy::KdChoice { d: 4 },
            &alive,
            &alive,
            |_| 0,
            |_| 1.0,
            None,
            &[2],
            4,
            &mut rng,
        );
        assert_eq!(dest.len(), 2, "shortfall returned, not panicked");
    }

    #[test]
    fn forbidden_servers_are_never_chosen() {
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        let alive = identity(8);
        for _ in 0..100 {
            let (dest, _) = choose_constrained(
                PlacementPolicy::Random,
                &alive,
                &alive,
                |_| 0,
                |_| 1.0,
                None,
                &[0, 2, 4, 6],
                2,
                &mut rng,
            );
            assert!(dest.iter().all(|&s| s % 2 == 1), "{dest:?}");
        }
    }

    #[test]
    fn eligible_pool_skips_excluded_positions() {
        let alive = vec![7, 3, 0, 5, 1];
        let mut alive_pos = vec![usize::MAX; 9];
        for (p, &s) in alive.iter().enumerate() {
            alive_pos[s] = p;
        }
        // 8 is not alive; 3 is listed twice.
        let pool = EligiblePool::new(&alive, &alive_pos, [3, 8, 7, 3]);
        assert_eq!(pool.len(), 3);
        let survivors: Vec<usize> = (0..pool.len()).map(|j| pool.get(j)).collect();
        assert_eq!(survivors, vec![0, 5, 1]);
        assert!(EligiblePool::new(&alive, &alive_pos, alive.clone()).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The view equals the filtered pool it replaces, element for
        /// element, for any `alive` order (a shuffled subset of the
        /// servers) and any excluded multiset, including servers that are
        /// not alive.
        #[test]
        fn eligible_pool_matches_the_filtered_vec(
            servers in 1usize..80,
            alive_frac in 0.0f64..1.0,
            excluded in prop::collection::vec(0usize..80, 0..40),
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256PlusPlus::from_u64(seed);
            let mut order = identity(servers);
            shuffle(&mut rng, &mut order);
            let alive = &order[..(servers as f64 * alive_frac) as usize];
            let mut alive_pos = vec![usize::MAX; servers];
            for (p, &s) in alive.iter().enumerate() {
                alive_pos[s] = p;
            }
            let excluded: Vec<usize> = excluded.into_iter().map(|s| s % servers).collect();
            let filtered: Vec<usize> = alive
                .iter()
                .copied()
                .filter(|s| !excluded.contains(s))
                .collect();
            let pool = EligiblePool::new(alive, &alive_pos, excluded.iter().copied());
            prop_assert_eq!(pool.len(), filtered.len());
            prop_assert_eq!(pool.is_empty(), filtered.is_empty());
            for (j, &s) in filtered.iter().enumerate() {
                prop_assert_eq!(pool.get(j), s);
            }
        }
    }
}
