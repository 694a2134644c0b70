//! Tests of the synchronous §1.3 storage cluster: [`ChunkCluster`] under
//! [`ClusterConfig::legacy_compat`] (multiplicity placement, synchronous
//! heartbeats, unbounded recovery). A chunk here is a §1.3 file: `k`
//! replicas placed by one policy decision.

mod tests {
    use kdchoice_prng::Xoshiro256PlusPlus;

    use crate::{ChunkCluster, ClusterConfig, FaultEvent, FaultPlan, PlacementPolicy};

    fn kd(d: usize) -> PlacementPolicy {
        PlacementPolicy::KdChoice { d }
    }

    /// A synchronous §1.3 cluster that runs `plan`.
    fn cluster(
        servers: usize,
        k: usize,
        policy: PlacementPolicy,
        plan: &FaultPlan,
    ) -> ChunkCluster {
        ChunkCluster::new(ClusterConfig::legacy_compat(servers, k, policy), plan)
    }

    /// `ticks` ticks with one random crash each, starting at tick 1.
    fn random_crashes(ticks: u64) -> FaultPlan {
        (1..=ticks).fold(FaultPlan::new(), |plan, tick| {
            plan.at(tick, FaultEvent::CrashRandom)
        })
    }

    #[test]
    fn construction_validates() {
        let c = cluster(10, 3, kd(5), &FaultPlan::new());
        assert_eq!(c.alive_servers(), 10);
        assert_eq!(c.total_servers(), 10);
        assert_eq!(c.chunks(), 0);
        assert!(c.check_invariants());
    }

    #[test]
    #[should_panic(expected = "d >= k")]
    fn kd_policy_needs_enough_probes() {
        let _ = cluster(10, 4, kd(3), &FaultPlan::new());
    }

    #[test]
    fn create_places_k_chunks() {
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        for policy in [
            kd(6),
            PlacementPolicy::PerChunkTwoChoice,
            PlacementPolicy::Random,
        ] {
            let mut c = cluster(20, 3, policy, &FaultPlan::new());
            for _ in 0..50 {
                c.create_chunk(&mut rng).unwrap();
            }
            assert_eq!(c.stats().total_chunks, 150, "{policy:?}");
            assert!(c.check_invariants(), "{policy:?}");
        }
    }

    #[test]
    fn placement_message_accounting() {
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        for (policy, probes) in [
            (kd(4), 4),
            (PlacementPolicy::PerChunkTwoChoice, 6),
            (PlacementPolicy::Random, 0),
        ] {
            let mut c = cluster(20, 3, policy, &FaultPlan::new());
            c.create_chunk(&mut rng).unwrap();
            assert_eq!(c.stats().placement_messages, probes, "{policy:?}");
        }
    }

    #[test]
    fn read_costs_match_section_1_3() {
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let mut kd_cluster = cluster(20, 4, kd(5), &FaultPlan::new());
        let f = kd_cluster.create_chunk(&mut rng).unwrap();
        assert_eq!(kd_cluster.read_chunk(f), 5); // k + 1
        let mut two = cluster(20, 4, PlacementPolicy::PerChunkTwoChoice, &FaultPlan::new());
        let f = two.create_chunk(&mut rng).unwrap();
        assert_eq!(two.read_chunk(f), 8); // 2k
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn read_unknown_file_panics() {
        let _ = cluster(5, 2, PlacementPolicy::Random, &FaultPlan::new()).read_chunk(7);
    }

    #[test]
    fn kd_placement_respects_multiplicity_and_prefers_cold_servers() {
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        let mut c = cluster(4, 2, kd(8), &FaultPlan::new());
        for _ in 0..40 {
            c.create_chunk(&mut rng).unwrap();
        }
        let loads = c.alive_loads();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        // 80 replicas over 4 servers with d=8 probing: very tight balance.
        assert!(max - min <= 3, "loads {loads:?}");
    }

    #[test]
    fn failure_recovery_moves_all_chunks() {
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let mut c = cluster(10, 3, kd(4), &random_crashes(1));
        for _ in 0..30 {
            c.create_chunk(&mut rng).unwrap();
        }
        let before = c.stats().total_chunks;
        let loads_before = c.alive_loads();
        c.tick(&mut rng);
        assert_eq!(c.alive_servers(), 9);
        let after = c.stats();
        assert_eq!(after.total_chunks, before, "chunks must be conserved");
        // Every replica the victim held was re-placed, in the crash tick.
        assert!(
            loads_before.contains(&(after.recovered_chunks as u32)),
            "recovered {} is no server's load in {loads_before:?}",
            after.recovered_chunks
        );
        assert!(c.check_invariants());
        // Every replica sits on an up server.
        assert_eq!(c.under_replicated(), 0);
        assert_eq!(c.unavailable(), 0);
    }

    #[test]
    fn fault_errors_are_values_not_panics() {
        let plan = FaultPlan::new()
            .at(1, FaultEvent::Crash { server: 0 })
            .at(2, FaultEvent::Crash { server: 0 })
            .at(3, FaultEvent::Crash { server: 17 })
            .at(4, FaultEvent::Crash { server: 1 })
            .at(4, FaultEvent::Crash { server: 2 })
            .at(5, FaultEvent::CrashRandom);
        let mut c = cluster(3, 1, PlacementPolicy::Random, &plan);
        let mut rng = Xoshiro256PlusPlus::from_u64(6);

        // Double failure: the second crash is a plan error, changes
        // nothing, and the cluster stays usable.
        c.tick(&mut rng);
        c.tick(&mut rng);
        assert_eq!(c.degradation().crashes, 1);
        assert_eq!(c.degradation().plan_errors, 1);
        assert_eq!(c.alive_servers(), 2);
        assert!(c.check_invariants());

        // Out-of-range target.
        c.tick(&mut rng);
        assert_eq!(c.degradation().plan_errors, 2);

        // Draining the alive set: crashing the last chunkless servers is
        // fine, then sampling a victim from the empty set is a plan error.
        c.tick(&mut rng);
        assert_eq!(c.alive_servers(), 0);
        c.tick(&mut rng);
        let d = c.degradation();
        assert_eq!(d.crashes, 3);
        assert_eq!(d.plan_errors, 3);
        assert!(c.check_invariants());
    }

    #[test]
    fn cascading_failures_keep_invariants() {
        let mut c = cluster(16, 2, kd(4), &random_crashes(12));
        let mut rng = Xoshiro256PlusPlus::from_u64(7);
        for _ in 0..64 {
            c.create_chunk(&mut rng).unwrap();
        }
        for _ in 0..12 {
            c.tick(&mut rng);
            assert!(c.check_invariants(), "tick {}", c.now());
        }
        assert_eq!(c.alive_servers(), 4);
        assert_eq!(c.stats().total_chunks, 128);
        assert_eq!(c.under_replicated(), 0);
    }

    #[test]
    fn heterogeneous_capacities_absorb_proportionally() {
        let mut rng = Xoshiro256PlusPlus::from_u64(20);
        // Half the servers have double capacity.
        let n = 40;
        let caps: Vec<f64> = (0..n).map(|i| if i < 20 { 2.0 } else { 1.0 }).collect();
        let mut c = cluster(n, 2, kd(8), &FaultPlan::new()).with_capacities(&caps);
        for _ in 0..600 {
            c.create_chunk(&mut rng).unwrap();
        }
        let loads = c.alive_loads();
        let big: u64 = loads[..20].iter().map(|&l| u64::from(l)).sum();
        let small: u64 = loads[20..].iter().map(|&l| u64::from(l)).sum();
        let ratio = big as f64 / small as f64;
        assert!(
            (1.5..=2.6).contains(&ratio),
            "capacity-2 servers should hold ~2x the replicas, ratio {ratio}"
        );
        assert!(c.check_invariants());
    }

    #[test]
    #[should_panic(expected = "one capacity per server")]
    fn capacities_length_checked() {
        let _ = cluster(3, 1, PlacementPolicy::Random, &FaultPlan::new()).with_capacities(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn capacities_value_checked() {
        let _ =
            cluster(2, 1, PlacementPolicy::Random, &FaultPlan::new()).with_capacities(&[1.0, 0.0]);
    }

    #[test]
    fn kd_beats_random_on_imbalance() {
        let mut rng_a = Xoshiro256PlusPlus::from_u64(8);
        let mut rng_b = Xoshiro256PlusPlus::from_u64(8);
        let mut kd_cluster = cluster(100, 3, kd(6), &FaultPlan::new());
        let mut random = cluster(100, 3, PlacementPolicy::Random, &FaultPlan::new());
        for _ in 0..300 {
            kd_cluster.create_chunk(&mut rng_a).unwrap();
            random.create_chunk(&mut rng_b).unwrap();
        }
        assert!(
            kd_cluster.stats().max_load < random.stats().max_load,
            "kd {} vs random {}",
            kd_cluster.stats().max_load,
            random.stats().max_load
        );
    }
}
