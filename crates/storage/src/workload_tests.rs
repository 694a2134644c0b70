//! Tests of the synchronous §1.3 storage experiment: a [`WorkloadConfig`]
//! run through [`ClusterWorkloadConfig::legacy_compat`] and
//! [`run_cluster_workload`].

mod tests {
    use crate::{
        run_cluster_workload, ClusterReport, ClusterWorkloadConfig, PlacementPolicy, WorkloadConfig,
    };

    fn run_storage(config: &WorkloadConfig) -> ClusterReport {
        run_cluster_workload(&ClusterWorkloadConfig::legacy_compat(config))
    }

    #[test]
    fn workload_is_deterministic() {
        let cfg = WorkloadConfig::new(40, 3, PlacementPolicy::KdChoice { d: 6 }).with_seed(1);
        let a = run_storage(&cfg);
        let b = run_storage(&cfg);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn failures_reduce_alive_count_but_conserve_chunks() {
        let cfg = WorkloadConfig::new(30, 3, PlacementPolicy::KdChoice { d: 6 })
            .with_failures(5)
            .with_seed(2);
        let r = run_storage(&cfg);
        assert_eq!(r.stats.alive_servers, 25);
        assert_eq!(r.stats.total_chunks, (cfg.files * 3) as u64);
        assert!(r.stats.recovered_chunks > 0);
        assert!(r.stats.recovery_messages >= r.stats.recovered_chunks);
    }

    #[test]
    fn read_costs_favor_kd_over_per_chunk_two_choice() {
        let kd = run_storage(
            &WorkloadConfig::new(40, 4, PlacementPolicy::KdChoice { d: 8 }).with_seed(3),
        );
        let two = run_storage(
            &WorkloadConfig::new(40, 4, PlacementPolicy::PerChunkTwoChoice).with_seed(3),
        );
        assert_eq!(kd.read_cost_per_op, 5.0);
        assert_eq!(two.read_cost_per_op, 8.0);
        // §1.3: "approximately half".
        assert!(kd.read_cost_per_op < 0.7 * two.read_cost_per_op);
    }

    #[test]
    fn kd_balances_better_than_random() {
        let kd = run_storage(
            &WorkloadConfig::new(60, 3, PlacementPolicy::KdChoice { d: 9 }).with_seed(4),
        );
        let rnd = run_storage(&WorkloadConfig::new(60, 3, PlacementPolicy::Random).with_seed(4));
        assert!(
            kd.stats.imbalance < rnd.stats.imbalance,
            "kd {} vs random {}",
            kd.stats.imbalance,
            rnd.stats.imbalance
        );
    }

    #[test]
    fn zero_reads_and_files_are_handled() {
        let mut cfg = WorkloadConfig::new(10, 2, PlacementPolicy::Random).with_seed(5);
        cfg.files = 0;
        cfg.reads = 0;
        let r = run_storage(&cfg);
        assert_eq!(r.stats.total_chunks, 0);
        assert_eq!(r.read_cost_per_op, 0.0);
        assert_eq!(r.create_cost_per_file, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot fail every server")]
    fn all_failures_rejected() {
        let cfg = WorkloadConfig::new(3, 1, PlacementPolicy::Random).with_failures(3);
        let _ = ClusterWorkloadConfig::legacy_compat(&cfg);
    }
}
