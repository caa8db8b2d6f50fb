//! Property-based tests for the fabric: collectives must be data-
//! preserving permutations for arbitrary payloads, rank counts and group
//! shapes.

use proptest::prelude::*;
use qsim_net::collective::{all_reduce_sum, all_to_all, Communicator};
use qsim_net::fabric::{run_cluster, FabricStats};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_to_all_is_a_data_permutation(
        g in 1u32..=3,
        chunk_log in 0u32..=4,
        seed in 0u64..1000,
    ) {
        let ranks = 1usize << g;
        let chunk = 1usize << chunk_log;
        // Unique tagged payload values: (rank, index).
        let (results, _) = run_cluster(ranks, |ctx| {
            let send: Vec<u64> = (0..ranks * chunk)
                .map(|i| seed * 1_000_000 + (ctx.rank() * ranks * chunk + i) as u64)
                .collect();
            all_to_all(ctx, Communicator::world(ctx), &send)
        });
        // Every sent value appears exactly once somewhere.
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..ranks)
            .flat_map(|r| (0..ranks * chunk).map(move |i| seed * 1_000_000 + (r * ranks * chunk + i) as u64))
            .collect();
        let mut expect = expect;
        expect.sort_unstable();
        prop_assert_eq!(all, expect);
    }

    #[test]
    fn all_reduce_sums_exactly(values in prop::collection::vec(-100.0f64..100.0, 4)) {
        let vals = values.clone();
        let (results, _) = run_cluster(4, move |ctx| {
            all_reduce_sum(ctx, vals[ctx.rank()])
        });
        let expect: f64 = values.iter().sum();
        for r in results {
            prop_assert!((r - expect).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `FabricStats::overlap_fraction` is a derived ratio and must stay
    /// in [0, 1] for arbitrary non-negative counters — including blocked
    /// time exceeding total comm time (per-rank clock granularity) and
    /// the no-communication degenerate case.
    #[test]
    fn fabric_stats_overlap_fraction_bounded(
        n_ranks in 0usize..=1024,
        total_bytes_sent in 0u64..=1u64 << 50,
        max_comm in 0.0f64..1e9,
        mean_comm in 0.0f64..1e9,
        max_blocked in 0.0f64..2e9,
        mean_blocked in 0.0f64..2e9,
        wire_allocs in 0u64..=1u64 << 40,
    ) {
        let stats = FabricStats {
            n_ranks,
            total_bytes_sent,
            max_comm_seconds: max_comm,
            mean_comm_seconds: mean_comm,
            max_blocked_seconds: max_blocked,
            mean_blocked_seconds: mean_blocked,
            wire_allocs,
        };
        let f = stats.overlap_fraction();
        prop_assert!((0.0..=1.0).contains(&f), "overlap_fraction {} out of [0, 1]", f);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same bound on stats measured from a real message workload.
    #[test]
    fn fabric_workload_overlap_fraction_bounded(
        g in 1u32..=3,
        payload_log in 0u32..=12,
        rounds in 1usize..=4,
    ) {
        let ranks = 1usize << g;
        let (_, stats) = run_cluster(ranks, move |ctx| {
            let partner = ctx.rank() ^ 1;
            let payload = vec![0u8; 1usize << payload_log];
            for _ in 0..rounds {
                ctx.exchange(partner, &payload);
            }
        });
        let f = stats.overlap_fraction();
        prop_assert!((0.0..=1.0).contains(&f), "overlap_fraction {} out of [0, 1]", f);
    }
}
