//! Property-based tests for the HyperPRAW partitioner.

use proptest::prelude::*;

use hyperpraw_core::metrics::partitioning_communication_cost;
use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig, RefinementPolicy, StreamOrder};
use hyperpraw_hypergraph::generators::{random_hypergraph, CardinalityDist, RandomConfig};
use hyperpraw_hypergraph::{metrics, Hypergraph};
use hyperpraw_topology::{BandwidthMatrix, MachineModel};

fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (30usize..150, 15usize..100, 0u64..500).prop_map(|(n, e, seed)| {
        random_hypergraph(&RandomConfig {
            num_vertices: n,
            num_hyperedges: e,
            cardinality: CardinalityDist::Uniform { min: 2, max: 6 },
            seed,
            name: "prop".into(),
        })
    })
}

fn quick_config(seed: u64) -> HyperPrawConfig {
    HyperPrawConfig {
        max_iterations: 30,
        ..HyperPrawConfig::default().with_seed(seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn partitions_are_always_complete_and_in_range(
        hg in arb_hypergraph(),
        p in 2u32..8,
        seed in 0u64..20,
    ) {
        let result = HyperPraw::basic(quick_config(seed), p).partition(&hg);
        prop_assert_eq!(result.partition.num_vertices(), hg.num_vertices());
        prop_assert_eq!(result.partition.num_parts(), p);
        prop_assert!(result.partition.assignment().iter().all(|&x| x < p));
        // Vertex-count conservation: part sizes sum to |V|.
        let total: usize = result.partition.part_sizes().iter().sum();
        prop_assert_eq!(total, hg.num_vertices());
    }

    #[test]
    fn reported_metrics_match_recomputation(
        hg in arb_hypergraph(),
        p in 2u32..6,
        seed in 0u64..20,
    ) {
        let cost = CostMatrix::uniform(p as usize);
        let result = HyperPraw::new(quick_config(seed), cost.clone()).partition(&hg);
        let recomputed = partitioning_communication_cost(&hg, &result.partition, &cost);
        prop_assert!((result.comm_cost - recomputed).abs() < 1e-6);
        let imbalance = result.partition.imbalance(&hg).unwrap();
        prop_assert!((result.imbalance - imbalance).abs() < 1e-9);
    }

    #[test]
    fn history_invariants_hold(
        hg in arb_hypergraph(),
        p in 2u32..6,
        seed in 0u64..20,
    ) {
        let result = HyperPraw::basic(quick_config(seed), p).partition(&hg);
        let records = result.history.records();
        prop_assert_eq!(records.len(), result.iterations);
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(r.iteration, i + 1);
            prop_assert!(r.alpha > 0.0);
            prop_assert!(r.imbalance >= 1.0 - 1e-9);
            prop_assert!(r.comm_cost >= 0.0);
            prop_assert!(r.moved_vertices <= hg.num_vertices());
        }
    }

    #[test]
    fn uniform_cost_comm_cost_lower_bounds_relate_to_soed(
        hg in arb_hypergraph(),
        p in 2u32..6,
        seed in 0u64..20,
    ) {
        // With a uniform cost matrix, every remote neighbour pair costs 1, so
        // PC(P) equals the number of ordered remote neighbour pairs, which is
        // at least twice the number of cut hyperedges (each cut hyperedge has
        // at least one remote pair counted from both sides).
        let cost = CostMatrix::uniform(p as usize);
        let result = HyperPraw::new(quick_config(seed), cost.clone()).partition(&hg);
        let cut = metrics::hyperedge_cut(&hg, &result.partition);
        if cut == 0 {
            prop_assert!(result.comm_cost.abs() < 1e-9);
        } else {
            // Each cut hyperedge contributes at least one remote neighbour
            // pair, counted once from each side.
            prop_assert!(result.comm_cost + 1e-9 >= 2.0);
        }
    }

    #[test]
    fn refinement_never_ends_worse_than_no_refinement(
        hg in arb_hypergraph(),
        p in 2u32..6,
        seed in 0u64..10,
    ) {
        let machine = MachineModel::archer_like(p as usize);
        let cost = CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, seed));
        let none = HyperPraw::new(
            quick_config(seed).with_refinement(RefinementPolicy::None),
            cost.clone(),
        )
        .partition(&hg);
        let refined = HyperPraw::new(
            quick_config(seed).with_refinement(RefinementPolicy::Factor(0.95)),
            cost,
        )
        .partition(&hg);
        prop_assert!(refined.comm_cost <= none.comm_cost + 1e-6);
    }

    #[test]
    fn stream_order_does_not_break_feasibility(
        hg in arb_hypergraph(),
        p in 2u32..6,
        seed in 0u64..10,
    ) {
        for order in [StreamOrder::Natural, StreamOrder::Random, StreamOrder::DegreeDescending] {
            let config = quick_config(seed).with_stream_order(order);
            let result = HyperPraw::basic(config, p).partition(&hg);
            // Either the tolerance was met, or the iteration limit was hit
            // (tiny instances with huge hyperedges can be unsplittable).
            if result.history.first_feasible_iteration(1.1).is_some() {
                prop_assert!(result.imbalance <= 1.1 + 1e-9);
            }
        }
    }

    #[test]
    fn better_partitions_exist_than_the_worst_baseline(
        hg in arb_hypergraph(),
        p in 2u32..5,
        seed in 0u64..10,
    ) {
        // HyperPRAW should never be worse (in SOED) than assigning vertices
        // uniformly at random, provided it reached feasibility.
        let result = HyperPraw::basic(quick_config(seed), p).partition(&hg);
        if result.imbalance <= 1.1 + 1e-9 {
            let random = hyperpraw_core::baselines::random(&hg, p, seed);
            let praw = metrics::soed(&hg, &result.partition);
            let rnd = metrics::soed(&hg, &random);
            prop_assert!(praw <= rnd + (0.15 * rnd as f64) as u64 + 2,
                "HyperPRAW SOED {} much worse than random {}", praw, rnd);
        }
    }

    #[test]
    fn work_stealing_is_valid_at_any_thread_count(
        hg in arb_hypergraph(),
        p in 2u32..8,
        threads in 1usize..9,
        seed in 0u64..10,
    ) {
        // The work-stealing strategy races workers over live shared state,
        // so the *partition* is not reproducible above one thread — but it
        // must always be a complete, consistently-bookkept partition.
        let result = HyperPraw::new(quick_config(seed), CostMatrix::uniform(p as usize))
            .with_threads(threads)
            .partition(&hg);
        // Every vertex assigned, every part id in range.
        prop_assert_eq!(result.partition.num_vertices(), hg.num_vertices());
        prop_assert_eq!(result.partition.num_parts(), p);
        prop_assert!(result.partition.assignment().iter().all(|&x| x < p));
        // Per-part sizes exactly equal a from-scratch recount.
        let mut recount = vec![0usize; p as usize];
        for &x in result.partition.assignment() {
            recount[x as usize] += 1;
        }
        prop_assert_eq!(result.partition.part_sizes(), recount);
        // Imbalance bookkeeping survives the concurrent load updates.
        let imbalance = result.partition.imbalance(&hg).unwrap();
        prop_assert!((result.imbalance - imbalance).abs() < 1e-9,
            "reported imbalance {} drifted from recomputed {}", result.imbalance, imbalance);
        // Reported comm cost matches a recomputation on the final partition.
        let recomputed = partitioning_communication_cost(
            &hg, &result.partition, &CostMatrix::uniform(p as usize));
        prop_assert!((result.comm_cost - recomputed).abs() < 1e-6);
    }

    #[test]
    fn partition_is_invariant_to_cost_matrix_scaling(
        hg in arb_hypergraph(),
        p in 2u32..6,
        scale_num in 1u32..20,
    ) {
        // The normalisation argument of §4.2: scaling all off-diagonal costs
        // by a constant multiplies T_i(v) uniformly... note this is NOT a
        // no-op for the value function because the balance term is not
        // scaled; but scaling bandwidths (not costs) leaves the normalised
        // cost matrix unchanged, hence the partition too.
        let machine = MachineModel::archer_like(p as usize);
        let base = BandwidthMatrix::from_machine(&machine, 0.0, 1);
        let factor = scale_num as f64;
        let n = base.num_units();
        let scaled_raw: Vec<f64> = (0..n * n)
            .map(|idx| base.get(idx / n, idx % n) * factor)
            .collect();
        let scaled = BandwidthMatrix::from_raw(n, scaled_raw);
        let a = HyperPraw::new(quick_config(1), CostMatrix::from_bandwidth(&base)).partition(&hg);
        let b = HyperPraw::new(quick_config(1), CostMatrix::from_bandwidth(&scaled)).partition(&hg);
        prop_assert_eq!(a.partition, b.partition);
    }
}
