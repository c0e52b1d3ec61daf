//! Property-based tests for the hypergraph substrate.

use proptest::prelude::*;

use hyperpraw_hypergraph::generators::{random_hypergraph, CardinalityDist, RandomConfig};
use hyperpraw_hypergraph::io::hmetis;
use hyperpraw_hypergraph::metrics;
use hyperpraw_hypergraph::{Hypergraph, HypergraphBuilder, Partition};

/// Strategy: a small random hypergraph description (list of hyperedges).
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    // Up to 12 hyperedges over up to 20 vertices, cardinality 1..=6.
    prop::collection::vec(prop::collection::vec(0u32..20, 1..6), 1..12).prop_map(|edges| {
        let mut b = HypergraphBuilder::new(20);
        for pins in edges {
            b.add_hyperedge(pins);
        }
        b.build()
    })
}

/// Strategy: a hypergraph together with a valid partition over it.
fn arb_partitioned() -> impl Strategy<Value = (Hypergraph, Partition)> {
    (arb_hypergraph(), 1u32..6).prop_flat_map(|(hg, p)| {
        let n = hg.num_vertices();
        (
            Just(hg),
            prop::collection::vec(0u32..p, n..=n)
                .prop_map(move |a| Partition::from_assignment(a, p).expect("assignment in range")),
        )
    })
}

proptest! {
    #[test]
    fn built_hypergraphs_always_validate(hg in arb_hypergraph()) {
        prop_assert!(hg.validate().is_ok());
    }

    #[test]
    fn pin_count_is_consistent_between_directions(hg in arb_hypergraph()) {
        let via_edges: usize = hg.hyperedges().map(|e| hg.cardinality(e)).sum();
        let via_vertices: usize = hg.vertices().map(|v| hg.degree(v)).sum();
        prop_assert_eq!(via_edges, via_vertices);
        prop_assert_eq!(via_edges, hg.num_pins());
    }

    #[test]
    fn hgr_round_trip_preserves_structure(hg in arb_hypergraph()) {
        let mut buf = Vec::new();
        hmetis::write_hgr(&hg, &mut buf).unwrap();
        let back = hmetis::read_hgr(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.num_vertices(), hg.num_vertices());
        prop_assert_eq!(back.num_hyperedges(), hg.num_hyperedges());
        for e in hg.hyperedges() {
            prop_assert_eq!(back.pins(e), hg.pins(e));
        }
    }

    #[test]
    fn soed_bounds_hold(
        (hg, part) in arb_partitioned()
    ) {
        let cut = metrics::hyperedge_cut(&hg, &part);
        let soed = metrics::soed(&hg, &part);
        // Every cut hyperedge contributes at least 2 and at most p to SOED.
        prop_assert!(soed >= 2 * cut);
        prop_assert!(soed <= cut * part.num_parts() as u64);
        // The connectivity-minus-one metric relates to SOED: soed - cut = conn-1 restricted
        // to cut edges; for unit weights conn-1 counts uncut edges as zero.
        let conn = metrics::connectivity_minus_one(&hg, &part);
        prop_assert!((conn - (soed as f64 - cut as f64)).abs() < 1e-9);
    }

    #[test]
    fn imbalance_is_at_least_one_and_at_most_p(
        (hg, part) in arb_partitioned()
    ) {
        if hg.num_vertices() == part.num_vertices() && hg.num_vertices() > 0 {
            let imb = part.imbalance(&hg).unwrap();
            prop_assert!(imb >= 1.0 - 1e-9);
            prop_assert!(imb <= part.num_parts() as f64 + 1e-9);
        }
    }

    #[test]
    fn relabelling_partitions_preserves_cut_metrics(
        (hg, part) in arb_partitioned()
    ) {
        let p = part.num_parts();
        // Reverse the partition labels.
        let relabelled: Vec<u32> = part
            .assignment()
            .iter()
            .map(|&x| p - 1 - x)
            .collect();
        let part2 = Partition::from_assignment(relabelled, p).unwrap();
        prop_assert_eq!(
            metrics::hyperedge_cut(&hg, &part),
            metrics::hyperedge_cut(&hg, &part2)
        );
        prop_assert_eq!(metrics::soed(&hg, &part), metrics::soed(&hg, &part2));
    }

    #[test]
    fn single_partition_has_no_cut(hg in arb_hypergraph()) {
        let part = Partition::all_in_one(hg.num_vertices(), 1);
        prop_assert_eq!(metrics::hyperedge_cut(&hg, &part), 0);
        prop_assert_eq!(metrics::soed(&hg, &part), 0);
    }

    #[test]
    fn random_generator_respects_cardinality_bounds(
        n in 10usize..60,
        e in 1usize..30,
        min in 2usize..4,
        extra in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = RandomConfig {
            num_vertices: n,
            num_hyperedges: e,
            cardinality: CardinalityDist::Uniform { min, max: min + extra },
            seed,
            name: String::new(),
        };
        let hg = random_hypergraph(&cfg);
        prop_assert!(hg.validate().is_ok());
        for edge in hg.hyperedges() {
            let c = hg.cardinality(edge);
            prop_assert!(c >= min.min(n));
            prop_assert!(c <= (min + extra).min(n));
        }
    }
}
