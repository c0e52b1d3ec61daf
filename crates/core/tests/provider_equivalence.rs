//! Property tests pinning the connectivity-provider axis: [`AdjProvider`]
//! must return count vectors identical to the epoch-traversal oracle
//! ([`NeighborScratch::neighbor_partition_counts`]) on random hypergraphs
//! and random partitions, before and after it keeps counts, and an engine
//! run over it must reproduce the [`HyperPraw`] driver.

use proptest::prelude::*;

use hyperpraw_core::engine::{
    AdjProvider, ConnectivityProvider, Engine, EngineConfig, InMemorySource,
};
use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig};
use hyperpraw_hypergraph::generators::{random_hypergraph, CardinalityDist, RandomConfig};
use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{Hypergraph, Partition};

fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (20usize..120, 10usize..80, 0u64..400).prop_map(|(n, e, seed)| {
        random_hypergraph(&RandomConfig {
            num_vertices: n,
            num_hyperedges: e,
            cardinality: CardinalityDist::Uniform { min: 2, max: 8 },
            seed,
            name: "prop".into(),
        })
    })
}

/// Asserts that `adj` and the traversal oracle return the same `X_j(v)`
/// vector for every vertex of `hg` under `partition`.
fn assert_counts_match(hg: &Hypergraph, partition: &Partition, adj: &AdjProvider<'_>, at: &str) {
    let mut oracle = NeighborScratch::new(hg.num_vertices());
    let mut adj_scratch = adj.new_scratch();
    let mut expected = Vec::new();
    let mut got = Vec::new();
    let mut record = VertexRecord::default();
    for v in hg.vertices() {
        record.vertex = v;
        record.weight = hg.vertex_weight(v);
        oracle.neighbor_partition_counts(hg, partition, v, &mut expected);
        adj.count(&record, partition, &mut adj_scratch, &mut got);
        assert_eq!(got, expected, "{at}, vertex {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn provider_counts_match_the_traversal_oracle(
        hg in arb_hypergraph(),
        p in 2u32..7,
        seed in 0u64..50,
    ) {
        let n = hg.num_vertices();
        let assignment: Vec<u32> = (0..n as u64)
            .map(|v| ((v.wrapping_mul(seed.wrapping_add(0x9e37)).wrapping_add(seed)) % p as u64) as u32)
            .collect();
        let partition = Partition::from_assignment(assignment, p).unwrap();
        let mut adj = AdjProvider::traversal(&hg);
        assert_counts_match(&hg, &partition, &adj, "unsynced");
        adj.sync(&partition, None);
        assert_counts_match(&hg, &partition, &adj, "synced");
    }

    #[test]
    fn engine_runs_match_the_driver(
        hg in arb_hypergraph(),
        p in 2u32..6,
        seed in 0u64..20,
    ) {
        let config = HyperPrawConfig {
            max_iterations: 25,
            ..HyperPrawConfig::default().with_seed(seed)
        };
        let cost = CostMatrix::uniform(p as usize);
        let reference = HyperPraw::new(config, cost.clone()).partition(&hg);
        let other = Engine::new(EngineConfig::restreaming(&config))
            .run(
                &cost,
                &mut InMemorySource::new(&hg, config.stream_order, config.seed),
                &mut AdjProvider::traversal(&hg),
            )
            .unwrap();
        prop_assert_eq!(other.partition.assignment(), reference.partition.assignment());
        prop_assert_eq!(other.iterations, reference.iterations);
        prop_assert_eq!(other.comm_cost.to_bits(), reference.comm_cost.to_bits());
        prop_assert_eq!(other.imbalance.to_bits(), reference.imbalance.to_bits());
    }
}
