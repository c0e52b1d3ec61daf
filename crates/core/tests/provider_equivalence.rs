//! Property tests pinning the connectivity-provider axis: the precomputed
//! dedup-adjacency provider ([`AdjProvider`]) must return count vectors
//! identical to the epoch-traversal oracle
//! ([`NeighborScratch::neighbor_partition_counts`]) on random hypergraphs,
//! random partitions and random adjacency budgets — including budgets tight
//! enough to push vertices onto the hybrid hub-fallback path — and engine
//! runs under every budget must reproduce the [`HyperPraw`] driver.

use proptest::prelude::*;

use hyperpraw_core::engine::{
    AdjProvider, ConnectivityProvider, Engine, EngineConfig, InMemorySource,
};
use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig};
use hyperpraw_hypergraph::generators::{random_hypergraph, CardinalityDist, RandomConfig};
use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{AdjacencyBudget, Hypergraph, NeighborAdjacency, Partition};

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

/// Asserts that the provider and the traversal oracle return the same
/// `X_j(v)` vector for every vertex of `hg` under `partition`. Returns the
/// number of hub vertices.
fn assert_counts_match(hg: &Hypergraph, partition: &Partition, budget: AdjacencyBudget) -> usize {
    let mut oracle = NeighborScratch::new(hg.num_vertices());
    let adj = AdjProvider::new(hg, budget);
    let mut adj_scratch = adj.new_scratch();
    let mut expected = Vec::new();
    let mut got = Vec::new();
    let mut record = VertexRecord::default();
    for v in hg.vertices() {
        record.vertex = v;
        record.weight = hg.vertex_weight(v);
        oracle.neighbor_partition_counts(hg, partition, v, &mut expected);
        adj.count(&record, partition, &mut adj_scratch, &mut got);
        assert_eq!(got, expected, "budget {budget:?}, vertex {v}");
    }
    adj.adjacency().num_hubs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adjacency_counts_match_the_traversal_oracle_for_every_budget(
        hg in arb_hypergraph(),
        p in 2u32..7,
        seed in 0u64..50,
        cutoff in 0usize..16,
        max_bytes in 0usize..4096,
    ) {
        let n = hg.num_vertices();
        let assignment: Vec<u32> = (0..n as u64)
            .map(|v| ((v.wrapping_mul(seed.wrapping_add(0x9e37)).wrapping_add(seed)) % p as u64) as u32)
            .collect();
        let partition = Partition::from_assignment(assignment, p).unwrap();
        for budget in [
            AdjacencyBudget::Unbounded,
            AdjacencyBudget::Auto,
            AdjacencyBudget::DegreeCutoff(cutoff),
            AdjacencyBudget::MaxBytes(max_bytes),
        ] {
            assert_counts_match(&hg, &partition, budget);
        }
        // The full adjacency never hubs anything; a zero cutover hubs every
        // connected vertex, exercising the pure-fallback path above.
        prop_assert_eq!(
            AdjProvider::new(&hg, AdjacencyBudget::Unbounded).adjacency().num_hubs(),
            0
        );
    }

    #[test]
    fn tight_budgets_actually_exercise_the_hub_fallback(
        hg in arb_hypergraph(),
        p in 2u32..5,
    ) {
        let partition = Partition::round_robin(hg.num_vertices(), p);
        // A one-entry byte budget forces (almost) everything to be a hub,
        // so this case runs the fallback path for every connected vertex.
        let hubs = assert_counts_match(
            &hg,
            &partition,
            AdjacencyBudget::MaxBytes(std::mem::size_of::<u32>()),
        );
        let connected = hg.vertices().filter(|&v| hg.degree(v) > 0).count();
        if connected > 2 {
            prop_assert!(hubs > 0, "expected hubs under a one-entry budget");
        }
    }

    #[test]
    fn engine_runs_match_the_driver_under_every_budget(
        hg in arb_hypergraph(),
        p in 2u32..6,
        seed in 0u64..20,
        cutoff in 0usize..16,
    ) {
        let config = HyperPrawConfig {
            max_iterations: 25,
            ..HyperPrawConfig::default().with_seed(seed)
        };
        let cost = CostMatrix::uniform(p as usize);
        let reference = HyperPraw::new(config, cost.clone()).partition(&hg);
        for budget in [
            AdjacencyBudget::Unbounded,
            AdjacencyBudget::DegreeCutoff(cutoff),
            AdjacencyBudget::DegreeCutoff(0),
            AdjacencyBudget::MaxBytes(std::mem::size_of::<u32>()),
        ] {
            let adj = NeighborAdjacency::build(&hg, budget);
            let other = Engine::new(EngineConfig::restreaming(&config))
                .run(
                    &cost,
                    &mut InMemorySource::new(&hg, config.stream_order, config.seed),
                    &mut AdjProvider::from_adjacency(&hg, &adj),
                )
                .unwrap();
            prop_assert_eq!(
                other.partition.assignment(),
                reference.partition.assignment(),
                "budget {:?} diverged", budget
            );
            prop_assert_eq!(other.iterations, reference.iterations);
            prop_assert_eq!(other.comm_cost.to_bits(), reference.comm_cost.to_bits());
            prop_assert_eq!(other.imbalance.to_bits(), reference.imbalance.to_bits());
        }
    }
}
