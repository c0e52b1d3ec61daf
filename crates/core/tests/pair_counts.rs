//! Model test of [`AdjProvider`]'s kept part-pair counts `M`.
//!
//! A provider synced over every vertex keeps `M[a][·]`, the sum of the
//! part counts `X(v)` of the vertices on part `a`, and answers the
//! engine's per-pass comm-cost evaluation from it. Exclusive moves shift
//! `M` by the mover's own `X(v)`; concurrent moves only mark it stale,
//! and the next evaluation re-sums it from the kept rows. Either way
//! every answer must be bit-identical to a fresh
//! [`partitioning_communication_cost`] of the same assignment — after
//! random move sequences, and after every pass of full engine runs under
//! each execution strategy. A provider synced on a subset keeps no `M`
//! and answers `None`.

use proptest::prelude::*;

use hyperpraw_core::engine::{
    AdjProvider, ConnectivityProvider, Engine, EngineConfig, ExecutionStrategy, InMemorySource,
    NoCommCost, StayCertificate,
};
use hyperpraw_core::metrics::partitioning_communication_cost;
use hyperpraw_core::{CostMatrix, HyperPrawConfig};
use hyperpraw_hypergraph::generators::{
    mesh_hypergraph, powerlaw_hypergraph, random_hypergraph, CardinalityDist, MeshConfig,
    PowerLawConfig, RandomConfig,
};
use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::{
    AdjacencyBudget, AssignmentRef, Hypergraph, NeighborAdjacency, Partition, VertexId,
};
use hyperpraw_topology::{BandwidthMatrix, MachineModel};

fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (20usize..100, 10usize..70, 0u64..400).prop_map(|(n, e, seed)| {
        random_hypergraph(&RandomConfig {
            num_vertices: n,
            num_hyperedges: e,
            cardinality: CardinalityDist::Uniform { min: 2, max: 9 },
            seed,
            name: "prop".into(),
        })
    })
}

fn archer_cost(p: usize) -> CostMatrix {
    let machine = MachineModel::archer_like(p);
    CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, 1))
}

/// Syncs `provider` to `start` over every vertex and replays `moves`,
/// through [`ConnectivityProvider::moved_exclusive`] or, with `shared`,
/// through [`ConnectivityProvider::moved`]. Every tenth move, and after
/// the last, the provider's comm cost must equal the oracle's bits.
fn check_model(
    hg: &Hypergraph,
    mut provider: AdjProvider<'_>,
    mut partition: Partition,
    moves: &[(usize, u32)],
    shared: bool,
    cost: &CostMatrix,
) {
    let n = hg.num_vertices();
    let p = partition.num_parts();
    provider.sync(&partition, None);
    let mut scratch = provider.new_scratch();
    let oracle = |partition: &Partition| partitioning_communication_cost(hg, partition, cost);
    for (i, &(v, shift)) in moves.iter().enumerate() {
        let v = (v % n) as VertexId;
        let from = partition.part_of(v);
        let to = (from + 1 + shift % (p - 1)) % p;
        partition.set(v, to);
        if shared {
            provider.moved(v, from, to, &mut scratch);
        } else {
            provider.moved_exclusive(v, from, to, &mut scratch);
        }
        if i % 10 == 9 {
            let kept = provider.comm_cost(&partition, cost);
            assert_eq!(kept.map(f64::to_bits), Some(oracle(&partition).to_bits()));
        }
    }
    assert!(provider.agrees_with(&partition));
    let kept = provider.comm_cost(&partition, cost);
    assert_eq!(kept.map(f64::to_bits), Some(oracle(&partition).to_bits()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kept_pairs_follow_every_move_exactly(
        hg in arb_hypergraph(),
        p in 2u32..7,
        seed in 0u64..1000,
        cutoff in 0usize..=3,
        moves in prop::collection::vec((0usize..1000, 0u32..8), 0..200),
    ) {
        let n = hg.num_vertices();
        let assignment: Vec<u32> = (0..n as u64)
            .map(|v| (v.wrapping_mul(seed | 1).wrapping_add(seed) % u64::from(p)) as u32)
            .collect();
        let partition = Partition::from_assignment(assignment, p).unwrap();
        let costs = [CostMatrix::uniform(p as usize), archer_cost(p as usize)];
        for (shared, cost) in [false, true].into_iter().zip(costs.iter().cycle()) {
            let provider = AdjProvider::traversal(&hg);
            check_model(&hg, provider, partition.clone(), &moves, shared, cost);
            for budget in [AdjacencyBudget::Auto, AdjacencyBudget::DegreeCutoff(cutoff)] {
                let adj = NeighborAdjacency::build(&hg, budget);
                let provider = AdjProvider::from_adjacency(&hg, &adj);
                check_model(&hg, provider, partition.clone(), &moves, shared, cost);
            }
        }

        // Synced on a subset, as a dynamic run visits its dirty set: no
        // pair counts, so the engine asks its cost model.
        let visits: Vec<VertexId> = hg.vertices().filter(|&v| v % 2 == 0).collect();
        let mut provider = AdjProvider::traversal(&hg);
        provider.sync(&partition, Some(&visits));
        prop_assert_eq!(provider.comm_cost(&partition, &costs[0]), None);
        // Unsynced, likewise.
        prop_assert_eq!(AdjProvider::traversal(&hg).comm_cost(&partition, &costs[0]), None);
    }
}

/// An [`AdjProvider`] that checks each comm cost it answers against the
/// traversal oracle and records the oracle's value.
struct Checked<'a> {
    inner: AdjProvider<'a>,
    hg: &'a Hypergraph,
    oracle: Vec<f64>,
}

impl ConnectivityProvider for Checked<'_> {
    type Scratch = <AdjProvider<'static> as ConnectivityProvider>::Scratch;

    fn new_scratch(&self) -> Self::Scratch {
        self.inner.new_scratch()
    }

    fn needs_nets(&self) -> bool {
        self.inner.needs_nets()
    }

    fn sync(&mut self, assignment: &Partition, visits: Option<&[VertexId]>) {
        self.inner.sync(assignment, visits);
    }

    fn moved(&self, v: VertexId, from: u32, to: u32, scratch: &mut Self::Scratch) {
        self.inner.moved(v, from, to, scratch);
    }

    fn moved_exclusive(&mut self, v: VertexId, from: u32, to: u32, scratch: &mut Self::Scratch) {
        self.inner.moved_exclusive(v, from, to, scratch);
    }

    fn agrees_with<A: AssignmentRef>(&self, assignment: &A) -> bool {
        self.inner.agrees_with(assignment)
    }

    fn certificates_agree_with<A: AssignmentRef>(&self, assignment: &A, cost: &CostMatrix) -> bool {
        self.inner.certificates_agree_with(assignment, cost)
    }

    fn stay_certificate(&self, v: VertexId) -> Option<StayCertificate> {
        self.inner.stay_certificate(v)
    }

    fn certify(&self, v: VertexId, generation: u32, part: u32, gap: f64) {
        self.inner.certify(v, generation, part, gap);
    }

    fn comm_cost(&mut self, assignment: &Partition, cost: &CostMatrix) -> Option<f64> {
        let kept = self.inner.comm_cost(assignment, cost);
        let oracle = partitioning_communication_cost(self.hg, assignment, cost);
        assert_eq!(kept.map(f64::to_bits), Some(oracle.to_bits()));
        self.oracle.push(oracle);
        kept
    }

    fn count<A: AssignmentRef>(
        &self,
        record: &VertexRecord,
        assignment: &A,
        scratch: &mut Self::Scratch,
        counts: &mut Vec<u32>,
    ) {
        self.inner.count(record, assignment, scratch, counts);
    }
}

#[test]
fn every_pass_cost_equals_the_traversal_oracle_under_every_strategy() {
    let mesh = mesh_hypergraph(&MeshConfig::new(1500, 8));
    let powerlaw = powerlaw_hypergraph(&PowerLawConfig {
        num_vertices: 1500,
        num_hyperedges: 1500,
        avg_cardinality: 6.0,
        seed: 3,
        ..PowerLawConfig::default()
    });
    let config = HyperPrawConfig {
        max_iterations: 25,
        track_history: true,
        ..HyperPrawConfig::default()
    };
    let cost = archer_cost(8);
    for (name, hg) in [("mesh", &mesh), ("power-law", &powerlaw)] {
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Chunked {
                num_threads: 3,
                sync_interval: 64,
            },
            ExecutionStrategy::WorkStealing {
                num_threads: 2,
                chunk: 16,
            },
            ExecutionStrategy::WorkStealing {
                num_threads: 4,
                chunk: 16,
            },
        ] {
            let at = format!("{name}, {strategy:?}");
            let mut provider = Checked {
                inner: AdjProvider::traversal(hg),
                hg,
                oracle: Vec::new(),
            };
            let run = Engine::new(EngineConfig::restreaming(&config).with_strategy(strategy))
                .run(
                    &cost,
                    &mut InMemorySource::new(hg, config.stream_order, config.seed),
                    &mut provider,
                    &mut NoCommCost,
                )
                .unwrap();
            let records = run.history.records();
            assert_eq!(records.len(), run.iterations, "{at}");
            assert!(provider.oracle.len() >= records.len(), "{at}");
            for (record, oracle) in records.iter().zip(&provider.oracle) {
                assert_eq!(record.comm_cost.to_bits(), oracle.to_bits(), "{at}");
            }
            let returned = partitioning_communication_cost(hg, &run.partition, &cost);
            assert_eq!(run.comm_cost.to_bits(), returned.to_bits(), "{at}");
        }
    }
}
