//! Model test of [`AdjProvider`]'s kept part-pair counts `M`.
//!
//! A synced provider keeps `M[a][·]`, the sum of the part counts `X(v)`
//! of the vertices on part `a`, and answers the engine's per-pass
//! comm-cost evaluation from it. Synced over every vertex it sums `M`
//! from its rows; synced on a subset, as a warm run over a dirty set, it
//! takes a resumed `M` or counts it once. Exclusive moves shift `M` by the
//! mover's own `X(v)`. Concurrent moves leave `M` behind until they are
//! replayed, as a work-stealing batch boundary does, against the
//! assignment as of each move; an evaluation while a move still awaits
//! its replay counts `M` afresh. Either way every answer must be
//! bit-identical to a fresh [`partitioning_communication_cost`] of the
//! same assignment, under every cost matrix — after random move
//! sequences, and after every pass of full engine runs under each
//! execution strategy. The adjacency-backed
//! [`partitioning_communication_cost_with`] must agree too. An unsynced
//! provider answers `None`.

use proptest::prelude::*;

use hyperpraw_core::engine::{
    AdjProvider, ConnectivityProvider, Engine, EngineConfig, ExecutionStrategy, InMemorySource,
    StayCertificate,
};
use hyperpraw_core::metrics::{
    partitioning_communication_cost, partitioning_communication_cost_with, CommCostState,
};
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

/// A non-uniform, asymmetric cost matrix drawn from `seed` by SplitMix64,
/// so a count in the wrong part pair changes the value.
fn random_costs(p: usize, seed: u64) -> CostMatrix {
    let mut state = seed;
    let data = (0..p * p)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % 1000) as f64 / 97.0
        })
        .collect();
    CostMatrix::from_raw(p, data)
}

/// The cost matrices every kept `M` is evaluated under.
fn costs(p: u32, seed: u64) -> [CostMatrix; 3] {
    let p = p as usize;
    [
        CostMatrix::uniform(p),
        archer_cost(p),
        random_costs(p, seed),
    ]
}

/// A partition of `n` vertices over `p` parts drawn from `seed`.
fn seeded_partition(n: usize, p: u32, seed: u64) -> Partition {
    let assignment: Vec<u32> = (0..n as u64)
        .map(|v| (v.wrapping_mul(seed | 1).wrapping_add(seed) % u64::from(p)) as u32)
        .collect();
    Partition::from_assignment(assignment, p).unwrap()
}

/// Syncs `provider` to `start` over `visits` (`None`: every vertex) and
/// replays `moves` among the visited vertices, through
/// [`ConnectivityProvider::moved_exclusive`] or, with `shared`, through
/// [`ConnectivityProvider::moved`]. Every tenth move the provider's comm
/// cost must equal the oracle's bits, under the next of `costs` in turn;
/// after the last, under each of them, and the counts it hands back must
/// equal a fresh count. Returns the final assignment.
fn check_model(
    hg: &Hypergraph,
    mut provider: AdjProvider<'_>,
    mut partition: Partition,
    visits: Option<&[VertexId]>,
    moves: &[(usize, u32)],
    shared: bool,
    costs: &[CostMatrix],
) -> Partition {
    let n = hg.num_vertices();
    let p = partition.num_parts();
    provider.sync(&partition, visits);
    let mut scratch = provider.new_scratch();
    let oracle = |partition: &Partition, cost| partitioning_communication_cost(hg, partition, cost);
    for (i, &(v, shift)) in moves.iter().enumerate() {
        let v = visits.map_or(v % n, |visits| visits[v % visits.len()] as usize) as VertexId;
        let from = partition.part_of(v);
        let to = (from + 1 + shift % (p - 1)) % p;
        partition.set(v, to);
        if shared {
            provider.moved(v, from, to, &mut scratch);
        } else {
            provider.moved_exclusive(v, from, to, &mut scratch);
        }
        if i % 10 == 9 {
            let cost = &costs[i / 10 % costs.len()];
            let kept = provider.comm_cost(&partition, cost);
            assert_eq!(
                kept.map(f64::to_bits),
                Some(oracle(&partition, cost).to_bits())
            );
        }
    }
    assert!(provider.agrees_with(&partition));
    for cost in costs {
        let kept = provider.comm_cost(&partition, cost);
        assert_eq!(
            kept.map(f64::to_bits),
            Some(oracle(&partition, cost).to_bits())
        );
    }
    let state = provider.into_comm_state(partition.clone());
    assert_eq!(state, CommCostState::new(hg, partition.clone()));
    partition
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
        let partition = seeded_partition(hg.num_vertices(), p, seed);
        let costs = costs(p, seed);
        for shared in [false, true] {
            let provider = AdjProvider::traversal(&hg);
            let last = check_model(&hg, provider, partition.clone(), None, &moves, shared, &costs);
            for budget in [AdjacencyBudget::Auto, AdjacencyBudget::DegreeCutoff(cutoff)] {
                let adj = NeighborAdjacency::build(&hg, budget);
                for cost in &costs {
                    prop_assert_eq!(
                        partitioning_communication_cost_with(&hg, &adj, &last, cost).to_bits(),
                        partitioning_communication_cost(&hg, &last, cost).to_bits()
                    );
                }
            }
        }

        // Unsynced, the provider keeps no pairs.
        let unsynced = AdjProvider::traversal(&hg).comm_cost(&partition, &costs[0]);
        prop_assert_eq!(unsynced, None);
    }

    #[test]
    fn subset_synced_pairs_follow_every_move_exactly(
        hg in arb_hypergraph(),
        p in 2u32..7,
        seed in 0u64..1000,
        subset in prop::collection::vec(0usize..1000, 1..40),
        moves in prop::collection::vec((0usize..1000, 0u32..8), 0..200),
    ) {
        // Synced on a subset, as a warm run visits its dirty set (repeats
        // included): with the caller's resumed pairs, or counting them.
        let n = hg.num_vertices();
        let visits: Vec<VertexId> = subset.iter().map(|&v| (v % n) as VertexId).collect();
        let partition = seeded_partition(n, p, seed);
        let costs = costs(p, seed);
        for shared in [false, true] {
            for resume in [false, true] {
                let provider = AdjProvider::traversal(&hg);
                let provider = if resume {
                    let (_, counts) = CommCostState::new(&hg, partition.clone()).into_parts();
                    provider.resume(counts)
                } else {
                    provider
                };
                let (partition, visits) = (partition.clone(), Some(&visits[..]));
                check_model(&hg, provider, partition, visits, &moves, shared, &costs);
            }
        }
    }
}

/// Splits `moves` into batches of `batch_len` moves and, batch by batch,
/// reports each move of a distinct vertex through
/// [`ConnectivityProvider::moved`] as a stealing worker does, then replays
/// the batch in reverse, as the boundary does in an order of its own,
/// against the assignment before each move. After every batch `M` must be
/// a fresh count of the assignment with no recount pending, and answer
/// each cost matrix with the oracle's bits.
fn check_replay(
    hg: &Hypergraph,
    mut provider: AdjProvider<'_>,
    mut partition: Partition,
    moves: &[(usize, u32)],
    batch_len: usize,
    costs: &[CostMatrix],
) {
    let n = hg.num_vertices();
    let p = partition.num_parts();
    provider.sync(&partition, None);
    let mut scratch = provider.new_scratch();
    for batch in moves.chunks(batch_len) {
        let before = partition.clone();
        let mut movers: Vec<(VertexId, u32)> = Vec::new();
        for &(v, shift) in batch {
            let v = (v % n) as VertexId;
            if movers.iter().all(|&(u, _)| u != v) {
                let from = partition.part_of(v);
                let to = (from + 1 + shift % (p - 1)) % p;
                partition.set(v, to);
                provider.moved(v, from, to, &mut scratch);
                movers.push((v, to));
            }
        }
        let mut replayed = before;
        for &(v, to) in movers.iter().rev() {
            let from = replayed.part_of(v);
            provider.replay(v, from, to, &replayed, &mut scratch);
            replayed.set(v, to);
        }
        assert_eq!(replayed, partition);
        let (_, fresh) = CommCostState::new(hg, partition.clone()).into_parts();
        assert_eq!(provider.pair_counts(), Some(&fresh));
        assert!(provider.agrees_with(&partition));
        for cost in costs {
            let kept = provider.comm_cost(&partition, cost);
            let oracle = partitioning_communication_cost(hg, &partition, cost);
            assert_eq!(kept.map(f64::to_bits), Some(oracle.to_bits()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn replayed_batches_keep_pairs_exact_without_a_recount(
        hg in arb_hypergraph(),
        p in 2u32..7,
        seed in 0u64..1000,
        batch_len in 1usize..40,
        moves in prop::collection::vec((0usize..1000, 0u32..8), 0..200),
    ) {
        let partition = seeded_partition(hg.num_vertices(), p, seed);
        let costs = costs(p, seed);
        check_replay(&hg, AdjProvider::traversal(&hg), partition, &moves, batch_len, &costs);
    }
}

/// An [`AdjProvider`] that checks each comm cost it answers against the
/// traversal oracle, from kept pairs that need no recount, and records the
/// oracle's value.
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

    fn replay(
        &mut self,
        v: VertexId,
        from: u32,
        to: u32,
        assignment: &Partition,
        scratch: &mut Self::Scratch,
    ) {
        self.inner.replay(v, from, to, assignment, scratch);
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
        // Every strategy keeps `M` exact through the run: no recount.
        assert!(self.inner.pair_counts().is_some(), "M awaits a recount");
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
            ExecutionStrategy::WorkStealing {
                num_threads: 3,
                chunk: 64,
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
