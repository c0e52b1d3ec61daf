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
//! sequences, and for the partition full engine runs return at every
//! thread count. The adjacency-backed
//! [`partitioning_communication_cost_with`] must agree too. An unsynced
//! provider keeps no pairs.

use proptest::prelude::*;

use hyperpraw_core::engine::{AdjProvider, Engine, ExecutionStrategy};
use hyperpraw_core::metrics::{
    partitioning_communication_cost, partitioning_communication_cost_with, CommCostState,
};
use hyperpraw_core::{CostMatrix, HyperPrawConfig};
use hyperpraw_hypergraph::generators::{
    mesh_hypergraph, powerlaw_hypergraph, random_hypergraph, CardinalityDist, MeshConfig,
    PowerLawConfig, RandomConfig,
};
use hyperpraw_hypergraph::{AdjacencyBudget, Hypergraph, NeighborAdjacency, Partition, VertexId};
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
/// [`AdjProvider::moved_exclusive`] or, with `shared`, through
/// [`AdjProvider::moved`]. Every tenth move the provider's comm
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
            assert_eq!(kept.to_bits(), oracle(&partition, cost).to_bits());
        }
    }
    assert!(provider.agrees_with(&partition));
    for cost in costs {
        let kept = provider.comm_cost(&partition, cost);
        assert_eq!(kept.to_bits(), oracle(&partition, cost).to_bits());
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
        prop_assert!(AdjProvider::traversal(&hg).pair_counts().is_none());
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
/// [`AdjProvider::moved`] as a stealing worker does, then replays
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
            assert_eq!(kept.to_bits(), oracle.to_bits());
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

/// Full engine runs over both graph families at one thread and at
/// several. Debug builds check every pass inside the engine: the kept `M`
/// awaits no recount and equals a fresh count of the assignment, so each
/// recorded cost is the traversal oracle's dot of the same integers. Here
/// the returned cost must be the oracle's bits for the returned partition
/// and one of the recorded passes' costs.
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
        ..HyperPrawConfig::default()
    };
    let cost = archer_cost(8);
    for (name, hg) in [("mesh", &mesh), ("power-law", &powerlaw)] {
        for strategy in [
            ExecutionStrategy::threads(1),
            ExecutionStrategy {
                num_threads: 3,
                chunk: 64,
            },
            ExecutionStrategy {
                num_threads: 2,
                chunk: 16,
            },
            ExecutionStrategy {
                num_threads: 4,
                chunk: 16,
            },
        ] {
            let at = format!("{name}, {strategy:?}");
            let run = Engine::new(config, strategy).run(&cost, hg, &mut AdjProvider::traversal(hg));
            let records = run.history.records();
            assert_eq!(records.len(), run.iterations, "{at}");
            let returned = partitioning_communication_cost(hg, &run.partition, &cost);
            assert_eq!(run.comm_cost.to_bits(), returned.to_bits(), "{at}");
            assert!(
                records
                    .iter()
                    .any(|r| r.comm_cost.to_bits() == returned.to_bits()),
                "{at}"
            );
        }
    }
}
