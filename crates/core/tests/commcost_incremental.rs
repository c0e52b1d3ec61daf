//! Property tests pinning the incremental comm-cost evaluation: one
//! [`ExactCommCost`] reused across a random sequence of partitions — small
//! move sets (patched from the moved vertices), moves of more than a
//! quarter of the vertices (recounted from scratch), no-op repeats and
//! reverts to an earlier partition — must return, at every step, the exact
//! bits of a fresh [`partitioning_communication_cost`]. Every neighbourhood
//! path is covered: flat adjacency lists (`AdjacencyBudget::Auto`), the hub
//! traversal fallback for every vertex (`DegreeCutoff(0)`) and the pure
//! traversal model (`ExactCommCost::new`).

use proptest::prelude::*;

use hyperpraw_core::engine::{CommCostModel, ExactCommCost};
use hyperpraw_core::metrics::{
    partitioning_communication_cost, partitioning_communication_cost_with,
};
use hyperpraw_core::CostMatrix;
use hyperpraw_hypergraph::generators::{random_hypergraph, CardinalityDist, RandomConfig};
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

/// SplitMix64: a tiny deterministic stream for deriving partitions from
/// the proptest-drawn seeds.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A non-uniform cost matrix, so a wrong part pair changes the value.
fn random_costs(p: u32, seed: u64) -> CostMatrix {
    let mut state = seed;
    let n = p as usize;
    let data = (0..n * n)
        .map(|_| (next(&mut state) % 1000) as f64 / 97.0)
        .collect();
    CostMatrix::from_raw(n, data)
}

/// The partition sequence: each step derives the next partition from the
/// previous one or from the history.
fn partition_sequence(n: usize, p: u32, steps: &[(u8, u64)]) -> Vec<Partition> {
    let mut history = vec![Partition::round_robin(n, p)];
    for &(kind, seed) in steps {
        let mut state = seed;
        let previous = history.last().unwrap().clone();
        let next_partition = match kind % 4 {
            // A few vertices move: the patched path.
            0 => {
                let mut assignment = previous.into_assignment();
                let moves = 1 + next(&mut state) as usize % (n / 8).max(1);
                for _ in 0..moves {
                    let v = next(&mut state) as usize % n;
                    assignment[v] = (next(&mut state) % p as u64) as u32;
                }
                Partition::from_assignment(assignment, p).unwrap()
            }
            // More than a quarter of the vertices move: the recount path.
            1 => Partition::from_fn(n, p, |v| {
                if v % 3 == 0 {
                    previous.part_of(v)
                } else {
                    ((v as u64 ^ next(&mut state)) % p as u64) as u32
                }
            }),
            // Back to an earlier partition.
            2 => history[seed as usize % history.len()].clone(),
            // Nothing moved.
            _ => previous,
        };
        history.push(next_partition);
    }
    history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reused_model_matches_a_fresh_evaluation_bit_for_bit(
        hg in arb_hypergraph(),
        p in 2u32..7,
        cost_seed in 0u64..1000,
        steps in prop::collection::vec((0u8..4, 0u64..1_000_000), 1..24),
    ) {
        let n = hg.num_vertices();
        let cost = random_costs(p, cost_seed);
        let auto = NeighborAdjacency::build(&hg, AdjacencyBudget::Auto);
        let all_hubs = NeighborAdjacency::build(&hg, AdjacencyBudget::DegreeCutoff(0));
        let mut models = [
            ("traversal", ExactCommCost::new(&hg)),
            ("auto", ExactCommCost::with_adjacency(&hg, &auto)),
            ("all-hubs", ExactCommCost::with_adjacency(&hg, &all_hubs)),
        ];
        for (step, partition) in partition_sequence(n, p, &steps).iter().enumerate() {
            let fresh = partitioning_communication_cost(&hg, partition, &cost);
            prop_assert_eq!(
                partitioning_communication_cost_with(&hg, &auto, partition, &cost).to_bits(),
                fresh.to_bits()
            );
            for (name, model) in models.iter_mut() {
                let got = model.comm_cost(partition, &cost).unwrap();
                prop_assert_eq!(
                    got.to_bits(),
                    fresh.to_bits(),
                    "model {} diverged at step {}: {} vs {}", name, step, got, fresh
                );
            }
        }
    }

    #[test]
    fn one_model_tracks_changing_cost_matrices(
        hg in arb_hypergraph(),
        p in 2u32..6,
        seeds in prop::collection::vec(0u64..1000, 1..6),
    ) {
        // The counts do not depend on the costs: the same retained state
        // answers every matrix exactly.
        let partition = Partition::from_fn(hg.num_vertices(), p, |v| v % p);
        let mut model = ExactCommCost::new(&hg);
        for seed in seeds {
            let cost = random_costs(p, seed);
            prop_assert_eq!(
                model.comm_cost(&partition, &cost).unwrap().to_bits(),
                partitioning_communication_cost(&hg, &partition, &cost).to_bits()
            );
        }
    }
}

#[test]
fn a_model_reused_across_partition_counts_recounts() {
    let hg = random_hypergraph(&RandomConfig {
        num_vertices: 60,
        num_hyperedges: 40,
        cardinality: CardinalityDist::Uniform { min: 2, max: 6 },
        seed: 5,
        name: "parts".into(),
    });
    let mut model = ExactCommCost::new(&hg);
    for p in [3u32, 5, 3] {
        let partition = Partition::round_robin(hg.num_vertices(), p);
        let cost = random_costs(p, u64::from(p));
        assert_eq!(
            model.comm_cost(&partition, &cost).unwrap().to_bits(),
            partitioning_communication_cost(&hg, &partition, &cost).to_bits()
        );
    }
}
