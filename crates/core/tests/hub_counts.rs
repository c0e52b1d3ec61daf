//! Model test of [`AdjProvider`]'s kept part counts.
//!
//! The provider keeps an exact part-count vector `X(v)` for every vertex
//! the synced run visits, synced from a starting assignment and shifted
//! on every reported move. After any sequence of moves, every vertex's
//! counts — visited vertices from `X(v)`, the others by traversal — must
//! equal the traversal oracle
//! ([`NeighborScratch::neighbor_partition_counts`]) on the moved
//! assignment. Covers every vertex and visit subsets.

use proptest::prelude::*;

use hyperpraw_core::engine::AdjProvider;
use hyperpraw_hypergraph::generators::{random_hypergraph, CardinalityDist, RandomConfig};
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{Hypergraph, Partition, VertexId};

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

/// Syncs `provider` to `start`, replays `moves` through
/// [`AdjProvider::moved`], and checks every vertex against the
/// oracle. Returns the number of vertices the provider kept counts for.
fn check_model(
    hg: &Hypergraph,
    mut provider: AdjProvider<'_>,
    mut partition: Partition,
    visits: Option<&[VertexId]>,
    moves: &[(usize, u32)],
) -> usize {
    let n = hg.num_vertices();
    let p = partition.num_parts();
    provider.sync(&partition, visits);
    let mut scratch = provider.new_scratch();
    for &(v, shift) in moves {
        let v = (v % n) as VertexId;
        let from = partition.part_of(v);
        let to = (from + 1 + shift % (p - 1)) % p;
        partition.set(v, to);
        provider.moved(v, from, to, &mut scratch);
    }
    assert!(provider.agrees_with(&partition));
    let mut oracle = NeighborScratch::new(n);
    let (mut expected, mut got) = (Vec::new(), Vec::new());
    for v in hg.vertices() {
        oracle.neighbor_partition_counts(hg, &partition, v, &mut expected);
        provider.count(v, &partition, &mut scratch, &mut got);
        assert_eq!(got, expected, "vertex {v}");
    }
    provider.num_counted_vertices()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kept_counts_follow_every_move_exactly(
        hg in arb_hypergraph(),
        p in 2u32..7,
        seed in 0u64..1000,
        subset in 0u32..3,
        moves in prop::collection::vec((0usize..1000, 0u32..8), 0..200),
    ) {
        let n = hg.num_vertices();
        let assignment: Vec<u32> = (0..n as u64)
            .map(|v| (v.wrapping_mul(seed | 1).wrapping_add(seed) % u64::from(p)) as u32)
            .collect();
        let partition = Partition::from_assignment(assignment, p).unwrap();
        // Every vertex, or a subset — as a dynamic run visits its dirty set.
        let subset_visits: Vec<VertexId> = hg.vertices().filter(|&v| v % 3 != subset).collect();
        let visits = (subset > 0).then_some(&subset_visits[..]);
        let visited = visits.map_or(n, <[VertexId]>::len);

        let counted = check_model(&hg, AdjProvider::traversal(&hg), partition, visits, &moves);
        // Every visited vertex is counted.
        prop_assert_eq!(counted, visited);
    }
}
