//! The visit order of a cold engine run: every vertex of an in-memory
//! hypergraph, in a [`StreamOrder`] (natural / seeded shuffle /
//! degree-descending).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use hyperpraw_hypergraph::{Hypergraph, VertexId};

use crate::StreamOrder;

/// Builds the vertex visit order for an in-memory stream.
pub fn stream_order(hg: &Hypergraph, order: StreamOrder, seed: u64) -> Vec<VertexId> {
    let mut vertices: Vec<VertexId> = hg.vertices().collect();
    match order {
        StreamOrder::Natural => {}
        StreamOrder::Random => {
            let mut rng = StdRng::seed_from_u64(seed);
            vertices.shuffle(&mut rng);
        }
        StreamOrder::DegreeDescending => {
            vertices.sort_by_key(|&v| std::cmp::Reverse(hg.degree(v)));
        }
    }
    vertices
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
    use hyperpraw_hypergraph::HypergraphBuilder;

    #[test]
    fn stream_orders_cover_every_vertex_exactly_once() {
        let hg = mesh_hypergraph(&MeshConfig::new(200, 6));
        for order in [
            StreamOrder::Natural,
            StreamOrder::Random,
            StreamOrder::DegreeDescending,
        ] {
            let o = stream_order(&hg, order, 3);
            assert_eq!(o.len(), 200);
            let mut sorted = o.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 200);
        }
    }

    #[test]
    fn degree_descending_puts_hubs_first() {
        let mut b = HypergraphBuilder::new(5);
        b.add_hyperedge([0u32, 1]);
        b.add_hyperedge([0u32, 2]);
        b.add_hyperedge([0u32, 3]);
        b.add_hyperedge([3u32, 4]);
        let hg = b.build();
        let o = stream_order(&hg, StreamOrder::DegreeDescending, 0);
        assert_eq!(o[0], 0); // degree 3
        assert_eq!(o[1], 3); // degree 2
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let hg = mesh_hypergraph(&MeshConfig::new(100, 6));
        assert_eq!(
            stream_order(&hg, StreamOrder::Random, 5),
            stream_order(&hg, StreamOrder::Random, 5)
        );
        assert_ne!(
            stream_order(&hg, StreamOrder::Random, 5),
            stream_order(&hg, StreamOrder::Random, 6)
        );
    }
}
