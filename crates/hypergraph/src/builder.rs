//! Incremental construction of [`Hypergraph`] values.

use std::collections::TryReserveError;

use crate::{HyperedgeId, Hypergraph, VertexId};

/// Incremental builder for [`Hypergraph`].
///
/// Vertices are implicit dense indices; the builder tracks the largest vertex
/// id mentioned so far, and [`HypergraphBuilder::ensure_vertices`] /
/// [`HypergraphBuilder::new`] can reserve a minimum vertex count up front.
/// Hyperedges are added one at a time; duplicate pins within a hyperedge are
/// removed and pins are sorted.
///
/// ```
/// use hyperpraw_hypergraph::HypergraphBuilder;
///
/// let mut b = HypergraphBuilder::new(3);
/// b.add_hyperedge([0u32, 2, 2]); // duplicate pin collapses
/// let hg = b.build();
/// assert_eq!(hg.pins(0), &[0, 2]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct HypergraphBuilder {
    name: String,
    num_vertices: usize,
    edges: Vec<Vec<VertexId>>,
    edge_weights: Vec<f64>,
    vertex_weights: Vec<f64>,
    drop_small_edges: bool,
}

impl HypergraphBuilder {
    /// Creates a builder with at least `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            ..Self::default()
        }
    }

    /// Creates a builder with a preallocated hyperedge capacity. The
    /// capacity is a hint: readers pass untrusted header counts, so at
    /// most `2^16` hyperedges are reserved up front and the rest grow on
    /// demand.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        let mut b = Self::new(num_vertices);
        let num_edges = crate::io::capacity_hint(num_edges);
        b.edges.reserve(num_edges);
        b.edge_weights.reserve(num_edges);
        b
    }

    /// Sets the name recorded on the built hypergraph.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// When enabled, hyperedges with fewer than two (distinct) pins are
    /// dropped at [`HypergraphBuilder::build`] time. Such edges can never be
    /// cut, so partitioners usually ignore them; real datasets (e.g. SAT
    /// instances) do contain them.
    pub fn drop_small_edges(&mut self, yes: bool) -> &mut Self {
        self.drop_small_edges = yes;
        self
    }

    /// Ensures the vertex set covers ids `0..n`.
    pub fn ensure_vertices(&mut self, n: usize) -> &mut Self {
        self.num_vertices = self.num_vertices.max(n);
        self
    }

    /// Number of vertices the built hypergraph will have (so far).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of hyperedges added so far.
    pub fn num_hyperedges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a hyperedge with unit weight. Returns its id.
    pub fn add_hyperedge<I>(&mut self, pins: I) -> HyperedgeId
    where
        I: IntoIterator<Item = VertexId>,
    {
        self.add_weighted_hyperedge(pins, 1.0)
    }

    /// Adds a hyperedge with an explicit weight. Returns its id.
    pub fn add_weighted_hyperedge<I>(&mut self, pins: I, weight: f64) -> HyperedgeId
    where
        I: IntoIterator<Item = VertexId>,
    {
        let mut pins: Vec<VertexId> = pins.into_iter().collect();
        pins.sort_unstable();
        pins.dedup();
        if let Some(&max) = pins.last() {
            self.ensure_vertices(max as usize + 1);
        }
        let id = self.edges.len() as HyperedgeId;
        self.edges.push(pins);
        self.edge_weights.push(weight);
        id
    }

    /// Sets the weight of vertex `v` (default 1.0). Grows the vertex set if
    /// needed.
    pub fn set_vertex_weight(&mut self, v: VertexId, weight: f64) -> &mut Self {
        self.ensure_vertices(v as usize + 1);
        if self.vertex_weights.len() <= v as usize {
            self.vertex_weights.resize(v as usize + 1, 1.0);
        }
        self.vertex_weights[v as usize] = weight;
        self
    }

    /// Finalises the builder into an immutable [`Hypergraph`].
    ///
    /// # Panics
    ///
    /// Panics when the per-vertex arrays cannot be allocated; readers of
    /// untrusted input use [`HypergraphBuilder::try_build`] instead.
    pub fn build(self) -> Hypergraph {
        let n = self.num_vertices;
        self.try_build()
            .unwrap_or_else(|e| panic!("cannot allocate {n} vertices: {e}"))
    }

    /// [`HypergraphBuilder::build`], reserving the per-vertex arrays
    /// fallibly: a vertex count taken from a file header can be far larger
    /// than the data behind it, and must not abort the process.
    pub fn try_build(self) -> Result<Hypergraph, TryReserveError> {
        let Self {
            name,
            num_vertices,
            mut edges,
            mut edge_weights,
            mut vertex_weights,
            drop_small_edges,
        } = self;

        if drop_small_edges {
            let mut kept_weights = Vec::with_capacity(edge_weights.len());
            let mut kept_edges = Vec::with_capacity(edges.len());
            for (pins, w) in edges.into_iter().zip(edge_weights) {
                if pins.len() >= 2 {
                    kept_edges.push(pins);
                    kept_weights.push(w);
                }
            }
            edges = kept_edges;
            edge_weights = kept_weights;
        }

        vertex_weights.try_reserve_exact(num_vertices.saturating_sub(vertex_weights.len()))?;
        vertex_weights.resize(num_vertices, 1.0);
        let mut vertex_offsets = Vec::new();
        vertex_offsets.try_reserve_exact(num_vertices + 1)?;
        let mut degree = Vec::new();
        degree.try_reserve_exact(num_vertices)?;
        degree.resize(num_vertices, 0usize);

        // Hyperedge -> pins CSR.
        let mut edge_offsets = Vec::with_capacity(edges.len() + 1);
        edge_offsets.push(0usize);
        let total_pins: usize = edges.iter().map(Vec::len).sum();
        let mut edge_pins = Vec::with_capacity(total_pins);
        for pins in &edges {
            edge_pins.extend_from_slice(pins);
            edge_offsets.push(edge_pins.len());
        }

        // Vertex -> incident hyperedges CSR (counting sort over pins); the
        // degree array then becomes each vertex's fill cursor.
        for pins in &edges {
            for &v in pins {
                degree[v as usize] += 1;
            }
        }
        vertex_offsets.push(0usize);
        let mut acc = 0usize;
        for d in &mut degree {
            let start = acc;
            acc += *d;
            *d = start;
            vertex_offsets.push(acc);
        }
        let mut cursor = degree;
        let mut vertex_edges = vec![0 as HyperedgeId; total_pins];
        for (e, pins) in edges.iter().enumerate() {
            for &v in pins {
                let slot = cursor[v as usize];
                vertex_edges[slot] = e as HyperedgeId;
                cursor[v as usize] += 1;
            }
        }
        // Edges were appended in increasing edge id order, so each vertex's
        // incidence list is already sorted.

        Ok(Hypergraph::from_parts(
            name,
            edge_offsets,
            edge_pins,
            vertex_offsets,
            vertex_edges,
            vertex_weights,
            edge_weights,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_pins_are_collapsed_and_sorted() {
        let mut b = HypergraphBuilder::new(0);
        b.add_hyperedge([3u32, 1, 3, 2, 1]);
        let hg = b.build();
        assert_eq!(hg.pins(0), &[1, 2, 3]);
        assert_eq!(hg.num_vertices(), 4);
        hg.validate().unwrap();
    }

    #[test]
    fn vertices_grow_to_cover_max_pin() {
        let mut b = HypergraphBuilder::new(2);
        b.add_hyperedge([0u32, 9]);
        let hg = b.build();
        assert_eq!(hg.num_vertices(), 10);
        assert_eq!(hg.degree(5), 0);
    }

    #[test]
    fn drop_small_edges_removes_singletons_and_empties() {
        let mut b = HypergraphBuilder::new(4);
        b.drop_small_edges(true);
        b.add_hyperedge([0u32]);
        b.add_hyperedge(std::iter::empty::<u32>());
        b.add_hyperedge([1u32, 2]);
        b.add_hyperedge([2u32, 2]); // collapses to singleton, dropped
        let hg = b.build();
        assert_eq!(hg.num_hyperedges(), 1);
        assert_eq!(hg.pins(0), &[1, 2]);
    }

    #[test]
    fn weights_are_preserved() {
        let mut b = HypergraphBuilder::new(3);
        b.add_weighted_hyperedge([0u32, 1], 2.5);
        b.set_vertex_weight(2, 4.0);
        let hg = b.build();
        assert_eq!(hg.edge_weight(0), 2.5);
        assert_eq!(hg.vertex_weight(2), 4.0);
        assert_eq!(hg.vertex_weight(0), 1.0);
        assert_eq!(hg.total_vertex_weight(), 6.0);
    }

    #[test]
    fn incidence_lists_are_sorted_by_edge_id() {
        let mut b = HypergraphBuilder::new(3);
        b.add_hyperedge([2u32, 0]);
        b.add_hyperedge([0u32, 1]);
        b.add_hyperedge([0u32, 2]);
        let hg = b.build();
        assert_eq!(hg.incident_edges(0), &[0, 1, 2]);
        assert_eq!(hg.incident_edges(2), &[0, 2]);
    }

    #[test]
    fn unallocatable_vertex_counts_are_an_error() {
        assert!(HypergraphBuilder::new(usize::MAX / 4).try_build().is_err());
        let mut b = HypergraphBuilder::new(3);
        b.add_hyperedge([0u32, 2]);
        assert_eq!(b.clone().try_build().unwrap(), b.build());
    }

    #[test]
    fn with_capacity_builds_identically() {
        let mut a = HypergraphBuilder::new(3);
        let mut b = HypergraphBuilder::with_capacity(3, 10);
        for builder in [&mut a, &mut b] {
            builder.add_hyperedge([0u32, 1]);
            builder.add_hyperedge([1u32, 2]);
        }
        let (ha, hb) = (a.build(), b.build());
        assert_eq!(ha, hb);
    }
}
