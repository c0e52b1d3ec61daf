//! Where the vertices of a stream come from — the engine's input axis.
//!
//! A [`VertexSource`] delivers every vertex of the hypergraph exactly once
//! per pass as a [`VertexRecord`], in a deterministic per-source order, and
//! can be rewound for the next restreaming pass. Three families exist:
//!
//! * [`InMemorySource`] — walks an in-memory [`Hypergraph`] in any
//!   [`StreamOrder`] (natural / seeded shuffle / degree-descending). This
//!   is what the classic [`crate::HyperPraw`] drivers use.
//! * any [`hyperpraw_hypergraph::io::stream::VertexStream`] — the on-disk
//!   transpose readers (`stream_hgr_file`, `stream_edgelist_file`) and
//!   `InMemoryVertexStream` implement `VertexStream`, and a blanket impl
//!   lifts every `VertexStream` into a `VertexSource` (natural vertex
//!   order, one disk pass per engine pass). This is the out-of-core axis
//!   `hyperpraw-lowmem` instantiates.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use hyperpraw_hypergraph::io::stream::{VertexRecord, VertexStream};
use hyperpraw_hypergraph::io::IoResult;
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

/// A restartable, one-vertex-at-a-time input to the restreaming engine.
///
/// Every vertex id in `0..num_vertices()` is yielded exactly once per pass
/// in a deterministic order; [`VertexSource::reset`] rewinds for the next
/// pass. Sources that never touch IO simply return `Ok` everywhere.
pub trait VertexSource {
    /// Number of vertices yielded per pass.
    fn num_vertices(&self) -> usize;

    /// Number of nets (hyperedges) of the underlying hypergraph.
    fn num_nets(&self) -> usize;

    /// Fills `record` with the next vertex. Returns `false` at end of pass.
    fn next_into(&mut self, record: &mut VertexRecord) -> IoResult<bool>;

    /// Rewinds to the beginning of the pass.
    fn reset(&mut self) -> IoResult<()>;

    /// Sum of all vertex weights when known up front (consumers fall back
    /// to unit weights otherwise).
    fn total_vertex_weight(&self) -> Option<f64> {
        None
    }

    /// Hints that the consumer does not read [`VertexRecord::nets`]
    /// (the in-memory provider reads the hypergraph directly),
    /// letting the source skip copying incidence lists.
    /// Sources are free to ignore the hint and fill the nets anyway.
    fn set_nets_enabled(&mut self, _enabled: bool) {}

    /// The vertices a pass yields, when the source covers only a subset
    /// of the graph (`None`: every vertex). Providers size per-run state
    /// from it ([`crate::engine::ConnectivityProvider::sync`]).
    fn visits(&self) -> Option<&[VertexId]> {
        None
    }
}

/// Adapter lifting any [`VertexStream`] (the on-disk transpose readers,
/// `InMemoryVertexStream`, or a `&mut` borrow of either) into a
/// [`VertexSource`] in natural vertex order — the plug that connects
/// `hypergraph::io::stream` to the engine.
#[derive(Clone, Debug)]
pub struct StreamSource<S>(pub S);

impl<S: VertexStream> VertexSource for StreamSource<S> {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    fn num_nets(&self) -> usize {
        self.0.num_nets()
    }

    fn next_into(&mut self, record: &mut VertexRecord) -> IoResult<bool> {
        self.0.next_into(record)
    }

    fn reset(&mut self) -> IoResult<()> {
        self.0.reset()
    }

    fn total_vertex_weight(&self) -> Option<f64> {
        self.0.total_vertex_weight()
    }
}

/// [`VertexSource`] over an in-memory [`Hypergraph`] honouring a
/// [`StreamOrder`], used by the classic restreaming drivers.
#[derive(Clone, Debug)]
pub struct InMemorySource<'a> {
    hg: &'a Hypergraph,
    order: Vec<VertexId>,
    cursor: usize,
    nets_enabled: bool,
}

impl<'a> InMemorySource<'a> {
    /// Creates a source visiting `hg` in the given order (the seed matters
    /// only for [`StreamOrder::Random`]).
    pub fn new(hg: &'a Hypergraph, order: StreamOrder, seed: u64) -> Self {
        Self {
            hg,
            order: stream_order(hg, order, seed),
            cursor: 0,
            nets_enabled: true,
        }
    }

    /// The visit order in use.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }
}

impl VertexSource for InMemorySource<'_> {
    fn num_vertices(&self) -> usize {
        self.hg.num_vertices()
    }

    fn num_nets(&self) -> usize {
        self.hg.num_hyperedges()
    }

    fn next_into(&mut self, record: &mut VertexRecord) -> IoResult<bool> {
        let Some(&v) = self.order.get(self.cursor) else {
            return Ok(false);
        };
        self.cursor += 1;
        record.vertex = v;
        record.weight = self.hg.vertex_weight(v);
        record.nets.clear();
        if self.nets_enabled {
            record.nets.extend_from_slice(self.hg.incident_edges(v));
        }
        Ok(true)
    }

    fn reset(&mut self) -> IoResult<()> {
        self.cursor = 0;
        Ok(())
    }

    fn total_vertex_weight(&self) -> Option<f64> {
        Some(self.hg.total_vertex_weight())
    }

    fn set_nets_enabled(&mut self, enabled: bool) {
        self.nets_enabled = enabled;
    }
}

/// [`VertexSource`] over an explicit subset of an in-memory
/// [`Hypergraph`]'s vertices — the *dirty set* an incremental
/// repartitioner wants to restream after a batch of graph updates, in the
/// (typically sorted) order given.
///
/// Intended for [`crate::engine::Engine::run_warm`] only: `num_vertices`
/// and `total_vertex_weight` describe the *subset*, so a cold
/// [`crate::engine::Engine::run`] would size its initial partition and
/// expected loads from the dirty set rather than the full graph.
#[derive(Clone, Debug)]
pub struct DirtySetSource<'a> {
    hg: &'a Hypergraph,
    dirty: Vec<VertexId>,
    cursor: usize,
    nets_enabled: bool,
}

impl<'a> DirtySetSource<'a> {
    /// Creates a source yielding exactly `dirty` (ids into `hg`), in the
    /// given order, once per pass.
    pub fn new(hg: &'a Hypergraph, dirty: Vec<VertexId>) -> Self {
        debug_assert!(
            dirty.iter().all(|&v| (v as usize) < hg.num_vertices()),
            "dirty ids must be vertices of the hypergraph"
        );
        Self {
            hg,
            dirty,
            cursor: 0,
            nets_enabled: true,
        }
    }

    /// The dirty vertex ids this source yields per pass.
    pub fn dirty(&self) -> &[VertexId] {
        &self.dirty
    }
}

impl VertexSource for DirtySetSource<'_> {
    fn num_vertices(&self) -> usize {
        self.dirty.len()
    }

    fn num_nets(&self) -> usize {
        self.hg.num_hyperedges()
    }

    fn next_into(&mut self, record: &mut VertexRecord) -> IoResult<bool> {
        let Some(&v) = self.dirty.get(self.cursor) else {
            return Ok(false);
        };
        self.cursor += 1;
        record.vertex = v;
        record.weight = self.hg.vertex_weight(v);
        record.nets.clear();
        if self.nets_enabled {
            record.nets.extend_from_slice(self.hg.incident_edges(v));
        }
        Ok(true)
    }

    fn reset(&mut self) -> IoResult<()> {
        self.cursor = 0;
        Ok(())
    }

    fn total_vertex_weight(&self) -> Option<f64> {
        Some(self.dirty.iter().map(|&v| self.hg.vertex_weight(v)).sum())
    }

    fn visits(&self) -> Option<&[VertexId]> {
        Some(&self.dirty)
    }

    fn set_nets_enabled(&mut self, enabled: bool) {
        self.nets_enabled = enabled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
    use hyperpraw_hypergraph::io::stream::InMemoryVertexStream;
    use hyperpraw_hypergraph::HypergraphBuilder;

    fn collect<S: VertexSource>(source: &mut S) -> Vec<VertexRecord> {
        let mut record = VertexRecord::default();
        let mut out = Vec::new();
        while source.next_into(&mut record).unwrap() {
            out.push(record.clone());
        }
        out
    }

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

    #[test]
    fn in_memory_source_matches_the_vertex_stream_adapter() {
        let mut b = HypergraphBuilder::new(6);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3]);
        b.add_hyperedge([0u32, 3, 4]);
        let hg = b.build();
        let mut source = InMemorySource::new(&hg, StreamOrder::Natural, 0);
        let mut stream = StreamSource(InMemoryVertexStream::new(&hg));
        assert_eq!(collect(&mut source), collect(&mut stream));
        // Reset rewinds both.
        source.reset().unwrap();
        stream.reset().unwrap();
        assert_eq!(collect(&mut source), collect(&mut stream));
    }

    #[test]
    fn dirty_set_source_yields_exactly_the_subset_per_pass() {
        let mut b = HypergraphBuilder::new(6);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3]);
        b.add_hyperedge([0u32, 3, 4]);
        let hg = b.build();
        let mut source = DirtySetSource::new(&hg, vec![1, 3, 4]);
        assert_eq!(source.num_vertices(), 3);
        assert_eq!(source.num_nets(), 3);
        assert_eq!(source.total_vertex_weight(), Some(3.0));
        let records = collect(&mut source);
        assert_eq!(
            records.iter().map(|r| r.vertex).collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
        assert_eq!(records[1].nets, vec![1, 2]); // vertex 3's incidence
                                                 // Reset rewinds for the next pass; nets can be skipped.
        source.reset().unwrap();
        source.set_nets_enabled(false);
        let records = collect(&mut source);
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.nets.is_empty()));
    }

    #[test]
    fn disabling_nets_skips_the_incidence_copy() {
        let mut b = HypergraphBuilder::new(3);
        b.add_hyperedge([0u32, 1, 2]);
        let hg = b.build();
        let mut source = InMemorySource::new(&hg, StreamOrder::Natural, 0);
        source.set_nets_enabled(false);
        let records = collect(&mut source);
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.nets.is_empty()));
        assert_eq!(records[1].weight, 1.0);
    }
}
