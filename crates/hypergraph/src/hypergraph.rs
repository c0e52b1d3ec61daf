//! The compressed, immutable hypergraph representation.

use std::fmt;

/// Identifier of a vertex. Vertices are dense indices `0..num_vertices()`.
pub type VertexId = u32;

/// Identifier of a hyperedge. Hyperedges are dense indices
/// `0..num_hyperedges()`.
pub type HyperedgeId = u32;

/// An immutable hypergraph stored in compressed sparse form in both
/// directions.
///
/// * *pins*: for every hyperedge, the list of vertices it contains
///   (`edge_offsets` / `edge_pins`),
/// * *incidence*: for every vertex, the list of hyperedges it belongs to
///   (`vertex_offsets` / `vertex_edges`).
///
/// Both directions are kept because streaming partitioners iterate over the
/// incident hyperedges of a vertex (to find its neighbours), while cut
/// metrics and the synthetic benchmark iterate over the pins of a hyperedge.
///
/// Vertices and hyperedges carry `f64` weights. The paper assumes unit
/// vertex weights (one unit of work per vertex) and unit hyperedge weights
/// (symmetric communication); both generalisations are supported here
/// because they are required by the paper's "future work" extensions
/// (weighted hyperedges for asymmetric communication volumes).
#[derive(Clone, PartialEq)]
pub struct Hypergraph {
    name: String,
    // Hyperedge -> pins (CSR).
    edge_offsets: Vec<usize>,
    edge_pins: Vec<VertexId>,
    // Vertex -> incident hyperedges (CSR).
    vertex_offsets: Vec<usize>,
    vertex_edges: Vec<HyperedgeId>,
    vertex_weights: Vec<f64>,
    edge_weights: Vec<f64>,
}

impl Hypergraph {
    /// Builds a hypergraph directly from its parts. Intended for use by
    /// [`crate::HypergraphBuilder`]; prefer the builder in user code.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the CSR arrays are inconsistent.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        edge_offsets: Vec<usize>,
        edge_pins: Vec<VertexId>,
        vertex_offsets: Vec<usize>,
        vertex_edges: Vec<HyperedgeId>,
        vertex_weights: Vec<f64>,
        edge_weights: Vec<f64>,
    ) -> Self {
        let hg = Self {
            name,
            edge_offsets,
            edge_pins,
            vertex_offsets,
            vertex_edges,
            vertex_weights,
            edge_weights,
        };
        debug_assert!(hg.validate().is_ok(), "inconsistent hypergraph CSR");
        hg
    }

    /// The (human readable) name of this hypergraph instance, e.g.
    /// `"sparsine"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the hypergraph.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.vertex_offsets.len() - 1
    }

    /// Number of hyperedges `|E|`.
    pub fn num_hyperedges(&self) -> usize {
        self.edge_offsets.len() - 1
    }

    /// Total number of pins (sum of hyperedge cardinalities), i.e. the number
    /// of nonzeros when the hypergraph is viewed as a sparse matrix.
    pub fn num_pins(&self) -> usize {
        self.edge_pins.len()
    }

    /// The vertices contained in hyperedge `e` (its *pins*), sorted by id.
    pub fn pins(&self, e: HyperedgeId) -> &[VertexId] {
        let e = e as usize;
        &self.edge_pins[self.edge_offsets[e]..self.edge_offsets[e + 1]]
    }

    /// The hyperedges incident to vertex `v`, sorted by id.
    pub fn incident_edges(&self, v: VertexId) -> &[HyperedgeId] {
        let v = v as usize;
        &self.vertex_edges[self.vertex_offsets[v]..self.vertex_offsets[v + 1]]
    }

    /// Cardinality of hyperedge `e` (number of pins).
    pub fn cardinality(&self, e: HyperedgeId) -> usize {
        self.pins(e).len()
    }

    /// Degree of vertex `v` (number of incident hyperedges).
    pub fn degree(&self, v: VertexId) -> usize {
        self.incident_edges(v).len()
    }

    /// Weight of vertex `v` (defaults to `1.0` when built without weights).
    pub fn vertex_weight(&self, v: VertexId) -> f64 {
        self.vertex_weights[v as usize]
    }

    /// Weight of hyperedge `e` (defaults to `1.0` when built without
    /// weights).
    pub fn edge_weight(&self, e: HyperedgeId) -> f64 {
        self.edge_weights[e as usize]
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> f64 {
        self.vertex_weights.iter().sum()
    }

    /// Sum of all hyperedge weights.
    pub fn total_edge_weight(&self) -> f64 {
        self.edge_weights.iter().sum()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(|v| v as VertexId)
    }

    /// Iterator over all hyperedge ids.
    pub fn hyperedges(&self) -> impl Iterator<Item = HyperedgeId> + '_ {
        (0..self.num_hyperedges() as u32).map(|e| e as HyperedgeId)
    }

    /// Iterator over `(hyperedge, pins)` pairs.
    pub fn iter_edges(&self) -> impl Iterator<Item = (HyperedgeId, &[VertexId])> + '_ {
        self.hyperedges().map(move |e| (e, self.pins(e)))
    }

    /// Largest hyperedge cardinality, or 0 for an edge-less hypergraph.
    pub fn max_cardinality(&self) -> usize {
        self.hyperedges()
            .map(|e| self.cardinality(e))
            .max()
            .unwrap_or(0)
    }

    /// Mean hyperedge cardinality, or 0 for an edge-less hypergraph.
    pub fn avg_cardinality(&self) -> f64 {
        if self.num_hyperedges() == 0 {
            0.0
        } else {
            self.num_pins() as f64 / self.num_hyperedges() as f64
        }
    }

    /// Largest vertex degree, or 0 for an empty hypergraph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Mean vertex degree, or 0 for an empty hypergraph.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_pins() as f64 / self.num_vertices() as f64
        }
    }

    /// Checks structural consistency of the CSR arrays: monotone offsets,
    /// in-range ids, matching pin counts in both directions, and per-edge /
    /// per-vertex sorted adjacency. Returns a description of the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.edge_offsets.is_empty() || self.vertex_offsets.is_empty() {
            return Err("offset arrays must contain at least one entry".into());
        }
        if *self.edge_offsets.last().unwrap() != self.edge_pins.len() {
            return Err("edge_offsets do not cover edge_pins".into());
        }
        if *self.vertex_offsets.last().unwrap() != self.vertex_edges.len() {
            return Err("vertex_offsets do not cover vertex_edges".into());
        }
        if self.vertex_weights.len() != self.num_vertices() {
            return Err("vertex_weights length mismatch".into());
        }
        if self.edge_weights.len() != self.num_hyperedges() {
            return Err("edge_weights length mismatch".into());
        }
        if self.edge_pins.len() != self.vertex_edges.len() {
            return Err("pin count differs between the two CSR directions".into());
        }
        for w in self.edge_offsets.windows(2) {
            if w[0] > w[1] {
                return Err("edge_offsets not monotone".into());
            }
        }
        for w in self.vertex_offsets.windows(2) {
            if w[0] > w[1] {
                return Err("vertex_offsets not monotone".into());
            }
        }
        let nv = self.num_vertices() as u32;
        let ne = self.num_hyperedges() as u32;
        for e in self.hyperedges() {
            let pins = self.pins(e);
            for w in pins.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("pins of hyperedge {e} not strictly sorted"));
                }
            }
            if pins.iter().any(|&v| v >= nv) {
                return Err(format!("hyperedge {e} references an out-of-range vertex"));
            }
        }
        for v in self.vertices() {
            let edges = self.incident_edges(v);
            for w in edges.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("incident edges of vertex {v} not strictly sorted"));
                }
            }
            if edges.iter().any(|&e| e >= ne) {
                return Err(format!("vertex {v} references an out-of-range hyperedge"));
            }
        }
        // Cross-check: each pin (e, v) must appear as incidence (v, e).
        for e in self.hyperedges() {
            for &v in self.pins(e) {
                if self.incident_edges(v).binary_search(&e).is_err() {
                    return Err(format!(
                        "pin ({e}, {v}) missing from the vertex incidence list"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Hypergraph {
    /// Brings the CSR up to date with a mutable twin in place: the pin
    /// lists of `edges` and the incidence lists and weights of `vertices`
    /// (sorted, distinct ids) are replaced with the twin's, and ids past
    /// the current counts are appended from the twin. Only lists that
    /// moved are copied, each once; the twin's lists must be sorted.
    pub(crate) fn splice(
        &mut self,
        edges: &[HyperedgeId],
        vertices: &[VertexId],
        pins: &[Vec<VertexId>],
        incidence: &[Vec<HyperedgeId>],
        vertex_weights: &[f64],
        edge_weights: &[f64],
    ) {
        splice_csr(&mut self.edge_offsets, &mut self.edge_pins, edges, pins);
        splice_csr(
            &mut self.vertex_offsets,
            &mut self.vertex_edges,
            vertices,
            incidence,
        );
        let n = self.vertex_weights.len();
        for &v in vertices.iter().take_while(|&&v| (v as usize) < n) {
            self.vertex_weights[v as usize] = vertex_weights[v as usize];
        }
        self.vertex_weights.extend_from_slice(&vertex_weights[n..]);
        let m = self.edge_weights.len();
        self.edge_weights.extend_from_slice(&edge_weights[m..]);
        debug_assert!(self.validate().is_ok(), "spliced CSR is inconsistent");
    }
}

/// Replaces, in the CSR pair `offsets`/`flat`, the lists of the sorted,
/// distinct `ids` below the current count with `lists[id]`, and appends
/// `lists[count..]`. Each run of untouched lists between two replaced
/// ones moves once, by the length change of the replaced lists before
/// it: left-moving runs front to back, then right-moving runs back to
/// front, so no run overwrites one that has not moved yet.
fn splice_csr<T: Copy + Default>(
    offsets: &mut Vec<usize>,
    flat: &mut Vec<T>,
    ids: &[u32],
    lists: &[Vec<T>],
) {
    let count = offsets.len() - 1;
    let ids = &ids[..ids.partition_point(|&id| (id as usize) < count)];
    // Untouched runs as (old start, old end, shift), and the length change
    // of each replaced list.
    let mut runs = Vec::with_capacity(ids.len() + 1);
    let mut deltas = Vec::with_capacity(ids.len());
    let (mut start, mut shift) = (0usize, 0isize);
    for &id in ids {
        let id = id as usize;
        runs.push((start, offsets[id], shift));
        let delta = lists[id].len() as isize - (offsets[id + 1] - offsets[id]) as isize;
        deltas.push(delta);
        shift += delta;
        start = offsets[id + 1];
    }
    runs.push((start, flat.len(), shift));
    let new_len = (flat.len() as isize + shift) as usize;
    if new_len > flat.len() {
        flat.resize(new_len, T::default());
    }
    let moved = |&&(lo, hi, s): &&(usize, usize, isize)| s != 0 && lo < hi;
    for &(lo, hi, s) in runs.iter().filter(|r| r.2 < 0).filter(moved) {
        flat.copy_within(lo..hi, (lo as isize + s) as usize);
    }
    for &(lo, hi, s) in runs.iter().rev().filter(|r| r.2 > 0).filter(moved) {
        flat.copy_within(lo..hi, (lo as isize + s) as usize);
    }
    flat.truncate(new_len);
    if let Some(&first) = ids.first() {
        let (mut shift, mut next) = (0isize, 0usize);
        for i in first as usize..count {
            if ids.get(next) == Some(&(i as u32)) {
                shift += deltas[next];
                next += 1;
            }
            offsets[i + 1] = (offsets[i + 1] as isize + shift) as usize;
        }
    }
    for &id in ids {
        let lo = offsets[id as usize];
        let list = &lists[id as usize];
        flat[lo..lo + list.len()].copy_from_slice(list);
    }
    for list in &lists[count..] {
        flat.extend_from_slice(list);
        offsets.push(flat.len());
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hypergraph")
            .field("name", &self.name)
            .field("vertices", &self.num_vertices())
            .field("hyperedges", &self.num_hyperedges())
            .field("pins", &self.num_pins())
            .finish()
    }
}

impl fmt::Display for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (|V|={}, |E|={}, pins={})",
            if self.name.is_empty() {
                "<unnamed>"
            } else {
                &self.name
            },
            self.num_vertices(),
            self.num_hyperedges(),
            self.num_pins()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::HypergraphBuilder;

    fn sample() -> crate::Hypergraph {
        // 5 vertices, 3 hyperedges: {0,1,2}, {2,3}, {0,3,4}
        let mut b = HypergraphBuilder::new(5);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3]);
        b.add_hyperedge([0u32, 3, 4]);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let hg = sample();
        assert_eq!(hg.num_vertices(), 5);
        assert_eq!(hg.num_hyperedges(), 3);
        assert_eq!(hg.num_pins(), 8);
        assert_eq!(hg.cardinality(0), 3);
        assert_eq!(hg.cardinality(1), 2);
        assert_eq!(hg.degree(0), 2);
        assert_eq!(hg.degree(4), 1);
    }

    #[test]
    fn pins_and_incidence_are_consistent() {
        let hg = sample();
        assert_eq!(hg.pins(0), &[0, 1, 2]);
        assert_eq!(hg.pins(2), &[0, 3, 4]);
        assert_eq!(hg.incident_edges(0), &[0, 2]);
        assert_eq!(hg.incident_edges(2), &[0, 1]);
        assert_eq!(hg.incident_edges(3), &[1, 2]);
        hg.validate().expect("sample must validate");
    }

    #[test]
    fn default_weights_are_unit() {
        let hg = sample();
        for v in hg.vertices() {
            assert_eq!(hg.vertex_weight(v), 1.0);
        }
        for e in hg.hyperedges() {
            assert_eq!(hg.edge_weight(e), 1.0);
        }
        assert_eq!(hg.total_vertex_weight(), 5.0);
        assert_eq!(hg.total_edge_weight(), 3.0);
    }

    #[test]
    fn cardinality_and_degree_statistics() {
        let hg = sample();
        assert_eq!(hg.max_cardinality(), 3);
        assert!((hg.avg_cardinality() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(hg.max_degree(), 2);
        assert!((hg.avg_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_and_debug_mention_counts() {
        let mut hg = sample();
        hg.set_name("sample");
        let d = format!("{hg}");
        assert!(d.contains("sample"));
        assert!(d.contains("|V|=5"));
        let dbg = format!("{hg:?}");
        assert!(dbg.contains("Hypergraph"));
    }

    #[test]
    fn empty_hypergraph_statistics_are_zero() {
        let b = HypergraphBuilder::new(0);
        let hg = b.build();
        assert_eq!(hg.num_vertices(), 0);
        assert_eq!(hg.num_hyperedges(), 0);
        assert_eq!(hg.max_cardinality(), 0);
        assert_eq!(hg.avg_cardinality(), 0.0);
        assert_eq!(hg.max_degree(), 0);
        assert_eq!(hg.avg_degree(), 0.0);
        hg.validate().unwrap();
    }
}
