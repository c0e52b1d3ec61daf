//! Mutable hypergraph supporting batched incremental updates.
//!
//! The CSR [`Hypergraph`] is immutable by design — every partitioning
//! driver reads it concurrently and the flat arrays cannot absorb
//! insertions. Dynamic repartitioning (the `hyperpraw-dynamic` crate)
//! instead owns a [`MutableHypergraph`]: an adjacency-list twin keeping
//! *both* directions (edge → pins and vertex → incident edges) in sorted
//! `Vec`s, which absorbs vertex/hyperedge/pin additions and removals in
//! `O(log)`-ish time and re-materialises a CSR snapshot on demand with
//! [`MutableHypergraph::to_hypergraph`].
//!
//! Identifiers are **dense and stable**: removing a vertex or hyperedge
//! leaves a tombstone (the id keeps existing, with weight `0` / an empty
//! pin list) instead of shifting every later id. That keeps external
//! references — partition assignments, adjacency offsets, serve-protocol
//! lookups — valid across update batches without an id-remapping table.
//! New vertices and hyperedges always append fresh ids.
//!
//! ```
//! use hyperpraw_hypergraph::{HypergraphBuilder, MutableHypergraph};
//!
//! let mut b = HypergraphBuilder::new(3);
//! b.add_hyperedge([0u32, 1, 2]);
//! let mut m = MutableHypergraph::from_hypergraph(&b.build());
//! let v = m.add_vertex(1.0);
//! m.add_pin(0, v).unwrap();
//! m.remove_vertex(1).unwrap();
//! let hg = m.to_hypergraph();
//! assert_eq!(hg.pins(0), &[0, 2, 3]);
//! assert_eq!(hg.vertex_weight(1), 0.0); // tombstone keeps the id
//! ```

use std::fmt;

use crate::{HyperedgeId, Hypergraph, HypergraphBuilder, VertexId};

/// Why a single mutation was rejected. Mutations are atomic: a rejected
/// call leaves the hypergraph untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// The vertex id is outside the id space.
    UnknownVertex(VertexId),
    /// The hyperedge id is outside the id space.
    UnknownHyperedge(HyperedgeId),
    /// The vertex exists but was removed (tombstoned).
    DeadVertex(VertexId),
    /// The hyperedge exists but was removed (tombstoned).
    DeadHyperedge(HyperedgeId),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            MutationError::UnknownHyperedge(e) => write!(f, "unknown hyperedge {e}"),
            MutationError::DeadVertex(v) => write!(f, "vertex {v} was removed"),
            MutationError::DeadHyperedge(e) => write!(f, "hyperedge {e} was removed"),
        }
    }
}

impl std::error::Error for MutationError {}

/// A hypergraph that accepts incremental updates. See the
/// [module docs](self) for the tombstone id semantics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MutableHypergraph {
    name: String,
    vertex_weights: Vec<f64>,
    vertex_alive: Vec<bool>,
    /// Sorted incident-hyperedge list per vertex.
    incidence: Vec<Vec<HyperedgeId>>,
    /// Sorted distinct pin list per hyperedge; tombstoned edges are empty.
    pins: Vec<Vec<VertexId>>,
    edge_weights: Vec<f64>,
    edge_alive: Vec<bool>,
}

impl MutableHypergraph {
    /// Copies an immutable CSR hypergraph into mutable form. Every vertex
    /// and hyperedge starts alive with its original weight.
    pub fn from_hypergraph(hg: &Hypergraph) -> Self {
        let n = hg.num_vertices();
        let m = hg.num_hyperedges();
        Self {
            name: hg.name().to_string(),
            vertex_weights: (0..n).map(|v| hg.vertex_weight(v as VertexId)).collect(),
            vertex_alive: vec![true; n],
            incidence: (0..n)
                .map(|v| hg.incident_edges(v as VertexId).to_vec())
                .collect(),
            pins: (0..m).map(|e| hg.pins(e as HyperedgeId).to_vec()).collect(),
            edge_weights: (0..m).map(|e| hg.edge_weight(e as HyperedgeId)).collect(),
            edge_alive: vec![true; m],
        }
    }

    /// Re-materialises an immutable CSR snapshot. Tombstoned vertices keep
    /// their id with weight `0` and no incidences; tombstoned hyperedges
    /// keep their id with an empty pin list (legal in the CSR — they can
    /// never be cut).
    pub fn to_hypergraph(&self) -> Hypergraph {
        let mut b = HypergraphBuilder::with_capacity(self.vertex_weights.len(), self.pins.len());
        b.name(self.name.clone());
        for (pins, &w) in self.pins.iter().zip(&self.edge_weights) {
            b.add_weighted_hyperedge(pins.iter().copied(), w);
        }
        for (v, &w) in self.vertex_weights.iter().enumerate() {
            if w != 1.0 {
                b.set_vertex_weight(v as VertexId, w);
            }
        }
        b.build()
    }

    /// Brings `snapshot` — the CSR of this hypergraph at an earlier
    /// state — up to date without rebuilding it: the current pin lists of
    /// `edges` and incidence lists and weights of `vertices` are spliced
    /// into its flat arrays, and the ids appended since are added.
    /// `vertices` and `edges` must be sorted and distinct and name every
    /// earlier id whose list or weight changed since; naming an unchanged
    /// id is harmless. The result equals
    /// [`MutableHypergraph::to_hypergraph`].
    pub fn refresh_snapshot(
        &self,
        snapshot: &mut Hypergraph,
        vertices: &[VertexId],
        edges: &[HyperedgeId],
    ) {
        snapshot.splice(
            edges,
            vertices,
            &self.pins,
            &self.incidence,
            &self.vertex_weights,
            &self.edge_weights,
        );
    }

    /// Reassembles the mutable form from a CSR snapshot (as produced by
    /// [`MutableHypergraph::to_hypergraph`]) plus the liveness flags of
    /// the instance that wrote it — the persistence path of the dynamic
    /// journal. Tombstone invariants are validated: a dead vertex must
    /// have weight `0` and no incidences, a dead hyperedge must have an
    /// empty pin list. On success the result is equal (`PartialEq`) to
    /// the instance the snapshot and flags were taken from.
    pub fn from_snapshot(
        hg: &Hypergraph,
        vertex_alive: &[bool],
        edge_alive: &[bool],
    ) -> Result<Self, String> {
        if vertex_alive.len() != hg.num_vertices() {
            return Err(format!(
                "vertex liveness covers {} ids but the snapshot has {}",
                vertex_alive.len(),
                hg.num_vertices()
            ));
        }
        if edge_alive.len() != hg.num_hyperedges() {
            return Err(format!(
                "hyperedge liveness covers {} ids but the snapshot has {}",
                edge_alive.len(),
                hg.num_hyperedges()
            ));
        }
        for (v, &alive) in vertex_alive.iter().enumerate() {
            let v = v as VertexId;
            if !alive && (hg.vertex_weight(v) != 0.0 || !hg.incident_edges(v).is_empty()) {
                return Err(format!(
                    "tombstoned vertex {v} still carries weight or pins"
                ));
            }
        }
        for (e, &alive) in edge_alive.iter().enumerate() {
            let e = e as HyperedgeId;
            if !alive && !hg.pins(e).is_empty() {
                return Err(format!("tombstoned hyperedge {e} still has pins"));
            }
        }
        let mut m = Self::from_hypergraph(hg);
        m.vertex_alive.copy_from_slice(vertex_alive);
        m.edge_alive.copy_from_slice(edge_alive);
        Ok(m)
    }

    /// Per-id vertex liveness flags (index = vertex id), for persistence.
    pub fn vertex_alive_flags(&self) -> &[bool] {
        &self.vertex_alive
    }

    /// Per-id hyperedge liveness flags (index = hyperedge id), for
    /// persistence.
    pub fn edge_alive_flags(&self) -> &[bool] {
        &self.edge_alive
    }

    /// Number of vertex ids (live and tombstoned).
    pub fn num_vertices(&self) -> usize {
        self.vertex_weights.len()
    }

    /// Number of hyperedge ids (live and tombstoned).
    pub fn num_hyperedges(&self) -> usize {
        self.pins.len()
    }

    /// Number of live (non-tombstoned) vertices.
    pub fn num_live_vertices(&self) -> usize {
        self.vertex_alive.iter().filter(|&&a| a).count()
    }

    /// Whether `v` exists and is live.
    pub fn is_vertex_alive(&self, v: VertexId) -> bool {
        self.vertex_alive.get(v as usize).copied().unwrap_or(false)
    }

    /// Whether `e` exists and is live.
    pub fn is_hyperedge_alive(&self, e: HyperedgeId) -> bool {
        self.edge_alive.get(e as usize).copied().unwrap_or(false)
    }

    /// Weight of vertex `v` (`0` once tombstoned).
    pub fn vertex_weight(&self, v: VertexId) -> f64 {
        self.vertex_weights[v as usize]
    }

    /// Weight of hyperedge `e`.
    pub fn edge_weight(&self, e: HyperedgeId) -> f64 {
        self.edge_weights[e as usize]
    }

    /// The sorted distinct pins of hyperedge `e` (empty once tombstoned).
    pub fn pins(&self, e: HyperedgeId) -> &[VertexId] {
        &self.pins[e as usize]
    }

    /// The sorted incident hyperedges of vertex `v` (empty once
    /// tombstoned).
    pub fn incident_edges(&self, v: VertexId) -> &[HyperedgeId] {
        &self.incidence[v as usize]
    }

    /// Appends a new vertex and returns its id.
    pub fn add_vertex(&mut self, weight: f64) -> VertexId {
        let v = self.vertex_weights.len() as VertexId;
        self.vertex_weights.push(weight);
        self.vertex_alive.push(true);
        self.incidence.push(Vec::new());
        v
    }

    /// Tombstones vertex `v`: strips it from every incident hyperedge and
    /// zeroes its weight. Idempotent on an already-dead vertex.
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<(), MutationError> {
        let i = v as usize;
        if i >= self.vertex_weights.len() {
            return Err(MutationError::UnknownVertex(v));
        }
        if !self.vertex_alive[i] {
            return Ok(());
        }
        for e in std::mem::take(&mut self.incidence[i]) {
            let pins = &mut self.pins[e as usize];
            if let Ok(pos) = pins.binary_search(&v) {
                pins.remove(pos);
            }
        }
        self.vertex_alive[i] = false;
        self.vertex_weights[i] = 0.0;
        Ok(())
    }

    /// Appends a new hyperedge over `pins` (deduplicated, must all be
    /// live) and returns its id.
    pub fn add_hyperedge<I>(&mut self, pins: I, weight: f64) -> Result<HyperedgeId, MutationError>
    where
        I: IntoIterator<Item = VertexId>,
    {
        let mut pins: Vec<VertexId> = pins.into_iter().collect();
        pins.sort_unstable();
        pins.dedup();
        for &v in &pins {
            self.check_live_vertex(v)?;
        }
        let e = self.pins.len() as HyperedgeId;
        for &v in &pins {
            self.incidence[v as usize].push(e); // e is the max id: stays sorted
        }
        self.pins.push(pins);
        self.edge_weights.push(weight);
        self.edge_alive.push(true);
        Ok(e)
    }

    /// Tombstones hyperedge `e`: its pin list empties and it disappears
    /// from every pin's incidence. Idempotent on an already-dead edge.
    pub fn remove_hyperedge(&mut self, e: HyperedgeId) -> Result<(), MutationError> {
        let i = e as usize;
        if i >= self.pins.len() {
            return Err(MutationError::UnknownHyperedge(e));
        }
        if !self.edge_alive[i] {
            return Ok(());
        }
        for v in std::mem::take(&mut self.pins[i]) {
            let inc = &mut self.incidence[v as usize];
            if let Ok(pos) = inc.binary_search(&e) {
                inc.remove(pos);
            }
        }
        self.edge_alive[i] = false;
        Ok(())
    }

    /// Adds live vertex `v` as a pin of live hyperedge `e`. Returns `false`
    /// when the pin was already present.
    pub fn add_pin(&mut self, e: HyperedgeId, v: VertexId) -> Result<bool, MutationError> {
        self.check_live_edge(e)?;
        self.check_live_vertex(v)?;
        let pins = &mut self.pins[e as usize];
        match pins.binary_search(&v) {
            Ok(_) => Ok(false),
            Err(pos) => {
                pins.insert(pos, v);
                let inc = &mut self.incidence[v as usize];
                if let Err(ipos) = inc.binary_search(&e) {
                    inc.insert(ipos, e);
                }
                Ok(true)
            }
        }
    }

    /// Removes vertex `v` from the pins of live hyperedge `e`. Returns
    /// `false` when the pin was not present.
    pub fn remove_pin(&mut self, e: HyperedgeId, v: VertexId) -> Result<bool, MutationError> {
        self.check_live_edge(e)?;
        if v as usize >= self.vertex_weights.len() {
            return Err(MutationError::UnknownVertex(v));
        }
        let pins = &mut self.pins[e as usize];
        match pins.binary_search(&v) {
            Err(_) => Ok(false),
            Ok(pos) => {
                pins.remove(pos);
                let inc = &mut self.incidence[v as usize];
                if let Ok(ipos) = inc.binary_search(&e) {
                    inc.remove(ipos);
                }
                Ok(true)
            }
        }
    }

    fn check_live_vertex(&self, v: VertexId) -> Result<(), MutationError> {
        match self.vertex_alive.get(v as usize) {
            None => Err(MutationError::UnknownVertex(v)),
            Some(false) => Err(MutationError::DeadVertex(v)),
            Some(true) => Ok(()),
        }
    }

    fn check_live_edge(&self, e: HyperedgeId) -> Result<(), MutationError> {
        match self.edge_alive.get(e as usize) {
            None => Err(MutationError::UnknownHyperedge(e)),
            Some(false) => Err(MutationError::DeadHyperedge(e)),
            Some(true) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MutableHypergraph {
        let mut b = HypergraphBuilder::new(5);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3, 4]);
        MutableHypergraph::from_hypergraph(&b.build())
    }

    #[test]
    fn round_trips_through_the_csr_unchanged() {
        let mut b = HypergraphBuilder::new(4);
        b.add_weighted_hyperedge([0u32, 1], 2.0);
        b.add_hyperedge([1u32, 2, 3]);
        b.set_vertex_weight(3, 5.0);
        let hg = b.build();
        let m = MutableHypergraph::from_hypergraph(&hg);
        assert_eq!(m.to_hypergraph(), hg);
    }

    #[test]
    fn vertex_removal_strips_pins_and_keeps_the_id_space() {
        let mut m = sample();
        m.remove_vertex(2).unwrap();
        assert!(!m.is_vertex_alive(2));
        assert_eq!(m.pins(0), &[0, 1]);
        assert_eq!(m.pins(1), &[3, 4]);
        assert_eq!(m.incident_edges(2), &[] as &[HyperedgeId]);
        // Idempotent.
        m.remove_vertex(2).unwrap();
        let hg = m.to_hypergraph();
        assert_eq!(hg.num_vertices(), 5);
        assert_eq!(hg.vertex_weight(2), 0.0);
        hg.validate().unwrap();
    }

    #[test]
    fn edge_removal_empties_the_pin_list() {
        let mut m = sample();
        m.remove_hyperedge(0).unwrap();
        assert!(!m.is_hyperedge_alive(0));
        assert_eq!(m.pins(0), &[] as &[VertexId]);
        assert_eq!(m.incident_edges(2), &[1]);
        let hg = m.to_hypergraph();
        assert_eq!(hg.num_hyperedges(), 2);
        assert_eq!(hg.cardinality(0), 0);
        hg.validate().unwrap();
    }

    #[test]
    fn pins_insert_sorted_and_are_idempotent() {
        let mut m = sample();
        assert!(m.add_pin(0, 4).unwrap());
        assert!(!m.add_pin(0, 4).unwrap());
        assert_eq!(m.pins(0), &[0, 1, 2, 4]);
        assert_eq!(m.incident_edges(4), &[0, 1]);
        assert!(m.remove_pin(0, 4).unwrap());
        assert!(!m.remove_pin(0, 4).unwrap());
        assert_eq!(m.pins(0), &[0, 1, 2]);
    }

    #[test]
    fn appended_vertices_and_edges_get_fresh_ids() {
        let mut m = sample();
        let v = m.add_vertex(2.5);
        assert_eq!(v, 5);
        let e = m.add_hyperedge([0, v], 1.0).unwrap();
        assert_eq!(e, 2);
        assert_eq!(m.incident_edges(v), &[2]);
        let hg = m.to_hypergraph();
        assert_eq!(hg.num_vertices(), 6);
        assert_eq!(hg.vertex_weight(5), 2.5);
        assert_eq!(hg.pins(2), &[0, 5]);
        hg.validate().unwrap();
    }

    #[test]
    fn snapshot_plus_liveness_flags_round_trips_tombstones() {
        let mut m = sample();
        m.remove_vertex(1).unwrap();
        m.remove_hyperedge(1).unwrap();
        let v = m.add_vertex(2.5);
        m.add_hyperedge([0, v], 3.0).unwrap();
        let rebuilt = MutableHypergraph::from_snapshot(
            &m.to_hypergraph(),
            m.vertex_alive_flags(),
            m.edge_alive_flags(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);

        // Lying flags are rejected: a "dead" vertex that still has pins.
        let live = sample();
        let mut flags = live.vertex_alive_flags().to_vec();
        flags[0] = false;
        let err = MutableHypergraph::from_snapshot(
            &live.to_hypergraph(),
            &flags,
            live.edge_alive_flags(),
        )
        .unwrap_err();
        assert!(err.contains("tombstoned vertex 0"), "{err}");
        // Length mismatches are rejected too.
        assert!(MutableHypergraph::from_snapshot(
            &live.to_hypergraph(),
            &[],
            live.edge_alive_flags()
        )
        .is_err());
    }

    #[test]
    fn refreshed_snapshots_equal_a_rebuild() {
        let mut m = sample();
        let mut snapshot = m.to_hypergraph();
        // Edge 0 shrinks, edge 1 grows, vertex 1 dies, two vertices and an
        // edge are appended.
        m.remove_vertex(1).unwrap();
        m.add_pin(1, 0).unwrap();
        let v = m.add_vertex(2.0);
        let w = m.add_vertex(1.0);
        m.add_hyperedge([v, 3, w], 0.5).unwrap();
        m.refresh_snapshot(&mut snapshot, &[0, 1, 3, v, w], &[0, 1]);
        assert_eq!(snapshot, m.to_hypergraph());

        // Growth at the front and shrinkage at the back in one batch.
        m.add_pin(0, 4).unwrap();
        m.remove_hyperedge(2).unwrap();
        m.refresh_snapshot(&mut snapshot, &[0, 3, 4, v, w], &[0, 2]);
        assert_eq!(snapshot, m.to_hypergraph());
        snapshot.validate().unwrap();
    }

    #[test]
    fn dead_references_are_rejected_without_mutation() {
        let mut m = sample();
        m.remove_vertex(1).unwrap();
        assert_eq!(m.add_pin(0, 1), Err(MutationError::DeadVertex(1)));
        assert_eq!(
            m.add_hyperedge([0, 1], 1.0),
            Err(MutationError::DeadVertex(1))
        );
        m.remove_hyperedge(1).unwrap();
        assert_eq!(m.add_pin(1, 0), Err(MutationError::DeadHyperedge(1)));
        assert_eq!(m.remove_pin(1, 0), Err(MutationError::DeadHyperedge(1)));
        assert_eq!(m.add_pin(9, 0), Err(MutationError::UnknownHyperedge(9)));
        assert_eq!(m.remove_vertex(9), Err(MutationError::UnknownVertex(9)));
        // Failed mutations left the live parts intact.
        assert_eq!(m.pins(0), &[0, 2]);
    }
}
