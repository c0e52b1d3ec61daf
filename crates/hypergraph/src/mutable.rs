//! The resident, editable hypergraph of the dynamic layer.
//!
//! A [`MutableHypergraph`] is the CSR [`Hypergraph`] every driver reads,
//! plus one liveness flag per vertex and hyperedge id; the dynamic
//! repartitioner (the `hyperpraw-dynamic` crate) keeps exactly one. A
//! batch of updates goes through a [`HypergraphEdit`], an overlay that
//! copies only the pin and incidence lists it touches. Committing it
//! splices those lists into the CSR in place; dropping it leaves the
//! graph as it was, so a batch that fails half way changes nothing.
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
//! let mut m = MutableHypergraph::new(b.build());
//! let mut edit = m.edit();
//! let v = edit.add_vertex(1.0);
//! edit.add_pin(0, v).unwrap();
//! edit.remove_vertex(1).unwrap();
//! edit.commit();
//! let hg = m.hypergraph();
//! assert_eq!(hg.pins(0), &[0, 2, 3]);
//! assert_eq!(hg.vertex_weight(1), 0.0); // tombstone keeps the id
//! assert!(!m.is_vertex_alive(1));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::{HyperedgeId, Hypergraph, VertexId};

/// Why a single mutation was rejected. Mutations are atomic: a rejected
/// call leaves the edit untouched.
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

/// A CSR hypergraph with tombstoned ids, edited in batches. See the
/// [module docs](self) for the id semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct MutableHypergraph {
    hg: Hypergraph,
    vertex_alive: Vec<bool>,
    edge_alive: Vec<bool>,
    /// The number of `true` vertex flags, kept at every commit.
    live_vertices: usize,
}

impl MutableHypergraph {
    /// Adopts `hg` with every vertex and hyperedge alive.
    pub fn new(hg: Hypergraph) -> Self {
        let (n, m) = (hg.num_vertices(), hg.num_hyperedges());
        Self {
            hg,
            vertex_alive: vec![true; n],
            edge_alive: vec![true; m],
            live_vertices: n,
        }
    }

    /// Reassembles the graph from a CSR snapshot plus the liveness flags
    /// of the instance that wrote it — the persistence path of the
    /// dynamic journal. The tombstone invariants are checked (see
    /// [`MutableHypergraph::validate`]); on success the result is equal
    /// (`PartialEq`) to the instance the snapshot and flags were taken
    /// from.
    pub fn from_snapshot(
        hg: Hypergraph,
        vertex_alive: Vec<bool>,
        edge_alive: Vec<bool>,
    ) -> Result<Self, String> {
        let live_vertices = vertex_alive.iter().filter(|&&a| a).count();
        let graph = Self {
            hg,
            vertex_alive,
            edge_alive,
            live_vertices,
        };
        graph.validate()?;
        Ok(graph)
    }

    /// Checks the tombstone invariants: one flag per id, a dead vertex
    /// has weight `0` and no incidences, a dead hyperedge has no pins,
    /// and the kept live-vertex count equals the flags'. Returns a
    /// description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let hg = &self.hg;
        let (n, m) = (hg.num_vertices(), hg.num_hyperedges());
        if self.vertex_alive.len() != n || self.edge_alive.len() != m {
            return Err(format!(
                "liveness covers {} vertex and {} hyperedge ids but the snapshot has {n} and {m}",
                self.vertex_alive.len(),
                self.edge_alive.len()
            ));
        }
        let dead_vertex = hg.vertices().find(|&v| {
            !self.vertex_alive[v as usize] && (hg.vertex_weight(v) != 0.0 || hg.degree(v) > 0)
        });
        if let Some(v) = dead_vertex {
            return Err(format!(
                "tombstoned vertex {v} still carries weight or pins"
            ));
        }
        let dead_edge = hg
            .hyperedges()
            .find(|&e| !self.edge_alive[e as usize] && hg.cardinality(e) > 0);
        if let Some(e) = dead_edge {
            return Err(format!("tombstoned hyperedge {e} still has pins"));
        }
        let live = self.vertex_alive.iter().filter(|&&a| a).count();
        if live != self.live_vertices {
            let kept = self.live_vertices;
            return Err(format!(
                "{kept} live vertices kept but the flags count {live}"
            ));
        }
        Ok(())
    }

    /// The CSR hypergraph (tombstones included as weight-0 / empty-pin
    /// ids).
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hg
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

    /// Number of live (non-tombstoned) vertices, in O(1).
    pub fn num_live_vertices(&self) -> usize {
        self.live_vertices
    }

    /// Whether `v` exists and is live.
    pub fn is_vertex_alive(&self, v: VertexId) -> bool {
        self.vertex_alive.get(v as usize).copied().unwrap_or(false)
    }

    /// Starts a batch of edits. The graph stays as it is until the edit
    /// is committed.
    pub fn edit(&mut self) -> HypergraphEdit<'_> {
        HypergraphEdit {
            graph: self,
            pins: BTreeMap::new(),
            incidence: BTreeMap::new(),
            vertex_weights: Vec::new(),
            edge_weights: Vec::new(),
            dead_vertices: BTreeSet::new(),
            dead_edges: BTreeSet::new(),
        }
    }
}

/// A batch of edits over a [`MutableHypergraph`]: reads see the graph as
/// the edits so far leave it, while the graph itself is unchanged until
/// [`HypergraphEdit::commit`]. Only the lists an edit touches are copied
/// out of the CSR.
#[derive(Debug)]
pub struct HypergraphEdit<'g> {
    graph: &'g mut MutableHypergraph,
    /// The edited pin lists by hyperedge id, appended hyperedges included.
    pins: BTreeMap<HyperedgeId, Vec<VertexId>>,
    /// The edited incidence lists by vertex id, appended vertices
    /// included.
    incidence: BTreeMap<VertexId, Vec<HyperedgeId>>,
    /// Weights of the appended vertices and hyperedges.
    vertex_weights: Vec<f64>,
    edge_weights: Vec<f64>,
    /// The ids this edit tombstoned.
    dead_vertices: BTreeSet<VertexId>,
    dead_edges: BTreeSet<HyperedgeId>,
}

impl HypergraphEdit<'_> {
    /// The CSR as it was before this edit.
    pub fn base(&self) -> &Hypergraph {
        &self.graph.hg
    }

    /// Number of vertex ids, appended ones included.
    pub fn num_vertices(&self) -> usize {
        self.graph.hg.num_vertices() + self.vertex_weights.len()
    }

    /// Number of hyperedge ids, appended ones included.
    pub fn num_hyperedges(&self) -> usize {
        self.graph.hg.num_hyperedges() + self.edge_weights.len()
    }

    /// The sorted distinct pins of hyperedge `e` as edited so far.
    pub fn pins(&self, e: HyperedgeId) -> &[VertexId] {
        self.pins
            .get(&e)
            .map_or_else(|| self.graph.hg.pins(e), Vec::as_slice)
    }

    /// The sorted incident hyperedges of vertex `v` as edited so far.
    pub fn incident_edges(&self, v: VertexId) -> &[HyperedgeId] {
        self.incidence
            .get(&v)
            .map_or_else(|| self.graph.hg.incident_edges(v), Vec::as_slice)
    }

    /// Appends a new vertex and returns its id.
    pub fn add_vertex(&mut self, weight: f64) -> VertexId {
        let v = self.num_vertices() as VertexId;
        self.vertex_weights.push(weight);
        self.incidence.insert(v, Vec::new());
        v
    }

    /// Tombstones vertex `v`: strips it from every incident hyperedge and
    /// zeroes its weight. Idempotent on an already-dead vertex.
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<(), MutationError> {
        if !self.vertex_alive(v)? {
            return Ok(());
        }
        for e in std::mem::take(self.incidence_mut(v)) {
            self.pins_mut(e).retain(|&u| u != v);
        }
        self.dead_vertices.insert(v);
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
            self.live_vertex(v)?;
        }
        let e = self.num_hyperedges() as HyperedgeId;
        for &v in &pins {
            self.incidence_mut(v).push(e); // e is the max id: stays sorted
        }
        self.pins.insert(e, pins);
        self.edge_weights.push(weight);
        Ok(e)
    }

    /// Tombstones hyperedge `e`: its pin list empties and it disappears
    /// from every pin's incidence. Idempotent on an already-dead edge.
    pub fn remove_hyperedge(&mut self, e: HyperedgeId) -> Result<(), MutationError> {
        if !self.edge_alive(e)? {
            return Ok(());
        }
        for v in std::mem::take(self.pins_mut(e)) {
            self.incidence_mut(v).retain(|&f| f != e);
        }
        self.dead_edges.insert(e);
        Ok(())
    }

    /// Adds live vertex `v` as a pin of live hyperedge `e`. Returns `false`
    /// when the pin was already present.
    pub fn add_pin(&mut self, e: HyperedgeId, v: VertexId) -> Result<bool, MutationError> {
        self.live_edge(e)?;
        self.live_vertex(v)?;
        let Err(pos) = self.pins(e).binary_search(&v) else {
            return Ok(false);
        };
        self.pins_mut(e).insert(pos, v);
        let inc = self.incidence_mut(v);
        if let Err(ipos) = inc.binary_search(&e) {
            inc.insert(ipos, e);
        }
        Ok(true)
    }

    /// Removes vertex `v` from the pins of live hyperedge `e`. Returns
    /// `false` when the pin was not present.
    pub fn remove_pin(&mut self, e: HyperedgeId, v: VertexId) -> Result<bool, MutationError> {
        self.live_edge(e)?;
        self.vertex_alive(v)?; // a dead vertex is no pin: nothing to remove
        let Ok(pos) = self.pins(e).binary_search(&v) else {
            return Ok(false);
        };
        self.pins_mut(e).remove(pos);
        self.incidence_mut(v).retain(|&f| f != e);
        Ok(true)
    }

    /// Writes the edits into the graph: one splice of the edited lists
    /// into the CSR, then the liveness flags and the live-vertex count.
    pub fn commit(self) {
        let graph = self.graph;
        let appended =
            (graph.hg.num_vertices() as VertexId..).zip(self.vertex_weights.iter().copied());
        let tombstoned = self.dead_vertices.iter().map(|&v| (v, 0.0));
        graph.hg.splice(
            &self.pins,
            &self.incidence,
            appended.chain(tombstoned),
            &self.edge_weights,
        );
        graph.vertex_alive.resize(graph.hg.num_vertices(), true);
        graph.edge_alive.resize(graph.hg.num_hyperedges(), true);
        for &v in &self.dead_vertices {
            graph.vertex_alive[v as usize] = false;
        }
        for &e in &self.dead_edges {
            graph.edge_alive[e as usize] = false;
        }
        graph.live_vertices += self.vertex_weights.len();
        graph.live_vertices -= self.dead_vertices.len();
    }

    /// Whether known vertex `v` is live as edited so far.
    fn vertex_alive(&self, v: VertexId) -> Result<bool, MutationError> {
        let known = (v as usize) < self.num_vertices();
        let flag = self.graph.vertex_alive.get(v as usize);
        known
            .then(|| flag != Some(&false) && !self.dead_vertices.contains(&v))
            .ok_or(MutationError::UnknownVertex(v))
    }

    /// Whether known hyperedge `e` is live as edited so far.
    fn edge_alive(&self, e: HyperedgeId) -> Result<bool, MutationError> {
        let known = (e as usize) < self.num_hyperedges();
        let flag = self.graph.edge_alive.get(e as usize);
        known
            .then(|| flag != Some(&false) && !self.dead_edges.contains(&e))
            .ok_or(MutationError::UnknownHyperedge(e))
    }

    fn live_vertex(&self, v: VertexId) -> Result<(), MutationError> {
        let alive = self.vertex_alive(v)?;
        alive.then_some(()).ok_or(MutationError::DeadVertex(v))
    }

    fn live_edge(&self, e: HyperedgeId) -> Result<(), MutationError> {
        let alive = self.edge_alive(e)?;
        alive.then_some(()).ok_or(MutationError::DeadHyperedge(e))
    }

    /// The pin list of `e` for writing, copied from the CSR on first use.
    fn pins_mut(&mut self, e: HyperedgeId) -> &mut Vec<VertexId> {
        let hg = &self.graph.hg;
        self.pins.entry(e).or_insert_with(|| hg.pins(e).to_vec())
    }

    /// The incidence list of `v` for writing, copied from the CSR on
    /// first use.
    fn incidence_mut(&mut self, v: VertexId) -> &mut Vec<HyperedgeId> {
        let hg = &self.graph.hg;
        let list = || hg.incident_edges(v).to_vec();
        self.incidence.entry(v).or_insert_with(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> MutableHypergraph {
        let mut b = HypergraphBuilder::new(5);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3, 4]);
        MutableHypergraph::new(b.build())
    }

    #[test]
    fn an_empty_edit_commits_the_csr_unchanged() {
        let mut b = HypergraphBuilder::new(4);
        b.add_weighted_hyperedge([0u32, 1], 2.0);
        b.add_hyperedge([1u32, 2, 3]);
        b.set_vertex_weight(3, 5.0);
        let hg = b.build();
        let mut m = MutableHypergraph::new(hg.clone());
        m.edit().commit();
        assert_eq!(m.hypergraph(), &hg);
        assert_eq!(m, MutableHypergraph::new(hg));
    }

    #[test]
    fn vertex_removal_strips_pins_and_keeps_the_id_space() {
        let mut m = sample();
        let mut edit = m.edit();
        edit.remove_vertex(2).unwrap();
        assert_eq!(edit.pins(0), &[0, 1]);
        assert_eq!(edit.pins(1), &[3, 4]);
        assert_eq!(edit.incident_edges(2), &[] as &[HyperedgeId]);
        // Idempotent.
        edit.remove_vertex(2).unwrap();
        edit.commit();
        assert!(!m.is_vertex_alive(2));
        assert_eq!(m.num_live_vertices(), 4);
        let hg = m.hypergraph();
        assert_eq!(hg.num_vertices(), 5);
        assert_eq!(hg.vertex_weight(2), 0.0);
        hg.validate().unwrap();
        m.validate().unwrap();
    }

    #[test]
    fn edge_removal_empties_the_pin_list() {
        let mut m = sample();
        let mut edit = m.edit();
        edit.remove_hyperedge(0).unwrap();
        assert_eq!(edit.pins(0), &[] as &[VertexId]);
        assert_eq!(edit.incident_edges(2), &[1]);
        edit.commit();
        assert_eq!(m.edge_alive_flags(), &[false, true]);
        let hg = m.hypergraph();
        assert_eq!(hg.num_hyperedges(), 2);
        assert_eq!(hg.cardinality(0), 0);
        hg.validate().unwrap();
    }

    #[test]
    fn pins_insert_sorted_and_are_idempotent() {
        let mut m = sample();
        let mut edit = m.edit();
        assert!(edit.add_pin(0, 4).unwrap());
        assert!(!edit.add_pin(0, 4).unwrap());
        assert_eq!(edit.pins(0), &[0, 1, 2, 4]);
        assert_eq!(edit.incident_edges(4), &[0, 1]);
        assert!(edit.remove_pin(0, 4).unwrap());
        assert!(!edit.remove_pin(0, 4).unwrap());
        assert_eq!(edit.pins(0), &[0, 1, 2]);
    }

    #[test]
    fn appended_vertices_and_edges_get_fresh_ids() {
        let mut m = sample();
        let mut edit = m.edit();
        let v = edit.add_vertex(2.5);
        assert_eq!(v, 5);
        let e = edit.add_hyperedge([0, v], 1.0).unwrap();
        assert_eq!(e, 2);
        assert_eq!(edit.incident_edges(v), &[2]);
        edit.commit();
        let hg = m.hypergraph();
        assert_eq!(hg.num_vertices(), 6);
        assert_eq!(hg.vertex_weight(5), 2.5);
        assert_eq!(hg.pins(2), &[0, 5]);
        hg.validate().unwrap();
        assert_eq!(m.num_live_vertices(), 6);
    }

    #[test]
    fn snapshot_plus_liveness_flags_round_trips_tombstones() {
        let mut m = sample();
        let mut edit = m.edit();
        edit.remove_vertex(1).unwrap();
        edit.remove_hyperedge(1).unwrap();
        let v = edit.add_vertex(2.5);
        edit.add_hyperedge([0, v], 3.0).unwrap();
        edit.commit();
        let rebuilt = MutableHypergraph::from_snapshot(
            m.hypergraph().clone(),
            m.vertex_alive_flags().to_vec(),
            m.edge_alive_flags().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);

        // Lying flags are rejected: a "dead" vertex that still has pins.
        let live = sample();
        let mut flags = live.vertex_alive_flags().to_vec();
        flags[0] = false;
        let err = MutableHypergraph::from_snapshot(
            live.hypergraph().clone(),
            flags,
            live.edge_alive_flags().to_vec(),
        )
        .unwrap_err();
        assert!(err.contains("tombstoned vertex 0"), "{err}");
        // Length mismatches are rejected too.
        assert!(MutableHypergraph::from_snapshot(
            live.hypergraph().clone(),
            Vec::new(),
            live.edge_alive_flags().to_vec()
        )
        .is_err());
    }

    /// A plain model of the graph: pin lists and weights, rebuilt through
    /// [`HypergraphBuilder`].
    struct Model {
        vertex_weights: Vec<f64>,
        vertex_alive: Vec<bool>,
        edges: Vec<(Vec<VertexId>, f64)>,
        edge_alive: Vec<bool>,
    }

    impl Model {
        fn build(&self) -> Hypergraph {
            let mut b = HypergraphBuilder::new(self.vertex_weights.len());
            for (pins, w) in &self.edges {
                b.add_weighted_hyperedge(pins.iter().copied(), *w);
            }
            for (v, &w) in self.vertex_weights.iter().enumerate() {
                b.set_vertex_weight(v as VertexId, w);
            }
            b.build()
        }

        fn live(&self, rng: &mut StdRng) -> VertexId {
            loop {
                let v = rng.gen_range(0..self.vertex_alive.len());
                if self.vertex_alive[v] {
                    return v as VertexId;
                }
            }
        }
    }

    #[test]
    fn committed_edits_over_random_batches_equal_a_builder_rebuild() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = Model {
            vertex_weights: vec![1.0; 12],
            vertex_alive: vec![true; 12],
            edges: (0..8u32)
                .map(|e| (vec![e, e + 2, e + 4], 1.0 + f64::from(e)))
                .collect(),
            edge_alive: vec![true; 8],
        };
        let mut m = MutableHypergraph::new(model.build());
        for _ in 0..60 {
            let mut edit = m.edit();
            for _ in 0..rng.gen_range(1..6) {
                let e = rng.gen_range(0..model.edges.len());
                let v = model.live(&mut rng);
                match rng.gen_range(0..6) {
                    0 => {
                        let w = rng.gen_range(1.0..3.0);
                        edit.add_vertex(w);
                        model.vertex_weights.push(w);
                        model.vertex_alive.push(true);
                    }
                    1 if model.vertex_alive.iter().filter(|&&a| a).count() > 3 => {
                        edit.remove_vertex(v).unwrap();
                        model.vertex_alive[v as usize] = false;
                        model.vertex_weights[v as usize] = 0.0;
                        model
                            .edges
                            .iter_mut()
                            .for_each(|(p, _)| p.retain(|&u| u != v));
                    }
                    2 => {
                        let pins = vec![v, model.live(&mut rng)];
                        edit.add_hyperedge(pins.iter().copied(), 0.5).unwrap();
                        model.edges.push((pins, 0.5));
                        model.edge_alive.push(true);
                    }
                    3 => {
                        edit.remove_hyperedge(e as HyperedgeId).unwrap();
                        model.edges[e].0.clear();
                        model.edge_alive[e] = false;
                    }
                    4 if model.edge_alive[e] => {
                        edit.add_pin(e as HyperedgeId, v).unwrap();
                        model.edges[e].0.push(v);
                    }
                    _ if model.edge_alive[e] => {
                        edit.remove_pin(e as HyperedgeId, v).unwrap();
                        model.edges[e].0.retain(|&u| u != v);
                    }
                    _ => {}
                }
            }
            edit.commit();
            assert_eq!(m.hypergraph(), &model.build());
            m.validate().unwrap();
        }
    }

    #[test]
    fn a_dropped_edit_leaves_the_graph_bit_identical() {
        let mut m = sample();
        let mut edit = m.edit();
        edit.remove_vertex(3).unwrap();
        edit.commit();
        let before = m.clone();
        let mut edit = m.edit();
        let v = edit.add_vertex(4.0);
        let e = edit.add_hyperedge([0, 1, v], 2.0).unwrap();
        assert!(edit.add_pin(0, 4).unwrap());
        assert!(edit.add_pin(e, 2).unwrap());
        assert_eq!(edit.pins(0), &[0, 1, 2, 4]);
        drop(edit);
        assert_eq!(m, before);
        assert_eq!(m.vertex_alive_flags(), before.vertex_alive_flags());
        assert_eq!(m.edge_alive_flags(), before.edge_alive_flags());
        let hg = m.hypergraph();
        assert_eq!(
            (
                hg.num_vertices(),
                hg.num_hyperedges(),
                m.num_live_vertices()
            ),
            (5, 2, 4)
        );
    }

    #[test]
    fn dead_references_are_rejected_without_mutation() {
        let mut m = sample();
        let mut edit = m.edit();
        edit.remove_vertex(1).unwrap();
        assert_eq!(edit.add_pin(0, 1), Err(MutationError::DeadVertex(1)));
        assert_eq!(
            edit.add_hyperedge([0, 1], 1.0),
            Err(MutationError::DeadVertex(1))
        );
        edit.remove_hyperedge(1).unwrap();
        assert_eq!(edit.add_pin(1, 0), Err(MutationError::DeadHyperedge(1)));
        assert_eq!(edit.remove_pin(1, 0), Err(MutationError::DeadHyperedge(1)));
        assert_eq!(edit.add_pin(9, 0), Err(MutationError::UnknownHyperedge(9)));
        assert_eq!(edit.remove_vertex(9), Err(MutationError::UnknownVertex(9)));
        // Failed mutations left the live parts intact.
        assert_eq!(edit.pins(0), &[0, 2]);
        edit.commit();
        // The same rules hold for ids tombstoned by an earlier commit.
        let mut edit = m.edit();
        assert_eq!(edit.add_pin(0, 1), Err(MutationError::DeadVertex(1)));
        assert_eq!(edit.remove_pin(1, 0), Err(MutationError::DeadHyperedge(1)));
        assert_eq!(edit.remove_vertex(1), Ok(()));
    }
}
