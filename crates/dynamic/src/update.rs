//! The update vocabulary of the dynamic layer.

use std::collections::HashSet;
use std::fmt;

use hyperpraw_hypergraph::mutable::MutationError;
use hyperpraw_hypergraph::{HyperedgeId, MutableHypergraph, VertexId};

/// One mutation of the resident hypergraph. Updates are applied in batch
/// order by [`crate::DynamicPartitioner::apply`]; ids follow the
/// tombstone semantics of
/// [`MutableHypergraph`](hyperpraw_hypergraph::MutableHypergraph) —
/// removals keep the id space dense and stable, additions append fresh
/// ids.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphUpdate {
    /// Append a new vertex; its id is reported in
    /// [`crate::UpdateOutcome::new_vertices`].
    AddVertex {
        /// Computational weight of the new vertex.
        weight: f64,
    },
    /// Tombstone a vertex, stripping it from every incident hyperedge.
    RemoveVertex {
        /// The vertex to remove.
        vertex: VertexId,
    },
    /// Append a new hyperedge over the given (live) pins.
    AddHyperedge {
        /// The pin set (deduplicated on application).
        pins: Vec<VertexId>,
        /// Communication weight of the hyperedge.
        weight: f64,
    },
    /// Tombstone a hyperedge, emptying its pin list.
    RemoveHyperedge {
        /// The hyperedge to remove.
        edge: HyperedgeId,
    },
    /// Add a vertex to an existing hyperedge's pin set (no-op when
    /// already present).
    AddPin {
        /// The hyperedge gaining a pin.
        edge: HyperedgeId,
        /// The vertex joining it.
        vertex: VertexId,
    },
    /// Remove a vertex from an existing hyperedge's pin set (no-op when
    /// not present).
    RemovePin {
        /// The hyperedge losing a pin.
        edge: HyperedgeId,
        /// The vertex leaving it.
        vertex: VertexId,
    },
}

/// Why a batch was rejected. Rejected batches are atomic: the partitioner
/// state is exactly what it was before [`crate::DynamicPartitioner::apply`].
#[derive(Clone, Debug, PartialEq)]
pub enum DynamicError {
    /// The partitioner could not be built or driven with these inputs
    /// (mismatched sizes, bad configuration).
    Invalid(String),
    /// An update referenced a missing or tombstoned vertex or hyperedge.
    Mutation(MutationError),
}

impl fmt::Display for DynamicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicError::Invalid(msg) => write!(f, "invalid dynamic-partitioner input: {msg}"),
            DynamicError::Mutation(e) => write!(f, "update rejected: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {}

impl From<MutationError> for DynamicError {
    fn from(e: MutationError) -> Self {
        DynamicError::Mutation(e)
    }
}

/// Checks `updates` against `graph` without mutating it: `Err` carries
/// exactly the error that applying the batch in order would stop at.
/// Tracks the ids the batch itself appends and tombstones, so later
/// updates may name them.
pub(crate) fn validate(
    graph: &MutableHypergraph,
    updates: &[GraphUpdate],
) -> Result<(), MutationError> {
    let mut batch = BatchView {
        graph,
        vertices: graph.num_vertices(),
        edges: graph.num_hyperedges(),
        removed_vertices: HashSet::new(),
        removed_edges: HashSet::new(),
    };
    updates.iter().try_for_each(|update| batch.check(update))
}

/// `graph` as the updates validated so far would leave it: its id counts
/// and the ids they tombstoned.
struct BatchView<'g> {
    graph: &'g MutableHypergraph,
    vertices: usize,
    edges: usize,
    removed_vertices: HashSet<VertexId>,
    removed_edges: HashSet<HyperedgeId>,
}

impl BatchView<'_> {
    fn live_vertex(&self, v: VertexId) -> Result<(), MutationError> {
        if v as usize >= self.vertices {
            Err(MutationError::UnknownVertex(v))
        } else if self.removed_vertices.contains(&v)
            || ((v as usize) < self.graph.num_vertices() && !self.graph.is_vertex_alive(v))
        {
            Err(MutationError::DeadVertex(v))
        } else {
            Ok(())
        }
    }

    fn live_edge(&self, e: HyperedgeId) -> Result<(), MutationError> {
        if e as usize >= self.edges {
            Err(MutationError::UnknownHyperedge(e))
        } else if self.removed_edges.contains(&e)
            || ((e as usize) < self.graph.num_hyperedges() && !self.graph.is_hyperedge_alive(e))
        {
            Err(MutationError::DeadHyperedge(e))
        } else {
            Ok(())
        }
    }

    /// Mirrors the [`MutableHypergraph`] mutation `update` maps to.
    fn check(&mut self, update: &GraphUpdate) -> Result<(), MutationError> {
        match update {
            GraphUpdate::AddVertex { .. } => self.vertices += 1,
            GraphUpdate::RemoveVertex { vertex } => {
                if *vertex as usize >= self.vertices {
                    return Err(MutationError::UnknownVertex(*vertex));
                }
                self.removed_vertices.insert(*vertex);
            }
            GraphUpdate::AddHyperedge { pins, .. } => {
                // The mutation checks the deduplicated pins in ascending
                // order: the smallest bad pin decides the error.
                let first_bad = pins
                    .iter()
                    .filter_map(|&v| self.live_vertex(v).err().map(|e| (v, e)))
                    .min_by_key(|&(v, _)| v);
                if let Some((_, e)) = first_bad {
                    return Err(e);
                }
                self.edges += 1;
            }
            GraphUpdate::RemoveHyperedge { edge } => {
                if *edge as usize >= self.edges {
                    return Err(MutationError::UnknownHyperedge(*edge));
                }
                self.removed_edges.insert(*edge);
            }
            GraphUpdate::AddPin { edge, vertex } => {
                self.live_edge(*edge)?;
                self.live_vertex(*vertex)?;
            }
            GraphUpdate::RemovePin { edge, vertex } => {
                self.live_edge(*edge)?;
                if *vertex as usize >= self.vertices {
                    return Err(MutationError::UnknownVertex(*vertex));
                }
            }
        }
        Ok(())
    }
}
