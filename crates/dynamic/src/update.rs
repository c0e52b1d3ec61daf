//! The update vocabulary of the dynamic layer.

use std::fmt;

use hyperpraw_hypergraph::mutable::MutationError;
use hyperpraw_hypergraph::{HyperedgeId, VertexId};

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
