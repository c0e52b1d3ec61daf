//! Hypergraph data structures, dataset generators, file IO and
//! partition-quality metrics for the HyperPRAW reproduction.
//!
//! A hypergraph `H = (V, E)` generalises a graph: every hyperedge is a set of
//! vertices of arbitrary cardinality. In the HyperPRAW setting (ICPP 2019)
//! hypergraphs model the communication structure of a parallel application:
//! each hyperedge is a group of computation elements (vertices) that
//! frequently exchange data, so the more partitions a hyperedge spans, the
//! more inter-process communication the application performs.
//!
//! The crate provides:
//!
//! * [`Hypergraph`] — an immutable, cache-friendly compressed sparse
//!   representation storing both directions (hyperedge → pins and
//!   vertex → incident hyperedges),
//! * [`HypergraphBuilder`] — an incremental builder,
//! * [`MutableHypergraph`] — a [`Hypergraph`] with per-id liveness flags,
//!   edited in place by batched vertex/hyperedge/pin updates with stable
//!   ids through a [`HypergraphEdit`] overlay, for the dynamic
//!   repartitioning layer,
//! * [`Partition`] — a vertex → partition assignment with load/imbalance
//!   accounting,
//! * [`metrics`] — hyperedge cut, sum of external degrees (SOED),
//!   connectivity-minus-one and related quality metrics,
//! * [`generators`] — synthetic hypergraph families, including
//!   [`generators::suite`] which reproduces the size/cardinality profile of
//!   the ten benchmark hypergraphs used in the paper (Table 1),
//! * [`io`] — hMetis `.hgr`, MatrixMarket `.mtx` and plain edge-list readers
//!   and writers so real datasets can be dropped in.
//!
//! # Quick example
//!
//! ```
//! use hyperpraw_hypergraph::{HypergraphBuilder, Partition, metrics};
//!
//! let mut b = HypergraphBuilder::new(4);
//! b.add_hyperedge([0u32, 1, 2]);
//! b.add_hyperedge([2u32, 3]);
//! let hg = b.build();
//!
//! assert_eq!(hg.num_vertices(), 4);
//! assert_eq!(hg.num_hyperedges(), 2);
//!
//! // Two partitions: {0, 1} and {2, 3}.
//! let part = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
//! assert_eq!(metrics::hyperedge_cut(&hg, &part), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod hypergraph;
mod partition;
mod stats;

pub mod adjacency;
pub mod generators;
pub mod io;
pub mod metrics;
pub mod mutable;
pub mod pool;
pub mod traversal;

pub use adjacency::{AdjacencyBudget, NeighborAdjacency};
pub use builder::HypergraphBuilder;
pub use hypergraph::{HyperedgeId, Hypergraph, VertexId};
pub use mutable::{HypergraphEdit, MutableHypergraph, MutationError};
pub use partition::{load_imbalance, AssignmentRef, Partition, PartitionError};
pub use pool::{run_on_workers, ChunkCursor};
pub use stats::HypergraphStats;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::generators::suite::{PaperInstance, SuiteConfig};
    pub use crate::metrics::{hyperedge_cut, soed};
    pub use crate::{
        Hypergraph, HypergraphBuilder, HypergraphStats, MutableHypergraph, Partition,
        PartitionError,
    };
}
