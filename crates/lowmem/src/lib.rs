//! Memory-bounded one-pass streaming hypergraph partitioning.
//!
//! HyperPRAW (ICPP 2019) restreams with the whole hypergraph resident in
//! RAM as CSR, which caps the workload size at available memory. This
//! crate implements the out-of-core regime explored by the streaming
//! hypergraph partitioning literature (Taşyaran et al., arXiv:2103.05394;
//! HYPE, arXiv:1810.11319) on top of the same architecture-aware value
//! function:
//!
//! * the input is consumed through a
//!   [`hyperpraw_hypergraph::io::stream::VertexStream`] — either an
//!   in-memory adapter or the on-disk transpose readers
//!   ([`hyperpraw_hypergraph::io::stream::stream_hgr_file`] /
//!   `stream_edgelist_file`) that read the input file once and never
//!   materialise CSR,
//! * global connectivity lives in budgeted memory behind the
//!   [`ConnectivityIndex`] trait: per-partition Bloom filters answer "does
//!   this net touch partition j?" and MinHash signatures estimate net-set
//!   similarity ([`SketchIndex`]), with an exact hash-map reference
//!   implementation ([`ExactIndex`]) for validation,
//! * the placement loop itself is `hyperpraw-core`'s generic restreaming
//!   engine ([`hyperpraw_core::engine::Engine`]): this crate only
//!   contributes the [`IndexProvider`] connectivity axis, and the engine
//!   supplies the value function, the α handling, the bounded
//!   low-confidence revisit buffer and out-of-core restreaming passes
//!   ([`LowMemConfig::passes`], with optional sketch rebuilding between
//!   passes to shed staleness), streamed on one thread,
//! * HyperPRAW-aware vs. -basic is again just a [`CostMatrix`] away.
//!
//! Everything is sized from a single [`MemoryBudget`]; peak sketch memory
//! is independent of the hypergraph.
//!
//! ```
//! use hyperpraw_lowmem::{IndexKind, LowMemConfig, LowMemPartitioner, MemoryBudget};
//! use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
//!
//! let hg = mesh_hypergraph(&MeshConfig::new(400, 8));
//! let config = LowMemConfig {
//!     budget: MemoryBudget::mebibytes(4),
//!     index: IndexKind::Sketched,
//!     ..LowMemConfig::default()
//! };
//! let result = LowMemPartitioner::basic(config, 8).partition_hypergraph(&hg);
//! assert_eq!(result.partition.num_parts(), 8);
//! assert!(result.index_memory_bytes <= 4 << 20);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod budget;
mod partitioner;

pub mod index;
pub mod provider;
pub mod quality;
pub mod sketch;

pub use budget::{MemoryBudget, SketchPlan};
pub use index::{ConnectivityIndex, ExactIndex, SketchIndex};
pub use partitioner::{IndexKind, LowMemConfig, LowMemPartitioner, LowMemResult};
pub use provider::IndexProvider;
pub use quality::{
    evaluate_edgelist_file, evaluate_hgr_file, unweighted_imbalance, StreamedQuality,
};

// Re-export so downstream users do not need to depend on the topology
// crate for the common case, mirroring `hyperpraw-core`.
pub use hyperpraw_core::CostMatrix;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::{
        CostMatrix, IndexKind, LowMemConfig, LowMemPartitioner, LowMemResult, MemoryBudget,
        StreamedQuality,
    };
}
