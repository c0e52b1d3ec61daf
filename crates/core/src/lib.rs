//! HyperPRAW: architecture-aware restreaming hypergraph partitioning.
//!
//! This crate implements the primary contribution of
//! *"HyperPRAW: Architecture-Aware Hypergraph Restreaming Partition to
//! Improve Performance of Parallel Applications Running on High Performance
//! Computing Systems"* (Fernandez Musoles, Coca, Richmond — ICPP 2019):
//!
//! * a **streaming** hypergraph partitioner that assigns one vertex at a
//!   time using only local information (the vertex's neighbourhood, the
//!   current partition loads and a communication-cost matrix),
//! * a **restreaming** driver that repeats the stream, tempering the
//!   workload-imbalance weight `α` FENNEL-style (×1.7 per stream) until the
//!   imbalance tolerance is met,
//! * a **refinement phase** that keeps streaming after the tolerance is met
//!   (optionally relaxing `α` by 0.95 per stream) and stops when the
//!   *partitioning communication cost* stops improving — the paper's third
//!   contribution,
//! * the **architecture-aware** vertex value function
//!   `V_i(v) = −N_i(v)·T_i(v) − α·W(i)/E(i)` where the communication term
//!   `T_i(v)` weighs remote neighbours by the profiled cost matrix `C(i,j)`.
//!
//! The two paper variants are selected by the cost matrix:
//! **HyperPRAW-basic** uses [`CostMatrix::uniform`]
//! (architecture-oblivious), **HyperPRAW-aware** uses a matrix derived from
//! bandwidth profiling ([`CostMatrix::from_bandwidth`]).
//!
//! ## Architecture: one engine, pluggable axes
//!
//! Algorithm 1 is implemented exactly once, by the generic restreaming
//! [`engine`]; every driver is a thin instantiation of it along three
//! orthogonal axes:
//!
//! * **vertex source** ([`engine::VertexSource`]) — where the vertices
//!   come from: an in-memory hypergraph in natural/shuffled/degree order
//!   ([`engine::InMemorySource`]), or any on-disk
//!   `hypergraph::io::stream::VertexStream` via [`engine::StreamSource`];
//! * **connectivity provider** ([`engine::ConnectivityProvider`]) — where
//!   the neighbour-partition counts `X_j(v)` come from: exact part
//!   counts kept for every visited vertex and shifted on every move
//!   ([`engine::AdjProvider`], which finds neighbourhoods by
//!   traversal), or
//!   `hyperpraw-lowmem`'s budget-bounded exact/sketched connectivity
//!   indices;
//! * **execution strategy** ([`engine::ExecutionStrategy`]) — sequential
//!   decisions with fresh information (deterministic), or lock-free work
//!   stealing against live atomic shared state with bounded staleness
//!   (the parallel mode).
//!
//! [`HyperPraw`] is `InMemorySource × AdjProvider` under the sequential
//! strategy by default; [`HyperPraw::with_threads`] swaps in the
//! work-stealing strategy for more than one thread. The
//! `hyperpraw-lowmem` crate instantiates the streamed source with the
//! sketched providers under the sequential strategy, which yields
//! out-of-core partitioning without a second copy of the loop.
//!
//! ```
//! use hyperpraw_core::{HyperPraw, HyperPrawConfig};
//! use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
//! use hyperpraw_topology::{BandwidthMatrix, CostMatrix, MachineModel};
//!
//! let hg = mesh_hypergraph(&MeshConfig::new(600, 8));
//! let machine = MachineModel::archer_like(16);
//! let bandwidth = BandwidthMatrix::from_machine(&machine, 0.05, 1);
//! let cost = CostMatrix::from_bandwidth(&bandwidth);
//!
//! let partitioner = HyperPraw::aware(HyperPrawConfig::default(), cost);
//! let result = partitioner.partition(&hg);
//! assert_eq!(result.partition.num_parts(), 16);
//! assert!(result.partition.imbalance(&hg).unwrap() <= 1.2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod restream;

pub mod baselines;
pub mod engine;
pub mod history;
pub mod metrics;
pub mod value;

pub use config::{HyperPrawConfig, RefinementPolicy, StreamOrder};
pub use history::{IterationRecord, PartitionHistory, StreamPhase};
pub use restream::{HyperPraw, PartitionResult, StopReason};

/// The one parallel schedule, under the name it had when a second,
/// bulk-synchronous schedule existed. The benchmark harness still names
/// it and changes only with the benchmark, which retires it; the thread
/// count alone picks the schedule.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelMode {
    /// Lock-free work stealing, the schedule of every threaded run.
    WorkStealing,
}

// Re-export the cost matrix type so downstream users do not need to depend
// on the topology crate for the common case.
pub use hyperpraw_topology::CostMatrix;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::baselines;
    pub use crate::metrics::{partitioning_communication_cost, QualityReport};
    pub use crate::{
        CostMatrix, HyperPraw, HyperPrawConfig, PartitionResult, RefinementPolicy, StopReason,
        StreamOrder,
    };
}
