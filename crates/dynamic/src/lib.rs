//! Incremental repartitioning for HyperPRAW.
//!
//! The static drivers answer one question — *given this hypergraph, where
//! does every vertex go?* — and forget everything afterwards. This crate
//! answers the production follow-up: the hypergraph just changed a little,
//! and repartitioning from scratch would both waste work and wreck data
//! locality by moving vertices that had no reason to move.
//!
//! [`DynamicPartitioner`] stays resident. It owns a
//! [`MutableHypergraph`](hyperpraw_hypergraph::MutableHypergraph) with its
//! CSR snapshot, the current assignment with its per-part load
//! accounting, and the assignment's quality state: the exact comm-cost
//! part-pair counts
//! ([`CommCostState`](hyperpraw_core::metrics::CommCostState)) and the
//! connectivity `λ(e)` of every hyperedge. Each call to
//! [`DynamicPartitioner::apply`] takes a batch of [`GraphUpdate`]s and,
//! in work proportional to the batch and its dirty ring rather than to
//! the graph:
//!
//! 1. validates the whole batch against the live graph — a bad update
//!    rejects the batch before anything changes — and applies it in place,
//! 2. splices the touched pin and incidence lists into the CSR snapshot
//!    and moves the touched vertices' rows of the pair counts from the old
//!    graph to the new one (no other row can change),
//! 3. computes the **dirty set** — the touched vertices plus their
//!    distinct-neighbour ring, found by traversal — and restreams *only*
//!    that set through the shared restreaming engine
//!    ([`Engine::run_warm`](hyperpraw_core::engine::Engine::run_warm)),
//!    warm-started from the current assignment under the same α-tempering,
//!    tolerance and comm-cost stopping rules as a cold run; the engine's
//!    provider resumes the resident pair counts, shifts them by every move
//!    and hands them back for the assignment the run returns
//!    ([`AdjProvider::resume`](hyperpraw_core::engine::AdjProvider::resume)),
//! 4. recounts `λ` for the touched hyperedges and those of moved vertices,
//!    and reports what it did as an [`UpdateOutcome`], including the
//!    paper's architecture-aware migration cost: vertices moved and
//!    cost-matrix-weighted bytes moved.
//!
//! Quality is then a read, not a re-evaluation:
//! [`DynamicPartitioner::quality`] gives the comm cost as an O(p²) dot
//! over the pair counts, cut and SOED as one fold over `λ` and the
//! imbalance from the loads — bit-identical to a from-scratch
//! [`QualityReport`](hyperpraw_core::metrics::QualityReport). Debug builds
//! recount all of it after every batch.
//!
//! Untouched vertices are never revisited, so an update batch touching 1%
//! of the graph costs a small fraction of a full repartition (see
//! `benches/dynamic.rs`) while the partition keeps the same quality
//! guarantees on the region that changed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod journal;
mod partitioner;
mod update;

pub use journal::{JournalError, Recovered, RecoveryStats, StateDir};
pub use partitioner::{DynamicConfig, DynamicPartitioner, MigrationStats, UpdateOutcome};
pub use update::{DynamicError, GraphUpdate};
