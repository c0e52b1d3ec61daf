//! # hyperpraw
//!
//! A from-scratch Rust reproduction of **HyperPRAW** — the
//! architecture-aware hypergraph restreaming partitioner of Fernandez
//! Musoles, Coca and Richmond (ICPP 2019) — together with every substrate
//! the paper's evaluation needs: hypergraph data structures and dataset
//! generators, a hierarchical HPC machine model with bandwidth profiling, a
//! discrete-event message-passing simulator standing in for MPI-on-ARCHER,
//! and a multilevel recursive-bisection baseline standing in for Zoltan.
//!
//! This crate is the **one front door** to the workspace: the [`api`]
//! module dispatches every partitioning driver through a single
//! builder-first [`api::PartitionJob`] selected by an [`api::Algorithm`],
//! and every run returns the common [`report::PartitionReport`] (with a
//! dependency-free JSON serialisation). The member crates remain available
//! under stable module names for direct, low-level use.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`api`] / [`report`] | (this crate) | the unified `PartitionJob` front door, `Algorithm` dispatch, `PartitionError`, `PartitionReport` + JSON |
//! | [`hypergraph`] | `hyperpraw-hypergraph` | CSR hypergraphs, builders, generators, IO (including streaming vertex readers), cut metrics |
//! | [`topology`] | `hyperpraw-topology` | machine models, bandwidth matrices, cost matrices |
//! | [`netsim`] | `hyperpraw-netsim` | event-driven network simulator, ring profiler, synthetic benchmark |
//! | [`multilevel`] | `hyperpraw-multilevel` | Zoltan-like multilevel recursive bisection baseline |
//! | [`core`] | `hyperpraw-core` | the HyperPRAW restreaming engine and its thin drivers |
//! | [`lowmem`] | `hyperpraw-lowmem` | memory-bounded one-pass streaming partitioner over on-disk vertex streams, with Bloom/MinHash connectivity sketches |
//! | [`dynamic`] | `hyperpraw-dynamic` | incremental repartitioning: batched graph updates, dirty-set restreaming, migration accounting |
//! | [`storage`] | `hyperpraw-storage` | block-compressed out-of-core CSR (`.hpz`): delta-varint pin blocks, pluggable `ByteSource`s, prefetching chunk reader |
//! | [`telemetry`] | `hyperpraw-telemetry` | zero-dependency metrics: atomic counters/gauges, mergeable log-scaled histograms, span timers, registry with Prometheus exposition (its JSON document is built by [`report`]) |
//! | [`json`] | (this crate) | the one dependency-free JSON value type: parser for the `hyperpraw serve` protocol and writer of every exported document |
//!
//! ## End-to-end flow
//!
//! ```
//! use hyperpraw::prelude::*;
//!
//! // 1. A communication-bound application modelled as a hypergraph.
//! let hg = hyperpraw::hypergraph::generators::mesh_hypergraph(
//!     &hyperpraw::hypergraph::generators::MeshConfig::new(500, 8),
//! );
//!
//! // 2. The machine: 16 cores of an ARCHER-like cluster, profiled.
//! let machine = MachineModel::archer_like(16);
//! let link = LinkModel::from_machine(&machine, 0.05, 7);
//! let bandwidth = RingProfiler::default().profile(&link);
//! let cost = CostMatrix::from_bandwidth(&bandwidth);
//!
//! // 3. Partition with HyperPRAW-aware through the job API.
//! let report = PartitionJob::new(Algorithm::HyperPrawAware)
//!     .cost(cost)
//!     .seed(7)
//!     .run(&hg)
//!     .unwrap();
//! assert_eq!(report.partition.num_parts(), 16);
//!
//! // 4. Run the synthetic benchmark under that placement.
//! let bench = SyntheticBenchmark::new(link, BenchmarkConfig::default());
//! let outcome = bench.run(&hg, &report.partition);
//! assert!(outcome.total_time_us >= 0.0);
//!
//! // 5. Machine-readable results for sweeps.
//! assert!(report.to_json().contains("\"algorithm\": \"hyperpraw-aware\""));
//! ```
//!
//! Swapping the algorithm — `Algorithm::{HyperPrawBasic, LowMemSketched,
//! MultilevelBaseline, ...}` — changes nothing else about the flow, and
//! `.threads(n)` runs HyperPRAW on `n` worker threads; the lowmem
//! variants stream on one thread and additionally accept an on-disk
//! [`hypergraph::io::stream::VertexStream`] through
//! [`api::PartitionJob::run_stream`].
//!
//! For workloads that evolve after the initial placement,
//! [`api::PartitionJob::run_dynamic`] keeps the result resident as an
//! [`api::DynamicSession`]: batched [`dynamic::GraphUpdate`]s mutate the
//! hypergraph in place and restream only the dirty neighbourhood,
//! reporting migration cost through [`report::UpdateReport`]. The same
//! session backs the long-lived `hyperpraw serve` daemon, which speaks
//! newline-delimited JSON (`partition` / `update` / `lookup` / `report` /
//! `shutdown`) over TCP or stdio.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod json;
pub mod report;

pub use hyperpraw_core as core;
pub use hyperpraw_dynamic as dynamic;
pub use hyperpraw_hypergraph as hypergraph;
pub use hyperpraw_lowmem as lowmem;
pub use hyperpraw_multilevel as multilevel;
pub use hyperpraw_netsim as netsim;
pub use hyperpraw_storage as storage;
pub use hyperpraw_telemetry as telemetry;
pub use hyperpraw_topology as topology;

pub use api::{Algorithm, PartitionError, PartitionJob};
pub use report::PartitionReport;

/// The most commonly used types from every layer, re-exported flat.
pub mod prelude {
    pub use crate::api::{Algorithm, DynamicSession, PartitionError, PartitionJob};
    pub use crate::report::{
        EffectiveConfig, LowMemStats, MigrationReport, PartitionReport, PhaseTimings,
        QualityStatus, RecoveryReport, UpdateReport,
    };
    pub use hyperpraw_core::{
        baselines, metrics::partitioning_communication_cost, metrics::QualityReport, CostMatrix,
        HyperPraw, HyperPrawConfig, PartitionResult, RefinementPolicy, StopReason, StreamOrder,
    };
    pub use hyperpraw_dynamic::{
        DynamicConfig, DynamicError, DynamicPartitioner, GraphUpdate, RecoveryStats, StateDir,
        UpdateOutcome,
    };
    pub use hyperpraw_hypergraph::prelude::*;
    pub use hyperpraw_lowmem::{
        IndexKind, LowMemConfig, LowMemPartitioner, LowMemResult, MemoryBudget,
    };
    pub use hyperpraw_multilevel::{recursive_bisection, MultilevelConfig, MultilevelPartitioner};
    pub use hyperpraw_netsim::{
        BenchmarkConfig, BenchmarkResult, LinkModel, RingProfiler, SyntheticBenchmark,
        TrafficMatrix,
    };
    pub use hyperpraw_topology::{BandwidthMatrix, MachineModel};
}
