//! The one front door: a unified, builder-first partitioning API.
//!
//! Every partitioning driver in the workspace — sequential and
//! work-stealing HyperPRAW, the memory-bounded streaming partitioners
//! and the multilevel baseline — is dispatchable through a single
//! [`PartitionJob`], selected by an [`Algorithm`] value. The job validates
//! its inputs up front (returning [`PartitionError::InvalidConfig`]
//! instead of panicking), runs against either an in-memory
//! [`Hypergraph`] or any [`VertexStream`], and always returns the common
//! [`PartitionReport`]. The partitions themselves are **bit-identical**
//! to calling the underlying drivers directly (pinned by
//! `tests/api_equivalence.rs`): the job is a facade over the same thin
//! drivers, not a fifth implementation.
//!
//! ```
//! use hyperpraw::api::{Algorithm, PartitionJob};
//! use hyperpraw::hypergraph::generators::{mesh_hypergraph, MeshConfig};
//!
//! let hg = mesh_hypergraph(&MeshConfig::new(400, 8));
//! let report = PartitionJob::new(Algorithm::HyperPrawBasic)
//!     .partitions(8)
//!     .seed(7)
//!     .run(&hg)
//!     .unwrap();
//! assert_eq!(report.partition.num_parts(), 8);
//! assert!(report.to_json().contains("\"algorithm\": \"hyperpraw-basic\""));
//! ```

use std::fmt;
use std::time::Instant;

use hyperpraw_core::metrics::QualityReport;
use hyperpraw_core::{
    baselines, CostMatrix, HyperPraw, HyperPrawConfig, ParallelMode, PartitionHistory,
    RefinementPolicy, StopReason, StreamOrder,
};
use hyperpraw_dynamic::{DynamicConfig, DynamicError, DynamicPartitioner, GraphUpdate};
use hyperpraw_hypergraph::io::stream::VertexStream;
use hyperpraw_hypergraph::io::IoError;
use hyperpraw_hypergraph::{Hypergraph, Partition, VertexId};
use hyperpraw_lowmem::{
    unweighted_imbalance, IndexKind, LowMemConfig, LowMemPartitioner, LowMemResult, MemoryBudget,
};
use hyperpraw_multilevel::{MultilevelConfig, MultilevelPartitioner};

use hyperpraw_storage::{decode_u64, encode_u64};

use crate::report::{
    EffectiveConfig, LowMemStats, PartitionReport, PhaseTimings, QualityStatus, RecoveryReport,
    UpdateReport,
};

/// Every partitioning algorithm dispatchable through a [`PartitionJob`].
///
/// HyperPRAW is one algorithm: basic and aware differ only in the cost
/// matrix, and the job's [thread count](PartitionJob::threads) picks the
/// schedule (sequential at one thread, work stealing above).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// HyperPRAW restreaming with a uniform cost matrix
    /// (architecture-oblivious).
    HyperPrawBasic,
    /// HyperPRAW restreaming with a profiled cost matrix.
    HyperPrawAware,
    /// Memory-bounded streaming partitioner with the exact (unbounded
    /// memory) connectivity index. Runs in-memory or over a
    /// [`VertexStream`].
    LowMemExact,
    /// Memory-bounded streaming partitioner with Bloom/MinHash sketches
    /// sized by the memory budget. Runs in-memory or over a
    /// [`VertexStream`].
    LowMemSketched,
    /// Multilevel recursive bisection (the Zoltan-like baseline).
    MultilevelBaseline,
    /// Round-robin assignment (the naive baseline).
    RoundRobin,
}

impl Algorithm {
    /// The aware variant under the name it had when the thread count was
    /// also encoded in the algorithm. The benchmark harness still names
    /// it and changes only with the benchmark, which retires it.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const ParallelAware: Algorithm = Algorithm::HyperPrawAware;

    /// Every algorithm, in the order the evaluation tables list them.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::RoundRobin,
            Algorithm::MultilevelBaseline,
            Algorithm::HyperPrawBasic,
            Algorithm::HyperPrawAware,
            Algorithm::LowMemExact,
            Algorithm::LowMemSketched,
        ]
    }

    /// Name as printed in reports, CSVs and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::HyperPrawBasic => "hyperpraw-basic",
            Algorithm::HyperPrawAware => "hyperpraw-aware",
            Algorithm::LowMemExact => "lowmem-exact",
            Algorithm::LowMemSketched => "lowmem-sketched",
            Algorithm::MultilevelBaseline => "multilevel",
            Algorithm::RoundRobin => "round-robin",
        }
    }

    /// The accepted `parse` spellings, for error messages and CLI usage
    /// text — one definition so the two cannot drift apart.
    pub fn expected_names() -> &'static str {
        "aware | basic | parallel[-basic] | lowmem[-exact] | multilevel | round-robin"
    }

    /// Parses the names printed by [`Algorithm::name`] plus the historical
    /// CLI aliases (`aware`, `basic`, `zoltan`, `rr`, ...). The
    /// `parallel[-aware|-basic]` spellings name the restreaming variants:
    /// the thread count, not the name, picks the schedule.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "aware" | "hyperpraw-aware" | "parallel" | "parallel-aware" => {
                Ok(Algorithm::HyperPrawAware)
            }
            "basic" | "hyperpraw-basic" | "parallel-basic" => Ok(Algorithm::HyperPrawBasic),
            "lowmem" | "lowmem-sketched" => Ok(Algorithm::LowMemSketched),
            "lowmem-exact" => Ok(Algorithm::LowMemExact),
            "multilevel" | "zoltan" => Ok(Algorithm::MultilevelBaseline),
            "round-robin" | "rr" => Ok(Algorithm::RoundRobin),
            other => Err(format!(
                "unknown algorithm '{other}' (expected {})",
                Self::expected_names()
            )),
        }
    }

    /// `true` for the HyperPRAW restreaming variants, the algorithms that
    /// run worker threads; [`PartitionJob::threads`] has no effect on the
    /// others.
    pub fn restreams(&self) -> bool {
        matches!(self, Algorithm::HyperPrawBasic | Algorithm::HyperPrawAware)
    }

    /// `true` for the variants that require a profiled cost matrix (the
    /// architecture-aware algorithms).
    pub fn requires_cost_matrix(&self) -> bool {
        *self == Algorithm::HyperPrawAware
    }

    /// `true` for the algorithms that can run over a [`VertexStream`]
    /// without materialising the hypergraph in memory.
    pub fn supports_streams(&self) -> bool {
        matches!(self, Algorithm::LowMemExact | Algorithm::LowMemSketched)
    }
}

impl PartitionJob {
    /// Accepted and ignored: more than one thread always runs work
    /// stealing, the one parallel schedule. The benchmark harness still
    /// calls it and changes only with the benchmark, which retires it.
    #[doc(hidden)]
    pub fn parallel_mode(self, _mode: ParallelMode) -> Self {
        self
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors returned by the job API — the replacement for the drivers' mix
/// of panics and `io::Result`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The job's configuration is invalid (bad parameter ranges, missing
    /// cost matrix, more partitions than vertices, ...).
    InvalidConfig(String),
    /// An IO problem while reading a vertex stream.
    Io(String),
    /// The requested combination is not supported (e.g. streaming an
    /// in-memory-only algorithm).
    Unsupported(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            PartitionError::Io(m) => write!(f, "io error: {m}"),
            PartitionError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<IoError> for PartitionError {
    fn from(e: IoError) -> Self {
        PartitionError::Io(e.to_string())
    }
}

/// A fluent, validated partitioning job.
///
/// Construct with [`PartitionJob::new`], set the shared knobs (partitions
/// or a cost matrix, seed, tolerance, threads, budget, ...) through the
/// builder methods, then [`run`](PartitionJob::run) it on an in-memory
/// hypergraph or [`run_stream`](PartitionJob::run_stream) it over an
/// on-disk vertex stream. Builder setters never panic; all range checking
/// happens in [`validate`](PartitionJob::validate) / the run methods and
/// surfaces as [`PartitionError::InvalidConfig`]. A job runs one driver,
/// so each knob is stored once and the driver's configuration is built
/// from it at dispatch.
#[derive(Clone, Debug)]
pub struct PartitionJob {
    algorithm: Algorithm,
    partitions: Option<u32>,
    cost: Option<CostMatrix>,
    /// The restreaming configuration. Its seed, imbalance tolerance,
    /// iteration cap and initial `α` are the job's for every driver.
    hyperpraw: HyperPrawConfig,
    /// Thread count of the threaded drivers (never `0`:
    /// [`PartitionJob::threads`] resolves it).
    threads: usize,
    /// The lowmem-only knobs (budget, restream capacity, prior, sketch
    /// rebuilds); [`PartitionJob::lowmem_driver`] fills in the rest.
    lowmem: LowMemConfig,
    prefetch: bool,
    registry: hyperpraw_telemetry::Registry,
}

impl PartitionJob {
    /// Creates a job for `algorithm` on one thread, with every other knob
    /// at its driver's default.
    pub fn new(algorithm: Algorithm) -> Self {
        let job = Self {
            algorithm,
            partitions: None,
            cost: None,
            hyperpraw: HyperPrawConfig::default(),
            threads: 1,
            lowmem: LowMemConfig::default(),
            prefetch: true,
            registry: hyperpraw_telemetry::Registry::disabled(),
        };
        if algorithm.supports_streams() {
            // The lowmem drivers keep their own defaults: one pass.
            return job.lowmem_config(LowMemConfig::default());
        }
        job
    }

    /// The algorithm this job dispatches to.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Sets the number of partitions (compute units). Redundant — but
    /// cross-checked — when a cost matrix is supplied.
    pub fn partitions(mut self, p: u32) -> Self {
        self.partitions = Some(p);
        self
    }

    /// Supplies the communication-cost matrix. Required by the
    /// architecture-aware algorithms (which partition *with* it); the
    /// oblivious algorithms ignore it for partitioning but evaluate the
    /// report's `comm_cost` against it, the way the paper's Figure 4C
    /// scores every strategy on the real machine. Implies the partition
    /// count when [`PartitionJob::partitions`] is not called.
    pub fn cost(mut self, cost: CostMatrix) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.hyperpraw.seed = seed;
        self
    }

    /// Sets the imbalance tolerance of the restreaming and multilevel
    /// drivers.
    pub fn imbalance_tolerance(mut self, tol: f64) -> Self {
        self.hyperpraw.imbalance_tolerance = tol;
        self
    }

    /// Sets the refinement policy (HyperPRAW drivers).
    pub fn refinement(mut self, refinement: RefinementPolicy) -> Self {
        self.hyperpraw.refinement = refinement;
        self
    }

    /// Sets the maximum number of streams/passes.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.hyperpraw.max_iterations = n;
        self
    }

    /// Sets the vertex visit order (in-memory HyperPRAW drivers).
    pub fn stream_order(mut self, order: StreamOrder) -> Self {
        self.hyperpraw.stream_order = order;
        self
    }

    /// Pins the initial `α` instead of the FENNEL-derived default.
    pub fn initial_alpha(mut self, alpha: f64) -> Self {
        self.hyperpraw.initial_alpha = Some(alpha);
        self
    }

    /// Enables or disables per-stream history tracking.
    pub fn track_history(mut self, track: bool) -> Self {
        self.hyperpraw.track_history = track;
        self
    }

    /// Sets the worker-thread count of the restreaming drivers, which
    /// picks their schedule: one thread (the default)
    /// streams sequentially and deterministically, more run lock-free
    /// work stealing, valid but not bit-reproducible. `0` auto-detects
    /// the machine's available parallelism
    /// ([`std::thread::available_parallelism`], falling back to 1 when the
    /// platform cannot report one); the resolved count is what the
    /// report's [`EffectiveConfig::threads`] records.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        self
    }

    /// Sets the memory budget of the lowmem drivers.
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.lowmem.budget = budget;
        self
    }

    /// Sets the number of streaming passes of the lowmem drivers — the
    /// same knob as [`max_iterations`](PartitionJob::max_iterations).
    pub fn passes(self, passes: usize) -> Self {
        self.max_iterations(passes)
    }

    /// Rebuild sketches between lowmem passes to shed staleness.
    pub fn rebuild_sketches(mut self, rebuild: bool) -> Self {
        self.lowmem.rebuild_sketches = rebuild;
        self
    }

    /// Sets the lowmem low-confidence revisit capacity (`None` derives it
    /// from the budget).
    pub fn restream_capacity(mut self, capacity: Option<usize>) -> Self {
        self.lowmem.restream_capacity = capacity;
        self
    }

    /// Replaces the full HyperPRAW configuration, the seed, tolerance,
    /// iteration cap and initial `α` it holds included.
    pub fn hyperpraw_config(mut self, config: HyperPrawConfig) -> Self {
        self.hyperpraw = config;
        self
    }

    /// Replaces the full lowmem configuration, its seed, `α` and pass
    /// count included (the job still overrides `index` from the
    /// [`Algorithm`] variant at dispatch).
    pub fn lowmem_config(mut self, config: LowMemConfig) -> Self {
        self.hyperpraw.seed = config.seed;
        self.hyperpraw.initial_alpha = config.alpha;
        self.hyperpraw.max_iterations = config.passes;
        self.lowmem = config;
        self
    }

    /// Binds the job's instrumentation to `registry`
    /// ([`hyperpraw_telemetry::Registry`]): the engine's per-pass
    /// metrics (`engine.*`), compressed-storage counters (`storage.*`)
    /// on [`run_compressed_file`](PartitionJob::run_compressed_file),
    /// and — through [`PartitionJob::run_dynamic`] — the dynamic
    /// partitioner's batch metrics (`dynamic.*`). Recording is
    /// observation-only: partitions are bit-identical with or without a
    /// live registry (the default,
    /// [`hyperpraw_telemetry::Registry::disabled`], keeps every hot
    /// path free of work).
    pub fn registry(mut self, registry: &hyperpraw_telemetry::Registry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// Enables or disables background block prefetch when the job runs
    /// over a compressed file
    /// ([`run_compressed_file`](PartitionJob::run_compressed_file)).
    /// On by default: a worker thread decodes block N+1 while the engine
    /// consumes block N. Disable to decode synchronously on the engine
    /// thread (same results bit for bit — useful for debugging and for
    /// measuring the overlap win).
    pub fn prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Validates the job without running it: partition count resolvable
    /// and consistent with the cost matrix, cost matrix present for the
    /// aware algorithms, and the dispatched driver's configuration within
    /// range. A thread count of `0` is not an error — it resolves to the
    /// machine's available parallelism (see [`PartitionJob::threads`]).
    pub fn validate(&self) -> Result<(), PartitionError> {
        self.resolved_partitions()?;
        if self.algorithm.requires_cost_matrix() && self.cost.is_none() {
            return Err(PartitionError::InvalidConfig(format!(
                "{} requires a profiled cost matrix; call .cost(..) or use the basic variant",
                self.algorithm
            )));
        }
        let invalid = PartitionError::InvalidConfig;
        match self.algorithm {
            Algorithm::HyperPrawBasic | Algorithm::HyperPrawAware => {
                self.hyperpraw.validate().map_err(invalid)
            }
            Algorithm::LowMemExact | Algorithm::LowMemSketched => {
                self.lowmem_driver().validate().map_err(invalid)
            }
            Algorithm::MultilevelBaseline => self.multilevel_driver().validate().map_err(invalid),
            Algorithm::RoundRobin => Ok(()),
        }
    }

    /// Runs the job on an in-memory hypergraph.
    pub fn run(&self, hg: &Hypergraph) -> Result<PartitionReport, PartitionError> {
        self.validate()?;
        let p = self.resolved_partitions()?;
        self.check_vertex_count(hg.num_vertices(), p)?;

        let started = Instant::now();
        let (partition, summary) = match self.algorithm {
            Algorithm::HyperPrawBasic | Algorithm::HyperPrawAware => {
                let result = HyperPraw::new(self.hyperpraw, self.driver_cost(p))
                    .with_threads(self.threads)
                    .with_registry(&self.registry)
                    .partition(hg);
                let summary = RunSummary {
                    history: result.history,
                    stop_reason: Some(result.stop_reason),
                    iterations: result.iterations,
                    final_alpha: Some(result.final_alpha),
                    lowmem: None,
                };
                (result.partition, summary)
            }
            Algorithm::LowMemExact | Algorithm::LowMemSketched => {
                let result = LowMemPartitioner::new(self.lowmem_driver(), self.driver_cost(p))
                    .partition_hypergraph(hg);
                let summary = RunSummary::lowmem(&result);
                (result.partition, summary)
            }
            Algorithm::MultilevelBaseline => (
                MultilevelPartitioner::new(self.multilevel_driver()).partition(hg, p),
                RunSummary::one_shot(),
            ),
            Algorithm::RoundRobin => (baselines::round_robin(hg, p), RunSummary::one_shot()),
        };
        let partition_secs = started.elapsed().as_secs_f64();

        let evaluating = Instant::now();
        let quality = QualityReport::compute(hg, &partition, &self.eval_cost(p));
        let timings = PhaseTimings {
            partition_secs,
            evaluate_secs: evaluating.elapsed().as_secs_f64(),
        };
        Ok(self.report(partition, summary, Some(quality), timings))
    }

    /// Runs the job over a vertex stream without materialising the
    /// hypergraph — only the lowmem algorithms support this; everything
    /// else returns [`PartitionError::Unsupported`].
    ///
    /// The report's cut metrics are `None` (a pure stream run cannot
    /// afford them) and its imbalance is unweighted; callers that re-read
    /// the input file edge-major can fill both in through
    /// [`PartitionReport::attach_streamed_quality`].
    pub fn run_stream<S: VertexStream>(
        &self,
        stream: &mut S,
    ) -> Result<PartitionReport, PartitionError> {
        if !self.algorithm.supports_streams() {
            return Err(PartitionError::Unsupported(format!(
                "{} cannot run from a vertex stream; load the hypergraph in memory instead",
                self.algorithm
            )));
        }
        self.validate()?;
        let p = self.resolved_partitions()?;
        self.check_vertex_count(stream.num_vertices(), p)?;

        let started = Instant::now();
        let result = LowMemPartitioner::new(self.lowmem_driver(), self.driver_cost(p))
            .partition(stream)
            .map_err(PartitionError::from)?;
        let timings = PhaseTimings {
            partition_secs: started.elapsed().as_secs_f64(),
            evaluate_secs: 0.0,
        };
        let summary = RunSummary::lowmem(&result);
        Ok(self.report(result.partition, summary, None, timings))
    }

    /// Runs the job over a block-compressed CSR file (the `.hpz` format
    /// of `hyperpraw-storage`, produced by `hyperpraw convert`) without
    /// materialising the hypergraph. Only the lowmem algorithms support
    /// streaming; see [`run_stream`](PartitionJob::run_stream) for the
    /// quality-reporting contract. Honours the
    /// [`prefetch`](PartitionJob::prefetch) knob: by default a background
    /// thread decodes the next block while the engine consumes the
    /// current one.
    pub fn run_compressed_file(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<PartitionReport, PartitionError> {
        // A small read-through chunk cache fronts the file: restreaming
        // passes re-read the same blocks, and the cache's hit/miss
        // counters land in the registry as `storage.cache.*`.
        let source = hyperpraw_storage::FileSource::open(path)
            .map_err(|e| PartitionError::Io(e.to_string()))?;
        let cached = hyperpraw_storage::CachingSource::new(
            source,
            u64::from(hyperpraw_storage::DEFAULT_BLOCK_TARGET_BYTES),
            16,
        )
        .with_registry(&self.registry);
        let reader = hyperpraw_storage::CompressedReader::open(cached)
            .map_err(|e| PartitionError::Io(e.to_string()))?
            .with_registry(&self.registry);
        let mode = if self.prefetch {
            hyperpraw_storage::ReadMode::Prefetch
        } else {
            hyperpraw_storage::ReadMode::Sync
        };
        let mut stream = reader.stream(mode);
        self.run_stream(&mut stream)
    }

    /// Runs the job once on `hg`, then keeps the result live as a
    /// [`DynamicSession`] that absorbs [`GraphUpdate`] batches by
    /// restreaming only the dirty region (the `hyperpraw-dynamic` crate).
    /// Only restreaming on one thread can warm-start the engine, so every
    /// other [`Algorithm`], and a thread count above one, returns
    /// [`PartitionError::Unsupported`].
    pub fn run_dynamic(&self, hg: &Hypergraph) -> Result<DynamicSession, PartitionError> {
        let threads = self.threads;
        if !self.algorithm.restreams() || threads > 1 {
            return Err(PartitionError::Unsupported(format!(
                "{} on {threads} thread(s) cannot drive a dynamic session; \
                 use hyperpraw-basic or hyperpraw-aware on one thread",
                self.algorithm
            )));
        }
        let initial = self.run(hg)?;
        let p = self.resolved_partitions()?;
        let cfg = DynamicConfig {
            config: self.hyperpraw,
        };
        let mut partitioner =
            DynamicPartitioner::new(hg, initial.partition.clone(), self.driver_cost(p), cfg)
                .map_err(|e| PartitionError::InvalidConfig(e.to_string()))?;
        partitioner.set_registry(&self.registry);
        Ok(DynamicSession {
            partitioner,
            job: self.clone(),
            initial,
            recovery: None,
        })
    }

    /// The partition count this job resolves to: the explicit count, the
    /// cost matrix's unit count, or an error when neither is available or
    /// the two disagree.
    pub fn resolved_partitions(&self) -> Result<u32, PartitionError> {
        match (self.partitions, &self.cost) {
            (Some(p), Some(c)) if p as usize != c.num_units() => {
                Err(PartitionError::InvalidConfig(format!(
                    "partitions({p}) disagrees with the {}-unit cost matrix",
                    c.num_units()
                )))
            }
            (Some(0), _) => Err(PartitionError::InvalidConfig(
                "need at least one partition".into(),
            )),
            (Some(p), _) => Ok(p),
            (None, Some(c)) if c.num_units() > 0 => Ok(c.num_units() as u32),
            (None, Some(_)) => Err(PartitionError::InvalidConfig(
                "the cost matrix covers zero units".into(),
            )),
            (None, None) => Err(PartitionError::InvalidConfig(
                "number of partitions not set; call .partitions(p) or .cost(matrix)".into(),
            )),
        }
    }

    fn check_vertex_count(&self, num_vertices: usize, p: u32) -> Result<(), PartitionError> {
        if (p as usize) > num_vertices {
            return Err(PartitionError::InvalidConfig(format!(
                "cannot split {num_vertices} vertices into {p} parts"
            )));
        }
        Ok(())
    }

    /// The lowmem configuration the dispatched driver runs: the job's
    /// lowmem-only knobs, the index kind the [`Algorithm`] variant
    /// selects, and the job's seed, `α` and pass count.
    fn lowmem_driver(&self) -> LowMemConfig {
        LowMemConfig {
            index: match self.algorithm {
                Algorithm::LowMemExact => IndexKind::Exact,
                _ => IndexKind::Sketched,
            },
            alpha: self.hyperpraw.initial_alpha,
            passes: self.hyperpraw.max_iterations,
            seed: self.hyperpraw.seed,
            ..self.lowmem.clone()
        }
    }

    /// The multilevel configuration: the crate defaults with the job's
    /// seed and imbalance tolerance.
    fn multilevel_driver(&self) -> MultilevelConfig {
        MultilevelConfig {
            imbalance_tolerance: self.hyperpraw.imbalance_tolerance,
            seed: self.hyperpraw.seed,
            ..MultilevelConfig::default()
        }
    }

    /// The cost matrix handed to the dispatched driver: uniform for
    /// HyperPRAW-basic, otherwise the profiled matrix when there is one
    /// (the lowmem drivers are architecture-aware whenever a matrix is
    /// supplied).
    fn driver_cost(&self, p: u32) -> CostMatrix {
        match self.algorithm {
            Algorithm::HyperPrawBasic => CostMatrix::uniform(p as usize),
            _ => self.eval_cost(p),
        }
    }

    /// The cost matrix the report's `comm_cost` is evaluated against: the
    /// supplied (architecture) matrix when there is one — every algorithm
    /// is scored on the same machine, as in the paper's Figure 4C —
    /// uniform otherwise.
    fn eval_cost(&self, p: u32) -> CostMatrix {
        self.cost
            .clone()
            .unwrap_or_else(|| CostMatrix::uniform(p as usize))
    }

    /// The one report assembly: the driver's `partition` and `summary`,
    /// with `quality` evaluated in memory, or deferred when `None` (a pure
    /// stream run reports only the unweighted imbalance).
    fn report(
        &self,
        partition: Partition,
        summary: RunSummary,
        quality: Option<QualityReport>,
        timings: PhaseTimings,
    ) -> PartitionReport {
        let p = partition.num_parts();
        PartitionReport {
            algorithm: self.algorithm,
            imbalance: quality.map_or_else(|| unweighted_imbalance(&partition), |q| q.imbalance),
            partition,
            history: summary.history,
            stop_reason: summary.stop_reason,
            iterations: summary.iterations,
            final_alpha: summary.final_alpha,
            comm_cost: quality.map(|q| q.comm_cost),
            hyperedge_cut: quality.map(|q| q.hyperedge_cut),
            soed: quality.map(|q| q.soed),
            quality: match quality {
                Some(_) => QualityStatus::Evaluated,
                None => QualityStatus::Deferred,
            },
            timings,
            telemetry: self.registry.clone(),
            config: self.effective_config(p),
            lowmem: summary.lowmem,
        }
    }

    /// The report of a dynamic session's current state, its quality read
    /// from the partitioner's resident state under this job's cost matrix.
    fn session_report(
        &self,
        partitioner: &DynamicPartitioner,
        summary: RunSummary,
        partition_secs: f64,
    ) -> PartitionReport {
        let partition = partitioner.partition().clone();
        let evaluating = Instant::now();
        let quality = partitioner.quality(&self.eval_cost(partition.num_parts()));
        let timings = PhaseTimings {
            partition_secs,
            evaluate_secs: evaluating.elapsed().as_secs_f64(),
        };
        self.report(partition, summary, Some(quality), timings)
    }

    fn effective_config(&self, p: u32) -> EffectiveConfig {
        let restreaming = self.algorithm.restreams();
        let lowmem = self.algorithm.supports_streams();
        let config = &self.hyperpraw;
        let threads = if restreaming { self.threads } else { 1 };
        EffectiveConfig {
            partitions: p,
            seed: config.seed,
            architecture_aware: match self.algorithm {
                Algorithm::HyperPrawAware => true,
                Algorithm::LowMemExact | Algorithm::LowMemSketched => {
                    self.cost.as_ref().is_some_and(|c| !c.is_uniform())
                }
                _ => false,
            },
            imbalance_tolerance: (restreaming || self.algorithm == Algorithm::MultilevelBaseline)
                .then_some(config.imbalance_tolerance),
            max_iterations: (restreaming || lowmem).then_some(config.max_iterations),
            tempering_factor: restreaming.then_some(config.tempering_factor),
            refinement_factor: match config.refinement {
                RefinementPolicy::Factor(f) if restreaming => Some(f),
                _ => None,
            },
            initial_alpha: config.initial_alpha.filter(|_| restreaming || lowmem),
            stream_order: restreaming.then(|| config.stream_order.name()),
            threads,
            index: lowmem.then(|| self.lowmem_driver().index.name()),
            budget_bytes: lowmem.then_some(self.lowmem.budget.bytes),
            rebuild_sketches: lowmem.then_some(self.lowmem.rebuild_sketches),
        }
    }
}

/// What a report carries over from a driver run besides the partition.
/// The default reports no run at all: a resumed or queried session.
#[derive(Default)]
struct RunSummary {
    history: PartitionHistory,
    stop_reason: Option<StopReason>,
    iterations: usize,
    final_alpha: Option<f64>,
    lowmem: Option<LowMemStats>,
}

impl RunSummary {
    /// A one-shot baseline's run: one iteration and nothing else.
    fn one_shot() -> Self {
        Self {
            iterations: 1,
            ..Self::default()
        }
    }

    fn lowmem(result: &LowMemResult) -> Self {
        Self {
            iterations: result.passes,
            final_alpha: Some(result.alpha),
            lowmem: Some(result.into()),
            ..Self::default()
        }
    }
}

/// A resident partitioning session: the live state behind
/// [`PartitionJob::run_dynamic`] and the `hyperpraw serve` daemon.
///
/// The session owns a [`DynamicPartitioner`] (mutable hypergraph,
/// assignment, load counters and resident quality state) plus the job
/// that spawned it, so every [`update`](DynamicSession::update) reports
/// quality under the same cost matrix and through the same
/// [`UpdateReport`] JSON machinery as a one-shot run.
#[derive(Clone, Debug)]
pub struct DynamicSession {
    partitioner: DynamicPartitioner,
    job: PartitionJob,
    initial: PartitionReport,
    recovery: Option<RecoveryReport>,
}

/// Version byte opening a [`DynamicSession::session_meta`] blob.
const SESSION_META_VERSION: u8 = 1;

impl DynamicSession {
    /// The report from the initial (cold) run that seeded this session.
    pub fn initial_report(&self) -> &PartitionReport {
        &self.initial
    }

    /// How this session was recovered from disk, when it was (`None` for
    /// sessions started fresh by [`PartitionJob::run_dynamic`]).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The underlying partitioner — what the serve daemon hands to
    /// [`hyperpraw_dynamic::StateDir::write_snapshot`].
    pub fn partitioner(&self) -> &DynamicPartitioner {
        &self.partitioner
    }

    /// Binds the session's instrumentation to `registry`: the dynamic
    /// partitioner's batch metrics (`dynamic.*`) plus the `engine.*`
    /// metrics of every dirty-set restream it runs. The serve daemon
    /// calls this on sessions recovered from disk (fresh sessions inherit
    /// the registry from [`PartitionJob::registry`]).
    pub fn set_registry(&mut self, registry: &hyperpraw_telemetry::Registry) {
        self.partitioner.set_registry(registry);
        self.job.registry = registry.clone();
    }

    /// Serialises the job-level configuration a snapshot cannot derive
    /// from the partitioner — the algorithm variant and the evaluation
    /// cost matrix — as the opaque meta blob stored alongside it.
    /// [`DynamicSession::resume`] inverts this.
    pub fn session_meta(&self) -> Vec<u8> {
        let mut out = vec![SESSION_META_VERSION];
        // run_dynamic admits only the two sequential restreaming
        // variants; anything else cannot have built a session.
        out.push(match self.job.algorithm {
            Algorithm::HyperPrawAware => 1,
            _ => 0,
        });
        match &self.job.cost {
            None => out.push(0),
            Some(cost) => {
                out.push(1);
                let units = cost.num_units();
                encode_u64(units as u64, &mut out);
                for i in 0..units {
                    for j in 0..units {
                        out.extend_from_slice(&cost.get(i, j).to_bits().to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Rebuilds a session from a recovered partitioner plus the meta
    /// blob written by [`DynamicSession::session_meta`]. The initial
    /// report is re-evaluated from the recovered state; `recovery`
    /// carries the journal-replay stats into
    /// [`DynamicSession::report`] consumers.
    pub fn resume(
        meta: &[u8],
        partitioner: DynamicPartitioner,
        recovery: Option<RecoveryReport>,
    ) -> Result<Self, PartitionError> {
        let bad = |msg: &str| PartitionError::InvalidConfig(format!("session meta: {msg}"));
        let mut pos = 0usize;
        let byte = |pos: &mut usize| -> Result<u8, PartitionError> {
            let b = *meta.get(*pos).ok_or_else(|| bad("truncated"))?;
            *pos += 1;
            Ok(b)
        };
        if byte(&mut pos)? != SESSION_META_VERSION {
            return Err(bad("unsupported version"));
        }
        let algorithm = match byte(&mut pos)? {
            0 => Algorithm::HyperPrawBasic,
            1 => Algorithm::HyperPrawAware,
            _ => return Err(bad("unknown algorithm tag")),
        };
        let p = partitioner.partition().num_parts();
        let cost = match byte(&mut pos)? {
            0 => None,
            1 => {
                let units = decode_u64(meta, &mut pos).ok_or_else(|| bad("truncated"))? as usize;
                if units != p as usize {
                    return Err(bad(&format!(
                        "cost matrix covers {units} units but the partition has {p} parts"
                    )));
                }
                let mut data = Vec::with_capacity(units * units);
                for _ in 0..units * units {
                    let end = pos + 8;
                    let bytes = meta.get(pos..end).ok_or_else(|| bad("truncated"))?;
                    pos = end;
                    let c = f64::from_bits(u64::from_le_bytes(bytes.try_into().unwrap()));
                    if !c.is_finite() || c < 0.0 {
                        return Err(bad("non-finite or negative comm cost"));
                    }
                    data.push(c);
                }
                Some(CostMatrix::from_raw(units, data))
            }
            _ => return Err(bad("unknown cost tag")),
        };
        if pos != meta.len() {
            return Err(bad("trailing bytes"));
        }
        if algorithm.requires_cost_matrix() && cost.is_none() {
            return Err(bad("architecture-aware session without a cost matrix"));
        }

        let mut job = PartitionJob::new(algorithm)
            .partitions(p)
            .hyperpraw_config(partitioner.config().config);
        job.cost = cost;
        let initial = job.session_report(&partitioner, RunSummary::default(), 0.0);
        Ok(Self {
            partitioner,
            job,
            initial,
            recovery,
        })
    }

    /// The current assignment.
    pub fn partition(&self) -> &Partition {
        self.partitioner.partition()
    }

    /// The current hypergraph snapshot (tombstoned ids appear as isolated
    /// zero-weight vertices / empty hyperedges).
    pub fn hypergraph(&self) -> &Hypergraph {
        self.partitioner.hypergraph()
    }

    /// The partition currently holding `vertex`, or `None` when the id is
    /// out of range or tombstoned.
    pub fn lookup(&self, vertex: VertexId) -> Option<u32> {
        self.partitioner.lookup(vertex)
    }

    /// Applies one batch of updates atomically and restreams the dirty
    /// set; on error the session is unchanged.
    pub fn update(&mut self, updates: &[GraphUpdate]) -> Result<UpdateReport, PartitionError> {
        let started = Instant::now();
        let outcome = self.partitioner.apply(updates).map_err(|e| match e {
            DynamicError::Invalid(msg) => PartitionError::InvalidConfig(msg),
            DynamicError::Mutation(m) => PartitionError::InvalidConfig(m.to_string()),
        })?;
        let partition_secs = started.elapsed().as_secs_f64();
        let summary = RunSummary {
            history: outcome.history,
            stop_reason: outcome.stop_reason,
            iterations: outcome.iterations,
            final_alpha: outcome.final_alpha,
            lowmem: None,
        };
        Ok(UpdateReport {
            report: self
                .job
                .session_report(&self.partitioner, summary, partition_secs),
            new_vertices: outcome.new_vertices,
            dirty_vertices: outcome.dirty_vertices,
            migration: outcome.migration,
        })
    }

    /// A fresh [`PartitionReport`] for the session's current state (the
    /// serve daemon's `report` op). Quality is read from the partitioner's
    /// resident state — bit-identical to a re-evaluation, without one.
    pub fn report(&self) -> PartitionReport {
        self.job
            .session_report(&self.partitioner, RunSummary::default(), 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};

    #[test]
    fn names_round_trip_through_parse() {
        for algorithm in Algorithm::all() {
            assert_eq!(Algorithm::parse(algorithm.name()).unwrap(), algorithm);
        }
        assert_eq!(
            Algorithm::parse("zoltan").unwrap(),
            Algorithm::MultilevelBaseline
        );
        assert_eq!(Algorithm::parse("rr").unwrap(), Algorithm::RoundRobin);
        assert!(Algorithm::parse("quantum").is_err());
    }

    #[test]
    fn missing_partition_count_is_rejected_up_front() {
        let err = PartitionJob::new(Algorithm::HyperPrawBasic)
            .validate()
            .unwrap_err();
        assert!(matches!(err, PartitionError::InvalidConfig(_)));
    }

    #[test]
    fn cost_matrix_mismatch_is_rejected() {
        let err = PartitionJob::new(Algorithm::HyperPrawAware)
            .partitions(8)
            .cost(CostMatrix::uniform(4))
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("disagrees"));
    }

    #[test]
    fn aware_without_cost_matrix_is_rejected() {
        let err = PartitionJob::new(Algorithm::HyperPrawAware)
            .partitions(8)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("cost matrix"));
    }

    #[test]
    fn invalid_driver_configs_error_instead_of_panicking() {
        let hg = mesh_hypergraph(&MeshConfig::new(50, 4));
        // tempering_factor <= 1.0
        let bad = HyperPrawConfig {
            tempering_factor: 0.9,
            ..HyperPrawConfig::default()
        };
        assert!(matches!(
            PartitionJob::new(Algorithm::HyperPrawBasic)
                .partitions(4)
                .hyperpraw_config(bad)
                .run(&hg),
            Err(PartitionError::InvalidConfig(_))
        ));
        // imbalance tolerance < 1.0
        assert!(matches!(
            PartitionJob::new(Algorithm::HyperPrawBasic)
                .partitions(4)
                .imbalance_tolerance(0.5)
                .run(&hg),
            Err(PartitionError::InvalidConfig(_))
        ));
        // a NaN tolerance, which every `<` comparison lets through
        for algorithm in [Algorithm::HyperPrawBasic, Algorithm::MultilevelBaseline] {
            assert!(matches!(
                PartitionJob::new(algorithm)
                    .partitions(4)
                    .imbalance_tolerance(f64::NAN)
                    .run(&hg),
                Err(PartitionError::InvalidConfig(_))
            ));
        }
        // max_iterations = 0
        assert!(matches!(
            PartitionJob::new(Algorithm::HyperPrawBasic)
                .partitions(4)
                .max_iterations(0)
                .run(&hg),
            Err(PartitionError::InvalidConfig(_))
        ));
        // zero lowmem passes
        assert!(matches!(
            PartitionJob::new(Algorithm::LowMemSketched)
                .partitions(4)
                .passes(0)
                .run(&hg),
            Err(PartitionError::InvalidConfig(_))
        ));
        // p = 0
        assert!(matches!(
            PartitionJob::new(Algorithm::RoundRobin)
                .partitions(0)
                .run(&hg),
            Err(PartitionError::InvalidConfig(_))
        ));
        // more parts than vertices
        assert!(matches!(
            PartitionJob::new(Algorithm::RoundRobin)
                .partitions(100)
                .run(&hg),
            Err(PartitionError::InvalidConfig(_))
        ));
    }

    #[test]
    fn streaming_an_in_memory_algorithm_is_unsupported() {
        let hg = mesh_hypergraph(&MeshConfig::new(50, 4));
        let mut stream = hyperpraw_hypergraph::io::stream::InMemoryVertexStream::new(&hg);
        let err = PartitionJob::new(Algorithm::MultilevelBaseline)
            .partitions(4)
            .run_stream(&mut stream)
            .unwrap_err();
        assert!(matches!(err, PartitionError::Unsupported(_)));
    }

    #[test]
    fn every_algorithm_runs_in_memory_and_reports_metrics() {
        let hg = mesh_hypergraph(&MeshConfig::new(200, 6));
        let cost = CostMatrix::uniform(4);
        for algorithm in Algorithm::all() {
            let report = PartitionJob::new(algorithm)
                .cost(cost.clone())
                .seed(1)
                .run(&hg)
                .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            assert_eq!(report.partition.num_parts(), 4, "{algorithm}");
            assert_eq!(report.partition.num_vertices(), 200, "{algorithm}");
            assert!(report.imbalance.is_finite(), "{algorithm}");
            assert!(report.comm_cost.is_some(), "{algorithm}");
            assert!(report.hyperedge_cut.is_some(), "{algorithm}");
            assert!(report.iterations >= 1, "{algorithm}");
            assert_eq!(report.config.partitions, 4, "{algorithm}");
        }
    }

    #[test]
    fn zero_threads_auto_detects_the_machine_parallelism() {
        // lowmem streams on one thread whatever the job's count.
        let hg = mesh_hypergraph(&MeshConfig::new(200, 6));
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (algorithm, threads) in [
            (Algorithm::HyperPrawBasic, auto),
            (Algorithm::LowMemSketched, 1),
        ] {
            let job = PartitionJob::new(algorithm).partitions(4).threads(0);
            job.validate().unwrap();
            let report = job.run(&hg).unwrap();
            assert_eq!(report.config.threads, threads, "{algorithm}");
            assert_eq!(report.partition.num_parts(), 4, "{algorithm}");
        }
    }

    #[test]
    fn threads_land_in_the_effective_config_and_json() {
        // The thread count alone names the schedule: the report carries
        // it and no schedule keys.
        let hg = mesh_hypergraph(&MeshConfig::new(200, 6));
        let steal = PartitionJob::new(Algorithm::HyperPrawBasic)
            .partitions(4)
            .threads(2)
            .run(&hg)
            .unwrap();
        assert_eq!(steal.config.threads, 2);
        let json = steal.to_json();
        assert!(json.contains("\"threads\": 2"), "{json}");
        assert!(!json.contains("parallel_mode"), "{json}");
        assert_eq!(steal.partition.num_parts(), 4);

        let sequential = PartitionJob::new(Algorithm::HyperPrawBasic)
            .partitions(4)
            .run(&hg)
            .unwrap();
        assert_eq!(sequential.config.threads, 1);
    }

    #[test]
    fn partition_count_resolves_from_the_cost_matrix() {
        let job = PartitionJob::new(Algorithm::HyperPrawBasic).cost(CostMatrix::uniform(6));
        assert_eq!(job.resolved_partitions().unwrap(), 6);
    }

    #[test]
    fn dynamic_sessions_partition_update_and_lookup() {
        let hg = mesh_hypergraph(&MeshConfig::new(300, 8));
        let mut session = PartitionJob::new(Algorithm::HyperPrawBasic)
            .partitions(4)
            .seed(11)
            .run_dynamic(&hg)
            .unwrap();
        assert_eq!(session.initial_report().partition.num_vertices(), 300);
        assert_eq!(session.lookup(0), Some(session.partition().part_of(0)));

        let update = session
            .update(&[
                GraphUpdate::AddVertex { weight: 1.0 },
                GraphUpdate::AddHyperedge {
                    pins: vec![300, 0, 1],
                    weight: 1.0,
                },
            ])
            .unwrap();
        assert_eq!(update.new_vertices, vec![300]);
        assert!(update.dirty_vertices >= 3);
        assert_eq!(update.report.quality, QualityStatus::Evaluated);
        assert!(update.report.comm_cost.is_some());
        assert!(session.lookup(300).is_some());
        let json = update.to_json();
        assert!(json.contains("\"update\""), "{json}");
        assert!(json.contains("\"migration\""), "{json}");

        // Tombstoned vertices disappear from lookups; the session report
        // re-evaluates the mutated state.
        session
            .update(&[GraphUpdate::RemoveVertex { vertex: 5 }])
            .unwrap();
        assert_eq!(session.lookup(5), None);
        assert_eq!(session.report().quality, QualityStatus::Evaluated);
    }

    #[test]
    fn dynamic_sessions_round_trip_through_meta_and_resume() {
        let hg = mesh_hypergraph(&MeshConfig::new(120, 6));
        let mut live = PartitionJob::new(Algorithm::HyperPrawAware)
            .cost(CostMatrix::from_raw(
                3,
                vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.5, 2.0, 1.5, 0.0],
            ))
            .seed(7)
            .run_dynamic(&hg)
            .unwrap();
        live.update(&[GraphUpdate::AddVertex { weight: 2.0 }])
            .unwrap();

        // Serialise through the journal's snapshot machinery and resume.
        let meta = live.session_meta();
        let bytes = hyperpraw_dynamic::journal::encode_snapshot(1, &meta, live.partitioner());
        let snap =
            hyperpraw_dynamic::journal::read_snapshot(&hyperpraw_storage::MemorySource::new(bytes))
                .unwrap();
        let stats = RecoveryReport {
            snapshot_bytes: 0,
            batches_replayed: 0,
            truncated_bytes: 0,
            torn_tail: false,
        };
        let mut resumed =
            DynamicSession::resume(&snap.meta, snap.partitioner, Some(stats)).unwrap();
        assert_eq!(resumed.recovery(), Some(&stats));
        assert_eq!(
            resumed.partition().assignment(),
            live.partition().assignment()
        );
        // The rebuilt job evaluates against the same cost matrix...
        assert_eq!(
            resumed.report().comm_cost.unwrap(),
            live.report().comm_cost.unwrap()
        );
        // ...and both absorb the next batch bit-identically.
        let batch = [GraphUpdate::AddHyperedge {
            pins: vec![0, 60, 120],
            weight: 1.0,
        }];
        let a = live.update(&batch).unwrap();
        let b = resumed.update(&batch).unwrap();
        assert_eq!(
            a.report.partition.assignment(),
            b.report.partition.assignment()
        );

        // Damaged meta is rejected, not misread.
        assert!(DynamicSession::resume(&meta[..1], snap_partitioner_clone_err(), None).is_err());
    }

    // resume() consumes a partitioner; tests that only probe meta
    // validation still need one to hand over.
    fn snap_partitioner_clone_err() -> DynamicPartitioner {
        let hg = mesh_hypergraph(&MeshConfig::new(10, 3));
        let p = Partition::round_robin(10, 2);
        DynamicPartitioner::new(&hg, p, CostMatrix::uniform(2), DynamicConfig::default()).unwrap()
    }

    #[test]
    fn one_thread_is_the_default_reports_no_schedule_and_drives_sessions() {
        let hg = mesh_hypergraph(&MeshConfig::new(200, 6));
        for algorithm in [Algorithm::HyperPrawBasic, Algorithm::LowMemSketched] {
            let job = PartitionJob::new(algorithm).partitions(4);
            // The benchmark's no-op schedule setter keeps one thread.
            let report = job.parallel_mode(ParallelMode::WorkStealing).run(&hg);
            let json = report.unwrap().to_json();
            assert!(json.contains("\"threads\": 1"), "{algorithm}: {json}");
            assert!(!json.contains("parallel_mode"), "{algorithm}: {json}");
        }
        let job = PartitionJob::new(Algorithm::HyperPrawBasic).partitions(4);
        assert!(job.clone().run_dynamic(&hg).is_ok());
        let err = job.threads(2).run_dynamic(&hg).unwrap_err();
        assert!(matches!(err, PartitionError::Unsupported(_)), "{err}");
    }

    #[test]
    fn dynamic_sessions_require_a_restreaming_algorithm() {
        let hg = mesh_hypergraph(&MeshConfig::new(50, 4));
        let err = PartitionJob::new(Algorithm::RoundRobin)
            .partitions(4)
            .run_dynamic(&hg)
            .unwrap_err();
        assert!(matches!(err, PartitionError::Unsupported(_)));
    }
}
