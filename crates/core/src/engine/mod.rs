//! The generic restreaming engine — one implementation of the paper's
//! Algorithm 1 shared by every partitioning driver in the workspace.
//!
//! HyperPRAW's restreaming loop is a single algorithm: visit every vertex,
//! score each candidate partition with the value function of
//! [`crate::value`], assign greedily, temper the balance weight `α` until
//! the imbalance tolerance holds, then refine while the partitioning
//! communication cost improves. What varies between deployment scenarios
//! is *where the vertices come from*, *where the connectivity state
//! lives*, and *how the stream is executed*. The engine factors those
//! three axes into pluggable traits and keeps the loop itself in one
//! place:
//!
//! ```text
//!                       ┌──────────────────────────────┐
//!                       │          Engine::run         │
//!                       │  stream order · α tempering  │
//!                       │  tolerance / comm-cost stop  │
//!                       │  PartitionHistory · doubts   │
//!                       └──────┬───────┬───────┬───────┘
//!            ┌─────────────────┘       │       └──────────────────┐
//!            ▼                         ▼                          ▼
//!   VertexSource             ConnectivityProvider        ExecutionStrategy
//!   "which vertex next?"     "who are its neighbours?"   "who decides when?"
//!   ├ InMemorySource         ├ AdjProvider (in memory:   ├ Sequential
//!   │  (natural/shuffled/    │   exact part counts per   │   (fresh info per
//!   │   degree order)        │   visited vertex, shifted │    vertex,
//!   └ StreamSource over any  │   on moves; neighbours by │    deterministic)
//!      io::stream source     │   traversal or dedup CSR) ├ Chunked BSP
//!      (on-disk transpose,   ├ lowmem ExactIndex         │   (frozen snapshot
//!       InMemoryVertexStream)│   (hash maps, exact,      │    + local deltas,
//!                            │    reversible)            │    deterministic)
//!                            └ lowmem SketchIndex        └ WorkStealing
//!                                (Bloom + MinHash,           (atomic cursor,
//!                                 budget-bounded)            live shared
//!                                                            state, bounded
//!                                                            staleness, fast)
//! ```
//!
//! The three strategies trade information freshness against wall-clock:
//! **Sequential** is the paper's Algorithm 1 and the determinism anchor;
//! **Chunked** (bulk-synchronous) keeps bit-reproducible parallel results
//! by scoring frozen snapshots and applying at window boundaries;
//! **WorkStealing** drops the barrier entirely — one thread team per
//! batch claims fixed-size vertex chunks off a shared atomic cursor
//! ([`hyperpraw_hypergraph::ChunkCursor`]) and scores against *live*
//! shared state (the assignment as an atomic slice, per-part loads as
//! fixed-point atomics), accepting bounded staleness in exchange for
//! near-linear scaling. Both parallel strategies degenerate to the exact
//! sequential placement loop at one worker.
//!
//! The stealing workers follow one write rule: **shared state is written
//! only on a move**. A visit reads the shared loads and detaches the
//! vertex's own weight in a private copy; the load counters, the atomic
//! assignment and the provider's move hook (which shifts `AdjProvider`'s
//! kept part counts) are written only when the chosen part differs from
//! the current one. Everything a worker writes per vertex — counts, load view,
//! scorer scratch, proposals — sits in its own 128-byte-aligned worker
//! slot, so a visit that keeps its vertex in place causes no cross-core
//! traffic.
//!
//! Every combination is valid: [`crate::HyperPraw`] is
//! `InMemorySource × AdjProvider × Sequential`, and
//! [`crate::HyperPraw::with_parallel`] swaps in `Chunked` or
//! `WorkStealing`; `hyperpraw-lowmem` runs `StreamSource × IndexProvider`
//! in any strategy — which is how bulk-synchronous *out-of-core*
//! partitioning (a scenario none of the original drivers supported) falls
//! out for free.
//!
//! `AdjProvider` answers the distinct-neighbour query with exact integer
//! counts: every visit copies the part counts `X(v)` the provider keeps
//! for each vertex the run visits. The engine keeps those counts exact
//! through two provider hooks: `sync` once per run from the starting
//! assignment (one neighbourhood walk per visited vertex), and `moved`
//! wherever the assignment the counts read changes — at each sequential
//! placement, at the bulk-synchronous window apply, and in the stealing
//! worker next to its write of the live assignment. A visit is therefore
//! an O(p) copy, and neighbourhoods are walked only at sync and when
//! their vertex moves. A walk scans the vertex's flat list when the
//! provider has a precomputed adjacency and traverses the vertex's pins
//! otherwise; neither the in-memory driver nor the dynamic layer builds
//! an adjacency. Debug builds check the counts against a
//! recount at every pass end, window apply and stealing batch boundary.
//! No adjacency or budget ever changes a partition — the
//! engine-equivalence suite holds bit for bit (f64 history equality)
//! under every budget.
//!
//! Most visits of a converging run keep their vertex where it is, and
//! those whose neighbours have not moved since their last visit can be
//! proved to: **certified stays**. A scored visit leaves a stay
//! certificate next to the vertex's kept counts — the part it chose and
//! its communication gap `D = min_{i≠o}(c_o − c_i)`, where
//! `c_i = −N_i·T_i` is the load-free part of `V_i` (less a rounding
//! slack) — valid until a neighbour's move shifts those counts (a
//! per-vertex generation, see [`AdjProvider`]). At the next visit, while
//! the certificate is valid and the vertex still on `o`,
//! `V_o − V_i ≥ D − α·(W(o) − min_{i≠o} W(i)) / E` for every `i` under
//! the visit's own loads and `α` ([`crate::value::certified_margin`]);
//! when that clears the tie rule, the vertex stays without a count copy
//! or a scoring pass, and the engine does the load arithmetic of a scored
//! stay. All three strategies decide visits through one helper; the
//! proof is exact, so partitions are unchanged. Certificates are off
//! while the doubt buffer is on (it needs every visit's margin), and
//! providers that keep no counts make none. Debug builds re-score every
//! certified visit and recompute every live certificate wherever they
//! check the counts. Sequential and window-apply moves shift the counts
//! through `&mut` access ([`ConnectivityProvider::moved_exclusive`]);
//! only stealing workers use atomic read-modify-writes.
//!
//! The engine also owns the two cross-cutting quality devices the drivers
//! used to duplicate: the bounded **doubt buffer** (the `k`
//! lowest-confidence placements are revisited once against the final
//! state) and **sketch rebuilding** (providers that cannot forget are
//! reset between restreaming passes to shed staleness).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering as AtomicOrdering};
use std::thread;

use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::io::{IoError, IoResult};
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{
    AssignmentRef, ChunkCursor, HyperedgeId, Hypergraph, NeighborAdjacency, Partition, VertexId,
};
use hyperpraw_telemetry::{Counter, Gauge, Histogram, Registry};
use hyperpraw_topology::CostMatrix;

use crate::history::{IterationRecord, PartitionHistory, StreamPhase};
use crate::metrics::{check_shapes, CommCostState, PairCounts};
use crate::value::{best_partition_in, certified_margin, ValueScratch};
use crate::{HyperPrawConfig, RefinementPolicy};

mod provider;
mod source;

pub use provider::{AdjProvider, AdjScratch, ConnectivityProvider, StayCertificate};
pub use source::{stream_order, DirtySetSource, InMemorySource, StreamSource, VertexSource};

/// Why the restreaming loop stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The imbalance tolerance was reached and the configuration requested
    /// no refinement (the GraSP-style stopping rule).
    ToleranceReached,
    /// The refinement phase stopped because the partitioning communication
    /// cost ceased to improve; the previous (better) partition is returned.
    CommCostConverged,
    /// The iteration limit `N` was exhausted.
    MaxIterations,
}

impl StopReason {
    /// Name as printed in reports.
    pub fn name(&self) -> &'static str {
        match self {
            StopReason::ToleranceReached => "tolerance-reached",
            StopReason::CommCostConverged => "comm-cost-converged",
            StopReason::MaxIterations => "max-iterations",
        }
    }
}

/// How the engine executes one stream over the vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionStrategy {
    /// One decision at a time with fully fresh information — the paper's
    /// sequential Algorithm 1.
    Sequential,
    /// Bulk-synchronous chunked streaming (the GraSP-style extension): the
    /// stream is processed in windows of `sync_interval` vertices; within
    /// a window, worker threads propose assignments for their slices
    /// against a frozen snapshot of the assignment (tracking their own
    /// load deltas, scaled by the worker count to anticipate concurrent
    /// placements), and all proposals are applied at the window boundary.
    Chunked {
        /// Number of worker threads. A single worker degenerates to
        /// [`ExecutionStrategy::Sequential`] (no snapshot is needed when
        /// nobody races you).
        num_threads: usize,
        /// Vertices per synchronisation window; smaller windows mean
        /// fresher information at the price of synchronisation overhead.
        sync_interval: usize,
    },
    /// Lock-free work-stealing streaming: one thread team per batch claims
    /// fixed-size vertex chunks off a shared atomic cursor and scores
    /// against *live* shared state — the assignment as an `AtomicU32`
    /// slice, per-part loads as fixed-point `AtomicI64` counters — with
    /// bounded staleness instead of full synchronisation windows. Fast and
    /// valid at any thread count, but (unlike [`ExecutionStrategy::Chunked`])
    /// not bit-reproducible across runs for more than one worker; a single
    /// worker degenerates to [`ExecutionStrategy::Sequential`] exactly.
    WorkStealing {
        /// Number of worker threads.
        num_threads: usize,
        /// Vertices per claimed chunk — the staleness granularity of the
        /// *provider* state (the atomic assignment and load views are
        /// updated per move). [`DEFAULT_STEAL_CHUNK`] suits most runs.
        chunk: usize,
    },
}

/// Default vertex-chunk size claimed per cursor hit by
/// [`ExecutionStrategy::WorkStealing`] workers: small enough to
/// self-balance across heterogeneous vertex degrees, large enough that the
/// claim `fetch_add` never shows up in a profile.
pub const DEFAULT_STEAL_CHUNK: usize = 64;

/// How the partition is initialised before the first stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialAssignment {
    /// Algorithm 1's round-robin start: every vertex begins on partition
    /// `v mod p` and the first stream already *re*-assigns. Requires one
    /// seeding pass over the source (to push the prior into index-backed
    /// providers and accumulate the initial loads).
    RoundRobin,
    /// True one-pass streaming: vertices are unassigned until first
    /// visited, contribute no load, and unseen vertices contribute no
    /// connectivity.
    Unassigned,
}

/// The bounded buffer of lowest-confidence placements revisited after the
/// final stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoubtConfig {
    /// Maximum number of buffered placements (`0` disables the buffer).
    pub capacity: usize,
    /// Byte bound on the buffer: whatever the entry count, high-degree
    /// entries cannot hold more than this many heap bytes.
    pub byte_bound: usize,
}

impl Default for DoubtConfig {
    fn default() -> Self {
        Self {
            capacity: 0,
            byte_bound: usize::MAX,
        }
    }
}

/// Configuration of the generic restreaming engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Initial `α`; `None` uses the FENNEL-derived starting point.
    pub initial_alpha: Option<f64>,
    /// Multiplicative `α` update while the imbalance is above tolerance.
    pub tempering_factor: f64,
    /// Behaviour once the imbalance tolerance has been reached.
    pub refinement: RefinementPolicy,
    /// Maximum allowed total imbalance `max_k W(k) / avg_k W(k)`.
    pub imbalance_tolerance: f64,
    /// Maximum number of streams.
    pub max_iterations: usize,
    /// Record per-iteration history.
    pub track_history: bool,
    /// Sequential or bulk-synchronous execution.
    pub strategy: ExecutionStrategy,
    /// Round-robin restreaming start or one-pass streaming start.
    pub initial: InitialAssignment,
    /// Ask the provider to drop irreversible connectivity state at the
    /// start of every pass after the first, shedding sketch staleness at
    /// the price of a cold start for the early vertices of the pass.
    /// Providers with exact, reversible state ignore this.
    pub rebuild_between_passes: bool,
    /// Bounded low-confidence revisit buffer.
    pub doubts: DoubtConfig,
}

impl EngineConfig {
    /// The classic in-memory restreaming configuration of
    /// [`crate::HyperPraw`], derived from a [`HyperPrawConfig`] (stream
    /// order and seed are consumed by the [`InMemorySource`] instead).
    pub fn restreaming(config: &HyperPrawConfig) -> Self {
        Self {
            initial_alpha: config.initial_alpha,
            tempering_factor: config.tempering_factor,
            refinement: config.refinement,
            imbalance_tolerance: config.imbalance_tolerance,
            max_iterations: config.max_iterations,
            track_history: config.track_history,
            strategy: ExecutionStrategy::Sequential,
            initial: InitialAssignment::RoundRobin,
            rebuild_between_passes: false,
            doubts: DoubtConfig::default(),
        }
    }

    /// A one-pass streaming configuration with a frozen `α` (the
    /// `hyperpraw-lowmem` regime): no tolerance gate, `passes` streams,
    /// refinement-style stopping when a pass moves nothing.
    pub fn streaming(alpha: Option<f64>, passes: usize) -> Self {
        Self {
            initial_alpha: alpha,
            tempering_factor: 1.7,
            refinement: if passes > 1 {
                RefinementPolicy::Factor(1.0)
            } else {
                RefinementPolicy::None
            },
            imbalance_tolerance: f64::INFINITY,
            max_iterations: passes.max(1),
            track_history: false,
            strategy: ExecutionStrategy::Sequential,
            initial: InitialAssignment::Unassigned,
            rebuild_between_passes: false,
            doubts: DoubtConfig::default(),
        }
    }

    /// Replaces the execution strategy.
    pub fn with_strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Validates parameter ranges, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        // Each range check is written so NaN fails it.
        if self.tempering_factor.is_nan() || self.tempering_factor <= 1.0 {
            return Err(format!(
                "tempering factor must exceed 1.0 (got {})",
                self.tempering_factor
            ));
        }
        if self.imbalance_tolerance.is_nan() || self.imbalance_tolerance < 1.0 {
            return Err(format!(
                "imbalance tolerance must be at least 1.0 (got {})",
                self.imbalance_tolerance
            ));
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        if let RefinementPolicy::Factor(f) = self.refinement {
            if f.is_nan() || f <= 0.0 || f > 1.5 {
                return Err(format!("refinement factor {f} out of (0, 1.5]"));
            }
        }
        match self.strategy {
            ExecutionStrategy::Sequential => {}
            ExecutionStrategy::Chunked { num_threads, .. } => {
                if num_threads == 0 {
                    return Err("need at least one worker thread".into());
                }
            }
            ExecutionStrategy::WorkStealing { num_threads, chunk } => {
                if num_threads == 0 {
                    return Err("need at least one worker thread".into());
                }
                if chunk == 0 {
                    return Err("work-stealing chunk must be at least 1".into());
                }
            }
        }
        Ok(())
    }
}

/// How the engine evaluates the partitioning communication cost after each
/// pass — the refinement phase's stopping signal. Out-of-core runs cannot
/// afford the evaluation and return `None`, which disables cost-based
/// rollback (the loop then stops on fixed points or the iteration limit).
pub trait CommCostModel {
    /// Cost of `partition` under `cost`, when computable.
    fn comm_cost(&mut self, partition: &Partition, cost: &CostMatrix) -> Option<f64>;
}

/// Cost model for out-of-core runs: never evaluates.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCommCost;

impl CommCostModel for NoCommCost {
    fn comm_cost(&mut self, _partition: &Partition, _cost: &CostMatrix) -> Option<f64> {
        None
    }
}

/// [`ExactCommCost`] patches its part-pair counts from the moved vertices
/// while fewer than `1 / REBUILD_DENOMINATOR` of all vertices moved since
/// its last evaluation; past that, counting afresh is cheaper.
const REBUILD_DENOMINATOR: usize = 4;

/// Exact evaluation over an in-memory hypergraph
/// ([`crate::metrics::partitioning_communication_cost`]). When a precomputed
/// [`NeighborAdjacency`] is supplied, neighbourhoods come from flat lists
/// instead of being re-deduplicated
/// ([`crate::metrics::partitioning_communication_cost_with`]).
///
/// The model is **incremental**: it keeps the last assignment it evaluated
/// together with that assignment's exact part-pair counts `M` (see
/// [`crate::metrics`]). Each call diffs the new partition against the
/// last one; when fewer than a quarter of the vertices moved, every moved
/// vertex is replayed in vertex order — its neighbourhood shifts one row
/// and one column of `M` — so a pass costs O(moved vertices' degrees)
/// instead of O(pins). Larger moves recount `M` from scratch. Either way
/// `M` is exact and the final dot product is the one every evaluation in
/// [`crate::metrics`] shares, so each result is **bit-identical** to a
/// fresh [`crate::metrics::partitioning_communication_cost`] of the same
/// partition. The state costs `p²` counters plus one copy of the
/// assignment; [`ExactCommCost::resume`] starts from a state kept by the
/// caller and [`ExactCommCost::into_state`] gives it back.
#[derive(Clone, Debug)]
pub struct ExactCommCost<'a> {
    hg: &'a Hypergraph,
    adj: Option<&'a NeighborAdjacency>,
    /// The assignment evaluated last and its part-pair counts.
    last: Option<CommCostState>,
    /// Traversal scratch for hubs (or every vertex, without an adjacency).
    scratch: Option<NeighborScratch>,
    /// Reused list of the vertices moved since the last evaluation.
    moved: Vec<VertexId>,
}

impl<'a> ExactCommCost<'a> {
    /// Creates a model evaluating against `hg` by neighbourhood traversal.
    pub fn new(hg: &'a Hypergraph) -> Self {
        Self {
            hg,
            adj: None,
            last: None,
            scratch: None,
            moved: Vec::new(),
        }
    }

    /// Creates a model answering from a precomputed adjacency.
    pub fn with_adjacency(hg: &'a Hypergraph, adj: &'a NeighborAdjacency) -> Self {
        Self {
            adj: Some(adj),
            ..Self::new(hg)
        }
    }

    /// Creates a traversal model that resumes from `state` instead of
    /// counting `M` afresh at its first evaluation: the first evaluation
    /// patches `state` from the vertices whose part differs, exactly as
    /// later ones patch from the previous evaluation.
    ///
    /// # Panics
    ///
    /// Panics when `state` does not cover `hg`.
    pub fn resume(hg: &'a Hypergraph, state: CommCostState) -> Self {
        assert_eq!(
            state.partition().num_vertices(),
            hg.num_vertices(),
            "a resumed state must cover the hypergraph"
        );
        Self {
            last: Some(state),
            ..Self::new(hg)
        }
    }

    /// The assignment evaluated last with its part-pair counts (the
    /// resumed state when nothing was evaluated since), to resume from
    /// later; `None` before the first evaluation of a fresh model.
    pub fn into_state(self) -> Option<CommCostState> {
        self.last
    }

    /// Brings the retained counts up to `partition`: replays the moved
    /// vertices when fewer than a quarter moved, recounts otherwise.
    fn update(&mut self, partition: &Partition) -> &PairCounts {
        let n = partition.num_vertices();
        self.moved.clear();
        let patchable = match &self.last {
            Some(CommCostState {
                partition: last, ..
            }) if last.num_vertices() == n && last.num_parts() == partition.num_parts() => {
                let pairs = last.assignment().iter().zip(partition.assignment());
                for (v, (old, new)) in pairs.enumerate() {
                    if old != new {
                        self.moved.push(v as VertexId);
                        if self.moved.len() * REBUILD_DENOMINATOR >= n {
                            break;
                        }
                    }
                }
                self.moved.len() * REBUILD_DENOMINATOR < n
            }
            _ => false,
        };
        let CommCostState {
            partition: last,
            counts,
        } = match self.last.take() {
            Some(state) if patchable => self.last.insert(state),
            _ => {
                self.moved.clear();
                let counts = PairCounts::build(self.hg, self.adj, partition, &mut self.scratch);
                self.last.insert(CommCostState {
                    partition: partition.clone(),
                    counts,
                })
            }
        };
        for &v in &self.moved {
            let to = partition.part_of(v);
            counts.move_vertex(self.hg, self.adj, last, v, to, &mut self.scratch);
        }
        counts
    }
}

impl CommCostModel for ExactCommCost<'_> {
    fn comm_cost(&mut self, partition: &Partition, cost: &CostMatrix) -> Option<f64> {
        check_shapes(self.hg, partition, cost);
        Some(self.update(partition).dot(cost))
    }
}

/// The outcome of an [`Engine::run`].
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// The selected vertex-to-partition assignment.
    pub partition: Partition,
    /// Per-stream history (empty unless tracking is enabled).
    pub history: PartitionHistory,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Number of streams executed.
    pub iterations: usize,
    /// The `α` in effect when the run stopped.
    pub final_alpha: f64,
    /// Communication cost of the returned partition (`NaN` when the cost
    /// model cannot evaluate).
    pub comm_cost: f64,
    /// Imbalance of the returned partition, taken from the engine's
    /// incrementally tracked workloads — the same value the stopping rule
    /// compared against the tolerance. Out-of-core sources cannot afford
    /// an exact recomputation; in-memory callers that need one can always
    /// evaluate `partition.imbalance(hg)` on the result.
    pub imbalance: f64,
    /// Number of buffered low-confidence placements revisited at the end.
    pub restreamed: usize,
    /// How many revisited placements changed partition.
    pub moved_in_restream: usize,
}

/// A buffered low-confidence placement awaiting the revisit pass.
#[derive(Clone, Debug)]
struct Doubt {
    confidence: f64,
    vertex: VertexId,
    weight: f64,
    nets: Vec<HyperedgeId>,
}

impl PartialEq for Doubt {
    fn eq(&self, other: &Self) -> bool {
        self.confidence == other.confidence && self.vertex == other.vertex
    }
}

impl Eq for Doubt {}

impl PartialOrd for Doubt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Doubt {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by confidence: the most confident buffered entry is
        // evicted first, keeping the k *least* confident. Vertex id breaks
        // ties deterministically.
        self.confidence
            .total_cmp(&other.confidence)
            .then_with(|| self.vertex.cmp(&other.vertex))
    }
}

impl Doubt {
    /// Approximate heap bytes held by one buffered entry.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nets.capacity() * std::mem::size_of::<HyperedgeId>()
    }
}

/// The byte-bounded max-heap of doubts collected during a pass.
#[derive(Debug, Default)]
struct DoubtBuffer {
    heap: BinaryHeap<Doubt>,
    bytes: usize,
}

impl DoubtBuffer {
    fn clear(&mut self) {
        self.heap.clear();
        self.bytes = 0;
    }

    /// Records a placement unless its confidence floor already exceeds the
    /// buffer's current maximum (in which case it would be evicted right
    /// back out — skip the net-list clone entirely).
    fn offer<P: ConnectivityProvider>(
        &mut self,
        config: &DoubtConfig,
        provider: &P,
        record: &VertexRecord,
        part: u32,
        margin: f64,
    ) {
        if config.capacity == 0 {
            return;
        }
        // The provider's confidence stays within [margin / 2, margin].
        let hopeless = self.heap.len() >= config.capacity
            && self
                .heap
                .peek()
                .is_some_and(|max| 0.5 * margin > max.confidence);
        if hopeless {
            return;
        }
        let doubt = Doubt {
            confidence: provider.confidence(record, part, margin),
            vertex: record.vertex,
            weight: record.weight,
            nets: record.nets.clone(),
        };
        self.bytes += doubt.heap_bytes();
        self.heap.push(doubt);
        while self.heap.len() > config.capacity
            || (self.bytes > config.byte_bound && self.heap.len() > 1)
        {
            if let Some(evicted) = self.heap.pop() {
                self.bytes -= evicted.heap_bytes();
            }
        }
    }
}

/// Mutable state shared by every strategy: the assignment, the workloads
/// `W(k)` and the expected workloads `E(k)`.
#[derive(Clone, Debug)]
struct EngineState {
    partition: Partition,
    loads: Vec<f64>,
    expected: Vec<f64>,
}

impl EngineState {
    /// Total imbalance `max_k W(k) / avg_k W(k)` from the tracked loads.
    fn imbalance(&self) -> f64 {
        let total: f64 = self.loads.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let avg = total / self.loads.len() as f64;
        self.loads.iter().cloned().fold(f64::MIN, f64::max) / avg
    }
}

/// The part one visit chose and its margin over the runner-up — for a
/// certified visit, the lower bound the certificate proved.
#[derive(Clone, Copy, Debug)]
struct Decision {
    part: u32,
    margin: f64,
}

/// One worker's scoring state, created once per run and reused across
/// windows and passes: the provider scratch, the counts and scorer
/// buffers, and the tally of certified visits.
struct Scorer<T> {
    scratch: T,
    counts: Vec<u32>,
    value: ValueScratch,
    /// Whether visits check and make stay certificates.
    certify: bool,
    /// Visits kept in place by a certificate since the last flush.
    certified: u64,
}

impl<T> Scorer<T> {
    fn new<P: ConnectivityProvider<Scratch = T>>(provider: &P, p: usize, certify: bool) -> Self {
        Scorer {
            scratch: provider.new_scratch(),
            counts: Vec::with_capacity(p),
            value: ValueScratch::new(),
            certify,
            certified: 0,
        }
    }

    /// Decides one visit of `record`, currently on `current`, against
    /// `assignment` and `loads` — the loads as the scorer sees them, the
    /// vertex's own weight already detached — with the uniform expected
    /// loads `expected`.
    ///
    /// When `record`'s stay certificate is still valid, names `current`
    /// and [`certified_margin`] proves it under `alpha` and `loads`, the
    /// visit keeps its part without copying counts or scoring. Otherwise
    /// the counts are copied and scored, and the outcome certified under
    /// the generation read before the copy. Every strategy decides
    /// through here; the caller applies the decision the same way either
    /// way, so a certified stay does the load arithmetic of a scored one.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn decide<P, A>(
        &mut self,
        provider: &P,
        record: &VertexRecord,
        assignment: &A,
        current: Option<u32>,
        cost: &CostMatrix,
        alpha: f64,
        loads: &[f64],
        expected: &[f64],
    ) -> Decision
    where
        P: ConnectivityProvider<Scratch = T>,
        A: AssignmentRef,
    {
        let v = record.vertex;
        let stamp = if self.certify {
            provider.stay_certificate(v)
        } else {
            None
        };
        let stay = stamp.and_then(|s| s.stay);
        if let Some((part, gap)) = stay.filter(|&(part, _)| Some(part) == current) {
            debug_assert!(expected.iter().all(|&e| e == expected[0]));
            if let Some(margin) = certified_margin(gap, part, alpha, loads, expected[0]) {
                self.certified += 1;
                // Debug builds re-score the visit and require `part`. Under
                // work stealing a peer's move may shift the counts after
                // the certificate was read; the generation bump that
                // follows such a shift must then show up.
                #[cfg(debug_assertions)]
                {
                    let generation = stamp.map(|s| s.generation);
                    provider.count(record, assignment, &mut self.scratch, &mut self.counts);
                    let counts = &self.counts;
                    let scored =
                        best_partition_in(counts, cost, alpha, loads, expected, &mut self.value);
                    let started = std::time::Instant::now();
                    while scored.part != part
                        && provider.stay_certificate(v).map(|s| s.generation) == generation
                    {
                        assert!(
                            started.elapsed().as_secs() < 5,
                            "vertex {v} certified on part {part}, but its counts score part {}",
                            scored.part
                        );
                        thread::yield_now();
                    }
                }
                return Decision { part, margin };
            }
        }
        provider.count(record, assignment, &mut self.scratch, &mut self.counts);
        let scored = best_partition_in(&self.counts, cost, alpha, loads, expected, &mut self.value);
        if let Some(stamp) = stamp {
            provider.certify(v, stamp.generation, scored.part, scored.gap);
        }
        Decision {
            part: scored.part,
            margin: scored.margin,
        }
    }
}

/// Per-worker scratch buffers, created once per run and reused across
/// windows and passes. A worker writes its slot's `Vec` headers for every
/// vertex it scores, so slots are aligned to 128 bytes — two cache lines,
/// the unit adjacent-line prefetchers pull in — and never share a line
/// with a peer's.
#[repr(align(128))]
struct WorkerSlot<T> {
    scorer: Scorer<T>,
    delta: Vec<f64>,
    loads_view: Vec<f64>,
    /// The work-stealing strategy's `(batch index, part, margin)`
    /// proposals for the current batch.
    proposals: Vec<(usize, u32, f64)>,
}

impl<T> WorkerSlot<T> {
    /// Tops `slots` up to `workers` entries sized for `p` parts.
    fn fill<P: ConnectivityProvider<Scratch = T>>(
        slots: &mut Vec<Self>,
        workers: usize,
        provider: &P,
        p: usize,
        certify: bool,
    ) {
        while slots.len() < workers {
            slots.push(WorkerSlot {
                scorer: Scorer::new(provider, p, certify),
                delta: vec![0.0f64; p],
                loads_view: Vec::with_capacity(p),
                proposals: Vec::new(),
            });
        }
    }
}

/// One live (fresh-information) placement — the shared inner step of the
/// sequential strategy, the single-worker chunked fallback and the doubt
/// revisit: detach `record` from `current`, decide against the live
/// assignment, assign, attach. The caller handles move accounting and
/// doubt collection.
fn place_live<P: ConnectivityProvider>(
    cost: &CostMatrix,
    provider: &mut P,
    state: &mut EngineState,
    alpha: f64,
    record: &VertexRecord,
    current: Option<u32>,
    scorer: &mut Scorer<P::Scratch>,
) -> Decision {
    let w = record.weight;
    if let Some(cur) = current {
        state.loads[cur as usize] -= w;
        provider.detach(record, cur);
    }
    let decision = scorer.decide(
        provider,
        record,
        &state.partition,
        current,
        cost,
        alpha,
        &state.loads,
        &state.expected,
    );
    set_part(
        provider,
        &mut state.partition,
        record.vertex,
        decision.part,
        &mut scorer.scratch,
    );
    state.loads[decision.part as usize] += w;
    provider.attach(record, decision.part);
    decision
}

/// Assigns `v` to `part` in `partition`, the assignment the provider's
/// counts read, and reports the change to the provider, which the caller
/// holds exclusively.
fn set_part<P: ConnectivityProvider>(
    provider: &mut P,
    partition: &mut Partition,
    v: VertexId,
    part: u32,
    scratch: &mut P::Scratch,
) {
    let prior = partition.part_of(v);
    if prior != part {
        partition.set(v, part);
        provider.moved_exclusive(v, prior, part, scratch);
    }
}

/// Whether `provider`'s counts agree with `assignment` and its stay
/// certificates with those counts — the engine's debug-build check at
/// every pass end, window apply and stealing batch boundary.
fn consistent<P: ConnectivityProvider, A: AssignmentRef>(
    provider: &P,
    assignment: &A,
    cost: &CostMatrix,
) -> bool {
    provider.agrees_with(assignment) && provider.certificates_agree_with(assignment, cost)
}

/// A prior assignment handed to [`Engine::run_warm`]: the engine refines
/// it in place instead of seeding round-robin, so incremental callers can
/// restream only a dirty subset of vertices against full-graph state.
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// The full-graph assignment to refine. Its part count must match the
    /// cost matrix and its vertex count must cover every vertex any
    /// connectivity query can reach.
    pub partition: Partition,
    /// Per-part vertex weight of `partition` (one entry per part) — the
    /// balance state the value function scores against from pass one.
    pub loads: Vec<f64>,
}

/// The generic restreaming engine. See the [module docs](self) for the
/// architecture; [`Engine::run`] is the single implementation of the
/// restreaming loop every driver delegates to.
#[derive(Clone, Debug)]
pub struct Engine {
    config: EngineConfig,
    metrics: EngineMetrics,
}

/// Telemetry handles bound by [`Engine::with_registry`]. The default
/// (disabled) handles make every recording below a no-op branch, and all
/// recording happens at pass, window or batch granularity — never per
/// vertex — so instrumentation cannot perturb placement decisions or
/// determinism.
#[derive(Clone, Debug, Default)]
struct EngineMetrics {
    /// Wall-clock of each streaming pass, microseconds.
    pass_time_us: Histogram,
    /// Wall-clock of each comm-cost evaluation (per pass and final),
    /// microseconds.
    commcost_eval_us: Histogram,
    /// Vertices visited across all passes (each pass streams the source
    /// once), certified visits included.
    vertices_scored: Counter,
    /// Visits a stay certificate kept in place without scoring.
    certified_visits: Counter,
    /// Doubt-buffer entries at the end of the latest pass.
    doubt_entries: Gauge,
    /// Doubt-buffer payload bytes at the end of the latest pass.
    doubt_bytes: Gauge,
    /// Chunks claimed off the shared cursor (work-stealing strategy).
    steal_chunk_claims: Counter,
    /// Batch-boundary applies (work-stealing strategy).
    steal_batch_applies: Counter,
}

impl EngineMetrics {
    fn bind(registry: &Registry) -> Self {
        EngineMetrics {
            pass_time_us: registry.histogram("engine.pass_time_us"),
            commcost_eval_us: registry.histogram("engine.commcost_eval_us"),
            vertices_scored: registry.counter("engine.vertices_scored"),
            certified_visits: registry.counter("engine.certified_visits"),
            doubt_entries: registry.gauge("engine.doubt.entries"),
            doubt_bytes: registry.gauge("engine.doubt.bytes"),
            steal_chunk_claims: registry.counter("engine.steal.chunk_claims"),
            steal_batch_applies: registry.counter("engine.steal.batch_applies"),
        }
    }
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: EngineConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid engine configuration: {e}"));
        Self {
            config,
            metrics: EngineMetrics::default(),
        }
    }

    /// Binds this engine's instrumentation to `registry` (metrics under
    /// the `engine.` prefix). Engines record nothing until bound.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.metrics = EngineMetrics::bind(registry);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Whether visits check and make stay certificates: certified stays
    /// skip the scorer, whose margins the doubt buffer needs.
    fn certifies(&self) -> bool {
        self.config.doubts.capacity == 0
    }

    /// Runs the restreaming loop: `source × provider × strategy` under the
    /// communication-cost matrix `cost`, with per-pass costs evaluated by
    /// `cost_model`.
    pub fn run<S, P, C>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        cost_model: &mut C,
    ) -> IoResult<EngineRun>
    where
        S: VertexSource,
        P: ConnectivityProvider,
        C: CommCostModel,
    {
        let p = cost.num_units();
        assert!(p > 0, "cost matrix must cover at least one compute unit");
        let config = &self.config;
        let n = source.num_vertices();
        let e = source.num_nets();
        source.set_nets_enabled(provider.needs_nets() || config.doubts.capacity > 0);

        let total_weight = source.total_vertex_weight().unwrap_or(n as f64);
        let expected_load = (total_weight / p as f64).max(f64::MIN_POSITIVE);
        // The first allocation sized by the source's vertex count, which an
        // on-disk source takes from its file header: refuse, don't abort.
        let partition = Partition::try_round_robin(n, p as u32)
            .map_err(|e| IoError::out_of_memory(&format!("{n} vertex assignments"), e))?;
        let mut state = EngineState {
            partition,
            loads: vec![0.0f64; p],
            expected: vec![expected_load; p],
        };
        let assigned = match config.initial {
            InitialAssignment::RoundRobin => {
                self.seed_round_robin(source, provider, &mut state)?;
                true
            }
            InitialAssignment::Unassigned => false,
        };
        self.run_loop(cost, source, provider, cost_model, state, assigned, n, e)
    }

    /// Runs the restreaming loop warm-started from an existing assignment
    /// instead of a fresh seed pass — the entry point of the dynamic
    /// repartitioning layer. `source` supplies the vertex stream to
    /// revisit, which may cover only part of the graph (a dirty set);
    /// `warm.partition` must still cover the *full* graph so connectivity
    /// counts against untouched vertices stay exact, and `warm.loads` must
    /// be that full assignment's per-part vertex weights. No seed pass
    /// runs, so providers must already answer for the current graph
    /// ([`AdjProvider`] does, whether or not it has an adjacency).
    ///
    /// # Panics
    ///
    /// Panics when the cost matrix is empty or `warm`'s part count or load
    /// vector length disagree with it.
    pub fn run_warm<S, P, C>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        cost_model: &mut C,
        warm: WarmStart,
    ) -> IoResult<EngineRun>
    where
        S: VertexSource,
        P: ConnectivityProvider,
        C: CommCostModel,
    {
        let p = cost.num_units();
        assert!(p > 0, "cost matrix must cover at least one compute unit");
        assert_eq!(
            warm.partition.num_parts() as usize,
            p,
            "warm-start partition must match the cost matrix"
        );
        assert_eq!(
            warm.loads.len(),
            p,
            "warm-start loads must cover every part"
        );
        source.set_nets_enabled(provider.needs_nets() || self.config.doubts.capacity > 0);

        // α is sized from the full graph, not the dirty subset: the value
        // function balances against full-graph loads, so the tempering
        // scale must match what a cold run over the whole instance uses.
        let n = warm.partition.num_vertices();
        let e = source.num_nets();
        let total_weight: f64 = warm.loads.iter().sum();
        let expected_load = (total_weight / p as f64).max(f64::MIN_POSITIVE);
        let state = EngineState {
            partition: warm.partition,
            loads: warm.loads,
            expected: vec![expected_load; p],
        };
        self.run_loop(cost, source, provider, cost_model, state, true, n, e)
    }

    /// The shared restreaming loop behind [`Engine::run`] and
    /// [`Engine::run_warm`]: α tempering until the tolerance is met, then
    /// refinement with comm-cost rollback, then the doubt revisit.
    #[allow(clippy::too_many_arguments)] // one state bundle, two public entries
    fn run_loop<S, P, C>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        cost_model: &mut C,
        mut state: EngineState,
        mut assigned: bool,
        n: usize,
        e: usize,
    ) -> IoResult<EngineRun>
    where
        S: VertexSource,
        P: ConnectivityProvider,
        C: CommCostModel,
    {
        let p = state.loads.len();
        let config = &self.config;
        provider.sync(&state.partition, source.visits());

        let mut alpha = config
            .initial_alpha
            .unwrap_or_else(|| HyperPrawConfig::fennel_alpha(p as u32, n, e));

        let mut history = PartitionHistory::new();
        // Best feasible (within-tolerance) partition seen so far, with its
        // cost and imbalance. Only tracked when the cost model can
        // evaluate — without costs there is nothing to roll back to.
        let mut previous_feasible: Option<(Partition, f64, f64)> = None;
        let mut stop_reason = StopReason::MaxIterations;
        let mut iterations = 0usize;
        let mut doubts = DoubtBuffer::default();
        let mut slots: Vec<WorkerSlot<P::Scratch>> = Vec::new();
        let mut window: Vec<VertexRecord> = Vec::new();
        let mut record = VertexRecord::default();

        for pass in 1..=config.max_iterations {
            iterations = pass;
            provider.begin_pass(pass, config.rebuild_between_passes && pass > 1);
            doubts.clear();
            source.reset()?;
            let pass_span = self.metrics.pass_time_us.span();
            let moved = match config.strategy {
                // A single worker has nobody to race: run the live
                // sequential loop, so one thread is bit-identical to
                // `Sequential` in either parallel mode (the n=1
                // determinism anchor).
                ExecutionStrategy::Sequential
                | ExecutionStrategy::Chunked { num_threads: 1, .. }
                | ExecutionStrategy::WorkStealing { num_threads: 1, .. } => self.sequential_pass(
                    cost,
                    source,
                    provider,
                    &mut state,
                    alpha,
                    assigned,
                    &mut doubts,
                    &mut record,
                    &mut slots,
                )?,
                ExecutionStrategy::Chunked {
                    num_threads,
                    sync_interval,
                } => self.chunked_pass(
                    cost,
                    source,
                    provider,
                    &mut state,
                    alpha,
                    assigned,
                    num_threads,
                    sync_interval,
                    &mut doubts,
                    &mut slots,
                    &mut window,
                )?,
                ExecutionStrategy::WorkStealing { num_threads, chunk } => self.steal_pass(
                    cost,
                    source,
                    provider,
                    &mut state,
                    alpha,
                    assigned,
                    num_threads,
                    chunk,
                    &mut doubts,
                    &mut slots,
                    &mut window,
                )?,
            };
            pass_span.finish();
            let certified = slots
                .iter_mut()
                .map(|slot| std::mem::take(&mut slot.scorer.certified))
                .sum();
            self.metrics.certified_visits.add(certified);
            debug_assert!(
                consistent(provider, &state.partition, cost),
                "provider state drifted from the assignment by the end of pass {pass}"
            );
            self.metrics.doubt_entries.set(doubts.heap.len() as i64);
            self.metrics.doubt_bytes.set(doubts.bytes as i64);
            assigned = true;

            let imbalance = state.imbalance();
            let comm_cost = self.eval_comm_cost(cost_model, &state.partition, cost);
            let feasible = imbalance <= config.imbalance_tolerance + 1e-12;
            if config.track_history {
                history.push(IterationRecord {
                    iteration: pass,
                    phase: if feasible {
                        StreamPhase::Refinement
                    } else {
                        StreamPhase::Tempering
                    },
                    alpha,
                    imbalance,
                    comm_cost: comm_cost.unwrap_or(f64::NAN),
                    moved_vertices: moved,
                });
            }

            if !feasible {
                // Still outside tolerance: temper α upwards and re-stream.
                alpha *= config.tempering_factor;
                continue;
            }

            match config.refinement {
                RefinementPolicy::None => {
                    // GraSP-style: stop as soon as the tolerance is met.
                    stop_reason = StopReason::ToleranceReached;
                    if let Some(c) = comm_cost {
                        previous_feasible = Some((state.partition.clone(), c, imbalance));
                    }
                    break;
                }
                RefinementPolicy::Factor(factor) => {
                    // Refinement phase: keep streaming while the
                    // partitioning communication cost improves; roll back
                    // to the previous feasible partition when it gets
                    // worse (Algorithm 1's `Cost of Pⁿ > Cost of Pⁿ⁻¹`
                    // test). A stream that moved no vertex is a fixed
                    // point: further streams would repeat it verbatim, so
                    // stop there too. Without a cost model only the
                    // fixed-point and iteration-limit rules apply.
                    if let (Some(c), Some((_, previous_cost, _))) = (comm_cost, &previous_feasible)
                    {
                        if c > *previous_cost {
                            stop_reason = StopReason::CommCostConverged;
                            break;
                        }
                    }
                    if let Some(c) = comm_cost {
                        previous_feasible = Some((state.partition.clone(), c, imbalance));
                    }
                    if moved == 0 {
                        stop_reason = StopReason::CommCostConverged;
                        break;
                    }
                    alpha *= factor;
                }
            }
        }

        // Revisit the buffered low-confidence placements against the final
        // state, in vertex order for determinism. Only meaningful when the
        // live state is what will be returned — a cost-based rollback
        // discards the state the doubts were collected on.
        let mut restreamed = 0usize;
        let mut moved_in_restream = 0usize;
        if previous_feasible.is_none() && !doubts.heap.is_empty() {
            let mut revisit: Vec<Doubt> = std::mem::take(&mut doubts.heap).into_vec();
            revisit.sort_unstable_by_key(|d| d.vertex);
            restreamed = revisit.len();
            let mut scorer = Scorer::new(provider, p, false);
            for doubt in revisit {
                record.vertex = doubt.vertex;
                record.weight = doubt.weight;
                record.nets.clear();
                record.nets.extend_from_slice(&doubt.nets);
                let old = state.partition.part_of(doubt.vertex);
                let decision = place_live(
                    cost,
                    provider,
                    &mut state,
                    alpha,
                    &record,
                    Some(old),
                    &mut scorer,
                );
                if decision.part != old {
                    moved_in_restream += 1;
                }
            }
        }

        // Select the partition to return: the best feasible snapshot if
        // one exists, otherwise whatever the final stream produced.
        let (partition, comm_cost, imbalance) = match previous_feasible {
            Some((partition, c, imb)) => (partition, c, imb),
            None => {
                let c = self
                    .eval_comm_cost(cost_model, &state.partition, cost)
                    .unwrap_or(f64::NAN);
                let imb = state.imbalance();
                (state.partition, c, imb)
            }
        };

        Ok(EngineRun {
            partition,
            history,
            stop_reason,
            iterations,
            final_alpha: alpha,
            comm_cost,
            imbalance,
            restreamed,
            moved_in_restream,
        })
    }

    /// One timed `cost_model` evaluation.
    fn eval_comm_cost<C: CommCostModel>(
        &self,
        cost_model: &mut C,
        partition: &Partition,
        cost: &CostMatrix,
    ) -> Option<f64> {
        let span = self.metrics.commcost_eval_us.span();
        let comm_cost = cost_model.comm_cost(partition, cost);
        span.finish();
        comm_cost
    }

    /// Pushes Algorithm 1's round-robin initial assignment into the
    /// provider and the workload accounting with one pass over the source.
    fn seed_round_robin<S, P>(
        &self,
        source: &mut S,
        provider: &mut P,
        state: &mut EngineState,
    ) -> IoResult<()>
    where
        S: VertexSource,
        P: ConnectivityProvider,
    {
        let p = state.loads.len() as u32;
        let mut record = VertexRecord::default();
        while source.next_into(&mut record)? {
            let part = record.vertex % p;
            state.loads[part as usize] += record.weight;
            provider.attach(&record, part);
        }
        source.reset()
    }

    /// One sequential stream: every vertex is detached from its current
    /// partition and re-assigned with fully fresh information (Algorithm
    /// 1's inner loop). Returns the number of moved vertices.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn sequential_pass<S, P>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        state: &mut EngineState,
        alpha: f64,
        assigned: bool,
        doubts: &mut DoubtBuffer,
        record: &mut VertexRecord,
        slots: &mut Vec<WorkerSlot<P::Scratch>>,
    ) -> IoResult<usize>
    where
        S: VertexSource,
        P: ConnectivityProvider,
    {
        WorkerSlot::fill(slots, 1, provider, state.loads.len(), self.certifies());
        let scorer = &mut slots[0].scorer;
        let mut moved = 0usize;
        let mut scored_n = 0u64;
        while source.next_into(record)? {
            scored_n += 1;
            let current = assigned.then(|| state.partition.part_of(record.vertex));
            let decision = place_live(cost, provider, state, alpha, record, current, scorer);
            if current != Some(decision.part) {
                moved += 1;
            }
            doubts.offer(
                &self.config.doubts,
                provider,
                record,
                decision.part,
                decision.margin,
            );
        }
        self.metrics.vertices_scored.add(scored_n);
        Ok(moved)
    }

    /// One bulk-synchronous stream: windows of `sync_interval` vertices
    /// are scored by worker threads against a frozen snapshot and applied
    /// at the window boundary. Returns the number of moved vertices.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn chunked_pass<S, P>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        state: &mut EngineState,
        alpha: f64,
        assigned: bool,
        num_threads: usize,
        sync_interval: usize,
        doubts: &mut DoubtBuffer,
        slots: &mut Vec<WorkerSlot<P::Scratch>>,
        window: &mut Vec<VertexRecord>,
    ) -> IoResult<usize>
    where
        S: VertexSource,
        P: ConnectivityProvider,
    {
        let p = state.loads.len();
        let window_len = sync_interval.max(num_threads).max(1);
        WorkerSlot::fill(slots, num_threads, provider, p, self.certifies());
        let mut moved = 0usize;

        loop {
            // Fill the window, reusing the record allocations.
            let mut len = 0usize;
            while len < window_len {
                if window.len() == len {
                    window.push(VertexRecord::default());
                }
                if !source.next_into(&mut window[len])? {
                    break;
                }
                len += 1;
            }
            if len == 0 {
                break;
            }
            let records = &window[..len];
            self.metrics.vertices_scored.add(len as u64);
            let workers = num_threads.min(len).max(1);

            if workers == 1 {
                // No concurrency — decide with live information, exactly
                // like the sequential strategy.
                let scorer = &mut slots[0].scorer;
                for record in records {
                    let current = assigned.then(|| state.partition.part_of(record.vertex));
                    let decision =
                        place_live(cost, provider, state, alpha, record, current, scorer);
                    if current != Some(decision.part) {
                        moved += 1;
                    }
                    doubts.offer(
                        &self.config.doubts,
                        provider,
                        record,
                        decision.part,
                        decision.margin,
                    );
                }
                continue;
            }

            let chunk_size = len.div_ceil(workers);
            let chunks: Vec<&[VertexRecord]> = records.chunks(chunk_size).collect();
            // Scale worker-local load deltas by the number of *live*
            // chunks: each worker assumes its peers fill partitions at a
            // similar rate, which prevents the herd effect where every
            // worker dumps its slice into the same globally-lightest
            // partition. A trailing window smaller than the worker count
            // spawns fewer chunks and must scale by that smaller number,
            // or its published deltas would overshoot.
            let scale = chunks.len() as f64;
            let snapshot = &state.partition;
            let snapshot_loads = &state.loads;
            let expected = &state.expected;
            let provider_ref: &P = provider;
            let config_alpha = alpha;

            let proposals: Vec<Vec<(u32, f64)>> = thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .iter()
                    .zip(slots.iter_mut())
                    .map(|(chunk, slot)| {
                        let chunk: &[VertexRecord] = chunk;
                        scope.spawn(move || {
                            slot.delta.iter_mut().for_each(|d| *d = 0.0);
                            slot.loads_view.clear();
                            slot.loads_view.extend_from_slice(snapshot_loads);
                            let mut local: Vec<(u32, f64)> = Vec::with_capacity(chunk.len());
                            for record in chunk {
                                let w = record.weight;
                                let current = assigned.then(|| snapshot.part_of(record.vertex));
                                if let Some(cur) = current {
                                    let cur = cur as usize;
                                    slot.delta[cur] -= w;
                                    slot.loads_view[cur] =
                                        snapshot_loads[cur] + slot.delta[cur] * scale;
                                }
                                let decision = slot.scorer.decide(
                                    provider_ref,
                                    record,
                                    snapshot,
                                    current,
                                    cost,
                                    config_alpha,
                                    &slot.loads_view,
                                    expected,
                                );
                                let t = decision.part as usize;
                                slot.delta[t] += w;
                                slot.loads_view[t] = snapshot_loads[t] + slot.delta[t] * scale;
                                local.push((decision.part, decision.margin));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("engine worker panicked"))
                    .collect()
            });

            // Synchronise: apply every chunk's proposals in deterministic
            // (chunk, in-chunk) order, publishing all load deltas —
            // including the final partial window's — before the pass-end
            // metrics are computed.
            for (chunk, results) in chunks.iter().zip(&proposals) {
                for (record, &(target, margin)) in chunk.iter().zip(results) {
                    let v = record.vertex;
                    let w = record.weight;
                    let current = assigned.then(|| state.partition.part_of(v));
                    if let Some(cur) = current {
                        state.loads[cur as usize] -= w;
                        provider.detach(record, cur);
                    }
                    set_part(
                        provider,
                        &mut state.partition,
                        v,
                        target,
                        &mut slots[0].scorer.scratch,
                    );
                    state.loads[target as usize] += w;
                    provider.attach(record, target);
                    if current != Some(target) {
                        moved += 1;
                    }
                    doubts.offer(&self.config.doubts, provider, record, target, margin);
                }
            }
            debug_assert!(
                consistent(provider, &state.partition, cost),
                "provider state drifted from the assignment at a window apply"
            );
        }
        Ok(moved)
    }

    /// One lock-free work-stealing stream: the engine thread fills a large
    /// batch of records, a thread team spawned **once per batch** claims
    /// fixed-size chunks of it off a shared [`ChunkCursor`], and every
    /// worker scores against *live* shared state — the full assignment as
    /// an atomic slice, the per-part loads as fixed-point atomics — so
    /// placements become visible to peers per vertex instead of per
    /// synchronisation window. Provider mutation, authoritative `f64` load
    /// accounting, move counting and doubt collection happen on the engine
    /// thread at the batch boundary (the bounded-staleness window for
    /// index-backed providers). Returns the number of moved vertices.
    ///
    /// Workers write shared state only when a vertex moves: a visit reads
    /// the load counters, detaches the vertex's own weight in its private
    /// copy, and touches the shared loads and the atomic assignment only
    /// if the chosen part differs from the current one. Everything a
    /// worker writes per vertex lives in its cache-line-aligned
    /// [`WorkerSlot`], so most visits cause no cross-core traffic at all.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn steal_pass<S, P>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        state: &mut EngineState,
        alpha: f64,
        assigned: bool,
        num_threads: usize,
        chunk: usize,
        doubts: &mut DoubtBuffer,
        slots: &mut Vec<WorkerSlot<P::Scratch>>,
        batch: &mut Vec<VertexRecord>,
    ) -> IoResult<usize>
    where
        S: VertexSource,
        P: ConnectivityProvider,
    {
        let p = state.loads.len();
        WorkerSlot::fill(slots, num_threads, provider, p, self.certifies());
        // The live assignment view covers the *full* graph — connectivity
        // counts read arbitrary neighbours, not just batch members.
        let view = AtomicAssignment::from_partition(&state.partition);
        let shared_loads: Vec<AtomicI64> = state
            .loads
            .iter()
            .map(|&load| AtomicI64::new(to_fixed(load)))
            .collect();
        // Stream sources stay memory-bounded: a batch holds at most this
        // many records, so a pass over more than 8192 vertices (at the
        // default chunk and two workers) spans several batches, each with
        // its own thread team and boundary apply. Providers whose counts
        // track the live atomic assignment take the large cap. Providers
        // answering from internal state only mutated at batch boundaries
        // (the lowmem indices) get small batches instead, bounding how far
        // their counts lag behind the stream.
        let batch_cap = if provider.live_counts() {
            (chunk * num_threads * 16).max(8192)
        } else {
            (chunk * num_threads).max(256)
        };
        let mut moved = 0usize;
        let mut proposals: Vec<(u32, f64)> = Vec::new();

        loop {
            // Fill the batch on the engine thread (reusing allocations) so
            // IO errors surface before any worker is spawned.
            let mut len = 0usize;
            while len < batch_cap {
                if batch.len() == len {
                    batch.push(VertexRecord::default());
                }
                if !source.next_into(&mut batch[len])? {
                    break;
                }
                len += 1;
            }
            if len == 0 {
                break;
            }
            let records = &batch[..len];
            self.metrics.vertices_scored.add(len as u64);
            let workers = num_threads.min(len.div_ceil(chunk)).max(1);

            // Re-sync the fixed-point counters from the authoritative f64
            // loads so rounding drift cannot accumulate across batches.
            for (shared, &load) in shared_loads.iter().zip(&state.loads) {
                shared.store(to_fixed(load), AtomicOrdering::Relaxed);
            }

            {
                let cursor = ChunkCursor::new(len, chunk);
                let cursor = &cursor;
                let view = &view;
                let shared = &shared_loads[..];
                let expected = &state.expected[..];
                let provider_ref: &P = provider;
                let chunk_claims = &self.metrics.steal_chunk_claims;

                let run_worker = |slot: &mut WorkerSlot<P::Scratch>| {
                    slot.loads_view.clear();
                    slot.loads_view.resize(p, 0.0);
                    slot.proposals.clear();
                    while let Some(range) = cursor.claim() {
                        chunk_claims.inc();
                        slot.proposals.reserve(range.len());
                        for i in range {
                            let record = &records[i];
                            let w = to_fixed(record.weight);
                            // Score with the vertex detached from its
                            // current part in the private copy only.
                            let prior = view.part_of(record.vertex);
                            let current = assigned.then_some(prior);
                            let loads = slot.loads_view.iter_mut().zip(shared);
                            for (k, (local, counter)) in loads.enumerate() {
                                let own = if current == Some(k as u32) { w } else { 0 };
                                *local = from_fixed(counter.load(AtomicOrdering::Relaxed) - own);
                            }
                            let decision = slot.scorer.decide(
                                provider_ref,
                                record,
                                view,
                                current,
                                cost,
                                alpha,
                                &slot.loads_view,
                                expected,
                            );
                            let target = decision.part;
                            if current != Some(target) {
                                if let Some(old) = current {
                                    shared[old as usize].fetch_sub(w, AtomicOrdering::Relaxed);
                                }
                                shared[target as usize].fetch_add(w, AtomicOrdering::Relaxed);
                                view.set(record.vertex, target);
                                if prior != target {
                                    provider_ref.moved(
                                        record.vertex,
                                        prior,
                                        target,
                                        &mut slot.scorer.scratch,
                                    );
                                }
                            }
                            slot.proposals.push((i, target, decision.margin));
                        }
                    }
                };

                // Spawn the team once per batch: workers 1.. on scoped
                // threads, worker 0 on the engine thread itself.
                let (first, rest) = slots.split_at_mut(1);
                thread::scope(|scope| {
                    let handles: Vec<_> = rest[..workers - 1]
                        .iter_mut()
                        .map(|slot| {
                            let run_worker = &run_worker;
                            scope.spawn(move || run_worker(slot))
                        })
                        .collect();
                    run_worker(&mut first[0]);
                    handles
                        .into_iter()
                        .for_each(|h| h.join().expect("engine worker panicked"));
                });

                // Every worker finished each move's provider updates
                // before the join, so the provider agrees with the view.
                debug_assert!(
                    consistent(provider_ref, view, cost),
                    "provider state drifted from the live assignment at a batch boundary"
                );

                // Merge the per-worker proposals back into batch order —
                // every index was claimed exactly once, so this is a
                // scatter, not a sort.
                proposals.clear();
                proposals.resize(len, (0u32, 0.0));
                for slot in &slots[..workers] {
                    for &(i, part, margin) in &slot.proposals {
                        proposals[i] = (part, margin);
                    }
                }
            }

            // Apply at the batch boundary, in batch order: provider
            // detach/attach, authoritative f64 loads, move accounting and
            // doubt collection all run on the engine thread.
            for (record, &(target, margin)) in records.iter().zip(&proposals) {
                let v = record.vertex;
                let w = record.weight;
                let current = assigned.then(|| state.partition.part_of(v));
                if let Some(cur) = current {
                    state.loads[cur as usize] -= w;
                    provider.detach(record, cur);
                }
                state.partition.set(v, target);
                state.loads[target as usize] += w;
                provider.attach(record, target);
                if current != Some(target) {
                    moved += 1;
                }
                doubts.offer(&self.config.doubts, provider, record, target, margin);
            }
            // Workers wrote the counters for exactly the moves just
            // applied, so both load accounts agree up to rounding: at most
            // one fixed-point unit per applied record, plus the f64 sums'.
            debug_assert!(
                shared_loads
                    .iter()
                    .zip(&state.loads)
                    .all(|(shared, &load)| {
                        let fixed = from_fixed(shared.load(AtomicOrdering::Relaxed));
                        (fixed - load).abs() <= from_fixed(len as i64 + 1) + 1e-9 * load.abs()
                    }),
                "work-stealing fixed-point loads drifted from the applied loads"
            );
            self.metrics.steal_batch_applies.inc();
        }
        Ok(moved)
    }
}

/// The work-stealing strategy's live shared assignment: one `AtomicU32`
/// per vertex, read by worker-side connectivity counts (through
/// [`AssignmentRef`]) and updated per placement with relaxed ordering —
/// workers tolerate reading a peer's placement a few instructions late,
/// which is exactly the bounded staleness the strategy trades for the
/// missing barrier.
struct AtomicAssignment {
    parts: Vec<AtomicU32>,
    num_parts: u32,
}

impl AtomicAssignment {
    fn from_partition(partition: &Partition) -> Self {
        Self {
            parts: partition
                .assignment()
                .iter()
                .map(|&part| AtomicU32::new(part))
                .collect(),
            num_parts: Partition::num_parts(partition),
        }
    }

    fn set(&self, v: VertexId, part: u32) {
        self.parts[v as usize].store(part, AtomicOrdering::Relaxed);
    }
}

impl AssignmentRef for AtomicAssignment {
    fn part_of(&self, v: VertexId) -> u32 {
        self.parts[v as usize].load(AtomicOrdering::Relaxed)
    }

    fn num_parts(&self) -> u32 {
        self.num_parts
    }
}

/// Fractional bits of the shared fixed-point load counters: resolution
/// `2^-24` is far below any weight difference the value function can
/// distinguish, while the `2^39` integer range is far above any total
/// weight that fits in memory.
const LOAD_FRACTION_BITS: u32 = 24;

fn to_fixed(load: f64) -> i64 {
    (load * (1i64 << LOAD_FRACTION_BITS) as f64).round() as i64
}

fn from_fixed(load: i64) -> f64 {
    load as f64 / (1i64 << LOAD_FRACTION_BITS) as f64
}
