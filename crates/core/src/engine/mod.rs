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
//! only on a move**. The load counters, the atomic assignment, the
//! provider's move hook (which shifts `AdjProvider`'s kept part counts)
//! and the pass's move epoch are written only when the chosen part
//! differs from the current one. A worker keeps its own copy of the loads
//! and reloads it only when the move epoch has changed since. A visit
//! first tries its stay certificate with its own detached load passed in
//! separately (see below); only a visit that step does not settle
//! detaches the vertex's own weight by patching one entry of that copy,
//! and restores it after scoring. Everything a worker writes per vertex
//! — counts, load view, scorer scratch, its log — sits in its own
//! 128-byte-aligned worker slot, so a visit that keeps its vertex in
//! place causes no cross-core traffic.
//! The log holds what the batch boundary must apply: only the moves when
//! the provider's counts follow the live assignment and the doubt buffer
//! is off, every visit otherwise. The boundary's serial work therefore
//! follows the moves of an in-memory run, not its batch.
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
//! stay. A visit whose certificate a neighbour's move voided copies its
//! counts and computes the load-free terms, then tries the same proof
//! with its current part's gap taken from those terms
//! ([`crate::value::terms_gap`]): the counts are current, so when the
//! proof holds the vertex stays without the value loop or the selection
//! scan, and the visit stores the certificate a scored stay would. All
//! three strategies decide visits through one helper; both proofs are
//! exact, so partitions are unchanged.
//!
//! The load half of both proofs costs O(1), not a scan of the `p` loads:
//! every load view keeps a [`LoadSummary`] — its lightest and heaviest
//! loads with their parts and runners-up — and the proof
//! ([`crate::value::certified_margin_with`]) reads the rivals' extremes
//! from it and the visit's own detached load separately. A summary stays
//! valid while no load but the visited part's changes, so the visit's own
//! detach never stales it. The rule is *stale on write*: the engine
//! state's loads, which live placements read, are written only through
//! one detach/attach pair, and it marks the summary stale when a write
//! changes a load's bits — a move, or a stay of a fractional weight whose
//! `(L − w) + w` rounds away from `L` — at placements, window applies,
//! batch applies and the seed pass alike; the next certifying placement
//! recomputes it. A bulk-synchronous worker recomputes its view's summary
//! at each window start and after a visit that changed one of its two
//! entries' bits, a stealing worker at each reload of its cached loads,
//! once per peer move. Debug builds compare every proof with the scan of
//! [`crate::value::certified_margin`] and every kept summary with a fresh
//! one. Certificates are off
//! while the doubt buffer is on (it needs every visit's margin), and
//! providers that keep no counts make none. Debug builds re-score every
//! certified and every proven visit and recompute every live certificate
//! wherever they check the counts. Sequential and window-apply moves
//! shift the counts through `&mut` access
//! ([`ConnectivityProvider::moved_exclusive`]); only stealing workers use
//! atomic read-modify-writes.
//!
//! The refinement phase stops on the partitioning communication cost,
//! evaluated after every pass from the part-pair counts `M` the provider
//! keeps, with one O(p²) dot ([`ConnectivityProvider::comm_cost`]).
//! `AdjProvider` sums `M` from its rows when synced over every vertex;
//! synced on a subset — a warm run over a dirty set — it takes the `M`
//! its caller resumed ([`AdjProvider::resume`]) or counts it once. Each
//! exclusive move shifts `M` by the mover's own counts. A stealing
//! worker's move cannot, as a peer's move may shift those counts
//! meanwhile; the batch boundary, which holds the provider alone, replays
//! each logged move instead ([`ConnectivityProvider::replay`]): one walk
//! of the mover's neighbours against the assignment as of its move, and
//! `M` shifts by those counts. So `M` is exact after every batch and is
//! counted afresh only at sync. The integers are exact and the dot is the
//! one [`crate::metrics`] shares, so a pass's cost is bit-identical to
//! [`crate::metrics::partitioning_communication_cost`]. Out-of-core
//! providers keep no `M`; their runs stop on fixed points and the
//! iteration limit only.
//!
//! When a pass's cost exceeds the previous feasible pass's, the run
//! returns that earlier partition. The engine then moves every vertex
//! whose part differs back through
//! [`ConnectivityProvider::moved_exclusive`], so however a run stops, the
//! provider ends synced to the partition it returns, and a caller can take
//! `M` back for it ([`AdjProvider::into_comm_state`]). Debug builds assert
//! this of the kept counts and `M` at the end of every run. Stay
//! certificates are outside that check: a vertex moved back keeps the
//! certificate of the part it left, and nothing reads it after the run.
//!
//! The engine also owns the two cross-cutting quality devices the drivers
//! used to duplicate: the bounded **doubt buffer** (the `k`
//! lowest-confidence placements are revisited once against the final
//! state) and **sketch rebuilding** (providers that cannot forget are
//! reset between restreaming passes to shed staleness).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering as AtomicOrdering};
use std::thread;

use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::io::{IoError, IoResult};
use hyperpraw_hypergraph::{AssignmentRef, ChunkCursor, HyperedgeId, Partition, VertexId};
use hyperpraw_telemetry::{Counter, Gauge, Histogram, Registry};
use hyperpraw_topology::CostMatrix;

use crate::history::{IterationRecord, PartitionHistory, StreamPhase};
#[cfg(debug_assertions)]
use crate::value::best_partition_in;
use crate::value::{
    certified_margin, certified_margin_with, comm_terms, select_partition, terms_gap, LoadSummary,
    ValueScratch,
};
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
    /// Communication cost of the returned partition (`NaN` when the
    /// provider keeps no part-pair counts).
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
/// `W(k)` and the expected workloads `E(k)`, with the [`LoadSummary`] of
/// the workloads that the live placements' stay certificates read.
///
/// Every write to `loads` goes through [`EngineState::detach`] and
/// [`EngineState::attach`], which mark the summary stale when a load's
/// bits change; [`EngineState::refresh_summary`] recomputes it only then.
#[derive(Clone, Debug)]
struct EngineState {
    partition: Partition,
    loads: Vec<f64>,
    expected: Vec<f64>,
    summary: LoadSummary,
    /// Whether `summary` still describes `loads`.
    fresh: bool,
}

impl EngineState {
    fn new(partition: Partition, loads: Vec<f64>, expected: Vec<f64>) -> Self {
        EngineState {
            partition,
            loads,
            expected,
            summary: LoadSummary::default(),
            fresh: false,
        }
    }

    /// Detaches weight `w` from part `cur` for a visit and returns what
    /// [`EngineState::attach`] needs to close it: the part and its load
    /// before the detach. The visit on `cur` reads that part's load
    /// separately from the summary, so the detach leaves it valid.
    fn detach(&mut self, cur: u32, w: f64) -> (u32, f64) {
        let held = self.loads[cur as usize];
        self.loads[cur as usize] = held - w;
        (cur, held)
    }

    /// Attaches weight `w` to part `target`, closing a visit that detached
    /// it with [`EngineState::detach`] (`from`, or `None` for an
    /// unassigned vertex). The summary stays fresh only when the vertex
    /// stayed and its part's load regained the bits it held before the
    /// detach, which a fractional weight's `(L − w) + w` need not.
    fn attach(&mut self, target: u32, w: f64, from: Option<(u32, f64)>) {
        let load = &mut self.loads[target as usize];
        *load += w;
        self.fresh &=
            from.is_some_and(|(cur, held)| cur == target && held.to_bits() == load.to_bits());
    }

    /// Recomputes the summary if a write has changed a load since.
    fn refresh_summary(&mut self) {
        if !self.fresh {
            self.summary = LoadSummary::of(&self.loads);
            self.fresh = true;
        }
        debug_assert!(self.summary_agrees(), "a load write left the summary stale");
    }

    /// Whether the summary, when marked fresh, describes the loads — the
    /// debug builds' check before every certifying live placement and at
    /// every pass end.
    fn summary_agrees(&self) -> bool {
        !self.fresh || self.summary == LoadSummary::of(&self.loads)
    }

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

/// The loads one visit is decided against: the view the scorer reads,
/// the summary a stay proof reads instead, and the uniform expected
/// loads. The summary answers for every part but the visit's current
/// one, whose load with the vertex detached the proof takes separately.
#[derive(Clone, Copy)]
struct LoadView<'a> {
    loads: &'a [f64],
    summary: &'a LoadSummary,
    expected: &'a [f64],
}

/// What the certificate step of a visit found.
enum Check {
    /// The kept certificate proved the stay.
    Stays(Decision),
    /// The visit must be scored, with the certificate stamp read, if any.
    Score(Option<StayCertificate>),
}

/// One worker's scoring state, created once per run and reused across
/// windows and passes: the provider scratch, the counts and scorer
/// buffers, and the tallies of certified and proven stays.
struct Scorer<T> {
    scratch: T,
    counts: Vec<u32>,
    value: ValueScratch,
    /// Whether visits check and make stay certificates.
    certify: bool,
    /// Visits kept in place by a stored certificate since the last flush.
    certified: u64,
    /// Visits whose stay was proved from freshly copied counts since the
    /// last flush.
    proven: u64,
}

impl<T> Scorer<T> {
    fn new<P: ConnectivityProvider<Scratch = T>>(provider: &P, p: usize, certify: bool) -> Self {
        Scorer {
            scratch: provider.new_scratch(),
            counts: Vec::with_capacity(p),
            value: ValueScratch::new(),
            certify,
            certified: 0,
            proven: 0,
        }
    }

    /// Decides one visit of `record`, currently on `current`, against
    /// `assignment` and `view` — whose loads are the loads as the scorer
    /// sees them, the vertex's own weight already detached.
    ///
    /// When `record`'s stay certificate is still valid, names `current`
    /// and [`Scorer::prove`] proves it, the visit keeps its part without
    /// copying counts or scoring. Otherwise the counts are copied and their
    /// load-free terms computed. When a neighbour's move voided the
    /// certificate, `current`'s gap from those terms may prove the stay at
    /// once, without the value loop and the selection scan; failing that,
    /// the terms are scored. Either outcome is certified under the
    /// generation read before the copy. The caller applies the decision
    /// the same way either way, so a certified or proven stay does the load
    /// arithmetic of a scored one.
    ///
    /// This is [`Scorer::check`] followed by [`Scorer::score`]; a caller
    /// that detaches the vertex only to score runs the two itself.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn decide<P, A>(
        &mut self,
        provider: &P,
        record: &VertexRecord,
        assignment: &A,
        cost: &CostMatrix,
        alpha: f64,
        current: Option<u32>,
        view: LoadView<'_>,
    ) -> Decision
    where
        P: ConnectivityProvider<Scratch = T>,
        A: AssignmentRef,
    {
        let home = current.map(|part| (part, view.loads[part as usize]));
        match self.check(provider, record, assignment, cost, alpha, home, view) {
            Check::Stays(decision) => decision,
            Check::Score(stamp) => self.score(
                provider, record, assignment, cost, alpha, current, stamp, view,
            ),
        }
    }

    /// The certificate step of a visit of `record`. `home` is the part the
    /// vertex is on with that part's load with the vertex detached, which
    /// `view`'s loads need not show yet. When the vertex's stay certificate
    /// is still valid, names that part and [`Scorer::prove`] proves it, the
    /// visit stays; otherwise it must be scored ([`Scorer::score`]) with
    /// the stamp this step read. Only debug builds' re-scoring reads
    /// `assignment` and `cost`.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn check<P, A>(
        &mut self,
        provider: &P,
        record: &VertexRecord,
        assignment: &A,
        cost: &CostMatrix,
        alpha: f64,
        home: Option<(u32, f64)>,
        view: LoadView<'_>,
    ) -> Check
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
        debug_assert!(stamp.is_none() || view.expected.iter().all(|&e| e == view.expected[0]));
        let (Some((part, gap)), Some((current, own))) = (stamp.and_then(|s| s.stay), home) else {
            return Check::Score(stamp);
        };
        if part != current {
            return Check::Score(stamp);
        }
        let Some(margin) = Self::prove(gap, part, alpha, own, view) else {
            return Check::Score(stamp);
        };
        self.certified += 1;
        // Debug builds re-score the visit and require `part`. Under work
        // stealing a peer's move may shift the counts after the
        // certificate was read; the generation bump that follows such a
        // shift must then show up.
        #[cfg(debug_assertions)]
        {
            let generation = stamp.map(|s| s.generation);
            let loads = detached(view.loads, part, own);
            provider.count(record, assignment, &mut self.scratch, &mut self.counts);
            let counts = &self.counts;
            let scored =
                best_partition_in(counts, cost, alpha, &loads, view.expected, &mut self.value);
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
        Check::Stays(Decision { part, margin })
    }

    /// The scoring step of a visit that [`Scorer::check`] did not settle,
    /// with the stamp it read, against `view`'s loads with the vertex
    /// detached from `current`.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn score<P, A>(
        &mut self,
        provider: &P,
        record: &VertexRecord,
        assignment: &A,
        cost: &CostMatrix,
        alpha: f64,
        current: Option<u32>,
        stamp: Option<StayCertificate>,
        view: LoadView<'_>,
    ) -> Decision
    where
        P: ConnectivityProvider<Scratch = T>,
        A: AssignmentRef,
    {
        let v = record.vertex;
        provider.count(record, assignment, &mut self.scratch, &mut self.counts);
        comm_terms(&self.counts, cost, &mut self.value);
        if let (Some(stamp), Some(part), None) = (stamp, current, stamp.and_then(|s| s.stay)) {
            // The same proof from the counts just copied, which are
            // current: the gap is the one a scored stay would store.
            let gap = terms_gap(part, &mut self.value);
            let own = view.loads[part as usize];
            if let Some(margin) = Self::prove(gap, part, alpha, own, view) {
                self.proven += 1;
                provider.certify(v, stamp.generation, part, gap);
                #[cfg(debug_assertions)]
                {
                    let counts = &self.counts;
                    let scored = best_partition_in(
                        counts,
                        cost,
                        alpha,
                        view.loads,
                        view.expected,
                        &mut self.value,
                    );
                    assert_eq!(
                        (scored.part, scored.gap.to_bits()),
                        (part, gap.to_bits()),
                        "vertex {v} proved on part {part}, but its counts score otherwise"
                    );
                }
                return Decision { part, margin };
            }
        }
        let scored = select_partition(alpha, view.loads, view.expected, &mut self.value);
        if let Some(stamp) = stamp {
            provider.certify(v, stamp.generation, scored.part, scored.gap);
        }
        Decision {
            part: scored.part,
            margin: scored.margin,
        }
    }

    /// Proves a stay on `part` with communication gap `gap` under `alpha`:
    /// [`certified_margin_with`] over `own`, `part`'s load with the vertex
    /// detached, and `view`'s summary for the other parts. Every strategy's
    /// certificate and fresh proof go through here. Debug builds require
    /// the result, settled or refused, to equal the scan of
    /// [`certified_margin`] over `view`'s loads with `own` in place, bit for
    /// bit: a stale summary shows up there.
    fn prove(gap: f64, part: u32, alpha: f64, own: f64, view: LoadView<'_>) -> Option<f64> {
        let expected = view.expected[0];
        let margin = certified_margin_with(gap, part, own, view.summary, alpha, expected);
        debug_assert_eq!(
            margin.map(f64::to_bits),
            certified_margin(gap, part, alpha, &detached(view.loads, part, own), expected)
                .map(f64::to_bits),
            "the load summary disagrees with the loads for a stay on part {part}"
        );
        margin
    }
}

/// `loads` with `part`'s entry set to `own`: the loads a visit on `part`
/// scores against, for the debug builds' checks.
fn detached(loads: &[f64], part: u32, own: f64) -> Vec<f64> {
    let mut loads = loads.to_vec();
    loads[part as usize] = own;
    loads
}

/// Per-worker scratch buffers, created once per run and reused across
/// windows and passes: the scorer, the load view with its
/// [`LoadSummary`], and the work-stealing cache and log. A worker writes
/// its slot's `Vec` headers for every vertex it scores, so slots are
/// aligned to 128 bytes — two cache lines, the unit adjacent-line
/// prefetchers pull in — and never share a line with a peer's.
#[repr(align(128))]
struct WorkerSlot<T> {
    scorer: Scorer<T>,
    delta: Vec<f64>,
    loads_view: Vec<f64>,
    /// The [`LoadSummary`] of `loads_view` when the scorer certifies:
    /// recomputed by the bulk-synchronous strategy at each window start
    /// and after a visit that changed an entry's bits, by the
    /// work-stealing strategy at each reload of `fixed_loads`.
    summary: LoadSummary,
    /// The work-stealing strategy's cached copy of the shared fixed-point
    /// loads, of which `loads_view` is the `f64` view, as of move epoch
    /// `epoch`.
    fixed_loads: Vec<i64>,
    epoch: u64,
    /// The work-stealing strategy's `(batch index, part, margin)` log of
    /// the current batch: what the batch boundary must apply.
    log: Vec<(usize, u32, f64)>,
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
                summary: LoadSummary::default(),
                fixed_loads: vec![0; p],
                epoch: STALE_EPOCH,
                log: Vec::new(),
            });
        }
    }
}

/// A [`WorkerSlot::epoch`] no pass reaches: the cached loads are reloaded
/// at the next visit.
const STALE_EPOCH: u64 = u64::MAX;

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
    if scorer.certify {
        state.refresh_summary();
    }
    let from = current.map(|cur| {
        provider.detach(record, cur);
        state.detach(cur, w)
    });
    let view = LoadView {
        loads: &state.loads,
        summary: &state.summary,
        expected: &state.expected,
    };
    let decision = scorer.decide(
        provider,
        record,
        &state.partition,
        cost,
        alpha,
        current,
        view,
    );
    set_part(
        provider,
        &mut state.partition,
        record.vertex,
        decision.part,
        &mut scorer.scratch,
    );
    state.attach(decision.part, w, from);
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
    /// Wall-clock of the provider sync at the start of each run,
    /// microseconds.
    sync_us: Histogram,
    /// Vertices visited across all passes (each pass streams the source
    /// once), certified visits included.
    vertices_scored: Counter,
    /// Visits a stored stay certificate kept in place without copying
    /// counts or scoring.
    certified_visits: Counter,
    /// Visits whose stay was proved from freshly copied counts, without
    /// the value loop or the selection scan.
    proven_stays: Counter,
    /// Doubt-buffer entries at the end of the latest pass.
    doubt_entries: Gauge,
    /// Doubt-buffer payload bytes at the end of the latest pass.
    doubt_bytes: Gauge,
    /// Chunks claimed off the shared cursor (work-stealing strategy).
    steal_chunk_claims: Counter,
    /// Batch-boundary applies (work-stealing strategy).
    steal_batch_applies: Counter,
    /// Wall-clock of each batch fill on the engine thread, the empty fill
    /// that ends a pass included, microseconds (work-stealing strategy).
    steal_fill_us: Histogram,
    /// Wall-clock of each batch's thread team, spawn to join,
    /// microseconds (work-stealing strategy).
    steal_team_us: Histogram,
    /// Wall-clock of each batch-boundary apply, its replay included,
    /// microseconds (work-stealing strategy).
    steal_apply_us: Histogram,
}

impl EngineMetrics {
    fn bind(registry: &Registry) -> Self {
        EngineMetrics {
            pass_time_us: registry.histogram("engine.pass_time_us"),
            commcost_eval_us: registry.histogram("engine.commcost_eval_us"),
            sync_us: registry.histogram("engine.sync_us"),
            vertices_scored: registry.counter("engine.vertices_scored"),
            certified_visits: registry.counter("engine.certified_visits"),
            proven_stays: registry.counter("engine.proven_stays"),
            doubt_entries: registry.gauge("engine.doubt.entries"),
            doubt_bytes: registry.gauge("engine.doubt.bytes"),
            steal_chunk_claims: registry.counter("engine.steal.chunk_claims"),
            steal_batch_applies: registry.counter("engine.steal.batch_applies"),
            steal_fill_us: registry.histogram("engine.steal.fill_us"),
            steal_team_us: registry.histogram("engine.steal.team_us"),
            steal_apply_us: registry.histogram("engine.steal.apply_us"),
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
    /// communication-cost matrix `cost`, with per-pass costs read from the
    /// provider.
    pub fn run<S, P>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
    ) -> IoResult<EngineRun>
    where
        S: VertexSource,
        P: ConnectivityProvider,
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
        let mut state = EngineState::new(partition, vec![0.0f64; p], vec![expected_load; p]);
        let assigned = match config.initial {
            InitialAssignment::RoundRobin => {
                self.seed_round_robin(source, provider, &mut state)?;
                true
            }
            InitialAssignment::Unassigned => false,
        };
        self.run_loop(cost, source, provider, state, assigned, n, e)
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
    pub fn run_warm<S, P>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        warm: WarmStart,
    ) -> IoResult<EngineRun>
    where
        S: VertexSource,
        P: ConnectivityProvider,
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
        let state = EngineState::new(warm.partition, warm.loads, vec![expected_load; p]);
        self.run_loop(cost, source, provider, state, true, n, e)
    }

    /// The shared restreaming loop behind [`Engine::run`] and
    /// [`Engine::run_warm`]: α tempering until the tolerance is met, then
    /// refinement with comm-cost rollback, then the doubt revisit.
    #[allow(clippy::too_many_arguments)] // one state bundle, two public entries
    fn run_loop<S, P>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        mut state: EngineState,
        mut assigned: bool,
        n: usize,
        e: usize,
    ) -> IoResult<EngineRun>
    where
        S: VertexSource,
        P: ConnectivityProvider,
    {
        let p = state.loads.len();
        let config = &self.config;
        let sync_span = self.metrics.sync_us.span();
        provider.sync(&state.partition, source.visits());
        sync_span.finish();

        let mut alpha = config
            .initial_alpha
            .unwrap_or_else(|| HyperPrawConfig::fennel_alpha(p as u32, n, e));

        let mut history = PartitionHistory::new();
        // Best feasible (within-tolerance) partition seen so far, with its
        // cost and imbalance. Only tracked when the provider answers the
        // cost — without costs there is nothing to roll back to.
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
            for slot in &mut slots {
                let scorer = &mut slot.scorer;
                self.metrics
                    .certified_visits
                    .add(std::mem::take(&mut scorer.certified));
                self.metrics
                    .proven_stays
                    .add(std::mem::take(&mut scorer.proven));
            }
            debug_assert!(
                consistent(provider, &state.partition, cost),
                "provider state drifted from the assignment by the end of pass {pass}"
            );
            debug_assert!(
                state.summary_agrees(),
                "a load write left the summary stale by the end of pass {pass}"
            );
            self.metrics.doubt_entries.set(doubts.heap.len() as i64);
            self.metrics.doubt_bytes.set(doubts.bytes as i64);
            assigned = true;

            let imbalance = state.imbalance();
            let comm_cost = self.eval_comm_cost(provider, &state.partition, cost);
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
                    // stop there too. Without costs only the fixed-point
                    // and iteration-limit rules apply.
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
        // one exists, otherwise whatever the final stream produced. A
        // snapshot that differs from the live assignment (a cost rollback)
        // is restored through the provider, which then stays synced to it.
        let (comm_cost, imbalance) = match previous_feasible {
            Some((best, c, imb)) => {
                let scratch = &mut slots[0].scorer.scratch;
                for v in 0..best.num_vertices() as VertexId {
                    set_part(provider, &mut state.partition, v, best.part_of(v), scratch);
                }
                (c, imb)
            }
            None => {
                let c = self.eval_comm_cost(provider, &state.partition, cost);
                (c.unwrap_or(f64::NAN), state.imbalance())
            }
        };
        debug_assert!(
            provider.agrees_with(&state.partition),
            "provider state drifted from the returned partition"
        );

        Ok(EngineRun {
            partition: state.partition,
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

    /// One timed comm-cost evaluation of `partition`, the assignment the
    /// provider is synced to, from the provider's kept part-pair counts.
    fn eval_comm_cost<P: ConnectivityProvider>(
        &self,
        provider: &mut P,
        partition: &Partition,
        cost: &CostMatrix,
    ) -> Option<f64> {
        let span = self.metrics.commcost_eval_us.span();
        let comm_cost = provider.comm_cost(partition, cost);
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
            state.attach(part, record.weight, None);
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
                            let certify = slot.scorer.certify;
                            if certify {
                                slot.summary = LoadSummary::of(&slot.loads_view);
                            }
                            let mut local: Vec<(u32, f64)> = Vec::with_capacity(chunk.len());
                            for record in chunk {
                                let w = record.weight;
                                let current = assigned.then(|| snapshot.part_of(record.vertex));
                                let held = current.map(|cur| {
                                    let cur = cur as usize;
                                    let held = slot.loads_view[cur];
                                    slot.delta[cur] -= w;
                                    slot.loads_view[cur] =
                                        snapshot_loads[cur] + slot.delta[cur] * scale;
                                    held
                                });
                                let view = LoadView {
                                    loads: &slot.loads_view,
                                    summary: &slot.summary,
                                    expected,
                                };
                                let decision = slot.scorer.decide(
                                    provider_ref,
                                    record,
                                    snapshot,
                                    cost,
                                    config_alpha,
                                    current,
                                    view,
                                );
                                let t = decision.part as usize;
                                slot.delta[t] += w;
                                slot.loads_view[t] = snapshot_loads[t] + slot.delta[t] * scale;
                                // The visit wrote at most its two entries:
                                // unless it stayed and its entry regained
                                // its bits, the summary is stale.
                                let kept = current == Some(decision.part)
                                    && held.is_some_and(|h| {
                                        h.to_bits() == slot.loads_view[t].to_bits()
                                    });
                                if certify && !kept {
                                    slot.summary = LoadSummary::of(&slot.loads_view);
                                }
                                debug_assert!(
                                    !certify || slot.summary == LoadSummary::of(&slot.loads_view),
                                    "a window visit left the summary stale"
                                );
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
                    let from = current.map(|cur| {
                        provider.detach(record, cur);
                        state.detach(cur, w)
                    });
                    set_part(
                        provider,
                        &mut state.partition,
                        v,
                        target,
                        &mut slots[0].scorer.scratch,
                    );
                    state.attach(target, w, from);
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
    /// Workers write shared state only when a vertex moves: the load
    /// counters, the atomic assignment, the provider's
    /// [`ConnectivityProvider::moved`] and then the pass's move epoch,
    /// with release ordering. A worker caches the loads and their `f64`
    /// view in its cache-line-aligned [`WorkerSlot`] and reloads them only
    /// when the epoch, read with acquire ordering, has moved since, and
    /// recomputes the view's [`LoadSummary`] with each reload. A visit
    /// runs the certificate step ([`Scorer::check`]) first, with its
    /// current part's detached load `fixed − w` passed on its own, so a
    /// certified visit neither patches nor restores the view; a visit that
    /// step does not settle patches that one entry, is scored, and
    /// restores it. Most visits therefore cause no cross-core traffic and
    /// touch none of the `p` loads.
    ///
    /// Each worker logs what the boundary must apply. For a provider whose
    /// counts follow the live assignment, with the doubt buffer off, that
    /// is its moves only: such a provider keeps no state at
    /// attach/detach, and nothing else reads a stay. The index providers
    /// record every placement at attach and the doubt buffer offers every
    /// visit, so otherwise the log holds every visit with its margin. The
    /// boundary applies the logs in worker order in one loop and replays
    /// each move on the provider ([`ConnectivityProvider::replay`])
    /// against the assignment as of that move, so its serial cost follows
    /// the log, not the batch.
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
        // Bumped by every move after its load updates (release), read by
        // every visit (acquire): a worker whose cached epoch is current
        // holds the loads of every move the epoch counts.
        let move_epoch = AtomicU64::new(0);
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
        let log_visits = !provider.live_counts() || self.config.doubts.capacity > 0;
        let mut moved = 0usize;

        loop {
            // Fill the batch on the engine thread (reusing allocations) so
            // IO errors surface before any worker is spawned.
            let fill_span = self.metrics.steal_fill_us.span();
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
            fill_span.finish();
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
                let move_epoch = &move_epoch;
                let expected = &state.expected[..];
                let provider_ref: &P = provider;
                let chunk_claims = &self.metrics.steal_chunk_claims;

                let run_worker = |slot: &mut WorkerSlot<P::Scratch>| {
                    slot.loads_view.resize(p, 0.0);
                    let certify = slot.scorer.certify;
                    // The counters were re-synced since the last batch.
                    slot.epoch = STALE_EPOCH;
                    slot.log.clear();
                    while let Some(range) = cursor.claim() {
                        chunk_claims.inc();
                        for i in range {
                            let record = &records[i];
                            let w = to_fixed(record.weight);
                            let epoch = move_epoch.load(AtomicOrdering::Acquire);
                            if epoch != slot.epoch {
                                slot.epoch = epoch;
                                let cached = slot.fixed_loads.iter_mut().zip(&mut slot.loads_view);
                                for ((fixed, local), counter) in cached.zip(shared) {
                                    *fixed = counter.load(AtomicOrdering::Relaxed);
                                    *local = from_fixed(*fixed);
                                }
                                if certify {
                                    slot.summary = LoadSummary::of(&slot.loads_view);
                                }
                            }
                            debug_assert!(
                                !certify || slot.summary == LoadSummary::of(&slot.loads_view),
                                "the cached loads changed without a reload"
                            );
                            // The certificate step reads the current
                            // part's detached load on its own; only a
                            // visit it does not settle patches the view
                            // (and restores it after scoring).
                            let prior = view.part_of(record.vertex);
                            let current = assigned.then_some(prior);
                            let home = current
                                .map(|cur| (cur, from_fixed(slot.fixed_loads[cur as usize] - w)));
                            let loads = LoadView {
                                loads: &slot.loads_view,
                                summary: &slot.summary,
                                expected,
                            };
                            let check = slot.scorer.check(
                                provider_ref,
                                record,
                                view,
                                cost,
                                alpha,
                                home,
                                loads,
                            );
                            let decision = match check {
                                Check::Stays(decision) => decision,
                                Check::Score(stamp) => {
                                    if let Some((cur, own)) = home {
                                        slot.loads_view[cur as usize] = own;
                                    }
                                    let loads = LoadView {
                                        loads: &slot.loads_view,
                                        summary: &slot.summary,
                                        expected,
                                    };
                                    let decision = slot.scorer.score(
                                        provider_ref,
                                        record,
                                        view,
                                        cost,
                                        alpha,
                                        current,
                                        stamp,
                                        loads,
                                    );
                                    if let Some(cur) = current {
                                        let cur = cur as usize;
                                        slot.loads_view[cur] = from_fixed(slot.fixed_loads[cur]);
                                    }
                                    decision
                                }
                            };
                            let target = decision.part;
                            let moving = current != Some(target);
                            if moving {
                                if let Some(old) = current {
                                    shared[old as usize].fetch_sub(w, AtomicOrdering::Relaxed);
                                }
                                shared[target as usize].fetch_add(w, AtomicOrdering::Relaxed);
                                move_epoch.fetch_add(1, AtomicOrdering::Release);
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
                            if moving || log_visits {
                                slot.log.push((i, target, decision.margin));
                            }
                        }
                    }
                };

                // Spawn the team once per batch: workers 1.. on scoped
                // threads, worker 0 on the engine thread itself.
                let team_span = self.metrics.steal_team_us.span();
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
                team_span.finish();
            }

            // Apply at the batch boundary, the logs in worker order: load
            // accounting, provider detach/replay/attach, move counting and
            // doubt collection all run on the engine thread. Each vertex
            // is visited once per pass, so `state.partition` still holds
            // every logged vertex on the part its worker read, and a
            // logged vertex moved exactly when its worker reported the
            // move to the provider.
            let apply_span = self.metrics.steal_apply_us.span();
            let (first, rest) = slots[..workers].split_at_mut(1);
            let WorkerSlot { scorer, log, .. } = &mut first[0];
            for &(i, target, margin) in log.iter().chain(rest.iter().flat_map(|s| &s.log)) {
                let record = &records[i];
                let (v, w) = (record.vertex, record.weight);
                let prior = state.partition.part_of(v);
                let current = assigned.then_some(prior);
                let from = current.map(|cur| {
                    provider.detach(record, cur);
                    state.detach(cur, w)
                });
                if prior != target {
                    provider.replay(v, prior, target, &state.partition, &mut scorer.scratch);
                    state.partition.set(v, target);
                }
                state.attach(target, w, from);
                provider.attach(record, target);
                if current != Some(target) {
                    moved += 1;
                }
                doubts.offer(&self.config.doubts, provider, record, target, margin);
            }
            apply_span.finish();
            debug_assert!(
                consistent(provider, &state.partition, cost),
                "provider state drifted from the assignment at a batch boundary"
            );
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
    let scaled = load * (1i64 << LOAD_FRACTION_BITS) as f64;
    // Integer weights scale to integers, which rounding would return
    // unchanged: skip the `round` call for them.
    let whole = scaled as i64;
    if whole as f64 == scaled {
        whole
    } else {
        scaled.round() as i64
    }
}

fn from_fixed(load: i64) -> f64 {
    load as f64 / (1i64 << LOAD_FRACTION_BITS) as f64
}
