//! The restreaming engine — the one implementation of the paper's
//! Algorithm 1 behind [`crate::HyperPraw`] and the dynamic layer's warm
//! restreams.
//!
//! HyperPRAW's restreaming loop is a single algorithm: visit every vertex,
//! score each candidate partition with the value function of
//! [`crate::value`], assign greedily, temper the balance weight `α` until
//! the imbalance tolerance holds, then refine while the partitioning
//! communication cost improves. The vertices come from an in-memory
//! [`Hypergraph`] in a visit order: the configuration's
//! [`crate::StreamOrder`] for a cold run ([`Engine::run`]), the caller's
//! dirty set for a warm one ([`Engine::run_warm`]). The connectivity
//! state lives in one concrete [`AdjProvider`], and the schedule is a
//! thread count:
//!
//! ```text
//!                  ┌──────────────────────────────┐
//!                  │          Engine::run         │
//!                  │  visit order · α tempering   │
//!                  │  tolerance / comm-cost stop  │
//!                  │       PartitionHistory       │
//!                  └───────┬──────────────┬───────┘
//!              ┌───────────┘              └───────────┐
//!              ▼                                      ▼
//!         AdjProvider                        ExecutionStrategy
//!   "who are its neighbours?"                "who decides when?"
//!   exact part counts per                    ├ 1 thread: sequential (fresh
//!   visited vertex, shifted on               │   info per vertex, deterministic)
//!   moves; neighbours by traversal           └ more: work stealing (atomic
//!                                                cursor, live shared state,
//!                                                bounded staleness, fast)
//! ```
//!
//! The thread count trades determinism against wall-clock: **one
//! thread** is the paper's Algorithm 1 and the determinism anchor;
//! **more threads** run without a barrier — one thread team per batch
//! claims fixed-size vertex chunks off a shared atomic cursor
//! ([`hyperpraw_hypergraph::ChunkCursor`]) and scores against *live*
//! shared state (the assignment as an atomic slice, per-part loads as
//! fixed-point atomics), accepting bounded staleness in exchange for
//! near-linear scaling.
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
//! A worker's log holds its moves only, which is all the batch boundary
//! applies, so the boundary's serial work follows the moves, not the
//! batch. A batch is a slice of the visit order.
//!
//! [`crate::HyperPraw`] streams on one thread unless
//! [`crate::HyperPraw::with_threads`] asks for more.
//!
//! `AdjProvider` answers the distinct-neighbour query with exact integer
//! counts: every visit copies the part counts `X(v)` the provider keeps
//! for each vertex the run visits. The engine keeps those counts exact
//! through the provider's [`AdjProvider::sync`] once per run from the
//! starting assignment (one neighbourhood walk per visited vertex), and
//! its move methods wherever the assignment the counts read changes — at
//! each one-thread placement and in the stealing worker next to its write
//! of the live assignment. A visit is therefore an O(p) copy, and neighbourhoods are
//! walked only at sync and when their vertex moves, by a traversal of the
//! vertex's pins. Debug builds check the counts against a recount at
//! every pass end and stealing batch boundary.
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
//! scan, and the visit stores the certificate a scored stay would. One
//! thread and many decide visits through one helper; both proofs are
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
//! `(L − w) + w` rounds away from `L` — at placements and batch applies
//! alike; the next placement recomputes it. A
//! stealing worker recomputes its view's summary at each reload of its
//! cached loads, once per peer move. Debug builds compare every proof
//! with the scan of [`crate::value::certified_margin`] and every kept
//! summary with a fresh one. They also re-score every
//! certified and every proven visit and recompute every live certificate
//! wherever they check the counts. One-thread placements and batch-apply
//! moves shift the counts through `&mut` access
//! ([`AdjProvider::moved_exclusive`]); only stealing workers use atomic
//! read-modify-writes ([`AdjProvider::moved`]).
//!
//! The refinement phase stops on the partitioning communication cost,
//! evaluated after every pass from the part-pair counts `M` the provider
//! keeps, with one O(p²) dot ([`AdjProvider::comm_cost`]).
//! `AdjProvider` sums `M` from its rows when synced over every vertex;
//! synced on a subset — a warm run over a dirty set — it takes the `M`
//! its caller resumed ([`AdjProvider::resume`]) or counts it once. Each
//! exclusive move shifts `M` by the mover's own counts. A stealing
//! worker's move cannot, as a peer's move may shift those counts
//! meanwhile; the batch boundary, which holds the provider alone, replays
//! each logged move instead ([`AdjProvider::replay`]): one walk
//! of the mover's neighbours against the assignment as of its move, and
//! `M` shifts by those counts. So `M` is exact after every batch and is
//! counted afresh only at sync. The integers are exact and the dot is the
//! one [`crate::metrics`] shares, so a pass's cost is bit-identical to
//! [`crate::metrics::partitioning_communication_cost`].
//!
//! When a pass's cost exceeds the previous feasible pass's, the run
//! returns that earlier partition. The engine then moves every vertex
//! whose part differs back through
//! [`AdjProvider::moved_exclusive`], so however a run stops, the
//! provider ends synced to the partition it returns, and a caller can take
//! `M` back for it ([`AdjProvider::into_comm_state`]). Debug builds assert
//! this of the kept counts and `M` at the end of every run. Stay
//! certificates are outside that check: a vertex moved back keeps the
//! certificate of the part it left, and nothing reads it after the run.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering as AtomicOrdering};
use std::thread;

use hyperpraw_hypergraph::{
    load_imbalance, AssignmentRef, ChunkCursor, Hypergraph, Partition, VertexId,
};
use hyperpraw_telemetry::{Counter, Histogram, Registry};
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

pub use provider::{AdjProvider, AdjScratch, StayCertificate};
pub use source::stream_order;

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

/// How many threads execute one stream over the vertices.
///
/// One thread makes one decision at a time with fully fresh information —
/// the paper's sequential Algorithm 1, and the determinism anchor. More
/// threads run lock-free work stealing: one thread team per batch claims
/// `chunk`-vertex chunks off a shared atomic cursor and scores against
/// *live* shared state — the assignment as an `AtomicU32` slice, per-part
/// loads as fixed-point `AtomicI64` counters — with bounded staleness
/// instead of a barrier. That is fast and valid at any thread count, but
/// not bit-reproducible across runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutionStrategy {
    /// Number of worker threads; one runs the sequential loop.
    pub num_threads: usize,
    /// Vertices per claimed chunk when more than one thread streams.
    /// [`DEFAULT_STEAL_CHUNK`] suits most runs.
    pub chunk: usize,
}

impl ExecutionStrategy {
    /// `num_threads` workers claiming [`DEFAULT_STEAL_CHUNK`]-vertex
    /// chunks.
    pub fn threads(num_threads: usize) -> Self {
        ExecutionStrategy {
            num_threads,
            chunk: DEFAULT_STEAL_CHUNK,
        }
    }

    /// Validates the thread and chunk counts, returning the first problem
    /// found.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.num_threads == 0 {
            return Err("need at least one worker thread".into());
        }
        if self.chunk == 0 {
            return Err("work-stealing chunk must be at least 1".into());
        }
        Ok(())
    }
}

/// Default vertex-chunk size claimed per cursor hit by work-stealing
/// workers: small enough to
/// self-balance across heterogeneous vertex degrees, large enough that the
/// claim `fetch_add` never shows up in a profile.
pub const DEFAULT_STEAL_CHUNK: usize = 64;

/// The output of a HyperPRAW run: [`crate::HyperPraw::partition`],
/// [`Engine::run`] or [`Engine::run_warm`].
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// The selected vertex-to-partition assignment.
    pub partition: Partition,
    /// Per-stream history, one record per pass.
    pub history: PartitionHistory,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Number of streams executed.
    pub iterations: usize,
    /// The `α` in effect when the run stopped.
    pub final_alpha: f64,
    /// Communication cost of the returned partition.
    pub comm_cost: f64,
    /// Imbalance of the returned partition, taken from the engine's
    /// incrementally tracked workloads — the same value the stopping rule
    /// compared against the tolerance. Callers that need an exact
    /// recomputation can evaluate `partition.imbalance(hg)` on the result.
    pub imbalance: f64,
}

/// Mutable state shared by every thread count: the assignment, the workloads
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
    /// it with [`EngineState::detach`] (`from`). The summary stays fresh
    /// only when the vertex stayed and its part's load regained the bits
    /// it held before the detach, which a fractional weight's `(L − w) + w`
    /// need not.
    fn attach(&mut self, target: u32, w: f64, (cur, held): (u32, f64)) {
        let load = &mut self.loads[target as usize];
        *load += w;
        self.fresh &= cur == target && held.to_bits() == load.to_bits();
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
    /// The kept certificate proved the stay on this part.
    Stays(u32),
    /// The visit must be scored, with the certificate stamp read.
    Score(StayCertificate),
}

/// One worker's scoring state, created once per run and reused across
/// batches and passes: the provider scratch, the counts and scorer
/// buffers, and the tallies of certified and proven stays.
struct Scorer {
    scratch: AdjScratch,
    counts: Vec<u32>,
    value: ValueScratch,
    /// Visits kept in place by a stored certificate since the last flush.
    certified: u64,
    /// Visits whose stay was proved from freshly copied counts since the
    /// last flush.
    proven: u64,
}

impl Scorer {
    fn new(provider: &AdjProvider<'_>, p: usize) -> Self {
        Scorer {
            scratch: provider.new_scratch(),
            counts: Vec::with_capacity(p),
            value: ValueScratch::new(),
            certified: 0,
            proven: 0,
        }
    }

    /// Decides one visit of `v`, currently on `current`, against
    /// `assignment` and `view` — whose loads are the loads as the scorer
    /// sees them, the vertex's own weight already detached.
    ///
    /// When `v`'s stay certificate is still valid, names `current`
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
    fn decide<A: AssignmentRef>(
        &mut self,
        provider: &AdjProvider<'_>,
        v: VertexId,
        assignment: &A,
        cost: &CostMatrix,
        alpha: f64,
        current: u32,
        view: LoadView<'_>,
    ) -> u32 {
        let home = (current, view.loads[current as usize]);
        match self.check(provider, v, assignment, cost, alpha, home, view) {
            Check::Stays(part) => part,
            Check::Score(stamp) => {
                self.score(provider, v, assignment, cost, alpha, current, stamp, view)
            }
        }
    }

    /// The certificate step of a visit of `v`. `home` is the part the
    /// vertex is on with that part's load with the vertex detached, which
    /// `view`'s loads need not show yet. When the vertex's stay certificate
    /// is still valid, names that part and [`Scorer::prove`] proves it, the
    /// visit stays; otherwise it must be scored ([`Scorer::score`]) with
    /// the stamp this step read. Only debug builds' re-scoring reads
    /// `assignment` and `cost`.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn check<A: AssignmentRef>(
        &mut self,
        provider: &AdjProvider<'_>,
        v: VertexId,
        assignment: &A,
        cost: &CostMatrix,
        alpha: f64,
        (current, own): (u32, f64),
        view: LoadView<'_>,
    ) -> Check {
        let stamp = provider.stay_certificate(v);
        debug_assert!(view.expected.iter().all(|&e| e == view.expected[0]));
        let Some((part, gap)) = stamp.stay else {
            return Check::Score(stamp);
        };
        if part != current {
            return Check::Score(stamp);
        }
        if !Self::prove(gap, part, alpha, own, view) {
            return Check::Score(stamp);
        }
        self.certified += 1;
        // Debug builds re-score the visit and require `part`. Under work
        // stealing a peer's move may shift the counts after the
        // certificate was read; the generation bump that follows such a
        // shift must then show up.
        #[cfg(debug_assertions)]
        {
            let loads = detached(view.loads, part, own);
            provider.count(v, assignment, &mut self.scratch, &mut self.counts);
            let counts = &self.counts;
            let scored =
                best_partition_in(counts, cost, alpha, &loads, view.expected, &mut self.value);
            let started = std::time::Instant::now();
            while scored.part != part && provider.stay_certificate(v).generation == stamp.generation
            {
                assert!(
                    started.elapsed().as_secs() < 5,
                    "vertex {v} certified on part {part}, but its counts score part {}",
                    scored.part
                );
                thread::yield_now();
            }
        }
        Check::Stays(part)
    }

    /// The scoring step of a visit that [`Scorer::check`] did not settle,
    /// with the stamp it read, against `view`'s loads with the vertex
    /// detached from `current`.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn score<A: AssignmentRef>(
        &mut self,
        provider: &AdjProvider<'_>,
        v: VertexId,
        assignment: &A,
        cost: &CostMatrix,
        alpha: f64,
        current: u32,
        stamp: StayCertificate,
        view: LoadView<'_>,
    ) -> u32 {
        provider.count(v, assignment, &mut self.scratch, &mut self.counts);
        comm_terms(&self.counts, cost, &mut self.value);
        if stamp.stay.is_none() {
            // The same proof from the counts just copied, which are
            // current: the gap is the one a scored stay would store.
            let gap = terms_gap(current, &mut self.value);
            let own = view.loads[current as usize];
            if Self::prove(gap, current, alpha, own, view) {
                self.proven += 1;
                provider.certify(v, stamp.generation, current, gap);
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
                        (current, gap.to_bits()),
                        "vertex {v} proved on part {current}, but its counts score otherwise"
                    );
                }
                return current;
            }
        }
        let scored = select_partition(alpha, view.loads, view.expected, &mut self.value);
        provider.certify(v, stamp.generation, scored.part, scored.gap);
        scored.part
    }

    /// Whether a stay on `part` with communication gap `gap` under `alpha`
    /// is proved: [`certified_margin_with`] over `own`, `part`'s load with
    /// the vertex detached, and `view`'s summary for the other parts. Every
    /// certificate and fresh proof goes through here. Debug
    /// builds require the margin, settled or refused, to equal the scan of
    /// [`certified_margin`] over `view`'s loads with `own` in place, bit for
    /// bit: a stale summary shows up there.
    fn prove(gap: f64, part: u32, alpha: f64, own: f64, view: LoadView<'_>) -> bool {
        let expected = view.expected[0];
        let margin = certified_margin_with(gap, part, own, view.summary, alpha, expected);
        debug_assert_eq!(
            margin.map(f64::to_bits),
            certified_margin(gap, part, alpha, &detached(view.loads, part, own), expected)
                .map(f64::to_bits),
            "the load summary disagrees with the loads for a stay on part {part}"
        );
        margin.is_some()
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
/// batches and passes: the scorer, the load view with its
/// [`LoadSummary`], and the work-stealing cache and log. A worker writes
/// its slot's `Vec` headers for every vertex it scores, so slots are
/// aligned to 128 bytes — two cache lines, the unit adjacent-line
/// prefetchers pull in — and never share a line with a peer's.
#[repr(align(128))]
struct WorkerSlot {
    scorer: Scorer,
    loads_view: Vec<f64>,
    /// The [`LoadSummary`] of `loads_view` for a stealing worker,
    /// recomputed at each reload of `fixed_loads`.
    summary: LoadSummary,
    /// The cached copy of the shared fixed-point loads, of which
    /// `loads_view` is the `f64` view, as of move epoch `epoch`.
    fixed_loads: Vec<i64>,
    epoch: u64,
    /// The `(batch index, part)` moves of the current batch, which the
    /// batch boundary applies.
    log: Vec<(usize, u32)>,
}

impl WorkerSlot {
    /// Tops `slots` up to `workers` entries sized for `p` parts.
    fn fill(slots: &mut Vec<Self>, workers: usize, provider: &AdjProvider<'_>, p: usize) {
        while slots.len() < workers {
            slots.push(WorkerSlot {
                scorer: Scorer::new(provider, p),
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

/// Assigns `v` to `part` in `partition`, the assignment the provider's
/// counts read, and reports the change to the provider, which the caller
/// holds exclusively.
fn set_part(
    provider: &mut AdjProvider<'_>,
    partition: &mut Partition,
    v: VertexId,
    part: u32,
    scratch: &mut AdjScratch,
) {
    let prior = partition.part_of(v);
    if prior != part {
        partition.set(v, part);
        provider.moved_exclusive(v, prior, part, scratch);
    }
}

/// Whether `provider`'s counts agree with `assignment` and its stay
/// certificates with those counts — the engine's debug-build check at
/// every pass end and stealing batch boundary.
fn consistent<A: AssignmentRef>(
    provider: &AdjProvider<'_>,
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

/// The restreaming engine. See the [module docs](self) for the
/// architecture; [`Engine::run`] is the single implementation of the
/// restreaming loop every driver delegates to.
#[derive(Clone, Debug)]
pub struct Engine {
    config: HyperPrawConfig,
    strategy: ExecutionStrategy,
    metrics: EngineMetrics,
}

/// Telemetry handles bound by [`Engine::with_registry`]. The default
/// (disabled) handles make every recording below a no-op branch, and all
/// recording happens at pass or batch granularity — never per vertex —
/// so instrumentation cannot perturb placement decisions or determinism.
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
    /// Vertices visited across all passes (each pass streams the visit
    /// order once), certified visits included.
    vertices_scored: Counter,
    /// Visits a stored stay certificate kept in place without copying
    /// counts or scoring.
    certified_visits: Counter,
    /// Visits whose stay was proved from freshly copied counts, without
    /// the value loop or the selection scan.
    proven_stays: Counter,
    /// Chunks claimed off the shared cursor (work-stealing strategy).
    steal_chunk_claims: Counter,
    /// Batch-boundary applies (work-stealing strategy).
    steal_batch_applies: Counter,
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
            steal_chunk_claims: registry.counter("engine.steal.chunk_claims"),
            steal_batch_applies: registry.counter("engine.steal.batch_applies"),
            steal_team_us: registry.histogram("engine.steal.team_us"),
            steal_apply_us: registry.histogram("engine.steal.apply_us"),
        }
    }
}

impl Engine {
    /// Creates an engine running Algorithm 1 under `config` on the
    /// strategy's threads.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the thread and chunk counts fail
    /// validation.
    pub fn new(config: HyperPrawConfig, strategy: ExecutionStrategy) -> Self {
        config
            .validate()
            .and_then(|()| strategy.validate())
            .unwrap_or_else(|e| panic!("invalid engine configuration: {e}"));
        Self {
            config,
            strategy,
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
    pub fn config(&self) -> &HyperPrawConfig {
        &self.config
    }

    /// Runs the restreaming loop over every vertex of `hg`, in the
    /// configuration's stream order, from Algorithm 1's round-robin start,
    /// under the communication-cost matrix `cost`, with per-pass costs read
    /// from the provider.
    pub fn run(
        &self,
        cost: &CostMatrix,
        hg: &Hypergraph,
        provider: &mut AdjProvider<'_>,
    ) -> PartitionResult {
        let p = cost.num_units();
        assert!(p > 0, "cost matrix must cover at least one compute unit");
        let order = stream_order(hg, self.config.stream_order, self.config.seed);
        let expected_load = (hg.total_vertex_weight() / p as f64).max(f64::MIN_POSITIVE);
        // Every vertex starts on part `v mod p`; its loads are summed in
        // stream order.
        let mut loads = vec![0.0f64; p];
        for &v in &order {
            loads[v as usize % p] += hg.vertex_weight(v);
        }
        let partition = Partition::round_robin(hg.num_vertices(), p as u32);
        let state = EngineState::new(partition, loads, vec![expected_load; p]);
        self.run_loop(cost, hg, &order, None, provider, state)
    }

    /// Runs the restreaming loop warm-started from an existing assignment
    /// instead of the round-robin start — the entry point of the dynamic
    /// repartitioning layer. Each pass revisits `dirty`, in the order
    /// given, which may cover only part of the graph; `warm.partition` must
    /// still cover the *full* graph so connectivity counts against
    /// untouched vertices stay exact, and `warm.loads` must be that full
    /// assignment's per-part vertex weights. The provider keeps counts for
    /// the dirty vertices only.
    ///
    /// # Panics
    ///
    /// Panics when the cost matrix is empty or `warm`'s part count or load
    /// vector length disagree with it.
    pub fn run_warm(
        &self,
        cost: &CostMatrix,
        hg: &Hypergraph,
        dirty: &[VertexId],
        provider: &mut AdjProvider<'_>,
        warm: WarmStart,
    ) -> PartitionResult {
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
        debug_assert!(
            dirty.iter().all(|&v| (v as usize) < hg.num_vertices()),
            "dirty ids must be vertices of the hypergraph"
        );
        // α is sized from the full graph, not the dirty subset: the value
        // function balances against full-graph loads, so the tempering
        // scale must match what a cold run over the whole instance uses.
        let total_weight: f64 = warm.loads.iter().sum();
        let expected_load = (total_weight / p as f64).max(f64::MIN_POSITIVE);
        let state = EngineState::new(warm.partition, warm.loads, vec![expected_load; p]);
        self.run_loop(cost, hg, dirty, Some(dirty), provider, state)
    }

    /// The shared restreaming loop behind [`Engine::run`] and
    /// [`Engine::run_warm`]: each pass visits `order`; α tempering until
    /// the tolerance is met, then refinement with comm-cost rollback. The
    /// provider is synced over `visits` (`None`: every vertex).
    fn run_loop(
        &self,
        cost: &CostMatrix,
        hg: &Hypergraph,
        order: &[VertexId],
        visits: Option<&[VertexId]>,
        provider: &mut AdjProvider<'_>,
        mut state: EngineState,
    ) -> PartitionResult {
        let p = state.loads.len();
        let config = &self.config;
        let sync_span = self.metrics.sync_us.span();
        provider.sync(&state.partition, visits);
        sync_span.finish();

        let n = state.partition.num_vertices();
        let mut alpha = config.starting_alpha(p as u32, n, hg.num_hyperedges());

        let mut history = PartitionHistory::new();
        // Best feasible (within-tolerance) partition seen so far, with its
        // cost and imbalance.
        let mut previous_feasible: Option<(Partition, f64, f64)> = None;
        let mut stop_reason = StopReason::MaxIterations;
        let mut iterations = 0usize;
        let mut slots: Vec<WorkerSlot> = Vec::new();

        for pass in 1..=config.max_iterations {
            iterations = pass;
            let pass_span = self.metrics.pass_time_us.span();
            // A single thread has nobody to race: it runs the sequential
            // loop (the n=1 determinism anchor).
            let moved = if self.strategy.num_threads == 1 {
                self.sequential_pass(cost, hg, order, provider, &mut state, alpha, &mut slots)
            } else {
                self.steal_pass(cost, hg, order, provider, &mut state, alpha, &mut slots)
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

            let imbalance = load_imbalance(&state.loads);
            let comm_cost = self.eval_comm_cost(provider, &state.partition, cost);
            let feasible = imbalance <= config.imbalance_tolerance + 1e-12;
            history.push(IterationRecord {
                iteration: pass,
                phase: if feasible {
                    StreamPhase::Refinement
                } else {
                    StreamPhase::Tempering
                },
                alpha,
                imbalance,
                comm_cost,
                moved_vertices: moved,
            });

            if !feasible {
                // Still outside tolerance: temper α upwards and re-stream.
                alpha *= config.tempering_factor;
                continue;
            }

            match config.refinement {
                RefinementPolicy::None => {
                    // GraSP-style: stop as soon as the tolerance is met.
                    stop_reason = StopReason::ToleranceReached;
                    previous_feasible = Some((state.partition.clone(), comm_cost, imbalance));
                    break;
                }
                RefinementPolicy::Factor(factor) => {
                    // Refinement phase: keep streaming while the
                    // partitioning communication cost improves; roll back
                    // to the previous feasible partition when it gets
                    // worse (Algorithm 1's `Cost of Pⁿ > Cost of Pⁿ⁻¹`
                    // test). A stream that moved no vertex is a fixed
                    // point: further streams would repeat it verbatim, so
                    // stop there too.
                    if let Some((_, previous_cost, _)) = &previous_feasible {
                        if comm_cost > *previous_cost {
                            stop_reason = StopReason::CommCostConverged;
                            break;
                        }
                    }
                    previous_feasible = Some((state.partition.clone(), comm_cost, imbalance));
                    if moved == 0 {
                        stop_reason = StopReason::CommCostConverged;
                        break;
                    }
                    alpha *= factor;
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
            None => (
                self.eval_comm_cost(provider, &state.partition, cost),
                load_imbalance(&state.loads),
            ),
        };
        debug_assert!(
            provider.agrees_with(&state.partition),
            "provider state drifted from the returned partition"
        );

        PartitionResult {
            partition: state.partition,
            history,
            stop_reason,
            iterations,
            final_alpha: alpha,
            comm_cost,
            imbalance,
        }
    }

    /// One timed comm-cost evaluation of `partition`, the assignment the
    /// provider is synced to, from the provider's kept part-pair counts.
    /// Every path keeps those counts exact through the run, so none awaits
    /// a recount here; the debug builds' [`consistent`] check has already
    /// compared them with a fresh count, so the cost is the oracle's.
    fn eval_comm_cost(
        &self,
        provider: &mut AdjProvider<'_>,
        partition: &Partition,
        cost: &CostMatrix,
    ) -> f64 {
        debug_assert!(
            provider.pair_counts().is_some(),
            "the kept part-pair counts await a recount"
        );
        let span = self.metrics.commcost_eval_us.span();
        let comm_cost = provider.comm_cost(partition, cost);
        span.finish();
        comm_cost
    }

    /// One sequential stream: every vertex of `order` is detached from its
    /// current partition and re-assigned with fully fresh information
    /// (Algorithm 1's inner loop). Returns the number of moved vertices.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn sequential_pass(
        &self,
        cost: &CostMatrix,
        hg: &Hypergraph,
        order: &[VertexId],
        provider: &mut AdjProvider<'_>,
        state: &mut EngineState,
        alpha: f64,
        slots: &mut Vec<WorkerSlot>,
    ) -> usize {
        WorkerSlot::fill(slots, 1, provider, state.loads.len());
        let scorer = &mut slots[0].scorer;
        let mut moved = 0usize;
        for &v in order {
            let w = hg.vertex_weight(v);
            let current = state.partition.part_of(v);
            state.refresh_summary();
            let from = state.detach(current, w);
            let view = LoadView {
                loads: &state.loads,
                summary: &state.summary,
                expected: &state.expected,
            };
            let part = scorer.decide(provider, v, &state.partition, cost, alpha, current, view);
            set_part(provider, &mut state.partition, v, part, &mut scorer.scratch);
            state.attach(part, w, from);
            if part != current {
                moved += 1;
            }
        }
        self.metrics.vertices_scored.add(order.len() as u64);
        moved
    }

    /// One lock-free work-stealing stream: `order` is cut into large
    /// batches, a thread team spawned **once per batch** claims
    /// fixed-size chunks of it off a shared [`ChunkCursor`], and every
    /// worker scores against *live* shared state — the full assignment as
    /// an atomic slice, the per-part loads as fixed-point atomics — so
    /// placements become visible to peers per vertex. The authoritative
    /// assignment, the `f64` load accounting, move counting and the
    /// provider's replays are updated on the engine thread at the batch
    /// boundary. Returns the number of moved vertices.
    ///
    /// Workers write shared state only when a vertex moves: the load
    /// counters, the atomic assignment, the provider's
    /// [`AdjProvider::moved`] and then the pass's move epoch,
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
    /// Each worker logs its moves only: the provider's counts read the
    /// live assignment, and nothing else reads a stay. The boundary applies
    /// the logs in worker order in one loop and replays each move on the
    /// provider ([`AdjProvider::replay`]) against the assignment
    /// as of that move, so its serial cost follows the moves, not the
    /// batch.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn steal_pass(
        &self,
        cost: &CostMatrix,
        hg: &Hypergraph,
        order: &[VertexId],
        provider: &mut AdjProvider<'_>,
        state: &mut EngineState,
        alpha: f64,
        slots: &mut Vec<WorkerSlot>,
    ) -> usize {
        let ExecutionStrategy { num_threads, chunk } = self.strategy;
        let p = state.loads.len();
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
        // A batch holds at most this many vertices, so a pass over more
        // than 8192 vertices (at the default chunk and two workers) spans
        // several batches, each with its own thread team and boundary
        // apply.
        let batch_cap = chunk
            .saturating_mul(num_threads)
            .saturating_mul(16)
            .max(8192);
        let mut moved = 0usize;

        for batch in order.chunks(batch_cap) {
            let len = batch.len();
            self.metrics.vertices_scored.add(len as u64);
            // No more workers than the batch has chunks, and a slot only
            // per worker that starts: a slot per requested thread would let
            // a huge thread count allocate unboundedly.
            let workers = num_threads.min(len.div_ceil(chunk)).max(1);
            WorkerSlot::fill(slots, workers, provider, p);

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
                let provider_ref: &AdjProvider<'_> = provider;
                let chunk_claims = &self.metrics.steal_chunk_claims;

                let run_worker = |slot: &mut WorkerSlot| {
                    slot.loads_view.resize(p, 0.0);
                    // The counters were re-synced since the last batch.
                    slot.epoch = STALE_EPOCH;
                    slot.log.clear();
                    while let Some(range) = cursor.claim() {
                        chunk_claims.inc();
                        for i in range {
                            let v = batch[i];
                            let w = to_fixed(hg.vertex_weight(v));
                            let epoch = move_epoch.load(AtomicOrdering::Acquire);
                            if epoch != slot.epoch {
                                slot.epoch = epoch;
                                let cached = slot.fixed_loads.iter_mut().zip(&mut slot.loads_view);
                                for ((fixed, local), counter) in cached.zip(shared) {
                                    *fixed = counter.load(AtomicOrdering::Relaxed);
                                    *local = from_fixed(*fixed);
                                }
                                slot.summary = LoadSummary::of(&slot.loads_view);
                            }
                            debug_assert!(
                                slot.summary == LoadSummary::of(&slot.loads_view),
                                "the cached loads changed without a reload"
                            );
                            // The certificate step reads the current
                            // part's detached load on its own; only a
                            // visit it does not settle patches the view
                            // (and restores it after scoring).
                            let current = view.part_of(v);
                            let own = from_fixed(slot.fixed_loads[current as usize] - w);
                            let loads = LoadView {
                                loads: &slot.loads_view,
                                summary: &slot.summary,
                                expected,
                            };
                            let check = slot.scorer.check(
                                provider_ref,
                                v,
                                view,
                                cost,
                                alpha,
                                (current, own),
                                loads,
                            );
                            let target = match check {
                                Check::Stays(part) => part,
                                Check::Score(stamp) => {
                                    let cur = current as usize;
                                    slot.loads_view[cur] = own;
                                    let loads = LoadView {
                                        loads: &slot.loads_view,
                                        summary: &slot.summary,
                                        expected,
                                    };
                                    let part = slot.scorer.score(
                                        provider_ref,
                                        v,
                                        view,
                                        cost,
                                        alpha,
                                        current,
                                        stamp,
                                        loads,
                                    );
                                    slot.loads_view[cur] = from_fixed(slot.fixed_loads[cur]);
                                    part
                                }
                            };
                            if current != target {
                                shared[current as usize].fetch_sub(w, AtomicOrdering::Relaxed);
                                shared[target as usize].fetch_add(w, AtomicOrdering::Relaxed);
                                move_epoch.fetch_add(1, AtomicOrdering::Release);
                                view.set(v, target);
                                provider_ref.moved(v, current, target, &mut slot.scorer.scratch);
                                slot.log.push((i, target));
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

            // Apply the moves at the batch boundary, the logs in worker
            // order: load accounting and the provider's replays run on the
            // engine thread. Each vertex is visited once per pass, so
            // `state.partition` still holds every logged vertex on the part
            // its worker read, and it changed parts exactly when its worker
            // reported the move to the provider.
            let apply_span = self.metrics.steal_apply_us.span();
            let (first, rest) = slots[..workers].split_at_mut(1);
            let WorkerSlot { scorer, log, .. } = &mut first[0];
            for &(i, target) in log.iter().chain(rest.iter().flat_map(|s| &s.log)) {
                let v = batch[i];
                let w = hg.vertex_weight(v);
                let prior = state.partition.part_of(v);
                let from = state.detach(prior, w);
                if prior != target {
                    provider.replay(v, prior, target, &state.partition, &mut scorer.scratch);
                    state.partition.set(v, target);
                }
                state.attach(target, w, from);
                moved += 1;
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
        moved
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
