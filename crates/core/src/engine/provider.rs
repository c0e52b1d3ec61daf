//! How neighbour-partition counts are obtained — the engine's state axis.
//!
//! For each visited vertex the engine needs the counts `X_j(v)` consumed by
//! the value function ([`crate::value`]). A [`ConnectivityProvider`]
//! answers that query and absorbs assignment updates; implementations
//! differ only in *where the connectivity state lives*:
//!
//! * [`AdjProvider`] — the in-memory provider: counts **distinct
//!   neighbour vertices** per partition. It keeps **exact part counts**
//!   `X(v)` for every vertex the run visits: synced once per run
//!   ([`ConnectivityProvider::sync`]) and shifted by one on every move of
//!   a neighbour ([`ConnectivityProvider::moved`]), so a visit is an O(p)
//!   copy. Neighbourhoods are walked only at sync and on a move, by an
//!   epoch traversal of the vertex's pins. Next to
//!   each vertex's counts it keeps a **stay certificate** and the
//!   generation of those counts, which lets the engine keep a vertex in
//!   place without copying its counts or scoring
//!   ([`ConnectivityProvider::stay_certificate`]). Synced, it also keeps
//!   the part-pair counts `M` and answers the engine's per-pass comm cost
//!   from them ([`ConnectivityProvider::comm_cost`]).
//! * `hyperpraw-lowmem`'s `IndexProvider` — answers from a budgeted
//!   `ConnectivityIndex` (exact hash maps, or Bloom/MinHash sketches),
//!   counting **connected nets** per partition; attach/detach record and
//!   (when supported) forget net incidences. Its counts do not read the
//!   assignment, so it runs only in the sequential strategy.
//!
//! Scoring reads take `&self` plus a worker-local
//! [`ConnectivityProvider::Scratch`], so the work-stealing strategy can
//! fan the same provider out across worker threads.
//! [`AdjProvider`]'s kept counts are atomics, so a work-stealing worker
//! updates them next to its own write of the live assignment.
//! [`AdjProvider`]'s scratch is O(1) until the worker traverses a
//! neighbourhood (the traversal scratch materialises lazily).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use hyperpraw_topology::CostMatrix;

use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{AssignmentRef, Hypergraph, Partition, VertexId};

use crate::metrics::{check_shapes, CommCostState, PairCounts};
use crate::value::{comm_gap_in, ValueScratch};

/// What [`ConnectivityProvider::stay_certificate`] read for one vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StayCertificate {
    /// The generation of the vertex's kept counts — how often they have
    /// shifted since its certificate was made — read before they are
    /// copied; [`ConnectivityProvider::certify`] takes it back.
    pub generation: u32,
    /// The part the vertex's last certified visit chose and that visit's
    /// communication gap ([`crate::value::ScoredPartition::gap`]), while
    /// no neighbour has moved since — `None` otherwise.
    pub stay: Option<(u32, f64)>,
}

/// Supplies neighbour-partition counts to the restreaming engine and
/// tracks assignment changes, when the implementation keeps its own
/// connectivity state.
pub trait ConnectivityProvider: Sync {
    /// Worker-local scratch handed to every [`ConnectivityProvider::count`]
    /// call; one instance per worker thread, reused across batches and
    /// passes.
    type Scratch: Send;

    /// Creates one worker's scratch space.
    fn new_scratch(&self) -> Self::Scratch;

    /// Whether the provider reads [`VertexRecord::nets`]. [`AdjProvider`]
    /// does not, which lets in-memory sources skip copying incidence
    /// lists into each record.
    fn needs_nets(&self) -> bool {
        true
    }

    /// Called once per run, before the first pass, with the assignment the
    /// run starts from (the round-robin seed, or a warm start's partition)
    /// and the vertices the run will visit (`None`: every vertex). From
    /// here on the engine reports every change of that assignment through
    /// [`ConnectivityProvider::moved`]. Providers without state derived
    /// from the assignment ignore it.
    fn sync(&mut self, assignment: &Partition, visits: Option<&[VertexId]>) {
        let _ = (assignment, visits);
    }

    /// Called exactly where the assignment that
    /// [`ConnectivityProvider::count`] reads changes `v` from part `from`
    /// to part `to` (`from != to`): at each placement in sequential
    /// execution, and in the worker next to its write of the live
    /// assignment in work-stealing execution — hence `&self` and the
    /// worker's scratch.
    /// Providers without state derived from the assignment ignore it.
    fn moved(&self, v: VertexId, from: u32, to: u32, scratch: &mut Self::Scratch) {
        let _ = (v, from, to, scratch);
    }

    /// [`ConnectivityProvider::moved`] where the caller holds the only
    /// reference — the sequential placement and a cost rollback — so
    /// providers can shift their state without atomic read-modify-writes.
    fn moved_exclusive(&mut self, v: VertexId, from: u32, to: u32, scratch: &mut Self::Scratch) {
        self.moved(v, from, to, scratch);
    }

    /// Replays at a work-stealing batch boundary, where the caller holds
    /// the only reference, a move `v: from → to` that a worker reported
    /// through [`ConnectivityProvider::moved`]: once for each such move,
    /// in the order the engine applies them to `assignment`, which still
    /// holds `v` on `from` and every earlier move of the batch. State that
    /// concurrent `moved` calls cannot keep exact follows the moves here,
    /// so it is exact again once the whole batch is replayed. Providers
    /// without such state ignore it.
    fn replay(
        &mut self,
        v: VertexId,
        from: u32,
        to: u32,
        assignment: &Partition,
        scratch: &mut Self::Scratch,
    ) {
        let _ = (v, from, to, assignment, scratch);
    }

    /// Whether the provider's assignment-derived state agrees with
    /// `assignment`. The engine asserts this in debug builds wherever that
    /// state must be exact — at every pass end and work-stealing batch
    /// boundary. Providers without such state
    /// have nothing to check.
    fn agrees_with<A: AssignmentRef>(&self, assignment: &A) -> bool {
        let _ = assignment;
        true
    }

    /// Whether every live stay certificate is the one the current counts
    /// give under `cost`, for the part `assignment` holds its vertex on.
    /// Checked in debug builds next to
    /// [`ConnectivityProvider::agrees_with`], which it assumes holds.
    fn certificates_agree_with<A: AssignmentRef>(&self, assignment: &A, cost: &CostMatrix) -> bool {
        let _ = (assignment, cost);
        true
    }

    /// Reads `v`'s stay certificate. Called before
    /// [`ConnectivityProvider::count`], so the generation it returns
    /// predates the counts the visit copies. `None` when the provider
    /// keeps no counts for `v` — then the engine neither checks nor makes
    /// a certificate.
    fn stay_certificate(&self, v: VertexId) -> Option<StayCertificate> {
        let _ = v;
        None
    }

    /// Stores the certificate of a scored visit: the counts read at
    /// `generation` put `v` on `part` with communication gap `gap`. It is
    /// valid until a neighbour's move shifts `v`'s counts, and never valid
    /// when such a move raced the scoring.
    fn certify(&self, v: VertexId, generation: u32, part: u32, gap: f64) {
        let _ = (v, generation, part, gap);
    }

    /// The partitioning communication cost of `assignment` under `cost`,
    /// answered from part-pair counts the provider keeps, or `None` when
    /// it keeps none (the out-of-core providers): the run then stops only
    /// on fixed points and the iteration limit. The engine calls it after
    /// each pass and at the end of a run, with the assignment the provider
    /// is synced to and no worker running, so the answer is exact and
    /// bit-identical to [`crate::metrics::partitioning_communication_cost`].
    fn comm_cost(&mut self, assignment: &Partition, cost: &CostMatrix) -> Option<f64> {
        let _ = (assignment, cost);
        None
    }

    /// Called once at the start of every stream. `rebuild` asks the
    /// provider to drop accumulated state it cannot forget incrementally
    /// (sketch staleness shedding); providers with exact, reversible state
    /// ignore it.
    fn begin_pass(&mut self, pass: usize, rebuild: bool) {
        let _ = (pass, rebuild);
    }

    /// Writes the neighbour-partition counts `X_j(v)` for `record` into
    /// `counts` (cleared and resized), evaluated against `assignment` —
    /// the live assignment in sequential execution, or a live atomic view
    /// (with bounded staleness) in work-stealing execution, which is why
    /// the parameter is any [`AssignmentRef`] rather than a concrete
    /// `Partition`. Work stealing reads `count` against the live
    /// assignment it is passed and never calls
    /// [`ConnectivityProvider::attach`] or
    /// [`ConnectivityProvider::detach`], so only a provider whose counts
    /// follow that assignment ([`AdjProvider`]) may run it on more than
    /// one thread. The
    /// vertex's own contribution must be excluded when the provider can
    /// tell ([`AdjProvider`] excludes the vertex itself; index providers
    /// rely on the engine detaching first).
    fn count<A: AssignmentRef>(
        &self,
        record: &VertexRecord,
        assignment: &A,
        scratch: &mut Self::Scratch,
        counts: &mut Vec<u32>,
    );

    /// Removes `record`'s contribution to `part` from the provider's own
    /// state, where supported (sketches cannot forget and accept the
    /// staleness), at a sequential placement. Stateless providers do
    /// nothing.
    fn detach(&mut self, record: &VertexRecord, part: u32) {
        let _ = (record, part);
    }

    /// Records that `record` is now assigned to `part` in the provider's
    /// own state, at the seed pass and at a sequential placement.
    /// Stateless providers do nothing.
    fn attach(&mut self, record: &VertexRecord, part: u32) {
        let _ = (record, part);
    }

    /// Confidence in a decision with the given value `margin`, in
    /// `[margin / 2, margin]`. Providers that can estimate how similar the
    /// vertex's nets are to the chosen partition discount near-ties whose
    /// connectivity evidence is weak; the default trusts the margin.
    fn confidence(&self, record: &VertexRecord, part: u32, margin: f64) -> f64 {
        let _ = (record, part);
        margin
    }
}

/// Slot value of a vertex without kept counts.
const NO_SLOT: u32 = u32::MAX;

/// Part of a certificate that certifies nothing.
const NO_PART: u32 = u32::MAX;

/// Slots per allocation of [`AdjProvider`]'s rows. Bounding the largest
/// allocation keeps glibc's dynamic mmap threshold low: it rises to the
/// largest mapping freed, and up to twice that much freed heap then stays
/// resident, so one multi-megabyte row array left that much behind after
/// every run of a long-lived process.
const BLOCK_SLOTS: usize = 4096;

/// Words of a slot's row before its part counts: the stay certificate.
const CERT_WORDS: usize = 3;
/// Row word: the generation — the shifts of the slot's counts since its
/// certificate was made, each bumping it with release ordering, so a
/// reader that acquires a generation sees every shift before it. The
/// certificate is valid while it is zero.
const GENERATION: usize = 0;
/// Row word: the part the certified visit chose ([`NO_PART`]: none).
const PART: usize = 1;
/// Row word: the visit's communication gap rounded down to an `f32`.
const GAP: usize = 2;

/// The certified part and gap in `row`, when its generation, read as
/// `generation`, says no shift has happened since.
fn certified_stay(row: &[AtomicU32], generation: u32) -> Option<(u32, f64)> {
    let part = row[PART].load(Ordering::Relaxed);
    (generation == 0 && part != NO_PART).then(|| {
        let gap = f32::from_bits(row[GAP].load(Ordering::Relaxed));
        (part, f64::from(gap))
    })
}

/// `x` as the largest `f32` not above it, so a stored gap never claims
/// more than the scorer proved.
fn f32_at_most(x: f64) -> f32 {
    let y = x as f32;
    if f64::from(y) > x {
        y.next_down()
    } else {
        y
    }
}

/// The in-memory [`ConnectivityProvider`]: exact distinct-neighbour part
/// counts `X(v)` kept for every vertex a run visits.
///
/// [`ConnectivityProvider::sync`] counts `X(v)` once per run for each
/// vertex the run will visit: one row of [`AtomicU32`]s per vertex — a
/// 12-byte stay certificate, then the `p` counts (`4·p + 12` bytes per
/// vertex, see [`AdjProvider::memory_bytes`]) — plus, when the run visits
/// only a subset, a 4-byte vertex → slot map entry per vertex.
/// Afterwards, when a vertex `u` moves `a → b`, every counted distinct
/// neighbour `w` of `u` gets `X(w)[a] −= 1` and `X(w)[b] += 1`. A visit
/// is therefore an O(p) copy, and a neighbourhood is walked only at sync
/// and when its vertex moves — a few percent of the visits once the
/// first pass has placed the stream. This is the pin-count-in-part delta bookkeeping of Mt-KaHyPar, kept
/// per distinct *neighbour* rather than per hyperedge because
/// HyperPRAW's `X_j(v)` deduplicates.
///
/// The certificate records the part a scored visit chose and its
/// communication gap. Every shift of `X(v)` bumps the row's generation
/// (after the shift, with release ordering); certifying resets it to
/// zero with one compare-exchange from the value read before the counts
/// were copied. A certificate is therefore valid exactly while the
/// generation is zero — no neighbour has moved since its counts were
/// read, including a move that raced the scoring on another worker. The
/// gap is stored rounded down to an `f32`, which only weakens what it
/// proves.
///
/// Neighbourhoods come from an epoch traversal of the vertex's pins,
/// through a lazily created per-worker [`NeighborScratch`]. A query for a
/// vertex without kept counts (the provider was never synced, or the run
/// does not visit the vertex) is answered by the traversal oracle.
///
/// Synced, the provider also keeps the part-pair counts `M` of
/// [`crate::metrics`] — `M[a][·]` is the sum of `X(v)` over the vertices
/// on part `a` — and answers [`ConnectivityProvider::comm_cost`] with one
/// O(p²) dot, bit-identical to
/// [`crate::metrics::partitioning_communication_cost`]. A sync over a
/// subset (a warm run over a dirty set) takes the `M` its caller resumed
/// ([`AdjProvider::resume`]); otherwise it counts `M` — summed from the
/// rows when the run visits every vertex, by walking every neighbourhood
/// when it visits a subset.
/// [`AdjProvider::into_comm_state`] hands `M` back. An exclusive move of
/// `v` from `a` to `b` shifts rows and columns `a` and `b` of `M` by
/// `v`'s own `X(v)`, read from `v`'s row — O(p), no neighbour walk, the
/// integers of a walk. A stealing worker's move cannot do that exactly
/// while a neighbour's move shifts `X(v)` concurrently, so it only counts
/// itself as awaiting replay. At the batch boundary the engine replays
/// each move ([`ConnectivityProvider::replay`]) against the assignment
/// as of that move: one walk of `v`'s neighbours gives `X(v)` then, and
/// `M` shifts by it. Once every reported move is replayed `M` is exact
/// again; read while a move still awaits replay — by a caller that
/// reports moves through `moved` and never replays them — it is counted
/// afresh, summed from the rows.
///
/// Counts are exact integers on every path — identical to
/// [`NeighborScratch::neighbor_partition_counts`], the distinct-neighbour
/// `X_j(v)` of the paper. Under work stealing
/// the kept counts follow the live atomic assignment with the same
/// bounded staleness, and are exact again once the team joins.
#[derive(Debug)]
pub struct AdjProvider<'a> {
    hg: &'a Hypergraph,
    /// Part count of the synced run.
    num_parts: usize,
    /// Count slot of every vertex ([`NO_SLOT`] unless the synced run
    /// visits it); empty when the run visits every vertex, whose slot is
    /// then its id.
    slots: Vec<u32>,
    /// Vertices with kept counts (`0` until the first sync).
    num_counted: usize,
    /// One row per slot: the stay certificate ([`CERT_WORDS`] words: its
    /// count generation, part and gap), then `X(v)`, `num_parts`
    /// counters. The counters are exact once the writers' threads are
    /// joined and are accessed with relaxed ordering; the generation
    /// orders them for certificates. A visit, a certificate check and a
    /// shift all touch one row. Rows are allocated in blocks of
    /// [`BLOCK_SLOTS`].
    rows: Vec<Box<[AtomicU32]>>,
    /// The part-pair counts `M` of the synced assignment: `M[a][·]` is
    /// the sum of `X(v)` over the vertices on part `a`.
    pairs: Option<PairCounts>,
    /// Moves reported through [`ConnectivityProvider::moved`] whose shift
    /// of `pairs` awaits [`ConnectivityProvider::replay`]; while any does,
    /// the next evaluation counts `pairs` afresh. A plain tally — it
    /// publishes nothing and is read only with exclusive access, after the
    /// workers have joined — so it is relaxed.
    unreplayed: AtomicUsize,
    /// Set when an exclusive move of a vertex without kept counts could
    /// not shift `pairs`; the next evaluation counts them afresh.
    pairs_stale: bool,
    /// `X(v)` of a replayed mover, as of its move.
    replay_x: Vec<u32>,
    /// `M` handed over by [`AdjProvider::resume`] for the next sync over
    /// a subset.
    resumed: Option<PairCounts>,
    /// Counts neighbourhood traversals (`engine.hub_fallbacks`); a no-op
    /// unless bound via [`AdjProvider::with_registry`]. Each worker's
    /// [`AdjScratch`] tallies its own traversals and adds them here in
    /// batches, so workers never write the shared cell per vertex.
    hub_fallbacks: hyperpraw_telemetry::Counter,
}

/// Traversals an [`AdjScratch`] tallies before adding them to the shared
/// `engine.hub_fallbacks` counter (the rest is added when it drops).
const HUB_FALLBACK_FLUSH: u64 = 1024;

/// Worker-local scratch of [`AdjProvider`]: empty (O(1)) until the worker
/// traverses a neighbourhood, at which point the `O(|V|)` epoch scratch
/// is created once and reused. It also tallies the worker's traversals,
/// adding them to the provider's counter every 1024 traversals and on
/// drop, so the run's total stays exact.
#[derive(Debug, Default)]
pub struct AdjScratch {
    fallback: Option<NeighborScratch>,
    hub_fallbacks: hyperpraw_telemetry::Counter,
    pending_hub_fallbacks: u64,
}

impl AdjScratch {
    /// Records one traversal and returns the epoch scratch to run it on.
    fn traversal(&mut self, hg: &Hypergraph) -> &mut NeighborScratch {
        if self.hub_fallbacks.is_enabled() {
            self.pending_hub_fallbacks += 1;
            if self.pending_hub_fallbacks == HUB_FALLBACK_FLUSH {
                self.flush_hub_fallbacks();
            }
        }
        self.fallback
            .get_or_insert_with(|| NeighborScratch::new(hg.num_vertices()))
    }

    fn flush_hub_fallbacks(&mut self) {
        self.hub_fallbacks.add(self.pending_hub_fallbacks);
        self.pending_hub_fallbacks = 0;
    }
}

impl Drop for AdjScratch {
    fn drop(&mut self) {
        self.flush_hub_fallbacks();
    }
}

impl<'a> AdjProvider<'a> {
    /// Finds every neighbourhood by traversal and builds no adjacency.
    /// Synced, its visits copy kept counts; only sync and moves traverse.
    pub fn traversal(hg: &'a Hypergraph) -> Self {
        Self {
            hg,
            num_parts: 0,
            slots: Vec::new(),
            num_counted: 0,
            rows: Vec::new(),
            pairs: None,
            unreplayed: AtomicUsize::new(0),
            pairs_stale: false,
            replay_x: Vec::new(),
            resumed: None,
            hub_fallbacks: hyperpraw_telemetry::Counter::noop(),
        }
    }

    /// Hands the next sync over a subset the part-pair counts `M` of the
    /// assignment it starts from ([`CommCostState::into_parts`]), so it
    /// need not count them. A sync over every vertex ignores them.
    pub fn resume(mut self, counts: PairCounts) -> Self {
        self.resumed = Some(counts);
        self
    }

    /// The kept part-pair counts `M` with `assignment`, the assignment the
    /// provider is synced to — after an engine run, the partition the run
    /// returned — for a later [`AdjProvider::resume`].
    ///
    /// # Panics
    ///
    /// Panics when the provider was never synced.
    pub fn into_comm_state(mut self, assignment: Partition) -> CommCostState {
        self.refresh_pairs(&assignment);
        let counts = self.pairs.expect("a synced provider keeps pairs");
        CommCostState {
            partition: assignment,
            counts,
        }
    }

    /// Binds the `engine.hub_fallbacks` counter to `registry`: every
    /// neighbourhood traversal actually done — at sync, per move and per
    /// query of a vertex without kept counts — increments it.
    pub fn with_registry(mut self, registry: &hyperpraw_telemetry::Registry) -> Self {
        self.hub_fallbacks = registry.counter("engine.hub_fallbacks");
        self
    }

    /// Number of vertices whose part counts the provider keeps (the
    /// vertices the last synced run visits).
    pub fn num_counted_vertices(&self) -> usize {
        self.num_counted
    }

    /// Heap bytes held: the kept part counts, their stay certificates,
    /// the part-pair counts and, when the run visits a subset, the vertex
    /// → slot map.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
            + self.rows.capacity() * std::mem::size_of::<Box<[AtomicU32]>>()
            + self.rows.iter().map(|block| block.len()).sum::<usize>()
                * std::mem::size_of::<AtomicU32>()
            + self.pairs.as_ref().map_or(0, PairCounts::memory_bytes)
    }

    /// The slot of `v`, when it has kept counts.
    #[inline]
    fn slot(&self, v: VertexId) -> Option<usize> {
        slot_of(&self.slots, self.num_counted, v)
    }

    /// The row of `v` — certificate words, then `X(v)` — when `v` has
    /// kept counts.
    #[inline]
    fn row(&self, v: VertexId) -> Option<&[AtomicU32]> {
        let slot = self.slot(v)?;
        let stride = self.num_parts + CERT_WORDS;
        let lo = slot % BLOCK_SLOTS * stride;
        Some(&self.rows[slot / BLOCK_SLOTS][lo..lo + stride])
    }

    /// The kept part counts `X(v)`, when `v` has them.
    #[inline]
    fn kept_counts(&self, v: VertexId) -> Option<&[AtomicU32]> {
        Some(&self.row(v)?[CERT_WORDS..])
    }

    /// The distinct neighbours of `v`, by a traversal through `scratch`.
    fn neighbors<'s>(&'s self, v: VertexId, scratch: &'s mut AdjScratch) -> &'s [VertexId] {
        scratch.traversal(self.hg).neighbors(self.hg, v)
    }

    /// `M` summed from the kept rows of every vertex, placed as
    /// `assignment` says; only meaningful when every vertex has a row,
    /// vertex `v` in slot `v`. Exclusive access reads the counts as plain
    /// integers, which lets the sum vectorise.
    fn summed_pairs(&mut self, assignment: &Partition) -> PairCounts {
        let stride = self.num_parts + CERT_WORDS;
        let mut pairs = PairCounts::zeroed(self.num_parts);
        let parts = assignment.assignment().chunks(BLOCK_SLOTS);
        for (block, parts) in self.rows.iter_mut().zip(parts) {
            for (row, &part) in block.chunks_exact_mut(stride).zip(parts) {
                let x = row[CERT_WORDS..].iter_mut().map(|c| *c.get_mut());
                pairs.add_counted(part, x);
            }
        }
        pairs
    }

    /// The kept part-pair counts `M` as they stand, without counting them:
    /// `None` when the provider was never synced, or when the next
    /// evaluation would count them afresh — a move awaits replay, or one
    /// could not be shifted.
    pub fn pair_counts(&self) -> Option<&PairCounts> {
        let behind = self.pairs_stale || self.unreplayed.load(Ordering::Relaxed) > 0;
        self.pairs.as_ref().filter(|_| !behind)
    }

    /// Counts `M` of `assignment` afresh when it is stale, awaits a
    /// replay or is not yet counted: summed from the rows when every
    /// vertex has one, by neighbourhood walks otherwise.
    fn refresh_pairs(&mut self, assignment: &Partition) {
        let unreplayed = std::mem::take(self.unreplayed.get_mut());
        if std::mem::take(&mut self.pairs_stale) || unreplayed > 0 {
            self.pairs = Some(if self.slots.is_empty() {
                self.summed_pairs(assignment)
            } else {
                PairCounts::build(self.hg, None, assignment)
            });
        }
    }
}

/// [`AdjProvider::slot`] over the borrowed parts.
#[inline]
fn slot_of(slots: &[u32], num_counted: usize, v: VertexId) -> Option<usize> {
    if slots.is_empty() {
        return ((v as usize) < num_counted).then_some(v as usize);
    }
    let slot = *slots.get(v as usize)?;
    (slot != NO_SLOT).then_some(slot as usize)
}

impl ConnectivityProvider for AdjProvider<'_> {
    type Scratch = AdjScratch;

    fn new_scratch(&self) -> Self::Scratch {
        AdjScratch {
            fallback: None,
            hub_fallbacks: self.hub_fallbacks.clone(),
            pending_hub_fallbacks: 0,
        }
    }

    fn needs_nets(&self) -> bool {
        false
    }

    fn sync(&mut self, assignment: &Partition, visits: Option<&[VertexId]>) {
        let p = assignment.num_parts() as usize;
        let n = assignment.num_vertices();
        self.num_parts = p;
        self.slots = Vec::new();
        let counted: Vec<VertexId> = match visits {
            Some(visits) => {
                let mut counted = Vec::new();
                self.slots.resize(n, NO_SLOT);
                for &v in visits {
                    let slot = &mut self.slots[v as usize];
                    if *slot == NO_SLOT {
                        *slot = counted.len() as u32;
                        counted.push(v);
                    }
                }
                counted
            }
            None => (0..n as VertexId).collect(),
        };
        self.num_counted = counted.len();
        let mut scratch = self.new_scratch();
        let mut certificate = [0u32; CERT_WORDS];
        certificate[PART] = NO_PART;
        let mut x = vec![0u32; p];
        let rows = counted
            .chunks(BLOCK_SLOTS)
            .map(|block| {
                let mut rows = Vec::with_capacity(block.len() * (CERT_WORDS + p));
                for &v in block {
                    x.fill(0);
                    for &u in self.neighbors(v, &mut scratch) {
                        x[assignment.part_of(u) as usize] += 1;
                    }
                    rows.extend(certificate.iter().chain(&x).map(|&c| AtomicU32::new(c)));
                }
                rows.into_boxed_slice()
            })
            .collect();
        self.rows = rows;
        // `M` as resumed by the caller, or counted now.
        let resumed = self.resumed.take().filter(|_| visits.is_some());
        if let Some(counts) = &resumed {
            assert_eq!(counts.num_parts(), p, "resumed pairs must match the parts");
        }
        self.pairs_stale = resumed.is_none();
        *self.unreplayed.get_mut() = 0;
        self.pairs = resumed;
        self.replay_x = vec![0; p];
        self.refresh_pairs(assignment);
    }

    fn moved(&self, v: VertexId, from: u32, to: u32, scratch: &mut Self::Scratch) {
        if self.rows.is_empty() {
            return;
        }
        for &u in self.neighbors(v, scratch) {
            if let Some(row) = self.row(u) {
                row[CERT_WORDS + from as usize].fetch_sub(1, Ordering::Relaxed);
                row[CERT_WORDS + to as usize].fetch_add(1, Ordering::Relaxed);
                row[GENERATION].fetch_add(1, Ordering::Release);
            }
        }
        self.unreplayed.fetch_add(1, Ordering::Relaxed);
    }

    fn replay(
        &mut self,
        v: VertexId,
        from: u32,
        to: u32,
        assignment: &Partition,
        scratch: &mut Self::Scratch,
    ) {
        if self.rows.is_empty() {
            return;
        }
        let unreplayed = self.unreplayed.get_mut();
        debug_assert!(*unreplayed > 0, "vertex {v}'s move was never reported");
        *unreplayed = unreplayed.saturating_sub(1);
        let Some(pairs) = self.pairs.as_mut().filter(|_| !self.pairs_stale) else {
            return;
        };
        // `v`'s neighbours as `assignment` places them, before its move.
        let x = &mut self.replay_x;
        x.fill(0);
        for &u in scratch.traversal(self.hg).neighbors(self.hg, v) {
            x[assignment.part_of(u) as usize] += 1;
        }
        pairs.move_counted(from, to, x.iter().copied());
    }

    fn moved_exclusive(&mut self, v: VertexId, from: u32, to: u32, scratch: &mut Self::Scratch) {
        if self.rows.is_empty() {
            return;
        }
        let stride = self.num_parts + CERT_WORDS;
        for &u in scratch.traversal(self.hg).neighbors(self.hg, v) {
            if let Some(slot) = slot_of(&self.slots, self.num_counted, u) {
                let lo = slot % BLOCK_SLOTS * stride;
                let row = &mut self.rows[slot / BLOCK_SLOTS][lo..lo + stride];
                *row[CERT_WORDS + from as usize].get_mut() -= 1;
                *row[CERT_WORDS + to as usize].get_mut() += 1;
                let generation = row[GENERATION].get_mut();
                *generation = generation.wrapping_add(1);
            }
        }
        // `v`'s own pairs move from row and column `from` to `to`; `X(v)`
        // counts them, and `v`'s move leaves it as it is. The engine moves
        // only visited vertices; any other mover has no row to shift by.
        if let Some(pairs) = self.pairs.as_mut().filter(|_| !self.pairs_stale) {
            match slot_of(&self.slots, self.num_counted, v) {
                Some(slot) => {
                    let lo = slot % BLOCK_SLOTS * stride;
                    let x = &self.rows[slot / BLOCK_SLOTS][lo + CERT_WORDS..lo + stride];
                    pairs.move_counted(from, to, x.iter().map(|c| c.load(Ordering::Relaxed)));
                }
                None => self.pairs_stale = true,
            }
        }
    }

    fn agrees_with<A: AssignmentRef>(&self, assignment: &A) -> bool {
        let mut oracle = NeighborScratch::new(self.hg.num_vertices());
        let mut expected = Vec::new();
        let counts_agree = self.hg.vertices().all(|v| {
            self.kept_counts(v).is_none_or(|kept| {
                oracle.neighbor_partition_counts(self.hg, assignment, v, &mut expected);
                kept.iter()
                    .zip(&expected)
                    .all(|(x, &c)| x.load(Ordering::Relaxed) == c)
            })
        });
        // Pairs that await a recount are counted afresh before they are read.
        let pairs_agree = self
            .pair_counts()
            .is_none_or(|pairs| *pairs == PairCounts::build(self.hg, None, assignment));
        counts_agree && pairs_agree
    }

    fn comm_cost(&mut self, assignment: &Partition, cost: &CostMatrix) -> Option<f64> {
        self.pairs.as_ref()?;
        check_shapes(self.hg, assignment, cost);
        self.refresh_pairs(assignment);
        self.pairs.as_ref().map(|pairs| pairs.dot(cost))
    }

    fn certificates_agree_with<A: AssignmentRef>(&self, assignment: &A, cost: &CostMatrix) -> bool {
        let mut counts = Vec::new();
        let mut value = ValueScratch::new();
        self.hg.vertices().all(|v| {
            let Some(row) = self.row(v) else {
                return true;
            };
            let generation = row[GENERATION].load(Ordering::Relaxed);
            certified_stay(row, generation).is_none_or(|(part, gap)| {
                counts.clear();
                let kept = &row[CERT_WORDS..];
                counts.extend(kept.iter().map(|x| x.load(Ordering::Relaxed)));
                let recount = comm_gap_in(&counts, cost, part, &mut value);
                part == assignment.part_of(v)
                    && gap.to_bits() == f64::from(f32_at_most(recount)).to_bits()
            })
        })
    }

    fn stay_certificate(&self, v: VertexId) -> Option<StayCertificate> {
        let row = self.row(v)?;
        let generation = row[GENERATION].load(Ordering::Acquire);
        Some(StayCertificate {
            generation,
            stay: certified_stay(row, generation),
        })
    }

    fn certify(&self, v: VertexId, generation: u32, part: u32, gap: f64) {
        if let Some(row) = self.row(v) {
            // Only `v`'s next visit reads these, on this thread or after
            // the worker team joins, so they need no ordering of their own.
            row[PART].store(part, Ordering::Relaxed);
            row[GAP].store(f32_at_most(gap).to_bits(), Ordering::Relaxed);
            // Valid from here unless a shift raced the scoring: then the
            // generation has moved on and stays non-zero.
            let _ = row[GENERATION].compare_exchange(
                generation,
                0,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    fn count<A: AssignmentRef>(
        &self,
        record: &VertexRecord,
        assignment: &A,
        scratch: &mut Self::Scratch,
        counts: &mut Vec<u32>,
    ) {
        let v = record.vertex;
        if let Some(x) = self.kept_counts(v) {
            counts.clear();
            counts.extend(x.iter().map(|c| c.load(Ordering::Relaxed)));
        } else {
            scratch
                .traversal(self.hg)
                .neighbor_partition_counts(self.hg, assignment, v, counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::{HypergraphBuilder, Partition};

    fn three_edge_chain() -> Hypergraph {
        let mut b = HypergraphBuilder::new(6);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3, 4]);
        b.add_hyperedge([4u32, 5]);
        b.build()
    }

    #[test]
    fn adj_provider_counts_distinct_neighbours_excluding_self() {
        let hg = three_edge_chain();
        let provider = AdjProvider::traversal(&hg);
        assert!(!provider.needs_nets());
        let part = Partition::round_robin(6, 3);
        let mut scratch = provider.new_scratch();
        let mut counts = Vec::new();
        let record = VertexRecord {
            vertex: 2,
            weight: 1.0,
            nets: vec![],
        };
        provider.count(&record, &part, &mut scratch, &mut counts);
        // Neighbours of 2 are {0,1,3,4} in parts {0,1,0,1}.
        assert_eq!(counts, vec![2, 2, 0]);
        // Confidence defaults to the margin.
        assert_eq!(provider.confidence(&record, 0, 0.25), 0.25);
    }

    #[test]
    fn adj_provider_matches_the_traversal_oracle_unsynced_and_synced() {
        let hg = three_edge_chain();
        let part = Partition::round_robin(6, 3);
        let mut oracle = NeighborScratch::new(hg.num_vertices());
        let mut expected = Vec::new();
        let mut got = Vec::new();
        let mut adj = AdjProvider::traversal(&hg);
        assert!(!adj.needs_nets());
        let mut adj_scratch = adj.new_scratch();
        for v in hg.vertices() {
            let record = VertexRecord {
                vertex: v,
                weight: 1.0,
                nets: vec![],
            };
            oracle.neighbor_partition_counts(&hg, &part, v, &mut expected);
            adj.count(&record, &part, &mut adj_scratch, &mut got);
            assert_eq!(got, expected, "vertex {v}");
        }
        // Unsynced, every vertex is traversed on the O(|V|) scratch.
        assert!(adj_scratch.fallback.is_some());

        // Synced, every vertex is answered from its kept counts, whose
        // bytes the memory accounting reports.
        adj.sync(&part, None);
        assert_eq!(adj.num_counted_vertices(), hg.num_vertices());
        // One block: its pointer, then 3 counts and 3 certificate
        // words per vertex; and the 3 × 3 part-pair counts.
        assert_eq!(
            adj.memory_bytes(),
            16 + 4 * 3 * hg.num_vertices() + 12 * hg.num_vertices() + 8 * 9
        );
        let mut adj_scratch = adj.new_scratch();
        for v in hg.vertices() {
            let record = VertexRecord {
                vertex: v,
                weight: 1.0,
                nets: vec![],
            };
            oracle.neighbor_partition_counts(&hg, &part, v, &mut expected);
            adj.count(&record, &part, &mut adj_scratch, &mut got);
            assert_eq!(got, expected, "synced, vertex {v}");
        }
        assert!(adj_scratch.fallback.is_none());
    }

    #[test]
    fn traversal_total_is_exact_under_every_strategy() {
        use crate::engine::{Engine, EngineConfig, ExecutionStrategy, InMemorySource};
        use crate::HyperPrawConfig;
        use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
        use hyperpraw_topology::CostMatrix;

        // The traversals are exactly one per vertex at sync plus one per
        // move, and the workers' move tallies cross the flush threshold
        // within a run. A stealing move walks twice: in its worker, and in
        // its replay at the batch boundary.
        let hg = mesh_hypergraph(&MeshConfig::new(3000, 6));
        let n = hg.num_vertices() as u64;
        let config = HyperPrawConfig {
            max_iterations: 6,
            track_history: true,
            ..HyperPrawConfig::default()
        };
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::WorkStealing {
                num_threads: 3,
                chunk: 500,
            },
            ExecutionStrategy::WorkStealing {
                num_threads: 2,
                chunk: 16,
            },
            ExecutionStrategy::WorkStealing {
                num_threads: 4,
                chunk: 16,
            },
        ] {
            let registry = hyperpraw_telemetry::Registry::new();
            let engine = Engine::new(EngineConfig::restreaming(&config).with_strategy(strategy));
            let run = engine
                .run(
                    &CostMatrix::uniform(8),
                    &mut InMemorySource::new(&hg, config.stream_order, 1),
                    &mut AdjProvider::traversal(&hg).with_registry(&registry),
                )
                .unwrap();
            let moves: usize = run.history.records().iter().map(|r| r.moved_vertices).sum();
            assert!(moves > 2 * 1024, "the test must cross the flush threshold");
            let walks_per_move = match strategy {
                ExecutionStrategy::WorkStealing { .. } => 2,
                _ => 1,
            };
            assert_eq!(
                registry.counter_value("engine.hub_fallbacks"),
                Some(n + walks_per_move * moves as u64),
                "{strategy:?}"
            );
        }
    }
}
