//! How neighbour-partition counts are obtained — the engine's state axis.
//!
//! For each visited vertex the engine needs the counts `X_j(v)` consumed by
//! the value function ([`crate::value`]). A [`ConnectivityProvider`]
//! answers that query and absorbs assignment updates; implementations
//! differ only in *where the connectivity state lives*:
//!
//! * [`AdjProvider`] — the in-memory provider: counts **distinct
//!   neighbour vertices** per partition. Non-hub vertices are answered by
//!   one flat, cache-linear scan of a precomputed deduplicated neighbour
//!   adjacency ([`NeighborAdjacency`]) against the assignment the engine
//!   passes in. Hub vertices — above the adjacency's degree cutover, so
//!   they carry no list — are answered from **exact part counts** `X(h)`
//!   the provider keeps per hub: synced once per run
//!   ([`ConnectivityProvider::sync`]) and shifted by one on every move of
//!   a neighbour ([`ConnectivityProvider::moved`]), so a hub visit is an
//!   O(p) copy instead of a traversal of the hub's pins. Both paths
//!   produce the same exact integer counts, so the budget never changes a
//!   partition.
//! * `hyperpraw-lowmem`'s `IndexProvider` — answers from a budgeted
//!   `ConnectivityIndex` (exact hash maps, or Bloom/MinHash sketches),
//!   counting **connected nets** per partition; attach/detach record and
//!   (when supported) forget net incidences.
//!
//! Scoring reads take `&self` plus a worker-local
//! [`ConnectivityProvider::Scratch`], so the parallel execution strategies
//! can fan the same provider out across worker threads. The
//! index providers mutate only on the engine thread at synchronisation
//! points; [`AdjProvider`]'s hub counts are atomics, so a work-stealing
//! worker updates them next to its own write of the live assignment.
//! [`AdjProvider`]'s scratch is O(1) until a hub moves (the traversal
//! scratch materialises lazily), which keeps per-worker memory flat as the
//! parallel strategies scale out.

use std::sync::atomic::{AtomicU32, Ordering};

use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{
    AdjacencyBudget, AssignmentRef, Hypergraph, NeighborAdjacency, Partition, VertexId,
};

/// Supplies neighbour-partition counts to the restreaming engine and
/// tracks assignment changes, when the implementation keeps its own
/// connectivity state.
pub trait ConnectivityProvider: Sync {
    /// Worker-local scratch handed to every [`ConnectivityProvider::count`]
    /// call; one instance per worker thread, reused across windows and
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

    /// Whether [`ConnectivityProvider::count`] reads the `assignment`
    /// argument (true for the in-memory providers, whose counts therefore
    /// track the work-stealing strategy's live atomic view), or answers
    /// from internal state that only changes at
    /// [`ConnectivityProvider::attach`]/[`ConnectivityProvider::detach`]
    /// (the index providers). The work-stealing strategy keeps its batches
    /// small for non-live providers so that state never falls more than a
    /// bounded window behind the stream.
    fn live_counts(&self) -> bool {
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
    /// execution, at the window apply in bulk-synchronous execution, and
    /// in the worker next to its write of the live assignment in
    /// work-stealing execution — hence `&self` and the worker's scratch.
    /// Providers without state derived from the assignment ignore it.
    fn moved(&self, v: VertexId, from: u32, to: u32, scratch: &mut Self::Scratch) {
        let _ = (v, from, to, scratch);
    }

    /// Whether the provider's assignment-derived state agrees with
    /// `assignment`. The engine asserts this in debug builds wherever that
    /// state must be exact — at every pass end, bulk-synchronous window
    /// and work-stealing batch boundary. Providers without such state
    /// have nothing to check.
    fn agrees_with<A: AssignmentRef>(&self, assignment: &A) -> bool {
        let _ = assignment;
        true
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
    /// the live assignment in sequential execution, a frozen snapshot in
    /// bulk-synchronous execution, or a live atomic view (with bounded
    /// staleness) in work-stealing execution, which is why the parameter
    /// is any [`AssignmentRef`] rather than a concrete `Partition`. The
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
    /// staleness). Stateless providers do nothing.
    fn detach(&mut self, record: &VertexRecord, part: u32) {
        let _ = (record, part);
    }

    /// Records that `record` is now assigned to `part` in the provider's
    /// own state. Stateless providers do nothing.
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

/// Slot value of a vertex without hub counts.
const NO_SLOT: u32 = u32::MAX;

/// [`ConnectivityProvider`] over a precomputed [`NeighborAdjacency`]:
/// distinct-neighbour partition counts answered by one flat scan of the
/// vertex's deduplicated neighbour list — no epoch array, no nested pin
/// loop.
///
/// Hub vertices above the adjacency's degree cutover carry no list, so
/// the provider keeps their counts instead: one exact vector `X(h)` of
/// `p` [`AtomicU32`]s per hub the run visits, plus a vertex → slot map
/// (`4·p` bytes per hub and 4 per vertex, see
/// [`AdjProvider::memory_bytes`]). [`ConnectivityProvider::sync`] fills
/// them with one traversal per hub; afterwards, when a vertex `u` moves
/// `a → b`, every distinct hub neighbour `h` of `u` gets `X(h)[a] −= 1`
/// and `X(h)[b] += 1` — a non-hub `u` finds its hub neighbours in its own
/// flat list, a moving hub with one traversal of its pins. This is the
/// pin-count-in-part delta bookkeeping of Mt-KaHyPar, kept per distinct
/// *neighbour* rather than per hyperedge because HyperPRAW's `X_j(v)`
/// deduplicates. A provider no run has synced answers hubs by traversal,
/// through a lazily created per-worker [`NeighborScratch`].
///
/// Counts are exact integers on every path — identical to
/// [`NeighborScratch::neighbor_partition_counts`], the distinct-neighbour
/// `X_j(v)` of the paper — so every budget keeps the engine's equivalence
/// guarantees (f64 history bit-equality). Under work stealing the hub
/// counts follow the live atomic assignment with the same bounded
/// staleness, and are exact again once the team joins.
///
/// The adjacency is either owned ([`AdjProvider::new`] builds it) or
/// borrowed ([`AdjProvider::from_adjacency`]), so one precomputation can
/// be shared with other consumers — the in-memory drivers reuse it for
/// the per-pass comm-cost evaluation
/// ([`crate::engine::ExactCommCost::with_adjacency`]).
#[derive(Debug)]
pub struct AdjProvider<'a> {
    hg: &'a Hypergraph,
    adj: std::borrow::Cow<'a, NeighborAdjacency>,
    /// Part count of the synced run.
    num_parts: usize,
    /// Hub-count slot of every vertex ([`NO_SLOT`] unless it is a hub the
    /// synced run visits); empty until the first sync.
    slots: Vec<u32>,
    /// `X(h)` of every slotted hub, `num_parts` counters per slot. The
    /// counters publish no other data — each is exact once the writers'
    /// threads are joined — so they are accessed with relaxed ordering.
    hub_counts: Vec<AtomicU32>,
    /// Counts hub traversals (sync, hub moves, unsynced hub queries); a
    /// no-op unless bound via [`AdjProvider::with_registry`]. Each
    /// worker's [`AdjScratch`] tallies its own traversals and adds them
    /// here in batches, so workers never write the shared cell per vertex.
    hub_fallbacks: hyperpraw_telemetry::Counter,
}

/// Hub traversals an [`AdjScratch`] tallies before adding them to the
/// shared `engine.hub_fallbacks` counter (the rest is added when it drops).
const HUB_FALLBACK_FLUSH: u64 = 1024;

/// Worker-local scratch of [`AdjProvider`]: empty (O(1)) until the worker
/// traverses a hub, at which point the `O(|V|)` epoch scratch is created
/// once and reused. It also tallies the worker's hub traversals, adding
/// them to the provider's counter every 1024 traversals and on drop, so
/// the run's total stays exact.
#[derive(Debug, Default)]
pub struct AdjScratch {
    fallback: Option<NeighborScratch>,
    hub_fallbacks: hyperpraw_telemetry::Counter,
    pending_hub_fallbacks: u64,
}

impl AdjScratch {
    /// Records one hub traversal.
    fn tally(&mut self) {
        if self.hub_fallbacks.is_enabled() {
            self.pending_hub_fallbacks += 1;
            if self.pending_hub_fallbacks == HUB_FALLBACK_FLUSH {
                self.flush_hub_fallbacks();
            }
        }
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
    /// Builds the adjacency for `hg` under `budget` and owns it.
    pub fn new(hg: &'a Hypergraph, budget: AdjacencyBudget) -> Self {
        Self::with_adjacency(
            hg,
            std::borrow::Cow::Owned(NeighborAdjacency::build(hg, budget)),
        )
    }

    /// Borrows an adjacency built elsewhere (shared across consumers).
    pub fn from_adjacency(hg: &'a Hypergraph, adj: &'a NeighborAdjacency) -> Self {
        Self::with_adjacency(hg, std::borrow::Cow::Borrowed(adj))
    }

    fn with_adjacency(hg: &'a Hypergraph, adj: std::borrow::Cow<'a, NeighborAdjacency>) -> Self {
        Self {
            hg,
            adj,
            num_parts: 0,
            slots: Vec::new(),
            hub_counts: Vec::new(),
            hub_fallbacks: hyperpraw_telemetry::Counter::noop(),
        }
    }

    /// Binds the `engine.hub_fallbacks` counter to `registry`: every hub
    /// traversal actually done — one per hub at sync, one per hub move,
    /// one per query for a hub no run synced — increments it.
    pub fn with_registry(mut self, registry: &hyperpraw_telemetry::Registry) -> Self {
        self.hub_fallbacks = registry.counter("engine.hub_fallbacks");
        self
    }

    /// The precomputed adjacency in use.
    pub fn adjacency(&self) -> &NeighborAdjacency {
        &self.adj
    }

    /// Number of hubs whose part counts the provider keeps (the hubs the
    /// last synced run visits).
    pub fn num_counted_hubs(&self) -> usize {
        self.hub_counts.len() / self.num_parts.max(1)
    }

    /// Heap bytes held: the adjacency plus the hub part counts and their
    /// vertex → slot map.
    pub fn memory_bytes(&self) -> usize {
        self.adj.memory_bytes()
            + self.slots.capacity() * std::mem::size_of::<u32>()
            + self.hub_counts.capacity() * std::mem::size_of::<AtomicU32>()
    }

    /// The kept part counts `X(h)` of `v`, when `v` is a counted hub.
    #[inline]
    fn hub_counts_of(&self, v: VertexId) -> Option<&[AtomicU32]> {
        let slot = *self.slots.get(v as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        let lo = slot as usize * self.num_parts;
        Some(&self.hub_counts[lo..lo + self.num_parts])
    }
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
        self.slots.clear();
        self.slots.resize(n, NO_SLOT);
        let mut hubs: Vec<VertexId> = Vec::new();
        let mut slot_hub = |v: VertexId| {
            let slot = &mut self.slots[v as usize];
            if *slot == NO_SLOT && self.adj.is_hub(v) {
                *slot = hubs.len() as u32;
                hubs.push(v);
            }
        };
        match visits {
            Some(visits) => visits.iter().for_each(|&v| slot_hub(v)),
            None => (0..n as VertexId).for_each(slot_hub),
        }
        self.hub_counts.clear();
        self.hub_counts.reserve_exact(hubs.len() * p);
        let mut scratch = NeighborScratch::new(self.hg.num_vertices());
        let mut counts = Vec::with_capacity(p);
        for &h in &hubs {
            scratch.neighbor_partition_counts(self.hg, assignment, h, &mut counts);
            self.hub_counts
                .extend(counts.iter().map(|&c| AtomicU32::new(c)));
        }
        self.hub_fallbacks.add(hubs.len() as u64);
    }

    fn moved(&self, v: VertexId, from: u32, to: u32, scratch: &mut Self::Scratch) {
        if self.hub_counts.is_empty() {
            return;
        }
        let shift = |h: VertexId| {
            if let Some(x) = self.hub_counts_of(h) {
                x[from as usize].fetch_sub(1, Ordering::Relaxed);
                x[to as usize].fetch_add(1, Ordering::Relaxed);
            }
        };
        match self.adj.neighbors(v) {
            Some(list) => list.iter().for_each(|&h| shift(h)),
            None => {
                scratch.tally();
                let traversal = scratch
                    .fallback
                    .get_or_insert_with(|| NeighborScratch::new(self.hg.num_vertices()));
                traversal
                    .neighbors(self.hg, v)
                    .iter()
                    .for_each(|&h| shift(h));
            }
        }
    }

    fn agrees_with<A: AssignmentRef>(&self, assignment: &A) -> bool {
        let mut scratch = NeighborScratch::new(self.hg.num_vertices());
        let mut expected = Vec::new();
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NO_SLOT)
            .all(|(h, _)| {
                let h = h as VertexId;
                scratch.neighbor_partition_counts(self.hg, assignment, h, &mut expected);
                let kept = self.hub_counts_of(h).expect("slotted hub has counts");
                kept.iter()
                    .zip(&expected)
                    .all(|(x, &c)| x.load(Ordering::Relaxed) == c)
            })
    }

    fn count<A: AssignmentRef>(
        &self,
        record: &VertexRecord,
        assignment: &A,
        scratch: &mut Self::Scratch,
        counts: &mut Vec<u32>,
    ) {
        let v = record.vertex;
        if let Some(list) = self.adj.neighbors(v) {
            counts.clear();
            counts.resize(assignment.num_parts() as usize, 0);
            for &u in list {
                counts[assignment.part_of(u) as usize] += 1;
            }
        } else if let Some(x) = self.hub_counts_of(v) {
            counts.clear();
            counts.extend(x.iter().map(|c| c.load(Ordering::Relaxed)));
        } else {
            scratch.tally();
            self.adj.neighbor_partition_counts(
                self.hg,
                assignment,
                v,
                &mut scratch.fallback,
                counts,
            );
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
        let provider = AdjProvider::new(&hg, AdjacencyBudget::Auto);
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
    fn adj_provider_matches_the_traversal_oracle_for_every_budget() {
        let hg = three_edge_chain();
        let part = Partition::round_robin(6, 3);
        let mut oracle = NeighborScratch::new(hg.num_vertices());
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for budget in [
            AdjacencyBudget::Unbounded,
            AdjacencyBudget::Auto,
            AdjacencyBudget::DegreeCutoff(2), // forces hubs onto the fallback
            AdjacencyBudget::DegreeCutoff(0), // every connected vertex is a hub
        ] {
            let adj = AdjProvider::new(&hg, budget);
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
                assert_eq!(got, expected, "budget {budget:?}, vertex {v}");
            }
            // Unsynced, hubs are traversed: the O(|V|) fallback scratch
            // only exists when hubs exist.
            let hubs = adj.adjacency().num_hubs();
            assert_eq!(
                adj_scratch.fallback.is_some(),
                hubs > 0,
                "budget {budget:?}"
            );

            // Synced, hubs are answered from their kept counts, whose
            // bytes the memory accounting reports.
            let mut adj = adj;
            adj.sync(&part, None);
            assert_eq!(adj.num_counted_hubs(), hubs);
            assert_eq!(
                adj.memory_bytes(),
                adj.adjacency().memory_bytes() + 4 * hg.num_vertices() + 4 * 3 * hubs
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
                assert_eq!(got, expected, "synced, budget {budget:?}, vertex {v}");
            }
            assert!(adj_scratch.fallback.is_none(), "budget {budget:?}");
        }
    }

    #[test]
    fn adj_provider_reuses_an_external_adjacency() {
        let mut b = HypergraphBuilder::new(4);
        b.add_hyperedge([0u32, 1, 2, 3]);
        let hg = b.build();
        let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::Unbounded);
        let provider = AdjProvider::from_adjacency(&hg, &adj);
        assert_eq!(provider.adjacency().num_vertices(), 4);
        assert_eq!(provider.adjacency().distinct_degree(0), 3);
    }

    #[test]
    fn hub_fallback_total_is_exact_under_every_strategy() {
        use crate::engine::{Engine, EngineConfig, ExecutionStrategy, InMemorySource, NoCommCost};
        use crate::HyperPrawConfig;
        use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
        use hyperpraw_topology::CostMatrix;

        // A zero cutoff makes every mesh vertex a hub, so the traversals
        // are exactly one per vertex at sync plus one per move, and the
        // workers' move tallies cross the flush threshold within a run.
        let hg = mesh_hypergraph(&MeshConfig::new(3000, 6));
        let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::DegreeCutoff(0));
        let hubs = adj.num_hubs() as u64;
        assert_eq!(hubs, hg.num_vertices() as u64);
        let config = HyperPrawConfig {
            max_iterations: 6,
            track_history: true,
            ..HyperPrawConfig::default()
        };
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Chunked {
                num_threads: 3,
                sync_interval: 500,
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
                    &mut AdjProvider::from_adjacency(&hg, &adj).with_registry(&registry),
                    &mut NoCommCost,
                )
                .unwrap();
            let moves: usize = run.history.records().iter().map(|r| r.moved_vertices).sum();
            assert!(moves > 2 * 1024, "the test must cross the flush threshold");
            assert_eq!(
                registry.counter_value("engine.hub_fallbacks"),
                Some(hubs + moves as u64),
                "{strategy:?}"
            );
        }
    }
}
