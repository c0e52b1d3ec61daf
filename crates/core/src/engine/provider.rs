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
//!   copy. Neighbourhoods are walked only at sync and on a move: a flat
//!   scan of a precomputed deduplicated neighbour list
//!   ([`NeighborAdjacency`]) when the provider has one, an epoch traversal
//!   of the vertex's pins otherwise. Every path produces the same exact
//!   integer counts, so the adjacency never changes a partition.
//! * `hyperpraw-lowmem`'s `IndexProvider` — answers from a budgeted
//!   `ConnectivityIndex` (exact hash maps, or Bloom/MinHash sketches),
//!   counting **connected nets** per partition; attach/detach record and
//!   (when supported) forget net incidences.
//!
//! Scoring reads take `&self` plus a worker-local
//! [`ConnectivityProvider::Scratch`], so the parallel execution strategies
//! can fan the same provider out across worker threads. The
//! index providers mutate only on the engine thread at synchronisation
//! points; [`AdjProvider`]'s kept counts are atomics, so a work-stealing
//! worker updates them next to its own write of the live assignment.
//! [`AdjProvider`]'s scratch is O(1) until the worker traverses a
//! neighbourhood (the traversal scratch materialises lazily).

use std::borrow::Cow;
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

/// Slot value of a vertex without kept counts.
const NO_SLOT: u32 = u32::MAX;

/// The in-memory [`ConnectivityProvider`]: exact distinct-neighbour part
/// counts `X(v)` kept for every vertex a run visits.
///
/// [`ConnectivityProvider::sync`] counts `X(v)` once per run for each
/// vertex the run will visit: `p` [`AtomicU32`]s per vertex plus a
/// vertex → slot map (`4·p + 4` bytes per vertex, see
/// [`AdjProvider::memory_bytes`]). Afterwards, when a vertex `u` moves
/// `a → b`, every counted distinct neighbour `w` of `u` gets
/// `X(w)[a] −= 1` and `X(w)[b] += 1`. A visit is therefore an O(p) copy,
/// and a neighbourhood is walked only at sync and when its vertex moves —
/// a few percent of the visits once the first pass has placed the stream.
/// This is the pin-count-in-part delta bookkeeping of Mt-KaHyPar, kept
/// per distinct *neighbour* rather than per hyperedge because
/// HyperPRAW's `X_j(v)` deduplicates.
///
/// Neighbourhoods come from a precomputed [`NeighborAdjacency`] when the
/// provider has one, owned ([`AdjProvider::new`]) or borrowed
/// ([`AdjProvider::from_adjacency`]; the dynamic layer lends its patched
/// adjacency, whose lists keep its moves cheap). Otherwise — for hubs
/// without a list, and for every vertex of an [`AdjProvider::traversal`]
/// provider, which [`crate::HyperPraw`] runs — they come from an epoch
/// traversal of the vertex's pins, through a lazily created per-worker
/// [`NeighborScratch`]. A query for a vertex without kept counts (the
/// provider was never synced, or the run does not visit the vertex) is
/// answered by [`NeighborAdjacency::neighbor_partition_counts`] or the
/// traversal oracle.
///
/// Counts are exact integers on every path — identical to
/// [`NeighborScratch::neighbor_partition_counts`], the distinct-neighbour
/// `X_j(v)` of the paper — so neither the adjacency nor its budget ever
/// changes a partition (f64 history bit-equality). Under work stealing
/// the kept counts follow the live atomic assignment with the same
/// bounded staleness, and are exact again once the team joins.
#[derive(Debug)]
pub struct AdjProvider<'a> {
    hg: &'a Hypergraph,
    /// Flat neighbour lists, when the provider has them.
    adj: Option<Cow<'a, NeighborAdjacency>>,
    /// Part count of the synced run.
    num_parts: usize,
    /// Count slot of every vertex ([`NO_SLOT`] unless the synced run
    /// visits it); empty until the first sync.
    slots: Vec<u32>,
    /// `X(v)` of every slotted vertex, `num_parts` counters per slot. The
    /// counters publish no other data — each is exact once the writers'
    /// threads are joined — so they are accessed with relaxed ordering.
    counts: Vec<AtomicU32>,
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
    /// Builds the adjacency for `hg` under `budget` and owns it.
    pub fn new(hg: &'a Hypergraph, budget: AdjacencyBudget) -> Self {
        Self::with_adjacency(hg, Some(Cow::Owned(NeighborAdjacency::build(hg, budget))))
    }

    /// Borrows an adjacency built elsewhere (shared across consumers).
    pub fn from_adjacency(hg: &'a Hypergraph, adj: &'a NeighborAdjacency) -> Self {
        Self::with_adjacency(hg, Some(Cow::Borrowed(adj)))
    }

    /// Finds every neighbourhood by traversal and builds no adjacency.
    /// Synced, its visits still copy kept counts; only sync and moves
    /// traverse.
    pub fn traversal(hg: &'a Hypergraph) -> Self {
        Self::with_adjacency(hg, None)
    }

    fn with_adjacency(hg: &'a Hypergraph, adj: Option<Cow<'a, NeighborAdjacency>>) -> Self {
        Self {
            hg,
            adj,
            num_parts: 0,
            slots: Vec::new(),
            counts: Vec::new(),
            hub_fallbacks: hyperpraw_telemetry::Counter::noop(),
        }
    }

    /// Binds the `engine.hub_fallbacks` counter to `registry`: every
    /// neighbourhood traversal actually done — at sync, per move and per
    /// query of a vertex without kept counts, for every vertex without a
    /// flat list — increments it.
    pub fn with_registry(mut self, registry: &hyperpraw_telemetry::Registry) -> Self {
        self.hub_fallbacks = registry.counter("engine.hub_fallbacks");
        self
    }

    /// The precomputed adjacency in use.
    ///
    /// # Panics
    ///
    /// Panics for an [`AdjProvider::traversal`] provider, which has none.
    pub fn adjacency(&self) -> &NeighborAdjacency {
        self.adj
            .as_deref()
            .expect("a traversal provider has no adjacency")
    }

    /// Number of vertices whose part counts the provider keeps (the
    /// vertices the last synced run visits).
    pub fn num_counted_vertices(&self) -> usize {
        self.counts.len() / self.num_parts.max(1)
    }

    /// Heap bytes held: the adjacency, if any, plus the kept part counts
    /// and their vertex → slot map.
    pub fn memory_bytes(&self) -> usize {
        self.adj
            .as_deref()
            .map_or(0, NeighborAdjacency::memory_bytes)
            + self.slots.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<AtomicU32>()
    }

    /// The kept part counts `X(v)`, when `v` has them.
    #[inline]
    fn kept_counts(&self, v: VertexId) -> Option<&[AtomicU32]> {
        let slot = *self.slots.get(v as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        let lo = slot as usize * self.num_parts;
        Some(&self.counts[lo..lo + self.num_parts])
    }

    /// The distinct neighbours of `v`: its flat list when the adjacency
    /// has one, otherwise a traversal through `scratch`.
    fn neighbors<'s>(&'s self, v: VertexId, scratch: &'s mut AdjScratch) -> &'s [VertexId] {
        match self.adj.as_deref().and_then(|adj| adj.neighbors(v)) {
            Some(list) => list,
            None => scratch.traversal(self.hg).neighbors(self.hg, v),
        }
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
        let mut counted: Vec<VertexId> = Vec::new();
        let mut slot = |v: VertexId| {
            let slot = &mut self.slots[v as usize];
            if *slot == NO_SLOT {
                *slot = counted.len() as u32;
                counted.push(v);
            }
        };
        match visits {
            Some(visits) => visits.iter().for_each(|&v| slot(v)),
            None => (0..n as VertexId).for_each(slot),
        }
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        counts.reserve_exact(counted.len() * p);
        let mut scratch = self.new_scratch();
        let mut x = vec![0u32; p];
        for &v in &counted {
            x.fill(0);
            for &u in self.neighbors(v, &mut scratch) {
                x[assignment.part_of(u) as usize] += 1;
            }
            counts.extend(x.iter().map(|&c| AtomicU32::new(c)));
        }
        self.counts = counts;
    }

    fn moved(&self, v: VertexId, from: u32, to: u32, scratch: &mut Self::Scratch) {
        if self.counts.is_empty() {
            return;
        }
        for &u in self.neighbors(v, scratch) {
            if let Some(x) = self.kept_counts(u) {
                x[from as usize].fetch_sub(1, Ordering::Relaxed);
                x[to as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn agrees_with<A: AssignmentRef>(&self, assignment: &A) -> bool {
        let mut oracle = NeighborScratch::new(self.hg.num_vertices());
        let mut expected = Vec::new();
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NO_SLOT)
            .all(|(v, _)| {
                let v = v as VertexId;
                oracle.neighbor_partition_counts(self.hg, assignment, v, &mut expected);
                let kept = self.kept_counts(v).expect("slotted vertex has counts");
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
        if let Some(x) = self.kept_counts(v) {
            counts.clear();
            counts.extend(x.iter().map(|c| c.load(Ordering::Relaxed)));
        } else if let Some(adj) = self.adj.as_deref().filter(|adj| !adj.is_hub(v)) {
            adj.neighbor_partition_counts(self.hg, assignment, v, &mut scratch.fallback, counts);
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
        let providers = [
            Some(AdjacencyBudget::Unbounded),
            Some(AdjacencyBudget::Auto),
            Some(AdjacencyBudget::DegreeCutoff(2)), // forces hubs onto the fallback
            Some(AdjacencyBudget::DegreeCutoff(0)), // every connected vertex is a hub
            None,                                   // no adjacency at all
        ];
        for budget in providers {
            let adj = match budget {
                Some(budget) => AdjProvider::new(&hg, budget),
                None => AdjProvider::traversal(&hg),
            };
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
            // Unsynced, vertices without a list are traversed: the O(|V|)
            // fallback scratch only exists when such vertices exist.
            let traverses = budget.is_none() || adj.adjacency().num_hubs() > 0;
            assert_eq!(
                adj_scratch.fallback.is_some(),
                traverses,
                "budget {budget:?}"
            );

            // Synced, every vertex is answered from its kept counts, whose
            // bytes the memory accounting reports.
            let mut adj = adj;
            adj.sync(&part, None);
            assert_eq!(adj.num_counted_vertices(), hg.num_vertices());
            let adj_bytes = budget.map_or(0, |_| adj.adjacency().memory_bytes());
            assert_eq!(
                adj.memory_bytes(),
                adj_bytes + 4 * hg.num_vertices() + 4 * 3 * hg.num_vertices()
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
    fn traversal_total_is_exact_under_every_strategy() {
        use crate::engine::{Engine, EngineConfig, ExecutionStrategy, InMemorySource, NoCommCost};
        use crate::HyperPrawConfig;
        use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
        use hyperpraw_topology::CostMatrix;

        // Without flat lists — no adjacency, or a zero cutoff that makes
        // every mesh vertex a hub — the traversals are exactly one per
        // vertex at sync plus one per move, and the workers' move tallies
        // cross the flush threshold within a run.
        let hg = mesh_hypergraph(&MeshConfig::new(3000, 6));
        let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::DegreeCutoff(0));
        assert_eq!(adj.num_hubs(), hg.num_vertices());
        let n = hg.num_vertices() as u64;
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
            for all_hubs in [true, false] {
                let registry = hyperpraw_telemetry::Registry::new();
                let provider = if all_hubs {
                    AdjProvider::from_adjacency(&hg, &adj)
                } else {
                    AdjProvider::traversal(&hg)
                };
                let engine =
                    Engine::new(EngineConfig::restreaming(&config).with_strategy(strategy));
                let run = engine
                    .run(
                        &CostMatrix::uniform(8),
                        &mut InMemorySource::new(&hg, config.stream_order, 1),
                        &mut provider.with_registry(&registry),
                        &mut NoCommCost,
                    )
                    .unwrap();
                let moves: usize = run.history.records().iter().map(|r| r.moved_vertices).sum();
                assert!(moves > 2 * 1024, "the test must cross the flush threshold");
                assert_eq!(
                    registry.counter_value("engine.hub_fallbacks"),
                    Some(n + moves as u64),
                    "{strategy:?}, all hubs: {all_hubs}"
                );
            }
        }
    }
}
