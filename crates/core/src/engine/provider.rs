//! How neighbour-partition counts are obtained — the engine's state axis.
//!
//! For each visited vertex the engine needs the counts `X_j(v)` consumed by
//! the value function ([`crate::value`]). A [`ConnectivityProvider`]
//! answers that query and absorbs assignment updates; implementations
//! differ only in *where the connectivity state lives*:
//!
//! * [`AdjProvider`] — the in-memory provider: counts **distinct
//!   neighbour vertices** per partition against the assignment the engine
//!   passes in, answered from a precomputed deduplicated neighbour
//!   adjacency ([`NeighborAdjacency`]) — one flat, cache-linear scan per
//!   visit instead of re-deduplicating the neighbourhood on every pass.
//!   Budget-aware and hybrid: hub vertices above the adjacency's degree
//!   cutover fall back to epoch traversal of the CSR hypergraph through a
//!   [`NeighborScratch`]. Both paths produce the same exact integer
//!   counts, so the budget never changes a partition. Holds no state of
//!   its own, so detach/attach are no-ops.
//! * `hyperpraw-lowmem`'s `IndexProvider` — answers from a budgeted
//!   `ConnectivityIndex` (exact hash maps, or Bloom/MinHash sketches),
//!   counting **connected nets** per partition; attach/detach record and
//!   (when supported) forget net incidences.
//!
//! Scoring reads take `&self` plus a worker-local
//! [`ConnectivityProvider::Scratch`], so the bulk-synchronous execution
//! strategy can fan the same provider out across worker threads; all
//! mutation happens on the engine thread at synchronisation points.
//! [`AdjProvider`]'s scratch is O(1) until a hub is met (the traversal
//! scratch materialises lazily), which keeps per-worker memory flat as
//! the bulk-synchronous strategy scales out.

use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{AdjacencyBudget, AssignmentRef, Hypergraph, NeighborAdjacency};

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

/// [`ConnectivityProvider`] over a precomputed [`NeighborAdjacency`]:
/// distinct-neighbour partition counts answered by one flat scan of the
/// vertex's deduplicated neighbour list — no epoch array, no nested pin
/// loop. Hub vertices above the adjacency's degree cutover traverse the
/// hypergraph through a lazily created per-worker [`NeighborScratch`]
/// instead, so dense instances degrade gracefully rather than exploding
/// the adjacency quadratically.
///
/// Counts are exact integers on both paths — identical to
/// [`NeighborScratch::neighbor_partition_counts`], the distinct-neighbour
/// `X_j(v)` of the paper — so every budget keeps the engine's equivalence
/// guarantees (f64 history bit-equality).
///
/// The adjacency is either owned ([`AdjProvider::new`] builds it) or
/// borrowed ([`AdjProvider::from_adjacency`]), so one precomputation can
/// be shared with other consumers — the in-memory drivers reuse it for
/// the per-pass comm-cost evaluation
/// ([`crate::engine::ExactCommCost::with_adjacency`]).
#[derive(Clone, Debug)]
pub struct AdjProvider<'a> {
    hg: &'a Hypergraph,
    adj: std::borrow::Cow<'a, NeighborAdjacency>,
    /// Counts hub vertices answered through the traversal fallback; a
    /// no-op unless bound via [`AdjProvider::with_registry`]. Each
    /// worker's [`AdjScratch`] tallies its own visits and adds them here
    /// in batches, so workers never write the shared cell per vertex.
    hub_fallbacks: hyperpraw_telemetry::Counter,
}

/// Hub visits an [`AdjScratch`] tallies before adding them to the shared
/// `engine.hub_fallbacks` counter (the rest is added when it drops).
const HUB_FALLBACK_FLUSH: u64 = 1024;

/// Worker-local scratch of [`AdjProvider`]: empty (O(1)) until the worker
/// meets a hub vertex, at which point the `O(|V|)` epoch scratch for the
/// traversal fallback is created once and reused. It also tallies the
/// worker's hub visits, adding them to the provider's counter every 1024
/// visits and on drop, so the run's total stays exact.
#[derive(Debug, Default)]
pub struct AdjScratch {
    fallback: Option<NeighborScratch>,
    hub_fallbacks: hyperpraw_telemetry::Counter,
    pending_hub_fallbacks: u64,
}

impl AdjScratch {
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
        Self {
            hg,
            adj: std::borrow::Cow::Owned(NeighborAdjacency::build(hg, budget)),
            hub_fallbacks: hyperpraw_telemetry::Counter::noop(),
        }
    }

    /// Borrows an adjacency built elsewhere (shared across consumers).
    pub fn from_adjacency(hg: &'a Hypergraph, adj: &'a NeighborAdjacency) -> Self {
        Self {
            hg,
            adj: std::borrow::Cow::Borrowed(adj),
            hub_fallbacks: hyperpraw_telemetry::Counter::noop(),
        }
    }

    /// Binds the `engine.hub_fallbacks` counter to `registry`: every
    /// connectivity count answered through the hub traversal fallback
    /// (rather than the flat adjacency list) increments it.
    pub fn with_registry(mut self, registry: &hyperpraw_telemetry::Registry) -> Self {
        self.hub_fallbacks = registry.counter("engine.hub_fallbacks");
        self
    }

    /// The precomputed adjacency in use.
    pub fn adjacency(&self) -> &NeighborAdjacency {
        &self.adj
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

    fn count<A: AssignmentRef>(
        &self,
        record: &VertexRecord,
        assignment: &A,
        scratch: &mut Self::Scratch,
        counts: &mut Vec<u32>,
    ) {
        if scratch.hub_fallbacks.is_enabled() && self.adj.is_hub(record.vertex) {
            scratch.pending_hub_fallbacks += 1;
            if scratch.pending_hub_fallbacks == HUB_FALLBACK_FLUSH {
                scratch.flush_hub_fallbacks();
            }
        }
        self.adj.neighbor_partition_counts(
            self.hg,
            assignment,
            record.vertex,
            &mut scratch.fallback,
            counts,
        );
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
            // The O(|V|) fallback scratch only exists when hubs exist.
            assert_eq!(
                adj_scratch.fallback.is_some(),
                adj.adjacency().num_hubs() > 0,
                "budget {budget:?}"
            );
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

        // A cutoff of 8 puts most mesh vertices on the traversal fallback,
        // so the workers' tallies cross the flush threshold within a run.
        let hg = mesh_hypergraph(&MeshConfig::new(1500, 6));
        let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::DegreeCutoff(8));
        let hubs = adj.num_hubs() as u64;
        assert!(hubs * 4 > 1024, "the test must cross the flush threshold");
        let config = HyperPrawConfig {
            max_iterations: 6,
            ..HyperPrawConfig::default()
        };
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Chunked {
                num_threads: 3,
                sync_interval: 100,
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
                    &CostMatrix::uniform(4),
                    &mut InMemorySource::new(&hg, config.stream_order, 1),
                    &mut AdjProvider::from_adjacency(&hg, &adj).with_registry(&registry),
                    &mut NoCommCost,
                )
                .unwrap();
            assert_eq!(
                registry.counter_value("engine.hub_fallbacks"),
                Some(hubs * run.iterations as u64),
                "{strategy:?}"
            );
        }
    }
}
