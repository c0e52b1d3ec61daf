//! The memory-bounded streaming partitioner — a thin instantiation of
//! `hyperpraw-core`'s generic restreaming engine: any
//! [`VertexStream`] as the vertex source × an [`IndexProvider`] over
//! budgeted connectivity state × the sequential execution strategy.

use hyperpraw_core::engine::{DoubtConfig, Engine, EngineConfig, InitialAssignment, StreamSource};
use hyperpraw_core::{CostMatrix, HyperPrawConfig};
use hyperpraw_hypergraph::io::stream::VertexStream;
use hyperpraw_hypergraph::io::IoResult;
use hyperpraw_hypergraph::{Hypergraph, Partition};

use crate::budget::{MemoryBudget, SketchPlan};
use crate::index::{ExactIndex, SketchIndex};
use crate::provider::IndexProvider;

/// Which [`crate::ConnectivityIndex`] implementation the partitioner uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexKind {
    /// Bloom/MinHash sketches with memory fixed by the budget (the
    /// production configuration).
    #[default]
    Sketched,
    /// Exact per-partition hash maps — unbounded memory, used as the
    /// reference implementation and for small inputs.
    Exact,
}

impl IndexKind {
    /// Name as printed in reports and bench ids.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Sketched => "sketched",
            IndexKind::Exact => "exact",
        }
    }
}

/// Configuration of the streaming partitioner.
#[derive(Clone, Debug)]
pub struct LowMemConfig {
    /// Memory budget for sketches, the transpose buffer and the
    /// re-streaming buffer.
    pub budget: MemoryBudget,
    /// Which connectivity index implementation to use.
    pub index: IndexKind,
    /// Workload-imbalance weight `α`. `None` uses the FENNEL-derived
    /// starting point `√p · |E| / √|V|`, like `hyperpraw-core`.
    pub alpha: Option<f64>,
    /// Number of lowest-confidence assignments revisited after the final
    /// pass. `None` sizes the buffer from the budget
    /// ([`SketchPlan::restream_capacity`]); `Some(0)` disables
    /// re-streaming. Whatever the entry count, the buffer's memory is
    /// additionally capped by [`SketchPlan::restream_bytes`] so
    /// high-degree doubts cannot blow the budget.
    pub restream_capacity: Option<usize>,
    /// When `true`, a preliminary pass seeds the index with a round-robin
    /// assignment of every vertex, reproducing the *restreaming* semantics
    /// of `hyperpraw-core`'s first stream (each decision sees every other
    /// vertex placed somewhere). When `false`, the partitioner is a true
    /// one-pass streamer: unseen vertices contribute no connectivity.
    ///
    /// Requires an index that supports
    /// [`crate::ConnectivityIndex::forget`] ([`IndexKind::Exact`]): a Bloom
    /// sketch cannot remove the prior, which would silently degrade the
    /// counts towards uniform — [`LowMemPartitioner::new`] rejects the
    /// combination.
    pub round_robin_prior: bool,
    /// Number of streaming passes over the input. `1` is the classic
    /// one-pass regime; larger values restream out-of-core (each pass
    /// re-reads the vertex stream and re-places every vertex against the
    /// index), stopping early when a pass moves nothing.
    pub passes: usize,
    /// Rebuild the sketches at the start of every pass after the first,
    /// shedding the staleness a non-forgetting index accumulates when
    /// vertices move (the Taşyaran-style rebuild). Ignored by
    /// [`IndexKind::Exact`], whose state is never stale.
    pub rebuild_sketches: bool,
    /// Seed of the MinHash hash family.
    pub seed: u64,
}

impl Default for LowMemConfig {
    fn default() -> Self {
        Self {
            budget: MemoryBudget::default(),
            index: IndexKind::Sketched,
            alpha: None,
            restream_capacity: None,
            round_robin_prior: false,
            passes: 1,
            rebuild_sketches: false,
            seed: 0,
        }
    }
}

impl LowMemConfig {
    /// Validates parameter ranges, returning a description of the first
    /// problem found — the same conditions [`LowMemPartitioner::new`]
    /// panics on, surfaced as a `Result` for callers (the facade job API)
    /// that report configuration errors instead of aborting.
    pub fn validate(&self) -> Result<(), String> {
        if self.budget.bytes == 0 {
            return Err("memory budget must be at least one byte".into());
        }
        if self.passes == 0 {
            return Err("need at least one streaming pass".into());
        }
        if self.round_robin_prior && self.index == IndexKind::Sketched {
            return Err(
                "round_robin_prior requires an index that can forget assignments; \
                 use IndexKind::Exact"
                    .into(),
            );
        }
        if let Some(a) = self.alpha {
            if !(a.is_finite() && a > 0.0) {
                return Err("alpha must be positive and finite".into());
            }
        }
        Ok(())
    }
}

/// The output of a streaming-partitioner run.
#[derive(Clone, Debug)]
pub struct LowMemResult {
    /// The vertex-to-partition assignment.
    pub partition: Partition,
    /// The `α` used by the value function.
    pub alpha: f64,
    /// Number of streaming passes executed (≤ [`LowMemConfig::passes`];
    /// fewer when a pass reaches a fixed point).
    pub passes: usize,
    /// Number of buffered low-confidence assignments revisited.
    pub restreamed: usize,
    /// How many of the revisited assignments changed partition.
    pub moved_in_restream: usize,
    /// Heap bytes held by the connectivity index at the end of the run.
    pub index_memory_bytes: usize,
    /// The sketch sizing derived from the budget.
    pub plan: SketchPlan,
}

/// The memory-bounded streaming partitioner.
///
/// Each incoming `(vertex, nets)` record is assigned to the partition
/// maximising HyperPRAW's architecture-aware value function: the
/// neighbour-partition counts `X_j(v)` are replaced by *net-connectivity*
/// counts answered by a [`crate::ConnectivityIndex`] in budgeted memory,
/// while the cost matrix, `α`-weighted balance term and tie-breaking are
/// exactly `hyperpraw-core`'s — the whole loop *is*
/// [`hyperpraw_core::engine::Engine::run`], instantiated with this
/// crate's [`IndexProvider`]. An optional bounded buffer collects the `k`
/// lowest-confidence assignments (smallest value margin, similarity-
/// adjusted when the index sketches one) and revisits them once at the end
/// against the final connectivity state; optional extra passes restream
/// the whole input out-of-core, optionally rebuilding the sketches
/// between passes. The stream runs on one thread: the index changes at
/// every placement, so concurrent workers would score against counts that
/// lag the stream.
#[derive(Clone, Debug)]
pub struct LowMemPartitioner {
    config: LowMemConfig,
    cost: CostMatrix,
}

impl LowMemPartitioner {
    /// Creates a partitioner; the number of partitions equals the size of
    /// the cost matrix, one per compute unit of the target machine.
    ///
    /// # Panics
    ///
    /// Panics when the cost matrix is empty, when
    /// [`LowMemConfig::round_robin_prior`] is combined with
    /// [`IndexKind::Sketched`] (the sketch cannot forget the prior), or
    /// when `passes` is zero.
    pub fn new(config: LowMemConfig, cost: CostMatrix) -> Self {
        assert!(
            cost.num_units() > 0,
            "cost matrix must cover at least one unit"
        );
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid lowmem configuration: {e}"));
        Self { config, cost }
    }

    /// The architecture-oblivious variant (uniform cost matrix).
    pub fn basic(config: LowMemConfig, p: u32) -> Self {
        Self::new(config, CostMatrix::uniform(p as usize))
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.cost.num_units() as u32
    }

    /// The configuration in use.
    pub fn config(&self) -> &LowMemConfig {
        &self.config
    }

    /// Partitions the hypergraph delivered by `stream`.
    ///
    /// The stream is read once per pass, plus once more when
    /// [`LowMemConfig::round_robin_prior`] seeds the index; either way the
    /// peak sketch memory is fixed by the budget's [`SketchPlan`].
    pub fn partition<S: VertexStream>(&self, stream: &mut S) -> IoResult<LowMemResult> {
        let p = self.cost.num_units();
        let n = stream.num_vertices();
        let e = stream.num_nets();
        // The double-buffered sketch rebuild holds two index copies during
        // rebuild passes; halve the per-copy sizing so the pair still fits
        // the budget.
        let rebuilding = self.config.rebuild_sketches
            && self.config.passes > 1
            && self.config.index == IndexKind::Sketched;
        let sizing = if rebuilding {
            MemoryBudget::bytes(self.config.budget.bytes / 2)
        } else {
            self.config.budget
        };
        let plan = sizing.plan(p, e);
        let alpha = self
            .config
            .alpha
            .unwrap_or_else(|| HyperPrawConfig::fennel_alpha(p as u32, n, e));

        let mut provider = IndexProvider::new(match self.config.index {
            IndexKind::Exact => Box::new(ExactIndex::new(p)),
            IndexKind::Sketched => Box::new(SketchIndex::new(p, &plan, self.config.seed)),
        });

        let mut engine_config = EngineConfig::streaming(Some(alpha), self.config.passes);
        engine_config.initial = if self.config.round_robin_prior {
            InitialAssignment::RoundRobin
        } else {
            InitialAssignment::Unassigned
        };
        engine_config.rebuild_between_passes = self.config.rebuild_sketches;
        engine_config.doubts = DoubtConfig {
            capacity: self
                .config
                .restream_capacity
                .unwrap_or(plan.restream_capacity),
            // The plan's entry count assumes average-degree vertices; the
            // byte bound is what keeps the buffer inside the budget when
            // the low-confidence entries happen to be high-degree hubs.
            byte_bound: plan.restream_bytes,
        };

        let run =
            Engine::new(engine_config).run(&self.cost, &mut StreamSource(stream), &mut provider)?;
        Ok(LowMemResult {
            partition: run.partition,
            alpha,
            passes: run.iterations,
            restreamed: run.restreamed,
            moved_in_restream: run.moved_in_restream,
            index_memory_bytes: provider.memory_bytes(),
            plan,
        })
    }

    /// Convenience wrapper partitioning an in-memory hypergraph through
    /// [`hyperpraw_hypergraph::io::stream::InMemoryVertexStream`].
    pub fn partition_hypergraph(&self, hg: &Hypergraph) -> LowMemResult {
        let mut stream = hyperpraw_hypergraph::io::stream::InMemoryVertexStream::new(hg);
        self.partition(&mut stream)
            .expect("in-memory streams cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
    use hyperpraw_hypergraph::metrics;

    fn config(index: IndexKind) -> LowMemConfig {
        LowMemConfig {
            index,
            ..LowMemConfig::default()
        }
    }

    #[test]
    fn produces_complete_valid_partitions() {
        let hg = mesh_hypergraph(&MeshConfig::new(500, 8));
        for kind in [IndexKind::Exact, IndexKind::Sketched] {
            let result = LowMemPartitioner::basic(config(kind), 8).partition_hypergraph(&hg);
            assert_eq!(result.partition.num_parts(), 8);
            assert_eq!(result.partition.num_vertices(), 500);
            assert!(result.partition.assignment().iter().all(|&x| x < 8));
        }
    }

    #[test]
    fn beats_round_robin_on_cut_quality() {
        let hg = mesh_hypergraph(&MeshConfig::new(800, 8));
        let result =
            LowMemPartitioner::basic(config(IndexKind::Sketched), 4).partition_hypergraph(&hg);
        let rr = Partition::round_robin(hg.num_vertices(), 4);
        assert!(
            metrics::soed(&hg, &result.partition) < metrics::soed(&hg, &rr),
            "streaming partitioner should beat round robin"
        );
    }

    #[test]
    fn is_deterministic() {
        let hg = mesh_hypergraph(&MeshConfig::new(300, 6));
        let partitioner = LowMemPartitioner::basic(config(IndexKind::Sketched), 6);
        let a = partitioner.partition_hypergraph(&hg);
        let b = partitioner.partition_hypergraph(&hg);
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn restream_buffer_is_bounded_and_improves_or_keeps_quality() {
        let hg = mesh_hypergraph(&MeshConfig::new(600, 8));
        let without = LowMemPartitioner::basic(
            LowMemConfig {
                restream_capacity: Some(0),
                ..config(IndexKind::Exact)
            },
            6,
        )
        .partition_hypergraph(&hg);
        let with = LowMemPartitioner::basic(
            LowMemConfig {
                restream_capacity: Some(64),
                ..config(IndexKind::Exact)
            },
            6,
        )
        .partition_hypergraph(&hg);
        assert_eq!(without.restreamed, 0);
        assert!(with.restreamed <= 64);
        let s_without = metrics::soed(&hg, &without.partition);
        let s_with = metrics::soed(&hg, &with.partition);
        assert!(
            s_with as f64 <= s_without as f64 * 1.05,
            "restreaming should not degrade quality materially ({s_with} vs {s_without})"
        );
    }

    #[test]
    fn restream_buffer_is_byte_bounded_on_high_degree_vertices() {
        // 48 vertices each incident to 300 nets: one buffered doubt holds
        // ~1.2 KiB of net ids, so a 64 KiB budget (restream share ~3 KiB)
        // must keep only a couple of doubts even though the entry-count
        // capacity alone would admit dozens.
        let mut b = hyperpraw_hypergraph::HypergraphBuilder::new(48);
        for _ in 0..300 {
            b.add_hyperedge(0..48u32);
        }
        let hg = b.build();
        let result = LowMemPartitioner::basic(
            LowMemConfig {
                budget: MemoryBudget::bytes(64 << 10),
                ..config(IndexKind::Exact)
            },
            4,
        )
        .partition_hypergraph(&hg);
        let plan = result.plan;
        let per_doubt_bytes = 300 * std::mem::size_of::<u32>();
        assert!(
            result.restreamed <= plan.restream_bytes / per_doubt_bytes + 1,
            "{} doubts of ~{per_doubt_bytes} B exceed the {} B restream share",
            result.restreamed,
            plan.restream_bytes
        );
        assert!(result.restreamed < plan.restream_capacity);
    }

    #[test]
    #[should_panic(expected = "round_robin_prior requires")]
    fn prior_with_sketched_index_is_rejected() {
        LowMemPartitioner::basic(
            LowMemConfig {
                round_robin_prior: true,
                index: IndexKind::Sketched,
                ..LowMemConfig::default()
            },
            4,
        );
    }

    #[test]
    fn sketched_restream_does_not_degrade_quality() {
        // The sketched index cannot forget, so the revisit pass sees the
        // vertex's own self-hit; the stay-bias must keep quality at least
        // as good as disabling the buffer outright.
        let hg = mesh_hypergraph(&MeshConfig::new(600, 8));
        let run = |restream: usize| {
            LowMemPartitioner::basic(
                LowMemConfig {
                    restream_capacity: Some(restream),
                    ..config(IndexKind::Sketched)
                },
                6,
            )
            .partition_hypergraph(&hg)
        };
        let without = run(0);
        let with = run(128);
        let s_without = metrics::soed(&hg, &without.partition);
        let s_with = metrics::soed(&hg, &with.partition);
        assert!(
            s_with as f64 <= s_without as f64 * 1.05,
            "sketched restream degraded SOED: {s_with} vs {s_without}"
        );
    }

    #[test]
    fn weighted_streams_balance_by_weight_not_count() {
        // 40 heavy vertices (weight 9) and 40 light ones (weight 1) in two
        // partitions: weight-aware balancing must not put all heavy
        // vertices on one side.
        let mut b = hyperpraw_hypergraph::HypergraphBuilder::new(80);
        for v in 0..40u32 {
            b.add_hyperedge([v, v + 40]);
            b.set_vertex_weight(v, 9.0);
        }
        let hg = b.build();
        let result =
            LowMemPartitioner::basic(config(IndexKind::Exact), 2).partition_hypergraph(&hg);
        let loads = result.partition.part_loads(&hg).unwrap();
        let total: f64 = loads.iter().sum();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / (total / 2.0) < 1.5,
            "weighted loads unbalanced: {loads:?}"
        );
    }

    #[test]
    fn sketched_index_memory_follows_the_budget() {
        let hg = mesh_hypergraph(&MeshConfig::new(2_000, 8));
        let small = LowMemPartitioner::basic(
            LowMemConfig {
                budget: MemoryBudget::bytes(32 << 10),
                ..config(IndexKind::Sketched)
            },
            8,
        )
        .partition_hypergraph(&hg);
        let large = LowMemPartitioner::basic(
            LowMemConfig {
                budget: MemoryBudget::mebibytes(8),
                ..config(IndexKind::Sketched)
            },
            8,
        )
        .partition_hypergraph(&hg);
        assert!(small.index_memory_bytes < large.index_memory_bytes);
        assert!(small.index_memory_bytes <= 32 << 10);
    }

    #[test]
    fn zero_vertices_and_isolated_vertices_are_handled() {
        let empty = hyperpraw_hypergraph::HypergraphBuilder::new(0).build();
        let result =
            LowMemPartitioner::basic(config(IndexKind::Exact), 2).partition_hypergraph(&empty);
        assert_eq!(result.partition.num_vertices(), 0);

        let mut b = hyperpraw_hypergraph::HypergraphBuilder::new(5);
        b.add_hyperedge([0u32, 1]);
        let sparse = b.build();
        let result =
            LowMemPartitioner::basic(config(IndexKind::Sketched), 2).partition_hypergraph(&sparse);
        assert_eq!(result.partition.num_vertices(), 5);
    }

    #[test]
    fn multi_pass_restreaming_does_not_degrade_quality() {
        let hg = mesh_hypergraph(&MeshConfig::new(800, 8));
        let run = |passes: usize, rebuild: bool| {
            LowMemPartitioner::basic(
                LowMemConfig {
                    passes,
                    rebuild_sketches: rebuild,
                    restream_capacity: Some(0),
                    ..config(IndexKind::Sketched)
                },
                6,
            )
            .partition_hypergraph(&hg)
        };
        let one = run(1, false);
        let rebuilt = run(3, true);
        assert!(rebuilt.passes >= 1 && rebuilt.passes <= 3);
        let s_one = metrics::soed(&hg, &one.partition) as f64;
        let s_rebuilt = metrics::soed(&hg, &rebuilt.partition) as f64;
        assert!(
            s_rebuilt <= s_one * 1.05,
            "rebuilt restreaming degraded SOED: {s_rebuilt} vs {s_one}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one streaming pass")]
    fn zero_passes_is_rejected() {
        LowMemPartitioner::basic(
            LowMemConfig {
                passes: 0,
                ..LowMemConfig::default()
            },
            4,
        );
    }
}
