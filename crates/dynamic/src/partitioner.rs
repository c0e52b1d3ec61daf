//! The resident incremental repartitioner.

use std::collections::BTreeSet;

use hyperpraw_core::engine::{
    AdjProvider, CommCostModel, DirtySetSource, Engine, EngineConfig, ExactCommCost, WarmStart,
};
use hyperpraw_core::metrics::{CommCostState, QualityReport};
use hyperpraw_core::{CostMatrix, HyperPrawConfig, PartitionHistory, StopReason};
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{HyperedgeId, Hypergraph, MutableHypergraph, Partition, VertexId};

use crate::update::validate;
use crate::{DynamicError, GraphUpdate};

/// Configuration of a [`DynamicPartitioner`].
#[derive(Clone, Debug, Default)]
pub struct DynamicConfig {
    /// The restreaming parameters every dirty-set repair runs under —
    /// identical semantics to a cold run (α tempering, tolerance,
    /// refinement with comm-cost rollback).
    pub config: HyperPrawConfig,
}

/// What one update batch physically moved, in the paper's
/// architecture-aware terms: migrating a vertex between parts costs its
/// weight times the cost-matrix entry of the link it crosses.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MigrationStats {
    /// Pre-existing vertices whose assignment changed.
    pub vertices_moved: usize,
    /// `vertices_moved` over the live vertex count.
    pub moved_fraction: f64,
    /// Σ weight(v) · cost(old part, new part) over the moved vertices.
    pub bytes_moved: f64,
}

/// The outcome of one [`DynamicPartitioner::apply`] batch.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// Ids assigned to `AddVertex` updates, in batch order.
    pub new_vertices: Vec<VertexId>,
    /// Size of the dirty set that was restreamed (touched vertices plus
    /// their distinct-neighbour ring).
    pub dirty_vertices: usize,
    /// Restreaming passes executed over the dirty set (`0` when the batch
    /// was empty or touched nothing live).
    pub iterations: usize,
    /// Why the restream stopped, when one ran.
    pub stop_reason: Option<StopReason>,
    /// The α in effect when the restream stopped, when one ran.
    pub final_alpha: Option<f64>,
    /// Doubt-buffer moves during the restream's final revisit.
    pub moved_in_restream: usize,
    /// Load imbalance of the resulting assignment (max/avg).
    pub imbalance: f64,
    /// Architecture-aware communication cost of the resulting assignment.
    pub comm_cost: f64,
    /// Per-pass history of the restream (empty when tracking is off or no
    /// restream ran).
    pub history: PartitionHistory,
    /// Migration cost of this batch.
    pub migration: MigrationStats,
}

/// A resident partitioner that absorbs [`GraphUpdate`] batches by
/// restreaming only the dirty region. See the [crate docs](crate) for the
/// full flow.
#[derive(Clone, Debug)]
pub struct DynamicPartitioner {
    graph: MutableHypergraph,
    /// CSR snapshot of `graph`, spliced after every batch — what the
    /// engine and the quality state read.
    snapshot: Hypergraph,
    /// The live assignment with its exact comm-cost part-pair counts.
    comm: CommCostState,
    /// Connectivity `λ(e)` of every hyperedge under the live assignment
    /// (`0` for an empty hyperedge).
    lambda: Vec<u32>,
    loads: Vec<f64>,
    cost: CostMatrix,
    cfg: DynamicConfig,
    metrics: DynMetrics,
}

/// Batch instrumentation bound by [`DynamicPartitioner::set_registry`]
/// (all no-ops by default). Recording is observation-only: outcomes are
/// computed first, then mirrored here, and a disabled phase span reads no
/// clock.
#[derive(Clone, Debug, Default)]
struct DynMetrics {
    /// Update batches applied.
    batches: hyperpraw_telemetry::Counter,
    /// Dirty-set size of each batch (touched vertices + neighbour ring).
    dirty_set_size: hyperpraw_telemetry::Histogram,
    /// Pre-existing vertices migrated across batches.
    migrated_vertices: hyperpraw_telemetry::Counter,
    /// Σ weight · link-cost of migrations, rounded to whole units.
    migrated_bytes: hyperpraw_telemetry::Counter,
    /// Per-batch phase wall clock, microseconds: validating and applying
    /// the mutations.
    mutate_us: hyperpraw_telemetry::Histogram,
    /// Splicing the CSR snapshot and moving the touched rows of the
    /// pair counts from the old graph to the new one.
    snapshot_us: hyperpraw_telemetry::Histogram,
    /// Finding the dirty ring and restreaming it.
    restream_us: hyperpraw_telemetry::Histogram,
    /// Connectivity of the touched and moved hyperedges, migration
    /// accounting and the outcome's quality.
    quality_us: hyperpraw_telemetry::Histogram,
    /// Kept so each batch's restream engine can bind its own `engine.*`
    /// metrics (pass timings, vertices scored, doubt occupancy).
    registry: hyperpraw_telemetry::Registry,
}

/// Panic message of a mutation the batch validation admitted.
const VALIDATED: &str = "the batch was validated against the live graph";

impl DynamicPartitioner {
    /// Adopts an already-partitioned hypergraph: `partition` becomes the
    /// live assignment (typically the output of a cold run over `hg`) and
    /// its quality state is counted once up front.
    pub fn new(
        hg: &Hypergraph,
        partition: Partition,
        cost: CostMatrix,
        cfg: DynamicConfig,
    ) -> Result<Self, DynamicError> {
        Self::assemble(
            MutableHypergraph::from_hypergraph(hg),
            hg.clone(),
            partition,
            cost,
            cfg,
        )
    }

    /// Rebuilds a partitioner from persisted state: the mutable
    /// hypergraph (tombstones included) and the assignment it had
    /// reached, plus the cost matrix and configuration it ran under —
    /// the recovery path of [`crate::journal`]. The CSR snapshot, quality
    /// state and per-part loads are rematerialised deterministically, so
    /// the resumed instance answers every query and absorbs every
    /// subsequent batch bit-identically to the instance that was
    /// serialised.
    pub fn resume(
        graph: MutableHypergraph,
        partition: Partition,
        cost: CostMatrix,
        cfg: DynamicConfig,
    ) -> Result<Self, DynamicError> {
        let snapshot = graph.to_hypergraph();
        Self::assemble(graph, snapshot, partition, cost, cfg)
    }

    fn assemble(
        graph: MutableHypergraph,
        snapshot: Hypergraph,
        partition: Partition,
        cost: CostMatrix,
        cfg: DynamicConfig,
    ) -> Result<Self, DynamicError> {
        if partition.num_vertices() != snapshot.num_vertices() {
            return Err(DynamicError::Invalid(format!(
                "partition covers {} vertices but the hypergraph has {}",
                partition.num_vertices(),
                snapshot.num_vertices()
            )));
        }
        if partition.num_parts() as usize != cost.num_units() {
            return Err(DynamicError::Invalid(format!(
                "partition has {} parts but the cost matrix covers {} units",
                partition.num_parts(),
                cost.num_units()
            )));
        }
        let loads = partition
            .part_loads(&snapshot)
            .map_err(|e| DynamicError::Invalid(e.to_string()))?;
        let mut lambda = Vec::new();
        refresh_connectivity(&snapshot, &partition, &mut lambda, snapshot.hyperedges());
        Ok(Self {
            comm: CommCostState::new(&snapshot, partition),
            lambda,
            graph,
            snapshot,
            loads,
            cost,
            cfg,
            metrics: DynMetrics::default(),
        })
    }

    /// Binds batch instrumentation to `registry` (metrics under the
    /// `dynamic.` prefix): batches applied, dirty-set sizes, migrated
    /// vertices/bytes, and per-batch phase times
    /// (`dynamic.phase.{mutate,snapshot,restream,quality}_us`).
    pub fn set_registry(&mut self, registry: &hyperpraw_telemetry::Registry) {
        self.metrics = DynMetrics {
            batches: registry.counter("dynamic.batches_applied"),
            dirty_set_size: registry.histogram("dynamic.dirty_set_size"),
            migrated_vertices: registry.counter("dynamic.migrated_vertices"),
            migrated_bytes: registry.counter("dynamic.migrated_bytes"),
            mutate_us: registry.histogram("dynamic.phase.mutate_us"),
            snapshot_us: registry.histogram("dynamic.phase.snapshot_us"),
            restream_us: registry.histogram("dynamic.phase.restream_us"),
            quality_us: registry.histogram("dynamic.phase.quality_us"),
            registry: registry.clone(),
        };
    }

    /// The resident mutable hypergraph — the state
    /// [`crate::journal`] snapshots serialise (liveness flags included).
    pub fn graph(&self) -> &MutableHypergraph {
        &self.graph
    }

    /// The current CSR snapshot (tombstones included as weight-0 /
    /// empty-pin ids).
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.snapshot
    }

    /// The current assignment.
    pub fn partition(&self) -> &Partition {
        self.comm.partition()
    }

    /// Per-part vertex-weight loads of the current assignment.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// The cost matrix migrations and restreams are scored against.
    pub fn cost(&self) -> &CostMatrix {
        &self.cost
    }

    /// The configuration in use.
    pub fn config(&self) -> &DynamicConfig {
        &self.cfg
    }

    /// The resident comm-cost state: the current assignment with its
    /// exact part-pair counts.
    pub fn comm_state(&self) -> &CommCostState {
        &self.comm
    }

    /// The resident connectivity `λ(e)` of every hyperedge under the
    /// current assignment (`0` for an empty or tombstoned hyperedge).
    pub fn connectivity(&self) -> &[u32] {
        &self.lambda
    }

    /// The part of `v`, or `None` when `v` is unknown or tombstoned —
    /// the serve protocol's `lookup`.
    pub fn lookup(&self, v: VertexId) -> Option<u32> {
        if self.graph.is_vertex_alive(v) {
            Some(self.partition().part_of(v))
        } else {
            None
        }
    }

    /// Load imbalance (max/avg) of the current assignment.
    pub fn imbalance(&self) -> f64 {
        imbalance_of(&self.loads)
    }

    /// Architecture-aware communication cost of the current assignment:
    /// an O(p²) read of the resident pair counts.
    pub fn comm_cost(&self) -> f64 {
        self.comm.comm_cost(&self.cost)
    }

    /// The full quality report of the current assignment, with the comm
    /// cost evaluated under `cost` (any matrix over the same parts), read
    /// from the resident state: the comm cost as a dot over the pair
    /// counts, cut and SOED as one fold over the connectivities in edge
    /// order, the imbalance from the loads. Bit-identical to
    /// [`QualityReport::compute`] on [`DynamicPartitioner::hypergraph`].
    pub fn quality(&self, cost: &CostMatrix) -> QualityReport {
        let (mut cut, mut soed) = (0.0f64, 0.0f64);
        for (e, &lambda) in self.lambda.iter().enumerate() {
            if lambda > 1 {
                let w = self.snapshot.edge_weight(e as HyperedgeId);
                cut += w;
                soed += f64::from(lambda) * w;
            }
        }
        QualityReport {
            hyperedge_cut: cut.round() as u64,
            soed: soed.round() as u64,
            comm_cost: self.comm.comm_cost(cost),
            imbalance: self.imbalance(),
        }
    }

    /// Applies one batch of updates: validate it, mutate the graph,
    /// splice the snapshot, restream the dirty set warm-started from the
    /// current assignment, and update the quality state and migration
    /// account — all in work proportional to the batch and its dirty
    /// ring. The batch is atomic: it is validated in full before anything
    /// changes, so on error nothing changed. An empty batch returns a zero
    /// outcome and leaves the assignment bit-identical.
    pub fn apply(&mut self, updates: &[GraphUpdate]) -> Result<UpdateOutcome, DynamicError> {
        if updates.is_empty() {
            return Ok(UpdateOutcome {
                new_vertices: Vec::new(),
                dirty_vertices: 0,
                iterations: 0,
                stop_reason: None,
                final_alpha: None,
                moved_in_restream: 0,
                imbalance: self.imbalance(),
                comm_cost: self.comm_cost(),
                history: PartitionHistory::new(),
                migration: MigrationStats::default(),
            });
        }

        // Phase 1 — validate, then mutate in place, collecting the touched
        // vertices (every vertex named in an update plus the pre/post pins
        // of every touched hyperedge: their neighbourhoods changed) and
        // the hyperedges whose pin lists changed.
        let mutating = self.metrics.mutate_us.span();
        validate(&self.graph, updates)?;
        let (pre_n, pre_m) = (self.graph.num_vertices(), self.graph.num_hyperedges());
        let mut touched: BTreeSet<VertexId> = BTreeSet::new();
        let mut edges: BTreeSet<HyperedgeId> = BTreeSet::new();
        let mut new_vertices = Vec::new();
        let graph = &mut self.graph;
        for update in updates {
            match update {
                GraphUpdate::AddVertex { weight } => {
                    let v = graph.add_vertex(*weight);
                    new_vertices.push(v);
                    touched.insert(v);
                }
                GraphUpdate::RemoveVertex { vertex } => {
                    for &e in graph.incident_edges(*vertex) {
                        touched.extend(graph.pins(e).iter().copied());
                        edges.insert(e);
                    }
                    graph.remove_vertex(*vertex).expect(VALIDATED);
                    touched.insert(*vertex);
                }
                GraphUpdate::AddHyperedge { pins, weight } => {
                    let e = graph
                        .add_hyperedge(pins.iter().copied(), *weight)
                        .expect(VALIDATED);
                    touched.extend(graph.pins(e).iter().copied());
                }
                GraphUpdate::RemoveHyperedge { edge } => {
                    touched.extend(graph.pins(*edge).iter().copied());
                    graph.remove_hyperedge(*edge).expect(VALIDATED);
                    edges.insert(*edge);
                }
                GraphUpdate::AddPin { edge, vertex } => {
                    graph.add_pin(*edge, *vertex).expect(VALIDATED);
                    touched.extend(graph.pins(*edge).iter().copied());
                    edges.insert(*edge);
                }
                GraphUpdate::RemovePin { edge, vertex } => {
                    touched.extend(graph.pins(*edge).iter().copied());
                    graph.remove_pin(*edge, *vertex).expect(VALIDATED);
                    touched.insert(*vertex);
                    edges.insert(*edge);
                }
            }
        }
        let touched: Vec<VertexId> = touched.into_iter().collect();
        let edges: Vec<HyperedgeId> = edges.into_iter().collect();
        drop(mutating);

        // Phase 2 — carry the snapshot and the pair counts over to the
        // mutated graph: the touched rows leave the counts as they were,
        // the touched lists are spliced into the CSR, appended ids are
        // seeded round-robin (like a cold start), and the touched rows
        // re-enter as they are now. No other row changed: a pair whose
        // neighbour relation changed has both ends among the pins of a
        // touched hyperedge.
        let refreshing = self.metrics.snapshot_us.span();
        let n = self.graph.num_vertices();
        let mut scratch = NeighborScratch::new(n);
        let existing = touched.partition_point(|&v| (v as usize) < pre_n);
        self.comm
            .remove_rows(&self.snapshot, &touched[..existing], &mut scratch);
        self.graph
            .refresh_snapshot(&mut self.snapshot, &touched, &edges);
        self.comm.extend(n);
        self.comm.add_rows(&self.snapshot, &touched, &mut scratch);
        self.loads = self
            .partition()
            .part_loads(&self.snapshot)
            .expect("partition covers every snapshot vertex");
        drop(refreshing);

        // Phase 3 — the dirty set: the live touched vertices plus one
        // distinct-neighbour ring around them (their value function
        // changed even though their own incidence did not), restreamed
        // alone, warm-started from the current assignment, under the
        // cold-run stopping rules. The kept comm-cost state is handed to
        // the run and taken back synced to the assignment it returns.
        let restreaming = self.metrics.restream_us.span();
        let graph = &self.graph;
        let mut dirty: BTreeSet<VertexId> = BTreeSet::new();
        for &v in &touched {
            if graph.is_vertex_alive(v) {
                dirty.insert(v);
            }
            let ring = scratch.neighbors(&self.snapshot, v);
            dirty.extend(ring.iter().copied().filter(|&u| graph.is_vertex_alive(u)));
        }
        let dirty: Vec<VertexId> = dirty.into_iter().collect();
        let before: Vec<u32> = dirty.iter().map(|&v| self.partition().part_of(v)).collect();
        let mut iterations = 0;
        let mut stop_reason = None;
        let mut final_alpha = None;
        let mut moved_in_restream = 0;
        let mut history = PartitionHistory::new();
        if !dirty.is_empty() {
            let engine = Engine::new(EngineConfig::restreaming(&self.cfg.config))
                .with_registry(&self.metrics.registry);
            let mut source = DirtySetSource::new(&self.snapshot, dirty.clone());
            let mut provider =
                AdjProvider::traversal(&self.snapshot).with_registry(&self.metrics.registry);
            let warm = WarmStart {
                partition: self.partition().clone(),
                loads: self.loads.clone(),
            };
            let mut model = ExactCommCost::resume(&self.snapshot, std::mem::take(&mut self.comm));
            let run = engine
                .run_warm(&self.cost, &mut source, &mut provider, &mut model, warm)
                .expect("in-memory sources cannot fail");
            model.comm_cost(&run.partition, &self.cost);
            self.comm = model.into_state().expect("the model was resumed");
            self.loads = self
                .partition()
                .part_loads(&self.snapshot)
                .expect("restreamed partition covers every snapshot vertex");
            iterations = run.iterations;
            stop_reason = Some(run.stop_reason);
            final_alpha = Some(run.final_alpha);
            moved_in_restream = run.moved_in_restream;
            history = run.history;
        }
        drop(restreaming);

        // Phase 4 — connectivity of the touched, appended and moved
        // hyperedges, and migration over the pre-existing id space (only
        // dirty vertices can have moved; ascending order keeps the
        // migration sum's order).
        let quality = self.metrics.quality_us.span();
        let mut recount = edges;
        let mut vertices_moved = 0usize;
        let mut bytes_moved = 0.0f64;
        for (&v, &old) in dirty.iter().zip(&before) {
            let new = self.partition().part_of(v);
            if old != new {
                recount.extend_from_slice(self.snapshot.incident_edges(v));
                if (v as usize) < pre_n {
                    vertices_moved += 1;
                    bytes_moved +=
                        self.snapshot.vertex_weight(v) * self.cost.get(old as usize, new as usize);
                }
            }
        }
        let appended = pre_m as HyperedgeId..self.snapshot.num_hyperedges() as HyperedgeId;
        refresh_connectivity(
            &self.snapshot,
            self.comm.partition(),
            &mut self.lambda,
            recount.into_iter().chain(appended),
        );
        let live = self.graph.num_live_vertices();
        let migration = MigrationStats {
            vertices_moved,
            moved_fraction: if live == 0 {
                0.0
            } else {
                vertices_moved as f64 / live as f64
            },
            bytes_moved,
        };
        let (imbalance, comm_cost) = (self.imbalance(), self.comm_cost());
        drop(quality);
        debug_assert!(
            self.resident_state_is_exact(),
            "resident snapshot or quality state drifted from a recount"
        );

        self.metrics.batches.inc();
        self.metrics.dirty_set_size.record(dirty.len() as u64);
        self.metrics
            .migrated_vertices
            .add(migration.vertices_moved as u64);
        self.metrics
            .migrated_bytes
            .add(migration.bytes_moved.round().max(0.0) as u64);

        Ok(UpdateOutcome {
            new_vertices,
            dirty_vertices: dirty.len(),
            iterations,
            stop_reason,
            final_alpha,
            moved_in_restream,
            imbalance,
            comm_cost,
            history,
            migration,
        })
    }

    /// Whether the snapshot, pair counts, connectivities and loads all
    /// equal a recount from the mutable graph (debug builds check this
    /// after every batch).
    fn resident_state_is_exact(&self) -> bool {
        let mut lambda = Vec::new();
        let partition = self.partition();
        refresh_connectivity(
            &self.snapshot,
            partition,
            &mut lambda,
            self.snapshot.hyperedges(),
        );
        self.snapshot == self.graph.to_hypergraph()
            && self.comm == CommCostState::new(&self.snapshot, partition.clone())
            && self.lambda == lambda
            && partition.part_loads(&self.snapshot).as_deref() == Ok(&self.loads[..])
    }
}

/// Recomputes `λ(e)` — the number of distinct parts among the pins of
/// `e` — for every hyperedge in `edges`, growing `lambda` to cover the
/// hypergraph first.
fn refresh_connectivity(
    hg: &Hypergraph,
    partition: &Partition,
    lambda: &mut Vec<u32>,
    edges: impl IntoIterator<Item = HyperedgeId>,
) {
    lambda.resize(hg.num_hyperedges(), 0);
    let mut seen = vec![false; partition.num_parts() as usize];
    for e in edges {
        let pins = hg.pins(e);
        let mut distinct = 0;
        for &v in pins {
            let part = &mut seen[partition.part_of(v) as usize];
            distinct += u32::from(!*part);
            *part = true;
        }
        for &v in pins {
            seen[partition.part_of(v) as usize] = false;
        }
        lambda[e as usize] = distinct;
    }
}

/// Max-over-average load imbalance, `0` for an empty instance.
fn imbalance_of(loads: &[f64]) -> f64 {
    let total: f64 = loads.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let avg = total / loads.len() as f64;
    loads.iter().cloned().fold(f64::MIN, f64::max) / avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_core::HyperPraw;
    use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};

    fn seeded(n: usize, p: usize) -> DynamicPartitioner {
        let hg = mesh_hypergraph(&MeshConfig::new(n, 8));
        let cost = CostMatrix::uniform(p);
        let cold = HyperPraw::new(HyperPrawConfig::default(), cost.clone()).partition(&hg);
        DynamicPartitioner::new(&hg, cold.partition, cost, DynamicConfig::default()).unwrap()
    }

    #[test]
    fn empty_batch_is_bit_identical_and_free() {
        let mut dp = seeded(300, 4);
        let before = dp.partition().assignment().to_vec();
        let outcome = dp.apply(&[]).unwrap();
        assert_eq!(dp.partition().assignment(), &before[..]);
        assert_eq!(outcome.dirty_vertices, 0);
        assert_eq!(outcome.iterations, 0);
        assert_eq!(outcome.migration, MigrationStats::default());
    }

    #[test]
    fn additions_extend_the_assignment_and_restream_the_neighbourhood() {
        let mut dp = seeded(300, 4);
        let outcome = dp
            .apply(&[
                GraphUpdate::AddVertex { weight: 1.0 },
                GraphUpdate::AddVertex { weight: 2.0 },
                GraphUpdate::AddHyperedge {
                    pins: vec![0, 1, 300, 301],
                    weight: 1.0,
                },
            ])
            .unwrap();
        assert_eq!(outcome.new_vertices, vec![300, 301]);
        assert!(outcome.dirty_vertices >= 4);
        assert!(outcome.iterations >= 1);
        assert_eq!(dp.partition().num_vertices(), 302);
        assert_eq!(dp.hypergraph().num_vertices(), 302);
        assert!(dp.lookup(301).is_some());
        // Loads stay exact against the snapshot.
        let expected = dp.partition().part_loads(dp.hypergraph()).unwrap();
        assert_eq!(dp.loads(), &expected[..]);
    }

    #[test]
    fn removals_tombstone_and_lookups_reflect_it() {
        let mut dp = seeded(300, 4);
        assert!(dp.lookup(7).is_some());
        let outcome = dp
            .apply(&[GraphUpdate::RemoveVertex { vertex: 7 }])
            .unwrap();
        assert!(dp.lookup(7).is_none());
        assert_eq!(dp.hypergraph().vertex_weight(7), 0.0);
        assert!(outcome.dirty_vertices >= 1);
    }

    #[test]
    fn rejected_batches_change_nothing() {
        let mut dp = seeded(200, 4);
        let before = dp.clone();
        let err = dp
            .apply(&[
                GraphUpdate::AddVertex { weight: 1.0 },
                GraphUpdate::AddPin {
                    edge: 9_999,
                    vertex: 0,
                },
            ])
            .unwrap_err();
        assert!(matches!(err, DynamicError::Mutation(_)));
        assert_eq!(dp.partition().assignment(), before.partition().assignment());
        assert_eq!(dp.hypergraph(), before.hypergraph());
        assert_eq!(dp.loads(), before.loads());
    }

    #[test]
    fn phase_histograms_are_observation_only() {
        let batch = [
            GraphUpdate::AddVertex { weight: 1.0 },
            GraphUpdate::AddHyperedge {
                pins: vec![0, 150, 300],
                weight: 1.0,
            },
            GraphUpdate::RemoveVertex { vertex: 9 },
        ];
        let mut quiet = seeded(300, 4);
        let mut traced = quiet.clone();
        let registry = hyperpraw_telemetry::Registry::new();
        traced.set_registry(&registry);
        let a = quiet.apply(&batch).unwrap();
        let b = traced.apply(&batch).unwrap();
        assert_eq!(quiet.partition(), traced.partition());
        assert_eq!(a.comm_cost.to_bits(), b.comm_cost.to_bits());
        for phase in ["mutate", "snapshot", "restream", "quality"] {
            let name = format!("dynamic.phase.{phase}_us");
            assert_eq!(
                registry.histogram_snapshot(&name).unwrap().count,
                1,
                "{name}"
            );
        }
    }

    #[test]
    fn mismatched_inputs_are_rejected_up_front() {
        let hg = mesh_hypergraph(&MeshConfig::new(50, 6));
        let part = Partition::round_robin(49, 4);
        assert!(matches!(
            DynamicPartitioner::new(&hg, part, CostMatrix::uniform(4), DynamicConfig::default()),
            Err(DynamicError::Invalid(_))
        ));
        let part = Partition::round_robin(50, 4);
        assert!(matches!(
            DynamicPartitioner::new(&hg, part, CostMatrix::uniform(8), DynamicConfig::default()),
            Err(DynamicError::Invalid(_))
        ));
    }
}
