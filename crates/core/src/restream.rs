//! The HyperPRAW restreaming driver (Algorithm 1) — a thin instantiation
//! of the generic [`crate::engine`]: in-memory vertex source × kept part
//! counts found by traversal ([`AdjProvider::traversal`], no precomputed
//! adjacency, which also answers the per-pass comm cost) × the execution
//! strategy, sequential unless [`HyperPraw::with_threads`] selects the
//! §8.2 parallel schedule.

use hyperpraw_hypergraph::{Hypergraph, Partition};
use hyperpraw_topology::CostMatrix;

use crate::engine::{
    AdjProvider, Engine, EngineConfig, ExecutionStrategy, InMemorySource, DEFAULT_STEAL_CHUNK,
};
use crate::history::PartitionHistory;
use crate::HyperPrawConfig;

pub use crate::engine::StopReason;

/// The output of a HyperPRAW run.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// The selected vertex-to-partition assignment.
    pub partition: Partition,
    /// Per-stream history (empty unless `track_history` is enabled).
    pub history: PartitionHistory,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Number of streams executed.
    pub iterations: usize,
    /// The `α` value in effect when the run stopped.
    pub final_alpha: f64,
    /// Partitioning communication cost of the returned partition.
    pub comm_cost: f64,
    /// Imbalance of the returned partition.
    pub imbalance: f64,
}

/// The HyperPRAW restreaming partitioner.
///
/// The number of partitions equals the size of the communication-cost
/// matrix: one partition per compute unit of the target machine.
/// HyperPRAW-aware is obtained by passing a profiled cost matrix
/// ([`CostMatrix::from_bandwidth`]); HyperPRAW-basic by passing
/// [`CostMatrix::uniform`]. The thread count is a parameter of the same
/// partitioner: [`HyperPraw::with_threads`] runs the stream on worker
/// threads instead of sequentially.
#[derive(Clone, Debug)]
pub struct HyperPraw {
    config: HyperPrawConfig,
    cost: CostMatrix,
    strategy: ExecutionStrategy,
    registry: hyperpraw_telemetry::Registry,
}

impl HyperPraw {
    /// Creates a partitioner with the given configuration and cost matrix.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: HyperPrawConfig, cost: CostMatrix) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid HyperPRAW configuration: {e}"));
        Self {
            config,
            cost,
            strategy: ExecutionStrategy::Sequential,
            registry: hyperpraw_telemetry::Registry::disabled(),
        }
    }

    /// Streams on `threads` workers — the paper's future-work extension
    /// (§8.2), which points to parallel streaming as the way past the
    /// sequential stream's scalability limit. More than one thread runs
    /// the engine's lock-free work stealing
    /// ([`ExecutionStrategy::WorkStealing`]): workers claim vertex chunks
    /// and score against live shared state, so a run is valid at any
    /// thread count but not bit-reproducible. One thread reproduces the
    /// sequential run bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(
            threads > 0,
            "invalid parallel configuration: need at least one worker thread"
        );
        self.strategy = ExecutionStrategy::WorkStealing {
            num_threads: threads,
            chunk: DEFAULT_STEAL_CHUNK,
        };
        self
    }

    /// Binds the engine's instrumentation (metrics under the `engine.`
    /// prefix) to `registry`. Recording is observation-only — partitions
    /// are bit-identical with or without a live registry.
    pub fn with_registry(mut self, registry: &hyperpraw_telemetry::Registry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// The architecture-aware variant: uses a profiled cost matrix.
    pub fn aware(config: HyperPrawConfig, cost: CostMatrix) -> Self {
        Self::new(config, cost)
    }

    /// The architecture-oblivious variant: a uniform cost matrix over `p`
    /// compute units.
    pub fn basic(config: HyperPrawConfig, p: u32) -> Self {
        Self::new(config, CostMatrix::uniform(p as usize))
    }

    /// Number of partitions (compute units).
    pub fn num_partitions(&self) -> u32 {
        self.cost.num_units() as u32
    }

    /// The configuration in use.
    pub fn config(&self) -> &HyperPrawConfig {
        &self.config
    }

    /// The communication-cost matrix in use.
    pub fn cost_matrix(&self) -> &CostMatrix {
        &self.cost
    }

    /// Runs the restreaming algorithm on a hypergraph.
    pub fn partition(&self, hg: &Hypergraph) -> PartitionResult {
        let engine =
            Engine::new(EngineConfig::restreaming(&self.config).with_strategy(self.strategy))
                .with_registry(&self.registry);
        // Every visit copies the provider's kept part counts, so no
        // adjacency is built: sync and moves find neighbourhoods by
        // traversal. The provider also keeps the part-pair counts and
        // answers each comm-cost evaluation from them.
        let run = engine
            .run(
                &self.cost,
                &mut InMemorySource::new(hg, self.config.stream_order, self.config.seed),
                &mut AdjProvider::traversal(hg).with_registry(&self.registry),
            )
            .expect("in-memory sources cannot fail");
        // The engine's revisit-buffer counters are dropped: this driver
        // keeps no doubt buffer.
        PartitionResult {
            partition: run.partition,
            history: run.history,
            stop_reason: run.stop_reason,
            iterations: run.iterations,
            final_alpha: run.final_alpha,
            comm_cost: run.comm_cost,
            imbalance: run.imbalance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::StreamPhase;
    use crate::metrics::{partitioning_communication_cost, QualityReport};
    use crate::RefinementPolicy;
    use hyperpraw_hypergraph::generators::{
        mesh_hypergraph, random_hypergraph, MeshConfig, RandomConfig,
    };
    use hyperpraw_hypergraph::metrics;
    use hyperpraw_topology::{BandwidthMatrix, MachineModel};

    fn archer_cost(p: usize) -> CostMatrix {
        let machine = MachineModel::archer_like(p);
        CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, 1))
    }

    #[test]
    fn partitions_respect_the_imbalance_tolerance() {
        let hg = mesh_hypergraph(&MeshConfig::new(800, 8));
        let praw = HyperPraw::basic(HyperPrawConfig::default(), 8);
        let result = praw.partition(&hg);
        assert_eq!(result.partition.num_parts(), 8);
        assert!(
            result.imbalance <= 1.1 + 1e-9,
            "imbalance {} exceeds tolerance",
            result.imbalance
        );
        assert!(result.iterations >= 1);
    }

    #[test]
    fn basic_beats_round_robin_on_cut_metrics() {
        let hg = mesh_hypergraph(&MeshConfig::new(1000, 8));
        let praw = HyperPraw::basic(HyperPrawConfig::default(), 8);
        let result = praw.partition(&hg);
        let rr = Partition::round_robin(hg.num_vertices(), 8);
        let praw_cut = metrics::soed(&hg, &result.partition);
        let rr_cut = metrics::soed(&hg, &rr);
        assert!(
            praw_cut < rr_cut,
            "HyperPRAW SOED {praw_cut} should beat round robin {rr_cut}"
        );
    }

    #[test]
    fn aware_achieves_lower_comm_cost_than_basic_on_archer() {
        let hg = mesh_hypergraph(&MeshConfig::new(1200, 10));
        let p = 24usize;
        let cost = archer_cost(p);
        let aware = HyperPraw::aware(HyperPrawConfig::default(), cost.clone()).partition(&hg);
        let basic = HyperPraw::basic(HyperPrawConfig::default(), p as u32).partition(&hg);
        // Evaluate both with the *real* (architecture) cost matrix, as the
        // paper does for Figure 4C.
        let aware_pc = partitioning_communication_cost(&hg, &aware.partition, &cost);
        let basic_pc = partitioning_communication_cost(&hg, &basic.partition, &cost);
        assert!(
            aware_pc < basic_pc,
            "aware comm cost {aware_pc} should beat basic {basic_pc}"
        );
    }

    #[test]
    fn refinement_keeps_streaming_after_tolerance_and_improves_cost() {
        let hg = mesh_hypergraph(&MeshConfig::new(600, 8));
        let p = 8u32;
        let no_ref = HyperPraw::basic(
            HyperPrawConfig::default().with_refinement(RefinementPolicy::None),
            p,
        )
        .partition(&hg);
        let refined = HyperPraw::basic(
            HyperPrawConfig::default().with_refinement(RefinementPolicy::Factor(0.95)),
            p,
        )
        .partition(&hg);
        assert_eq!(no_ref.stop_reason, StopReason::ToleranceReached);
        assert!(refined.iterations >= no_ref.iterations);
        assert!(
            refined.comm_cost <= no_ref.comm_cost + 1e-9,
            "refined comm cost {} should not exceed unrefined {}",
            refined.comm_cost,
            no_ref.comm_cost
        );
    }

    #[test]
    fn history_tracks_phases_and_costs() {
        let hg = mesh_hypergraph(&MeshConfig::new(400, 8));
        let praw = HyperPraw::basic(HyperPrawConfig::default(), 8);
        let result = praw.partition(&hg);
        assert_eq!(result.history.len(), result.iterations);
        // The run must eventually enter the refinement phase.
        assert!(result
            .history
            .records()
            .iter()
            .any(|r| r.phase == StreamPhase::Refinement));
        // Alpha grows during tempering.
        let temp: Vec<_> = result
            .history
            .records()
            .iter()
            .filter(|r| r.phase == StreamPhase::Tempering)
            .collect();
        for w in temp.windows(2) {
            assert!(w[1].alpha >= w[0].alpha);
        }
        // The returned comm cost matches the best feasible record.
        let best_feasible = result
            .history
            .records()
            .iter()
            .filter(|r| r.imbalance <= 1.1 + 1e-9)
            .map(|r| r.comm_cost)
            .fold(f64::INFINITY, f64::min);
        assert!(result.comm_cost <= best_feasible + 1e-9);
    }

    #[test]
    fn disabling_history_keeps_it_empty() {
        let hg = mesh_hypergraph(&MeshConfig::new(200, 6));
        let config = HyperPrawConfig {
            track_history: false,
            ..HyperPrawConfig::default()
        };
        let result = HyperPraw::basic(config, 4).partition(&hg);
        assert!(result.history.is_empty());
        assert!(result.iterations >= 1);
    }

    #[test]
    fn deterministic_for_a_fixed_seed_and_order() {
        let hg = random_hypergraph(&RandomConfig::with_avg_cardinality(300, 200, 6.0, 2));
        let praw = HyperPraw::basic(HyperPrawConfig::default().with_seed(3), 6);
        let a = praw.partition(&hg);
        let b = praw.partition(&hg);
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn comm_cost_evaluations_are_timed_without_changing_the_partition() {
        let hg = mesh_hypergraph(&MeshConfig::new(600, 8));
        let registry = hyperpraw_telemetry::Registry::new();
        let praw = HyperPraw::aware(HyperPrawConfig::default(), archer_cost(8));
        let plain = praw.partition(&hg);
        let timed = praw.clone().with_registry(&registry).partition(&hg);
        assert_eq!(plain.partition, timed.partition);
        assert_eq!(plain.comm_cost.to_bits(), timed.comm_cost.to_bits());
        // One evaluation per pass, plus a final one when no feasible
        // snapshot was kept.
        let evals = registry
            .histogram_snapshot("engine.commcost_eval_us")
            .expect("a live registry records the evaluations");
        let passes = timed.iterations as u64;
        assert!(
            evals.count == passes || evals.count == passes + 1,
            "{evals:?}"
        );
    }

    #[test]
    fn max_iterations_is_honoured() {
        let hg = mesh_hypergraph(&MeshConfig::new(300, 8));
        let config = HyperPrawConfig::default()
            .with_max_iterations(3)
            .with_imbalance_tolerance(1.0000001); // effectively unreachable
        let result = HyperPraw::basic(config, 7).partition(&hg);
        assert_eq!(result.iterations, 3);
        assert_eq!(result.stop_reason, StopReason::MaxIterations);
    }

    #[test]
    fn quality_report_of_result_is_finite() {
        let hg = mesh_hypergraph(&MeshConfig::new(500, 8));
        let p = 16usize;
        let cost = archer_cost(p);
        let result = HyperPraw::aware(HyperPrawConfig::default(), cost.clone()).partition(&hg);
        let report = QualityReport::compute(&hg, &result.partition, &cost);
        assert!(report.comm_cost.is_finite());
        assert!(report.imbalance.is_finite());
        assert!(report.soed >= 2 * report.hyperedge_cut || report.hyperedge_cut == 0);
    }

    #[test]
    fn parallel_partition_is_valid_and_balanced() {
        let hg = mesh_hypergraph(&MeshConfig::new(900, 8));
        let praw = HyperPraw::basic(HyperPrawConfig::default(), 8).with_threads(4);
        let result = praw.partition(&hg);
        assert_eq!(result.partition.num_parts(), 8);
        assert_eq!(result.partition.num_vertices(), 900);
        assert!(
            result.imbalance <= 1.1 + 1e-9,
            "imbalance {}",
            result.imbalance
        );
    }

    #[test]
    fn parallel_quality_is_close_to_sequential() {
        let hg = mesh_hypergraph(&MeshConfig::new(1000, 8));
        let p = 8u32;
        let seq = HyperPraw::basic(HyperPrawConfig::default(), p).partition(&hg);
        let par = HyperPraw::basic(HyperPrawConfig::default(), p)
            .with_threads(4)
            .partition(&hg);
        let seq_soed = metrics::soed(&hg, &seq.partition) as f64;
        let par_soed = metrics::soed(&hg, &par.partition) as f64;
        // GraSP-style result: parallel streaming should stay within ~2x of the
        // sequential quality (it is usually much closer).
        assert!(
            par_soed <= 2.0 * seq_soed.max(1.0),
            "parallel SOED {par_soed} too far from sequential {seq_soed}"
        );
        // And it must still beat round robin comfortably.
        let rr = metrics::soed(&hg, &Partition::round_robin(1000, p)) as f64;
        assert!(par_soed < rr);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        HyperPraw::basic(HyperPrawConfig::default(), 4).with_threads(0);
    }

    #[test]
    fn single_stealing_worker_reproduces_the_sequential_run_exactly() {
        // One thread has nobody to race: the run is bit-identical to the
        // sequential one in partition, iterations and history — the
        // determinism anchor of the thread count.
        let hg = mesh_hypergraph(&MeshConfig::new(400, 8));
        let praw = HyperPraw::basic(HyperPrawConfig::default(), 4);
        let one = praw.clone().with_threads(1).partition(&hg);
        let seq = praw.partition(&hg);
        assert_eq!(one.partition, seq.partition);
        assert_eq!(one.iterations, seq.iterations);
        assert_eq!(one.history, seq.history);
    }

    #[test]
    fn stealing_partition_is_valid_and_balanced_at_any_thread_count() {
        let hg = mesh_hypergraph(&MeshConfig::new(900, 8));
        for threads in [2usize, 4, 8] {
            let praw = HyperPraw::basic(HyperPrawConfig::default(), 8).with_threads(threads);
            let result = praw.partition(&hg);
            assert_eq!(result.partition.num_parts(), 8);
            assert_eq!(result.partition.num_vertices(), 900);
            assert!(
                result.imbalance <= 1.1 + 1e-9,
                "threads {threads}: imbalance {}",
                result.imbalance
            );
            // The loads the stopping rule tracked must agree exactly with
            // a recount from the returned assignment.
            let recomputed = result.partition.imbalance(&hg).unwrap();
            assert!(
                (result.imbalance - recomputed).abs() < 1e-9,
                "threads {threads}: tracked {} vs recomputed {recomputed}",
                result.imbalance
            );
        }
    }

    #[test]
    fn single_partition_is_trivial() {
        let hg = mesh_hypergraph(&MeshConfig::new(100, 6));
        let result = HyperPraw::basic(HyperPrawConfig::default(), 1).partition(&hg);
        assert!(result.partition.assignment().iter().all(|&x| x == 0));
        assert_eq!(result.comm_cost, 0.0);
    }
}
