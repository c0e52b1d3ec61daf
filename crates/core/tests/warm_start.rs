//! Warm-started engine runs: `Engine::run_warm` must refine an existing
//! assignment instead of reseeding, a dirty set must confine every move
//! to itself, and a run that rolls back to an earlier pass must leave its
//! provider synced to the partition it returns.

use hyperpraw_core::engine::{stream_order, AdjProvider, Engine, ExecutionStrategy, WarmStart};
use hyperpraw_core::metrics::{partitioning_communication_cost, CommCostState};
use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig, StopReason, StreamOrder};
use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw_hypergraph::{Hypergraph, Partition};

fn cold_run(hg: &Hypergraph, p: usize) -> Partition {
    HyperPraw::new(HyperPrawConfig::default(), CostMatrix::uniform(p))
        .partition(hg)
        .partition
}

fn warm_start_of(hg: &Hypergraph, partition: &Partition) -> WarmStart {
    WarmStart {
        partition: partition.clone(),
        loads: partition.part_loads(hg).unwrap(),
    }
}

#[test]
fn warm_run_over_the_full_graph_keeps_the_partition_feasible() {
    let hg = mesh_hypergraph(&MeshConfig::new(600, 8));
    let cost = CostMatrix::uniform(8);
    let config = HyperPrawConfig::default();
    let cold = cold_run(&hg, 8);

    let engine = Engine::new(config, ExecutionStrategy::threads(1));
    let order = stream_order(&hg, StreamOrder::Natural, 0);
    let mut provider = AdjProvider::traversal(&hg);
    let run = engine.run_warm(&cost, &hg, &order, &mut provider, warm_start_of(&hg, &cold));

    assert_eq!(run.partition.num_vertices(), hg.num_vertices());
    assert_eq!(run.partition.num_parts(), 8);
    assert!(
        run.imbalance <= config.imbalance_tolerance + 1e-9,
        "warm refinement left the partition infeasible: {}",
        run.imbalance
    );
    assert!(run.iterations >= 1);
    assert!(run.comm_cost.is_finite());
}

#[test]
fn dirty_set_restream_never_moves_a_clean_vertex() {
    let hg = mesh_hypergraph(&MeshConfig::new(400, 8));
    let cost = CostMatrix::uniform(4);
    let cold = cold_run(&hg, 4);

    // Restream an arbitrary small dirty set; everything else must keep its
    // cold assignment because the engine only visits the dirty set.
    let dirty: Vec<u32> = vec![3, 17, 42, 43, 44, 200];
    let engine = Engine::new(HyperPrawConfig::default(), ExecutionStrategy::threads(1));
    let mut provider = AdjProvider::traversal(&hg);
    let run = engine.run_warm(&cost, &hg, &dirty, &mut provider, warm_start_of(&hg, &cold));

    for v in 0..hg.num_vertices() as u32 {
        if !dirty.contains(&v) {
            assert_eq!(
                run.partition.part_of(v),
                cold.part_of(v),
                "clean vertex {v} moved during a dirty-set restream"
            );
        }
    }
}

#[test]
fn empty_dirty_set_returns_the_warm_partition_unchanged() {
    let hg = mesh_hypergraph(&MeshConfig::new(300, 8));
    let cost = CostMatrix::uniform(4);
    let cold = cold_run(&hg, 4);

    let engine = Engine::new(HyperPrawConfig::default(), ExecutionStrategy::threads(1));
    let mut provider = AdjProvider::traversal(&hg);
    let run = engine.run_warm(&cost, &hg, &[], &mut provider, warm_start_of(&hg, &cold));

    assert_eq!(run.partition.assignment(), cold.assignment());
}

#[test]
fn a_dirty_set_cost_rollback_leaves_the_provider_on_the_returned_partition() {
    let hg = mesh_hypergraph(&MeshConfig::new(600, 8));
    let cost = CostMatrix::uniform(8);
    let cold = cold_run(&hg, 8);
    // About one vertex in eight; most such draws stop on a pass that moved
    // nothing, seed 15's last pass raises the cost.
    let seed = 15u64;
    let dirty: Vec<u32> = hg
        .vertices()
        .filter(|&v| (u64::from(v) ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61 == 0)
        .collect();
    let engine = Engine::new(HyperPrawConfig::default(), ExecutionStrategy::threads(1));
    for resume in [false, true] {
        let mut provider = AdjProvider::traversal(&hg);
        if resume {
            let (_, counts) = CommCostState::new(&hg, cold.clone()).into_parts();
            provider = provider.resume(counts);
        }
        let run = engine.run_warm(&cost, &hg, &dirty, &mut provider, warm_start_of(&hg, &cold));

        assert_eq!(run.stop_reason, StopReason::CommCostConverged);
        let last_pass = run.history.records().last().unwrap().comm_cost;
        assert!(
            last_pass > run.comm_cost,
            "the run must return an earlier pass's partition: {last_pass} vs {}",
            run.comm_cost
        );
        let returned = partitioning_communication_cost(&hg, &run.partition, &cost);
        assert_eq!(run.comm_cost.to_bits(), returned.to_bits());
        assert!(provider.agrees_with(&run.partition));
        assert_eq!(
            provider.into_comm_state(run.partition.clone()),
            CommCostState::new(&hg, run.partition)
        );
    }
}
