//! Warm-started engine runs: `Engine::run_warm` must refine an existing
//! assignment instead of reseeding, and a `DirtySetSource` must confine
//! every move to the dirty set.

use hyperpraw_core::engine::{
    AdjProvider, DirtySetSource, Engine, EngineConfig, ExactCommCost, InMemorySource, WarmStart,
};
use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig, StreamOrder};
use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw_hypergraph::{AdjacencyBudget, Hypergraph, Partition};

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

    let engine = Engine::new(EngineConfig::restreaming(&config));
    let mut source = InMemorySource::new(&hg, StreamOrder::Natural, 0);
    let mut provider = AdjProvider::new(&hg, AdjacencyBudget::Auto);
    let mut model = ExactCommCost::new(&hg);
    let run = engine
        .run_warm(
            &cost,
            &mut source,
            &mut provider,
            &mut model,
            warm_start_of(&hg, &cold),
        )
        .unwrap();

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
    // cold assignment because the engine only visits what the source yields.
    let dirty: Vec<u32> = vec![3, 17, 42, 43, 44, 200];
    let engine = Engine::new(EngineConfig::restreaming(&HyperPrawConfig::default()));
    let mut source = DirtySetSource::new(&hg, dirty.clone());
    let mut provider = AdjProvider::new(&hg, AdjacencyBudget::Auto);
    let mut model = ExactCommCost::new(&hg);
    let run = engine
        .run_warm(
            &cost,
            &mut source,
            &mut provider,
            &mut model,
            warm_start_of(&hg, &cold),
        )
        .unwrap();

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

    let engine = Engine::new(EngineConfig::restreaming(&HyperPrawConfig::default()));
    let mut source = DirtySetSource::new(&hg, Vec::new());
    let mut provider = AdjProvider::new(&hg, AdjacencyBudget::Auto);
    let mut model = ExactCommCost::new(&hg);
    let run = engine
        .run_warm(
            &cost,
            &mut source,
            &mut provider,
            &mut model,
            warm_start_of(&hg, &cold),
        )
        .unwrap();

    assert_eq!(run.partition.assignment(), cold.assignment());
}
