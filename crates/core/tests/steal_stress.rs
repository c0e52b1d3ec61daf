//! Race-hunting stress test for the work-stealing execution strategy.
//!
//! A small hypergraph keeps each individual run cheap, eight workers on few
//! vertices maximises contention on the shared cursor / atomic assignment /
//! fixed-point load counters, and many repetitions with fresh seeds give
//! interleavings plenty of chances to go wrong. CI runs this with
//! `RUST_BACKTRACE=1` so a torn invariant names its culprit.

use hyperpraw_core::engine::{AdjProvider, Engine, ExecutionStrategy};
use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig, PartitionResult};
use hyperpraw_hypergraph::generators::{
    mesh_hypergraph, powerlaw_hypergraph, MeshConfig, PowerLawConfig,
};
use hyperpraw_hypergraph::{
    AdjacencyBudget, Hypergraph, HypergraphBuilder, NeighborAdjacency, Partition,
};
use hyperpraw_telemetry::Registry;
use hyperpraw_topology::{BandwidthMatrix, MachineModel};

/// Runs `seeds` stealing partitions of `hg` on `threads` workers and checks
/// every invariant against a from-scratch recount of the assignment.
fn hammer(hg: &Hypergraph, p: u32, threads: usize, seeds: u64) {
    for seed in 0..seeds {
        let config = HyperPrawConfig {
            max_iterations: 12,
            ..HyperPrawConfig::default().with_seed(seed)
        };
        let result = HyperPraw::new(config, CostMatrix::uniform(p as usize))
            .with_threads(threads)
            .partition(hg);
        check(hg, &result, p, &format!("seed {seed}, {threads} threads"));
    }
}

/// Checks `result` against a from-scratch recount of its assignment.
fn check(hg: &Hypergraph, result: &PartitionResult, p: u32, at: &str) {
    assert_eq!(result.partition.num_vertices(), hg.num_vertices());
    assert!(
        result.partition.assignment().iter().all(|&x| x < p),
        "{at}: part id out of range"
    );
    let mut recount = vec![0usize; p as usize];
    for &x in result.partition.assignment() {
        recount[x as usize] += 1;
    }
    assert_eq!(
        result.partition.part_sizes(),
        recount,
        "{at}: part-size bookkeeping drifted from the assignment"
    );
    let imbalance = result.partition.imbalance(hg).unwrap();
    assert!(
        (result.imbalance - imbalance).abs() < 1e-9,
        "{at}: reported imbalance {} vs recomputed {imbalance}",
        result.imbalance,
    );
}

#[test]
fn hammer_the_work_stealing_strategy_with_eight_threads() {
    hammer(&mesh_hypergraph(&MeshConfig::new(200, 6)), 5, 8, 40);
}

#[test]
fn weighted_vertices_keep_the_load_accounting_exact() {
    // Workers write the shared fixed-point loads only when a vertex moves,
    // so every move must carry its own weight. With weights 1..=5 a move
    // booked with the wrong weight or on the wrong part shows up in the
    // reported imbalance, and in debug builds the engine also checks the
    // fixed-point loads against the applied ones at every batch boundary.
    let mesh = mesh_hypergraph(&MeshConfig::new(200, 6));
    let mut builder = HypergraphBuilder::new(mesh.num_vertices());
    for (_, pins) in mesh.iter_edges() {
        builder.add_hyperedge(pins.iter().copied());
    }
    for v in mesh.vertices() {
        builder.set_vertex_weight(v, f64::from(v.wrapping_mul(2_654_435_761) % 5 + 1));
    }
    let hg = builder.build();
    assert!(hg.total_vertex_weight() > 2.0 * hg.num_vertices() as f64);
    for threads in [2, 8] {
        hammer(&hg, 5, threads, 20);
    }
}

#[test]
fn fractional_weights_keep_every_load_summary_exact() {
    // Each strategy keeps a summary of its load view for the O(1) stay
    // check, and debug builds compare every check against a scan of the
    // view and every kept summary against a fresh one. Stays change the
    // loads without a move: the decimal weights round in the batch
    // applies' `f64` sums, and each of the others lies half an ulp off
    // the grid of the loads in one binade, where a stay's `(L − w) + w`
    // rounds to a neighbour of an odd `L`. A summary holds four loads, so
    // at p = 4 every changed load changes it.
    let mesh = mesh_hypergraph(&MeshConfig::new(601, 8));
    let weights = [
        0.1,
        0.7,
        1.3,
        2.9,
        0.5 + 2f64.powi(-49),
        1.0 + 2f64.powi(-48),
        1.5 + 2f64.powi(-47),
        2.0 + 2f64.powi(-46),
    ];
    let mut builder = HypergraphBuilder::new(mesh.num_vertices());
    for (_, pins) in mesh.iter_edges() {
        builder.add_hyperedge(pins.iter().copied());
    }
    for v in mesh.vertices() {
        builder.set_vertex_weight(v, weights[v as usize % weights.len()]);
    }
    let hg = builder.build();
    let config = HyperPrawConfig {
        max_iterations: 30,
        ..HyperPrawConfig::default()
    };
    for (p, threads) in [(4, 2), (4, 4), (24, 2), (24, 4)] {
        let run = HyperPraw::new(config, CostMatrix::uniform(p as usize))
            .with_threads(threads)
            .partition(&hg);
        check(&hg, &run, p, &format!("steal, p {p}, {threads} threads"));
    }
}

#[test]
fn hub_counts_stay_exact_under_eight_threads() {
    // About one vertex in nine is a hub under the automatic budget, so
    // workers shift shared hub counts on most moves. In debug builds the
    // engine recounts every hub against the live assignment at each batch
    // boundary and pass end.
    let hg = powerlaw_hypergraph(&PowerLawConfig {
        num_vertices: 2000,
        num_hyperedges: 2000,
        avg_cardinality: 6.0,
        seed: 3,
        ..PowerLawConfig::default()
    });
    let hubs = NeighborAdjacency::build(&hg, AdjacencyBudget::Auto).num_hubs();
    assert!(hubs * 20 > hg.num_vertices(), "only {hubs} hubs");
    hammer(&hg, 8, 8, 12);
}

#[test]
fn stay_certificates_hold_on_hubs_under_eight_threads() {
    // Most visits of the later passes keep their vertex in place on a
    // stay certificate, while peers moving hub neighbours shift the
    // certified counts and bump their generations. In debug builds the
    // engine re-scores every certified visit and recomputes every live
    // certificate at each batch boundary and pass end.
    let hg = powerlaw_hypergraph(&PowerLawConfig {
        num_vertices: 2000,
        num_hyperedges: 2000,
        avg_cardinality: 6.0,
        seed: 5,
        ..PowerLawConfig::default()
    });
    let p = 8u32;
    let machine = MachineModel::archer_like(p as usize);
    let cost = CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, 1));
    for seed in 0..6 {
        let registry = Registry::new();
        let config = HyperPrawConfig {
            max_iterations: 20,
            ..HyperPrawConfig::default().with_seed(seed)
        };
        let result = HyperPraw::new(config, cost.clone())
            .with_threads(8)
            .with_registry(&registry)
            .partition(&hg);
        check(&hg, &result, p, &format!("seed {seed}"));
        let certified = registry.counter_value("engine.certified_visits");
        assert!(certified > Some(0), "seed {seed}: no visit was certified");
    }
}

#[test]
fn the_move_log_counts_every_move_of_a_pass() {
    // Workers log only their moves, and the batch boundary applies the
    // logs. One pass from the round-robin seed must count exactly the
    // vertices that left their seed part, and the loads the boundary
    // applied must give the returned partition's imbalance: with unit
    // weights every load is an integer, so the two agree bit for bit.
    let mesh = mesh_hypergraph(&MeshConfig::new(1500, 8));
    let powerlaw = powerlaw_hypergraph(&PowerLawConfig {
        num_vertices: 1500,
        num_hyperedges: 1500,
        avg_cardinality: 6.0,
        seed: 3,
        ..PowerLawConfig::default()
    });
    let config = HyperPrawConfig {
        max_iterations: 1,
        ..HyperPrawConfig::default()
    };
    let p = 8u32;
    for (name, hg) in [("mesh", &mesh), ("power-law", &powerlaw)] {
        for num_threads in [2, 4] {
            let at = format!("{name}, {num_threads} threads");
            let strategy = ExecutionStrategy {
                num_threads,
                chunk: 16,
            };
            let run = Engine::new(config, strategy).run(
                &CostMatrix::uniform(p as usize),
                hg,
                &mut AdjProvider::traversal(hg),
            );
            let seed = Partition::round_robin(hg.num_vertices(), p);
            let left = (0..hg.num_vertices() as u32)
                .filter(|&v| run.partition.part_of(v) != seed.part_of(v))
                .count();
            let first = &run.history.records()[0];
            assert!(left > 0, "{at}: the pass moved nothing");
            assert_eq!(first.moved_vertices, left, "{at}");
            let imbalance = run.partition.imbalance(hg).unwrap();
            assert_eq!(run.imbalance.to_bits(), imbalance.to_bits(), "{at}");
        }
    }
}
