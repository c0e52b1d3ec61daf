//! The unified engine must reproduce the pre-refactor drivers bit for bit.
//!
//! `reference_restream` below is a frozen, independent transcription of the
//! seed repository's sequential Algorithm 1 loop (`HyperPraw::partition`
//! before the engine refactor): it scores candidates one [`value_of`] call
//! at a time — the O(p²) specification path — and replicates the original
//! tie-breaking, α tempering, tolerance gate, refinement stopping rule and
//! history bookkeeping. The engine-backed [`HyperPraw`] — and the bare
//! [`Engine`] over a traversal provider — must match its
//! assignment and per-iteration history exactly (f64 bit equality), which
//! pins down both the refactored control flow and the restructured fast
//! scorer ([`hyperpraw_core::value::best_partition_in`]).

use hyperpraw_core::engine::{AdjProvider, Engine, EngineConfig, InMemorySource};
use hyperpraw_core::history::{IterationRecord, PartitionHistory, StreamPhase};
use hyperpraw_core::metrics::partitioning_communication_cost;
use hyperpraw_core::value::value_of;
use hyperpraw_core::{
    CostMatrix, HyperPraw, HyperPrawConfig, RefinementPolicy, StopReason, StreamOrder,
};
use hyperpraw_hypergraph::generators::{
    mesh_hypergraph, powerlaw_hypergraph, random_hypergraph, MeshConfig, PowerLawConfig,
    RandomConfig,
};
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{Hypergraph, HypergraphBuilder, Partition, VertexId};
use hyperpraw_topology::{BandwidthMatrix, MachineModel};

/// The seed driver's scorer: evaluate `value_of` per candidate with the
/// original comparison and tie-breaking.
fn reference_best_partition(
    counts: &[u32],
    cost: &CostMatrix,
    alpha: f64,
    loads: &[f64],
    expected: &[f64],
) -> u32 {
    let mut best = 0u32;
    let mut best_value = f64::NEG_INFINITY;
    for i in 0..counts.len() {
        let v = value_of(counts, i as u32, cost, alpha, loads[i], expected[i]);
        let better = v > best_value + 1e-12
            || ((v - best_value).abs() <= 1e-12 && loads[i] < loads[best as usize] - 1e-12);
        if better {
            best = i as u32;
            best_value = v;
        }
    }
    best
}

struct ReferenceResult {
    partition: Partition,
    history: PartitionHistory,
    iterations: usize,
    stop_reason: StopReason,
}

/// Frozen transcription of the seed sequential restreaming loop.
fn reference_restream(
    hg: &Hypergraph,
    config: &HyperPrawConfig,
    cost: &CostMatrix,
) -> ReferenceResult {
    let p = cost.num_units();
    let mut partition = Partition::round_robin(hg.num_vertices(), p as u32);
    let mut loads = partition.part_loads(hg).unwrap();
    let expected = vec![(hg.total_vertex_weight() / p as f64).max(f64::MIN_POSITIVE); p];
    let mut alpha = config.starting_alpha(p as u32, hg.num_vertices(), hg.num_hyperedges());
    let order: Vec<VertexId> = match config.stream_order {
        StreamOrder::Natural => hg.vertices().collect(),
        other => panic!("the reference only implements natural order, got {other:?}"),
    };

    let mut scratch = NeighborScratch::new(hg.num_vertices());
    let mut counts: Vec<u32> = Vec::new();
    let mut history = PartitionHistory::new();
    let mut previous_feasible: Option<(Partition, f64)> = None;
    let mut stop_reason = StopReason::MaxIterations;
    let mut iterations = 0usize;

    for n in 1..=config.max_iterations {
        iterations = n;
        let mut moved = 0usize;
        for &v in &order {
            let current = partition.part_of(v);
            loads[current as usize] -= hg.vertex_weight(v);
            scratch.neighbor_partition_counts(hg, &partition, v, &mut counts);
            let target = reference_best_partition(&counts, cost, alpha, &loads, &expected);
            loads[target as usize] += hg.vertex_weight(v);
            partition.set(v, target);
            if target != current {
                moved += 1;
            }
        }
        let total: f64 = loads.iter().sum();
        let imbalance = if total == 0.0 {
            0.0
        } else {
            loads.iter().cloned().fold(f64::MIN, f64::max) / (total / p as f64)
        };
        let comm_cost = partitioning_communication_cost(hg, &partition, cost);
        let feasible = imbalance <= config.imbalance_tolerance + 1e-12;
        if config.track_history {
            history.push(IterationRecord {
                iteration: n,
                phase: if feasible {
                    StreamPhase::Refinement
                } else {
                    StreamPhase::Tempering
                },
                alpha,
                imbalance,
                comm_cost,
                moved_vertices: moved,
            });
        }
        if !feasible {
            alpha *= config.tempering_factor;
            continue;
        }
        match config.refinement {
            RefinementPolicy::None => {
                stop_reason = StopReason::ToleranceReached;
                previous_feasible = Some((partition.clone(), comm_cost));
                break;
            }
            RefinementPolicy::Factor(factor) => {
                if let Some((_, previous_cost)) = &previous_feasible {
                    if comm_cost > *previous_cost {
                        stop_reason = StopReason::CommCostConverged;
                        break;
                    }
                }
                previous_feasible = Some((partition.clone(), comm_cost));
                if moved == 0 {
                    stop_reason = StopReason::CommCostConverged;
                    break;
                }
                alpha *= factor;
            }
        }
    }

    let partition = match previous_feasible {
        Some((partition, _)) => partition,
        None => partition,
    };
    ReferenceResult {
        partition,
        history,
        iterations,
        stop_reason,
    }
}

fn assert_bit_identical(hg: &Hypergraph, config: HyperPrawConfig, cost: CostMatrix, label: &str) {
    let reference = reference_restream(hg, &config, &cost);
    let run = HyperPraw::new(config, cost).partition(hg);
    let engine = ReferenceResult {
        partition: run.partition,
        history: run.history,
        iterations: run.iterations,
        stop_reason: run.stop_reason,
    };
    assert_matches(&engine, &reference, label);
}

/// Asserts `engine` reproduces `reference` exactly, f64 history included.
fn assert_matches(engine: &ReferenceResult, reference: &ReferenceResult, label: &str) {
    assert_eq!(
        engine.partition.assignment(),
        reference.partition.assignment(),
        "{label}: assignments diverged"
    );
    assert_eq!(engine.iterations, reference.iterations, "{label}");
    assert_eq!(engine.stop_reason, reference.stop_reason, "{label}");
    assert_eq!(
        engine.history.len(),
        reference.history.len(),
        "{label}: history lengths diverged"
    );
    for (a, b) in engine
        .history
        .records()
        .iter()
        .zip(reference.history.records())
    {
        assert_eq!(a.iteration, b.iteration, "{label}");
        assert_eq!(a.phase, b.phase, "{label}");
        assert_eq!(a.moved_vertices, b.moved_vertices, "{label}");
        assert_eq!(
            a.alpha.to_bits(),
            b.alpha.to_bits(),
            "{label}: alpha diverged at iteration {}",
            a.iteration
        );
        assert_eq!(
            a.imbalance.to_bits(),
            b.imbalance.to_bits(),
            "{label}: imbalance diverged at iteration {}",
            a.iteration
        );
        assert_eq!(
            a.comm_cost.to_bits(),
            b.comm_cost.to_bits(),
            "{label}: comm cost diverged at iteration {}",
            a.iteration
        );
    }
}

/// `hg` with vertex weights cycling through `weights`.
fn reweighted(hg: &Hypergraph, weights: &[f64]) -> Hypergraph {
    let mut builder = HypergraphBuilder::new(hg.num_vertices());
    for (e, pins) in hg.iter_edges() {
        builder.add_weighted_hyperedge(pins.iter().copied(), hg.edge_weight(e));
    }
    for v in hg.vertices() {
        builder.set_vertex_weight(v, weights[v as usize % weights.len()]);
    }
    builder.build()
}

fn suite() -> Vec<(&'static str, Hypergraph)> {
    let mesh = mesh_hypergraph(&MeshConfig::new(600, 8));
    // A stay detaches and re-attaches its weight, `(L − w) + w`, which
    // rounds back to `L` unless `L − w` is a tie: then both steps round to
    // even, and an odd `L` moves by one ulp. Each of the last four weights
    // lies half an ulp off the grid of the loads in one binade from
    // [16, 32) to [128, 256), so every part count here makes stays that
    // change a load's bits.
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
    vec![
        ("weighted-mesh", reweighted(&mesh, &weights)),
        ("mesh", mesh),
        (
            "random",
            random_hypergraph(&RandomConfig::with_avg_cardinality(400, 300, 5.0, 7)),
        ),
        (
            "powerlaw",
            powerlaw_hypergraph(&PowerLawConfig {
                num_vertices: 500,
                num_hyperedges: 350,
                seed: 11,
                ..PowerLawConfig::default()
            }),
        ),
    ]
}

#[test]
fn sequential_engine_is_bit_identical_to_the_seed_driver_basic() {
    for (name, hg) in suite() {
        let config = HyperPrawConfig::default();
        assert_bit_identical(&hg, config, CostMatrix::uniform(8), name);
    }
}

#[test]
fn sequential_engine_is_bit_identical_to_the_seed_driver_aware() {
    let machine = MachineModel::archer_like(24);
    let cost = CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, 1));
    for (name, hg) in suite() {
        let config = HyperPrawConfig::default();
        assert_bit_identical(&hg, config, cost.clone(), name);
    }
}

#[test]
fn sequential_engine_matches_across_configurations() {
    let hg = mesh_hypergraph(&MeshConfig::new(500, 8));
    for (label, config) in [
        (
            "no-refinement",
            HyperPrawConfig::default().with_refinement(RefinementPolicy::None),
        ),
        (
            "frozen-alpha-refinement",
            HyperPrawConfig::default().with_refinement(RefinementPolicy::Factor(1.0)),
        ),
        (
            "tight-tolerance",
            HyperPrawConfig::default().with_imbalance_tolerance(1.02),
        ),
        (
            "explicit-alpha",
            HyperPrawConfig {
                initial_alpha: Some(3.0),
                ..HyperPrawConfig::default()
            },
        ),
        (
            "iteration-capped",
            HyperPrawConfig::default()
                .with_max_iterations(2)
                .with_imbalance_tolerance(1.0000001),
        ),
    ] {
        assert_bit_identical(&hg, config, CostMatrix::uniform(6), label);
    }
}

#[test]
fn bare_engine_is_bit_identical_to_the_reference() {
    // The bare engine over a traversal provider reproduces the frozen seed
    // loop bit for bit, f64 history included.
    let machine = MachineModel::archer_like(16);
    let cost = CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, 1));
    let config = HyperPrawConfig::default();
    for (name, hg) in suite() {
        let reference = reference_restream(&hg, &config, &cost);
        let run = Engine::new(EngineConfig::restreaming(&config))
            .run(
                &cost,
                &mut InMemorySource::new(&hg, config.stream_order, config.seed),
                &mut AdjProvider::traversal(&hg),
            )
            .unwrap();
        let engine = ReferenceResult {
            partition: run.partition,
            history: run.history,
            iterations: run.iterations,
            stop_reason: run.stop_reason,
        };
        assert_matches(&engine, &reference, name);
    }
}
