//! The anchor gates on an input with hub vertices.
//!
//! Every other gate partitions a generated mesh, which has no hubs under
//! [`AdjacencyBudget::Auto`], so the hub path of the in-memory provider
//! would go unchecked. This small power-law graph puts about one vertex in
//! nine above the degree cutover. On it:
//!
//! * the sequential architecture-aware partition and the bits of its comm
//!   cost must equal `fixtures/powerlaw_anchor.txt`, recorded by an
//!   earlier build that answered hubs by traversal on every visit;
//! * one work-stealing thread must reproduce the sequential assignment;
//! * two bulk-synchronous runs on four threads must be identical.

use hyperpraw::hypergraph::generators::{powerlaw_hypergraph, PowerLawConfig};
use hyperpraw::hypergraph::{AdjacencyBudget, NeighborAdjacency};
use hyperpraw::prelude::*;

/// First line `comm_cost_bits <hex>`, then one part id per vertex.
const FIXTURE: &str = include_str!("fixtures/powerlaw_anchor.txt");

const P: usize = 8;
const SEED: u64 = 3;

fn instance() -> Hypergraph {
    powerlaw_hypergraph(&PowerLawConfig {
        num_vertices: 2000,
        num_hyperedges: 2000,
        avg_cardinality: 6.0,
        seed: SEED,
        ..PowerLawConfig::default()
    })
}

fn archer_cost() -> CostMatrix {
    let machine = MachineModel::archer_like(P);
    let link = LinkModel::from_machine(&machine, 0.05, SEED);
    CostMatrix::from_bandwidth(&RingProfiler::default().profile(&link))
}

fn aware(threads: usize, mode: ParallelMode) -> PartitionReport {
    PartitionJob::new(Algorithm::ParallelAware)
        .cost(archer_cost())
        .seed(SEED)
        .threads(threads)
        .parallel_mode(mode)
        .run(&instance())
        .expect("valid job")
}

fn sequential() -> PartitionReport {
    PartitionJob::new(Algorithm::HyperPrawAware)
        .cost(archer_cost())
        .seed(SEED)
        .run(&instance())
        .expect("valid job")
}

#[test]
fn the_instance_has_hubs_under_the_auto_budget() {
    let hg = instance();
    let hubs = NeighborAdjacency::build(&hg, AdjacencyBudget::Auto).num_hubs();
    assert!(
        hubs * 20 > hg.num_vertices(),
        "only {hubs} hubs among {} vertices",
        hg.num_vertices()
    );
}

#[test]
fn sequential_aware_matches_the_recorded_fixture() {
    let mut lines = FIXTURE.lines();
    let bits = lines
        .next()
        .and_then(|l| l.strip_prefix("comm_cost_bits "))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .expect("fixture header");
    let recorded: Vec<u32> = lines.map(|l| l.parse().expect("part id")).collect();
    let report = sequential();
    assert_eq!(report.partition.assignment(), &recorded[..]);
    assert_eq!(report.comm_cost.map(f64::to_bits), Some(bits));
}

#[test]
fn one_stealing_thread_matches_sequential() {
    let steal = aware(1, ParallelMode::WorkStealing);
    assert_eq!(steal.partition, sequential().partition);
}

#[test]
fn bsp_runs_on_four_threads_are_identical() {
    let a = aware(4, ParallelMode::Bsp);
    let b = aware(4, ParallelMode::Bsp);
    assert_eq!(a.partition, b.partition);
    assert_eq!(a.comm_cost.map(f64::to_bits), b.comm_cost.map(f64::to_bits));
}
