//! The anchor gates: recorded partitions the in-memory driver must keep.
//!
//! Two instances pin the in-memory provider's answers bit for bit:
//!
//! * a small power-law graph with about one vertex in nine above the
//!   degree cutover of [`AdjacencyBudget::Auto`], whose fixture
//!   `fixtures/powerlaw_anchor.txt` was recorded by an earlier build that
//!   answered hubs by traversal on every visit;
//! * a card-16 FEM mesh partitioned for 24 Archer units — the shape of the
//!   `mesh-seq` benchmark workload, with no hubs — whose fixture
//!   `fixtures/mesh_anchor.txt` was recorded by an earlier build that
//!   scanned each vertex's flat neighbour list on every visit.
//!
//! The driver now answers every visit from kept part counts and builds no
//! adjacency. On each instance:
//!
//! * the sequential architecture-aware partition and the bits of its comm
//!   cost must equal the fixture;
//! * one work-stealing thread must reproduce the sequential assignment;
//! * two bulk-synchronous runs on four threads must be identical.

use hyperpraw::hypergraph::generators::{
    mesh_hypergraph, powerlaw_hypergraph, MeshConfig, PowerLawConfig,
};
use hyperpraw::hypergraph::{AdjacencyBudget, NeighborAdjacency};
use hyperpraw::prelude::*;

/// First line `comm_cost_bits <hex>`, then one part id per vertex.
const POWERLAW_FIXTURE: &str = include_str!("fixtures/powerlaw_anchor.txt");
/// Same layout as [`POWERLAW_FIXTURE`].
const MESH_FIXTURE: &str = include_str!("fixtures/mesh_anchor.txt");

const SEED: u64 = 3;
const POWERLAW_P: usize = 8;
const MESH_P: usize = 24;

fn powerlaw() -> Hypergraph {
    powerlaw_hypergraph(&PowerLawConfig {
        num_vertices: 2000,
        num_hyperedges: 2000,
        avg_cardinality: 6.0,
        seed: SEED,
        ..PowerLawConfig::default()
    })
}

fn mesh() -> Hypergraph {
    mesh_hypergraph(&MeshConfig::new(1000, 16))
}

fn archer_cost(p: usize) -> CostMatrix {
    let machine = MachineModel::archer_like(p);
    let link = LinkModel::from_machine(&machine, 0.05, SEED);
    CostMatrix::from_bandwidth(&RingProfiler::default().profile(&link))
}

fn aware(hg: &Hypergraph, p: usize, threads: usize, mode: ParallelMode) -> PartitionReport {
    PartitionJob::new(Algorithm::ParallelAware)
        .cost(archer_cost(p))
        .seed(SEED)
        .threads(threads)
        .parallel_mode(mode)
        .run(hg)
        .expect("valid job")
}

fn sequential(hg: &Hypergraph, p: usize) -> PartitionReport {
    PartitionJob::new(Algorithm::HyperPrawAware)
        .cost(archer_cost(p))
        .seed(SEED)
        .run(hg)
        .expect("valid job")
}

/// Asserts that `report` reproduces `fixture`'s assignment and comm-cost
/// bits.
fn assert_matches(fixture: &str, report: &PartitionReport) {
    let mut lines = fixture.lines();
    let bits = lines
        .next()
        .and_then(|l| l.strip_prefix("comm_cost_bits "))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .expect("fixture header");
    let recorded: Vec<u32> = lines.map(|l| l.parse().expect("part id")).collect();
    assert_eq!(report.partition.assignment(), &recorded[..]);
    assert_eq!(report.comm_cost.map(f64::to_bits), Some(bits));
}

#[test]
fn the_instance_has_hubs_under_the_auto_budget() {
    let hg = powerlaw();
    let hubs = NeighborAdjacency::build(&hg, AdjacencyBudget::Auto).num_hubs();
    assert!(
        hubs * 20 > hg.num_vertices(),
        "only {hubs} hubs among {} vertices",
        hg.num_vertices()
    );
}

#[test]
fn sequential_aware_matches_the_recorded_fixture() {
    assert_matches(POWERLAW_FIXTURE, &sequential(&powerlaw(), POWERLAW_P));
}

#[test]
fn one_stealing_thread_matches_sequential() {
    let hg = powerlaw();
    let steal = aware(&hg, POWERLAW_P, 1, ParallelMode::WorkStealing);
    assert_eq!(steal.partition, sequential(&hg, POWERLAW_P).partition);
}

#[test]
fn bsp_runs_on_four_threads_are_identical() {
    let hg = powerlaw();
    let a = aware(&hg, POWERLAW_P, 4, ParallelMode::Bsp);
    let b = aware(&hg, POWERLAW_P, 4, ParallelMode::Bsp);
    assert_eq!(a.partition, b.partition);
    assert_eq!(a.comm_cost.map(f64::to_bits), b.comm_cost.map(f64::to_bits));
}

#[test]
fn mesh_sequential_aware_matches_the_recorded_fixture() {
    let hg = mesh();
    assert_eq!(
        NeighborAdjacency::build(&hg, AdjacencyBudget::Auto).num_hubs(),
        0,
        "the mesh anchor covers the hub-free shape"
    );
    assert_matches(MESH_FIXTURE, &sequential(&hg, MESH_P));
}

#[test]
fn mesh_one_stealing_thread_matches_sequential() {
    let hg = mesh();
    let steal = aware(&hg, MESH_P, 1, ParallelMode::WorkStealing);
    assert_eq!(steal.partition, sequential(&hg, MESH_P).partition);
}

#[test]
fn mesh_bsp_runs_on_four_threads_are_identical() {
    let hg = mesh();
    let a = aware(&hg, MESH_P, 4, ParallelMode::Bsp);
    let b = aware(&hg, MESH_P, 4, ParallelMode::Bsp);
    assert_eq!(a.partition, b.partition);
    assert_eq!(a.comm_cost.map(f64::to_bits), b.comm_cost.map(f64::to_bits));
}
