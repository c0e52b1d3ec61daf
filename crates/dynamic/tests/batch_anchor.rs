//! The batch anchor: a recorded update sequence the dynamic layer must
//! keep reproducing bit for bit.
//!
//! A 2,000-vertex card-16 FEM mesh is partitioned cold for 24 Archer-like
//! units, then absorbs 50 fixed batches that add and remove vertices,
//! hyperedges and pins. `fixtures/batch_anchor.txt` was recorded by a
//! build that cloned the mutable hypergraph per batch, rebuilt the CSR
//! snapshot from scratch and restreamed through a patched neighbour
//! adjacency. Every later build must report the same dirty-set size and
//! comm-cost bits for every batch and end on the same assignment.

use hyperpraw_core::metrics::partitioning_communication_cost;
use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig};
use hyperpraw_dynamic::{DynamicConfig, DynamicPartitioner, GraphUpdate};
use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw_hypergraph::VertexId;
use hyperpraw_topology::{BandwidthMatrix, MachineModel};

/// 50 lines `<comm_cost_bits hex> <dirty vertices>`, one per batch, then
/// one part id per vertex of the final assignment.
const FIXTURE: &str = include_str!("fixtures/batch_anchor.txt");

const VERTICES: usize = 2_000;
const PARTS: usize = 24;
const BATCHES: usize = 50;

/// A deterministic id stream (SplitMix64), independent of any RNG crate.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> u32 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as u32
    }

    fn live_vertex(&mut self, dp: &DynamicPartitioner) -> VertexId {
        loop {
            let v = self.below(dp.hypergraph().num_vertices());
            if dp.graph().is_vertex_alive(v) {
                return v;
            }
        }
    }

    /// A hyperedge with at least one pin (so a live one).
    fn live_edge(&mut self, dp: &DynamicPartitioner) -> u32 {
        let hg = dp.hypergraph();
        loop {
            let e = self.below(hg.num_hyperedges());
            if !hg.pins(e).is_empty() {
                return e;
            }
        }
    }
}

/// Batch `i` of the sequence, drawn against the partitioner's live graph.
fn batch(i: usize, draws: &mut Draws, dp: &DynamicPartitioner) -> Vec<GraphUpdate> {
    let n = dp.hypergraph().num_vertices() as VertexId;
    match i % 5 {
        0 => vec![
            GraphUpdate::AddVertex { weight: 1.0 },
            GraphUpdate::AddHyperedge {
                pins: vec![n, draws.live_vertex(dp), draws.live_vertex(dp)],
                weight: 1.0,
            },
        ],
        1 => vec![GraphUpdate::RemoveVertex {
            vertex: draws.live_vertex(dp),
        }],
        2 => {
            let gain = draws.live_edge(dp);
            let lose = draws.live_edge(dp);
            let pins = dp.hypergraph().pins(lose);
            let leaving = pins[draws.below(pins.len()) as usize];
            vec![
                GraphUpdate::AddPin {
                    edge: gain,
                    vertex: draws.live_vertex(dp),
                },
                GraphUpdate::RemovePin {
                    edge: lose,
                    vertex: leaving,
                },
            ]
        }
        3 => vec![
            GraphUpdate::RemoveHyperedge {
                edge: draws.live_edge(dp),
            },
            GraphUpdate::AddHyperedge {
                pins: (0..3).map(|_| draws.live_vertex(dp)).collect(),
                weight: 2.0,
            },
        ],
        _ => vec![
            GraphUpdate::AddVertex { weight: 1.0 },
            GraphUpdate::AddVertex { weight: 3.0 },
            GraphUpdate::AddHyperedge {
                pins: vec![n, n + 1, draws.live_vertex(dp)],
                weight: 1.0,
            },
            GraphUpdate::RemoveVertex {
                vertex: draws.live_vertex(dp),
            },
        ],
    }
}

/// Runs the sequence; returns per-batch `(comm_cost bits, dirty size)` and
/// the final assignment.
fn run_sequence() -> (Vec<(u64, usize)>, Vec<u32>) {
    let hg = mesh_hypergraph(&MeshConfig::new(VERTICES, 16));
    let cost = CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(
        &MachineModel::archer_like(PARTS),
        0.05,
        7,
    ));
    let config = HyperPrawConfig::default().with_seed(7);
    let cold = HyperPraw::new(config, cost.clone()).partition(&hg);
    let cfg = DynamicConfig { config };
    let mut dp = DynamicPartitioner::new(&hg, cold.partition, cost.clone(), cfg).unwrap();
    let mut draws = Draws(21);
    let mut per_batch = Vec::with_capacity(BATCHES);
    for i in 0..BATCHES {
        let updates = batch(i, &mut draws, &dp);
        let outcome = dp.apply(&updates).unwrap();
        let fresh = partitioning_communication_cost(dp.hypergraph(), dp.partition(), &cost);
        assert_eq!(
            outcome.comm_cost.to_bits(),
            fresh.to_bits(),
            "batch {i}: reported comm cost differs from a fresh evaluation"
        );
        per_batch.push((outcome.comm_cost.to_bits(), outcome.dirty_vertices));
    }
    (per_batch, dp.partition().assignment().to_vec())
}

#[test]
fn the_recorded_batch_sequence_is_reproduced_bit_for_bit() {
    let (per_batch, assignment) = run_sequence();
    let mut lines = FIXTURE.lines();
    for (i, &(bits, dirty)) in per_batch.iter().enumerate() {
        let line = lines.next().expect("fixture covers every batch");
        let mut fields = line.split_whitespace();
        let want_bits = u64::from_str_radix(fields.next().unwrap(), 16).unwrap();
        let want_dirty: usize = fields.next().unwrap().parse().unwrap();
        assert_eq!(
            (bits, dirty),
            (want_bits, want_dirty),
            "batch {i}: comm cost {} vs recorded {}",
            f64::from_bits(bits),
            f64::from_bits(want_bits)
        );
    }
    let recorded: Vec<u32> = lines.map(|l| l.trim().parse().unwrap()).collect();
    assert_eq!(recorded.len(), assignment.len(), "final vertex count");
    let differing = recorded
        .iter()
        .zip(&assignment)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(
        differing, 0,
        "final assignment differs on {differing} vertices"
    );
}
