//! Property-based dirty-set correctness tests.
//!
//! The incremental path maintains its snapshot, loads and quality state
//! in place across update batches; these properties pin it against an
//! independent from-scratch oracle. The oracle below deliberately does NOT
//! reuse `MutableHypergraph`: it tracks plain pin/weight vectors, rebuilds
//! the final hypergraph through `HypergraphBuilder` and states the rules
//! that reject an update on its own, so a bookkeeping bug in the
//! incremental structures cannot cancel itself out of the comparison.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperpraw_core::metrics::{partitioning_communication_cost, QualityReport};
use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig};
use hyperpraw_dynamic::{DynamicConfig, DynamicError, DynamicPartitioner, GraphUpdate};
use hyperpraw_hypergraph::generators::{random_hypergraph, CardinalityDist, RandomConfig};
use hyperpraw_hypergraph::mutable::MutationError;
use hyperpraw_hypergraph::{metrics, Hypergraph, HypergraphBuilder, VertexId};

/// From-scratch model of the evolving hypergraph: plain vectors, mutated
/// with the same tombstone semantics the dynamic layer promises.
#[derive(Clone)]
struct Oracle {
    vertex_weights: Vec<f64>,
    vertex_alive: Vec<bool>,
    edges: Vec<(Vec<VertexId>, f64)>,
    edge_alive: Vec<bool>,
}

impl Oracle {
    fn of(hg: &Hypergraph) -> Self {
        Self {
            vertex_weights: (0..hg.num_vertices())
                .map(|v| hg.vertex_weight(v as VertexId))
                .collect(),
            vertex_alive: vec![true; hg.num_vertices()],
            edges: (0..hg.num_hyperedges())
                .map(|e| (hg.pins(e as u32).to_vec(), hg.edge_weight(e as u32)))
                .collect(),
            edge_alive: vec![true; hg.num_hyperedges()],
        }
    }

    /// The error `update` is rejected with: an unknown id, or a dead one
    /// where the update needs a live one. Removals of dead ids are no-ops,
    /// a new hyperedge reports its smallest bad pin, and a pin addition
    /// checks the hyperedge before the vertex.
    fn check(&self, update: &GraphUpdate) -> Result<(), MutationError> {
        let vertex = |v: VertexId, live: bool| match self.vertex_alive.get(v as usize) {
            None => Err(MutationError::UnknownVertex(v)),
            Some(false) if live => Err(MutationError::DeadVertex(v)),
            Some(_) => Ok(()),
        };
        let edge = |e: u32, live: bool| match self.edge_alive.get(e as usize) {
            None => Err(MutationError::UnknownHyperedge(e)),
            Some(false) if live => Err(MutationError::DeadHyperedge(e)),
            Some(_) => Ok(()),
        };
        match update {
            GraphUpdate::AddVertex { .. } => Ok(()),
            GraphUpdate::RemoveVertex { vertex: v } => vertex(*v, false),
            GraphUpdate::AddHyperedge { pins, .. } => {
                let mut pins = pins.clone();
                pins.sort_unstable();
                pins.iter().try_for_each(|&v| vertex(v, true))
            }
            GraphUpdate::RemoveHyperedge { edge: e } => edge(*e, false),
            GraphUpdate::AddPin { edge: e, vertex: v } => edge(*e, true).and(vertex(*v, true)),
            GraphUpdate::RemovePin { edge: e, vertex: v } => edge(*e, true).and(vertex(*v, false)),
        }
    }

    fn apply(&mut self, update: &GraphUpdate) {
        match update {
            GraphUpdate::AddVertex { weight } => {
                self.vertex_weights.push(*weight);
                self.vertex_alive.push(true);
            }
            GraphUpdate::RemoveVertex { vertex } => {
                let v = *vertex as usize;
                self.vertex_alive[v] = false;
                self.vertex_weights[v] = 0.0;
                for (pins, _) in &mut self.edges {
                    pins.retain(|&u| u != *vertex);
                }
            }
            GraphUpdate::AddHyperedge { pins, weight } => {
                let mut pins = pins.clone();
                pins.sort_unstable();
                pins.dedup();
                self.edges.push((pins, *weight));
                self.edge_alive.push(true);
            }
            GraphUpdate::RemoveHyperedge { edge } => {
                self.edges[*edge as usize].0.clear();
                self.edge_alive[*edge as usize] = false;
            }
            GraphUpdate::AddPin { edge, vertex } => {
                let pins = &mut self.edges[*edge as usize].0;
                if !pins.contains(vertex) {
                    pins.push(*vertex);
                    pins.sort_unstable();
                }
            }
            GraphUpdate::RemovePin { edge, vertex } => {
                self.edges[*edge as usize].0.retain(|&u| u != *vertex);
            }
        }
    }

    fn build(&self) -> Hypergraph {
        let mut b = HypergraphBuilder::with_capacity(self.vertex_weights.len(), self.edges.len());
        b.name("prop".to_string());
        for (pins, w) in &self.edges {
            b.add_weighted_hyperedge(pins.iter().copied(), *w);
        }
        for (v, &w) in self.vertex_weights.iter().enumerate() {
            if w != 1.0 {
                b.set_vertex_weight(v as VertexId, w);
            }
        }
        b.build()
    }

    fn live_vertices(&self) -> Vec<VertexId> {
        (0..self.vertex_alive.len())
            .filter(|&v| self.vertex_alive[v])
            .map(|v| v as VertexId)
            .collect()
    }

    fn live_edges(&self) -> Vec<u32> {
        (0..self.edge_alive.len())
            .filter(|&e| self.edge_alive[e])
            .map(|e| e as u32)
            .collect()
    }
}

/// Draws one valid update against the oracle's current state, then applies
/// it to the oracle so the next draw stays valid.
fn draw_update(rng: &mut StdRng, oracle: &mut Oracle) -> Option<GraphUpdate> {
    let live_v = oracle.live_vertices();
    let live_e = oracle.live_edges();
    let update = match rng.gen_range(0usize..6) {
        0 => GraphUpdate::AddVertex {
            weight: rng.gen_range(1.0f64..3.0),
        },
        1 if live_v.len() > 4 => GraphUpdate::RemoveVertex {
            vertex: live_v[rng.gen_range(0usize..live_v.len())],
        },
        2 if live_v.len() >= 2 => {
            let count = rng.gen_range(2usize..5.min(live_v.len() + 1));
            let pins = (0..count)
                .map(|_| live_v[rng.gen_range(0usize..live_v.len())])
                .collect();
            GraphUpdate::AddHyperedge { pins, weight: 1.0 }
        }
        3 if live_e.len() > 2 => GraphUpdate::RemoveHyperedge {
            edge: live_e[rng.gen_range(0usize..live_e.len())],
        },
        4 if !live_e.is_empty() && !live_v.is_empty() => GraphUpdate::AddPin {
            edge: live_e[rng.gen_range(0usize..live_e.len())],
            vertex: live_v[rng.gen_range(0usize..live_v.len())],
        },
        5 if !live_e.is_empty() => {
            let edge = live_e[rng.gen_range(0usize..live_e.len())];
            let pins = &oracle.edges[edge as usize].0;
            if pins.is_empty() {
                return None;
            }
            GraphUpdate::RemovePin {
                edge,
                vertex: pins[rng.gen_range(0usize..pins.len())],
            }
        }
        _ => return None,
    };
    oracle.apply(&update);
    Some(update)
}

/// An invalid update against the oracle's current state: an unknown id,
/// or — when the oracle has one — a tombstoned vertex or hyperedge,
/// possibly tombstoned earlier in the same batch.
fn draw_invalid(rng: &mut StdRng, oracle: &Oracle) -> GraphUpdate {
    let unknown_v = (oracle.vertex_alive.len() + rng.gen_range(0usize..3)) as VertexId;
    let unknown_e = (oracle.edges.len() + rng.gen_range(0usize..3)) as u32;
    let dead_v = (0..oracle.vertex_alive.len()).find(|&v| !oracle.vertex_alive[v]);
    let dead_e = (0..oracle.edge_alive.len()).find(|&e| !oracle.edge_alive[e]);
    let live_v = oracle.live_vertices();
    let live_e = oracle.live_edges();
    match rng.gen_range(0usize..5) {
        0 => GraphUpdate::RemoveVertex { vertex: unknown_v },
        1 => GraphUpdate::AddPin {
            edge: unknown_e,
            vertex: live_v[0],
        },
        3 if dead_v.is_some() && !live_e.is_empty() => GraphUpdate::AddPin {
            edge: live_e[rng.gen_range(0usize..live_e.len())],
            vertex: dead_v.unwrap() as VertexId,
        },
        4 if dead_e.is_some() => GraphUpdate::RemovePin {
            edge: dead_e.unwrap() as u32,
            vertex: live_v[0],
        },
        _ => {
            // A bad pin among good ones: the smallest bad pin is reported.
            let mut pins = vec![live_v[rng.gen_range(0usize..live_v.len())], unknown_v];
            pins.extend(dead_v.map(|v| v as VertexId));
            pins.push(live_v[0]);
            GraphUpdate::AddHyperedge { pins, weight: 1.0 }
        }
    }
}

/// The error applying `batch` update by update to `oracle` stops at.
fn first_error(mut oracle: Oracle, batch: &[GraphUpdate]) -> Option<MutationError> {
    batch.iter().find_map(|update| match oracle.check(update) {
        Ok(()) => {
            oracle.apply(update);
            None
        }
        Err(e) => Some(e),
    })
}

/// A cost matrix unlike the partitioner's uniform one, to evaluate
/// reports under.
fn skewed_cost(p: usize) -> CostMatrix {
    let data = (0..p * p)
        .map(|k| {
            let (i, j) = (k / p, k % p);
            if i == j {
                0.0
            } else {
                1.0 + ((i * 7 + j * 3) % 5) as f64 * 0.25
            }
        })
        .collect();
    CostMatrix::from_raw(p, data)
}

fn seeded_instance(n: usize, e: usize, p: u32, seed: u64) -> (Hypergraph, DynamicPartitioner) {
    let hg = random_hypergraph(&RandomConfig {
        num_vertices: n,
        num_hyperedges: e,
        cardinality: CardinalityDist::Uniform { min: 2, max: 5 },
        seed,
        name: "prop".into(),
    });
    let cost = CostMatrix::uniform(p as usize);
    let config = HyperPrawConfig {
        max_iterations: 30,
        ..HyperPrawConfig::default().with_seed(seed)
    };
    let cold = HyperPraw::new(config, cost.clone()).partition(&hg);
    let cfg = DynamicConfig { config };
    let dp = DynamicPartitioner::new(&hg, cold.partition, cost, cfg).unwrap();
    (hg, dp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn empty_batches_are_bit_identical_no_ops(
        n in 40usize..120,
        e in 20usize..80,
        p in 2u32..6,
        seed in 0u64..100,
    ) {
        let (hg, mut dp) = seeded_instance(n, e, p, seed);
        let before_assignment = dp.partition().assignment().to_vec();
        let before_loads = dp.loads().to_vec();
        let outcome = dp.apply(&[]).unwrap();
        prop_assert_eq!(outcome.migration.vertices_moved, 0);
        prop_assert_eq!(outcome.dirty_vertices, 0);
        prop_assert_eq!(outcome.iterations, 0);
        prop_assert_eq!(dp.partition().assignment(), &before_assignment[..]);
        prop_assert_eq!(dp.loads(), &before_loads[..]);
        prop_assert_eq!(dp.hypergraph(), &hg);
    }

    #[test]
    fn incremental_state_matches_the_from_scratch_oracle(
        n in 40usize..120,
        e in 20usize..80,
        p in 2u32..6,
        seed in 0u64..100,
        batches in 1usize..4,
        batch_size in 1usize..12,
    ) {
        let (hg, mut dp) = seeded_instance(n, e, p, seed);
        let mut oracle = Oracle::of(&hg);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        let mut last = None;
        for _ in 0..batches {
            let mut batch = Vec::new();
            for _ in 0..batch_size {
                if let Some(u) = draw_update(&mut rng, &mut oracle) {
                    batch.push(u);
                }
            }
            last = Some(dp.apply(&batch).unwrap());
        }

        // The incrementally maintained snapshot must equal a hypergraph
        // rebuilt from scratch out of the oracle's plain vectors.
        let expected = oracle.build();
        prop_assert_eq!(dp.hypergraph(), &expected);

        // Reported quality must equal a from-scratch evaluation of the
        // final hypergraph + assignment: imbalance via exact part loads,
        // comm cost via the traversal-based metric (no adjacency reuse),
        // and the cut metrics agree on both structures by construction.
        let outcome = last.unwrap();
        let imbalance = dp.partition().imbalance(&expected).unwrap();
        prop_assert!((outcome.imbalance - imbalance).abs() < 1e-9,
            "incremental imbalance {} vs oracle {}", outcome.imbalance, imbalance);
        let cost = dp.cost().clone();
        let comm = partitioning_communication_cost(&expected, dp.partition(), &cost);
        prop_assert_eq!(outcome.comm_cost.to_bits(), comm.to_bits(),
            "incremental comm cost {} vs oracle {}", outcome.comm_cost, comm);
        prop_assert_eq!(
            metrics::hyperedge_cut(dp.hypergraph(), dp.partition()),
            metrics::hyperedge_cut(&expected, dp.partition())
        );
        // Loads the partitioner carries forward are exact.
        let loads = dp.partition().part_loads(&expected).unwrap();
        prop_assert_eq!(dp.loads(), &loads[..]);
    }

    #[test]
    fn every_batch_reports_exact_quality(
        n in 40usize..120,
        e in 20usize..80,
        p in 2u32..6,
        seed in 0u64..100,
        batches in 1usize..7,
        batch_size in 1usize..10,
    ) {
        let (hg, mut dp) = seeded_instance(n, e, p, seed);
        let mut oracle = Oracle::of(&hg);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(17).wrapping_add(3));
        let skewed = skewed_cost(p as usize);
        for i in 0..batches {
            let batch: Vec<GraphUpdate> = (0..batch_size)
                .filter_map(|_| draw_update(&mut rng, &mut oracle))
                .collect();
            let outcome = dp.apply(&batch).unwrap();
            let fresh = partitioning_communication_cost(dp.hypergraph(), dp.partition(), dp.cost());
            prop_assert_eq!(outcome.comm_cost.to_bits(), fresh.to_bits(),
                "batch {}: comm cost {} vs a fresh evaluation {}", i, outcome.comm_cost, fresh);
            // Cut, SOED, comm cost under another matrix and imbalance, read
            // from the resident state, equal a full re-evaluation.
            for cost in [dp.cost().clone(), skewed.clone()] {
                let report = QualityReport::compute(dp.hypergraph(), dp.partition(), &cost);
                prop_assert_eq!(dp.quality(&cost), report, "batch {}", i);
            }
        }
    }

    #[test]
    fn a_batch_with_one_invalid_update_changes_nothing(
        n in 40usize..120,
        e in 20usize..80,
        p in 2u32..6,
        seed in 0u64..100,
        before in 0usize..6,
        after in 0usize..4,
    ) {
        let (hg, mut dp) = seeded_instance(n, e, p, seed);
        let mut oracle = Oracle::of(&hg);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(13).wrapping_add(5));
        // Warm up with one valid batch, so tombstones exist.
        let warm: Vec<GraphUpdate> = (0..4)
            .filter_map(|_| draw_update(&mut rng, &mut oracle))
            .collect();
        dp.apply(&warm).unwrap();

        let start = oracle.clone();
        let mut batch: Vec<GraphUpdate> = (0..before)
            .filter_map(|_| draw_update(&mut rng, &mut oracle))
            .collect();
        batch.push(draw_invalid(&mut rng, &oracle));
        batch.extend((0..after).filter_map(|_| draw_update(&mut rng, &mut oracle)));

        let expected = first_error(start, &batch).expect("the batch holds an invalid update");
        let untouched = dp.clone();
        let err = dp.apply(&batch).unwrap_err();
        prop_assert_eq!(err, DynamicError::Mutation(expected));
        prop_assert!(dp.graph() == untouched.graph(), "graph changed");
        prop_assert_eq!(dp.hypergraph(), untouched.hypergraph());
        prop_assert_eq!(dp.partition(), untouched.partition());
        prop_assert_eq!(dp.loads(), untouched.loads());
        prop_assert_eq!(dp.comm_state(), untouched.comm_state());
        prop_assert_eq!(dp.connectivity(), untouched.connectivity());
    }
}
