//! Initial bisection of the coarsest hypergraph.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperpraw_hypergraph::{Hypergraph, VertexId};

use crate::MultilevelConfig;

/// A two-way split of a hypergraph's vertices.
#[derive(Clone, Debug, PartialEq)]
pub struct Bisection {
    /// 0/1 side per vertex.
    pub assignment: Vec<u32>,
    /// Weighted cut (connectivity−1 objective, which for a bisection equals
    /// the weighted hyperedge cut).
    pub cut: f64,
    /// Total vertex weight on each side.
    pub part_weights: [f64; 2],
}

impl Bisection {
    /// Recomputes cut and part weights from the assignment.
    pub fn evaluate(hg: &Hypergraph, assignment: Vec<u32>) -> Self {
        debug_assert_eq!(assignment.len(), hg.num_vertices());
        let mut cut = 0.0;
        for e in hg.hyperedges() {
            let pins = hg.pins(e);
            let first = assignment[pins[0] as usize];
            if pins.iter().any(|&v| assignment[v as usize] != first) {
                cut += hg.edge_weight(e);
            }
        }
        let mut part_weights = [0.0f64; 2];
        for v in hg.vertices() {
            part_weights[assignment[v as usize] as usize] += hg.vertex_weight(v);
        }
        Self {
            assignment,
            cut,
            part_weights,
        }
    }

    /// `true` when side 0 carries at most `max0` weight and side 1 at most
    /// `max1`.
    pub fn is_balanced(&self, max0: f64, max1: f64) -> bool {
        self.part_weights[0] <= max0 + 1e-9 && self.part_weights[1] <= max1 + 1e-9
    }
}

/// A random bisection targeting `fraction` of the total weight on side 0.
pub fn random_bisection(hg: &Hypergraph, fraction: f64, seed: u64) -> Bisection {
    let mut rng = StdRng::seed_from_u64(seed);
    let assignment: Vec<u32> = (0..hg.num_vertices())
        .map(|_| {
            if rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                0
            } else {
                1
            }
        })
        .collect();
    Bisection::evaluate(hg, assignment)
}

/// Greedy hypergraph growing: starting from a random seed vertex, grow side 0
/// by repeatedly absorbing the unassigned vertex with the strongest
/// connectivity to side 0, until side 0 reaches `fraction` of the total
/// weight. This is the standard GHG initial partitioner used by multilevel
/// tools.
pub fn greedy_growing_bisection(hg: &Hypergraph, fraction: f64, seed: u64) -> Bisection {
    let n = hg.num_vertices();
    if n == 0 {
        return Bisection {
            assignment: Vec::new(),
            cut: 0.0,
            part_weights: [0.0, 0.0],
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let total: f64 = hg.total_vertex_weight();
    let target0 = total * fraction.clamp(0.05, 0.95);

    let mut assignment = vec![1u32; n];
    let mut in_zero = vec![false; n];
    // The connectivity score of each unassigned vertex towards side 0.
    let mut score = vec![0.0f64; n];
    let mut weight0 = 0.0f64;

    let seed_vertex = rng.gen_range(0..n) as VertexId;
    let mut frontier: Vec<VertexId> = vec![seed_vertex];

    while weight0 < target0 {
        // Pick the best frontier vertex (or a random unassigned vertex if the
        // frontier is exhausted, e.g. disconnected hypergraphs).
        let pick = frontier
            .iter()
            .copied()
            .filter(|&v| !in_zero[v as usize])
            .max_by(|&a, &b| score[a as usize].total_cmp(&score[b as usize]));
        let v = match pick {
            Some(v) => v,
            None => match (0..n as u32).find(|&v| !in_zero[v as usize]) {
                Some(v) => v,
                None => break,
            },
        };
        in_zero[v as usize] = true;
        assignment[v as usize] = 0;
        weight0 += hg.vertex_weight(v);
        frontier.retain(|&u| !in_zero[u as usize]);
        // Update scores of the neighbours of v.
        for &e in hg.incident_edges(v) {
            let card = hg.cardinality(e);
            if card < 2 {
                continue;
            }
            let w = hg.edge_weight(e) / (card as f64 - 1.0);
            for &u in hg.pins(e) {
                if !in_zero[u as usize] {
                    if score[u as usize] == 0.0 {
                        frontier.push(u);
                    }
                    score[u as usize] += w;
                }
            }
        }
    }
    Bisection::evaluate(hg, assignment)
}

/// Runs several randomised initial bisections (greedy growing plus a random
/// fallback) and returns the best: feasible solutions are preferred, then
/// lower cut, then better balance.
pub fn best_initial_bisection(
    hg: &Hypergraph,
    config: &MultilevelConfig,
    fraction: f64,
) -> Bisection {
    let total = hg.total_vertex_weight();
    let max0 = config.max_part_weight(total, fraction);
    let max1 = config.max_part_weight(total, 1.0 - fraction);
    let mut best: Option<(bool, f64, f64, Bisection)> = None;
    let trials = config.initial_trials.max(1);
    for t in 0..trials {
        let seed = config.seed.wrapping_mul(31).wrapping_add(t as u64);
        let candidate = if t == trials - 1 {
            random_bisection(hg, fraction, seed)
        } else {
            greedy_growing_bisection(hg, fraction, seed)
        };
        let feasible = candidate.is_balanced(max0, max1);
        let imbalance = candidate.part_weights[0].max(candidate.part_weights[1]);
        let key = (feasible, candidate.cut, imbalance);
        let better = match &best {
            None => true,
            Some((bf, bc, bi, _)) => {
                (key.0 && !bf)
                    || (key.0 == *bf && key.1 < *bc - 1e-12)
                    || (key.0 == *bf && (key.1 - bc).abs() <= 1e-12 && key.2 < *bi)
            }
        };
        if better {
            best = Some((feasible, candidate.cut, imbalance, candidate));
        }
    }
    best.expect("at least one trial").3
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
    use hyperpraw_hypergraph::HypergraphBuilder;

    fn mesh(n: usize) -> Hypergraph {
        mesh_hypergraph(&MeshConfig::new(n, 8))
    }

    #[test]
    fn evaluate_counts_cut_edges() {
        let mut b = HypergraphBuilder::new(4);
        b.add_hyperedge([0u32, 1]);
        b.add_hyperedge([2u32, 3]);
        b.add_hyperedge([1u32, 2]);
        let hg = b.build();
        let bis = Bisection::evaluate(&hg, vec![0, 0, 1, 1]);
        assert_eq!(bis.cut, 1.0);
        assert_eq!(bis.part_weights, [2.0, 2.0]);
        assert!(bis.is_balanced(2.0, 2.0));
        assert!(!bis.is_balanced(1.0, 3.0));
    }

    #[test]
    fn greedy_growing_reaches_the_target_fraction() {
        let hg = mesh(500);
        let bis = greedy_growing_bisection(&hg, 0.5, 3);
        let total = hg.total_vertex_weight();
        let frac0 = bis.part_weights[0] / total;
        assert!(
            (0.4..=0.6).contains(&frac0),
            "side-0 fraction {frac0} should be near 0.5"
        );
    }

    #[test]
    fn greedy_growing_beats_random_on_meshes() {
        let hg = mesh(1000);
        let greedy = greedy_growing_bisection(&hg, 0.5, 1);
        let random = random_bisection(&hg, 0.5, 1);
        assert!(
            greedy.cut < random.cut,
            "greedy cut {} should beat random cut {}",
            greedy.cut,
            random.cut
        );
    }

    #[test]
    fn best_initial_bisection_is_feasible_on_meshes() {
        let hg = mesh(800);
        let config = MultilevelConfig::default();
        let bis = best_initial_bisection(&hg, &config, 0.5);
        let total = hg.total_vertex_weight();
        let max = config.max_part_weight(total, 0.5);
        assert!(bis.is_balanced(max, max), "weights {:?}", bis.part_weights);
    }

    #[test]
    fn asymmetric_fractions_are_respected() {
        let hg = mesh(600);
        let bis = greedy_growing_bisection(&hg, 0.25, 9);
        let frac0 = bis.part_weights[0] / hg.total_vertex_weight();
        assert!(
            (0.18..=0.35).contains(&frac0),
            "side-0 fraction {frac0} should be near 0.25"
        );
    }

    #[test]
    fn disconnected_hypergraphs_are_still_covered() {
        // Two disjoint cliques; the grower must jump between components.
        let mut b = HypergraphBuilder::new(8);
        b.add_hyperedge([0u32, 1, 2, 3]);
        b.add_hyperedge([4u32, 5, 6, 7]);
        let hg = b.build();
        let bis = greedy_growing_bisection(&hg, 0.5, 5);
        assert_eq!(bis.assignment.len(), 8);
        let zero = bis.assignment.iter().filter(|&&p| p == 0).count();
        assert_eq!(zero, 4);
        // A perfect split keeps both cliques whole.
        assert_eq!(bis.cut, 0.0);
    }

    #[test]
    fn empty_hypergraph_yields_empty_bisection() {
        let hg = HypergraphBuilder::new(0).build();
        let bis = greedy_growing_bisection(&hg, 0.5, 0);
        assert!(bis.assignment.is_empty());
        assert_eq!(bis.cut, 0.0);
    }
}
