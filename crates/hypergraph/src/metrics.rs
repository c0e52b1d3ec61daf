//! Cut-based partition quality metrics.
//!
//! These are the "static" quality metrics reported in the paper's Figure 4A
//! (hyperedge cut) and Figure 4B (sum of external degrees, SOED). The
//! architecture-aware *partitioning communication cost* (Figure 4C) needs a
//! communication-cost matrix and therefore lives in `hyperpraw-core`.

use crate::{HyperedgeId, Hypergraph, Partition};

/// Returns the set of distinct partitions spanned by hyperedge `e`, written
/// into `scratch` (cleared first). The slice is sorted.
fn parts_of_edge(hg: &Hypergraph, part: &Partition, e: HyperedgeId, scratch: &mut Vec<u32>) {
    scratch.clear();
    for &v in hg.pins(e) {
        scratch.push(part.part_of(v));
    }
    scratch.sort_unstable();
    scratch.dedup();
}

/// The connectivity `λ(e)` of a hyperedge: the number of distinct partitions its
/// pins are assigned to. A hyperedge fully inside one partition has `λ = 1`.
pub fn edge_connectivity(hg: &Hypergraph, part: &Partition, e: HyperedgeId) -> usize {
    let mut scratch = Vec::new();
    parts_of_edge(hg, part, e, &mut scratch);
    scratch.len()
}

/// Hyperedge cut: the number of hyperedges that span more than one partition
/// (weighted by hyperedge weight; with unit weights this is a plain count).
///
/// This is the traditional VLSI-style quality metric, reported in the
/// paper's Figure 4A.
pub fn hyperedge_cut(hg: &Hypergraph, part: &Partition) -> u64 {
    weighted_hyperedge_cut(hg, part).round() as u64
}

/// Hyperedge cut with hyperedge weights taken into account.
pub fn weighted_hyperedge_cut(hg: &Hypergraph, part: &Partition) -> f64 {
    let mut scratch = Vec::new();
    let mut cut = 0.0;
    for e in hg.hyperedges() {
        parts_of_edge(hg, part, e, &mut scratch);
        if scratch.len() > 1 {
            cut += hg.edge_weight(e);
        }
    }
    cut
}

/// Sum of external degrees (SOED): `Σ_e λ(e)` over cut hyperedges, i.e. each
/// cut hyperedge contributes the number of partitions it touches.
///
/// Equivalently (per the paper's definition) it is, over all partitions, the
/// number of hyperedges incident on the partition but not fully contained in
/// it. High SOED indicates hyperedges being scattered across many
/// partitions, hence more communication volume. Reported in Figure 4B.
pub fn soed(hg: &Hypergraph, part: &Partition) -> u64 {
    weighted_soed(hg, part).round() as u64
}

/// SOED with hyperedge weights taken into account.
pub fn weighted_soed(hg: &Hypergraph, part: &Partition) -> f64 {
    let mut scratch = Vec::new();
    let mut total = 0.0;
    for e in hg.hyperedges() {
        parts_of_edge(hg, part, e, &mut scratch);
        if scratch.len() > 1 {
            total += scratch.len() as f64 * hg.edge_weight(e);
        }
    }
    total
}

/// The connectivity-minus-one metric `Σ_e (λ(e) − 1)·w(e)`, the metric minimised
/// by Zoltan/PaToH-style partitioners; it equals the total communication
/// volume of a gather/scatter per hyperedge. Not reported in the paper's
/// figures but used as an internal objective by the multilevel baseline.
pub fn connectivity_minus_one(hg: &Hypergraph, part: &Partition) -> f64 {
    let mut scratch = Vec::new();
    let mut total = 0.0;
    for e in hg.hyperedges() {
        parts_of_edge(hg, part, e, &mut scratch);
        total += (scratch.len() as f64 - 1.0) * hg.edge_weight(e);
    }
    total
}

/// Number of vertices that have at least one neighbour (via a shared
/// hyperedge) in a different partition. These are the vertices that must
/// send or receive remote data.
pub fn boundary_vertices(hg: &Hypergraph, part: &Partition) -> usize {
    let mut boundary = vec![false; hg.num_vertices()];
    let mut scratch = Vec::new();
    for e in hg.hyperedges() {
        parts_of_edge(hg, part, e, &mut scratch);
        if scratch.len() > 1 {
            for &v in hg.pins(e) {
                boundary[v as usize] = true;
            }
        }
    }
    boundary.iter().filter(|&&b| b).count()
}

/// A bundle of the cut-based metrics for one `(hypergraph, partition)` pair,
/// convenient for the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutMetrics {
    /// Hyperedge cut (unweighted count).
    pub hyperedge_cut: u64,
    /// Sum of external degrees.
    pub soed: u64,
    /// The connectivity-minus-one metric (weighted).
    pub connectivity_minus_one: f64,
    /// Number of boundary vertices.
    pub boundary_vertices: usize,
    /// Workload imbalance `max W(k) / avg W(k)`.
    pub imbalance: f64,
}

/// Computes all cut-based metrics in a single pass over the hyperedges.
pub fn cut_metrics(hg: &Hypergraph, part: &Partition) -> CutMetrics {
    let mut scratch = Vec::new();
    let mut cut = 0u64;
    let mut soed_total = 0u64;
    let mut conn = 0.0f64;
    let mut boundary = vec![false; hg.num_vertices()];
    for e in hg.hyperedges() {
        parts_of_edge(hg, part, e, &mut scratch);
        let lambda = scratch.len();
        conn += (lambda as f64 - 1.0) * hg.edge_weight(e);
        if lambda > 1 {
            cut += 1;
            soed_total += lambda as u64;
            for &v in hg.pins(e) {
                boundary[v as usize] = true;
            }
        }
    }
    CutMetrics {
        hyperedge_cut: cut,
        soed: soed_total,
        connectivity_minus_one: conn,
        boundary_vertices: boundary.iter().filter(|&&b| b).count(),
        imbalance: part.imbalance(hg).unwrap_or(f64::NAN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    /// 6 vertices, 4 hyperedges:
    /// e0 = {0,1,2}, e1 = {2,3}, e2 = {3,4,5}, e3 = {0,5}
    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new(6);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3]);
        b.add_hyperedge([3u32, 4, 5]);
        b.add_hyperedge([0u32, 5]);
        b.build()
    }

    #[test]
    fn all_in_one_partition_has_zero_cut() {
        let hg = sample();
        let p = Partition::all_in_one(6, 4);
        assert_eq!(hyperedge_cut(&hg, &p), 0);
        assert_eq!(soed(&hg, &p), 0);
        assert_eq!(connectivity_minus_one(&hg, &p), 0.0);
        assert_eq!(boundary_vertices(&hg, &p), 0);
    }

    #[test]
    fn two_way_split_counts_cut_edges() {
        let hg = sample();
        // {0,1,2} vs {3,4,5}: e1 and e3 are cut, e0 and e2 are internal.
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        assert_eq!(hyperedge_cut(&hg, &p), 2);
        assert_eq!(soed(&hg, &p), 4); // each cut edge spans 2 parts
        assert_eq!(connectivity_minus_one(&hg, &p), 2.0);
        assert_eq!(boundary_vertices(&hg, &p), 4); // vertices 0,2,3,5
    }

    #[test]
    fn scattered_edge_increases_soed_more_than_cut() {
        let hg = sample();
        // Spread e0's pins over 3 partitions.
        let p = Partition::from_assignment(vec![0, 1, 2, 2, 0, 1], 3).unwrap();
        let cut = hyperedge_cut(&hg, &p);
        let soed_v = soed(&hg, &p);
        assert!(soed_v > cut, "SOED {soed_v} must exceed cut {cut}");
        assert_eq!(edge_connectivity(&hg, &p, 0), 3);
    }

    #[test]
    fn hyperedge_weights_scale_weighted_metrics() {
        let mut b = HypergraphBuilder::new(4);
        b.add_weighted_hyperedge([0u32, 1], 3.0);
        b.add_weighted_hyperedge([2u32, 3], 1.0);
        let hg = b.build();
        let p = Partition::from_assignment(vec![0, 1, 0, 0], 2).unwrap();
        assert_eq!(weighted_hyperedge_cut(&hg, &p), 3.0);
        assert_eq!(weighted_soed(&hg, &p), 6.0);
        assert_eq!(hyperedge_cut(&hg, &p), 3); // rounded weighted value
    }

    #[test]
    fn cut_metrics_bundle_matches_individual_functions() {
        let hg = sample();
        let p = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let m = cut_metrics(&hg, &p);
        assert_eq!(m.hyperedge_cut, hyperedge_cut(&hg, &p));
        assert_eq!(m.soed, soed(&hg, &p));
        assert_eq!(m.connectivity_minus_one, connectivity_minus_one(&hg, &p));
        assert_eq!(m.boundary_vertices, boundary_vertices(&hg, &p));
        assert!((m.imbalance - p.imbalance(&hg).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn metrics_are_invariant_under_part_relabelling() {
        let hg = sample();
        let p1 = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let p2 = Partition::from_assignment(vec![2, 2, 0, 0, 1, 1], 3).unwrap();
        assert_eq!(hyperedge_cut(&hg, &p1), hyperedge_cut(&hg, &p2));
        assert_eq!(soed(&hg, &p1), soed(&hg, &p2));
        assert_eq!(
            connectivity_minus_one(&hg, &p1),
            connectivity_minus_one(&hg, &p2)
        );
    }

    #[test]
    fn soed_equals_sum_of_connectivities_over_cut_edges() {
        let hg = sample();
        let p = Partition::round_robin(6, 3);
        let manual: usize = hg
            .hyperedges()
            .map(|e| edge_connectivity(&hg, &p, e))
            .filter(|&l| l > 1)
            .sum();
        assert_eq!(soed(&hg, &p), manual as u64);
    }
}
