//! Architecture-aware partition quality metrics.
//!
//! The cut-based metrics (hyperedge cut, SOED) live in
//! [`hyperpraw_hypergraph::metrics`]; this module adds the paper's
//! *partitioning communication cost* (equation 5), which combines the cut
//! structure with the physical cost of communication between the compute
//! units hosting each partition, and a [`QualityReport`] bundling everything
//! reported in Figure 4.
//!
//! Equation 5 sums, over every vertex `v`, the cost `T_P(v)(v) =
//! Σ_j X_j(v)·C(P(v), j)` of hosting `v` where it lives. Every evaluation
//! here regroups that sum by part pair: it first counts the exact `u64`
//! ordered part-pair matrix `M[a][b]` — the number of pairs `(v, u)` with
//! `u` a distinct neighbour of `v`, `P(v) = a` and `P(u) = b` — and then
//! returns `Σ_a Σ_b M[a][b]·C(a, b)` through one row-major dot over the
//! `p²` entries. Because `M` holds exact integers and the dot is shared,
//! any two evaluations of the same partition agree bit for bit, however
//! `M` was obtained: counted from scratch by
//! [`partitioning_communication_cost`] or
//! [`partitioning_communication_cost_with`], or kept by the engine's
//! [`crate::engine::AdjProvider`] and shifted by each mover's own part
//! counts.

use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{
    metrics as cut_metrics, AssignmentRef, Hypergraph, NeighborAdjacency, Partition, VertexId,
};
use hyperpraw_topology::CostMatrix;

/// The partitioning communication cost `PC(P)` (equation 5): the sum of
/// `T_i(v)` over every vertex `v`, evaluated at the partition `i` the vertex
/// is assigned to. This is the metric monitored during the refinement phase
/// and reported in Figure 4C. Evaluated through the part-pair counts of the
/// [module docs](self), with neighbourhoods deduplicated by traversal.
pub fn partitioning_communication_cost(
    hg: &Hypergraph,
    partition: &Partition,
    cost: &CostMatrix,
) -> f64 {
    check_shapes(hg, partition, cost);
    PairCounts::build(hg, None, partition).dot(cost)
}

/// [`partitioning_communication_cost`] answered through a precomputed
/// [`NeighborAdjacency`]: every vertex's neighbours come from a flat scan
/// of its deduplicated list (hubs fall back to epoch traversal) instead of
/// re-deduplicating the neighbourhood per vertex. Both paths count the same
/// exact part-pair matrix, so the result is **bit-identical** to the
/// traversal-based evaluation — this is what lets the refinement stopping
/// rule run on the adjacency without perturbing the engine-equivalence
/// guarantees.
pub fn partitioning_communication_cost_with(
    hg: &Hypergraph,
    adj: &NeighborAdjacency,
    partition: &Partition,
    cost: &CostMatrix,
) -> f64 {
    check_shapes(hg, partition, cost);
    PairCounts::build(hg, Some(adj), partition).dot(cost)
}

/// Asserts that `partition` covers `hg` and matches `cost`'s unit count.
pub(crate) fn check_shapes(hg: &Hypergraph, partition: &Partition, cost: &CostMatrix) {
    assert_eq!(
        partition.num_parts() as usize,
        cost.num_units(),
        "cost matrix size must match the partition count"
    );
    assert_eq!(
        partition.num_vertices(),
        hg.num_vertices(),
        "partition must cover the hypergraph"
    );
}

/// An assignment together with its exact part-pair counts `M` — the
/// comm-cost state a caller keeps between engine runs.
///
/// A caller that keeps a partition resident while its hypergraph changes
/// (the dynamic layer) holds on to this state across runs instead of
/// recounting it: before a mutation it removes the rows of the vertices
/// whose neighbourhood is about to change, after the mutation it adds
/// them back. For a warm run it splits the state
/// ([`CommCostState::into_parts`]): the assignment goes to the engine,
/// the counts to [`crate::engine::AdjProvider::resume`], and
/// [`crate::engine::AdjProvider::into_comm_state`] reassembles them for
/// the assignment the run returns. The row of `v` is the pairs `(v, u)`
/// over the distinct neighbours `u` of `v`. Rows of vertices outside the
/// touched set must not change, so the set must be closed: every vertex
/// whose neighbourhood changes belongs to it (for a changed hyperedge,
/// all its pins before and after the change). Because `M` holds exact
/// integers, [`CommCostState::comm_cost`] is then bit-identical to a
/// fresh [`partitioning_communication_cost`].
#[derive(Clone, Debug, PartialEq)]
pub struct CommCostState {
    pub(crate) partition: Partition,
    pub(crate) counts: PairCounts,
}

impl Default for CommCostState {
    /// The state of an empty hypergraph on one part.
    fn default() -> Self {
        Self {
            partition: Partition::all_in_one(0, 1),
            counts: PairCounts {
                num_parts: 1,
                counts: vec![0],
            },
        }
    }
}

impl CommCostState {
    /// Counts `M` of `partition` over `hg` from scratch, by traversal.
    pub fn new(hg: &Hypergraph, partition: Partition) -> Self {
        assert_eq!(
            partition.num_vertices(),
            hg.num_vertices(),
            "partition must cover the hypergraph"
        );
        let counts = PairCounts::build(hg, None, &partition);
        Self { partition, counts }
    }

    /// The assignment `M` describes.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The assignment and its part-pair counts, taken apart for a warm
    /// run.
    pub fn into_parts(self) -> (Partition, PairCounts) {
        (self.partition, self.counts)
    }

    /// The partitioning communication cost of the assignment under
    /// `cost`: one O(p²) dot over `M`.
    pub fn comm_cost(&self, cost: &CostMatrix) -> f64 {
        assert_eq!(
            self.partition.num_parts() as usize,
            cost.num_units(),
            "cost matrix size must match the partition count"
        );
        self.counts.dot(cost)
    }

    /// Removes the rows of `vertices` — as their neighbourhoods are in
    /// `hg` — from `M`.
    pub fn remove_rows(
        &mut self,
        hg: &Hypergraph,
        vertices: &[VertexId],
        scratch: &mut NeighborScratch,
    ) {
        for &v in vertices {
            self.counts
                .shift_row(hg, &self.partition, v, scratch, false);
        }
    }

    /// Adds the rows of `vertices` — as their neighbourhoods are in `hg` —
    /// to `M`.
    pub fn add_rows(
        &mut self,
        hg: &Hypergraph,
        vertices: &[VertexId],
        scratch: &mut NeighborScratch,
    ) {
        for &v in vertices {
            self.counts.shift_row(hg, &self.partition, v, scratch, true);
        }
    }

    /// Appends vertices up to `num_vertices`, each seeded on part
    /// `v mod p` like a cold start's round robin. Their rows, and the
    /// pairs their neighbours gain, enter `M` through
    /// [`CommCostState::add_rows`].
    pub fn extend(&mut self, num_vertices: usize) {
        let n = self.partition.num_vertices();
        if num_vertices > n {
            let p = self.partition.num_parts();
            let mut assignment =
                std::mem::replace(&mut self.partition, Partition::all_in_one(0, p))
                    .into_assignment();
            assignment.extend((n..num_vertices).map(|v| v as u32 % p));
            self.partition = Partition::from_assignment(assignment, p)
                .expect("round-robin seeds stay within the part count");
        }
    }
}

/// The exact ordered part-pair neighbour counts `M[a][b]` of the
/// [module docs](self), row-major over `p × p`.
#[derive(Clone, Debug, PartialEq)]
pub struct PairCounts {
    num_parts: usize,
    counts: Vec<u64>,
}

impl PairCounts {
    /// `M` without any pair, over `num_parts` parts.
    pub(crate) fn zeroed(num_parts: usize) -> Self {
        Self {
            num_parts,
            counts: vec![0; num_parts * num_parts],
        }
    }

    /// Counts `M` from scratch for `partition`: each vertex's distinct
    /// neighbours come from a flat scan of `adj`'s list when it has one,
    /// by epoch traversal (its scratch created on first use) for hubs or
    /// without an adjacency.
    pub(crate) fn build<A: AssignmentRef>(
        hg: &Hypergraph,
        adj: Option<&NeighborAdjacency>,
        partition: &A,
    ) -> Self {
        let p = partition.num_parts() as usize;
        let mut counts = vec![0u64; p * p];
        let mut scratch = None;
        for v in hg.vertices() {
            let row = partition.part_of(v) as usize * p;
            let neighbors = match adj.and_then(|adj| adj.neighbors(v)) {
                Some(list) => list,
                None => scratch
                    .get_or_insert_with(|| NeighborScratch::new(hg.num_vertices()))
                    .neighbors(hg, v),
            };
            for &u in neighbors {
                counts[row + partition.part_of(u) as usize] += 1;
            }
        }
        Self {
            num_parts: p,
            counts,
        }
    }

    /// Adds (or, with `add == false`, removes) the row of `v`: one pair
    /// `(v, u)` per distinct neighbour `u` of `v` in `hg`.
    fn shift_row(
        &mut self,
        hg: &Hypergraph,
        partition: &Partition,
        v: VertexId,
        scratch: &mut NeighborScratch,
        add: bool,
    ) {
        let row = partition.part_of(v) as usize * self.num_parts;
        for &u in scratch.neighbors(hg, v) {
            let count = &mut self.counts[row + partition.part_of(u) as usize];
            if add {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
    }

    /// Adds the row of a vertex on `part` whose distinct neighbours fall
    /// into the parts as `x` counts them — its `X(v)`.
    pub(crate) fn add_counted(&mut self, part: u32, x: impl IntoIterator<Item = u32>) {
        let row = part as usize * self.num_parts;
        for (m, c) in self.counts[row..row + self.num_parts].iter_mut().zip(x) {
            *m += u64::from(c);
        }
    }

    /// Moves a vertex whose distinct neighbours fall into the parts as `x`
    /// counts them — its `X(v)` — from part `from` to part `to`: each
    /// neighbour on part `c` shifts the pair `(v, u)` from row `from` to
    /// row `to` and the pair `(u, v)` from column `from` to column `to`.
    /// `X(v)` does not change when `v` itself moves.
    pub(crate) fn move_counted(&mut self, from: u32, to: u32, x: impl IntoIterator<Item = u32>) {
        let p = self.num_parts;
        let (from, to) = (from as usize, to as usize);
        for (c, x) in x.into_iter().enumerate() {
            let x = u64::from(x);
            self.counts[from * p + c] -= x;
            self.counts[c * p + from] -= x;
            self.counts[to * p + c] += x;
            self.counts[c * p + to] += x;
        }
    }

    /// The part count `p`.
    pub(crate) fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Heap bytes of the `p²` counters.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u64>()
    }

    /// `Σ_a Σ_b M[a][b]·C(a, b)` in row-major order; zero counts are
    /// skipped.
    pub(crate) fn dot(&self, cost: &CostMatrix) -> f64 {
        let p = self.num_parts;
        let mut total = 0.0;
        for (a, row) in self.counts.chunks_exact(p.max(1)).enumerate() {
            for (&m, &c) in row.iter().zip(cost.row(a)) {
                if m > 0 {
                    total += m as f64 * c;
                }
            }
        }
        total
    }
}

/// All quality metrics the paper reports for one partitioning (Figure 4
/// A/B/C plus the imbalance the tolerance is checked against).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualityReport {
    /// Hyperedge cut (Figure 4A).
    pub hyperedge_cut: u64,
    /// Sum of external degrees (Figure 4B).
    pub soed: u64,
    /// Partitioning communication cost (Figure 4C).
    pub comm_cost: f64,
    /// Total imbalance `max W(k) / avg W(k)`.
    pub imbalance: f64,
}

impl QualityReport {
    /// Computes the full report.
    pub fn compute(hg: &Hypergraph, partition: &Partition, cost: &CostMatrix) -> Self {
        Self {
            hyperedge_cut: cut_metrics::hyperedge_cut(hg, partition),
            soed: cut_metrics::soed(hg, partition),
            comm_cost: partitioning_communication_cost(hg, partition, cost),
            imbalance: partition.imbalance(hg).unwrap_or(f64::NAN),
        }
    }

    /// CSV header matching [`QualityReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "hyperedge_cut,soed,comm_cost,imbalance"
    }

    /// Comma-separated row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{:.4},{:.4}",
            self.hyperedge_cut, self.soed, self.comm_cost, self.imbalance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::HypergraphBuilder;
    use hyperpraw_topology::{BandwidthMatrix, MachineModel};

    /// Two hyperedges: {0,1,2} and {2,3}.
    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3]);
        b.build()
    }

    #[test]
    fn uncut_partition_has_zero_comm_cost() {
        let hg = sample();
        let part = Partition::all_in_one(4, 2);
        let cost = CostMatrix::uniform(2);
        assert_eq!(partitioning_communication_cost(&hg, &part, &cost), 0.0);
    }

    #[test]
    fn uniform_cost_counts_remote_neighbour_pairs() {
        let hg = sample();
        // {0,1} vs {2,3}: vertex 0 has remote neighbour {2}; 1 has {2};
        // 2 has {0,1}; 3 has none (3's only neighbour 2 is with it). Wait:
        // pins of edge {2,3} are split, so 3's neighbour 2 is remote.
        let part = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let cost = CostMatrix::uniform(2);
        // Remote neighbour counts: v0->1, v1->1, v2->2, v3->0 (2 is local to 3).
        // Actually 2 and 3 are both in part 1, so v3 has no remote neighbours
        // and v2 has remote {0,1}. Total = 1 + 1 + 2 + 0 = 4.
        let pc = partitioning_communication_cost(&hg, &part, &cost);
        assert_eq!(pc, 4.0);
    }

    #[test]
    fn comm_cost_scales_with_link_cost() {
        let hg = sample();
        let part = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let cheap = CostMatrix::from_raw(2, vec![0.0, 1.0, 1.0, 0.0]);
        let pricey = CostMatrix::from_raw(2, vec![0.0, 2.0, 2.0, 0.0]);
        let a = partitioning_communication_cost(&hg, &part, &cheap);
        let b = partitioning_communication_cost(&hg, &part, &pricey);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn placing_cut_on_fast_links_is_cheaper() {
        let hg = sample();
        let machine = MachineModel::archer_like(48);
        let cost = CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.0, 1));
        // Same logical split, but once across a socket (fast) and once across
        // blades (slow).
        let fast = Partition::from_fn(4, 48, |v| if v < 2 { 0 } else { 1 });
        let slow = Partition::from_fn(4, 48, |v| if v < 2 { 0 } else { 40 });
        let pc_fast = partitioning_communication_cost(&hg, &fast, &cost);
        let pc_slow = partitioning_communication_cost(&hg, &slow, &cost);
        assert!(pc_fast < pc_slow);
    }

    #[test]
    fn quality_report_is_consistent_with_individual_metrics() {
        let hg = sample();
        let part = Partition::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        let cost = CostMatrix::uniform(2);
        let report = QualityReport::compute(&hg, &part, &cost);
        assert_eq!(report.hyperedge_cut, cut_metrics::hyperedge_cut(&hg, &part));
        assert_eq!(report.soed, cut_metrics::soed(&hg, &part));
        assert_eq!(
            report.comm_cost,
            partitioning_communication_cost(&hg, &part, &cost)
        );
        assert_eq!(
            report.csv_row().split(',').count(),
            QualityReport::csv_header().split(',').count()
        );
    }

    #[test]
    #[should_panic(expected = "cost matrix size must match")]
    fn mismatched_cost_matrix_is_rejected() {
        let hg = sample();
        let part = Partition::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        let cost = CostMatrix::uniform(3);
        partitioning_communication_cost(&hg, &part, &cost);
    }
}
