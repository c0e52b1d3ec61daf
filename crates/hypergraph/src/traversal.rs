//! Neighbourhood traversal helpers used by streaming partitioners and the
//! synthetic benchmark.
//!
//! Two vertices are *neighbours* when they share at least one hyperedge.
//! Streaming partitioners need, for a vertex `v`, the multiset of partitions
//! its neighbours currently live in (`X_j(v)` in the paper); computing this
//! efficiently and without per-vertex allocation is the job of
//! [`NeighborScratch`].

use crate::{AssignmentRef, Hypergraph, VertexId};

/// Reusable scratch space for neighbourhood queries.
///
/// The scratch keeps a "visited" epoch per vertex so repeated queries do not
/// need to clear a `|V|`-sized array each time.
#[derive(Clone, Debug)]
pub struct NeighborScratch {
    epoch: u32,
    seen: Vec<u32>,
    buffer: Vec<VertexId>,
}

impl NeighborScratch {
    /// Creates scratch space for a hypergraph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            epoch: 0,
            seen: vec![0; num_vertices],
            buffer: Vec::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap-around: reset all marks.
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Collects the distinct neighbours of `v` (excluding `v` itself) into an
    /// internal buffer and returns it as a slice. The result is unordered.
    pub fn neighbors<'a>(&'a mut self, hg: &Hypergraph, v: VertexId) -> &'a [VertexId] {
        let epoch = self.next_epoch();
        self.buffer.clear();
        self.seen[v as usize] = epoch;
        for &e in hg.incident_edges(v) {
            for &u in hg.pins(e) {
                if self.seen[u as usize] != epoch {
                    self.seen[u as usize] = epoch;
                    self.buffer.push(u);
                }
            }
        }
        &self.buffer
    }

    /// Counts, for every partition `j`, the number of *distinct* neighbours of
    /// `v` currently assigned to `j` — the paper's `X_j(v)`. The counts are
    /// written into `counts` (resized/cleared to `partition.num_parts()`).
    ///
    /// Generic over [`AssignmentRef`] so the same traversal serves both a
    /// plain [`crate::Partition`] and a live atomic assignment view.
    pub fn neighbor_partition_counts<A: AssignmentRef>(
        &mut self,
        hg: &Hypergraph,
        partition: &A,
        v: VertexId,
        counts: &mut Vec<u32>,
    ) {
        counts.clear();
        counts.resize(partition.num_parts() as usize, 0);
        let epoch = self.next_epoch();
        self.seen[v as usize] = epoch;
        for &e in hg.incident_edges(v) {
            for &u in hg.pins(e) {
                if self.seen[u as usize] != epoch {
                    self.seen[u as usize] = epoch;
                    counts[partition.part_of(u) as usize] += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HypergraphBuilder, Partition};

    /// e0 = {0,1,2}, e1 = {2,3}, isolated vertex 4, e2 = {5,6}
    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new(7);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3]);
        b.add_hyperedge([5u32, 6]);
        b.build()
    }

    #[test]
    fn neighbors_are_distinct_and_exclude_self() {
        let hg = sample();
        let mut scratch = NeighborScratch::new(hg.num_vertices());
        let mut n: Vec<_> = scratch.neighbors(&hg, 2).to_vec();
        n.sort_unstable();
        assert_eq!(n, vec![0, 1, 3]);
        let n0: Vec<_> = scratch.neighbors(&hg, 4).to_vec();
        assert!(n0.is_empty());
    }

    #[test]
    fn repeated_queries_reuse_scratch_correctly() {
        let hg = sample();
        let mut scratch = NeighborScratch::new(hg.num_vertices());
        for _ in 0..10 {
            let mut a: Vec<_> = scratch.neighbors(&hg, 0).to_vec();
            a.sort_unstable();
            assert_eq!(a, vec![1, 2]);
            let mut b: Vec<_> = scratch.neighbors(&hg, 3).to_vec();
            b.sort_unstable();
            assert_eq!(b, vec![2]);
        }
    }

    #[test]
    fn neighbor_partition_counts_match_manual_count() {
        let hg = sample();
        let part = Partition::from_assignment(vec![0, 1, 1, 0, 0, 1, 0], 2).unwrap();
        let mut scratch = NeighborScratch::new(hg.num_vertices());
        let mut counts = Vec::new();
        scratch.neighbor_partition_counts(&hg, &part, 2, &mut counts);
        // Neighbours of 2 are {0,1,3}: parts {0,1,0} -> part0: 2, part1: 1.
        assert_eq!(counts, vec![2, 1]);
        // Vertex in a pair edge.
        scratch.neighbor_partition_counts(&hg, &part, 5, &mut counts);
        assert_eq!(counts, vec![1, 0]);
        // Isolated vertex has no neighbours anywhere.
        scratch.neighbor_partition_counts(&hg, &part, 4, &mut counts);
        assert_eq!(counts, vec![0, 0]);
    }
}
