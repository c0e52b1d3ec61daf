//! Precomputed deduplicated neighbour adjacency (CSR over distinct
//! neighbours).
//!
//! Restreaming partitioners ask the same question for every vertex on every
//! pass: *which partitions do my distinct neighbours live in?* Answering it
//! by traversing all pins of all incident hyperedges through an epoch-marked
//! [`NeighborScratch`] costs `O(Σ_{e∋v}|e|)` per visit — work that is
//! repeated identically on every one of the `N` restreaming passes even
//! though the neighbour sets never change. [`NeighborAdjacency`] pays that
//! traversal exactly once, storing each vertex's distinct neighbours
//! (self excluded) as a flat CSR slice so every later query is a single
//! cache-linear scan with no epoch array and no nested pin loop.
//!
//! Dense hypergraphs can make the full adjacency quadratic (a single
//! hyperedge of cardinality `c` alone contributes `c·(c−1)` entries), so the
//! structure is **budget-aware and hybrid**: an [`AdjacencyBudget`] caps the
//! flat-list bytes, vertices whose distinct degree fits get flat lists, and
//! *hub* vertices above the automatically chosen degree cutover carry no
//! list. A hub's partition counts come from an epoch traversal here
//! ([`NeighborAdjacency::neighbor_partition_counts`]); the restreaming
//! engine's provider instead keeps exact part counts per hub (`4·p` bytes
//! each, reported by its own memory accounting) and traverses a hub only
//! once per run and when it moves. Counts produced by any path are exact
//! integers, so results are bit-identical to
//! [`NeighborScratch::neighbor_partition_counts`] regardless of which side
//! of the cutover a vertex lands on.
//!
//! Construction runs in parallel across vertex ranges (two passes: distinct
//! degrees, then list filling into disjoint output slices), is deterministic
//! for any thread count, and never allocates per vertex.
//!
use std::thread;

use crate::partition::AssignmentRef;
use crate::traversal::NeighborScratch;
use crate::{Hypergraph, VertexId};

/// Memory policy for the flat neighbour lists of a [`NeighborAdjacency`].
///
/// The budget covers the neighbour-list entries (`4` bytes each); the fixed
/// per-vertex bookkeeping (offsets and distinct degrees, `~12` bytes per
/// vertex) is always paid, as it is what makes the hybrid fallback and
/// [`NeighborAdjacency::distinct_degree`] O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjacencyBudget {
    /// Store every vertex's distinct neighbours, whatever the cost. Only
    /// sensible when the instance is known to be sparse.
    Unbounded,
    /// Cap the flat lists at this many heap bytes; the degree cutover is
    /// chosen as the largest value whose vertices collectively fit.
    MaxBytes(usize),
    /// Force the degree cutover directly: vertices with more distinct
    /// neighbours than this are hubs. Mostly useful for tests exercising
    /// the hybrid path deterministically.
    DegreeCutoff(usize),
    /// Derive the byte cap from the hypergraph's own size: the lists may
    /// use up to [`AUTO_ENTRIES_PER_PIN`] entries per pin (so adjacency
    /// memory stays linear in the input even when hyperedge overlap would
    /// make the full adjacency quadratic), with a small floor so tiny
    /// instances are always fully indexed.
    Auto,
}

/// Flat-list entries allowed per pin under [`AdjacencyBudget::Auto`]. The
/// CSR hypergraph itself stores two `u32` per pin; allowing eight entries
/// per pin keeps the adjacency within ~4× of the input's own footprint.
pub const AUTO_ENTRIES_PER_PIN: usize = 8;

/// Entry floor for [`AdjacencyBudget::Auto`]: instances this small are
/// always fully indexed regardless of their pin count.
pub const AUTO_MIN_ENTRIES: usize = 1 << 16;

impl AdjacencyBudget {
    /// The neighbour-list entry cap this budget implies for `hg`, or
    /// `None` when the budget is expressed as a degree cutover instead.
    fn entry_cap(&self, hg: &Hypergraph) -> Option<usize> {
        match *self {
            AdjacencyBudget::Unbounded => Some(usize::MAX),
            AdjacencyBudget::MaxBytes(bytes) => Some(bytes / std::mem::size_of::<VertexId>()),
            AdjacencyBudget::DegreeCutoff(_) => None,
            AdjacencyBudget::Auto => {
                Some((hg.num_pins() * AUTO_ENTRIES_PER_PIN).max(AUTO_MIN_ENTRIES))
            }
        }
    }
}

/// The precomputed distinct-neighbour CSR, with hub fallback.
///
/// For every non-hub vertex `v`, [`NeighborAdjacency::neighbors`] returns
/// the slice of its distinct neighbours (self excluded); hub vertices —
/// those whose distinct degree exceeds [`NeighborAdjacency::cutoff`] —
/// carry no list; [`NeighborAdjacency::neighbor_partition_counts`] answers
/// them through an epoch traversal of the hypergraph, and consumers that
/// query hubs repeatedly keep their part counts instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborAdjacency {
    /// CSR offsets over `neighbors`; hub vertices have an empty range.
    offsets: Vec<usize>,
    /// Concatenated distinct-neighbour lists of the non-hub vertices, in
    /// the same (first-encounter) order the epoch traversal produces.
    neighbors: Vec<VertexId>,
    /// Exact distinct degree of every vertex, hubs included.
    distinct_degrees: Vec<u32>,
    /// Distinct-degree cutover: `distinct_degree(v) > cutoff` makes a hub.
    cutoff: usize,
    /// Number of hub vertices.
    num_hubs: usize,
}

/// Number of worker threads used to build the adjacency, bounded by the
/// caller's cap.
fn build_threads(num_vertices: usize, max_threads: usize) -> usize {
    let available = thread::available_parallelism().map_or(1, |n| n.get());
    // Below ~16k vertices the spawn overhead beats the parallel win.
    available
        .min(8)
        .min(num_vertices / 16_384)
        .min(max_threads)
        .max(1)
}

/// Splits `0..n` into `threads` contiguous ranges.
fn vertex_ranges(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let chunk = n.div_ceil(threads.max(1)).max(1);
    (0..n)
        .step_by(chunk)
        .map(|start| (start, (start + chunk).min(n)))
        .collect()
}

impl NeighborAdjacency {
    /// Builds the adjacency for `hg` under `budget`, in parallel across
    /// vertex ranges (up to 8 workers, fewer on small instances). The
    /// result is deterministic for any thread count. Callers that must
    /// bound their CPU footprint — core-pinned HPC allocations, nominally
    /// sequential drivers — use [`NeighborAdjacency::build_with_threads`].
    pub fn build(hg: &Hypergraph, budget: AdjacencyBudget) -> Self {
        Self::build_with_threads(hg, budget, usize::MAX)
    }

    /// [`NeighborAdjacency::build`] with the worker count capped at
    /// `max_threads` (`1` forces a fully sequential build). The built
    /// structure is identical whatever the cap.
    pub fn build_with_threads(
        hg: &Hypergraph,
        budget: AdjacencyBudget,
        max_threads: usize,
    ) -> Self {
        let n = hg.num_vertices();
        let threads = build_threads(n, max_threads);
        let ranges = vertex_ranges(n, threads);

        // Pass 1: exact distinct degree of every vertex.
        let mut distinct_degrees = vec![0u32; n];
        if n > 0 {
            thread::scope(|scope| {
                let mut rest = distinct_degrees.as_mut_slice();
                for &(start, end) in &ranges {
                    let (chunk, tail) = rest.split_at_mut(end - start);
                    rest = tail;
                    scope.spawn(move || {
                        let mut scratch = NeighborScratch::new(hg.num_vertices());
                        for (slot, v) in chunk.iter_mut().zip(start..end) {
                            *slot = scratch.neighbors(hg, v as VertexId).len() as u32;
                        }
                    });
                }
            });
        }

        // Choose the degree cutover: the largest distinct degree whose
        // vertices collectively fit the entry budget.
        let cutoff = match budget.entry_cap(hg) {
            None => match budget {
                AdjacencyBudget::DegreeCutoff(c) => c,
                _ => unreachable!("entry_cap is None only for DegreeCutoff"),
            },
            Some(cap) => cutoff_for_cap(&distinct_degrees, cap),
        };

        // CSR offsets: hubs contribute empty ranges.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for &dd in &distinct_degrees {
            if (dd as usize) <= cutoff {
                total += dd as usize;
            }
            offsets.push(total);
        }
        let num_hubs = distinct_degrees
            .iter()
            .filter(|&&dd| dd as usize > cutoff)
            .count();

        // Pass 2: fill the flat lists, each worker writing its range's
        // disjoint output slice.
        let mut neighbors = vec![0 as VertexId; total];
        if total > 0 {
            thread::scope(|scope| {
                let offsets = &offsets;
                let mut rest = neighbors.as_mut_slice();
                let mut consumed = 0usize;
                for &(start, end) in &ranges {
                    let span = offsets[end] - offsets[start];
                    let (chunk, tail) = rest.split_at_mut(span);
                    rest = tail;
                    debug_assert_eq!(consumed, offsets[start]);
                    consumed += span;
                    scope.spawn(move || {
                        let mut scratch = NeighborScratch::new(hg.num_vertices());
                        let base = offsets[start];
                        for v in start..end {
                            let lo = offsets[v] - base;
                            let hi = offsets[v + 1] - base;
                            if lo == hi {
                                continue; // hub or isolated vertex
                            }
                            let found = scratch.neighbors(hg, v as VertexId);
                            chunk[lo..hi].copy_from_slice(found);
                        }
                    });
                }
            });
        }

        Self {
            offsets,
            neighbors,
            distinct_degrees,
            cutoff,
            num_hubs,
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.distinct_degrees.len()
    }

    /// The distinct-degree cutover in effect: vertices above it are hubs.
    pub fn cutoff(&self) -> usize {
        self.cutoff
    }

    /// Number of hub vertices (answered through the traversal fallback).
    pub fn num_hubs(&self) -> usize {
        self.num_hubs
    }

    /// Whether `v` is a hub (no flat list; queries fall back to traversal).
    pub fn is_hub(&self, v: VertexId) -> bool {
        self.distinct_degrees[v as usize] as usize > self.cutoff
    }

    /// Exact number of distinct neighbours of `v` (self excluded), O(1)
    /// for every vertex including hubs.
    pub fn distinct_degree(&self, v: VertexId) -> usize {
        self.distinct_degrees[v as usize] as usize
    }

    /// The distinct neighbours of `v`, or `None` when `v` is a hub. An
    /// isolated vertex yields `Some(&[])`.
    pub fn neighbors(&self, v: VertexId) -> Option<&[VertexId]> {
        let i = v as usize;
        if self.is_hub(v) {
            return None;
        }
        Some(&self.neighbors[self.offsets[i]..self.offsets[i + 1]])
    }

    /// Total flat-list entries stored.
    pub fn num_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Heap bytes held by the structure. Part counts a consumer keeps for
    /// the hubs are its own memory (the engine's provider reports them
    /// with this figure).
    pub fn memory_bytes(&self) -> usize {
        self.neighbors.capacity() * std::mem::size_of::<VertexId>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.distinct_degrees.capacity() * std::mem::size_of::<u32>()
    }

    /// Counts, for every partition `j`, the number of distinct neighbours
    /// of `v` assigned to `j` — the paper's `X_j(v)` — writing into
    /// `counts` (cleared and resized to `partition.num_parts()`).
    ///
    /// Non-hub vertices are answered by a flat scan of the precomputed
    /// list; hubs traverse the hypergraph through `fallback`, which is
    /// created on first use so callers that never meet a hub stay O(1).
    /// Either path produces counts bit-identical to
    /// [`NeighborScratch::neighbor_partition_counts`].
    pub fn neighbor_partition_counts<A: AssignmentRef>(
        &self,
        hg: &Hypergraph,
        partition: &A,
        v: VertexId,
        fallback: &mut Option<NeighborScratch>,
        counts: &mut Vec<u32>,
    ) {
        match self.neighbors(v) {
            Some(list) => {
                counts.clear();
                counts.resize(partition.num_parts() as usize, 0);
                for &u in list {
                    counts[partition.part_of(u) as usize] += 1;
                }
            }
            None => {
                let scratch =
                    fallback.get_or_insert_with(|| NeighborScratch::new(hg.num_vertices()));
                scratch.neighbor_partition_counts(hg, partition, v, counts);
            }
        }
    }
}

/// Largest distinct degree `c` such that all vertices with distinct degree
/// `≤ c` collectively fit `cap` flat-list entries. Degree 0 always fits.
fn cutoff_for_cap(distinct_degrees: &[u32], cap: usize) -> usize {
    let mut degrees: Vec<u32> = distinct_degrees.to_vec();
    degrees.sort_unstable();
    let mut cutoff = 0usize;
    let mut used = 0usize;
    let mut i = 0usize;
    while i < degrees.len() {
        let dd = degrees[i];
        let mut group = 0usize;
        while i < degrees.len() && degrees[i] == dd {
            group += dd as usize;
            i += 1;
        }
        if used + group > cap {
            break;
        }
        used += group;
        cutoff = dd as usize;
    }
    cutoff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{mesh_hypergraph, powerlaw_hypergraph, MeshConfig, PowerLawConfig};
    use crate::{HypergraphBuilder, Partition};

    /// e0 = {0,1,2}, e1 = {2,3}, isolated vertex 4, e2 = {5,6}
    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new(7);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3]);
        b.add_hyperedge([5u32, 6]);
        b.build()
    }

    fn sorted(mut v: Vec<VertexId>) -> Vec<VertexId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn unbounded_adjacency_matches_epoch_traversal() {
        let adj = NeighborAdjacency::build(&sample(), AdjacencyBudget::Unbounded);
        let hg = sample();
        let mut scratch = NeighborScratch::new(hg.num_vertices());
        assert_eq!(adj.num_hubs(), 0);
        for v in hg.vertices() {
            let expected = sorted(scratch.neighbors(&hg, v).to_vec());
            let got = sorted(adj.neighbors(v).expect("no hubs").to_vec());
            assert_eq!(got, expected, "vertex {v}");
            assert_eq!(adj.distinct_degree(v), expected.len());
        }
        assert_eq!(adj.neighbors(4), Some(&[][..]));
    }

    #[test]
    fn partition_counts_match_scratch_on_both_paths() {
        let hg = sample();
        let part = Partition::from_assignment(vec![0, 1, 1, 0, 0, 1, 0], 2).unwrap();
        let mut scratch = NeighborScratch::new(hg.num_vertices());
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for cutoff in 0..=4 {
            let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::DegreeCutoff(cutoff));
            let mut fallback = None;
            for v in hg.vertices() {
                scratch.neighbor_partition_counts(&hg, &part, v, &mut expected);
                adj.neighbor_partition_counts(&hg, &part, v, &mut fallback, &mut got);
                assert_eq!(got, expected, "cutoff {cutoff}, vertex {v}");
            }
            // The fallback scratch only materialises when a hub exists.
            assert_eq!(fallback.is_some(), adj.num_hubs() > 0, "cutoff {cutoff}");
        }
    }

    #[test]
    fn degree_cutoff_marks_hubs() {
        let hg = sample();
        // Distinct degrees: v2 has 3, v0/v1/v3/v5/v6 have 1..2, v4 has 0.
        let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::DegreeCutoff(2));
        assert!(adj.is_hub(2));
        assert_eq!(adj.num_hubs(), 1);
        assert_eq!(adj.neighbors(2), None);
        assert_eq!(adj.distinct_degree(2), 3);
        assert!(adj.neighbors(0).is_some());
    }

    #[test]
    fn byte_budget_drops_the_heaviest_vertices_first() {
        let hg = mesh_hypergraph(&MeshConfig::new(500, 8));
        let full = NeighborAdjacency::build(&hg, AdjacencyBudget::Unbounded);
        let cap_bytes = full.num_entries() * std::mem::size_of::<VertexId>() / 2;
        let half = NeighborAdjacency::build(&hg, AdjacencyBudget::MaxBytes(cap_bytes));
        assert!(half.num_entries() <= full.num_entries() / 2 + 1);
        assert!(half.cutoff() <= full.cutoff());
        // Every stored list is still exact.
        let mut scratch = NeighborScratch::new(hg.num_vertices());
        for v in hg.vertices() {
            if let Some(list) = half.neighbors(v) {
                assert_eq!(
                    sorted(list.to_vec()),
                    sorted(scratch.neighbors(&hg, v).to_vec())
                );
            } else {
                assert!(half.distinct_degree(v) > half.cutoff());
            }
        }
    }

    #[test]
    fn auto_budget_fully_indexes_small_sparse_instances() {
        let hg = mesh_hypergraph(&MeshConfig::new(800, 8));
        let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::Auto);
        assert_eq!(adj.num_hubs(), 0, "sparse mesh must fit the auto budget");
    }

    #[test]
    fn auto_budget_caps_skewed_instances() {
        // A power-law instance with huge hyperedges makes the dedup
        // adjacency superlinear; a tiny explicit budget must hub the heavy
        // vertices while keeping the light ones flat.
        let hg = powerlaw_hypergraph(&PowerLawConfig {
            num_vertices: 400,
            num_hyperedges: 250,
            seed: 5,
            ..PowerLawConfig::default()
        });
        let full = NeighborAdjacency::build(&hg, AdjacencyBudget::Unbounded);
        let capped = NeighborAdjacency::build(
            &hg,
            AdjacencyBudget::MaxBytes(full.num_entries()), // a quarter of full
        );
        assert!(capped.num_hubs() > 0);
        assert!(capped.num_hubs() < hg.num_vertices());
        assert!(capped.num_entries() < full.num_entries());
    }

    #[test]
    fn thread_cap_never_changes_the_structure() {
        let hg = mesh_hypergraph(&MeshConfig::new(700, 8));
        let default = NeighborAdjacency::build(&hg, AdjacencyBudget::Auto);
        for cap in [1usize, 2, 7] {
            let capped = NeighborAdjacency::build_with_threads(&hg, AdjacencyBudget::Auto, cap);
            assert_eq!(capped, default, "cap {cap}");
        }
    }

    #[test]
    fn empty_hypergraph_builds() {
        let hg = HypergraphBuilder::new(0).build();
        let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::Auto);
        assert_eq!(adj.num_vertices(), 0);
        assert_eq!(adj.num_entries(), 0);
        assert_eq!(adj.num_hubs(), 0);
    }

    #[test]
    fn memory_accounting_is_consistent() {
        let hg = sample();
        let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::Unbounded);
        assert!(adj.memory_bytes() >= adj.num_entries() * std::mem::size_of::<VertexId>());
    }
}
