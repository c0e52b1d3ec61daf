//! Partition-connectivity state behind the [`ConnectivityIndex`] trait.
//!
//! The streaming partitioner's only question about global state is: *of the
//! nets incident to this vertex, how many already touch partition `j`?*
//! The answer vector plays the role of the neighbour-partition counts
//! `X_j(v)` in HyperPRAW's value function.
//!
//! Two implementations are provided:
//!
//! * [`ExactIndex`] — per-partition hash maps from net id to pin count.
//!   Exact and reversible (assignments can be forgotten), with memory that
//!   grows with the number of distinct (net, partition) incidences. The
//!   reference against which the sketched index is validated.
//! * [`SketchIndex`] — per-partition [`BloomFilter`]s (membership) plus
//!   [`MinHashSketch`]es (similarity), sized by a [`SketchPlan`]. Fixed
//!   memory, no false negatives; false positives over-count connectivity
//!   at the plan's expected rate, and assignments cannot be forgotten
//!   (stale connectivity persists until the filter is rebuilt).

use std::collections::HashMap;

use hyperpraw_hypergraph::HyperedgeId;

use crate::budget::SketchPlan;
use crate::sketch::{BloomFilter, MinHashSketch};

/// The connectivity state consulted and updated by the streaming
/// partitioner.
pub trait ConnectivityIndex {
    /// Number of partitions tracked.
    fn num_parts(&self) -> usize;

    /// Writes, for every partition `j`, the number of `nets` currently
    /// connected to `j` into `counts` (resized and cleared).
    fn connectivity(&self, nets: &[HyperedgeId], counts: &mut Vec<u32>);

    /// Records that every net in `nets` now has a pin in `part`.
    fn record(&mut self, nets: &[HyperedgeId], part: u32);

    /// Reverses one prior [`ConnectivityIndex::record`] of `nets` in
    /// `part`, when supported (see [`ConnectivityIndex::supports_forget`]).
    fn forget(&mut self, nets: &[HyperedgeId], part: u32);

    /// Whether [`ConnectivityIndex::forget`] actually removes state.
    /// Sketched implementations return `false`: their connectivity can
    /// only grow, which the re-streaming pass tolerates as staleness.
    fn supports_forget(&self) -> bool;

    /// Drops every recorded incidence, returning the index to its
    /// freshly-constructed state (same size, same hash families). The
    /// restreaming engine calls this between passes when asked to rebuild
    /// sketches: indexes that cannot forget shed their accumulated
    /// staleness wholesale and are repopulated by the pass itself.
    fn reset(&mut self);

    /// An empty index of the same shape (partition count, sizes, hash
    /// families) — the second half of the double-buffered rebuild: during
    /// a rebuild pass the stale index keeps answering queries while the
    /// empty copy records the pass's placements, and the pair is swapped
    /// at the next pass boundary.
    fn empty_clone(&self) -> Box<dyn ConnectivityIndex>;

    /// Estimated Jaccard similarity between `nets` and partition `part`'s
    /// net set, when the index can estimate it cheaply. Used as a
    /// confidence signal only — never to pick the partition.
    fn similarity(&self, nets: &[HyperedgeId], part: u32) -> Option<f64> {
        let _ = (nets, part);
        None
    }

    /// Approximate heap bytes currently held by the index.
    fn memory_bytes(&self) -> usize;
}

/// Exact reference implementation: per-partition `net → pin count` maps.
#[derive(Clone, Debug)]
pub struct ExactIndex {
    per_part: Vec<HashMap<HyperedgeId, u32>>,
}

impl ExactIndex {
    /// Creates an empty exact index over `num_parts` partitions.
    pub fn new(num_parts: usize) -> Self {
        Self {
            per_part: vec![HashMap::new(); num_parts.max(1)],
        }
    }
}

impl ConnectivityIndex for ExactIndex {
    fn num_parts(&self) -> usize {
        self.per_part.len()
    }

    fn connectivity(&self, nets: &[HyperedgeId], counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(self.per_part.len(), 0);
        for (j, map) in self.per_part.iter().enumerate() {
            counts[j] = nets.iter().filter(|e| map.contains_key(e)).count() as u32;
        }
    }

    fn record(&mut self, nets: &[HyperedgeId], part: u32) {
        let map = &mut self.per_part[part as usize];
        for &e in nets {
            *map.entry(e).or_insert(0) += 1;
        }
    }

    fn forget(&mut self, nets: &[HyperedgeId], part: u32) {
        let map = &mut self.per_part[part as usize];
        for &e in nets {
            if let Some(count) = map.get_mut(&e) {
                *count -= 1;
                if *count == 0 {
                    map.remove(&e);
                }
            }
        }
    }

    fn supports_forget(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.per_part.iter_mut().for_each(HashMap::clear);
    }

    fn empty_clone(&self) -> Box<dyn ConnectivityIndex> {
        Box::new(ExactIndex::new(self.per_part.len()))
    }

    fn memory_bytes(&self) -> usize {
        // Entry estimate: key + value + hash-table overhead.
        self.per_part.iter().map(|m| 48 + m.len() * 16).sum()
    }
}

/// Sketched implementation: Bloom membership + MinHash similarity per
/// partition, with memory fixed by the [`SketchPlan`].
#[derive(Clone, Debug)]
pub struct SketchIndex {
    blooms: Vec<BloomFilter>,
    minhashes: Vec<MinHashSketch>,
}

impl SketchIndex {
    /// Creates an empty sketched index over `num_parts` partitions, sized
    /// by `plan`, with the MinHash family derived from `seed`.
    pub fn new(num_parts: usize, plan: &SketchPlan, seed: u64) -> Self {
        let parts = num_parts.max(1);
        Self {
            blooms: (0..parts)
                .map(|_| BloomFilter::new(plan.bloom_bits_per_partition, plan.bloom_hashes))
                .collect(),
            minhashes: (0..parts)
                .map(|_| MinHashSketch::new(plan.minhash_permutations, seed))
                .collect(),
        }
    }

    /// The partition Bloom filters (read-only, for diagnostics).
    pub fn blooms(&self) -> &[BloomFilter] {
        &self.blooms
    }
}

impl ConnectivityIndex for SketchIndex {
    fn num_parts(&self) -> usize {
        self.blooms.len()
    }

    fn connectivity(&self, nets: &[HyperedgeId], counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(self.blooms.len(), 0);
        for (j, bloom) in self.blooms.iter().enumerate() {
            counts[j] = nets
                .iter()
                .filter(|&&e| bloom.contains(u64::from(e)))
                .count() as u32;
        }
    }

    fn record(&mut self, nets: &[HyperedgeId], part: u32) {
        let bloom = &mut self.blooms[part as usize];
        let minhash = &mut self.minhashes[part as usize];
        for &e in nets {
            bloom.insert(u64::from(e));
            minhash.insert(u64::from(e));
        }
    }

    fn forget(&mut self, _nets: &[HyperedgeId], _part: u32) {
        // Bloom filters cannot delete; staleness is accepted and bounded
        // by the re-streaming pass.
    }

    fn supports_forget(&self) -> bool {
        false
    }

    fn reset(&mut self) {
        self.blooms.iter_mut().for_each(BloomFilter::clear);
        self.minhashes.iter_mut().for_each(MinHashSketch::clear);
    }

    fn empty_clone(&self) -> Box<dyn ConnectivityIndex> {
        let mut copy = self.clone();
        copy.reset();
        Box::new(copy)
    }

    fn similarity(&self, nets: &[HyperedgeId], part: u32) -> Option<f64> {
        let reference = &self.minhashes[part as usize];
        Some(reference.jaccard_of_items(nets.iter().map(|&e| u64::from(e))))
    }

    fn memory_bytes(&self) -> usize {
        self.blooms
            .iter()
            .map(BloomFilter::memory_bytes)
            .sum::<usize>()
            + self
                .minhashes
                .iter()
                .map(MinHashSketch::memory_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::MemoryBudget;

    fn plan() -> SketchPlan {
        MemoryBudget::mebibytes(1).plan(4, 1_000)
    }

    #[test]
    fn exact_index_counts_and_forgets_precisely() {
        let mut index = ExactIndex::new(3);
        index.record(&[0, 1, 2], 0);
        index.record(&[2, 3], 1);
        let mut counts = Vec::new();
        index.connectivity(&[0, 2, 3], &mut counts);
        assert_eq!(counts, vec![2, 2, 0]);
        // Net 2 was recorded twice in different parts; forgetting it from
        // part 0 must not affect part 1.
        index.forget(&[0, 1, 2], 0);
        index.connectivity(&[0, 2, 3], &mut counts);
        assert_eq!(counts, vec![0, 2, 0]);
        assert!(index.supports_forget());
    }

    #[test]
    fn exact_index_tracks_multiplicity() {
        let mut index = ExactIndex::new(2);
        index.record(&[5], 0);
        index.record(&[5], 0);
        index.forget(&[5], 0);
        let mut counts = Vec::new();
        index.connectivity(&[5], &mut counts);
        assert_eq!(counts, vec![1, 0], "one of two pins remains");
    }

    #[test]
    fn sketch_index_never_undercounts() {
        let plan = plan();
        let mut sketch = SketchIndex::new(4, &plan, 7);
        let mut exact = ExactIndex::new(4);
        for (nets, part) in [(vec![0u32, 1, 2], 0u32), (vec![2, 3], 1), (vec![4], 3)] {
            sketch.record(&nets, part);
            exact.record(&nets, part);
        }
        let query = [0u32, 2, 3, 4];
        let (mut sketched, mut exactly) = (Vec::new(), Vec::new());
        sketch.connectivity(&query, &mut sketched);
        exact.connectivity(&query, &mut exactly);
        for (s, e) in sketched.iter().zip(&exactly) {
            assert!(s >= e, "sketch {s} undercounts exact {e}");
        }
        assert!(!sketch.supports_forget());
    }

    #[test]
    fn sketch_similarity_ranks_the_home_partition_highest() {
        let plan = plan();
        let mut sketch = SketchIndex::new(2, &plan, 1);
        sketch.record(&[0, 1, 2, 3], 0);
        sketch.record(&[100, 101], 1);
        let sim_home = sketch.similarity(&[0, 1, 2], 0).unwrap();
        let sim_away = sketch.similarity(&[0, 1, 2], 1).unwrap();
        assert!(sim_home > sim_away);
    }

    #[test]
    fn reset_returns_both_indexes_to_the_empty_state() {
        let plan = plan();
        let mut exact = ExactIndex::new(3);
        let mut sketch = SketchIndex::new(3, &plan, 9);
        for index in [&mut exact as &mut dyn ConnectivityIndex, &mut sketch] {
            index.record(&[1, 2, 3], 0);
            index.record(&[3, 4], 2);
            index.reset();
            let mut counts = Vec::new();
            index.connectivity(&[1, 2, 3, 4], &mut counts);
            assert_eq!(counts, vec![0, 0, 0], "index must be empty after reset");
        }
        // The sketch keeps its size (and therefore its budget) across resets.
        let before = sketch.memory_bytes();
        sketch.record(&[7], 1);
        sketch.reset();
        assert_eq!(sketch.memory_bytes(), before);
    }

    #[test]
    fn sketch_memory_is_fixed_by_the_plan() {
        let plan = plan();
        let mut sketch = SketchIndex::new(4, &plan, 0);
        let before = sketch.memory_bytes();
        for e in 0..10_000u32 {
            sketch.record(&[e], e % 4);
        }
        assert_eq!(sketch.memory_bytes(), before, "sketch memory must not grow");
        let expected = 4 * (plan.bloom_bits_per_partition / 8) + 4 * plan.minhash_permutations * 8;
        assert_eq!(before, expected);
    }
}
