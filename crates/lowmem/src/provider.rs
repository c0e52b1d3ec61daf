//! The streaming loop's connectivity state: this crate's budgeted
//! [`ConnectivityIndex`]es behind one placement interface.
//!
//! Where `hyperpraw-core`'s `AdjProvider` counts distinct neighbour
//! vertices from the in-memory hypergraph, this provider answers the same
//! `X_j(v)` query from *net connectivity* in budgeted memory: the counts
//! are "how many of the vertex's nets already touch partition `j`", served
//! by an exact hash-map index or Bloom/MinHash sketches. The counts come
//! from the index, which changes at every attach and detach, so the loop
//! streams on one thread.

use hyperpraw_hypergraph::HyperedgeId;

use crate::index::ConnectivityIndex;

/// The streaming loop's view of any boxed [`ConnectivityIndex`].
///
/// Sketch rebuilding is double-buffered: during a rebuild pass the stale
/// index keeps answering connectivity queries (so the pass never cold
/// starts) while an empty copy records where the pass actually places
/// every vertex; at the next pass boundary the copy — which reflects only
/// the latest placements — replaces the stale index. Indexes that can
/// forget ([`ConnectivityIndex::supports_forget`]) are never stale and
/// skip the machinery.
pub struct IndexProvider {
    index: Box<dyn ConnectivityIndex>,
    /// The empty copy populated during a rebuild pass.
    rebuilt: Option<Box<dyn ConnectivityIndex>>,
}

impl IndexProvider {
    /// Wraps an index.
    pub fn new(index: Box<dyn ConnectivityIndex>) -> Self {
        Self {
            index,
            rebuilt: None,
        }
    }

    /// Heap bytes held by the index pair (both halves during a rebuild).
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.rebuilt.as_ref().map_or(0, |r| r.memory_bytes())
    }

    /// Called at the start of every pass. `rebuild` starts a rebuild of
    /// an index that cannot forget (sketch staleness shedding); exact
    /// indexes ignore it.
    pub fn begin_pass(&mut self, rebuild: bool) {
        // A rebuild buffer filled by the previous pass holds exactly that
        // pass's placements — promote it, shedding everything older.
        if let Some(rebuilt) = self.rebuilt.take() {
            self.index = rebuilt;
        }
        // Rebuilding only makes sense for indexes that cannot forget:
        // their accumulated state is stale (it still contains every
        // pre-move position). An exact index is never stale.
        if rebuild && !self.index.supports_forget() {
            self.rebuilt = Some(self.index.empty_clone());
        }
    }

    /// Writes, for each partition `j`, how many of `nets` already touch
    /// `j` into `counts` (cleared and resized).
    pub fn count(&self, nets: &[HyperedgeId], counts: &mut Vec<u32>) {
        self.index.connectivity(nets, counts);
    }

    /// Removes a vertex with `nets` from `part`, where the index supports
    /// it (sketches cannot forget and accept the staleness).
    pub fn detach(&mut self, nets: &[HyperedgeId], part: u32) {
        // For a sketched index this is a no-op, so the counts keep the
        // vertex's own recorded nets. That is a deliberate bias towards
        // *staying*: Bloom filters cannot separate the self-hit from
        // genuine neighbours, and subtracting an estimate would erase real
        // connectivity and force spurious moves. A revisited vertex
        // therefore only moves when another partition's connectivity
        // genuinely dominates.
        self.index.forget(nets, part);
        if let Some(rebuilt) = &mut self.rebuilt {
            rebuilt.forget(nets, part);
        }
    }

    /// Records a vertex with `nets` on `part`.
    pub fn attach(&mut self, nets: &[HyperedgeId], part: u32) {
        self.index.record(nets, part);
        if let Some(rebuilt) = &mut self.rebuilt {
            rebuilt.record(nets, part);
        }
    }

    /// Confidence in placing a vertex with `nets` on `part` at value
    /// `margin`, in `[margin / 2, margin]`: the margin, discounted when
    /// the index can tell that the part's net set has little overlap with
    /// the vertex's nets.
    pub fn confidence(&self, nets: &[HyperedgeId], part: u32, margin: f64) -> f64 {
        match self.index.similarity(nets, part) {
            Some(similarity) => margin * (0.5 + 0.5 * similarity),
            None => margin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::MemoryBudget;
    use crate::index::{ExactIndex, SketchIndex};

    #[test]
    fn provider_counts_attach_and_detach_through_the_index() {
        let mut provider = IndexProvider::new(Box::new(ExactIndex::new(2)));
        let r = [0, 1];
        provider.attach(&r, 1);
        let mut counts = Vec::new();
        provider.count(&r, &mut counts);
        assert_eq!(counts, vec![0, 2]);
        provider.detach(&r, 1);
        provider.count(&r, &mut counts);
        assert_eq!(counts, vec![0, 0]);
    }

    #[test]
    fn rebuild_double_buffers_sketches_and_never_touches_exact_indexes() {
        let plan = MemoryBudget::mebibytes(1).plan(2, 100);
        let r = [0, 1, 2];
        let mut counts = Vec::new();

        let mut sketched = IndexProvider::new(Box::new(SketchIndex::new(2, &plan, 3)));
        sketched.begin_pass(false);
        sketched.attach(&r, 0); // pass 1 places the vertex on partition 0
        let single = sketched.memory_bytes();
        sketched.begin_pass(true);
        assert_eq!(
            sketched.memory_bytes(),
            2 * single,
            "a rebuild pass holds the index pair"
        );
        // During the rebuild pass the stale index still answers: no cold
        // start.
        sketched.count(&r, &mut counts);
        assert_eq!(counts, vec![3, 0]);
        // The pass moves the vertex to partition 1; the next boundary
        // promotes the rebuilt index, shedding the stale partition-0 entry.
        sketched.attach(&r, 1);
        sketched.begin_pass(true);
        sketched.count(&r, &mut counts);
        assert_eq!(counts[1], 3, "the new placement must survive the swap");
        assert_eq!(counts[0], 0, "the stale placement must be shed");

        let mut exact = IndexProvider::new(Box::new(ExactIndex::new(2)));
        exact.attach(&r, 0);
        exact.begin_pass(true);
        exact.count(&r, &mut counts);
        assert_eq!(counts, vec![3, 0], "exact state must survive a rebuild");
        assert!(exact.rebuilt.is_none(), "exact indexes never double-buffer");
    }

    #[test]
    fn sketched_confidence_discounts_low_similarity() {
        let plan = MemoryBudget::mebibytes(1).plan(2, 100);
        let mut provider = IndexProvider::new(Box::new(SketchIndex::new(2, &plan, 1)));
        let home = [0, 1, 2, 3];
        provider.attach(&home, 0);
        provider.attach(&[100, 101, 102, 103], 1);
        let c_home = provider.confidence(&home, 0, 1.0);
        let c_away = provider.confidence(&home, 1, 1.0);
        assert!(c_home > c_away);
        assert!((0.5..=1.0).contains(&c_away));
        // Exact indexes estimate no similarity: confidence is the margin.
        let exact = IndexProvider::new(Box::new(ExactIndex::new(2)));
        assert_eq!(exact.confidence(&home, 0, 0.75), 0.75);
    }
}
