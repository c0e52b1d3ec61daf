//! The bounded buffer of lowest-confidence placements that the streaming
//! loop revisits once after its final pass.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::{HyperedgeId, VertexId};

use crate::provider::IndexProvider;

/// A buffered low-confidence placement awaiting the revisit.
#[derive(Clone, Debug)]
pub(crate) struct Doubt {
    confidence: f64,
    pub(crate) vertex: VertexId,
    pub(crate) weight: f64,
    pub(crate) nets: Vec<HyperedgeId>,
}

impl PartialEq for Doubt {
    fn eq(&self, other: &Self) -> bool {
        self.confidence == other.confidence && self.vertex == other.vertex
    }
}

impl Eq for Doubt {}

impl PartialOrd for Doubt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Doubt {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by confidence: the most confident buffered entry is
        // evicted first, keeping the k *least* confident. Vertex id breaks
        // ties deterministically.
        self.confidence
            .total_cmp(&other.confidence)
            .then_with(|| self.vertex.cmp(&other.vertex))
    }
}

impl Doubt {
    /// Approximate heap bytes held by one buffered entry.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nets.capacity() * std::mem::size_of::<HyperedgeId>()
    }
}

/// The max-heap of one pass's doubts, bounded in entries and in bytes:
/// whatever the entry count, high-degree entries cannot hold more than the
/// byte bound.
#[derive(Debug)]
pub(crate) struct DoubtBuffer {
    heap: BinaryHeap<Doubt>,
    bytes: usize,
    capacity: usize,
    byte_bound: usize,
}

impl DoubtBuffer {
    /// An empty buffer of at most `capacity` entries (`0` keeps none) and
    /// about `byte_bound` heap bytes.
    pub(crate) fn new(capacity: usize, byte_bound: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            bytes: 0,
            capacity,
            byte_bound,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.bytes = 0;
    }

    /// Records the placement of `record` on `part` at value `margin`,
    /// unless its confidence floor already exceeds the buffer's current
    /// maximum (it would be evicted right back out — skip the net-list
    /// clone entirely).
    pub(crate) fn offer(
        &mut self,
        provider: &IndexProvider,
        record: &VertexRecord,
        part: u32,
        margin: f64,
    ) {
        if self.capacity == 0 {
            return;
        }
        // The provider's confidence stays within [margin / 2, margin].
        let hopeless = self.heap.len() >= self.capacity
            && self
                .heap
                .peek()
                .is_some_and(|max| 0.5 * margin > max.confidence);
        if hopeless {
            return;
        }
        let doubt = Doubt {
            confidence: provider.confidence(&record.nets, part, margin),
            vertex: record.vertex,
            weight: record.weight,
            nets: record.nets.clone(),
        };
        self.bytes += doubt.heap_bytes();
        self.heap.push(doubt);
        while self.heap.len() > self.capacity
            || (self.bytes > self.byte_bound && self.heap.len() > 1)
        {
            if let Some(evicted) = self.heap.pop() {
                self.bytes -= evicted.heap_bytes();
            }
        }
    }

    /// The buffered doubts in vertex order, emptying the buffer.
    pub(crate) fn take_by_vertex(&mut self) -> Vec<Doubt> {
        self.bytes = 0;
        let mut doubts = std::mem::take(&mut self.heap).into_vec();
        doubts.sort_unstable_by_key(|d| d.vertex);
        doubts
    }
}
