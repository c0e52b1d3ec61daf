//! Vertex → partition assignments and load-imbalance accounting.

use std::collections::TryReserveError;
use std::fmt;

use crate::{Hypergraph, VertexId};

/// Errors produced when constructing or mutating a [`Partition`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The requested number of partitions was zero.
    ZeroParts,
    /// An assignment referenced a partition id `>= num_parts`.
    PartOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// The out-of-range partition id.
        part: u32,
        /// The number of partitions.
        num_parts: u32,
    },
    /// The assignment vector length does not match the hypergraph.
    LengthMismatch {
        /// Assignment entries provided.
        got: usize,
        /// Vertices expected.
        expected: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroParts => write!(f, "a partition must have at least one part"),
            Self::PartOutOfRange {
                vertex,
                part,
                num_parts,
            } => write!(
                f,
                "vertex {vertex} assigned to part {part}, but only {num_parts} parts exist"
            ),
            Self::LengthMismatch { got, expected } => write!(
                f,
                "assignment has {got} entries but the hypergraph has {expected} vertices"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A read-only view of a vertex → partition assignment.
///
/// Neighbourhood-counting helpers ([`crate::traversal::NeighborScratch`],
/// [`crate::NeighborAdjacency`]) and the restreaming engine's connectivity
/// providers are generic over this trait so the same counting code can run
/// against a plain [`Partition`] (the sequential and bulk-synchronous
/// drivers) or against a shared atomic assignment that other worker threads
/// mutate concurrently (the work-stealing driver, which tolerates bounded
/// staleness in the counts it reads).
pub trait AssignmentRef {
    /// The partition vertex `v` currently lives in.
    fn part_of(&self, v: VertexId) -> u32;

    /// Number of partitions `p`.
    fn num_parts(&self) -> u32;
}

impl AssignmentRef for Partition {
    fn part_of(&self, v: VertexId) -> u32 {
        Partition::part_of(self, v)
    }

    fn num_parts(&self) -> u32 {
        Partition::num_parts(self)
    }
}

impl<A: AssignmentRef + ?Sized> AssignmentRef for &A {
    fn part_of(&self, v: VertexId) -> u32 {
        (**self).part_of(v)
    }

    fn num_parts(&self) -> u32 {
        (**self).num_parts()
    }
}

/// A complete assignment of vertices to `num_parts` partitions.
///
/// In the HyperPRAW setting each partition corresponds to one compute unit
/// (one MPI process / core) of the target machine, so `num_parts` equals the
/// job size `p`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u32>,
    num_parts: u32,
}

impl Partition {
    /// Creates a partition from an explicit assignment vector.
    pub fn from_assignment(assignment: Vec<u32>, num_parts: u32) -> Result<Self, PartitionError> {
        if num_parts == 0 {
            return Err(PartitionError::ZeroParts);
        }
        if let Some((v, &part)) = assignment
            .iter()
            .enumerate()
            .find(|(_, &part)| part >= num_parts)
        {
            return Err(PartitionError::PartOutOfRange {
                vertex: v as VertexId,
                part,
                num_parts,
            });
        }
        Ok(Self {
            assignment,
            num_parts,
        })
    }

    /// Round-robin assignment `v -> v mod p` — the initial placement used by
    /// the HyperPRAW algorithm (Algorithm 1) and also a natural "naive
    /// parallelism" baseline.
    pub fn round_robin(num_vertices: usize, num_parts: u32) -> Self {
        Self::try_round_robin(num_vertices, num_parts)
            .unwrap_or_else(|e| panic!("cannot allocate {num_vertices} vertices: {e}"))
    }

    /// [`Partition::round_robin`], reserving the assignment fallibly: a
    /// vertex count taken from a file header must not abort the process.
    ///
    /// # Panics
    ///
    /// Panics if `num_parts` is zero.
    pub fn try_round_robin(num_vertices: usize, num_parts: u32) -> Result<Self, TryReserveError> {
        assert!(num_parts > 0, "num_parts must be positive");
        let mut assignment = Vec::new();
        assignment.try_reserve_exact(num_vertices)?;
        assignment.extend((0..num_vertices).map(|v| (v as u32) % num_parts));
        Ok(Self {
            assignment,
            num_parts,
        })
    }

    /// Assigns every vertex to partition 0 — the degenerate minimum-cut /
    /// maximum-imbalance solution used in tests and documentation.
    pub fn all_in_one(num_vertices: usize, num_parts: u32) -> Self {
        assert!(num_parts > 0, "num_parts must be positive");
        Self {
            assignment: vec![0; num_vertices],
            num_parts,
        }
    }

    /// Builds an assignment by evaluating `f(v)` for every vertex.
    pub fn from_fn(
        num_vertices: usize,
        num_parts: u32,
        mut f: impl FnMut(VertexId) -> u32,
    ) -> Self {
        assert!(num_parts > 0, "num_parts must be positive");
        let assignment = (0..num_vertices as u32)
            .map(|v| {
                let p = f(v);
                assert!(p < num_parts, "from_fn returned out-of-range part {p}");
                p
            })
            .collect();
        Self {
            assignment,
            num_parts,
        }
    }

    /// Number of partitions `p`.
    pub fn num_parts(&self) -> u32 {
        self.num_parts
    }

    /// Number of assigned vertices.
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// The partition vertex `v` is assigned to.
    pub fn part_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// Reassigns vertex `v` to partition `part`.
    pub fn set(&mut self, v: VertexId, part: u32) {
        assert!(part < self.num_parts, "part {part} out of range");
        self.assignment[v as usize] = part;
    }

    /// The raw assignment slice (index = vertex id).
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Consumes the partition, returning the raw assignment vector.
    pub fn into_assignment(self) -> Vec<u32> {
        self.assignment
    }

    /// Number of vertices in each partition.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts as usize];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Total vertex weight per partition (the paper's `W(k)`), validated
    /// against the hypergraph size.
    pub fn part_loads(&self, hg: &Hypergraph) -> Result<Vec<f64>, PartitionError> {
        if hg.num_vertices() != self.assignment.len() {
            return Err(PartitionError::LengthMismatch {
                got: self.assignment.len(),
                expected: hg.num_vertices(),
            });
        }
        let mut loads = vec![0.0f64; self.num_parts as usize];
        for (v, &p) in self.assignment.iter().enumerate() {
            loads[p as usize] += hg.vertex_weight(v as VertexId);
        }
        Ok(loads)
    }

    /// Total imbalance as defined in the paper:
    /// `max_k W(k) / (Σ_k W(k) / p)`.
    ///
    /// A perfectly balanced partition has imbalance 1.0; the paper accepts a
    /// solution when this is `<= imbalance_tolerance` (e.g. 1.1).
    /// Returns 0.0 for an empty hypergraph.
    pub fn imbalance(&self, hg: &Hypergraph) -> Result<f64, PartitionError> {
        let loads = self.part_loads(hg)?;
        let total: f64 = loads.iter().sum();
        if total == 0.0 {
            return Ok(0.0);
        }
        let avg = total / self.num_parts as f64;
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        Ok(max / avg)
    }

    /// Lists the vertices of each partition (index = partition id).
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.num_parts as usize];
        for (v, &p) in self.assignment.iter().enumerate() {
            out[p as usize].push(v as VertexId);
        }
        out
    }

    /// Number of non-empty partitions.
    pub fn used_parts(&self) -> usize {
        self.part_sizes().iter().filter(|&&s| s > 0).count()
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sizes = self.part_sizes();
        let max = sizes.iter().copied().max().unwrap_or(0);
        let min = sizes.iter().copied().min().unwrap_or(0);
        write!(
            f,
            "Partition(p={}, |V|={}, part sizes {}..{})",
            self.num_parts,
            self.num_vertices(),
            min,
            max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn hg4() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_hyperedge([0u32, 1]);
        b.add_hyperedge([2u32, 3]);
        b.build()
    }

    #[test]
    fn round_robin_balances_sizes() {
        let p = Partition::round_robin(10, 3);
        assert_eq!(p.part_sizes(), vec![4, 3, 3]);
        assert_eq!(p.part_of(0), 0);
        assert_eq!(p.part_of(4), 1);
        assert_eq!(p.used_parts(), 3);
    }

    #[test]
    fn unallocatable_round_robin_is_an_error() {
        assert!(Partition::try_round_robin(usize::MAX / 2, 3).is_err());
        assert_eq!(
            Partition::try_round_robin(10, 3).unwrap(),
            Partition::round_robin(10, 3)
        );
    }

    #[test]
    fn from_assignment_validates_range() {
        let err = Partition::from_assignment(vec![0, 3], 3).unwrap_err();
        assert!(matches!(
            err,
            PartitionError::PartOutOfRange { part: 3, .. }
        ));
        assert!(Partition::from_assignment(vec![0, 2], 3).is_ok());
        assert_eq!(
            Partition::from_assignment(vec![], 0).unwrap_err(),
            PartitionError::ZeroParts
        );
    }

    #[test]
    fn imbalance_of_balanced_partition_is_one() {
        let hg = hg4();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        assert!((p.imbalance(&hg).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_degenerate_partition_is_p() {
        let hg = hg4();
        let p = Partition::all_in_one(4, 2);
        // All weight on one of two parts: max / avg = total / (total/2) = 2.
        assert!((p.imbalance(&hg).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn part_loads_respect_vertex_weights() {
        let mut b = HypergraphBuilder::new(3);
        b.add_hyperedge([0u32, 1, 2]);
        b.set_vertex_weight(0, 5.0);
        let hg = b.build();
        let p = Partition::from_assignment(vec![0, 1, 1], 2).unwrap();
        assert_eq!(p.part_loads(&hg).unwrap(), vec![5.0, 2.0]);
    }

    #[test]
    fn part_loads_detects_length_mismatch() {
        let hg = hg4();
        let p = Partition::round_robin(3, 2);
        assert!(matches!(
            p.part_loads(&hg).unwrap_err(),
            PartitionError::LengthMismatch {
                got: 3,
                expected: 4
            }
        ));
    }

    #[test]
    fn set_and_members_round_trip() {
        let mut p = Partition::round_robin(4, 2);
        p.set(0, 1);
        let members = p.members();
        assert_eq!(members[0], vec![2]);
        assert_eq!(members[1], vec![0, 1, 3]);
    }

    #[test]
    fn from_fn_builds_expected_assignment() {
        let p = Partition::from_fn(6, 2, |v| if v < 3 { 0 } else { 1 });
        assert_eq!(p.assignment(), &[0, 0, 0, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_panics_on_out_of_range_part() {
        let mut p = Partition::round_robin(4, 2);
        p.set(0, 2);
    }

    #[test]
    fn display_summarises_sizes() {
        let p = Partition::round_robin(5, 2);
        let s = format!("{p}");
        assert!(s.contains("p=2"));
        assert!(s.contains("|V|=5"));
    }
}
