//! Back-compatibility of the `HPJSNAP1` snapshot layout.
//!
//! `fixtures/snapshot_csr_tag0.bin` was written by an earlier build whose
//! configuration still selected an in-memory connectivity provider; its
//! state ends with the provider tag `0` (CSR traversal). Today's encoder
//! always writes `2` and the decoder ignores the value, so the file must
//! recover to exactly the partitioner it was written from — while any tag
//! outside `0..=2` is still refused as corruption.

use hyperpraw_core::{CostMatrix, HyperPrawConfig};
use hyperpraw_dynamic::journal::{encode_snapshot, read_snapshot, JournalError};
use hyperpraw_dynamic::{DynamicConfig, DynamicPartitioner, GraphUpdate};
use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw_hypergraph::Partition;
use hyperpraw_storage::{crc32, MemorySource};

const FIXTURE: &[u8] = include_bytes!("fixtures/snapshot_csr_tag0.bin");

/// The assignment the writing build recorded alongside the fixture.
const RECORDED_ASSIGNMENT: [u32; 41] = [
    1, 1, 1, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 1, 1, 1, 2, 1, 0, 0, 0, 0, 2, 0, 0,
    2, 0, 2, 2, 2, 2, 2, 2, 1,
];

/// The session the fixture was written from: a 40-vertex mesh on three
/// parts, then one batch adding vertex 40, a hyperedge, and removing
/// vertex 7. Snapshot epoch 3, meta `b"csr-fixture"`.
fn writer_session() -> DynamicPartitioner {
    let hg = mesh_hypergraph(&MeshConfig::new(40, 5));
    let partition = Partition::round_robin(hg.num_vertices(), 3);
    let cost = CostMatrix::from_raw(3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.5, 2.0, 1.5, 0.0]);
    let cfg = DynamicConfig {
        config: HyperPrawConfig {
            max_iterations: 4,
            seed: 5,
            ..HyperPrawConfig::default()
        },
    };
    let mut p = DynamicPartitioner::new(&hg, partition, cost, cfg).unwrap();
    p.apply(&[
        GraphUpdate::AddVertex { weight: 2.0 },
        GraphUpdate::AddHyperedge {
            pins: vec![0, 20, 40],
            weight: 1.0,
        },
        GraphUpdate::RemoveVertex { vertex: 7 },
    ])
    .unwrap();
    p
}

/// The fixture with its last state byte (the provider tag) replaced and
/// the payload CRC recomputed, so only the tag differs.
fn retagged(tag: u8) -> Vec<u8> {
    let mut bytes = FIXTURE.to_vec();
    *bytes.last_mut().unwrap() = tag;
    let crc = crc32(&bytes[24..]);
    bytes[20..24].copy_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn csr_tagged_snapshot_recovers_the_recorded_session() {
    assert_eq!(FIXTURE.last(), Some(&0), "the fixture carries the CSR tag");
    let snap = read_snapshot(&MemorySource::new(FIXTURE.to_vec())).unwrap();
    assert_eq!(snap.epoch, 3);
    assert_eq!(snap.meta, b"csr-fixture");
    let recovered = snap.partitioner;
    assert_eq!(recovered.partition().assignment(), &RECORDED_ASSIGNMENT[..]);

    let live = writer_session();
    assert_eq!(
        recovered.partition().assignment(),
        live.partition().assignment()
    );
    assert_eq!(recovered.loads(), live.loads());
    assert!(recovered.graph() == live.graph(), "hypergraphs differ");
    for v in 0..42 {
        assert_eq!(recovered.lookup(v), live.lookup(v), "vertex {v}");
    }
    assert_eq!(recovered.lookup(7), None, "vertex 7 was removed");
    assert_eq!(recovered.lookup(40), Some(1));

    // Re-encoding differs from the fixture only in the tag the encoder
    // now always writes.
    assert_eq!(encode_snapshot(3, b"csr-fixture", &recovered), retagged(2));
}

#[test]
fn unknown_connectivity_tags_are_refused_as_corrupt() {
    for tag in [1, 2] {
        assert!(read_snapshot(&MemorySource::new(retagged(tag))).is_ok());
    }
    match read_snapshot(&MemorySource::new(retagged(3))) {
        Err(JournalError::Corrupt(msg)) => assert!(msg.contains("connectivity tag 3"), "{msg}"),
        Err(other) => panic!("expected corruption, got {other}"),
        Ok(_) => panic!("tag 3 must not decode"),
    }
}
