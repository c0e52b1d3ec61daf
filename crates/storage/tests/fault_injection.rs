//! The `.hpz` read path under injected storage faults: every fault a
//! [`FaultySource`] can produce must surface as a structured
//! [`FormatError`] (or, for silently corrupted payloads, a decode error)
//! — never a panic, and never silently wrong pins.

use std::io::Cursor;

use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw_storage::{
    write_hypergraph, CompressedReader, FaultySource, FormatError, MemorySource,
};

fn compressed_bytes() -> Vec<u8> {
    let hg = mesh_hypergraph(&MeshConfig::new(300, 8));
    let mut out = Cursor::new(Vec::new());
    write_hypergraph(&hg, &mut out, 512).unwrap();
    out.into_inner()
}

#[test]
fn clean_wrapper_is_transparent() {
    let bytes = compressed_bytes();
    let clean = CompressedReader::open(MemorySource::new(bytes.clone())).unwrap();
    let wrapped = CompressedReader::open(FaultySource::new(MemorySource::new(bytes))).unwrap();
    assert_eq!(clean.meta(), wrapped.meta());
    for b in 0..clean.num_blocks() {
        assert_eq!(
            clean.decode_block(b).unwrap().nets,
            wrapped.decode_block(b).unwrap().nets
        );
    }
}

#[test]
fn failed_reads_surface_as_errors_not_panics() {
    let bytes = compressed_bytes();
    // Fail each of the first few reads in turn: whether the trailer, the
    // index or a block read dies, open/decode must answer Err.
    for n in 0..4 {
        let source = FaultySource::new(MemorySource::new(bytes.clone())).fail_read(n);
        let outcome = CompressedReader::open(source).and_then(|r| {
            for b in 0..r.num_blocks() {
                r.decode_block(b)?;
            }
            Ok(())
        });
        assert!(outcome.is_err(), "injected failure at read {n} undetected");
    }
}

#[test]
fn short_reads_of_the_payload_are_detected_structurally() {
    let bytes = compressed_bytes();
    // Reads 0 and 1 are the trailer and index; later reads fetch block
    // payloads. A short block read leaves garbage in the buffer tail,
    // which the strict varint decoding must reject.
    let source = FaultySource::new(MemorySource::new(bytes)).short_read(2);
    let outcome = CompressedReader::open(source).and_then(|r| {
        for b in 0..r.num_blocks() {
            r.decode_block(b)?;
        }
        Ok(())
    });
    match outcome {
        Err(FormatError::Corrupt(_)) | Err(FormatError::Io(_)) => {}
        other => panic!("short read slipped through: {other:?}"),
    }
}

#[test]
fn bit_flips_in_block_payloads_do_not_crash_the_decoder() {
    let bytes = compressed_bytes();
    let clean = CompressedReader::open(MemorySource::new(bytes.clone())).unwrap();
    let expected: Vec<_> = (0..clean.num_blocks())
        .map(|b| clean.decode_block(b).unwrap().nets)
        .collect();
    // Flip one byte inside the first block's payload (blocks start right
    // after the 40-byte header). Decoding must either error or produce a
    // different pin list — a flip that decodes to the clean pins would
    // mean the corruption went undetected *and* unexpressed.
    let entry = clean.blocks()[0];
    assert!(entry.len > 0);
    let source = FaultySource::new(MemorySource::new(bytes)).flip_bits(entry.offset, 0x40);
    let reader = CompressedReader::open(source).unwrap();
    match reader.decode_block(0) {
        Err(_) => {}
        Ok(block) => assert_ne!(block.nets, expected[0], "flip produced identical nets"),
    }
}

#[test]
fn vertex_counts_no_payload_backs_are_refused_at_open() {
    // An unweighted file whose header claims 4·10⁹ vertices (offset 16) or
    // pins (offset 32): opening must answer a structured error instead of
    // letting a reader size arrays from the count and abort on allocation.
    for offset in [16usize, 32] {
        let mut bytes = compressed_bytes();
        bytes[offset..offset + 8].copy_from_slice(&4_000_000_000u64.to_le_bytes());
        match CompressedReader::open(MemorySource::new(bytes)) {
            Err(FormatError::Corrupt(message)) => {
                assert!(message.contains("payload bytes"), "{message}")
            }
            Err(other) => panic!("offset {offset}: expected Corrupt, got {other}"),
            Ok(_) => panic!("offset {offset}: an unbacked count was accepted"),
        }
    }
}
