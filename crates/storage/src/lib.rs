//! Block-compressed out-of-core storage for vertex-major hypergraph CSR.
//!
//! This crate is the data path for inputs past RAM-resident pin counts:
//! a compact on-disk format, a pluggable byte-range abstraction, and a
//! prefetching reader that overlaps block decode with engine compute.
//! The reader surfaces the file as a
//! [`hyperpraw_hypergraph::io::stream::VertexStream`], so the whole
//! restreaming stack — `StreamSource`, the lowmem multi-pass and threaded
//! drivers, `PartitionJob::run_stream` — works over compressed files
//! unchanged.
//!
//! # File format (`.hpz`, version 1)
//!
//! Vertex-major: each record is one vertex's incident-net (pin) list,
//! delta-varint encoded, grouped into independently decodable blocks.
//! All multi-byte integers outside varints are little-endian.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────┐
//! │ header (40 bytes)                                              │
//! │   magic            8  b"HPZCSR01"                              │
//! │   flags            u32  bit0 = explicit vertex weights present │
//! │   block_target     u32  writer's target encoded bytes / block  │
//! │   num_vertices     u64                                         │
//! │   num_nets         u64                                         │
//! │   num_pins         u64                                         │
//! ├────────────────────────────────────────────────────────────────┤
//! │ block 0 │ block 1 │ … │ block B-1        (back to back)        │
//! │   per vertex, in ascending vertex order:                       │
//! │     varint(degree)                                             │
//! │     varint(pins[0]), varint(pins[i] - pins[i-1]) …             │
//! │   (pin lists are sorted ascending and deduplicated, so every   │
//! │    gap varint is ≥ 1; varints are LEB128, 7 bits per byte)     │
//! ├────────────────────────────────────────────────────────────────┤
//! │ weights (optional, flags bit0): num_vertices × f64 LE          │
//! ├────────────────────────────────────────────────────────────────┤
//! │ block index: per block                                         │
//! │   first_vertex u64 │ byte_offset u64 │ byte_len u64            │
//! ├────────────────────────────────────────────────────────────────┤
//! │ trailer (32 bytes, fixed position at EOF)                      │
//! │   num_blocks u64 │ index_offset u64 │ weights_offset u64       │
//! │   magic 8  b"HPZCEND1"        (weights_offset == 0 → none)     │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! A block covers the contiguous vertex range
//! `index[b].first_vertex .. index[b+1].first_vertex` (the last block
//! runs to `num_vertices`) and decodes with no context beyond its own
//! bytes plus that range — random access, mmap windows, and parallel or
//! remote fetches all fall out of the footer index. The trailer sits at
//! a fixed offset from EOF so a reader needs exactly two ranged reads
//! (trailer, then index) before it can serve any block.
//!
//! # Byte sources
//!
//! [`ByteSource`] is the one IO primitive: read a byte range at an
//! offset. [`FileSource`] serves local files via positioned reads,
//! [`MemorySource`] serves an in-memory buffer (and stands in for a
//! future remote ranged-fetch source in tests), and [`CachingSource`]
//! wraps any source with a chunk-granular LRU so repeated passes over
//! the same blocks — restreaming's normal access pattern — hit memory.
//! [`FaultySource`] wraps any source with injected read faults (outright
//! failures, short reads, bit flips) so the decode paths above — block
//! reads here, journal replay in `hyperpraw-dynamic` — can be tested
//! against storage that lies.
//!
//! # Prefetch contract
//!
//! [`CompressedVertexStream`] in [`ReadMode::Prefetch`] runs a
//! background thread that reads and decodes block N+1 while the engine
//! consumes block N (a double buffer: one decoded block in flight in a
//! bounded channel, one being consumed). `reset()` tears the worker
//! down and respawns it at block 0, so every restreaming pass sees the
//! identical vertex order; decode errors are carried across the channel
//! and surface as `Err` from `next_into`, never as a panic or a lost
//! worker. [`ReadMode::Sync`] decodes on the caller's thread and is
//! bit-identical — equivalence tests pin both against the uncompressed
//! transpose readers.

mod checksum;
mod convert;
mod fault;
mod format;
mod reader;
mod source;
mod varint;

pub use checksum::crc32;
pub use convert::{
    convert_file, is_compressed_file, write_from_stream, write_hypergraph,
    DEFAULT_BLOCK_TARGET_BYTES,
};
pub use fault::FaultySource;
pub use format::{BlockEntry, FileMeta, FormatError, COMPRESSED_EXTENSION, MAGIC_HEADER};
pub use reader::{CompressedReader, CompressedVertexStream, DecodedBlock, ReadMode};
pub use source::{ByteSource, CacheStats, CachingSource, FileSource, MemorySource};
pub use varint::{decode_u64, encode_u64};
