//! On-disk layout of the block-compressed CSR format: header/trailer
//! framing, the block index, and validation. The byte-level layout
//! diagram lives in the crate docs ([`crate`]).

use std::fmt;
use std::io;

/// Leading 8-byte magic of a compressed CSR file.
pub const MAGIC_HEADER: &[u8; 8] = b"HPZCSR01";
/// Trailing 8-byte magic (last bytes of the file).
pub const MAGIC_TRAILER: &[u8; 8] = b"HPZCEND1";
/// Conventional file extension for the format.
pub const COMPRESSED_EXTENSION: &str = "hpz";

/// Fixed header size in bytes.
pub const HEADER_LEN: u64 = 40;
/// Fixed trailer size in bytes.
pub const TRAILER_LEN: u64 = 32;
/// Bytes per block-index entry (`first_vertex`, `offset`, `len`).
pub const INDEX_ENTRY_LEN: u64 = 24;

/// Header flag bit: an explicit per-vertex weight section is present.
pub const FLAG_WEIGHTS: u32 = 1;

/// Errors raised while parsing or validating a compressed file.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structural problem in the file (bad magic, corrupt index, …).
    Corrupt(String),
}

impl FormatError {
    pub(crate) fn corrupt(message: impl Into<String>) -> Self {
        Self::Corrupt(message.into())
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Corrupt(m) => write!(f, "corrupt compressed file: {m}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FormatError> for io::Error {
    fn from(e: FormatError) -> Self {
        match e {
            FormatError::Io(inner) => inner,
            FormatError::Corrupt(m) => io::Error::new(io::ErrorKind::InvalidData, m),
        }
    }
}

/// Parsed header + trailer of a compressed file: everything needed to
/// locate and decode blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// Number of vertices (vertex-major records) in the file.
    pub num_vertices: u64,
    /// Number of nets the pin ids index into.
    pub num_nets: u64,
    /// Total pin count across all vertices.
    pub num_pins: u64,
    /// The writer's target encoded bytes per block.
    pub block_target_bytes: u32,
    /// Whether an explicit weight section is present.
    pub has_weights: bool,
    /// Number of blocks.
    pub num_blocks: u64,
    /// Absolute byte offset of the block index.
    pub index_offset: u64,
    /// Absolute byte offset of the weight section (0 when absent).
    pub weights_offset: u64,
}

/// One entry of the footer block index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEntry {
    /// First vertex id covered by the block.
    pub first_vertex: u64,
    /// Absolute byte offset of the block's encoded bytes.
    pub offset: u64,
    /// Encoded length of the block in bytes.
    pub len: u64,
}

pub(crate) fn write_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn write_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

pub(crate) fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// Encodes the fixed header.
pub(crate) fn encode_header(
    num_vertices: u64,
    num_nets: u64,
    num_pins: u64,
    block_target_bytes: u32,
    has_weights: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN as usize);
    out.extend_from_slice(MAGIC_HEADER);
    write_u32(&mut out, if has_weights { FLAG_WEIGHTS } else { 0 });
    write_u32(&mut out, block_target_bytes);
    write_u64(&mut out, num_vertices);
    write_u64(&mut out, num_nets);
    write_u64(&mut out, num_pins);
    debug_assert_eq!(out.len() as u64, HEADER_LEN);
    out
}

/// Encodes the fixed trailer.
pub(crate) fn encode_trailer(num_blocks: u64, index_offset: u64, weights_offset: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(TRAILER_LEN as usize);
    write_u64(&mut out, num_blocks);
    write_u64(&mut out, index_offset);
    write_u64(&mut out, weights_offset);
    out.extend_from_slice(MAGIC_TRAILER);
    debug_assert_eq!(out.len() as u64, TRAILER_LEN);
    out
}

/// Parses header + trailer bytes into a validated [`FileMeta`].
pub(crate) fn parse_meta(
    header: &[u8],
    trailer: &[u8],
    file_len: u64,
) -> Result<FileMeta, FormatError> {
    if header.len() as u64 != HEADER_LEN || trailer.len() as u64 != TRAILER_LEN {
        return Err(FormatError::corrupt("short header or trailer"));
    }
    if &header[..8] != MAGIC_HEADER {
        return Err(FormatError::corrupt("bad header magic"));
    }
    if &trailer[24..32] != MAGIC_TRAILER {
        return Err(FormatError::corrupt("bad trailer magic"));
    }
    let flags = read_u32(header, 8);
    if flags & !FLAG_WEIGHTS != 0 {
        return Err(FormatError::corrupt(format!("unknown flags {flags:#x}")));
    }
    let meta = FileMeta {
        block_target_bytes: read_u32(header, 12),
        num_vertices: read_u64(header, 16),
        num_nets: read_u64(header, 24),
        num_pins: read_u64(header, 32),
        has_weights: flags & FLAG_WEIGHTS != 0,
        num_blocks: read_u64(trailer, 0),
        index_offset: read_u64(trailer, 8),
        weights_offset: read_u64(trailer, 16),
    };
    let index_len = meta
        .num_blocks
        .checked_mul(INDEX_ENTRY_LEN)
        .ok_or_else(|| FormatError::corrupt("block count overflows index size"))?;
    let index_end = meta
        .index_offset
        .checked_add(index_len)
        .ok_or_else(|| FormatError::corrupt("index extends past u64"))?;
    if meta.index_offset < HEADER_LEN || index_end != file_len.saturating_sub(TRAILER_LEN) {
        return Err(FormatError::corrupt("index does not abut the trailer"));
    }
    if meta.has_weights {
        let weights_len = meta
            .num_vertices
            .checked_mul(8)
            .ok_or_else(|| FormatError::corrupt("weight section overflows u64"))?;
        let end = meta
            .weights_offset
            .checked_add(weights_len)
            .ok_or_else(|| FormatError::corrupt("weight section extends past u64"))?;
        if meta.weights_offset < HEADER_LEN || end > meta.index_offset {
            return Err(FormatError::corrupt("weight section out of bounds"));
        }
    } else if meta.weights_offset != 0 {
        return Err(FormatError::corrupt(
            "weights offset set without weights flag",
        ));
    }
    if meta.num_vertices > 0 && meta.num_blocks == 0 {
        return Err(FormatError::corrupt("vertices present but zero blocks"));
    }
    // Every vertex record holds at least its one-byte degree varint and
    // every pin at least one gap byte, so neither count can exceed the
    // block payload: counts no data backs are refused before anything is
    // sized from them.
    let data_end = if meta.has_weights {
        meta.weights_offset
    } else {
        meta.index_offset
    };
    let payload = data_end - HEADER_LEN;
    if meta.num_vertices > payload || meta.num_pins > payload {
        return Err(FormatError::corrupt(format!(
            "{} vertices and {} pins cannot fit {payload} payload bytes",
            meta.num_vertices, meta.num_pins
        )));
    }
    Ok(meta)
}

/// Parses the raw index section into validated [`BlockEntry`]s: ranges
/// must be ascending, contiguous in bytes, and inside the data region.
pub(crate) fn parse_index(meta: &FileMeta, raw: &[u8]) -> Result<Vec<BlockEntry>, FormatError> {
    if raw.len() as u64 != meta.num_blocks * INDEX_ENTRY_LEN {
        return Err(FormatError::corrupt("index section length mismatch"));
    }
    let data_end = if meta.has_weights {
        meta.weights_offset
    } else {
        meta.index_offset
    };
    let mut entries: Vec<BlockEntry> = Vec::with_capacity(meta.num_blocks as usize);
    let mut expected_offset = HEADER_LEN;
    for b in 0..meta.num_blocks as usize {
        let at = b * INDEX_ENTRY_LEN as usize;
        let entry = BlockEntry {
            first_vertex: read_u64(raw, at),
            offset: read_u64(raw, at + 8),
            len: read_u64(raw, at + 16),
        };
        if entry.offset != expected_offset {
            return Err(FormatError::corrupt(format!(
                "block {b} offset {} does not follow previous block (expected {expected_offset})",
                entry.offset
            )));
        }
        let end = entry
            .offset
            .checked_add(entry.len)
            .ok_or_else(|| FormatError::corrupt("block extends past u64"))?;
        if end > data_end {
            return Err(FormatError::corrupt(format!(
                "block {b} extends past the data region"
            )));
        }
        if b == 0 {
            if entry.first_vertex != 0 {
                return Err(FormatError::corrupt(
                    "first block does not start at vertex 0",
                ));
            }
        } else if entry.first_vertex <= entries[b - 1].first_vertex {
            return Err(FormatError::corrupt("block vertex ranges not ascending"));
        }
        if entry.first_vertex >= meta.num_vertices {
            return Err(FormatError::corrupt("block starts past the vertex count"));
        }
        expected_offset = end;
        entries.push(entry);
    }
    Ok(entries)
}
