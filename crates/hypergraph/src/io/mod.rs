//! Reading and writing hypergraphs in common on-disk formats.
//!
//! * [`hmetis`] — the hMetis / PaToH / KaHyPar `.hgr` text format used by the
//!   paper's benchmark collection,
//! * [`matrix_market`] — MatrixMarket `.mtx` coordinate files (SuiteSparse
//!   matrices), converted with the row-net or column-net model,
//! * [`edgelist`] — a trivial one-hyperedge-per-line format used by the
//!   examples,
//! * [`stream`] — out-of-core streaming access: edge-major per-net visitors
//!   and vertex-major [`stream::VertexStream`] readers that never
//!   materialise the CSR structure (the substrate of `hyperpraw-lowmem`).
//!
//! All readers are generic over [`std::io::BufRead`] so tests can use
//! in-memory cursors, with `*_file` convenience wrappers for paths.
//!
//! # Beyond text formats: the block-compressed CSR
//!
//! [`stream::VertexStream`] is deliberately the *only* contract the
//! streaming engines know about, so vertex records can come from more than
//! a local text transpose. The `hyperpraw-storage` crate implements the
//! other end of that contract: a block-compressed vertex-major CSR file
//! format (`.hpz`, delta-varint pin lists in independently decodable
//! fixed-target-size blocks behind a footer index — the full byte-level
//! layout diagram lives in that crate's docs), read through a pluggable
//! `ByteSource` trait (anything offering ranged byte reads: a local file,
//! an in-memory buffer, a chunk-granular caching wrapper) and surfaced
//! back here as a `VertexStream`. Its prefetching mode decodes block
//! `N + 1` on a background thread into a double buffer while the consumer
//! drains block `N`, and honours this module's reset contract: after
//! [`stream::VertexStream::reset`] the stream restarts at vertex 0 and
//! yields the identical record sequence, so multi-pass restreaming
//! drivers work unchanged over compressed files.

use std::collections::TryReserveError;
use std::fmt;
use std::io;

use crate::{Hypergraph, HypergraphBuilder};

pub mod edgelist;
pub mod hmetis;
pub mod matrix_market;
pub mod stream;

/// Upper bound on the capacity a reader reserves from a count its input
/// declares. Header counts are untrusted — a 20-byte file can claim 10^14
/// hyperedges — so readers reserve at most this many entries up front and
/// let collections grow on demand past it.
const MAX_CAPACITY_HINT: usize = 1 << 16;

/// A header-declared count, clamped to a capacity worth reserving.
pub(crate) fn capacity_hint(declared: usize) -> usize {
    declared.min(MAX_CAPACITY_HINT)
}

/// The next of `lines` (a reader's numbered lines) that is neither blank
/// nor a `%` comment, trimmed, with its 1-based line number.
pub(crate) fn next_data_line(
    lines: &mut impl Iterator<Item = (usize, io::Result<String>)>,
) -> IoResult<Option<(usize, String)>> {
    for (i, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('%') {
            return Ok(Some((i + 1, trimmed.to_string())));
        }
    }
    Ok(None)
}

/// Parses the next of `tokens`, a whitespace-split field of line
/// `line_no`, naming `what` in the error when it is missing or malformed.
pub(crate) fn field<T: std::str::FromStr>(
    tokens: &mut std::str::SplitWhitespace<'_>,
    line_no: usize,
    what: &str,
) -> IoResult<T> {
    tokens
        .next()
        .ok_or_else(|| IoError::parse(line_no, format!("missing {what}")))?
        .parse()
        .map_err(|_| IoError::parse(line_no, format!("invalid {what}")))
}

/// Checks a header-declared count of ids against the `u32` id space
/// ([`crate::VertexId`], [`crate::HyperedgeId`]): a larger count cannot be
/// addressed, so it is a parse error rather than an allocation attempt.
pub(crate) fn id_count(declared: usize, line: usize, what: &str) -> IoResult<usize> {
    if declared > u32::MAX as usize {
        return Err(IoError::parse(
            line,
            format!("{what} {declared} exceeds the u32 id space"),
        ));
    }
    Ok(declared)
}

/// Errors arising while reading a hypergraph file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file contents could not be parsed.
    Parse {
        /// 1-based line number where the problem was found.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl IoError {
    /// A parse error at a 1-based line number (0 when no line applies).
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        Self::Parse {
            line,
            message: message.into(),
        }
    }

    /// An I/O error of kind [`io::ErrorKind::OutOfMemory`]: `what` — an
    /// array sized by a count the input declared — could not be
    /// allocated.
    pub fn out_of_memory(what: &str, cause: TryReserveError) -> Self {
        Self::Io(io::Error::new(
            io::ErrorKind::OutOfMemory,
            format!("cannot allocate {what}: {cause}"),
        ))
    }
}

/// Builds `builder`'s hypergraph, reporting per-vertex arrays that cannot
/// be allocated as an error: a header can declare billions of vertices in
/// a few bytes.
pub(crate) fn try_build(builder: HypergraphBuilder) -> IoResult<Hypergraph> {
    let n = builder.num_vertices();
    builder
        .try_build()
        .map_err(|e| IoError::out_of_memory(&format!("{n} vertices"), e))
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Result alias for hypergraph IO.
pub type IoResult<T> = Result<T, IoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_display_mentions_line() {
        let e = IoError::parse(7, "bad token");
        let s = format!("{e}");
        assert!(s.contains("line 7"));
        assert!(s.contains("bad token"));
    }

    #[test]
    fn unallocatable_vertex_counts_are_an_out_of_memory_error() {
        let err = try_build(HypergraphBuilder::new(usize::MAX / 4)).unwrap_err();
        assert!(matches!(&err, IoError::Io(e) if e.kind() == io::ErrorKind::OutOfMemory));
        assert!(format!("{err}").contains("cannot allocate"));
    }

    #[test]
    fn io_error_wraps_source() {
        let e: IoError = io::Error::new(io::ErrorKind::NotFound, "missing").into();
        assert!(format!("{e}").contains("missing"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
