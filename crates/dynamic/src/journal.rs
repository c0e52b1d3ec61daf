//! Crash-safe persistence for [`DynamicPartitioner`] sessions: a
//! write-ahead journal of accepted update batches plus periodic binary
//! snapshots, with recovery that replays the journal tail and discards
//! torn or corrupt records instead of applying them.
//!
//! # On-disk layout
//!
//! A state directory holds at most four files:
//!
//! * `snapshot.bin` — the last durable snapshot: the full partitioner
//!   state (hypergraph with tombstones, assignment, cost matrix,
//!   configuration) plus an opaque caller-owned `meta` blob, CRC-guarded.
//! * `journal.log` — the write-ahead journal: every batch accepted
//!   *after* that snapshot, appended and fsynced before the caller sees
//!   the batch acknowledged.
//! * `snapshot.tmp` / `journal.new` — rotation scratch, never read.
//!
//! All multi-byte integers are little-endian; variable-length integers
//! use the same LEB128 encoding as the `.hpz` block format
//! ([`hyperpraw_storage::encode_u64`]); `f64`s are serialised via
//! [`f64::to_bits`], so round-trips are bit-exact.
//!
//! ```text
//! snapshot.bin: magic b"HPJSNAP1" | version u32 | payload_len u64
//!               | crc32(payload) u32 | payload
//!     payload:  varint epoch | varint meta_len | meta bytes | state
//! journal.log:  magic b"HPJLOG01" | epoch u64
//!               | record*   record: len u32 | crc32(payload) u32 | payload
//!     payload:  one encoded update batch (varint count + records)
//! ```
//!
//! # Epoch rotation — why double replay cannot happen
//!
//! The classic failure of "write snapshot, then truncate journal" is the
//! crash between the two: the next recovery replays batches that the
//! snapshot already contains. Here every journal carries an *epoch* and
//! every snapshot records the epoch of the journal that goes with it.
//! [`StateDir::write_snapshot`] performs, in order:
//!
//! 1. write `journal.new` with epoch *E+1* (header only, synced),
//! 2. write `snapshot.tmp` with epoch *E+1*, sync, rename over
//!    `snapshot.bin` (atomic),
//! 3. rename `journal.new` over `journal.log`.
//!
//! A crash before step 2's rename leaves the old snapshot with the old
//! journal — consistent. A crash between 2 and 3 leaves the *new*
//! snapshot with the *old* journal, whose epoch no longer matches: its
//! records are recognised as already-folded-in and ignored. There is no
//! interleaving in which a record is replayed twice, and no file is ever
//! truncated in place.
//!
//! # Recovery
//!
//! [`StateDir::open`] loads the newest valid snapshot, then replays the
//! journal **only** if its epoch matches. Replay stops at the first
//! record whose length frame, CRC or payload decoding fails — a torn
//! write from the crash, or bytes damaged afterwards — and everything
//! from that point on is dropped, never applied. After any replay or
//! tail truncation the directory is immediately re-snapshotted and
//! rotated, so the damage cannot be re-read on the next start. The
//! [`RecoveryStats`] returned alongside say exactly what happened.
//!
//! A snapshot or journal whose *header* does not parse is a hard
//! [`JournalError::Corrupt`]: unlike a torn tail, a damaged root means
//! the directory cannot be trusted at all, and silently starting empty
//! would present data loss as success.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use hyperpraw_core::{HyperPrawConfig, RefinementPolicy, StreamOrder};
use hyperpraw_hypergraph::{HypergraphBuilder, MutableHypergraph, Partition, VertexId};
use hyperpraw_storage::{crc32, decode_u64, encode_u64, ByteSource, MemorySource};
use hyperpraw_telemetry::{Histogram, Registry};
use hyperpraw_topology::CostMatrix;

use crate::{DynamicConfig, DynamicPartitioner, GraphUpdate};

/// Magic opening `snapshot.bin`.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HPJSNAP1";
/// Magic opening `journal.log`.
pub const JOURNAL_MAGIC: &[u8; 8] = b"HPJLOG01";
/// Snapshot format version written (and the only one read).
pub const SNAPSHOT_VERSION: u32 = 1;
/// Size of the journal file header (magic + epoch).
pub const JOURNAL_HEADER_BYTES: u64 = 16;
/// Upper bound on a single journal record payload. Anything larger is
/// treated as frame damage (a bit flip in the length field), not data.
pub const MAX_RECORD_BYTES: u32 = 1 << 28;

const SNAPSHOT_FILE: &str = "snapshot.bin";
const JOURNAL_FILE: &str = "journal.log";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const JOURNAL_TMP: &str = "journal.new";

/// Why a persistence operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The operating system refused an IO operation.
    Io(String),
    /// Bytes on disk do not form a valid snapshot or journal (beyond the
    /// tolerated torn tail of a journal).
    Corrupt(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal io error: {msg}"),
            JournalError::Corrupt(msg) => write!(f, "corrupt state dir: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

fn corrupt(msg: impl Into<String>) -> JournalError {
    JournalError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------------------

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A strict little decoder over an in-memory payload; every method
/// answers [`JournalError::Corrupt`] on truncation or malformed bytes.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn truncated(&self) -> JournalError {
        corrupt(format!("{} truncated at byte {}", self.what, self.pos))
    }

    fn varint(&mut self) -> Result<u64, JournalError> {
        decode_u64(self.buf, &mut self.pos).ok_or_else(|| self.truncated())
    }

    fn varint_usize(&mut self) -> Result<usize, JournalError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| corrupt(format!("{}: length {v} overflows", self.what)))
    }

    fn id(&mut self) -> Result<u32, JournalError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| corrupt(format!("{}: id {v} exceeds u32", self.what)))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        if end > self.buf.len() {
            return Err(self.truncated());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.bytes(1)?[0])
    }

    fn f64(&mut self) -> Result<f64, JournalError> {
        let b: [u8; 8] = self.bytes(8)?.try_into().unwrap();
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    fn u64_le(&mut self) -> Result<u64, JournalError> {
        let b: [u8; 8] = self.bytes(8)?.try_into().unwrap();
        Ok(u64::from_le_bytes(b))
    }

    /// Bytes not yet decoded.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(&self) -> Result<(), JournalError> {
        if self.pos != self.buf.len() {
            return Err(corrupt(format!(
                "{}: {} trailing bytes after decode",
                self.what,
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_bitset(out: &mut Vec<u8>, flags: &[bool]) {
    let mut byte = 0u8;
    for (i, &f) in flags.iter().enumerate() {
        if f {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !flags.len().is_multiple_of(8) {
        out.push(byte);
    }
}

fn get_bitset(dec: &mut Dec<'_>, n: usize) -> Result<Vec<bool>, JournalError> {
    let bytes = dec.bytes(n.div_ceil(8))?;
    Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
}

// ---------------------------------------------------------------------------
// Update batch encoding (journal record payloads)
// ---------------------------------------------------------------------------

const TAG_ADD_VERTEX: u8 = 0;
const TAG_REMOVE_VERTEX: u8 = 1;
const TAG_ADD_HYPEREDGE: u8 = 2;
const TAG_REMOVE_HYPEREDGE: u8 = 3;
const TAG_ADD_PIN: u8 = 4;
const TAG_REMOVE_PIN: u8 = 5;

/// Serialises one accepted batch as a journal record payload.
pub fn encode_batch(updates: &[GraphUpdate]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + updates.len() * 8);
    encode_u64(updates.len() as u64, &mut out);
    for u in updates {
        match u {
            GraphUpdate::AddVertex { weight } => {
                out.push(TAG_ADD_VERTEX);
                put_f64(&mut out, *weight);
            }
            GraphUpdate::RemoveVertex { vertex } => {
                out.push(TAG_REMOVE_VERTEX);
                encode_u64(u64::from(*vertex), &mut out);
            }
            GraphUpdate::AddHyperedge { pins, weight } => {
                out.push(TAG_ADD_HYPEREDGE);
                encode_u64(pins.len() as u64, &mut out);
                for &p in pins {
                    encode_u64(u64::from(p), &mut out);
                }
                put_f64(&mut out, *weight);
            }
            GraphUpdate::RemoveHyperedge { edge } => {
                out.push(TAG_REMOVE_HYPEREDGE);
                encode_u64(u64::from(*edge), &mut out);
            }
            GraphUpdate::AddPin { edge, vertex } => {
                out.push(TAG_ADD_PIN);
                encode_u64(u64::from(*edge), &mut out);
                encode_u64(u64::from(*vertex), &mut out);
            }
            GraphUpdate::RemovePin { edge, vertex } => {
                out.push(TAG_REMOVE_PIN);
                encode_u64(u64::from(*edge), &mut out);
                encode_u64(u64::from(*vertex), &mut out);
            }
        }
    }
    out
}

/// Decodes a journal record payload back into the batch it framed.
/// Strict: every byte must be consumed.
pub fn decode_batch(payload: &[u8]) -> Result<Vec<GraphUpdate>, JournalError> {
    let mut dec = Dec::new(payload, "journal batch");
    let count = dec.varint_usize()?;
    if count > payload.len() {
        return Err(corrupt(format!(
            "journal batch claims {count} updates in {} bytes",
            payload.len()
        )));
    }
    let mut updates = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = dec.u8()?;
        updates.push(match tag {
            TAG_ADD_VERTEX => GraphUpdate::AddVertex { weight: dec.f64()? },
            TAG_REMOVE_VERTEX => GraphUpdate::RemoveVertex { vertex: dec.id()? },
            TAG_ADD_HYPEREDGE => {
                let n = dec.varint_usize()?;
                if n > payload.len() {
                    return Err(corrupt(format!("pin list claims {n} pins")));
                }
                let mut pins = Vec::with_capacity(n);
                for _ in 0..n {
                    pins.push(dec.id()?);
                }
                GraphUpdate::AddHyperedge {
                    pins,
                    weight: dec.f64()?,
                }
            }
            TAG_REMOVE_HYPEREDGE => GraphUpdate::RemoveHyperedge { edge: dec.id()? },
            TAG_ADD_PIN => GraphUpdate::AddPin {
                edge: dec.id()?,
                vertex: dec.id()?,
            },
            TAG_REMOVE_PIN => GraphUpdate::RemovePin {
                edge: dec.id()?,
                vertex: dec.id()?,
            },
            other => return Err(corrupt(format!("unknown update tag {other}"))),
        });
    }
    dec.finish()?;
    Ok(updates)
}

// ---------------------------------------------------------------------------
// Partitioner state encoding (snapshot payloads)
// ---------------------------------------------------------------------------

/// Two retired configuration fields still hold their place in the state:
/// an adjacency staleness threshold (`f64`) and an adjacency budget (a tag,
/// with a varint for the two tags that carried a size). The dynamic layer
/// no longer keeps an adjacency, so the encoder writes the old defaults
/// (`0.25`, [`BUDGET_AUTO`]) and the decoder checks and ignores them.
const RETIRED_STALENESS_THRESHOLD: f64 = 0.25;
const BUDGET_UNBOUNDED: u8 = 0;
const BUDGET_MAX_BYTES: u8 = 1;
const BUDGET_DEGREE_CUTOFF: u8 = 2;
const BUDGET_AUTO: u8 = 3;

/// The last byte of the state: once the in-memory provider selection
/// (`0` CSR traversal, `1` unbounded adjacency, `2` auto-budgeted
/// adjacency), now always written as `2`. Every selection partitioned bit
/// for bit alike, so the decoder accepts all three and ignores the value.
const CONNECTIVITY_AUTO: u8 = 2;

fn encode_state(out: &mut Vec<u8>, p: &DynamicPartitioner) {
    let graph = p.graph();
    let hg = p.hypergraph();
    let n = hg.num_vertices();
    let m = hg.num_hyperedges();

    let name = hg.name().as_bytes();
    encode_u64(name.len() as u64, out);
    out.extend_from_slice(name);

    encode_u64(n as u64, out);
    for v in 0..n {
        put_f64(out, hg.vertex_weight(v as VertexId));
    }
    put_bitset(out, graph.vertex_alive_flags());

    encode_u64(m as u64, out);
    for e in 0..m {
        let pins = hg.pins(e as u32);
        encode_u64(pins.len() as u64, out);
        for &pin in pins {
            encode_u64(u64::from(pin), out);
        }
        put_f64(out, hg.edge_weight(e as u32));
    }
    put_bitset(out, graph.edge_alive_flags());

    let partition = p.partition();
    encode_u64(u64::from(partition.num_parts()), out);
    for &part in partition.assignment() {
        encode_u64(u64::from(part), out);
    }

    let cost = p.cost();
    let units = cost.num_units();
    encode_u64(units as u64, out);
    for i in 0..units {
        for j in 0..units {
            put_f64(out, cost.get(i, j));
        }
    }

    let cfg = p.config();
    put_f64(out, RETIRED_STALENESS_THRESHOLD);
    out.push(BUDGET_AUTO);

    let hp = &cfg.config;
    match hp.initial_alpha {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            put_f64(out, a);
        }
    }
    put_f64(out, hp.tempering_factor);
    match hp.refinement {
        RefinementPolicy::None => out.push(0),
        RefinementPolicy::Factor(f) => {
            out.push(1);
            put_f64(out, f);
        }
    }
    put_f64(out, hp.imbalance_tolerance);
    encode_u64(hp.max_iterations as u64, out);
    out.push(match hp.stream_order {
        StreamOrder::Natural => 0,
        StreamOrder::Random => 1,
        StreamOrder::DegreeDescending => 2,
    });
    put_u64_le(out, hp.seed);
    // The byte of a retired history switch: history is always recorded.
    out.push(1);
    out.push(CONNECTIVITY_AUTO);
}

fn decode_state(dec: &mut Dec<'_>) -> Result<DynamicPartitioner, JournalError> {
    let name_len = dec.varint_usize()?;
    if name_len > dec.buf.len() {
        return Err(corrupt(format!("snapshot name claims {name_len} bytes")));
    }
    let name = String::from_utf8(dec.bytes(name_len)?.to_vec())
        .map_err(|_| corrupt("snapshot name is not UTF-8"))?;

    let n = dec.varint_usize()?;
    if n > u32::MAX as usize {
        return Err(corrupt(format!("snapshot claims {n} vertices")));
    }
    let mut vertex_weights = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let w = dec.f64()?;
        if !w.is_finite() || w < 0.0 {
            return Err(corrupt(format!("non-finite or negative vertex weight {w}")));
        }
        vertex_weights.push(w);
    }
    let vertex_alive = get_bitset(dec, n)?;

    let m = dec.varint_usize()?;
    if m > u32::MAX as usize {
        return Err(corrupt(format!("snapshot claims {m} hyperedges")));
    }
    let mut builder = HypergraphBuilder::new(n);
    builder.name(name);
    for e in 0..m {
        let pin_count = dec.varint_usize()?;
        if pin_count > n {
            return Err(corrupt(format!(
                "hyperedge {e} claims {pin_count} pins over {n} vertices"
            )));
        }
        let mut pins = Vec::with_capacity(pin_count);
        for _ in 0..pin_count {
            let pin = dec.id()?;
            if pin as usize >= n {
                return Err(corrupt(format!("hyperedge {e} pins missing vertex {pin}")));
            }
            pins.push(pin);
        }
        let w = dec.f64()?;
        if !w.is_finite() || w < 0.0 {
            return Err(corrupt(format!("non-finite or negative edge weight {w}")));
        }
        builder.add_weighted_hyperedge(pins, w);
    }
    for (v, &w) in vertex_weights.iter().enumerate() {
        if w != 1.0 {
            builder.set_vertex_weight(v as VertexId, w);
        }
    }
    let edge_alive = get_bitset(dec, m)?;
    let graph = MutableHypergraph::from_snapshot(builder.build(), vertex_alive, edge_alive)
        .map_err(corrupt)?;

    let num_parts = dec.id()?;
    let mut assignment = Vec::with_capacity(n);
    for _ in 0..n {
        assignment.push(dec.id()?);
    }
    let partition = Partition::from_assignment(assignment, num_parts)
        .map_err(|e| corrupt(format!("snapshot assignment invalid: {e}")))?;

    let units = dec.varint_usize()?;
    if units != num_parts as usize {
        return Err(corrupt(format!(
            "cost matrix covers {units} units but the partition has {num_parts} parts"
        )));
    }
    // Each entry takes 8 payload bytes: a count the payload cannot hold is
    // refused before anything is reserved for it.
    let entries = units
        .checked_mul(units)
        .filter(|&entries| entries <= dec.remaining() / 8)
        .ok_or_else(|| {
            corrupt(format!(
                "cost matrix of {units} units overruns the snapshot"
            ))
        })?;
    let mut cost_data = Vec::with_capacity(entries);
    for _ in 0..entries {
        let c = dec.f64()?;
        if !c.is_finite() || c < 0.0 {
            return Err(corrupt(format!("non-finite or negative comm cost {c}")));
        }
        cost_data.push(c);
    }
    let cost = CostMatrix::from_raw(units, cost_data);

    dec.f64()?; // the retired staleness threshold
    match dec.u8()? {
        BUDGET_UNBOUNDED | BUDGET_AUTO => {}
        BUDGET_MAX_BYTES | BUDGET_DEGREE_CUTOFF => {
            dec.varint_usize()?;
        }
        other => return Err(corrupt(format!("unknown adjacency budget tag {other}"))),
    }
    let initial_alpha = match dec.u8()? {
        0 => None,
        1 => Some(dec.f64()?),
        other => return Err(corrupt(format!("unknown initial-alpha tag {other}"))),
    };
    let tempering_factor = dec.f64()?;
    let refinement = match dec.u8()? {
        0 => RefinementPolicy::None,
        1 => RefinementPolicy::Factor(dec.f64()?),
        other => return Err(corrupt(format!("unknown refinement tag {other}"))),
    };
    let imbalance_tolerance = dec.f64()?;
    if !imbalance_tolerance.is_finite() || imbalance_tolerance < 1.0 {
        return Err(corrupt(format!(
            "imbalance tolerance {imbalance_tolerance} out of range"
        )));
    }
    let max_iterations = dec.varint_usize()?;
    if max_iterations == 0 {
        return Err(corrupt("zero max_iterations in snapshot"));
    }
    let stream_order = match dec.u8()? {
        0 => StreamOrder::Natural,
        1 => StreamOrder::Random,
        2 => StreamOrder::DegreeDescending,
        other => return Err(corrupt(format!("unknown stream-order tag {other}"))),
    };
    let seed = dec.u64_le()?;
    // The retired history switch's byte, ignored.
    dec.u8()?;
    match dec.u8()? {
        0..=CONNECTIVITY_AUTO => {}
        other => return Err(corrupt(format!("unknown connectivity tag {other}"))),
    }

    let cfg = DynamicConfig {
        config: HyperPrawConfig {
            initial_alpha,
            tempering_factor,
            refinement,
            imbalance_tolerance,
            max_iterations,
            stream_order,
            seed,
        },
    };
    DynamicPartitioner::resume(graph, partition, cost, cfg)
        .map_err(|e| corrupt(format!("snapshot state rejected: {e}")))
}

// ---------------------------------------------------------------------------
// Whole-file encode/decode
// ---------------------------------------------------------------------------

/// A decoded `snapshot.bin`.
pub struct DecodedSnapshot {
    /// Epoch of the journal this snapshot pairs with.
    pub epoch: u64,
    /// The opaque caller blob stored alongside the state (the facade
    /// keeps its session configuration here).
    pub meta: Vec<u8>,
    /// The reconstructed partitioner.
    pub partitioner: DynamicPartitioner,
}

/// Serialises a complete snapshot file (header included).
pub fn encode_snapshot(epoch: u64, meta: &[u8], p: &DynamicPartitioner) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64 + meta.len());
    encode_u64(epoch, &mut payload);
    encode_u64(meta.len() as u64, &mut payload);
    payload.extend_from_slice(meta);
    encode_state(&mut payload, p);

    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Reads and validates a snapshot from any [`ByteSource`]. Any damage —
/// bad magic, length mismatch, CRC mismatch, undecodable payload — is a
/// [`JournalError::Corrupt`]; snapshots have no tolerated torn region.
pub fn read_snapshot<S: ByteSource>(source: &S) -> Result<DecodedSnapshot, JournalError> {
    let total = source.len();
    if total < 24 {
        return Err(corrupt(format!("snapshot file is {total} bytes")));
    }
    let mut header = [0u8; 24];
    source.read_at(0, &mut header)?;
    if &header[0..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let payload_len = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let expected_crc = u32::from_le_bytes(header[20..24].try_into().unwrap());
    if payload_len != total - 24 {
        return Err(corrupt(format!(
            "snapshot claims {payload_len} payload bytes but the file holds {}",
            total - 24
        )));
    }
    let mut payload = vec![0u8; payload_len as usize];
    source.read_at(24, &mut payload)?;
    let actual = crc32(&payload);
    if actual != expected_crc {
        return Err(corrupt(format!(
            "snapshot checksum mismatch (stored {expected_crc:#010x}, computed {actual:#010x})"
        )));
    }

    let mut dec = Dec::new(&payload, "snapshot payload");
    let epoch = dec.varint()?;
    let meta_len = dec.varint_usize()?;
    if meta_len > payload.len() {
        return Err(corrupt(format!("snapshot meta claims {meta_len} bytes")));
    }
    let meta = dec.bytes(meta_len)?.to_vec();
    let partitioner = decode_state(&mut dec)?;
    dec.finish()?;
    Ok(DecodedSnapshot {
        epoch,
        meta,
        partitioner,
    })
}

/// The result of scanning a journal file.
pub struct JournalScan {
    /// Epoch stamped in the journal header.
    pub epoch: u64,
    /// Every intact batch, in append order.
    pub batches: Vec<Vec<GraphUpdate>>,
    /// Length of the valid prefix (header plus intact records).
    pub valid_bytes: u64,
    /// Whether bytes after the valid prefix had to be dropped.
    pub torn: bool,
}

/// Scans a journal from any [`ByteSource`]: reads the header, then
/// records until the file ends or the first record whose frame, CRC or
/// payload fails to validate. Everything from the first bad byte on is
/// reported as torn and **not** returned — damaged records are dropped,
/// never replayed. A header that does not parse is a hard
/// [`JournalError::Corrupt`].
pub fn scan_journal<S: ByteSource>(source: &S) -> Result<JournalScan, JournalError> {
    let total = source.len();
    if total < JOURNAL_HEADER_BYTES {
        return Err(corrupt(format!("journal file is {total} bytes")));
    }
    let mut header = [0u8; JOURNAL_HEADER_BYTES as usize];
    source.read_at(0, &mut header)?;
    if &header[0..8] != JOURNAL_MAGIC {
        return Err(corrupt("bad journal magic"));
    }
    let epoch = u64::from_le_bytes(header[8..16].try_into().unwrap());

    let mut batches = Vec::new();
    let mut offset = JOURNAL_HEADER_BYTES;
    let mut torn = false;
    while offset < total {
        if total - offset < 8 {
            torn = true;
            break;
        }
        let mut frame = [0u8; 8];
        source.read_at(offset, &mut frame)?;
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap());
        let expected_crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        if len > MAX_RECORD_BYTES || u64::from(len) > total - offset - 8 {
            torn = true;
            break;
        }
        let mut payload = vec![0u8; len as usize];
        if source.read_at(offset + 8, &mut payload).is_err() {
            torn = true;
            break;
        }
        if crc32(&payload) != expected_crc {
            torn = true;
            break;
        }
        match decode_batch(&payload) {
            Ok(batch) => batches.push(batch),
            Err(_) => {
                torn = true;
                break;
            }
        }
        offset += 8 + u64::from(len);
    }
    Ok(JournalScan {
        epoch,
        batches,
        valid_bytes: offset,
        torn,
    })
}

// ---------------------------------------------------------------------------
// The state directory
// ---------------------------------------------------------------------------

/// What [`StateDir::open`] found and did when prior state existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Size of the snapshot file that was loaded.
    pub snapshot_bytes: u64,
    /// Journal batches replayed on top of the snapshot.
    pub batches_replayed: usize,
    /// Journal bytes dropped because they were torn or corrupt.
    pub truncated_bytes: u64,
    /// Whether a torn/corrupt journal tail was detected (and dropped).
    pub torn_tail: bool,
}

impl RecoveryStats {
    /// Publishes what recovery found into `registry` as gauges under
    /// `dynamic.recovery.*` (a no-op on a disabled registry).
    pub fn record_into(&self, registry: &Registry) {
        registry
            .gauge("dynamic.recovery.snapshot_bytes")
            .set(self.snapshot_bytes as i64);
        registry
            .gauge("dynamic.recovery.batches_replayed")
            .set(self.batches_replayed as i64);
        registry
            .gauge("dynamic.recovery.truncated_bytes")
            .set(self.truncated_bytes as i64);
        registry
            .gauge("dynamic.recovery.torn_tail")
            .set(i64::from(self.torn_tail));
    }
}

/// A session recovered from disk by [`StateDir::open`].
pub struct Recovered {
    /// The opaque meta blob the caller stored with the snapshot.
    pub meta: Vec<u8>,
    /// The partitioner, snapshot state plus replayed journal tail.
    pub partitioner: DynamicPartitioner,
    /// What recovery found and did.
    pub stats: RecoveryStats,
}

/// A durable home for one [`DynamicPartitioner`] session: snapshot plus
/// write-ahead journal, with epoch-rotated snapshotting (see the module
/// docs for the crash-safety argument).
pub struct StateDir {
    dir: PathBuf,
    journal: Option<File>,
    epoch: u64,
    pending: u64,
    metrics: StateDirMetrics,
}

/// Persistence latency instrumentation, bound by [`StateDir::set_registry`]
/// (all no-ops by default).
#[derive(Clone, Debug, Default)]
struct StateDirMetrics {
    /// Full [`StateDir::append`] latency (encode + write + fsync), µs.
    append_us: Histogram,
    /// The fsync portion of each append, µs.
    fsync_us: Histogram,
    /// Full [`StateDir::write_snapshot`] fold-and-rotate latency, µs.
    fold_us: Histogram,
}

impl StateDir {
    /// Opens (creating if needed) a state directory. When a valid
    /// snapshot exists, the session is reconstructed — journal tail
    /// replayed, torn bytes dropped, and the directory immediately
    /// re-snapshotted so the repaired state is durable — and returned as
    /// [`Recovered`]. A fresh directory returns `None`: the caller
    /// establishes state with the first [`StateDir::write_snapshot`].
    pub fn open(dir: impl AsRef<Path>) -> Result<(Self, Option<Recovered>), JournalError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Rotation scratch is never trusted across a restart.
        let _ = fs::remove_file(dir.join(SNAPSHOT_TMP));
        let _ = fs::remove_file(dir.join(JOURNAL_TMP));

        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let journal_path = dir.join(JOURNAL_FILE);
        if !snapshot_path.exists() {
            // No snapshot means no session: a journal alone cannot be
            // replayed (records are deltas against snapshot state).
            let _ = fs::remove_file(&journal_path);
            return Ok((
                Self {
                    dir,
                    journal: None,
                    epoch: 0,
                    pending: 0,
                    metrics: StateDirMetrics::default(),
                },
                None,
            ));
        }

        let snapshot_bytes = fs::read(&snapshot_path)?;
        let snapshot_len = snapshot_bytes.len() as u64;
        let snap = read_snapshot(&MemorySource::new(snapshot_bytes))?;
        let mut partitioner = snap.partitioner;

        let mut stats = RecoveryStats {
            snapshot_bytes: snapshot_len,
            batches_replayed: 0,
            truncated_bytes: 0,
            torn_tail: false,
        };
        let mut journal_clean = false;
        if journal_path.exists() {
            let journal_bytes = fs::read(&journal_path)?;
            let journal_len = journal_bytes.len() as u64;
            let scan = scan_journal(&MemorySource::new(journal_bytes))?;
            if scan.epoch == snap.epoch {
                for batch in &scan.batches {
                    partitioner
                        .apply(batch)
                        .map_err(|e| corrupt(format!("journal replay rejected a batch: {e}")))?;
                }
                stats.batches_replayed = scan.batches.len();
                stats.truncated_bytes = journal_len - scan.valid_bytes;
                stats.torn_tail = scan.torn;
                journal_clean = !scan.torn && scan.batches.is_empty();
            }
            // A mismatched epoch is the crash window between the snapshot
            // and journal renames of a rotation: the journal's records are
            // already folded into this snapshot. Ignore it (and rotate
            // below so the stale file is replaced).
        }

        let mut state = Self {
            dir,
            journal: None,
            epoch: snap.epoch,
            pending: 0,
            metrics: StateDirMetrics::default(),
        };
        if journal_clean {
            // Snapshot and an empty, intact journal of the same epoch:
            // nothing to repair, just reopen the append handle.
            state.journal = Some(OpenOptions::new().append(true).open(&journal_path)?);
        } else {
            // Replayed records, a torn tail, a stale-epoch journal or no
            // journal at all: fold everything into a fresh snapshot and
            // rotate, so the repaired state is durable and the damaged
            // bytes can never be re-read.
            state.write_snapshot(&snap.meta, &partitioner)?;
        }
        let recovered = Recovered {
            meta: snap.meta,
            partitioner,
            stats,
        };
        Ok((state, Some(recovered)))
    }

    /// Binds persistence latency instrumentation to `registry`:
    /// `dynamic.journal.append_us` (full append), `dynamic.journal.fsync_us`
    /// (the sync portion) and `dynamic.snapshot.fold_us` (snapshot
    /// fold-and-rotate).
    pub fn set_registry(&mut self, registry: &Registry) {
        self.metrics = StateDirMetrics {
            append_us: registry.histogram("dynamic.journal.append_us"),
            fsync_us: registry.histogram("dynamic.journal.fsync_us"),
            fold_us: registry.histogram("dynamic.snapshot.fold_us"),
        };
    }

    /// The directory this state lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Epoch of the current snapshot/journal pair.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Batches appended since the last snapshot — the caller's cue to
    /// [`StateDir::write_snapshot`] once the replay tail gets long.
    pub fn batches_since_snapshot(&self) -> u64 {
        self.pending
    }

    /// Appends one accepted batch to the journal and syncs it to disk
    /// before returning — once this answers `Ok`, the batch survives a
    /// crash. Must follow an initial [`StateDir::write_snapshot`].
    pub fn append(&mut self, updates: &[GraphUpdate]) -> Result<(), JournalError> {
        let append_span = self.metrics.append_us.span();
        let journal = self.journal.as_mut().ok_or_else(|| {
            JournalError::Io("journal append before the first snapshot".to_string())
        })?;
        let payload = encode_batch(updates);
        if payload.len() as u64 > u64::from(MAX_RECORD_BYTES) {
            return Err(JournalError::Io(format!(
                "batch encodes to {} bytes, over the {MAX_RECORD_BYTES}-byte record cap",
                payload.len()
            )));
        }
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        journal.write_all(&record)?;
        journal.flush()?;
        let fsync_span = self.metrics.fsync_us.span();
        journal.sync_data()?;
        fsync_span.finish();
        self.pending += 1;
        append_span.finish();
        Ok(())
    }

    /// Writes a new snapshot of `partitioner` (with the caller's opaque
    /// `meta` blob) and rotates the journal to a fresh epoch. See the
    /// module docs for why this ordering is crash-safe at every point.
    pub fn write_snapshot(
        &mut self,
        meta: &[u8],
        partitioner: &DynamicPartitioner,
    ) -> Result<(), JournalError> {
        let fold_span = self.metrics.fold_us.span();
        let new_epoch = self.epoch + 1;

        // 1. The next journal, empty, under a scratch name.
        let journal_tmp = self.dir.join(JOURNAL_TMP);
        let mut new_journal = File::create(&journal_tmp)?;
        new_journal.write_all(JOURNAL_MAGIC)?;
        new_journal.write_all(&new_epoch.to_le_bytes())?;
        new_journal.sync_all()?;

        // 2. The snapshot, atomically renamed into place.
        let snapshot_tmp = self.dir.join(SNAPSHOT_TMP);
        let bytes = encode_snapshot(new_epoch, meta, partitioner);
        let mut f = File::create(&snapshot_tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&snapshot_tmp, self.dir.join(SNAPSHOT_FILE))?;

        // 3. The journal rename. A crash before this leaves the old
        // journal with a mismatched epoch — ignored on recovery.
        fs::rename(&journal_tmp, self.dir.join(JOURNAL_FILE))?;

        // Make the renames themselves durable (best effort: directory
        // fsync is not supported everywhere).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }

        self.journal = Some(new_journal);
        self.epoch = new_epoch;
        self.pending = 0;
        fold_span.finish();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
    use hyperpraw_storage::FaultySource;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hpraw-journal-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn partitioner() -> DynamicPartitioner {
        let hg = mesh_hypergraph(&MeshConfig::new(60, 6));
        let partition = Partition::round_robin(hg.num_vertices(), 4);
        let cfg = DynamicConfig {
            config: HyperPrawConfig {
                max_iterations: 4,
                ..HyperPrawConfig::default()
            },
        };
        DynamicPartitioner::new(&hg, partition, CostMatrix::uniform(4), cfg).unwrap()
    }

    fn batch(i: u32) -> Vec<GraphUpdate> {
        vec![
            GraphUpdate::AddVertex {
                weight: 1.0 + f64::from(i),
            },
            GraphUpdate::AddHyperedge {
                pins: vec![i % 7, i % 13 + 7, i % 11 + 20],
                weight: 1.0,
            },
            GraphUpdate::RemovePin {
                edge: i % 5,
                vertex: 40 + i % 3,
            },
        ]
    }

    fn assert_same(a: &DynamicPartitioner, b: &DynamicPartitioner) {
        assert_eq!(a.partition().assignment(), b.partition().assignment());
        assert_eq!(a.loads(), b.loads());
        assert!(a.graph() == b.graph(), "mutable hypergraphs differ");
    }

    #[test]
    fn batches_round_trip_every_variant() {
        let updates = vec![
            GraphUpdate::AddVertex { weight: 2.5 },
            GraphUpdate::RemoveVertex { vertex: 3 },
            GraphUpdate::AddHyperedge {
                pins: vec![0, 5, u32::MAX - 1],
                weight: 0.25,
            },
            GraphUpdate::RemoveHyperedge { edge: 7 },
            GraphUpdate::AddPin { edge: 1, vertex: 2 },
            GraphUpdate::RemovePin { edge: 4, vertex: 9 },
        ];
        let payload = encode_batch(&updates);
        assert_eq!(decode_batch(&payload).unwrap(), updates);
        assert!(decode_batch(&payload[..payload.len() - 1]).is_err());
        let mut padded = payload;
        padded.push(0);
        assert!(decode_batch(&padded).is_err());
    }

    #[test]
    fn snapshots_round_trip_bit_identically() {
        let mut live = partitioner();
        live.apply(&batch(0)).unwrap();
        live.apply(&batch(1)).unwrap();
        let bytes = encode_snapshot(7, b"meta-blob", &live);
        let snap = read_snapshot(&MemorySource::new(bytes)).unwrap();
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.meta, b"meta-blob");
        let mut resumed = snap.partitioner;
        assert_same(&live, &resumed);
        // And the two keep agreeing on future work.
        let out_a = live.apply(&batch(2)).unwrap();
        let out_b = resumed.apply(&batch(2)).unwrap();
        assert_eq!(out_a.new_vertices, out_b.new_vertices);
        assert_same(&live, &resumed);
    }

    #[test]
    fn snapshot_corruption_is_always_detected() {
        let live = partitioner();
        let bytes = encode_snapshot(1, b"", &live);
        // Flip one byte at a time across a sample of offsets: every
        // position must yield Err, never a panic or silent success.
        for offset in (0..bytes.len()).step_by(97) {
            let source =
                FaultySource::new(MemorySource::new(bytes.clone())).flip_bits(offset as u64, 0x10);
            assert!(
                read_snapshot(&source).is_err(),
                "flip at {offset} undetected"
            );
        }
        assert!(read_snapshot(&MemorySource::new(bytes)).is_ok());
    }

    #[test]
    fn a_cost_matrix_larger_than_the_snapshot_is_corrupt() {
        // A checksummed 49-byte snapshot: one vertex, no hyperedges and
        // 2^31 parts, whose cost matrix would need 2^62 entries.
        let parts = 1u64 << 31;
        let mut payload = Vec::new();
        for v in [0, 0, 0, 1] {
            encode_u64(v, &mut payload); // epoch, meta, name length, vertices
        }
        put_f64(&mut payload, 1.0);
        payload.push(1); // the vertex is alive
        encode_u64(0, &mut payload); // no hyperedges
        for v in [parts, 0, parts] {
            encode_u64(v, &mut payload); // parts, the assignment, units
        }
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(bytes.len(), 49);
        match read_snapshot(&MemorySource::new(bytes)) {
            Err(JournalError::Corrupt(msg)) => assert!(msg.contains("cost matrix"), "{msg}"),
            Err(other) => panic!("expected a corrupt snapshot, got {other}"),
            Ok(_) => panic!("a 2^31-part cost matrix decoded from 49 bytes"),
        }
    }

    #[test]
    fn state_dir_persists_and_recovers() {
        let dir = tmpdir("persist");
        let (mut store, recovered) = StateDir::open(&dir).unwrap();
        assert!(recovered.is_none());

        let mut live = partitioner();
        store.write_snapshot(b"m", &live).unwrap();
        for i in 0..3 {
            live.apply(&batch(i)).unwrap();
            store.append(&batch(i)).unwrap();
        }
        assert_eq!(store.batches_since_snapshot(), 3);
        drop(store);

        let (store, recovered) = StateDir::open(&dir).unwrap();
        let rec = recovered.unwrap();
        assert_eq!(rec.meta, b"m");
        assert_eq!(rec.stats.batches_replayed, 3);
        assert!(!rec.stats.torn_tail);
        assert_eq!(rec.stats.truncated_bytes, 0);
        assert_same(&live, &rec.partitioner);
        // Recovery folded the tail into a fresh snapshot + rotated epoch.
        assert_eq!(store.batches_since_snapshot(), 0);
        drop(store);

        // A second open finds the folded snapshot and an empty journal.
        let (_store, recovered) = StateDir::open(&dir).unwrap();
        let rec = recovered.unwrap();
        assert_eq!(rec.stats.batches_replayed, 0);
        assert_same(&live, &rec.partitioner);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_tails_are_truncated_not_replayed() {
        let dir = tmpdir("torn");
        let (mut store, _) = StateDir::open(&dir).unwrap();
        let mut live = partitioner();
        store.write_snapshot(b"", &live).unwrap();
        live.apply(&batch(0)).unwrap();
        store.append(&batch(0)).unwrap();
        drop(store);

        // A crash mid-append leaves a partial record at the tail.
        let journal = dir.join("journal.log");
        let mut f = OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(&[0x55; 11]).unwrap();
        drop(f);

        let (_store, recovered) = StateDir::open(&dir).unwrap();
        let rec = recovered.unwrap();
        assert!(rec.stats.torn_tail);
        assert_eq!(rec.stats.truncated_bytes, 11);
        assert_eq!(rec.stats.batches_replayed, 1);
        assert_same(&live, &rec.partitioner);

        // The rotation replaced the damaged journal entirely.
        let (_store, recovered) = StateDir::open(&dir).unwrap();
        let rec = recovered.unwrap();
        assert!(!rec.stats.torn_tail);
        assert_eq!(rec.stats.batches_replayed, 0);
        assert_same(&live, &rec.partitioner);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_records_stop_replay_at_the_damage() {
        let dir = tmpdir("fliprec");
        let (mut store, _) = StateDir::open(&dir).unwrap();
        let mut live = partitioner();
        store.write_snapshot(b"", &live).unwrap();
        let mut at_snapshot = partitioner();
        for i in 0..2 {
            live.apply(&batch(i)).unwrap();
            at_snapshot.apply(&batch(i)).unwrap();
            store.append(&batch(i)).unwrap();
        }
        drop(store);

        // Flip a bit inside the *first* record's payload: replay must
        // stop before it, applying zero batches.
        let journal = dir.join("journal.log");
        let mut bytes = fs::read(&journal).unwrap();
        bytes[JOURNAL_HEADER_BYTES as usize + 8 + 2] ^= 0x04;
        fs::write(&journal, &bytes).unwrap();

        let (_store, recovered) = StateDir::open(&dir).unwrap();
        let rec = recovered.unwrap();
        assert!(rec.stats.torn_tail);
        assert_eq!(rec.stats.batches_replayed, 0);
        assert!(rec.stats.truncated_bytes > 0);
        let snapshot_only = partitioner();
        assert_same(&snapshot_only, &rec.partitioner);
        let _ = at_snapshot;
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_epoch_journals_are_ignored() {
        let dir = tmpdir("epoch");
        let (mut store, _) = StateDir::open(&dir).unwrap();
        let mut live = partitioner();
        store.write_snapshot(b"", &live).unwrap();
        live.apply(&batch(0)).unwrap();
        store.append(&batch(0)).unwrap();
        // Fold the batch into a new snapshot, then simulate the crash
        // window between the two renames of the *next* rotation by
        // restoring an old-epoch journal with a record in it.
        store.write_snapshot(b"", &live).unwrap();
        let old_epoch = store.epoch() - 1;
        drop(store);
        let journal = dir.join("journal.log");
        let mut f = File::create(&journal).unwrap();
        f.write_all(JOURNAL_MAGIC).unwrap();
        f.write_all(&old_epoch.to_le_bytes()).unwrap();
        let payload = encode_batch(&batch(0));
        f.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        f.write_all(&crc32(&payload).to_le_bytes()).unwrap();
        f.write_all(&payload).unwrap();
        drop(f);

        let (_store, recovered) = StateDir::open(&dir).unwrap();
        let rec = recovered.unwrap();
        // The stale record must NOT be applied a second time.
        assert_eq!(rec.stats.batches_replayed, 0);
        assert!(!rec.stats.torn_tail);
        assert_same(&live, &rec.partitioner);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_without_snapshot_resets_cleanly() {
        let dir = tmpdir("orphan");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("journal.log"), b"HPJLOG01xxxxxxxx").unwrap();
        let (store, recovered) = StateDir::open(&dir).unwrap();
        assert!(recovered.is_none());
        assert!(!dir.join("journal.log").exists());
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}
