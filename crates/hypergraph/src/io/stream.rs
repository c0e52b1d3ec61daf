//! Streaming, vertex-major access to on-disk hypergraphs.
//!
//! The in-memory readers in [`crate::io::hmetis`] and
//! [`crate::io::edgelist`] materialise the full CSR structure, which caps
//! the hypergraph size at available RAM. This module provides the
//! out-of-core alternative used by the `hyperpraw-lowmem` partitioner:
//!
//! * [`visit_hgr_nets`] / [`visit_edgelist_nets`] — a single **edge-major**
//!   pass over a file, invoking a callback per net without storing pins,
//! * [`VertexStream`] — the **vertex-major** record interface streaming
//!   partitioners consume: `(vertex, weight, incident nets)` per record,
//! * [`InMemoryVertexStream`] — adapter over an already-built
//!   [`Hypergraph`] (tests, small inputs),
//! * [`DiskVertexStream`] + [`stream_hgr_file`] / [`stream_edgelist_file`]
//!   — an external-memory transpose: the input file is read **once**,
//!   `(vertex, net)` pairs are spilled to temporary bucket files grouped by
//!   vertex range, and records are then emitted bucket by bucket in vertex
//!   order. Peak memory is bounded by [`StreamOptions::buffer_bytes`]
//!   (buckets larger than the buffer are split on disk before loading);
//!   only O(|V|)-class state inherent to the problem (vertex weights when
//!   the file carries them) is ever proportional to the hypergraph.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::io::{id_count, IoError, IoResult};
use crate::{HyperedgeId, Hypergraph, VertexId};

/// One record of a vertex-major stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VertexRecord {
    /// The vertex id (dense, `0..num_vertices`).
    pub vertex: VertexId,
    /// The vertex weight (1.0 unless the file carries weights).
    pub weight: f64,
    /// Ids of the nets (hyperedges) incident to the vertex, ascending.
    pub nets: Vec<HyperedgeId>,
}

/// A one-pass, restartable source of [`VertexRecord`]s.
///
/// Every vertex id in `0..num_vertices()` is yielded exactly once per pass,
/// in a deterministic order (implementations document theirs). `reset`
/// rewinds for another pass without re-reading the original input.
pub trait VertexStream {
    /// Number of vertices the stream will yield per pass.
    fn num_vertices(&self) -> usize;

    /// Number of nets (hyperedges) of the underlying hypergraph.
    fn num_nets(&self) -> usize;

    /// Fills `record` with the next vertex. Returns `false` at end of pass.
    fn next_into(&mut self, record: &mut VertexRecord) -> IoResult<bool>;

    /// Rewinds the stream to the beginning of the pass.
    fn reset(&mut self) -> IoResult<()>;

    /// Sum of all vertex weights, when the stream knows it up front
    /// (consumers fall back to unit weights otherwise).
    fn total_vertex_weight(&self) -> Option<f64> {
        None
    }
}

/// A mutable borrow of a stream is itself a stream, so consumers that take
/// a stream by value (e.g. the restreaming engine's source adapters) also
/// accept `&mut stream` without giving up ownership.
impl<S: VertexStream + ?Sized> VertexStream for &mut S {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    fn num_nets(&self) -> usize {
        (**self).num_nets()
    }

    fn next_into(&mut self, record: &mut VertexRecord) -> IoResult<bool> {
        (**self).next_into(record)
    }

    fn reset(&mut self) -> IoResult<()> {
        (**self).reset()
    }

    fn total_vertex_weight(&self) -> Option<f64> {
        (**self).total_vertex_weight()
    }
}

/// [`VertexStream`] over an in-memory [`Hypergraph`], yielding vertices in
/// natural id order. Used by tests and by callers whose input already fits
/// in RAM.
#[derive(Clone, Debug)]
pub struct InMemoryVertexStream<'a> {
    hg: &'a Hypergraph,
    cursor: usize,
}

impl<'a> InMemoryVertexStream<'a> {
    /// Creates a stream over `hg`.
    pub fn new(hg: &'a Hypergraph) -> Self {
        Self { hg, cursor: 0 }
    }
}

impl VertexStream for InMemoryVertexStream<'_> {
    fn num_vertices(&self) -> usize {
        self.hg.num_vertices()
    }

    fn num_nets(&self) -> usize {
        self.hg.num_hyperedges()
    }

    fn next_into(&mut self, record: &mut VertexRecord) -> IoResult<bool> {
        if self.cursor >= self.hg.num_vertices() {
            return Ok(false);
        }
        let v = self.cursor as VertexId;
        record.vertex = v;
        record.weight = self.hg.vertex_weight(v);
        record.nets.clear();
        record.nets.extend_from_slice(self.hg.incident_edges(v));
        self.cursor += 1;
        Ok(true)
    }

    fn reset(&mut self) -> IoResult<()> {
        self.cursor = 0;
        Ok(())
    }

    fn total_vertex_weight(&self) -> Option<f64> {
        Some(self.hg.total_vertex_weight())
    }
}

/// Summary of an edge-major pass over an hMETIS file.
#[derive(Clone, Debug)]
pub struct HgrStreamSummary {
    /// `|V|` from the header.
    pub num_vertices: usize,
    /// `|E|` from the header.
    pub num_nets: usize,
    /// Total pins visited.
    pub num_pins: usize,
    /// Per-vertex weights when the header's `fmt` declares them.
    pub vertex_weights: Option<Vec<f64>>,
}

/// Streams an hMETIS `.hgr` file **edge-major** in a single pass, invoking
/// `sink(net, pins)` per hyperedge with 0-based vertex ids, without
/// materialising any per-net state beyond one line's pins.
///
/// Accepts the dialect of [`crate::io::hmetis::read_hgr`] (comments,
/// `fmt` ∈ {none, 1, 10, 11}, 1-based vertex ids), which builds on the
/// same parse, so the two readers agree on every valid and invalid input.
pub fn visit_hgr_nets<R: BufRead>(
    reader: R,
    sink: &mut dyn FnMut(HyperedgeId, &[VertexId]) -> IoResult<()>,
) -> IoResult<HgrStreamSummary> {
    visit_hgr(reader, |net, pins, _| sink(net, pins))
}

/// [`visit_hgr_nets`], also handing `sink` each hyperedge's weight (1.0
/// unless the header's `fmt` declares hyperedge weights).
pub(crate) fn visit_hgr<R: BufRead>(
    reader: R,
    mut sink: impl FnMut(HyperedgeId, &[VertexId], f64) -> IoResult<()>,
) -> IoResult<HgrStreamSummary> {
    let mut lines = reader.lines().enumerate();

    let (header_line_no, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('%') {
                    continue;
                }
                break (i + 1, trimmed.to_string());
            }
            None => return Err(IoError::parse(1, "empty file: missing header")),
        }
    };

    let mut parts = header.split_whitespace();
    let num_nets: usize = parts
        .next()
        .ok_or_else(|| IoError::parse(header_line_no, "missing hyperedge count"))?
        .parse()
        .map_err(|_| IoError::parse(header_line_no, "invalid hyperedge count"))?;
    let num_vertices: usize = parts
        .next()
        .ok_or_else(|| IoError::parse(header_line_no, "missing vertex count"))?
        .parse()
        .map_err(|_| IoError::parse(header_line_no, "invalid vertex count"))?;
    let num_vertices = id_count(num_vertices, header_line_no, "vertex count")?;
    let fmt: u32 = match parts.next() {
        Some(tok) => tok
            .parse()
            .map_err(|_| IoError::parse(header_line_no, "invalid fmt field"))?,
        None => 0,
    };
    let has_edge_weights = fmt == 1 || fmt == 11;
    let has_vertex_weights = fmt == 10 || fmt == 11;

    let mut pins: Vec<VertexId> = Vec::new();
    let mut nets_read = 0usize;
    let mut num_pins = 0usize;
    let mut vertex_weights: Vec<f64> = Vec::new();

    for (i, line) in lines {
        let line_no = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        if nets_read < num_nets {
            let mut tokens = trimmed.split_whitespace();
            let weight = if has_edge_weights {
                tokens
                    .next()
                    .ok_or_else(|| IoError::parse(line_no, "missing hyperedge weight"))?
                    .parse()
                    .map_err(|_| IoError::parse(line_no, "invalid hyperedge weight"))?
            } else {
                1.0
            };
            pins.clear();
            for tok in tokens {
                let v: usize = tok
                    .parse()
                    .map_err(|_| IoError::parse(line_no, format!("invalid vertex id '{tok}'")))?;
                if v == 0 || v > num_vertices {
                    return Err(IoError::parse(
                        line_no,
                        format!("vertex id {v} out of range 1..={num_vertices}"),
                    ));
                }
                pins.push((v - 1) as VertexId);
            }
            if pins.is_empty() {
                return Err(IoError::parse(line_no, "hyperedge with no pins"));
            }
            // Mirror `HypergraphBuilder`: pins are sorted and duplicate
            // pins within one net are dropped, so streaming and in-memory
            // readers agree on every input.
            pins.sort_unstable();
            pins.dedup();
            num_pins += pins.len();
            sink(nets_read as HyperedgeId, &pins, weight)?;
            nets_read += 1;
        } else if has_vertex_weights && vertex_weights.len() < num_vertices {
            let w: f64 = trimmed
                .parse()
                .map_err(|_| IoError::parse(line_no, "invalid vertex weight"))?;
            vertex_weights.push(w);
        } else {
            return Err(IoError::parse(line_no, "unexpected extra data"));
        }
    }

    if nets_read != num_nets {
        return Err(IoError::parse(
            header_line_no,
            format!("expected {num_nets} hyperedges, found {nets_read}"),
        ));
    }
    if has_vertex_weights && vertex_weights.len() != num_vertices {
        return Err(IoError::parse(
            header_line_no,
            format!(
                "expected {num_vertices} vertex weights, found {}",
                vertex_weights.len()
            ),
        ));
    }

    Ok(HgrStreamSummary {
        num_vertices,
        num_nets,
        num_pins,
        vertex_weights: has_vertex_weights.then_some(vertex_weights),
    })
}

/// Summary of an edge-major pass over an edge-list file.
#[derive(Clone, Copy, Debug)]
pub struct EdgeListStreamSummary {
    /// `max vertex id + 1` over the whole file.
    pub num_vertices: usize,
    /// Number of nets (non-comment lines).
    pub num_nets: usize,
    /// Total pins visited.
    pub num_pins: usize,
}

/// Streams a whitespace edge-list file (0-based ids, `#` comments, one net
/// per line) **edge-major** in a single pass, invoking `sink(net, pins)`
/// per line.
pub fn visit_edgelist_nets<R: BufRead>(
    reader: R,
    sink: &mut dyn FnMut(HyperedgeId, &[VertexId]) -> IoResult<()>,
) -> IoResult<EdgeListStreamSummary> {
    let mut pins: Vec<VertexId> = Vec::new();
    let mut num_vertices = 0usize;
    let mut num_nets = 0usize;
    let mut num_pins = 0usize;
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        pins.clear();
        for tok in t.split_whitespace() {
            let v: VertexId = tok
                .parse()
                .map_err(|_| IoError::parse(line_no, format!("invalid vertex id '{tok}'")))?;
            num_vertices = num_vertices.max(v as usize + 1);
            pins.push(v);
        }
        // Mirror `HypergraphBuilder`: sorted pins, duplicates dropped.
        pins.sort_unstable();
        pins.dedup();
        num_pins += pins.len();
        sink(num_nets as HyperedgeId, &pins)?;
        num_nets += 1;
    }
    Ok(EdgeListStreamSummary {
        num_vertices,
        num_nets,
        num_pins,
    })
}

/// Tuning knobs of the on-disk transpose behind [`DiskVertexStream`].
#[derive(Clone, Debug)]
pub struct StreamOptions {
    /// Upper bound on the bytes of `(vertex, net)` pairs held in memory at
    /// once while emitting records (one bucket). Buckets that end up larger
    /// are split on disk before they are ever loaded.
    pub buffer_bytes: usize,
    /// Directory for the temporary bucket files; the system temp directory
    /// when `None`. A fresh subdirectory is created (and removed on drop).
    pub spill_dir: Option<PathBuf>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            buffer_bytes: 64 << 20,
            spill_dir: None,
        }
    }
}

impl StreamOptions {
    /// Options with the given in-memory buffer bound.
    pub fn with_buffer_bytes(buffer_bytes: usize) -> Self {
        Self {
            buffer_bytes: buffer_bytes.max(PAIR_BYTES),
            ..Self::default()
        }
    }
}

const PAIR_BYTES: usize = 8;

/// Maximum simultaneously open bucket writers during the spill pass.
const MAX_BUCKETS: usize = 256;

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
struct Bucket {
    path: PathBuf,
    /// Vertex range `[lo, hi)` this bucket covers.
    lo: VertexId,
    hi: VertexId,
    bytes: u64,
}

/// A [`VertexStream`] over temporary on-disk bucket files produced by
/// transposing an edge-major input file. Yields vertices in natural id
/// order. See [`stream_hgr_file`] / [`stream_edgelist_file`].
#[derive(Debug)]
pub struct DiskVertexStream {
    dir: PathBuf,
    buckets: Vec<Bucket>,
    num_vertices: usize,
    num_nets: usize,
    num_pins: usize,
    weights: Option<Vec<f64>>,
    // Iteration state.
    bucket_idx: usize,
    loaded: Vec<(VertexId, HyperedgeId)>,
    loaded_pos: usize,
    next_vertex: VertexId,
    peak_loaded_bytes: usize,
}

impl DiskVertexStream {
    /// Total pins of the underlying hypergraph.
    pub fn num_pins(&self) -> usize {
        self.num_pins
    }

    /// Largest number of pair bytes held in memory so far while emitting
    /// records — by construction at most `buffer_bytes` unless a single
    /// vertex's degree alone exceeds the buffer.
    pub fn peak_loaded_bytes(&self) -> usize {
        self.peak_loaded_bytes
    }

    fn spill_path(dir: &Path, lo: VertexId, hi: VertexId) -> PathBuf {
        dir.join(format!("bucket-{lo}-{hi}.bin"))
    }

    /// Builds the stream by distributing `(vertex, net)` pairs delivered by
    /// `visit` into vertex-range buckets under a fresh temp directory.
    fn build(
        options: &StreamOptions,
        num_vertices: usize,
        num_nets: usize,
        weights: Option<Vec<f64>>,
        visit: impl FnOnce(&mut dyn FnMut(VertexId, HyperedgeId) -> IoResult<()>) -> IoResult<usize>,
    ) -> IoResult<Self> {
        let base = options.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "hyperpraw-vstream-{}-{}",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        let built = Self::build_in_dir(options, num_vertices, num_nets, weights, visit, &dir);
        if built.is_err() {
            // Only a constructed stream cleans up after itself via Drop; a
            // failed build must not leak its bucket directory.
            fs::remove_dir_all(&dir).ok();
        }
        built
    }

    fn build_in_dir(
        options: &StreamOptions,
        num_vertices: usize,
        num_nets: usize,
        weights: Option<Vec<f64>>,
        visit: impl FnOnce(&mut dyn FnMut(VertexId, HyperedgeId) -> IoResult<()>) -> IoResult<usize>,
        dir: &Path,
    ) -> IoResult<Self> {
        // Initial bucket count: assume an average degree of 8 pins/vertex;
        // buckets that overflow the buffer are split after the pass, so this
        // guess only influences how much splitting happens.
        let est_bytes = num_vertices.saturating_mul(8 * PAIR_BYTES).max(1);
        let num_buckets = (est_bytes.div_ceil(options.buffer_bytes.max(PAIR_BYTES)))
            .clamp(1, MAX_BUCKETS)
            .min(num_vertices.max(1));
        let width = (num_vertices.max(1) as u64).div_ceil(num_buckets as u64) as u32;

        let mut writers: Vec<BufWriter<File>> = Vec::with_capacity(num_buckets);
        let mut buckets: Vec<Bucket> = Vec::with_capacity(num_buckets);
        for b in 0..num_buckets {
            let lo = b as u32 * width;
            let hi = ((b as u64 + 1) * u64::from(width)).min(num_vertices as u64) as u32;
            let path = Self::spill_path(dir, lo, hi);
            writers.push(BufWriter::new(File::create(&path)?));
            buckets.push(Bucket {
                path,
                lo,
                hi,
                bytes: 0,
            });
        }

        let num_pins = visit(&mut |v, e| {
            let b = (v / width) as usize;
            let w = &mut writers[b];
            w.write_all(&v.to_le_bytes())?;
            w.write_all(&e.to_le_bytes())?;
            buckets[b].bytes += PAIR_BYTES as u64;
            Ok(())
        })?;
        for w in writers {
            w.into_inner().map_err(|e| e.into_error())?.sync_all().ok();
        }

        // Split any bucket whose pair bytes exceed the load buffer.
        let mut queue = buckets;
        let mut ready = Vec::new();
        while let Some(bucket) = queue.pop() {
            let splittable = bucket.hi > bucket.lo + 1;
            if bucket.bytes as usize <= options.buffer_bytes || !splittable {
                ready.push(bucket);
                continue;
            }
            let mid = bucket.lo + (bucket.hi - bucket.lo) / 2;
            let (left, right) = split_bucket(dir, &bucket, mid)?;
            fs::remove_file(&bucket.path)?;
            queue.push(left);
            queue.push(right);
        }
        ready.sort_by_key(|b| b.lo);

        let mut stream = Self {
            dir: dir.to_path_buf(),
            buckets: ready,
            num_vertices,
            num_nets,
            num_pins,
            weights,
            bucket_idx: 0,
            loaded: Vec::new(),
            loaded_pos: 0,
            next_vertex: 0,
            peak_loaded_bytes: 0,
        };
        stream.reset()?;
        Ok(stream)
    }

    fn load_bucket(&mut self, idx: usize) -> IoResult<()> {
        let bucket = &self.buckets[idx];
        let mut file = BufReader::new(File::open(&bucket.path)?);
        self.loaded.clear();
        self.loaded.reserve((bucket.bytes as usize) / PAIR_BYTES);
        let mut buf = [0u8; PAIR_BYTES];
        loop {
            match file.read_exact(&mut buf) {
                Ok(()) => {
                    let v = VertexId::from_le_bytes(buf[0..4].try_into().unwrap());
                    let e = HyperedgeId::from_le_bytes(buf[4..8].try_into().unwrap());
                    self.loaded.push((v, e));
                }
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
        }
        self.loaded.sort_unstable();
        self.peak_loaded_bytes = self.peak_loaded_bytes.max(self.loaded.len() * PAIR_BYTES);
        self.loaded_pos = 0;
        self.next_vertex = bucket.lo;
        Ok(())
    }
}

fn split_bucket(dir: &Path, bucket: &Bucket, mid: VertexId) -> IoResult<(Bucket, Bucket)> {
    let left_path = DiskVertexStream::spill_path(dir, bucket.lo, mid);
    let right_path = DiskVertexStream::spill_path(dir, mid, bucket.hi);
    let mut left = BufWriter::new(File::create(&left_path)?);
    let mut right = BufWriter::new(File::create(&right_path)?);
    let mut reader = BufReader::new(File::open(&bucket.path)?);
    let mut buf = [0u8; PAIR_BYTES];
    let (mut left_bytes, mut right_bytes) = (0u64, 0u64);
    loop {
        match reader.read_exact(&mut buf) {
            Ok(()) => {
                let v = VertexId::from_le_bytes(buf[0..4].try_into().unwrap());
                if v < mid {
                    left.write_all(&buf)?;
                    left_bytes += PAIR_BYTES as u64;
                } else {
                    right.write_all(&buf)?;
                    right_bytes += PAIR_BYTES as u64;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
    }
    left.flush()?;
    right.flush()?;
    Ok((
        Bucket {
            path: left_path,
            lo: bucket.lo,
            hi: mid,
            bytes: left_bytes,
        },
        Bucket {
            path: right_path,
            lo: mid,
            hi: bucket.hi,
            bytes: right_bytes,
        },
    ))
}

impl VertexStream for DiskVertexStream {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_nets(&self) -> usize {
        self.num_nets
    }

    fn next_into(&mut self, record: &mut VertexRecord) -> IoResult<bool> {
        loop {
            if self.bucket_idx >= self.buckets.len() {
                return Ok(false);
            }
            let hi = self.buckets[self.bucket_idx].hi;
            if self.next_vertex >= hi {
                self.bucket_idx += 1;
                if self.bucket_idx < self.buckets.len() {
                    self.load_bucket(self.bucket_idx)?;
                }
                continue;
            }
            let v = self.next_vertex;
            self.next_vertex += 1;
            record.vertex = v;
            record.weight = self
                .weights
                .as_ref()
                .map_or(1.0, |w| w.get(v as usize).copied().unwrap_or(1.0));
            record.nets.clear();
            while self.loaded_pos < self.loaded.len() && self.loaded[self.loaded_pos].0 == v {
                record.nets.push(self.loaded[self.loaded_pos].1);
                self.loaded_pos += 1;
            }
            return Ok(true);
        }
    }

    fn reset(&mut self) -> IoResult<()> {
        self.bucket_idx = 0;
        self.loaded.clear();
        self.loaded_pos = 0;
        self.next_vertex = 0;
        if !self.buckets.is_empty() {
            self.load_bucket(0)?;
        }
        Ok(())
    }

    fn total_vertex_weight(&self) -> Option<f64> {
        Some(match &self.weights {
            Some(w) => w.iter().sum(),
            None => self.num_vertices as f64,
        })
    }
}

impl Drop for DiskVertexStream {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.dir).ok();
    }
}

/// Transposes an hMETIS `.hgr` file into a [`DiskVertexStream`] with a
/// single pass over the input. Vertex weights (fmt 10/11) are preserved;
/// net weights are validated but not carried into the stream.
pub fn stream_hgr_file(
    path: impl AsRef<Path>,
    options: &StreamOptions,
) -> IoResult<DiskVertexStream> {
    // Read the header first so the pair pass can bucket by vertex range.
    let header = read_hgr_header(path.as_ref())?;
    let mut summary: Option<HgrStreamSummary> = None;
    let reader = BufReader::new(File::open(path.as_ref())?);
    let summary_ref = &mut summary;
    DiskVertexStream::build(
        options,
        header.num_vertices,
        header.num_nets,
        None,
        move |emit| {
            let s = visit_hgr_nets(reader, &mut |e, pins| {
                for &v in pins {
                    emit(v, e)?;
                }
                Ok(())
            })?;
            let pins = s.num_pins;
            *summary_ref = Some(s);
            Ok(pins)
        },
    )
    .map(|mut stream| {
        stream.weights = summary.and_then(|s| s.vertex_weights);
        stream
    })
}

/// Transposes a whitespace edge-list file into a [`DiskVertexStream`] with
/// a single pass over the input. Because the vertex count is only known at
/// the end of that pass, pairs are first spilled unbucketed and then
/// redistributed into range buckets on disk.
pub fn stream_edgelist_file(
    path: impl AsRef<Path>,
    options: &StreamOptions,
) -> IoResult<DiskVertexStream> {
    // Pass over the input: spill raw pairs, learn |V| and |E|.
    let base = options.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
    let raw_path = base.join(format!(
        "hyperpraw-vstream-raw-{}-{}.bin",
        std::process::id(),
        SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let first_pass = (|| -> IoResult<EdgeListStreamSummary> {
        let mut raw = BufWriter::new(File::create(&raw_path)?);
        let reader = BufReader::new(File::open(path.as_ref())?);
        let summary = visit_edgelist_nets(reader, &mut |e, pins| {
            for &v in pins {
                raw.write_all(&v.to_le_bytes())?;
                raw.write_all(&e.to_le_bytes())?;
            }
            Ok(())
        })?;
        raw.flush()?;
        Ok(summary)
    })();
    let summary = match first_pass {
        Ok(summary) => summary,
        Err(err) => {
            // A failed first pass must not leak the raw pair spill.
            fs::remove_file(&raw_path).ok();
            return Err(err);
        }
    };

    // Redistribute the spilled pairs into vertex-range buckets.
    let result = DiskVertexStream::build(
        options,
        summary.num_vertices,
        summary.num_nets,
        None,
        |emit| {
            let mut reader = BufReader::new(File::open(&raw_path)?);
            let mut buf = [0u8; PAIR_BYTES];
            loop {
                match reader.read_exact(&mut buf) {
                    Ok(()) => {
                        let v = VertexId::from_le_bytes(buf[0..4].try_into().unwrap());
                        let e = HyperedgeId::from_le_bytes(buf[4..8].try_into().unwrap());
                        emit(v, e)?;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(summary.num_pins)
        },
    );
    fs::remove_file(&raw_path).ok();
    result
}

/// The `|E| |V|` counts from an hMETIS file's header line.
pub struct HgrHeader {
    /// Declared number of hyperedges.
    pub num_nets: usize,
    /// Declared number of vertices.
    pub num_vertices: usize,
}

/// Reads just the header line of an hMETIS file — O(1) in the file size,
/// so callers can validate a request (e.g. partition count vs. vertex
/// count) before paying for a full [`stream_hgr_file`] transpose.
pub fn read_hgr_header(path: &Path) -> IoResult<HgrHeader> {
    let reader = BufReader::new(File::open(path)?);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let num_nets = parts
            .next()
            .ok_or_else(|| IoError::parse(i + 1, "missing hyperedge count"))?
            .parse()
            .map_err(|_| IoError::parse(i + 1, "invalid hyperedge count"))?;
        let num_vertices = parts
            .next()
            .ok_or_else(|| IoError::parse(i + 1, "missing vertex count"))?
            .parse()
            .map_err(|_| IoError::parse(i + 1, "invalid vertex count"))?;
        return Ok(HgrHeader {
            num_nets,
            num_vertices,
        });
    }
    Err(IoError::parse(1, "empty file: missing header"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::hmetis;
    use crate::HypergraphBuilder;
    use std::io::Cursor;

    fn sample_hg() -> Hypergraph {
        let mut b = HypergraphBuilder::new(6);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3]);
        b.add_hyperedge([0u32, 3, 4]);
        b.build()
    }

    fn collect<S: VertexStream>(stream: &mut S) -> Vec<VertexRecord> {
        let mut record = VertexRecord::default();
        let mut out = Vec::new();
        while stream.next_into(&mut record).unwrap() {
            out.push(record.clone());
        }
        out
    }

    #[test]
    fn in_memory_stream_yields_incident_nets_in_order() {
        let hg = sample_hg();
        let mut stream = InMemoryVertexStream::new(&hg);
        let records = collect(&mut stream);
        assert_eq!(records.len(), 6);
        assert_eq!(records[0].nets, vec![0, 2]);
        assert_eq!(records[2].nets, vec![0, 1]);
        assert_eq!(records[5].nets, Vec::<HyperedgeId>::new());
        // Reset rewinds.
        stream.reset().unwrap();
        assert_eq!(collect(&mut stream), records);
    }

    #[test]
    fn hgr_visitor_matches_in_memory_reader() {
        let text = "% sample\n3 6\n1 2 3\n3 4\n1 4 5\n";
        let hg = hmetis::read_hgr(Cursor::new(text)).unwrap();
        let mut nets: Vec<Vec<VertexId>> = Vec::new();
        let summary = visit_hgr_nets(Cursor::new(text), &mut |e, pins| {
            assert_eq!(e as usize, nets.len());
            nets.push(pins.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(summary.num_vertices, hg.num_vertices());
        assert_eq!(summary.num_nets, hg.num_hyperedges());
        assert_eq!(summary.num_pins, hg.num_pins());
        for e in hg.hyperedges() {
            assert_eq!(nets[e as usize], hg.pins(e));
        }
    }

    #[test]
    fn hgr_visitor_rejects_malformed_headers() {
        for (text, needle) in [
            ("", "empty file"),
            ("% only comments\n", "empty file"),
            ("3\n1 2\n", "missing vertex count"),
            ("x 5\n", "invalid hyperedge count"),
            ("2 y\n", "invalid vertex count"),
            ("1 3 zz\n1 2\n", "invalid fmt field"),
            ("2 3\n1 2\n", "expected 2 hyperedges"),
            ("1 3\n1 9\n", "out of range"),
            ("1 3\n0 2\n", "out of range"),
        ] {
            let err = visit_hgr_nets(Cursor::new(text), &mut |_, _| Ok(())).unwrap_err();
            let msg = format!("{err}");
            assert!(msg.contains(needle), "{text:?}: {msg} missing {needle:?}");
        }
    }

    #[test]
    fn duplicate_pins_within_a_net_are_dropped_like_the_in_memory_reader() {
        // "1 2 2 3" lists vertex 2 twice; the builder dedups, so the
        // streaming visitor must too or connectivity counts get inflated.
        let text = "2 4\n1 2 2 3\n4 4 4\n";
        let hg = hmetis::read_hgr(Cursor::new(text)).unwrap();
        let mut nets: Vec<Vec<VertexId>> = Vec::new();
        let summary = visit_hgr_nets(Cursor::new(text), &mut |_, pins| {
            nets.push(pins.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(summary.num_pins, hg.num_pins());
        assert_eq!(nets[0], hg.pins(0));
        assert_eq!(nets[1], hg.pins(1));
        assert_eq!(nets[1], vec![3]);

        let mut el_nets: Vec<Vec<VertexId>> = Vec::new();
        let el = visit_edgelist_nets(Cursor::new("0 1 1 2\n3 3\n"), &mut |_, pins| {
            el_nets.push(pins.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(el.num_pins, 4);
        assert_eq!(el_nets, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn hgr_ids_are_one_based_but_stream_is_zero_based() {
        let text = "1 3\n1 3\n";
        let mut seen = Vec::new();
        visit_hgr_nets(Cursor::new(text), &mut |_, pins| {
            seen.extend_from_slice(pins);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![0, 2]);
    }

    #[test]
    fn disk_stream_agrees_with_in_memory_stream_on_hgr_round_trip() {
        let hg = sample_hg();
        let path =
            std::env::temp_dir().join(format!("hyperpraw_stream_rt_{}.hgr", std::process::id()));
        hmetis::write_hgr_file(&hg, &path).unwrap();

        let mut disk = stream_hgr_file(&path, &StreamOptions::default()).unwrap();
        let mut mem = InMemoryVertexStream::new(&hg);
        assert_eq!(collect(&mut disk), collect(&mut mem));
        assert_eq!(disk.num_vertices(), hg.num_vertices());
        assert_eq!(disk.num_nets(), hg.num_hyperedges());
        assert_eq!(disk.num_pins(), hg.num_pins());

        // A second pass yields the same records.
        disk.reset().unwrap();
        mem.reset().unwrap();
        assert_eq!(collect(&mut disk), collect(&mut mem));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_stream_preserves_vertex_weights() {
        let text = "1 3 10\n1 2 3\n5\n1\n2\n";
        let path =
            std::env::temp_dir().join(format!("hyperpraw_stream_w_{}.hgr", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let mut stream = stream_hgr_file(&path, &StreamOptions::default()).unwrap();
        let records = collect(&mut stream);
        assert_eq!(records[0].weight, 5.0);
        assert_eq!(records[1].weight, 1.0);
        assert_eq!(records[2].weight, 2.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_buffer_splits_buckets_and_bounds_peak_memory() {
        // 40 vertices in a ring of pair nets: 80 pins = 640 pair bytes.
        let mut b = HypergraphBuilder::new(40);
        for v in 0..40u32 {
            b.add_hyperedge([v, (v + 1) % 40]);
        }
        let hg = b.build();
        let path =
            std::env::temp_dir().join(format!("hyperpraw_stream_split_{}.hgr", std::process::id()));
        hmetis::write_hgr_file(&hg, &path).unwrap();

        let options = StreamOptions::with_buffer_bytes(64);
        let mut disk = stream_hgr_file(&path, &options).unwrap();
        let records = collect(&mut disk);
        assert_eq!(records.len(), 40);
        assert!(records.iter().all(|r| r.nets.len() == 2));
        assert!(
            disk.peak_loaded_bytes() <= 64,
            "peak {} exceeds the 64-byte buffer",
            disk.peak_loaded_bytes()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_streams_leave_no_spill_files_behind() {
        let spill =
            std::env::temp_dir().join(format!("hyperpraw-spill-leak-test-{}", std::process::id()));
        std::fs::create_dir_all(&spill).unwrap();
        let options = StreamOptions {
            buffer_bytes: 1 << 10,
            spill_dir: Some(spill.clone()),
        };

        // hMETIS input whose body contradicts the header: the error fires
        // inside DiskVertexStream::build, after the bucket dir exists.
        let bad_hgr = std::env::temp_dir().join(format!("bad-{}.hgr", std::process::id()));
        std::fs::write(&bad_hgr, "5 4\n1 2\n").unwrap();
        assert!(stream_hgr_file(&bad_hgr, &options).is_err());

        // Edge list that fails to parse during the raw spill pass.
        let bad_el = std::env::temp_dir().join(format!("bad-{}.txt", std::process::id()));
        std::fs::write(&bad_el, "0 1\n2 x\n").unwrap();
        assert!(stream_edgelist_file(&bad_el, &options).is_err());

        let leftovers: Vec<_> = std::fs::read_dir(&spill).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "failed streams leaked {} spill entries",
            leftovers.len()
        );

        std::fs::remove_file(&bad_hgr).ok();
        std::fs::remove_file(&bad_el).ok();
        std::fs::remove_dir_all(&spill).ok();
    }

    #[test]
    fn edgelist_stream_matches_visitor_and_emits_isolated_vertices() {
        let text = "# c\n0 1 2\n2 4\n";
        let path =
            std::env::temp_dir().join(format!("hyperpraw_stream_el_{}.txt", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let mut stream = stream_edgelist_file(&path, &StreamOptions::default()).unwrap();
        let records = collect(&mut stream);
        // Vertex 3 never appears in a net but is below the max id: it must
        // still be yielded (as isolated) so ids stay dense.
        assert_eq!(records.len(), 5);
        assert_eq!(records[0].nets, vec![0]);
        assert_eq!(records[2].nets, vec![0, 1]);
        assert_eq!(records[3].nets, Vec::<HyperedgeId>::new());
        assert_eq!(records[4].nets, vec![1]);
        assert_eq!(stream.num_nets(), 2);
        std::fs::remove_file(&path).ok();
    }
}
