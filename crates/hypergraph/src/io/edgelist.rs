//! A minimal whitespace-separated hyperedge-list format.
//!
//! One hyperedge per line, 0-based vertex ids, `#` comments. Used by the
//! examples and handy for quick experiments:
//!
//! ```text
//! # three hyperedges over five vertices
//! 0 1 2
//! 2 3
//! 0 3 4
//! ```

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::io::{try_build, IoError, IoResult};
use crate::{Hypergraph, HypergraphBuilder, VertexId};

/// Reads an edge-list hypergraph from a buffered reader.
pub fn read_edgelist<R: BufRead>(reader: R) -> IoResult<Hypergraph> {
    let mut builder = HypergraphBuilder::new(0);
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut pins: Vec<VertexId> = Vec::new();
        for tok in t.split_whitespace() {
            let v: VertexId = tok
                .parse()
                .map_err(|_| IoError::parse(line_no, format!("invalid vertex id '{tok}'")))?;
            pins.push(v);
        }
        builder.add_hyperedge(pins);
    }
    try_build(builder)
}

/// Reads an edge-list hypergraph from a file, naming it after the file stem.
pub fn read_edgelist_file(path: impl AsRef<Path>) -> IoResult<Hypergraph> {
    let path = path.as_ref();
    let mut hg = read_edgelist(BufReader::new(File::open(path)?))?;
    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
        hg.set_name(stem);
    }
    Ok(hg)
}

/// Writes a hypergraph as an edge list (weights are not preserved).
pub fn write_edgelist<W: Write>(hg: &Hypergraph, mut writer: W) -> IoResult<()> {
    writeln!(writer, "# {} ({} vertices)", hg.name(), hg.num_vertices())?;
    for e in hg.hyperedges() {
        let pins: Vec<String> = hg.pins(e).iter().map(|v| v.to_string()).collect();
        writeln!(writer, "{}", pins.join(" "))?;
    }
    Ok(())
}

/// Writes a hypergraph as an edge list to a file path.
pub fn write_edgelist_file(hg: &Hypergraph, path: impl AsRef<Path>) -> IoResult<()> {
    write_edgelist(hg, BufWriter::new(File::create(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_simple_file() {
        let text = "# comment\n0 1 2\n2 3\n\n0 3 4\n";
        let hg = read_edgelist(Cursor::new(text)).unwrap();
        assert_eq!(hg.num_vertices(), 5);
        assert_eq!(hg.num_hyperedges(), 3);
        assert_eq!(hg.pins(1), &[2, 3]);
    }

    #[test]
    fn rejects_non_numeric_ids() {
        let err = read_edgelist(Cursor::new("0 x 2\n")).unwrap_err();
        assert!(format!("{err}").contains("invalid vertex id"));
    }

    #[test]
    fn round_trips_through_memory() {
        let mut b = HypergraphBuilder::new(4);
        b.name("rt");
        b.add_hyperedge([0u32, 1]);
        b.add_hyperedge([1u32, 2, 3]);
        let hg = b.build();
        let mut buf = Vec::new();
        write_edgelist(&hg, &mut buf).unwrap();
        let back = read_edgelist(Cursor::new(buf)).unwrap();
        assert_eq!(back.num_vertices(), 4);
        assert_eq!(back.num_hyperedges(), 2);
        assert_eq!(back.pins(1), hg.pins(1));
    }

    #[test]
    fn empty_input_builds_empty_hypergraph() {
        let hg = read_edgelist(Cursor::new("# nothing\n")).unwrap();
        assert_eq!(hg.num_vertices(), 0);
        assert_eq!(hg.num_hyperedges(), 0);
    }
}
