//! hMetis `.hgr` format reader/writer.
//!
//! Format (as used by hMetis, PaToH converters and KaHyPar, and by the
//! benchmark set the paper draws from):
//!
//! ```text
//! % comment lines start with '%'
//! <num_hyperedges> <num_vertices> [fmt]
//! [edge_weight] v1 v2 v3 ...      (one line per hyperedge, 1-based ids)
//! ...
//! [vertex_weight]                 (one line per vertex, if fmt has weights)
//! ```
//!
//! `fmt` is omitted or one of `1` (hyperedge weights), `10` (vertex weights)
//! or `11` (both).

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::io::stream::visit_hgr;
use crate::io::{try_build, IoResult};
use crate::{Hypergraph, HypergraphBuilder, VertexId};

/// Reads a hypergraph in hMetis format from a buffered reader, through the
/// same parse as the streaming [`crate::io::stream::visit_hgr_nets`].
pub fn read_hgr<R: BufRead>(reader: R) -> IoResult<Hypergraph> {
    let mut builder = HypergraphBuilder::new(0);
    let summary = visit_hgr(reader, |_, pins, weight| {
        builder.add_weighted_hyperedge(pins.iter().copied(), weight);
        Ok(())
    })?;
    for (v, &w) in summary.vertex_weights.iter().flatten().enumerate() {
        builder.set_vertex_weight(v as VertexId, w);
    }
    builder.ensure_vertices(summary.num_vertices);
    try_build(builder)
}

/// Reads a hypergraph in hMetis format from a file path. The file stem is
/// used as the hypergraph name.
pub fn read_hgr_file(path: impl AsRef<Path>) -> IoResult<Hypergraph> {
    let path = path.as_ref();
    let file = File::open(path)?;
    let mut hg = read_hgr(BufReader::new(file))?;
    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
        hg.set_name(stem);
    }
    Ok(hg)
}

/// Writes a hypergraph in hMetis format. Hyperedge weights are emitted only
/// when at least one differs from 1.0; likewise for vertex weights.
///
/// Each hyperedge line is assembled in one reused byte buffer, with pin
/// ids formatted by hand, and handed to `writer` whole, so the cost per
/// pin is a few digit stores rather than a formatter call.
pub fn write_hgr<W: Write>(hg: &Hypergraph, mut writer: W) -> IoResult<()> {
    let has_edge_weights = hg.hyperedges().any(|e| hg.edge_weight(e) != 1.0);
    let has_vertex_weights = hg.vertices().any(|v| hg.vertex_weight(v) != 1.0);
    let fmt = match (has_edge_weights, has_vertex_weights) {
        (false, false) => None,
        (true, false) => Some(1),
        (false, true) => Some(10),
        (true, true) => Some(11),
    };
    writeln!(writer, "% {}", hg.name())?;
    match fmt {
        Some(f) => writeln!(
            writer,
            "{} {} {}",
            hg.num_hyperedges(),
            hg.num_vertices(),
            f
        )?,
        None => writeln!(writer, "{} {}", hg.num_hyperedges(), hg.num_vertices())?,
    }
    let mut line: Vec<u8> = Vec::with_capacity(256);
    for e in hg.hyperedges() {
        line.clear();
        if has_edge_weights {
            write!(line, "{} ", hg.edge_weight(e))?;
        }
        for (i, &v) in hg.pins(e).iter().enumerate() {
            if i > 0 {
                line.push(b' ');
            }
            push_decimal(&mut line, u64::from(v) + 1);
        }
        line.push(b'\n');
        writer.write_all(&line)?;
    }
    if has_vertex_weights {
        for v in hg.vertices() {
            writeln!(writer, "{}", hg.vertex_weight(v))?;
        }
    }
    writer.flush()?;
    Ok(())
}

/// Appends the decimal digits of `x` to `out`.
fn push_decimal(out: &mut Vec<u8>, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Writes a hypergraph in hMetis format to a file path.
pub fn write_hgr_file(hg: &Hypergraph, path: impl AsRef<Path>) -> IoResult<()> {
    let file = File::create(path)?;
    write_hgr(hg, BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoError;
    use std::io::Cursor;

    #[test]
    fn reads_unweighted_file() {
        let text = "% a comment\n3 5\n1 2 3\n3 4\n1 4 5\n";
        let hg = read_hgr(Cursor::new(text)).unwrap();
        assert_eq!(hg.num_vertices(), 5);
        assert_eq!(hg.num_hyperedges(), 3);
        assert_eq!(hg.pins(0), &[0, 1, 2]);
        assert_eq!(hg.pins(2), &[0, 3, 4]);
        hg.validate().unwrap();
    }

    #[test]
    fn reads_edge_weights() {
        let text = "2 3 1\n2.5 1 2\n1.0 2 3\n";
        let hg = read_hgr(Cursor::new(text)).unwrap();
        assert_eq!(hg.edge_weight(0), 2.5);
        assert_eq!(hg.edge_weight(1), 1.0);
    }

    #[test]
    fn reads_vertex_weights() {
        let text = "1 3 10\n1 2 3\n5\n1\n2\n";
        let hg = read_hgr(Cursor::new(text)).unwrap();
        assert_eq!(hg.vertex_weight(0), 5.0);
        assert_eq!(hg.vertex_weight(2), 2.0);
    }

    #[test]
    fn reads_both_weights() {
        let text = "1 2 11\n4 1 2\n3\n7\n";
        let hg = read_hgr(Cursor::new(text)).unwrap();
        assert_eq!(hg.edge_weight(0), 4.0);
        assert_eq!(hg.vertex_weight(1), 7.0);
    }

    #[test]
    fn rejects_out_of_range_vertex() {
        let text = "1 3\n1 4\n";
        let err = read_hgr(Cursor::new(text)).unwrap_err();
        assert!(format!("{err}").contains("out of range"));
    }

    #[test]
    fn rejects_missing_edges() {
        let text = "3 3\n1 2\n";
        let err = read_hgr(Cursor::new(text)).unwrap_err();
        assert!(format!("{err}").contains("expected 3 hyperedges"));
    }

    #[test]
    fn absurd_header_counts_are_a_parse_error_not_an_allocation() {
        let err = read_hgr(Cursor::new("99999999999999 3\n1 2\n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
        assert!(format!("{err}").contains("expected 99999999999999 hyperedges, found 1"));
    }

    #[test]
    fn vertex_counts_beyond_the_u32_id_space_are_a_parse_error() {
        // Either count would otherwise size the vertex arrays at build time
        // (800 TB and 40 GB) and abort the process.
        for header in ["1 99999999999999\n1 2\n", "1 5000000000\n1 2\n"] {
            let err = read_hgr(Cursor::new(header)).unwrap_err();
            assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
            assert!(
                format!("{err}").contains("exceeds the u32 id space"),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_empty_file() {
        let err = read_hgr(Cursor::new("")).unwrap_err();
        assert!(format!("{err}").contains("empty file"));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut b = crate::HypergraphBuilder::new(6);
        b.name("roundtrip");
        b.add_hyperedge([0u32, 1, 2]);
        b.add_weighted_hyperedge([3u32, 4, 5], 2.0);
        b.set_vertex_weight(5, 3.0);
        let hg = b.build();

        let mut buf = Vec::new();
        write_hgr(&hg, &mut buf).unwrap();
        let read_back = read_hgr(Cursor::new(buf)).unwrap();
        assert_eq!(read_back.num_vertices(), hg.num_vertices());
        assert_eq!(read_back.num_hyperedges(), hg.num_hyperedges());
        for e in hg.hyperedges() {
            assert_eq!(read_back.pins(e), hg.pins(e));
            assert_eq!(read_back.edge_weight(e), hg.edge_weight(e));
        }
        for v in hg.vertices() {
            assert_eq!(read_back.vertex_weight(v), hg.vertex_weight(v));
        }
    }

    /// The writer's output before pin ids were formatted by hand, kept as
    /// the byte-exact reference.
    fn reference_hgr(hg: &Hypergraph) -> String {
        let has_edge_weights = hg.hyperedges().any(|e| hg.edge_weight(e) != 1.0);
        let has_vertex_weights = hg.vertices().any(|v| hg.vertex_weight(v) != 1.0);
        let mut out = format!("% {}\n", hg.name());
        match (has_edge_weights, has_vertex_weights) {
            (false, false) => out += &format!("{} {}\n", hg.num_hyperedges(), hg.num_vertices()),
            (e, v) => {
                let fmt = u8::from(e) + 10 * u8::from(v);
                out += &format!("{} {} {fmt}\n", hg.num_hyperedges(), hg.num_vertices());
            }
        }
        for e in hg.hyperedges() {
            let mut line = String::new();
            if has_edge_weights {
                line.push_str(&format!("{} ", hg.edge_weight(e)));
            }
            let pins: Vec<String> = hg.pins(e).iter().map(|&v| (v + 1).to_string()).collect();
            line.push_str(&pins.join(" "));
            out += &format!("{line}\n");
        }
        if has_vertex_weights {
            for v in hg.vertices() {
                out += &format!("{}\n", hg.vertex_weight(v));
            }
        }
        out
    }

    #[test]
    fn writer_output_is_byte_identical_to_the_reference_formatting() {
        let mesh = crate::generators::mesh_hypergraph(&crate::generators::MeshConfig::new(300, 6));
        let weighted = |edge: bool, vertex: bool| {
            let mut b = crate::HypergraphBuilder::new(mesh.num_vertices() + 2);
            b.name("weights");
            for (e, pins) in mesh.iter_edges() {
                let w = [1.0, 2.5, 1e-7, 3.0, 1e21][e as usize % 5];
                b.add_weighted_hyperedge(pins.iter().copied(), if edge { w } else { 1.0 });
            }
            // A hyperedge on the last ids, the widest decimal numbers.
            b.add_hyperedge([0u32, mesh.num_vertices() as u32 + 1]);
            if vertex {
                for v in mesh.vertices() {
                    b.set_vertex_weight(v, [1.0, 4.0, 0.25, 7.5][v as usize % 4]);
                }
            }
            b.build()
        };
        for hg in [
            mesh.clone(),
            weighted(false, false),
            weighted(true, false),
            weighted(false, true),
            weighted(true, true),
            crate::HypergraphBuilder::new(0).build(),
        ] {
            let mut buf = Vec::new();
            write_hgr(&hg, &mut buf).unwrap();
            assert_eq!(String::from_utf8(buf).unwrap(), reference_hgr(&hg));
        }
    }

    #[test]
    fn file_round_trip_uses_stem_as_name() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hyperpraw_hgr_test_{}.hgr", std::process::id()));
        let mut b = crate::HypergraphBuilder::new(3);
        b.add_hyperedge([0u32, 1, 2]);
        let hg = b.build();
        write_hgr_file(&hg, &path).unwrap();
        let read_back = read_hgr_file(&path).unwrap();
        assert!(read_back.name().starts_with("hyperpraw_hgr_test_"));
        assert_eq!(read_back.num_hyperedges(), 1);
        std::fs::remove_file(&path).ok();
    }
}
