//! MatrixMarket `.mtx` coordinate reader and hypergraph models for sparse
//! matrices.
//!
//! Most of the paper's benchmark instances are SuiteSparse matrices. A sparse
//! matrix `A` maps to a hypergraph by the **row-net** model (vertices =
//! columns, one hyperedge per row spanning the columns with a nonzero in that
//! row) or the **column-net** model (transposed roles). For structurally
//! symmetric matrices the two coincide, which is why Table 1 lists equal
//! vertex and hyperedge counts for the FEM instances.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::io::{capacity_hint, field, id_count, next_data_line, try_build, IoError, IoResult};
use crate::{Hypergraph, HypergraphBuilder, VertexId};

/// How to turn a sparse matrix into a hypergraph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparseMatrixModel {
    /// Vertices are columns; one hyperedge per row (Catalyurek & Aykanat's
    /// 1-D row-wise decomposition model).
    RowNet,
    /// Vertices are rows; one hyperedge per column.
    ColumnNet,
}

/// A sparse matrix in coordinate form, as read from a `.mtx` file.
#[derive(Clone, Debug, PartialEq)]
pub struct CoordinateMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Nonzero entries `(row, col)` (0-based, duplicates removed, symmetric
    /// part expanded when the header declares `symmetric`).
    pub entries: Vec<(u32, u32)>,
}

impl CoordinateMatrix {
    /// Converts the matrix to a hypergraph under the given model.
    pub fn to_hypergraph(&self, model: SparseMatrixModel, name: &str) -> Hypergraph {
        self.builder(model, name).build()
    }

    /// The builder [`CoordinateMatrix::to_hypergraph`] finalises.
    fn builder(&self, model: SparseMatrixModel, name: &str) -> HypergraphBuilder {
        type EntryKey = fn(&(u32, u32)) -> (u32, u32);
        let (num_vertices, key): (usize, EntryKey) = match model {
            SparseMatrixModel::RowNet => (self.cols, |&(r, c)| (r, c)),
            SparseMatrixModel::ColumnNet => (self.rows, |&(r, c)| (c, r)),
        };
        // Group pins by net through a sort rather than a table indexed by
        // net id: the declared net count need not be backed by entries.
        let mut keyed: Vec<(u32, u32)> = self.entries.iter().map(key).collect();
        keyed.sort_unstable();
        let mut builder = HypergraphBuilder::new(num_vertices);
        builder.name(name.to_string());
        for net in keyed.chunk_by(|a, b| a.0 == b.0) {
            builder.add_hyperedge(net.iter().map(|&(_, pin)| pin as VertexId));
        }
        builder
    }
}

/// Reads a MatrixMarket coordinate file.
pub fn read_mtx<R: BufRead>(reader: R) -> IoResult<CoordinateMatrix> {
    let mut lines = reader.lines().enumerate();

    // Header: "%%MatrixMarket matrix coordinate <field> <symmetry>".
    let (first_no, first) = match lines.next() {
        Some((i, line)) => (i + 1, line?),
        None => return Err(IoError::parse(1, "empty file")),
    };
    let header = first.trim().to_ascii_lowercase();
    if !header.starts_with("%%matrixmarket") {
        return Err(IoError::parse(first_no, "missing %%MatrixMarket header"));
    }
    if !header.contains("coordinate") {
        return Err(IoError::parse(
            first_no,
            "only coordinate (sparse) matrices are supported",
        ));
    }
    let symmetric = header.contains("symmetric")
        || header.contains("hermitian")
        || header.contains("skew-symmetric");
    let pattern = header.contains("pattern");

    // Size line (after comments).
    let (size_no, size_line) =
        next_data_line(&mut lines)?.ok_or_else(|| IoError::parse(first_no, "missing size line"))?;
    let mut toks = size_line.split_whitespace();
    let rows: usize = field(&mut toks, size_no, "row count")?;
    let cols: usize = field(&mut toks, size_no, "column count")?;
    let nnz: usize = field(&mut toks, size_no, "nonzero count")?;
    // Rows and columns become vertices or nets depending on the model.
    let rows = id_count(rows, size_no, "row count")?;
    let cols = id_count(cols, size_no, "column count")?;

    let declared = if symmetric {
        nnz.saturating_mul(2)
    } else {
        nnz
    };
    let mut entries: Vec<(u32, u32)> = Vec::with_capacity(capacity_hint(declared));
    let mut read = 0usize;
    for (i, line) in lines {
        let line_no = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut toks = t.split_whitespace();
        let r: usize = field(&mut toks, line_no, "row index")?;
        let c: usize = field(&mut toks, line_no, "column index")?;
        if !pattern && toks.next().is_none() {
            return Err(IoError::parse(line_no, "missing value field"));
        }
        if r == 0 || r > rows || c == 0 || c > cols {
            return Err(IoError::parse(line_no, "entry index out of range"));
        }
        let (r0, c0) = ((r - 1) as u32, (c - 1) as u32);
        entries.push((r0, c0));
        if symmetric && r0 != c0 {
            entries.push((c0, r0));
        }
        read += 1;
    }
    if read != nnz {
        return Err(IoError::parse(
            size_no,
            format!("expected {nnz} entries, found {read}"),
        ));
    }
    entries.sort_unstable();
    entries.dedup();
    Ok(CoordinateMatrix {
        rows,
        cols,
        entries,
    })
}

/// Reads a `.mtx` file and converts it to a hypergraph under `model`,
/// naming the hypergraph after the file stem.
pub fn read_mtx_file(path: impl AsRef<Path>, model: SparseMatrixModel) -> IoResult<Hypergraph> {
    let path = path.as_ref();
    let matrix = read_mtx(BufReader::new(File::open(path)?))?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("matrix");
    try_build(matrix.builder(model, name))
}

/// Writes a coordinate matrix as a (pattern, general) MatrixMarket file.
pub fn write_mtx<W: Write>(matrix: &CoordinateMatrix, mut writer: W) -> IoResult<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(
        writer,
        "{} {} {}",
        matrix.rows,
        matrix.cols,
        matrix.entries.len()
    )?;
    for &(r, c) in &matrix.entries {
        writeln!(writer, "{} {}", r + 1, c + 1)?;
    }
    Ok(())
}

/// Writes a coordinate matrix to a file path.
pub fn write_mtx_file(matrix: &CoordinateMatrix, path: impl AsRef<Path>) -> IoResult<()> {
    write_mtx(matrix, BufWriter::new(File::create(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
        % comment\n\
        3 4 5\n\
        1 1 1.0\n\
        1 3 2.0\n\
        2 2 0.5\n\
        3 1 1.5\n\
        3 4 -1.0\n";

    #[test]
    fn reads_general_matrix() {
        let m = read_mtx(Cursor::new(GENERAL)).unwrap();
        assert_eq!(m.rows, 3);
        assert_eq!(m.cols, 4);
        assert_eq!(m.entries.len(), 5);
        assert!(m.entries.contains(&(0, 2)));
    }

    #[test]
    fn symmetric_matrices_are_expanded() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
            3 3 3\n\
            1 1 1.0\n\
            2 1 2.0\n\
            3 2 3.0\n";
        let m = read_mtx(Cursor::new(text)).unwrap();
        // Diagonal kept once, off-diagonals mirrored.
        assert_eq!(m.entries.len(), 5);
        assert!(m.entries.contains(&(0, 1)));
        assert!(m.entries.contains(&(1, 0)));
    }

    #[test]
    fn pattern_matrices_need_no_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = read_mtx(Cursor::new(text)).unwrap();
        assert_eq!(m.entries.len(), 2);
    }

    #[test]
    fn row_net_model_builds_expected_hyperedges() {
        let m = read_mtx(Cursor::new(GENERAL)).unwrap();
        let hg = m.to_hypergraph(SparseMatrixModel::RowNet, "general");
        // Vertices = columns (4), hyperedges = non-empty rows (3).
        assert_eq!(hg.num_vertices(), 4);
        assert_eq!(hg.num_hyperedges(), 3);
        assert_eq!(hg.pins(0), &[0, 2]); // row 1 -> cols {1,3}
        assert_eq!(hg.pins(2), &[0, 3]); // row 3 -> cols {1,4}
    }

    #[test]
    fn column_net_model_transposes_roles() {
        let m = read_mtx(Cursor::new(GENERAL)).unwrap();
        let hg = m.to_hypergraph(SparseMatrixModel::ColumnNet, "general");
        assert_eq!(hg.num_vertices(), 3);
        // Column 3 (0-based 2) has a single entry; columns with entries: 1,2,3,4.
        assert_eq!(hg.num_hyperedges(), 4);
    }

    #[test]
    fn rejects_wrong_header() {
        let err = read_mtx(Cursor::new("not a matrix\n1 1 0\n")).unwrap_err();
        assert!(format!("{err}").contains("MatrixMarket"));
    }

    #[test]
    fn rejects_out_of_range_entries() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read_mtx(Cursor::new(text)).unwrap_err();
        assert!(format!("{err}").contains("out of range"));
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        let err = read_mtx(Cursor::new(text)).unwrap_err();
        assert!(format!("{err}").contains("expected 3 entries"));
    }

    #[test]
    fn absurd_header_counts_are_a_parse_error_not_an_allocation() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 99999999999999\n1 2\n";
        let err = read_mtx(Cursor::new(text)).unwrap_err();
        assert!(format!("{err}").contains("expected 99999999999999 entries, found 1"));
    }

    #[test]
    fn counts_beyond_the_u32_id_space_are_a_parse_error() {
        // The column count is the row-net model's vertex count; rows are
        // its nets. Neither can exceed the u32 ids the entries are stored as.
        for size in ["1 99999999999999 1", "99999999999999 3 1"] {
            let text = format!("%%MatrixMarket matrix coordinate pattern general\n{size}\n1 1\n");
            let err = read_mtx(Cursor::new(text)).unwrap_err();
            assert!(matches!(err, IoError::Parse { line: 2, .. }), "{err}");
            assert!(
                format!("{err}").contains("exceeds the u32 id space"),
                "{err}"
            );
        }
    }

    #[test]
    fn declared_net_count_is_not_allocated_up_front() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n4294967295 3 1\n5 2\n";
        let hg = read_mtx(Cursor::new(text))
            .unwrap()
            .to_hypergraph(SparseMatrixModel::RowNet, "wide");
        assert_eq!(hg.num_vertices(), 3);
        assert_eq!(hg.num_hyperedges(), 1);
        assert_eq!(hg.pins(0), &[1]);
    }

    #[test]
    fn write_then_read_round_trips() {
        let m = read_mtx(Cursor::new(GENERAL)).unwrap();
        let mut buf = Vec::new();
        write_mtx(&m, &mut buf).unwrap();
        let back = read_mtx(Cursor::new(buf)).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn symmetric_row_and_column_nets_coincide() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
            4 4 5\n\
            1 1 1.0\n\
            2 1 1.0\n\
            3 2 1.0\n\
            4 3 1.0\n\
            4 4 1.0\n";
        let m = read_mtx(Cursor::new(text)).unwrap();
        let a = m.to_hypergraph(SparseMatrixModel::RowNet, "s");
        let b = m.to_hypergraph(SparseMatrixModel::ColumnNet, "s");
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_hyperedges(), b.num_hyperedges());
        for e in a.hyperedges() {
            assert_eq!(a.pins(e), b.pins(e));
        }
    }
}
