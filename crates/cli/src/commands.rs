//! Implementations of the `hyperpraw` subcommands.
//!
//! Both partitioning subcommands (`partition`, `lowmem`) dispatch through
//! the facade's unified [`PartitionJob`] API — the CLI contains no
//! per-driver wiring of its own — and can emit the common
//! [`hyperpraw::report::PartitionReport`] as JSON (`--json` /
//! `--json-out`). Everything a subcommand prints goes through one
//! writer, [`Stdout`] when run from the command line.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use hyperpraw::api::{Algorithm, PartitionError, PartitionJob};
use hyperpraw::core::metrics::QualityReport;
use hyperpraw::core::CostMatrix;
use hyperpraw::hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw::hypergraph::io::stream::{
    read_hgr_header, stream_edgelist_file, stream_hgr_file, StreamOptions, VertexStream,
};
use hyperpraw::hypergraph::io::{edgelist, hmetis, matrix_market, IoError};
use hyperpraw::hypergraph::{Hypergraph, HypergraphStats, Partition};
use hyperpraw::json::JsonValue;
use hyperpraw::lowmem::{quality, MemoryBudget};
use hyperpraw::netsim::{BenchmarkConfig, LinkModel, RingProfiler, SyntheticBenchmark};
use hyperpraw::report::PartitionReport;
use hyperpraw::storage;
use hyperpraw::telemetry;
use hyperpraw::topology::MachineModel;

use crate::args::{Cli, Command, MachinePreset, StreamFormat};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CommandError {
    /// Problem reading or parsing an input file.
    Io(String),
    /// Problem with the provided inputs (sizes, ids, ...).
    Invalid(String),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(m) | Self::Invalid(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<IoError> for CommandError {
    fn from(e: IoError) -> Self {
        Self::Io(e.to_string())
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

impl From<PartitionError> for CommandError {
    fn from(e: PartitionError) -> Self {
        match e {
            PartitionError::Io(m) => Self::Io(m),
            other => Self::Invalid(other.to_string()),
        }
    }
}

/// The CLI's standard output. Once the reader has gone away (a closed
/// pipe, as in `| head`) the output is dropped instead of failing the run,
/// so the command still writes its files and exits quietly.
#[derive(Debug)]
pub struct Stdout;

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        done_if_reader_gone(io::stdout().write(buf), buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        done_if_reader_gone(io::stdout().flush(), ())
    }
}

fn done_if_reader_gone<T>(result: io::Result<T>, done: T) -> io::Result<T> {
    match result {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(done),
        result => result,
    }
}

/// The file extension, lower-cased (empty when there is none).
fn extension(path: &Path) -> String {
    path.extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase()
}

/// Loads a hypergraph, dispatching on the file extension: `.hgr` (hMetis),
/// `.mtx` (MatrixMarket row-net model), anything else as an edge list.
pub fn load_hypergraph(path: &Path) -> Result<Hypergraph, CommandError> {
    let hg = match extension(path).as_str() {
        "hgr" => hmetis::read_hgr_file(path)?,
        "mtx" => matrix_market::read_mtx_file(path, matrix_market::SparseMatrixModel::RowNet)?,
        _ => edgelist::read_edgelist_file(path)?,
    };
    Ok(hg)
}

/// Builds the machine preset at the requested size, or says why the
/// preset cannot hold `procs` units.
pub fn build_machine(preset: MachinePreset, procs: usize) -> Result<MachineModel, CommandError> {
    let machine = match preset {
        MachinePreset::Archer => MachineModel::try_archer_like(procs),
        MachinePreset::Cluster => Ok(MachineModel::dual_socket_cluster(procs, 12)),
        MachinePreset::Cloud => Ok(MachineModel::cloud_like(procs, 8)),
        MachinePreset::Flat => Ok(MachineModel::flat(procs, 1_000.0, 1.5)),
    };
    machine.map_err(|e| CommandError::Invalid(e.to_string()))
}

/// Profiles a machine preset: link model plus measured bandwidth/cost.
pub(crate) fn profile(
    preset: MachinePreset,
    procs: usize,
    seed: u64,
) -> Result<(LinkModel, CostMatrix), CommandError> {
    let machine = build_machine(preset, procs)?;
    let link = LinkModel::from_machine(&machine, 0.05, seed);
    let bandwidth = RingProfiler {
        seed,
        ..RingProfiler::default()
    }
    .profile(&link);
    Ok((link, CostMatrix::from_bandwidth(&bandwidth)))
}

/// Refuses a `parts`-way partition of `num_vertices` vertices on `preset`
/// that cannot run: fewer than the two parts a ring profile needs, more
/// parts than vertices (the job's own refusal, which would come only
/// after the profile), or more parts than the preset holds. A profile is
/// dense in `parts²`, so every caller runs this before [`profile`].
pub(crate) fn check_parts(
    preset: MachinePreset,
    parts: u32,
    num_vertices: usize,
) -> Result<(), CommandError> {
    if parts < 2 {
        return Err(CommandError::Invalid(
            "profiling a machine needs at least two parts".into(),
        ));
    }
    if parts as usize > num_vertices {
        return Err(CommandError::Invalid(format!(
            "cannot split {num_vertices} vertices into {parts} parts"
        )));
    }
    build_machine(preset, parts as usize).map(drop)
}

/// Reads an assignment file: one partition id per line, `#` comments.
pub fn read_assignment(path: &Path, num_vertices: usize) -> Result<Partition, CommandError> {
    let text = fs::read_to_string(path)?;
    let mut assignment = Vec::with_capacity(num_vertices);
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let part: u32 = t.parse().map_err(|_| {
            CommandError::Invalid(format!(
                "assignment line {}: '{t}' is not a partition id",
                i + 1
            ))
        })?;
        assignment.push(part);
    }
    if assignment.len() != num_vertices {
        return Err(CommandError::Invalid(format!(
            "assignment has {} entries but the hypergraph has {num_vertices} vertices",
            assignment.len()
        )));
    }
    let parts = assignment.iter().copied().max().unwrap_or(0) + 1;
    Partition::from_assignment(assignment, parts).map_err(|e| CommandError::Invalid(e.to_string()))
}

/// Writes an assignment file (one partition id per line).
pub fn write_assignment(path: &Path, partition: &Partition) -> Result<(), CommandError> {
    let mut out = String::with_capacity(partition.num_vertices() * 3);
    out.push_str(&format!(
        "# hyperpraw assignment: {} vertices, {} parts\n",
        partition.num_vertices(),
        partition.num_parts()
    ));
    for &p in partition.assignment() {
        out.push_str(&p.to_string());
        out.push('\n');
    }
    fs::write(path, out)?;
    Ok(())
}

/// Shared report output of the partitioning subcommands: JSON to stdout
/// and/or file when requested, text summary otherwise, plus the optional
/// assignment file.
fn emit_report(
    out: &mut dyn Write,
    report: &PartitionReport,
    header: &str,
    json: bool,
    json_out: Option<&Path>,
    output: Option<&Path>,
) -> Result<(), CommandError> {
    if json {
        writeln!(out, "{}", report.to_json())?;
    } else {
        writeln!(out, "{header}")?;
        write!(out, "{}", report.text_summary())?;
    }
    if let Some(path) = json_out {
        fs::write(path, report.to_json() + "\n")?;
        if !json {
            writeln!(out, "json report      : {}", path.display())?;
        }
    }
    if let Some(path) = output {
        write_assignment(path, &report.partition)?;
        if !json {
            writeln!(out, "assignment       : {}", path.display())?;
        }
    }
    Ok(())
}

/// Dumps the run's telemetry registry as single-line JSON when
/// `--metrics-out` asked for it.
fn write_metrics(
    out: &mut dyn Write,
    path: Option<&Path>,
    metrics: &telemetry::Registry,
    json: bool,
) -> Result<(), CommandError> {
    if let Some(path) = path {
        fs::write(path, format!("{}\n", JsonValue::from(&metrics.snapshot())))?;
        if !json {
            writeln!(out, "metrics          : {}", path.display())?;
        }
    }
    Ok(())
}

/// Executes a parsed invocation, printing to `out`.
pub fn execute(cli: &Cli, out: &mut dyn Write) -> Result<(), CommandError> {
    match &cli.command {
        Command::Stats { input } => {
            let hg = load_hypergraph(input)?;
            let stats = HypergraphStats::compute(&hg);
            writeln!(out, "{}", HypergraphStats::csv_header())?;
            writeln!(out, "{}", stats.csv_row())?;
            writeln!(out, "\n{stats}")?;
            Ok(())
        }
        Command::Serve(options) => crate::serve::serve(options),
        Command::Partition {
            input,
            parts,
            algorithm,
            machine,
            imbalance,
            threads,
            seed,
            output,
            json,
            json_out,
            metrics_out,
        } => {
            let hg = load_hypergraph(input)?;
            if *parts < 2 {
                return Err(CommandError::Invalid("--parts must be at least 2".into()));
            }
            if threads.is_some() && !algorithm.restreams() {
                return Err(CommandError::Invalid(format!(
                    "--threads does not apply to {}; pick a restreaming algorithm",
                    algorithm.name()
                )));
            }
            check_parts(*machine, *parts, hg.num_vertices())?;
            let (_, cost) = profile(*machine, *parts as usize, *seed)?;
            let metrics = telemetry::Registry::new();
            let report = PartitionJob::new(*algorithm)
                .partitions(*parts)
                .cost(cost)
                .seed(*seed)
                .imbalance_tolerance(*imbalance)
                .threads(threads.unwrap_or(1))
                .registry(&metrics)
                .run(&hg)?;
            emit_report(
                out,
                &report,
                &format!("hypergraph       : {hg}"),
                *json,
                json_out.as_deref(),
                output.as_deref(),
            )?;
            write_metrics(out, metrics_out.as_deref(), &metrics, *json)
        }
        Command::LowMem {
            input,
            parts,
            budget_mib,
            exact,
            restream,
            passes,
            rebuild_sketches,
            machine,
            seed,
            output,
            json,
            json_out,
            format,
            no_prefetch,
            metrics_out,
        } => {
            if *parts < 2 {
                return Err(CommandError::Invalid("--parts must be at least 2".into()));
            }
            if *rebuild_sketches && *exact {
                return Err(CommandError::Invalid(
                    "--rebuild-sketches only applies to the sketched index; drop --exact".into(),
                ));
            }
            let input_is_compressed = storage::is_compressed_file(input);
            let use_compressed = match format {
                StreamFormat::Transpose => {
                    if input_is_compressed {
                        return Err(CommandError::Invalid(
                            "input is a compressed .hpz file; drop --format transpose".into(),
                        ));
                    }
                    false
                }
                StreamFormat::Compressed => true,
                StreamFormat::Auto => input_is_compressed,
            };
            let ext = extension(input);
            if ext == "mtx" && !input_is_compressed {
                return Err(CommandError::Invalid(
                    "MatrixMarket files are not streamable; convert to .hgr first".into(),
                ));
            }
            let algorithm = if *exact {
                Algorithm::LowMemExact
            } else {
                Algorithm::LowMemSketched
            };
            let budget = MemoryBudget::mebibytes((*budget_mib).max(1));
            let metrics = telemetry::Registry::new();
            let job = PartitionJob::new(algorithm)
                .partitions(*parts)
                .memory_budget(budget)
                .restream_capacity(*restream)
                .passes(*passes)
                .rebuild_sketches(*rebuild_sketches)
                .seed(*seed)
                .prefetch(!*no_prefetch)
                .registry(&metrics);
            job.validate()?;
            let options = StreamOptions {
                buffer_bytes: budget.plan(*parts as usize, 0).transpose_buffer_bytes,
                spill_dir: None,
            };
            let is_hgr = ext == "hgr" && !input_is_compressed;
            // The job's cost matrix, profiled once the vertex count is
            // known to admit --parts.
            let costed = |num_vertices: usize| -> Result<PartitionJob, CommandError> {
                check_parts(*machine, *parts, num_vertices)?;
                let (_, cost) = profile(*machine, *parts as usize, *seed)?;
                Ok(job.clone().cost(cost))
            };
            if is_hgr {
                // The header carries the vertex count; reject an oversized
                // --parts before paying for the on-disk transpose.
                check_parts(*machine, *parts, read_hgr_header(input)?.num_vertices)?;
            }
            let (mut report, header) = if use_compressed {
                // Run over the block-compressed CSR, converting first when
                // the input is still an .hgr / edge list.
                let temp_hpz = if input_is_compressed {
                    None
                } else {
                    let tmp = std::env::temp_dir().join(format!(
                        "hyperpraw-lowmem-{}-{}.hpz",
                        std::process::id(),
                        seed
                    ));
                    storage::convert_file(
                        input,
                        &tmp,
                        storage::DEFAULT_BLOCK_TARGET_BYTES,
                        &options,
                    )?;
                    Some(tmp)
                };
                let hpz_path = temp_hpz.as_deref().unwrap_or(input.as_path());
                let meta = storage::CompressedReader::open_file(hpz_path)
                    .map(|reader| *reader.meta())
                    .map_err(|e| CommandError::Io(e.to_string()));
                let result = meta.and_then(|meta| {
                    let job = costed(meta.num_vertices as usize)?;
                    Ok((meta, job.run_compressed_file(hpz_path)?))
                });
                if let Some(tmp) = &temp_hpz {
                    fs::remove_file(tmp).ok();
                }
                let (meta, report) = result?;
                let header = format!(
                    "hypergraph       : {} (|V|={}, |E|={}, pins={})\n\
                     memory budget    : {budget}\n\
                     stream           : compressed CSR, {} block(s), prefetch {}\n\
                     block cache      : {} hit(s), {} miss(es)",
                    input.display(),
                    meta.num_vertices,
                    meta.num_nets,
                    meta.num_pins,
                    meta.num_blocks,
                    if *no_prefetch { "off" } else { "on" },
                    metrics.counter("storage.cache.hits").get(),
                    metrics.counter("storage.cache.misses").get(),
                );
                (report, header)
            } else {
                let mut stream = if is_hgr {
                    stream_hgr_file(input, &options)?
                } else {
                    stream_edgelist_file(input, &options)?
                };
                let report = costed(stream.num_vertices())?.run_stream(&mut stream)?;
                let header = format!(
                    "hypergraph       : {} (|V|={}, |E|={}, pins={})\n\
                     memory budget    : {budget}\n\
                     transpose peak   : {} B",
                    input.display(),
                    stream.num_vertices(),
                    stream.num_nets(),
                    stream.num_pins(),
                    stream.peak_loaded_bytes()
                );
                (report, header)
            };
            // The original edge-major file (when we have one) back-fills
            // the cut metrics; a bare .hpz leaves quality deferred.
            if !input_is_compressed {
                let streamed = if is_hgr {
                    quality::evaluate_hgr_file(input, &report.partition)?
                } else {
                    quality::evaluate_edgelist_file(input, &report.partition)?
                };
                report.attach_streamed_quality(&streamed);
            }
            emit_report(
                out,
                &report,
                &header,
                *json,
                json_out.as_deref(),
                output.as_deref(),
            )?;
            write_metrics(out, metrics_out.as_deref(), &metrics, *json)
        }
        Command::Convert {
            input,
            output,
            block_bytes,
        } => {
            if extension(input) == "mtx" {
                return Err(CommandError::Invalid(
                    "MatrixMarket files are not streamable; convert to .hgr first".into(),
                ));
            }
            if storage::is_compressed_file(input) {
                return Err(CommandError::Invalid(
                    "input is already in the compressed format".into(),
                ));
            }
            let meta =
                storage::convert_file(input, output, *block_bytes, &StreamOptions::default())?;
            let in_bytes = fs::metadata(input)?.len();
            let out_bytes = fs::metadata(output)?.len();
            writeln!(
                out,
                "converted {} -> {}\n\
                 |V|={}, |E|={}, pins={}, {} block(s) of ~{} B\n\
                 {} B -> {} B ({:.2}x)",
                input.display(),
                output.display(),
                meta.num_vertices,
                meta.num_nets,
                meta.num_pins,
                meta.num_blocks,
                meta.block_target_bytes,
                in_bytes,
                out_bytes,
                in_bytes as f64 / out_bytes.max(1) as f64,
            )?;
            Ok(())
        }
        Command::Generate {
            output,
            vertices,
            cardinality,
            seed,
        } => {
            if *vertices == 0 || *cardinality == 0 {
                return Err(CommandError::Invalid(
                    "--vertices and --cardinality must be positive".into(),
                ));
            }
            let mut config = MeshConfig::new(*vertices, *cardinality);
            config.seed = *seed;
            let hg = mesh_hypergraph(&config);
            hmetis::write_hgr_file(&hg, output)?;
            writeln!(
                out,
                "wrote {} (|V|={}, |E|={}, pins={})",
                output.display(),
                hg.num_vertices(),
                hg.num_hyperedges(),
                hg.num_pins()
            )?;
            Ok(())
        }
        Command::Profile {
            machine,
            procs,
            output,
        } => {
            if *procs < 2 {
                return Err(CommandError::Invalid(
                    "profiling needs at least two compute units".into(),
                ));
            }
            let (link, cost) = profile(*machine, *procs, 2019)?;
            let csv = link.bandwidth().to_csv();
            match output {
                Some(path) => {
                    fs::write(path, &csv)?;
                    writeln!(out, "wrote {}", path.display())?;
                }
                None => write!(out, "{csv}")?,
            }
            writeln!(
                out,
                "# {} units, bandwidth {:.0}..{:.0} MB/s, cost {:.2}..{:.2}",
                procs,
                link.bandwidth().min_off_diagonal(),
                link.bandwidth().max_off_diagonal(),
                cost.min_off_diagonal(),
                cost.max_off_diagonal()
            )?;
            // Cost centrality: the precomputed row sums bound what each
            // unit pays to reach every peer — the spread flags poorly
            // connected units worth keeping off chatty partitions.
            let sums: Vec<f64> = (0..*procs).map(|i| cost.row_sum(i)).collect();
            let most = sums.iter().cloned().fold(f64::INFINITY, f64::min);
            let least = sums.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            writeln!(
                out,
                "# per-unit total reach cost (row sums): {most:.1} (best) .. {least:.1} (worst)"
            )?;
            Ok(())
        }
        Command::Benchmark {
            input,
            assignment,
            machine,
            message_bytes,
            supersteps,
        } => {
            let hg = load_hypergraph(input)?;
            let partition = read_assignment(assignment, hg.num_vertices())?;
            let procs = partition.num_parts() as usize;
            if procs < 2 {
                return Err(CommandError::Invalid(
                    "the assignment uses a single partition; nothing to benchmark".into(),
                ));
            }
            let (link, cost) = profile(*machine, procs, 2019)?;
            let bench = SyntheticBenchmark::new(
                link,
                BenchmarkConfig {
                    message_bytes: *message_bytes,
                    supersteps: *supersteps,
                    ..BenchmarkConfig::default()
                },
            );
            let result = bench.run(&hg, &partition);
            let quality = QualityReport::compute(&hg, &partition, &cost);
            writeln!(out, "hypergraph       : {hg}")?;
            writeln!(out, "partitions       : {procs}")?;
            writeln!(out, "remote messages  : {}", result.remote_messages)?;
            writeln!(out, "remote bytes     : {}", result.remote_bytes)?;
            writeln!(out, "comm cost        : {:.1}", quality.comm_cost)?;
            writeln!(
                out,
                "simulated time   : {:.3} ms",
                result.total_time_us / 1e3
            )?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw::hypergraph::HypergraphBuilder;

    /// Parses a command line and runs it with its output discarded.
    fn run(line: &str) -> Result<(), CommandError> {
        let cli = Cli::parse(line.split_whitespace().map(String::from)).expect(line);
        execute(&cli, &mut io::sink())
    }

    /// `partition` with the basic algorithm on a flat machine; `flags`
    /// come last, so they override these.
    fn partition(input: &Path, parts: u32, flags: &str) -> Result<(), CommandError> {
        let shared = "-a basic -m flat --imbalance 1.2 --seed 1";
        run(&format!(
            "partition {} --parts {parts} {shared} {flags}",
            input.display()
        ))
    }

    /// `lowmem` under a 1 MiB budget on a flat machine; `flags` come last,
    /// so they override these.
    fn lowmem(input: &Path, parts: u32, flags: &str) -> Result<(), CommandError> {
        let shared = "--budget-mib 1 -m flat --seed 0";
        run(&format!(
            "lowmem {} --parts {parts} {shared} {flags}",
            input.display()
        ))
    }

    /// A path unique per call: tests run concurrently in one process, so
    /// the process id alone would let them race on the same file.
    fn temp_path(name: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hyperpraw_cli_{}_{id}_{name}", std::process::id()))
    }

    fn sample_hgr() -> std::path::PathBuf {
        let path = temp_path("sample.hgr");
        let mut b = HypergraphBuilder::new(8);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3, 4]);
        b.add_hyperedge([4u32, 5, 6, 7]);
        b.add_hyperedge([0u32, 7]);
        hmetis::write_hgr_file(&b.build(), &path).unwrap();
        path
    }

    #[test]
    fn load_dispatches_on_extension() {
        let path = sample_hgr();
        let hg = load_hypergraph(&path).unwrap();
        assert_eq!(hg.num_vertices(), 8);
        assert_eq!(hg.num_hyperedges(), 4);
        fs::remove_file(path).ok();
    }

    #[test]
    fn assignment_round_trips() {
        let part = Partition::round_robin(10, 3);
        let path = temp_path("assignment.txt");
        write_assignment(&path, &part).unwrap();
        let back = read_assignment(&path, 10).unwrap();
        assert_eq!(back.assignment(), part.assignment());
        fs::remove_file(path).ok();
    }

    #[test]
    fn assignment_length_mismatch_is_reported() {
        let part = Partition::round_robin(5, 2);
        let path = temp_path("short.txt");
        write_assignment(&path, &part).unwrap();
        let err = read_assignment(&path, 10).unwrap_err();
        assert!(err.to_string().contains("10 vertices"));
        fs::remove_file(path).ok();
    }

    #[test]
    fn partition_command_writes_an_assignment_file() {
        let input = sample_hgr();
        let output = temp_path("out_assignment.txt");
        partition(&input, 2, &format!("-o {}", output.display())).unwrap();
        let hg = load_hypergraph(&input).unwrap();
        let part = read_assignment(&output, hg.num_vertices()).unwrap();
        assert!(part.num_parts() <= 2);
        fs::remove_file(input).ok();
        fs::remove_file(output).ok();
    }

    #[test]
    fn every_algorithm_dispatches_through_the_partition_command() {
        let input = sample_hgr();
        for algorithm in Algorithm::all() {
            partition(&input, 2, &format!("-a {}", algorithm.name()))
                .unwrap_or_else(|e| panic!("{}: {e}", algorithm.name()));
        }
        fs::remove_file(input).ok();
    }

    #[test]
    fn json_out_writes_a_partition_report() {
        let input = sample_hgr();
        let json_out = temp_path("report.json");
        partition(&input, 2, &format!("--json-out {}", json_out.display())).unwrap();
        let json = fs::read_to_string(&json_out).unwrap();
        assert!(json.contains("\"algorithm\": \"hyperpraw-basic\""));
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"config\""));
        fs::remove_file(input).ok();
        fs::remove_file(json_out).ok();
    }

    #[test]
    fn lowmem_command_partitions_in_one_pass_and_writes_an_assignment() {
        let input = sample_hgr();
        let output = temp_path("lowmem_assignment.txt");
        for exact in ["", "--exact"] {
            let flags = format!("{exact} --restream 4 --seed 1 -o {}", output.display());
            lowmem(&input, 2, &flags).unwrap();
            let hg = load_hypergraph(&input).unwrap();
            let part = read_assignment(&output, hg.num_vertices()).unwrap();
            assert!(part.num_parts() <= 2);
        }
        fs::remove_file(input).ok();
        fs::remove_file(output).ok();
    }

    #[test]
    fn convert_then_compressed_lowmem_matches_the_transpose_path() {
        // The CI pipeline scenario: generate -> convert -> partition the
        // compressed file, diff against the uncompressed stream path.
        let input = sample_hgr();
        let hpz = temp_path("sample.hpz");
        run(&format!(
            "convert {} {} --block-bytes 128",
            input.display(),
            hpz.display()
        ))
        .unwrap();
        assert!(storage::is_compressed_file(&hpz));

        let from_transpose = temp_path("assignment_transpose.txt");
        let from_compressed = temp_path("assignment_compressed.txt");
        let from_hpz = temp_path("assignment_hpz.txt");
        // Uncompressed baseline.
        let flags = format!("--seed 5 -o {} -f transpose", from_transpose.display());
        lowmem(&input, 2, &flags).unwrap();
        // Same .hgr forced through the compressed reader (converted to a
        // temporary .hpz internally).
        let flags = format!("--seed 5 -o {} -f compressed", from_compressed.display());
        lowmem(&input, 2, &flags).unwrap();
        // The pre-converted .hpz picked up by the auto sniff, prefetch off.
        let flags = format!("--seed 5 -o {} --no-prefetch", from_hpz.display());
        lowmem(&hpz, 2, &flags).unwrap();

        let baseline = fs::read_to_string(&from_transpose).unwrap();
        assert_eq!(baseline, fs::read_to_string(&from_compressed).unwrap());
        assert_eq!(baseline, fs::read_to_string(&from_hpz).unwrap());
        for p in [&input, &hpz, &from_transpose, &from_compressed, &from_hpz] {
            fs::remove_file(p).ok();
        }
    }

    #[test]
    fn lowmem_command_runs_multi_pass_sketched_restreaming_end_to_end() {
        // The sketched connectivity provider with multi-pass restreaming
        // and sketch rebuilds, straight from the CLI.
        let input = sample_hgr();
        let output = temp_path("lowmem_multi_pass_assignment.txt");
        let json_out = temp_path("lowmem_multi_pass_report.json");
        let flags = format!(
            "--passes 2 --rebuild-sketches --seed 7 -o {} --json-out {}",
            output.display(),
            json_out.display()
        );
        lowmem(&input, 2, &flags).unwrap();
        let hg = load_hypergraph(&input).unwrap();
        let part = read_assignment(&output, hg.num_vertices()).unwrap();
        assert!(part.num_parts() <= 2);
        let json = fs::read_to_string(&json_out).unwrap();
        assert!(json.contains("\"algorithm\": \"lowmem-sketched\""));
        assert!(json.contains("\"lowmem\": {"));
        // The streamed quality evaluation back-fills the cut metrics.
        assert!(!json.contains("\"hyperedge_cut\": null"));
        fs::remove_file(input).ok();
        fs::remove_file(output).ok();
        fs::remove_file(json_out).ok();
    }

    #[test]
    fn lowmem_command_rejects_mtx_too_many_parts_and_exact_rebuilds() {
        let err = lowmem(Path::new("matrix.mtx"), 4, "").unwrap_err();
        assert!(err.to_string().contains("not streamable"));

        let input = sample_hgr();
        let err = lowmem(&input, 1000, "").unwrap_err();
        assert!(err.to_string().contains("cannot split"));

        let err = lowmem(&input, 2, "--exact --rebuild-sketches").unwrap_err();
        fs::remove_file(input).ok();
        assert!(err.to_string().contains("rebuild-sketches"));
    }

    #[test]
    fn parts_are_refused_before_the_profile() {
        let err = check_parts(MachinePreset::Flat, 5, 4).unwrap_err();
        assert_eq!(err.to_string(), "cannot split 4 vertices into 5 parts");
        for parts in [0, 1] {
            let err = check_parts(MachinePreset::Flat, parts, 4).unwrap_err();
            assert!(err.to_string().contains("at least two parts"), "{err}");
        }
        // The ARCHER-like hierarchy holds 12·2·4·32·64 units; the other
        // presets grow with the job.
        let err = check_parts(MachinePreset::Archer, 196_609, 1 << 20).unwrap_err();
        assert!(
            err.to_string()
                .contains("capacity 196608 cannot hold 196609"),
            "{err}"
        );
        assert!(check_parts(MachinePreset::Archer, 196_608, 1 << 20).is_ok());
        assert!(check_parts(MachinePreset::Cloud, 196_609, 1 << 20).is_ok());
    }

    #[test]
    fn invalid_job_configs_surface_as_errors_not_panics() {
        let input = sample_hgr();
        // Zero lowmem passes reach the job API and come back as
        // InvalidConfig, not a panic or an infinite loop.
        let err = lowmem(&input, 2, "--passes 0").unwrap_err();
        assert!(err.to_string().contains("streaming pass"));
        fs::remove_file(input).ok();
    }

    #[test]
    fn zero_threads_auto_detects_instead_of_erroring() {
        // `--threads 0` used to be an InvalidConfig; it now resolves to
        // the machine's available parallelism inside the job API.
        let input = sample_hgr();
        let output = temp_path("partition_auto_threads.txt");
        let flags = format!("-a basic --threads 0 -o {}", output.display());
        partition(&input, 2, &flags).unwrap();
        let hg = load_hypergraph(&input).unwrap();
        let part = read_assignment(&output, hg.num_vertices()).unwrap();
        assert!(part.num_parts() <= 2);
        fs::remove_file(input).ok();
        fs::remove_file(output).ok();
    }

    #[test]
    fn partition_command_runs_the_work_stealing_mode_end_to_end() {
        let input = sample_hgr();
        let json_out = temp_path("steal_report.json");
        let flags = format!(
            "-a parallel-basic --threads 4 --json-out {}",
            json_out.display()
        );
        partition(&input, 2, &flags).unwrap();
        let json = fs::read_to_string(&json_out).unwrap();
        // The thread count alone names the schedule.
        assert!(json.contains("\"threads\": 4"));
        assert!(!json.contains("\"parallel_mode\""));
        assert!(!json.contains("\"sync_interval\""));
        fs::remove_file(input).ok();
        fs::remove_file(json_out).ok();
    }

    #[test]
    fn stats_and_profile_commands_run() {
        let input = sample_hgr();
        run(&format!("stats {}", input.display())).unwrap();
        let out = temp_path("bw.csv");
        run(&format!(
            "profile -m archer --procs 12 -o {}",
            out.display()
        ))
        .unwrap();
        assert!(fs::read_to_string(&out).unwrap().lines().count() == 12);
        fs::remove_file(input).ok();
        fs::remove_file(out).ok();
    }

    #[test]
    fn benchmark_command_uses_an_existing_assignment() {
        let input = sample_hgr();
        let hg = load_hypergraph(&input).unwrap();
        let assignment = temp_path("bench_assignment.txt");
        write_assignment(&assignment, &Partition::round_robin(hg.num_vertices(), 4)).unwrap();
        run(&format!(
            "benchmark {} {} -m cluster --bytes 128 --supersteps 2",
            input.display(),
            assignment.display()
        ))
        .unwrap();
        fs::remove_file(input).ok();
        fs::remove_file(assignment).ok();
    }

    #[test]
    fn invalid_inputs_produce_errors_not_panics() {
        let missing = temp_path("does_not_exist.hgr");
        assert!(run(&format!("stats {}", missing.display())).is_err());
        let too_many_parts = {
            let input = sample_hgr();
            let r = partition(&input, 1000, "-a round-robin");
            fs::remove_file(input).ok();
            r
        };
        assert!(too_many_parts.is_err());
        assert!(run("profile -m flat --procs 1").is_err());
    }
}
