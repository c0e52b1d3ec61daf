//! The partition workloads, `mesh-seq` and `powerlaw-steal2`.
//!
//! Set-up generates the input and writes it to disk as hMETIS text. One
//! measured operation goes from that file to the final partition and its
//! quality report: parse, adjacency, restreaming and evaluation. Outputs
//! are checked after the measured phase.
//!
//! The graphs are fixed; the seed picks the profiled machine (the
//! bandwidth noise of `Testbed::archer`) and the partitioner's seed.
//!
//! The out-of-core path (storage and lowmem) is no workload of its own:
//! on a 2-vCPU VM its partition time spread by 40% between runs of
//! identical work. `mesh-seq`'s traced run measures its layers instead.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hyperpraw::api::{Algorithm, PartitionJob};
use hyperpraw::core::metrics::{partitioning_communication_cost_with, QualityReport};
use hyperpraw::core::{CostMatrix, ParallelMode};
use hyperpraw::hypergraph::generators::{mesh_hypergraph, MeshConfig, PaperInstance, SuiteConfig};
use hyperpraw::hypergraph::io::hmetis::{read_hgr_file, write_hgr_file};
use hyperpraw::hypergraph::io::stream::{StreamOptions, VertexRecord, VertexStream};
use hyperpraw::hypergraph::{AdjacencyBudget, Hypergraph, NeighborAdjacency};
use hyperpraw::lowmem::MemoryBudget;
use hyperpraw::netsim::{BenchmarkConfig, SyntheticBenchmark};
use hyperpraw::report::PartitionReport;
use hyperpraw::storage::{convert_file, CompressedReader, ReadMode, DEFAULT_BLOCK_TARGET_BYTES};
use hyperpraw::telemetry::Registry;
use hyperpraw_bench::Testbed;

use crate::check;
use crate::metrics::{median, Outcome};
use crate::sys::{self, ms_since, WorkDir};
use crate::{Args, Workload};

/// Parts (simulated compute units), as in the paper's p = 24 runs.
pub const PARTS: usize = 24;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Blocks the facade's `.hpz` read cache holds (`run_compressed_file`).
const CACHE_SLOTS: usize = 16;
/// The restreaming drivers' default imbalance tolerance.
const TOLERANCE: f64 = 1.1;
/// Calls per layer timed from outside in the traced run.
const LAYER_REPEATS: usize = 3;

/// A pure-stencil FEM mesh with 16 pins per hyperedge (the paper's
/// `2cubes_sphere` profile).
pub fn fem_mesh(vertices: usize) -> Hypergraph {
    mesh_hypergraph(&MeshConfig::new(vertices, 16))
}

fn generate(workload: Workload) -> Hypergraph {
    match workload {
        // The webbase-1M stand-in at 5% scale: 50 000 vertices, ~150 k
        // pins. Its generator seed stays fixed: across generator seeds the
        // hub share ranged from 10% to 15% and the comm cost by a third.
        Workload::PowerlawSteal2 => PaperInstance::Webbase1M.generate(&SuiteConfig {
            scale: 0.05,
            min_vertices: 4 * PARTS,
            ..SuiteConfig::default()
        }),
        _ => fem_mesh(20_000),
    }
}

fn job(workload: Workload, cost: &CostMatrix, seed: u64, registry: &Registry) -> PartitionJob {
    let job = PartitionJob::new(match workload {
        Workload::PowerlawSteal2 => Algorithm::ParallelAware,
        _ => Algorithm::HyperPrawAware,
    })
    .cost(cost.clone())
    .seed(seed)
    .registry(registry);
    match workload {
        Workload::PowerlawSteal2 => job.threads(2).parallel_mode(ParallelMode::WorkStealing),
        _ => job,
    }
}

/// Generates and writes the input [`SETUP_REPEATS`] times; returns its
/// path with the seconds each set-up took.
fn set_up(workload: Workload, dir: &Path) -> Result<(PathBuf, Vec<f64>), String> {
    let hgr = dir.join("input.hgr");
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        write_hgr_file(&generate(workload), &hgr)
            .map_err(|e| format!("writing {}: {e}", hgr.display()))?;
        setup.push(started.elapsed().as_secs_f64());
    }
    Ok((hgr, setup))
}

/// One measured operation: input file to final partition and report.
struct Run {
    secs: f64,
    parse_ms: f64,
    peak_rss_kib: Option<u64>,
    report: PartitionReport,
}

fn partition_once(job: &PartitionJob, hgr: &Path) -> Result<Run, String> {
    sys::reset_peak_rss();
    let started = Instant::now();
    let hg = read_hgr_file(hgr).map_err(|e| e.to_string())?;
    let parse_ms = ms_since(started);
    let report = job.run(&hg).map_err(|e| e.to_string())?;
    drop(hg);
    Ok(Run {
        secs: started.elapsed().as_secs_f64(),
        parse_ms,
        peak_rss_kib: sys::peak_rss_kib(),
        report,
    })
}

/// Partitions until `seconds` have passed, at least once. Traced runs
/// each get a fresh live registry, so its counters cover that run alone.
fn measure(
    workload: Workload,
    cost: &CostMatrix,
    seed: u64,
    hgr: &Path,
    seconds: f64,
    traced: bool,
    outcome: &mut Outcome,
) -> Result<Vec<(Run, Registry)>, String> {
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let registry = if traced {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let run = partition_once(&job(workload, cost, seed, &registry), hgr);
        let run = outcome
            .op("partition", run)
            .ok_or("a partition run failed")?;
        eprintln!("perfbench: partition {:.3} s", run.secs);
        runs.push((run, registry));
    }
    Ok(runs)
}

pub fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let dir = WorkDir::new(workload.name())?;
    let (hgr, setup) = set_up(workload, dir.path())?;
    let testbed = Testbed::archer(PARTS, 0, args.seed);
    let cost = &testbed.cost;
    let mut outcome = Outcome::default();
    outcome.set("setup_s", median(&setup));

    // The traced run spends half its time untraced, so the telemetry
    // overhead is measured on the same input in the same process.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let runs = measure(
        workload,
        cost,
        args.seed,
        &hgr,
        seconds,
        false,
        &mut outcome,
    )?;
    let traced = if args.trace {
        measure(workload, cost, args.seed, &hgr, seconds, true, &mut outcome)?
    } else {
        Vec::new()
    };

    // Output checks and quality, outside the measured phase.
    let hg = read_hgr_file(&hgr).map_err(|e| e.to_string())?;
    let netsim = SyntheticBenchmark::new(testbed.link.clone(), BenchmarkConfig::default());
    let (mut comm_cost, mut imbalance, mut sim_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (run, _) in runs.iter().chain(&traced) {
        let report = &run.report;
        let checked = check::quality(
            &hg,
            &report.partition,
            cost,
            report.imbalance,
            report.comm_cost,
        )
        .and_then(|q| check::stop_reason(report.stop_reason, q.imbalance, TOLERANCE).map(|()| q));
        if let Some(quality) = outcome.verify("partition output", checked) {
            comm_cost.push(quality.comm_cost);
            imbalance.push(quality.imbalance);
            sim_ms.push(netsim.run(&hg, &report.partition).total_time_us / 1e3);
        }
    }
    let secs: Vec<f64> = runs.iter().map(|(run, _)| run.secs).collect();
    let rss_mib: Vec<f64> = runs
        .iter()
        .filter_map(|(run, _)| run.peak_rss_kib)
        .map(|kib| kib as f64 / 1024.0)
        .collect();
    outcome.set("time_to_partition_s", median(&secs));
    outcome.set("comm_cost", median(&comm_cost));
    outcome.set("imbalance", median(&imbalance));
    outcome.set("sim_app_ms", median(&sim_ms));
    outcome.set("peak_rss_mib", median(&rss_mib));
    outcome.set(
        "throughput_rps",
        secs.len() as f64 / secs.iter().sum::<f64>(),
    );

    let adjacency = NeighborAdjacency::build(&hg, AdjacencyBudget::Auto);
    let hub_share = adjacency.num_hubs() as f64 / hg.num_vertices() as f64;
    outcome.property("adjacency.hub_share", hub_share);
    outcome.property("input.vertices", hg.num_vertices() as f64);
    outcome.property("input.pins", hg.num_pins() as f64);
    outcome.property("runs", secs.len() as f64);

    if args.trace {
        let input_bytes = std::fs::metadata(&hgr).map_err(|e| e.to_string())?.len();
        outcome.set("io.input_bytes", input_bytes as f64);
        layers(&hg, &secs, traced, cost, &netsim, &mut outcome)?;
        if workload == Workload::MeshSeq {
            out_of_core_layers(dir.path(), cost, args.seed, &mut outcome)?;
        }
    }
    Ok(outcome)
}

/// The traced run's per-layer metrics, taken from its median-time run:
/// each layer's entry point is timed from outside, and the run's wall
/// clock is attributed to them.
fn layers(
    hg: &Hypergraph,
    plain_secs: &[f64],
    mut traced: Vec<(Run, Registry)>,
    cost: &CostMatrix,
    netsim: &SyntheticBenchmark,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let traced_secs: Vec<f64> = traced.iter().map(|(run, _)| run.secs).collect();
    let overhead = median(&traced_secs) / median(plain_secs) - 1.0;
    outcome.set("telemetry.overhead_pct", overhead * 100.0);
    traced.sort_by(|a, b| a.0.secs.total_cmp(&b.0.secs));
    let (run, registry) = &traced[traced.len() / 2];
    let report = &run.report;
    let total_ms = run.secs * 1e3;
    let counter = |name: &str| registry.counter_value(name).unwrap_or(0) as f64;

    let traffic = netsim.run(hg, &report.partition);
    outcome.set("netsim.remote_bytes", traffic.remote_bytes as f64);
    outcome.set("netsim.remote_messages", traffic.remote_messages as f64);
    let quality_ms = median_ms(|| QualityReport::compute(hg, &report.partition, cost));
    let threads = report.config.threads;
    let build = || NeighborAdjacency::build_with_threads(hg, AdjacencyBudget::Auto, threads);
    let build_ms = median_ms(build);
    let adjacency = build();
    let commcost_ms =
        median_ms(|| partitioning_communication_cost_with(hg, &adjacency, &report.partition, cost));
    let passes = report.iterations as f64;
    let pass_us = registry
        .histogram_snapshot("engine.pass_time_us")
        .unwrap_or_default();
    let pass_ms_sum = pass_us.sum as f64 / 1e3;
    let scored = counter("engine.vertices_scored");
    let fallbacks = counter("engine.hub_fallbacks");
    let attributed = run.parse_ms + build_ms + pass_ms_sum + passes * commcost_ms + quality_ms;
    outcome.set("trace.partition_ms", total_ms);
    outcome.set("io.parse_ms", run.parse_ms);
    outcome.set("adjacency.build_ms", build_ms);
    outcome.set("adjacency.bytes", adjacency.memory_bytes() as f64);
    let hub_share = adjacency.num_hubs() as f64 / hg.num_vertices() as f64;
    outcome.set("adjacency.hub_share", hub_share);
    outcome.set("engine.passes", passes);
    outcome.set("engine.pass_ms_sum", pass_ms_sum);
    outcome.set("engine.pass_ms_p50", pass_us.quantile(0.5) as f64 / 1e3);
    outcome.set("engine.vertices_scored", scored);
    outcome.set("engine.hub_fallbacks", fallbacks);
    outcome.set("engine.hub_fallback_ratio", fallbacks / scored.max(1.0));
    outcome.set(
        "engine.steal.chunk_claims",
        counter("engine.steal.chunk_claims"),
    );
    outcome.set(
        "engine.steal.batch_applies",
        counter("engine.steal.batch_applies"),
    );
    outcome.set("metrics.commcost_eval_ms", commcost_ms);
    outcome.set("metrics.commcost_share", passes * commcost_ms / total_ms);
    outcome.set("metrics.quality_eval_ms", quality_ms);
    outcome.set("engine.unattributed_ms", total_ms - attributed);
    outcome.set("trace.attributed_share", attributed / total_ms);
    eprintln!(
        "perfbench: traced partition {total_ms:.1} ms = parse {:.1} + adjacency {build_ms:.1} \
         + passes {pass_ms_sum:.1} + comm cost {passes} x {commcost_ms:.2} \
         + quality {quality_ms:.1} + unattributed {:.1}",
        run.parse_ms,
        total_ms - attributed
    );
    Ok(())
}

/// The storage and lowmem layers, on a 100 000-vertex mesh (1.6 M pins,
/// a `.hpz` larger than the 16-slot read cache): convert it, time one
/// synchronous decode, and partition it once streaming with the sketched
/// lowmem driver (16 MiB, two passes, prefetch on).
fn out_of_core_layers(
    dir: &Path,
    cost: &CostMatrix,
    seed: u64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let hg = fem_mesh(100_000);
    let (hgr, hpz) = (dir.join("large.hgr"), dir.join("large.hpz"));
    write_hgr_file(&hg, &hgr).map_err(|e| format!("writing {}: {e}", hgr.display()))?;
    let started = Instant::now();
    convert_file(
        &hgr,
        &hpz,
        DEFAULT_BLOCK_TARGET_BYTES,
        &StreamOptions::default(),
    )
    .map_err(|e| format!("converting to {}: {e}", hpz.display()))?;
    outcome.set("storage.convert_ms", ms_since(started));
    let decoded = drain(&hpz)
        .and_then(|pins| check::close("decoded pins", pins as f64, hg.num_pins() as f64));
    outcome.verify("draining the .hpz", decoded);
    outcome.set("storage.decode_ms", median_ms(|| drain(&hpz)));

    let registry = Registry::new();
    let job = PartitionJob::new(Algorithm::LowMemSketched)
        .cost(cost.clone())
        .seed(seed)
        .registry(&registry)
        .memory_budget(MemoryBudget::mebibytes(16))
        .passes(2);
    let report = job.run_compressed_file(&hpz).map_err(|e| e.to_string());
    let report = outcome
        .op("streamed partition", report)
        .ok_or("the streamed partition failed")?;
    let checked = check::quality(&hg, &report.partition, cost, report.imbalance, None);
    outcome.verify("streamed partition output", checked);

    let lowmem = report
        .lowmem
        .ok_or("the lowmem run reported no lowmem statistics")?;
    let passes = lowmem.passes.max(1) as f64;
    outcome.set("lowmem.passes", lowmem.passes as f64);
    outcome.set(
        "lowmem.pass_ms",
        report.timings.partition_secs * 1e3 / passes,
    );
    outcome.set("lowmem.index_bytes", lowmem.index_memory_bytes as f64);
    let restreamed = lowmem.restreamed.max(1) as f64;
    outcome.set(
        "lowmem.restream_move_ratio",
        lowmem.moved_in_restream as f64 / restreamed,
    );
    let counter = |name: &str| registry.counter_value(name).unwrap_or(0) as f64;
    let (hits, misses) = (
        counter("storage.cache.hits"),
        counter("storage.cache.misses"),
    );
    outcome.set("storage.bytes_decoded", counter("storage.bytes_decoded"));
    outcome.set("storage.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let stall = registry.histogram_snapshot("storage.prefetch.stall_us");
    let stall_us = stall.map_or(0, |s| s.sum);
    outcome.set("storage.prefetch_stall_ms", stall_us as f64 / 1e3);
    let reader = CompressedReader::open_file(&hpz).map_err(|e| e.to_string())?;
    outcome.set("storage.blocks", reader.num_blocks() as f64);
    outcome.set("storage.cache_slots", CACHE_SLOTS as f64);
    Ok(())
}

/// Median wall-clock milliseconds of [`LAYER_REPEATS`] calls to `f`.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..LAYER_REPEATS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            ms_since(started)
        })
        .collect();
    median(&times)
}

/// Decodes every block of `path` once, without prefetch; returns the
/// pins read.
fn drain(path: &Path) -> Result<usize, String> {
    let reader = CompressedReader::open_file(path).map_err(|e| e.to_string())?;
    let mut stream = reader.stream(ReadMode::Sync);
    let mut record = VertexRecord::default();
    let mut pins = 0;
    while stream.next_into(&mut record).map_err(|e| e.to_string())? {
        pins += record.nets.len();
    }
    Ok(pins)
}
