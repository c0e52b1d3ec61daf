//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the HyperPRAW paper.
//!
//! Each binary (`table1`, `fig1`, `fig3`, `fig4`, `fig5`, `fig6`,
//! `ablation`, `run_all`) uses this crate to build the benchmark instances,
//! the simulated machine, and the three partitioning strategies the paper
//! compares (Zoltan-like multilevel, HyperPRAW-basic, HyperPRAW-aware), and
//! to write CSV artefacts under `target/experiments/`.
//!
//! Experiment size is controlled by environment variables so the same
//! binaries serve both CI-sized smoke runs and full-size reproductions:
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `HYPERPRAW_SCALE` | `0.01` | linear scale of the Table 1 instances |
//! | `HYPERPRAW_PROCS` | `96`   | number of simulated compute units |
//! | `HYPERPRAW_SEED`  | `2019` | base RNG seed |
//! | `HYPERPRAW_OUT`   | `target/experiments` | output directory |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fs;
use std::path::{Path, PathBuf};

use hyperpraw::api::{Algorithm, PartitionJob};
use hyperpraw::report::PartitionReport;
use hyperpraw_core::{metrics::QualityReport, CostMatrix, HyperPrawConfig};
use hyperpraw_hypergraph::generators::suite::{PaperInstance, SuiteConfig};
use hyperpraw_hypergraph::{Hypergraph, Partition};
use hyperpraw_netsim::{
    BenchmarkConfig, BenchmarkResult, LinkModel, RingProfiler, SyntheticBenchmark,
};
use hyperpraw_topology::{hierarchy::RankMapping, BandwidthMatrix, MachineModel};

pub use hyperpraw_core as core;
pub use hyperpraw_hypergraph as hypergraph;
pub use hyperpraw_multilevel as multilevel;
pub use hyperpraw_netsim as netsim;
pub use hyperpraw_topology as topology;

/// Experiment-wide settings, read from the environment.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Linear scale applied to the Table 1 instances.
    pub scale: f64,
    /// Number of simulated compute units (the paper uses 576; 96–144 keeps
    /// laptop runtimes in minutes while preserving multi-node heterogeneity).
    pub procs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Message payload of the synthetic benchmark.
    pub message_bytes: u64,
    /// Supersteps per synthetic-benchmark run.
    pub supersteps: usize,
    /// Output directory for CSV artefacts.
    pub output_dir: PathBuf,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            scale: 0.01,
            procs: 96,
            seed: 2019,
            message_bytes: 1024,
            supersteps: 1,
            output_dir: PathBuf::from("target/experiments"),
        }
    }
}

impl ExperimentConfig {
    /// Reads the configuration from the `HYPERPRAW_*` environment variables,
    /// falling back to the defaults.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("HYPERPRAW_SCALE") {
            if let Ok(x) = v.parse() {
                cfg.scale = x;
            }
        }
        if let Ok(v) = std::env::var("HYPERPRAW_PROCS") {
            if let Ok(x) = v.parse() {
                cfg.procs = x;
            }
        }
        if let Ok(v) = std::env::var("HYPERPRAW_SEED") {
            if let Ok(x) = v.parse() {
                cfg.seed = x;
            }
        }
        if let Ok(v) = std::env::var("HYPERPRAW_OUT") {
            cfg.output_dir = PathBuf::from(v);
        }
        cfg
    }

    /// Suite configuration matching this experiment configuration.
    pub fn suite(&self) -> SuiteConfig {
        SuiteConfig {
            scale: self.scale,
            seed: self.seed,
            min_vertices: 4 * self.procs,
        }
    }

    /// Generates one paper instance at the configured scale.
    pub fn instance(&self, inst: PaperInstance) -> Hypergraph {
        inst.generate(&self.suite())
    }

    /// Writes a CSV artefact and returns its path.
    pub fn write_csv(&self, name: &str, content: &str) -> PathBuf {
        fs::create_dir_all(&self.output_dir).expect("create output directory");
        let path = self.output_dir.join(name);
        fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }
}

/// The simulated machine environment: the architecture, a rank placement,
/// the link model the benchmark runs on, the *profiled* bandwidth and the
/// derived cost matrix.
#[derive(Clone, Debug)]
pub struct Testbed {
    /// The machine model (ARCHER-like by default).
    pub machine: MachineModel,
    /// Rank-to-unit placement of this "job allocation".
    pub mapping: RankMapping,
    /// The link model used by the synthetic benchmark.
    pub link: LinkModel,
    /// The profiled peer-to-peer bandwidth (what HyperPRAW-aware sees).
    pub bandwidth: BandwidthMatrix,
    /// The normalised communication-cost matrix.
    pub cost: CostMatrix,
}

impl Testbed {
    /// Builds an ARCHER-like testbed with `procs` compute units. `placement`
    /// selects the job allocation (0 = block, otherwise a scattered
    /// allocation seeded by the value), emulating the paper's repeated runs
    /// on different scheduler allocations.
    pub fn archer(procs: usize, placement: u64, seed: u64) -> Self {
        let machine = MachineModel::archer_like(procs);
        let mapping = if placement == 0 {
            RankMapping::block(procs)
        } else {
            RankMapping::scattered(procs, placement)
        };
        // Build the per-rank link model: rank pair (a, b) communicates at the
        // speed of the hardware units hosting them.
        let nominal = BandwidthMatrix::from_machine(&machine, 0.05, seed);
        let mut data = vec![0.0f64; procs * procs];
        for a in 0..procs {
            for b in 0..procs {
                data[a * procs + b] = if a == b {
                    nominal.get(a, b)
                } else {
                    nominal.get(mapping.unit_of(a), mapping.unit_of(b))
                };
            }
        }
        let rank_bandwidth = BandwidthMatrix::from_raw(procs, data);
        let link = LinkModel::from_bandwidth(rank_bandwidth, 1.2);
        // HyperPRAW never sees the machine: it profiles the link model.
        let bandwidth = RingProfiler {
            seed: seed ^ 0xABCD,
            ..RingProfiler::default()
        }
        .profile(&link);
        let cost = CostMatrix::from_bandwidth(&bandwidth);
        Self {
            machine,
            mapping,
            link,
            bandwidth,
            cost,
        }
    }

    /// The synthetic benchmark runner for this testbed.
    pub fn benchmark(&self, cfg: &ExperimentConfig) -> SyntheticBenchmark {
        SyntheticBenchmark::new(
            self.link.clone(),
            BenchmarkConfig {
                message_bytes: cfg.message_bytes,
                supersteps: cfg.supersteps,
                ..BenchmarkConfig::default()
            },
        )
    }
}

/// The partitioning strategies compared throughout the evaluation: the
/// paper's three, plus the memory-bounded streaming partitioner so the
/// quality/memory trade-off lands in the experiment CSVs by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Multilevel recursive bisection (the Zoltan baseline).
    ZoltanLike,
    /// HyperPRAW with a uniform cost matrix.
    HyperPrawBasic,
    /// HyperPRAW with the profiled cost matrix.
    HyperPrawAware,
    /// The `hyperpraw-lowmem` sketched streaming partitioner with the
    /// profiled cost matrix (architecture-aware, budgeted memory).
    LowMemSketched,
}

impl Strategy {
    /// Every compared strategy, in plotting order (the paper's three
    /// first).
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::ZoltanLike,
            Strategy::HyperPrawBasic,
            Strategy::HyperPrawAware,
            Strategy::LowMemSketched,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::ZoltanLike => "zoltan-like",
            Strategy::HyperPrawBasic => "hyperpraw-basic",
            Strategy::HyperPrawAware => "hyperpraw-aware",
            Strategy::LowMemSketched => "lowmem-sketched",
        }
    }

    /// The facade [`Algorithm`] this strategy dispatches to.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Strategy::ZoltanLike => Algorithm::MultilevelBaseline,
            Strategy::HyperPrawBasic => Algorithm::HyperPrawBasic,
            Strategy::HyperPrawAware => Algorithm::HyperPrawAware,
            Strategy::LowMemSketched => Algorithm::LowMemSketched,
        }
    }

    /// The [`PartitionJob`] this strategy runs on the given testbed: every
    /// strategy is handed the profiled cost matrix (the oblivious
    /// algorithms ignore it for partitioning but are evaluated against it,
    /// as in the paper's Figure 4C).
    pub fn job(&self, testbed: &Testbed, procs: usize, seed: u64) -> PartitionJob {
        PartitionJob::new(self.algorithm())
            .partitions(procs as u32)
            .cost(testbed.cost.clone())
            .seed(seed)
    }

    /// Runs this strategy on the given testbed, returning the full report.
    pub fn run(
        &self,
        hg: &Hypergraph,
        testbed: &Testbed,
        procs: usize,
        seed: u64,
    ) -> PartitionReport {
        self.job(testbed, procs, seed)
            .run(hg)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }

    /// Partitions a hypergraph with this strategy on the given testbed.
    pub fn partition(
        &self,
        hg: &Hypergraph,
        testbed: &Testbed,
        procs: usize,
        seed: u64,
    ) -> Partition {
        self.run(hg, testbed, procs, seed).partition
    }
}

/// Runs HyperPRAW-aware through the unified job API and returns the full
/// report (with history), used by the Figure 3 and ablation binaries.
pub fn run_hyperpraw(
    hg: &Hypergraph,
    cost: CostMatrix,
    config: HyperPrawConfig,
) -> PartitionReport {
    PartitionJob::new(Algorithm::HyperPrawAware)
        .cost(cost)
        .hyperpraw_config(config)
        .run(hg)
        .expect("valid bench configuration")
}

/// One row of the Figure 4 quality comparison.
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// Instance name.
    pub instance: String,
    /// Strategy name.
    pub strategy: &'static str,
    /// Quality metrics.
    pub quality: QualityReport,
}

/// One row of the Figure 5 runtime comparison.
#[derive(Clone, Debug)]
pub struct RuntimeRow {
    /// Instance name.
    pub instance: String,
    /// Strategy name.
    pub strategy: &'static str,
    /// Placement / repetition index.
    pub run: usize,
    /// Benchmark outcome.
    pub result: BenchmarkResult,
}

/// Renders a coarse ASCII heatmap of a matrix of values (higher = darker),
/// used to eyeball the Figure 1 / Figure 6 heatmaps in the terminal.
#[allow(clippy::needless_range_loop)] // 2-D block averaging reads clearest with indices
pub fn ascii_heatmap(rows: &[Vec<f64>], width: usize) -> String {
    const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    if rows.is_empty() {
        return String::new();
    }
    let n = rows.len();
    let step = n.div_ceil(width).max(1);
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for row in rows {
        for &v in row {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
    }
    let range = (max - min).max(1e-12);
    let mut out = String::new();
    for bi in (0..n).step_by(step) {
        for bj in (0..n).step_by(step) {
            // Average the block.
            let mut sum = 0.0;
            let mut count = 0;
            for i in bi..(bi + step).min(n) {
                for j in bj..(bj + step).min(n) {
                    if rows[i][j].is_finite() {
                        sum += rows[i][j];
                        count += 1;
                    }
                }
            }
            let v = if count > 0 { sum / count as f64 } else { min };
            let idx = (((v - min) / range) * (SHADES.len() - 1) as f64).round() as usize;
            out.push(SHADES[idx.min(SHADES.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

/// Renders an ASCII line of a series (for Figure 3 style convergence plots).
pub fn ascii_series(series: &[(usize, f64)], width: usize) -> String {
    if series.is_empty() {
        return String::new();
    }
    let min = series.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
    let max = series
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    let range = (max - min).max(1e-12);
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let step = series.len().div_ceil(width).max(1);
    let mut out = String::new();
    for chunk in series.chunks(step) {
        let avg = chunk.iter().map(|(_, v)| *v).sum::<f64>() / chunk.len() as f64;
        let idx = (((avg - min) / range) * (BARS.len() - 1) as f64).round() as usize;
        out.push(BARS[idx.min(BARS.len() - 1)]);
    }
    out
}

/// Formats a fixed-width text table from a header and rows.
pub fn ascii_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[c]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Speedup of `baseline` over `candidate` (e.g. Zoltan time / aware time);
/// values above 1.0 mean the candidate is faster.
pub fn speedup(baseline_us: f64, candidate_us: f64) -> f64 {
    if candidate_us <= 0.0 {
        return f64::INFINITY;
    }
    baseline_us / candidate_us
}

/// Runs the full quality comparison (Figure 4) for a set of instances.
pub fn quality_experiment(cfg: &ExperimentConfig, instances: &[PaperInstance]) -> Vec<QualityRow> {
    let testbed = Testbed::archer(cfg.procs, 0, cfg.seed);
    let mut rows = Vec::new();
    for inst in instances {
        let hg = cfg.instance(*inst);
        for strategy in Strategy::all() {
            // The job evaluates every strategy against the same profiled
            // cost matrix, so the report's metrics are the Figure 4 rows.
            let report = strategy.run(&hg, &testbed, cfg.procs, cfg.seed);
            rows.push(QualityRow {
                instance: inst.paper_name().to_string(),
                strategy: strategy.name(),
                quality: QualityReport {
                    hyperedge_cut: report.hyperedge_cut.unwrap_or(0),
                    soed: report.soed.unwrap_or(0),
                    comm_cost: report.comm_cost.unwrap_or(f64::NAN),
                    imbalance: report.imbalance,
                },
            });
        }
    }
    rows
}

/// Runs the full runtime comparison (Figure 5) for a set of instances:
/// `placements` different job allocations, `repetitions` benchmark runs per
/// allocation.
pub fn runtime_experiment(
    cfg: &ExperimentConfig,
    instances: &[PaperInstance],
    placements: usize,
    repetitions: usize,
) -> Vec<RuntimeRow> {
    let mut rows = Vec::new();
    for inst in instances {
        let hg = cfg.instance(*inst);
        for placement in 0..placements.max(1) {
            let testbed = Testbed::archer(cfg.procs, placement as u64, cfg.seed + placement as u64);
            let bench = testbed.benchmark(cfg);
            for strategy in Strategy::all() {
                let part = strategy.partition(&hg, &testbed, cfg.procs, cfg.seed);
                for rep in 0..repetitions.max(1) {
                    let result = bench.run(&hg, &part);
                    rows.push(RuntimeRow {
                        instance: inst.paper_name().to_string(),
                        strategy: strategy.name(),
                        run: placement * repetitions.max(1) + rep,
                        result,
                    });
                }
            }
        }
    }
    rows
}

/// Geometric-mean helper used when summarising per-instance speedups.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Ensures a path's parent directory exists (for nested CSV outputs).
pub fn ensure_parent(path: &Path) {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).expect("create parent directory");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_reasonable() {
        let cfg = ExperimentConfig::default();
        assert!(cfg.scale > 0.0 && cfg.scale <= 1.0);
        assert!(cfg.procs >= 2);
        assert_eq!(cfg.suite().scale, cfg.scale);
    }

    #[test]
    fn testbed_builds_consistent_sizes() {
        let tb = Testbed::archer(24, 0, 1);
        assert_eq!(tb.cost.num_units(), 24);
        assert_eq!(tb.bandwidth.num_units(), 24);
        assert_eq!(tb.link.num_units(), 24);
        assert!(!tb.cost.is_uniform());
    }

    #[test]
    fn different_placements_change_the_cost_matrix() {
        let a = Testbed::archer(24, 0, 1);
        let b = Testbed::archer(24, 3, 1);
        assert_ne!(a.cost, b.cost);
    }

    #[test]
    fn strategies_produce_valid_partitions() {
        let cfg = ExperimentConfig {
            scale: 0.002,
            procs: 8,
            ..ExperimentConfig::default()
        };
        let hg = cfg.instance(PaperInstance::TwoCubesSphere);
        let tb = Testbed::archer(cfg.procs, 0, cfg.seed);
        for s in Strategy::all() {
            let part = s.partition(&hg, &tb, cfg.procs, cfg.seed);
            assert_eq!(part.num_parts() as usize, cfg.procs, "{}", s.name());
            assert_eq!(part.num_vertices(), hg.num_vertices());
        }
    }

    #[test]
    fn pair_count_comm_cost_matches_the_per_vertex_sum() {
        use hyperpraw_core::metrics::partitioning_communication_cost;
        use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
        use hyperpraw_hypergraph::traversal::NeighborScratch;

        // Equation 5 summed vertex by vertex: Σ_v Σ_j X_j(v)·C(P(v), j).
        fn per_vertex_sum(hg: &Hypergraph, partition: &Partition, cost: &CostMatrix) -> f64 {
            let mut scratch = NeighborScratch::new(hg.num_vertices());
            let mut counts = Vec::new();
            let mut total = 0.0;
            for v in hg.vertices() {
                scratch.neighbor_partition_counts(hg, partition, v, &mut counts);
                let row = cost.row(partition.part_of(v) as usize);
                total += counts
                    .iter()
                    .zip(row)
                    .filter(|(&c, _)| c > 0)
                    .map(|(&c, &w)| c as f64 * w)
                    .sum::<f64>();
            }
            total
        }

        let hg = mesh_hypergraph(&MeshConfig::new(3000, 16));
        let tb = Testbed::archer(24, 0, 1);
        let scattered = Partition::from_fn(hg.num_vertices(), 24, |v| (v * 7 + v / 5) % 24);
        let partitioned = Strategy::HyperPrawAware.partition(&hg, &tb, 24, 1);
        for partition in [scattered, partitioned] {
            let expected = per_vertex_sum(&hg, &partition, &tb.cost);
            let got = partitioning_communication_cost(&hg, &partition, &tb.cost);
            assert!(expected > 0.0);
            assert!(
                ((got - expected) / expected).abs() < 1e-12,
                "pair counts {got} vs per-vertex sum {expected}"
            );
        }
    }

    #[test]
    fn ascii_helpers_produce_output() {
        let rows = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let hm = ascii_heatmap(&rows, 2);
        assert_eq!(hm.lines().count(), 2);
        let series = vec![(1, 10.0), (2, 5.0), (3, 1.0)];
        assert!(!ascii_series(&series, 3).is_empty());
        let table = ascii_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(table.contains("a"));
        assert!(table.contains('1'));
    }

    #[test]
    fn speedup_and_geometric_mean() {
        assert!((speedup(10.0, 2.0) - 5.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
