//! `perfbench`: the repository benchmark.
//!
//! Runs one workload against the hyperpraw workspace through its public
//! entry points, checks every output, and prints two JSON lines on
//! standard output: the run's provenance (hardware, revision, build
//! profile, seed, and the input properties later claims must cite), then
//! the result, which is always the last line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mesh-seq --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with telemetry
//! off; `--trace 1` is the traced run and reports the per-layer metrics.
//! `BENCHMARK.json` at the repository root lists the workloads and both
//! metric sets. The process exits non-zero when a workload cannot run or
//! an output check fails.

mod check;
mod metrics;
mod partition;
mod serve;
mod sys;

use std::process::ExitCode;

/// The benchmark's workloads, named as in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// HyperPRAW-aware, sequential, on a 20 000-vertex FEM mesh.
    MeshSeq,
    /// HyperPRAW-aware work stealing on 2 threads, on a power-law graph.
    PowerlawSteal2,
    /// The serve daemon under mixed lookups and updates.
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::MeshSeq,
        Workload::PowerlawSteal2,
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MeshSeq => "mesh-seq",
            Workload::PowerlawSteal2 => "powerlaw-steal2",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// The command line.
struct Args {
    workload: Workload,
    /// Seeds the generated inputs, the profiled machine and every
    /// partitioner.
    seed: u64,
    /// Length of the measured phase.
    seconds: f64,
    /// Report the per-layer metrics of a traced run.
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <mesh-seq|powerlaw-steal2|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                    workload = Some(found.ok_or_else(bad)?);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::ServeMixed => serve::run(&args),
        workload => partition::run(workload, &args),
    };
    match outcome.and_then(|o| o.result_json(args.trace).map(|line| (o, line))) {
        Ok((outcome, line)) => {
            println!("{}", outcome.provenance_json(&args));
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
