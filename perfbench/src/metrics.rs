//! Metric tables, order statistics and the printed result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror the `end_to_end` and
//! `per_layer` lists of `BENCHMARK.json`; a test keeps them equal. The
//! comment above each per-layer group names the end-to-end metric, and
//! the workload, that the group should move.

use crate::{sys, Args};

/// A metric's name and unit, as `BENCHMARK.json` lists them.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// What a user of the system sees, measured with telemetry off. Every
/// workload reports all of them: on `serve-mixed`, `time_to_partition_s`
/// is the priming `partition` request and `throughput_rps` counts
/// requests; on the partition workloads it counts partitions.
pub const END_TO_END: [Spec; 7] = [
    spec("setup_s", "s"),
    spec("time_to_partition_s", "s"),
    spec("comm_cost", "cost"),
    spec("imbalance", "ratio"),
    spec("sim_app_ms", "ms"),
    spec("peak_rss_mib", "MiB"),
    spec("throughput_rps", "1/s"),
];

/// Single layers, from the traced run. A layer off the workload's path
/// reports 0.
pub const PER_LAYER: [Spec; 49] = [
    // hypergraph::io → time_to_partition_s on mesh-seq and
    // powerlaw-steal2.
    spec("io.parse_ms", "ms"),
    spec("io.input_bytes", "bytes"),
    // hypergraph::adjacency → time_to_partition_s and peak_rss_mib on
    // mesh-seq and powerlaw-steal2. hub_share is the input property a
    // hub-path change must cite.
    spec("adjacency.build_ms", "ms"),
    spec("adjacency.bytes", "bytes"),
    spec("adjacency.hub_share", "ratio"),
    // core::engine → time_to_partition_s on mesh-seq and powerlaw-steal2;
    // passes also moves comm_cost on powerlaw-steal2, and the hub and
    // steal counters move powerlaw-steal2 only. unattributed_ms is the
    // partition time no layer here accounts for.
    spec("engine.passes", "count"),
    spec("engine.pass_ms_sum", "ms"),
    spec("engine.pass_ms_p50", "ms"),
    spec("engine.vertices_scored", "count"),
    spec("engine.hub_fallbacks", "count"),
    spec("engine.hub_fallback_ratio", "ratio"),
    spec("engine.steal.chunk_claims", "count"),
    spec("engine.steal.batch_applies", "count"),
    spec("engine.unattributed_ms", "ms"),
    // core::metrics → time_to_partition_s on mesh-seq through the per-pass
    // comm cost; quality_eval_ms also moves throughput_rps on serve-mixed,
    // where every update re-evaluates.
    spec("metrics.commcost_eval_ms", "ms"),
    spec("metrics.commcost_share", "ratio"),
    spec("metrics.quality_eval_ms", "ms"),
    // storage and lowmem: the out-of-core path, probed in mesh-seq's
    // traced run on a 100 000-vertex `.hpz`. No workload times it end to
    // end (see partition.rs), so these move no end-to-end metric here:
    // convert time, decode time, cache hits and prefetch stalls would move
    // an out-of-core partition's time, index bytes its memory, and
    // restream moves its comm cost.
    spec("storage.convert_ms", "ms"),
    spec("storage.decode_ms", "ms"),
    spec("storage.bytes_decoded", "bytes"),
    spec("storage.cache_hit_ratio", "ratio"),
    spec("storage.prefetch_stall_ms", "ms"),
    spec("storage.blocks", "count"),
    spec("storage.cache_slots", "count"),
    spec("lowmem.passes", "count"),
    spec("lowmem.pass_ms", "ms"),
    spec("lowmem.index_bytes", "bytes"),
    spec("lowmem.restream_move_ratio", "ratio"),
    // netsim → sim_app_ms on every workload.
    spec("netsim.remote_bytes", "bytes"),
    spec("netsim.remote_messages", "count"),
    // dynamic, from the in-process twin and the daemon's metrics op →
    // throughput_rps on serve-mixed: an update holds the session lock
    // that lookups queue on, and its journal append is fsynced.
    spec("dynamic.apply_ms", "ms"),
    spec("dynamic.reevaluate_ms", "ms"),
    spec("dynamic.dirty_set_p50", "count"),
    spec("dynamic.journal.append_us_p50", "us"),
    spec("dynamic.journal.fsync_us_p50", "us"),
    spec("dynamic.journal.fsync_us_p99", "us"),
    // cli::serve, measured by the daemon and by the clients; wire time is
    // client minus daemon → throughput_rps on serve-mixed.
    spec("serve.request.lookup_us_p99", "us"),
    spec("serve.request.update_us_p50", "us"),
    spec("serve.queue.wait_us_p99", "us"),
    spec("serve.wire_us_p50", "us"),
    spec("serve.lookup_p50_ms", "ms"),
    spec("serve.lookup_p99_ms", "ms"),
    spec("serve.update_p50_ms", "ms"),
    spec("serve.update_p95_ms", "ms"),
    spec("serve.write_fraction", "ratio"),
    // telemetry: the traced run's time against the untraced run's.
    spec("telemetry.overhead_pct", "%"),
    // The traced run's partition time and the share of it the layers
    // above attribute.
    spec("trace.partition_ms", "ms"),
    spec("trace.attributed_share", "ratio"),
    // Failed operations and output checks over operations attempted.
    spec("checks.error_rate", "ratio"),
];

/// The fewest samples a reported tail percentile leaves above it.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (NaN for no samples).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile, lowered where needed so that at least
/// [`MIN_TAIL_SAMPLES`] samples rank above it; `None` when there are too
/// few samples for any such rank.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n <= MIN_TAIL_SAMPLES {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n - MIN_TAIL_SAMPLES);
    Some(sorted(samples)[rank - 1])
}

/// What one run measured, and how its operations and output checks went.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    values: Vec<(&'static str, f64)>,
    properties: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|s| s.name == name),
            "{name} is not in the metric tables"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records an input property for the provenance line.
    pub fn property(&mut self, name: &'static str, value: f64) {
        self.properties.push((name, value));
    }

    /// Counts one operation; a failure counts against `error_rate`.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        self.verify(what, result)
    }

    /// Counts operations made elsewhere (the serve clients).
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Checks the output of an operation already counted; a failed check
    /// counts against `error_rate`.
    pub fn verify<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what}: {e}");
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: every metric of the selected table, by name, with
    /// its unit.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let table: &[Spec] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for spec in table {
            let measured = self.values.iter().find(|(n, _)| *n == spec.name);
            let value = match measured {
                Some(&(_, v)) => v,
                None if spec.name == "checks.error_rate" => {
                    self.failed as f64 / self.attempted.max(1) as f64
                }
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", spec.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", spec.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }

    /// The provenance line: where and how the run was made, and the input
    /// properties later claims must cite.
    pub fn provenance_json(&self, args: &Args) -> String {
        let properties: Vec<String> = self
            .properties
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        format!(
            "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
             \"trace\": {}, \"available_parallelism\": {}, \"git_rev\": \"{}\", \
             \"profile\": \"{}\", \"properties\": {{{}}}}}}}",
            args.workload.name(),
            args.seed,
            args.seconds,
            args.trace,
            sys::available_parallelism(),
            sys::git_rev(),
            sys::profile(),
            properties.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        for n in [11, 12, 19, 20, 100, 199, 200, 201, 1_000, 4_321] {
            // Distinct values in scrambled order.
            let samples: Vec<f64> = (0..n).map(|i| ((i * 7_919) % n) as f64).collect();
            for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
                let value = tail(&samples, q).unwrap();
                let beyond = samples.iter().filter(|&&s| s > value).count();
                assert!(
                    beyond >= MIN_TAIL_SAMPLES,
                    "n={n} q={q}: {beyond} beyond {value}"
                );
            }
        }
        // Enough samples: the requested rank. Too few: lowered, or none.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.5), Some(50.0));
        assert_eq!(tail(&samples, 0.99), Some(90.0));
        assert_eq!(tail(&[1.0; 10], 0.5), None);
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for s in &all {
            assert!(valid_name(s.name), "bad metric name {}", s.name);
            assert!(valid_unit(s.unit), "bad unit {} of {}", s.unit, s.name);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = hyperpraw::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("no {key} list"))
                .iter()
                .map(|m| {
                    let value = m.get(field).and_then(|v| v.as_str());
                    value.unwrap_or_else(|| panic!("{key} entry without {field}"))
                })
                .map(String::from)
                .collect()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = table.iter().map(|s| s.name).collect();
            let units: Vec<&str> = table.iter().map(|s| s.unit).collect();
            assert_eq!(listed(key, "name"), names, "{key} names");
            assert_eq!(listed(key, "unit"), units, "{key} units");
        }
        let workloads: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed("workloads", "name"), workloads);
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let mut outcome = Outcome::default();
        for s in &END_TO_END {
            outcome.set(s.name, 1.5);
        }
        outcome.op("partition", Ok::<(), String>(()));
        let line = outcome.result_json(false).unwrap();
        let doc = hyperpraw::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        for s in &END_TO_END {
            let metric = doc.get("metrics").and_then(|m| m.get(s.name)).unwrap();
            assert_eq!(metric.get("unit").and_then(|u| u.as_str()), Some(s.unit));
            assert_eq!(metric.get("value").and_then(|v| v.as_f64()), Some(1.5));
        }
        // Layers off the workload's path read 0 in the traced result.
        assert!(outcome.result_json(true).is_ok());

        // A missing end-to-end metric is refused; a failed check shows.
        let mut partial = Outcome::default();
        partial.set("setup_s", 1.0);
        assert!(partial.result_json(false).is_err());
        outcome.verify("check", Err::<(), _>("mismatch".to_string()));
        assert!(outcome
            .result_json(false)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}
