//! The common result shape returned by every partitioning algorithm.
//!
//! Every [`crate::api::PartitionJob`] run — whatever driver it dispatches
//! to — produces one [`PartitionReport`]: the assignment, the per-stream
//! history, the quality metrics, the per-phase wall-clock timings and the
//! resolved effective configuration. The report serialises itself to JSON
//! through [`crate::json`], so bench sweeps and the CLI `--json` flag can
//! emit machine-readable results; so does the telemetry registry.

use hyperpraw_core::{PartitionHistory, StopReason};
use hyperpraw_hypergraph::Partition;
use hyperpraw_lowmem::{LowMemResult, StreamedQuality};

use hyperpraw_telemetry::{HistogramSnapshot, RegistrySnapshot, QUANTILES};

use crate::api::Algorithm;
use crate::json::JsonValue;

/// Where a report's quality metrics stand. Stream runs cannot afford an
/// in-memory evaluation, so their cut metrics start out deferred rather
/// than silently absent; the JSON carries this status explicitly so
/// consumers can tell "not evaluated yet" from "evaluated to null".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QualityStatus {
    /// The metrics were computed in memory as part of the run.
    Evaluated,
    /// The run skipped evaluation (out-of-core stream); the cut metrics
    /// are `null` until back-filled through
    /// [`PartitionReport::attach_streamed_quality`].
    Deferred,
    /// Deferred metrics were back-filled by a streamed (edge-major
    /// re-read) evaluation.
    Streamed,
}

impl QualityStatus {
    /// Stable lowercase identifier used in JSON.
    pub fn name(&self) -> &'static str {
        match self {
            QualityStatus::Evaluated => "evaluated",
            QualityStatus::Deferred => "deferred",
            QualityStatus::Streamed => "streamed",
        }
    }
}

/// Wall-clock seconds spent in each phase of a job run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// Time spent inside the partitioning driver (including any
    /// precomputation the driver performs, e.g. the adjacency build).
    pub partition_secs: f64,
    /// Time spent evaluating the quality metrics of the result
    /// (zero when the run could not afford an evaluation).
    pub evaluate_secs: f64,
}

/// Extra statistics reported by the memory-bounded streaming drivers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LowMemStats {
    /// The `α` the value function actually used (resolved from the FENNEL
    /// formula when the configuration left it unset).
    pub alpha: f64,
    /// Streaming passes executed (may stop early on a fixed point).
    pub passes: usize,
    /// Buffered low-confidence assignments revisited after the final pass.
    pub restreamed: usize,
    /// How many revisited assignments changed partition.
    pub moved_in_restream: usize,
    /// Heap bytes held by the connectivity index at the end of the run.
    pub index_memory_bytes: usize,
}

impl From<&LowMemResult> for LowMemStats {
    fn from(result: &LowMemResult) -> Self {
        Self {
            alpha: result.alpha,
            passes: result.passes,
            restreamed: result.restreamed,
            moved_in_restream: result.moved_in_restream,
            index_memory_bytes: result.index_memory_bytes,
        }
    }
}

/// The resolved configuration a job ran with. Fields that do not apply to
/// the dispatched algorithm are `None`.
#[derive(Clone, Debug, PartialEq)]
pub struct EffectiveConfig {
    /// Number of partitions (compute units).
    pub partitions: u32,
    /// RNG seed.
    pub seed: u64,
    /// Whether the driver saw a profiled (non-uniform) cost matrix.
    pub architecture_aware: bool,
    /// Imbalance tolerance (restreaming and multilevel drivers).
    pub imbalance_tolerance: Option<f64>,
    /// Maximum number of streams/passes.
    pub max_iterations: Option<usize>,
    /// The `α` tempering factor (restreaming drivers).
    pub tempering_factor: Option<f64>,
    /// Refinement factor; `None` for "no refinement" or non-restreaming
    /// drivers.
    pub refinement_factor: Option<f64>,
    /// Explicit initial `α` (when the configuration pinned one).
    pub initial_alpha: Option<f64>,
    /// Stream order name (in-memory HyperPRAW drivers).
    pub stream_order: Option<&'static str>,
    /// Worker threads (1 = sequential, more = work stealing); 1 for
    /// every algorithm but HyperPRAW. A `threads(0)` auto-detect request
    /// is resolved to the real machine parallelism before it lands here.
    pub threads: usize,
    /// Kind of connectivity index (lowmem drivers).
    pub index: Option<&'static str>,
    /// Memory budget in bytes (lowmem drivers).
    pub budget_bytes: Option<usize>,
    /// Sketch rebuilds between passes (lowmem drivers).
    pub rebuild_sketches: Option<bool>,
}

/// The common result of a [`crate::api::PartitionJob`] run.
///
/// The `partition` is bit-identical to what the underlying driver returns
/// for the same configuration (pinned by `tests/api_equivalence.rs`); the
/// report only adds the uniform metadata around it.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// The algorithm that produced the partition.
    pub algorithm: Algorithm,
    /// The vertex-to-partition assignment.
    pub partition: Partition,
    /// Per-stream history (empty unless the driver tracks one).
    pub history: PartitionHistory,
    /// Why the run stopped (`None` for one-shot drivers).
    pub stop_reason: Option<StopReason>,
    /// Streams/passes executed (1 for the one-shot baselines).
    pub iterations: usize,
    /// The `α` in effect when the run stopped (`None` for drivers without
    /// a value function).
    pub final_alpha: Option<f64>,
    /// Total imbalance `max_k W(k) / avg_k W(k)` of the returned
    /// partition. Stream runs cannot recover per-vertex weights after the
    /// fact and report the unweighted (vertex-count) imbalance.
    pub imbalance: f64,
    /// Partitioning communication cost under the evaluation cost matrix
    /// (`None` when the run could not afford the evaluation, e.g. a pure
    /// stream run).
    pub comm_cost: Option<f64>,
    /// Number of hyperedges spanning more than one partition.
    pub hyperedge_cut: Option<u64>,
    /// Sum of external degrees over cut hyperedges.
    pub soed: Option<u64>,
    /// Whether the quality metrics were evaluated, deferred, or
    /// back-filled by a streamed evaluation.
    pub quality: QualityStatus,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// The registry the job ran with. Disabled (the default) unless the
    /// job was built with [`crate::api::PartitionJob::registry`]; the JSON
    /// `telemetry` section embeds its metric snapshot when live.
    pub telemetry: hyperpraw_telemetry::Registry,
    /// The resolved effective configuration.
    pub config: EffectiveConfig,
    /// Extra statistics from the lowmem drivers.
    pub lowmem: Option<LowMemStats>,
}

impl PartitionReport {
    /// Fills the cut metrics from a streamed quality evaluation (the
    /// edge-major re-read of the input file that out-of-core runs use
    /// instead of an in-memory [`hyperpraw_core::metrics::QualityReport`]).
    pub fn attach_streamed_quality(&mut self, quality: &StreamedQuality) {
        self.hyperedge_cut = Some(quality.hyperedge_cut);
        self.soed = Some(quality.soed);
        self.imbalance = quality.imbalance;
        self.quality = QualityStatus::Streamed;
    }

    /// Serialises the report as a JSON object, without the per-vertex
    /// assignment (use [`PartitionReport::to_json_with_assignment`] when
    /// the consumer needs it inline).
    pub fn to_json(&self) -> String {
        self.to_value(false).to_string()
    }

    /// Serialises the report as a JSON object including the `assignment`
    /// array (one partition id per vertex).
    pub fn to_json_with_assignment(&self) -> String {
        self.to_value(true).to_string()
    }

    /// The report as a JSON value, for embedding in a larger document.
    pub fn to_value(&self, with_assignment: bool) -> JsonValue {
        let metrics = JsonValue::object([
            ("quality", self.quality.name().into()),
            ("imbalance", self.imbalance.into()),
            ("comm_cost", self.comm_cost.into()),
            ("hyperedge_cut", self.hyperedge_cut.into()),
            ("soed", self.soed.into()),
        ]);
        // The telemetry section subsumes the per-phase timings and, when
        // the job ran with a live registry, embeds its metric snapshot
        // (counters, gauges, histogram percentiles).
        let registry = self
            .telemetry
            .is_enabled()
            .then(|| self.telemetry.snapshot());
        let telemetry = JsonValue::object([
            ("partition_secs", self.timings.partition_secs.into()),
            ("evaluate_secs", self.timings.evaluate_secs.into()),
            ("metrics", registry.as_ref().map(JsonValue::from).into()),
        ]);
        let c = &self.config;
        let config = JsonValue::object([
            ("partitions", c.partitions.into()),
            ("seed", c.seed.into()),
            ("architecture_aware", c.architecture_aware.into()),
            ("imbalance_tolerance", c.imbalance_tolerance.into()),
            ("max_iterations", c.max_iterations.into()),
            ("tempering_factor", c.tempering_factor.into()),
            ("refinement_factor", c.refinement_factor.into()),
            ("initial_alpha", c.initial_alpha.into()),
            ("stream_order", c.stream_order.into()),
            ("threads", c.threads.into()),
            ("index", c.index.into()),
            ("budget_bytes", c.budget_bytes.into()),
            ("rebuild_sketches", c.rebuild_sketches.into()),
        ]);
        let lowmem = self.lowmem.map(|s| {
            JsonValue::object([
                ("alpha", s.alpha.into()),
                ("passes", s.passes.into()),
                ("restreamed", s.restreamed.into()),
                ("moved_in_restream", s.moved_in_restream.into()),
                ("index_memory_bytes", s.index_memory_bytes.into()),
            ])
        });
        let history = self.history.records().iter().map(|r| {
            JsonValue::object([
                ("iteration", r.iteration.into()),
                ("phase", r.phase.name().into()),
                ("alpha", r.alpha.into()),
                ("imbalance", r.imbalance.into()),
                ("comm_cost", r.comm_cost.into()),
                ("moved_vertices", r.moved_vertices.into()),
            ])
        });
        let mut fields = vec![
            ("algorithm", self.algorithm.name().into()),
            ("partitions", self.partition.num_parts().into()),
            ("num_vertices", self.partition.num_vertices().into()),
            ("iterations", self.iterations.into()),
            ("stop_reason", self.stop_reason.map(|r| r.name()).into()),
            ("final_alpha", self.final_alpha.into()),
            ("metrics", metrics),
            ("telemetry", telemetry),
            ("config", config),
            ("lowmem", lowmem.into()),
            ("history", JsonValue::Array(history.collect())),
        ];
        if with_assignment {
            fields.push(("assignment", self.partition.assignment().to_vec().into()));
        }
        JsonValue::object(fields)
    }

    /// A human-readable multi-line summary (the CLI's text output).
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<17}: {v}\n"));
        };
        line("algorithm", self.algorithm.name().to_string());
        line("partitions", self.partition.num_parts().to_string());
        line("iterations", self.iterations.to_string());
        if let Some(r) = self.stop_reason {
            line("stop reason", r.name().to_string());
        }
        if let Some(cut) = self.hyperedge_cut {
            line("hyperedge cut", cut.to_string());
        }
        if let Some(soed) = self.soed {
            line("SOED", soed.to_string());
        }
        if let Some(cc) = self.comm_cost {
            line("comm cost", format!("{cc:.1}"));
        }
        line("imbalance", format!("{:.4}", self.imbalance));
        line(
            "partition time",
            format!("{:.3} s", self.timings.partition_secs),
        );
        if let Some(s) = &self.lowmem {
            line("passes run", s.passes.to_string());
            line(
                "restreamed",
                format!("{} ({} moved)", s.restreamed, s.moved_in_restream),
            );
            line("index memory", format!("{} B", s.index_memory_bytes));
        }
        out
    }
}

/// Migration cost of one dynamic update batch, in the paper's
/// architecture-aware terms (moving a vertex costs its weight times the
/// cost-matrix entry of the link it crosses).
pub use hyperpraw_dynamic::MigrationStats as MigrationReport;

/// What recovery from a serve state directory found and did — surfaced
/// by the daemon's `report` op so operators can see that (and how) a
/// session survived a restart.
pub use hyperpraw_dynamic::RecoveryStats as RecoveryReport;

impl From<&RecoveryReport> for JsonValue {
    fn from(r: &RecoveryReport) -> Self {
        JsonValue::object([
            ("snapshot_bytes", r.snapshot_bytes.into()),
            ("batches_replayed", r.batches_replayed.into()),
            ("truncated_bytes", r.truncated_bytes.into()),
            ("torn_tail", r.torn_tail.into()),
        ])
    }
}

/// The result of one dynamic update batch: a full [`PartitionReport`] for
/// the post-update assignment, extended with what the batch touched and
/// what migrating to the new assignment costs.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// The post-update partition report (quality read from the session's
    /// resident state).
    pub report: PartitionReport,
    /// Ids assigned to `add_vertex` updates, in batch order.
    pub new_vertices: Vec<u32>,
    /// Size of the restreamed dirty set (touched vertices plus their
    /// distinct-neighbour ring).
    pub dirty_vertices: usize,
    /// Migration cost of this batch.
    pub migration: MigrationReport,
}

impl UpdateReport {
    /// Serialises the update report as a one-line JSON object with the
    /// underlying [`PartitionReport`] embedded under `"report"`.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// The update report as a JSON value. The `update` object still
    /// carries `"rebuilt_adjacency": false` only so existing readers of the
    /// layout keep working: the dynamic layer keeps no adjacency.
    pub fn to_value(&self) -> JsonValue {
        let update = JsonValue::object([
            ("dirty_vertices", self.dirty_vertices.into()),
            ("rebuilt_adjacency", false.into()),
            ("new_vertices", self.new_vertices.clone().into()),
        ]);
        let migration = JsonValue::object([
            ("vertices_moved", self.migration.vertices_moved.into()),
            ("moved_fraction", self.migration.moved_fraction.into()),
            ("bytes_moved", self.migration.bytes_moved.into()),
        ]);
        JsonValue::object([
            ("update", update),
            ("migration", migration),
            ("report", self.report.to_value(false)),
        ])
    }

    /// A human-readable multi-line summary.
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<17}: {v}\n"));
        };
        line("dirty vertices", self.dirty_vertices.to_string());
        if !self.new_vertices.is_empty() {
            line("new vertices", format!("{:?}", self.new_vertices));
        }
        line(
            "migrated",
            format!(
                "{} vertices ({:.2}%, {:.1} cost-bytes)",
                self.migration.vertices_moved,
                self.migration.moved_fraction * 100.0,
                self.migration.bytes_moved
            ),
        );
        out.push_str(&self.report.text_summary());
        out
    }
}

/// The registry document: `{"counters": {...}, "gauges": {...},
/// "histograms": {...}}`, each histogram with `count`/`sum`/`min`/`max`/
/// `mean` and one key per [`QUANTILES`] entry. Metrics are in name order.
impl From<&RegistrySnapshot> for JsonValue {
    fn from(snap: &RegistrySnapshot) -> Self {
        let histogram = |h: &HistogramSnapshot| {
            let mut fields = vec![
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("min", h.min.into()),
                ("max", h.max.into()),
                ("mean", h.mean().into()),
            ];
            fields.extend(QUANTILES.map(|(q, _, key)| (key, h.quantile(q).into())));
            JsonValue::object(fields)
        };
        let counters = snap.counters.iter().map(|(k, v)| (k.as_str(), (*v).into()));
        let gauges = snap.gauges.iter().map(|(k, v)| (k.as_str(), (*v).into()));
        let histograms = snap
            .histograms
            .iter()
            .map(|(k, h)| (k.as_str(), histogram(h)));
        JsonValue::object([
            ("counters", JsonValue::object(counters)),
            ("gauges", JsonValue::object(gauges)),
            ("histograms", JsonValue::object(histograms)),
        ])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_report() -> PartitionReport {
        PartitionReport {
            algorithm: Algorithm::RoundRobin,
            partition: Partition::round_robin(6, 2),
            history: PartitionHistory::new(),
            stop_reason: None,
            iterations: 1,
            final_alpha: None,
            imbalance: 1.0,
            comm_cost: Some(12.5),
            hyperedge_cut: Some(3),
            soed: Some(7),
            quality: QualityStatus::Evaluated,
            timings: PhaseTimings::default(),
            telemetry: hyperpraw_telemetry::Registry::disabled(),
            config: EffectiveConfig {
                partitions: 2,
                seed: 0,
                architecture_aware: false,
                imbalance_tolerance: None,
                max_iterations: None,
                tempering_factor: None,
                refinement_factor: None,
                initial_alpha: None,
                stream_order: None,
                threads: 1,
                index: None,
                budget_bytes: None,
                rebuild_sketches: None,
            },
            lowmem: None,
        }
    }

    #[test]
    fn json_contains_the_headline_fields_and_balanced_braces() {
        let json = sample_report().to_json();
        for needle in [
            "\"algorithm\": \"round-robin\"",
            "\"metrics\"",
            "\"comm_cost\": 12.5",
            "\"hyperedge_cut\": 3",
            "\"telemetry\"",
            "\"partition_secs\"",
            "\"config\"",
            "\"history\": []",
        ] {
            assert!(json.contains(needle), "missing {needle} in\n{json}");
        }
        assert!(!json.contains("assignment"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn live_registry_metrics_land_in_the_telemetry_section() {
        assert!(sample_report().to_json().contains("\"metrics\": null"));
        let mut report = sample_report();
        let registry = hyperpraw_telemetry::Registry::new();
        registry.counter("engine.vertices_scored").add(42);
        report.telemetry = registry;
        let json = report.to_json();
        assert!(
            json.contains("\"metrics\": {"),
            "missing snapshot in\n{json}"
        );
        assert!(json.contains("engine.vertices_scored"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn assignment_variant_lists_every_vertex() {
        let json = sample_report().to_json_with_assignment();
        assert!(json.contains("\"assignment\": [0,1,0,1,0,1]"));
    }

    #[test]
    fn streamed_quality_fills_the_cut_metrics() {
        let mut report = sample_report();
        report.hyperedge_cut = None;
        report.soed = None;
        report.attach_streamed_quality(&StreamedQuality {
            hyperedge_cut: 9,
            soed: 21,
            connectivity_minus_one: 12.0,
            imbalance: 1.25,
        });
        assert_eq!(report.hyperedge_cut, Some(9));
        assert_eq!(report.soed, Some(21));
        assert_eq!(report.imbalance, 1.25);
        assert_eq!(report.quality, QualityStatus::Streamed);
    }

    #[test]
    fn deferred_quality_is_explicit_and_backfill_round_trips_through_json() {
        // Regression: a stream run's JSON must say its metrics are
        // deferred rather than leaving bare nulls to interpretation, and
        // the streamed back-fill must round-trip through to_json.
        let mut report = sample_report();
        report.comm_cost = None;
        report.hyperedge_cut = None;
        report.soed = None;
        report.quality = QualityStatus::Deferred;
        let deferred = report.to_json();
        assert!(deferred.contains("\"quality\": \"deferred\""));
        assert!(deferred.contains("\"hyperedge_cut\": null"));

        report.attach_streamed_quality(&StreamedQuality {
            hyperedge_cut: 9,
            soed: 21,
            connectivity_minus_one: 12.0,
            imbalance: 1.25,
        });
        let streamed = report.to_json();
        assert!(streamed.contains("\"quality\": \"streamed\""));
        assert!(streamed.contains("\"hyperedge_cut\": 9"));
        assert!(streamed.contains("\"soed\": 21"));
        assert!(streamed.contains("\"imbalance\": 1.25"));
        assert!(!streamed.contains("\"hyperedge_cut\": null"));
    }

    #[test]
    fn update_report_embeds_the_partition_report() {
        let update = UpdateReport {
            report: sample_report(),
            new_vertices: vec![6, 7],
            dirty_vertices: 11,
            migration: MigrationReport {
                vertices_moved: 3,
                moved_fraction: 0.5,
                bytes_moved: 4.25,
            },
        };
        let json = update.to_json();
        for needle in [
            "\"update\"",
            "\"dirty_vertices\": 11",
            "\"rebuilt_adjacency\": false",
            "\"new_vertices\": [6,7]",
            "\"migration\"",
            "\"vertices_moved\": 3",
            "\"bytes_moved\": 4.25",
            "\"report\": {",
            "\"algorithm\": \"round-robin\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in\n{json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        let text = update.text_summary();
        assert!(text.contains("dirty vertices"));
        assert!(text.contains("algorithm"));
    }

    /// `v` with every `mean` rounded to three decimals, as the telemetry
    /// crate's own JSON exporter wrote it.
    fn rounded_means(v: JsonValue) -> JsonValue {
        match v {
            JsonValue::Object(fields) => JsonValue::object(fields.into_iter().map(|(k, v)| {
                let v = match (k.as_str(), v) {
                    ("mean", JsonValue::Number(n)) => JsonValue::Number((n * 1e3).round() / 1e3),
                    (_, v) => rounded_means(v),
                };
                (k, v)
            })),
            JsonValue::Array(items) => {
                JsonValue::Array(items.into_iter().map(rounded_means).collect())
            }
            v => v,
        }
    }

    /// `v` without the `parallel_mode` and `sync_interval` keys of its
    /// `config` objects, which went with the bulk-synchronous schedule.
    fn without_schedule_keys(v: JsonValue) -> JsonValue {
        match v {
            JsonValue::Object(fields) => JsonValue::object(fields.into_iter().map(|(k, v)| {
                let v = match (k.as_str(), v) {
                    ("config", JsonValue::Object(config)) => JsonValue::object(
                        config
                            .into_iter()
                            .filter(|(k, _)| k != "parallel_mode" && k != "sync_interval"),
                    ),
                    (_, v) => without_schedule_keys(v),
                };
                (k, v)
            })),
            v => v,
        }
    }

    /// The fixtures were written by the pretty-printing writers that
    /// `JsonValue` replaced, for `sample_report` grown a history (one NaN
    /// comm cost), lowmem stats, an escaped string and a live registry. The
    /// layout changed (one line); the values must not, except that a
    /// histogram `mean` is no longer rounded to three decimals, and that
    /// the `config` object no longer names a schedule (`parallel_mode`,
    /// `sync_interval`): the thread count alone picks it.
    #[test]
    fn documents_keep_the_values_of_the_recorded_fixtures() {
        let registry = hyperpraw_telemetry::Registry::new();
        registry.counter("engine.vertices_scored").add(42);
        registry.counter("odd \"name\"\twith\\escapes").inc();
        registry.gauge("serve.connections.active").set(-3);
        let histogram = registry.histogram("serve.request.update_us");
        [1, 2, 2].into_iter().for_each(|v| histogram.record(v));
        let mut report = sample_report();
        for (iteration, comm_cost) in [(1, 310.5), (2, f64::NAN), (3, 123.75)] {
            report.history.push(hyperpraw_core::IterationRecord {
                iteration,
                phase: hyperpraw_core::StreamPhase::Tempering,
                alpha: 0.25 * iteration as f64,
                imbalance: 1.0 + 0.5 / iteration as f64,
                comm_cost,
                moved_vertices: 10 - iteration,
            });
        }
        report.stop_reason = Some(StopReason::CommCostConverged);
        report.final_alpha = Some(0.75);
        report.config.stream_order = Some("odd \"order\"\n");
        report.config.budget_bytes = Some(1 << 20);
        report.lowmem = Some(LowMemStats {
            alpha: 1.5e-7,
            passes: 4,
            restreamed: 12,
            moved_in_restream: 5,
            index_memory_bytes: 4096,
        });
        report.telemetry = registry.clone();
        let update = UpdateReport {
            report: report.clone(),
            new_vertices: vec![6, 7],
            dirty_vertices: 11,
            migration: MigrationReport {
                vertices_moved: 3,
                moved_fraction: 3.0 / 7.0,
                bytes_moved: 4.25,
            },
        };
        let recovery = RecoveryReport {
            snapshot_bytes: 8192,
            batches_replayed: 5,
            truncated_bytes: 7,
            torn_tail: true,
        };
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/json_identity");
        for (name, text) in [
            ("partition_report", report.to_json()),
            ("with_assignment", report.to_json_with_assignment()),
            ("update_report", update.to_json()),
            ("recovery_report", JsonValue::from(&recovery).to_string()),
            (
                "registry",
                JsonValue::from(&registry.snapshot()).to_string(),
            ),
        ] {
            assert!(!text.contains('\n'), "{name} is one line: {text}");
            let recorded = std::fs::read_to_string(format!("{dir}/{name}.json")).unwrap();
            let old = without_schedule_keys(crate::json::parse(&recorded).unwrap());
            let new = crate::json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(rounded_means(old), rounded_means(new), "{name}");
        }
    }

    #[test]
    fn an_empty_registry_writes_empty_sections() {
        assert_eq!(
            JsonValue::from(&hyperpraw_telemetry::Registry::disabled().snapshot()).to_string(),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}"
        );
    }
}
