//! End-to-end gate for the telemetry surface of `hyperpraw serve`: spawns
//! the real binary in `--stdio` mode, issues `partition` / `update` /
//! `lookup` / `metrics` / `report`, and asserts the metrics payload
//! parses as JSON with nonzero per-request-type counters and p50/p95/p99
//! latency percentiles — the exchange CI replays verbatim.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use hyperpraw::json::{parse, JsonValue};

fn run_stdio(requests: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hyperpraw serve --stdio");
    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    stdin.write_all(requests.as_bytes()).unwrap();
    stdin.flush().unwrap();
    drop(stdin);
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status}");
    lines
}

fn counter(metrics: &JsonValue, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("missing counter {name} in {metrics:?}"))
}

#[test]
fn metrics_request_reports_per_op_counters_and_percentiles() {
    let requests = concat!(
        "{\"op\": \"partition\", \"parts\": 2, \"seed\": 7, ",
        "\"edges\": [[0,1,2],[2,3],[3,4,5],[5,0],[1,4]], \"vertices\": 6}\n",
        "{\"op\": \"update\", \"updates\": [{\"op\": \"add_vertex\"}, ",
        "{\"op\": \"add_edge\", \"pins\": [6, 2, 3]}]}\n",
        "{\"op\": \"lookup\", \"vertex\": 6}\n",
        "{\"op\": \"metrics\"}\n",
        "{\"op\": \"report\"}\n",
        "{\"op\": \"shutdown\"}\n",
    );
    let lines = run_stdio(requests);
    assert_eq!(lines.len(), 6, "one response per request: {lines:#?}");

    // The metrics response embeds the registry snapshot under "metrics".
    let response = parse(&lines[3]).expect("metrics response parses as JSON");
    assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(true));
    let metrics = response.get("metrics").expect("metrics payload");

    // Every request type answered so far has a nonzero counter; the
    // metrics request itself is still in flight when the snapshot is
    // taken, so only the three preceding ops are asserted.
    for op in ["partition", "update", "lookup"] {
        assert_eq!(
            counter(metrics, &format!("serve.requests.{op}")),
            1,
            "exactly one {op} request before the snapshot"
        );
        let latency = metrics
            .get("histograms")
            .and_then(|h| h.get(&format!("serve.request.{op}_us")))
            .unwrap_or_else(|| panic!("missing latency histogram for {op}"));
        assert_eq!(latency.get("count").and_then(|v| v.as_u64()), Some(1));
        for q in ["p50", "p95", "p99"] {
            let v = latency
                .get(q)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("missing {q} for {op}"));
            assert!(v >= 0.0, "{op} {q} = {v}");
        }
    }

    // Satellite: the report op carries uptime and the same counters.
    let report = parse(&lines[4]).expect("report response parses as JSON");
    let uptime = report
        .get("uptime_secs")
        .and_then(|v| v.as_f64())
        .expect("report carries uptime_secs");
    assert!(uptime >= 0.0);
    let requests_by_type = report.get("requests").expect("per-type request counters");
    assert_eq!(
        requests_by_type.get("metrics").and_then(|v| v.as_u64()),
        Some(1),
        "the metrics request has been counted by report time"
    );
    assert_eq!(
        requests_by_type.get("partition").and_then(|v| v.as_u64()),
        Some(1)
    );
}

/// Every update batch records one observation per `dynamic.phase.*`
/// histogram, and the phases nest inside the `update` request they break
/// down: their summed time never exceeds the request's.
#[test]
fn update_phases_attribute_the_update_request() {
    let update = concat!(
        "{\"op\": \"update\", \"updates\": [{\"op\": \"add_vertex\"}, ",
        "{\"op\": \"add_edge\", \"pins\": [0, 2, 3]}]}\n",
    );
    let requests = [
        "{\"op\": \"partition\", \"parts\": 2, \"seed\": 7, \"edges\": [[0,1,2],[2,3],[3,4,5],[5,0],[1,4]]}\n",
        update,
        update,
        update,
        "{\"op\": \"metrics\"}\n",
        "{\"op\": \"shutdown\"}\n",
    ]
    .concat();
    let lines = run_stdio(&requests);
    let response = parse(&lines[4]).expect("metrics response parses as JSON");
    let histograms = response
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .expect("histograms");
    let field = |name: &str, key: &str| {
        histograms
            .get(name)
            .and_then(|h| h.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing {name}.{key}"))
    };
    let mut phases_us = 0;
    for phase in ["mutate", "snapshot", "restream", "quality"] {
        let name = format!("dynamic.phase.{phase}_us");
        assert_eq!(field(&name, "count"), 3, "{name}");
        phases_us += field(&name, "sum");
    }
    assert_eq!(field("serve.request.update_us", "count"), 3);
    assert!(phases_us <= field("serve.request.update_us", "sum"));
}

#[test]
fn partition_report_json_embeds_live_telemetry_via_metrics_out() {
    // The CLI side of the same surface: --metrics-out dumps the run's
    // registry, and the report JSON carries the telemetry section.
    let dir = std::env::temp_dir();
    let input = dir.join(format!("hyperpraw_metrics_{}.hgr", std::process::id()));
    let metrics_out = dir.join(format!("hyperpraw_metrics_{}.json", std::process::id()));
    let report_out = dir.join(format!(
        "hyperpraw_metrics_report_{}.json",
        std::process::id()
    ));
    std::fs::write(&input, "4 6\n1 2 3\n3 4 5\n5 6 1\n2 4 6\n").unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args([
            "partition",
            input.to_str().unwrap(),
            "--parts",
            "2",
            "--algorithm",
            "basic",
            "--seed",
            "7",
            "--json-out",
            report_out.to_str().unwrap(),
            "--metrics-out",
            metrics_out.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .status()
        .expect("spawn hyperpraw partition");
    assert!(status.success());

    let metrics = parse(&std::fs::read_to_string(&metrics_out).unwrap())
        .expect("--metrics-out writes valid JSON");
    let scored = metrics
        .get("counters")
        .and_then(|c| c.get("engine.vertices_scored"))
        .and_then(|v| v.as_u64())
        .expect("engine.vertices_scored counter");
    assert!(scored > 0, "the engine scored vertices: {scored}");
    let proven = counter(&metrics, "engine.proven_stays");
    assert!(
        proven > 0,
        "some stays were proved from fresh counts: {proven}"
    );

    let report = parse(&std::fs::read_to_string(&report_out).unwrap())
        .expect("--json-out writes valid JSON");
    let telemetry = report.get("telemetry").expect("telemetry section");
    assert!(
        telemetry.get("partition_secs").is_some(),
        "telemetry subsumes the phase timings"
    );
    assert!(
        telemetry
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .is_some(),
        "live registry snapshot embedded in the report"
    );

    for p in [&input, &metrics_out, &report_out] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn stealing_partition_attributes_its_team_and_boundary_apply() {
    // Each work-stealing batch records its fill, its thread team, spawn to
    // join, and its boundary apply, replay included; the run records its
    // provider sync.
    let dir = std::env::temp_dir();
    let input = dir.join(format!(
        "hyperpraw_steal_metrics_{}.hgr",
        std::process::id()
    ));
    let metrics_out = dir.join(format!(
        "hyperpraw_steal_metrics_{}.json",
        std::process::id()
    ));
    // A 600-vertex ring with chords: enough vertices for both workers.
    let n = 600;
    let mut edges: Vec<String> = (0..n)
        .map(|v| format!("{} {}", v + 1, (v + 1) % n + 1))
        .collect();
    edges.extend(
        (0..n / 3).map(|v| format!("{} {} {}", v + 1, (v * 7) % n + 1, (v * 13 + 5) % n + 1)),
    );
    let hgr = format!("{} {n}\n{}\n", edges.len(), edges.join("\n"));
    std::fs::write(&input, hgr).unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args([
            "partition",
            input.to_str().unwrap(),
            "--parts",
            "4",
            "--threads",
            "2",
            "--metrics-out",
            metrics_out.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .status()
        .expect("spawn hyperpraw partition");
    assert!(status.success());

    let metrics = parse(&std::fs::read_to_string(&metrics_out).unwrap())
        .expect("--metrics-out writes valid JSON");
    let applies = counter(&metrics, "engine.steal.batch_applies");
    assert!(applies > 0, "the run applied batches: {applies}");
    let histogram_count = |name: &str| {
        metrics
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("missing histogram {name} in {metrics:?}"))
    };
    for name in ["engine.steal.team_us", "engine.steal.apply_us"] {
        assert_eq!(
            histogram_count(name),
            applies,
            "{name}: one sample per batch"
        );
    }
    // Every fill is timed: one per batch, plus the empty fill that ends
    // each pass. The provider syncs once per run.
    let passes = histogram_count("engine.pass_time_us");
    assert_eq!(histogram_count("engine.steal.fill_us"), applies + passes);
    assert_eq!(histogram_count("engine.sync_us"), 1);

    for p in [&input, &metrics_out] {
        std::fs::remove_file(p).ok();
    }
}
