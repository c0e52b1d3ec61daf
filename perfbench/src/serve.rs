//! The `serve-mixed` workload: an in-process `serve_on` daemon with a
//! state directory, so every update is journaled and fsynced. Set-up
//! primes it with a `partition` request carrying a 20 000-vertex FEM mesh
//! inline; then two closed-loop client connections send lookups, and
//! each sends a two-op update batch as every tenth request. Both write:
//! with a single writer, how many lookups the reader slips in between
//! updates swung throughput fivefold from run to run.
//!
//! After the load the accepted batches are applied, in the daemon's
//! order, to an in-process twin built exactly like the daemon's session;
//! sampled lookups, the comm cost and the imbalance must agree with it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use hyperpraw::api::{Algorithm, PartitionJob};
use hyperpraw::core::metrics::QualityReport;
use hyperpraw::core::{CostMatrix, HyperPrawConfig};
use hyperpraw::dynamic::{DynamicConfig, DynamicPartitioner, GraphUpdate};
use hyperpraw::hypergraph::Hypergraph;
use hyperpraw::json::JsonValue;
use hyperpraw::netsim::{BenchmarkConfig, LinkModel, RingProfiler, SyntheticBenchmark};
use hyperpraw::telemetry::Registry;
use hyperpraw::topology::MachineModel;
use hyperpraw_cli::serve::{serve_on, ServeOptions};

use crate::check;
use crate::metrics::{median, tail, Outcome};
use crate::partition::{fem_mesh, PARTS};
use crate::sys::{self, ms_since, WorkDir};
use crate::Args;

/// Vertices of the primed mesh.
const VERTICES: usize = 20_000;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Each client sends an update batch as every this-many-th request.
const WRITE_EVERY: u64 = 10;
/// Priming requests per run; `setup_s` is their median.
const PRIMES: usize = 3;
/// Lookups compared with the twin after the load.
const SAMPLED_LOOKUPS: usize = 200;

/// A deterministic stream of vertex ids (SplitMix64).
struct Ids(u64);

impl Ids {
    fn below(&mut self, n: usize) -> u32 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as u32
    }
}

/// One connection speaking the daemon's line protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let timeout = Some(Duration::from_secs(60));
        writer
            .set_read_timeout(timeout)
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer, reader })
    }

    /// Sends one request line (newline included) and returns the reply
    /// with its round-trip milliseconds.
    fn request(&mut self, line: &str) -> Result<(String, f64), String> {
        let started = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok((reply, ms_since(started))),
            Err(e) => Err(format!("receiving: {e}")),
        }
    }

    /// Sends a request whose reply must be ok; counts it and returns the
    /// parsed reply.
    fn ask(&mut self, what: &str, line: &str, outcome: &mut Outcome) -> Result<JsonValue, String> {
        let reply = self
            .request(line)
            .and_then(|(reply, _)| check::reply(&reply));
        outcome
            .op(what, reply)
            .ok_or_else(|| format!("the {what} request failed"))
    }
}

/// What one load client sent and saw.
#[derive(Default)]
struct Log {
    sent: u64,
    failed: u64,
    lookup_ms: Vec<f64>,
    update_ms: Vec<f64>,
    /// The update batches the daemon accepted, keyed by the vertex id it
    /// assigned each batch's new vertex: ids are handed out in the order
    /// the batches were applied.
    batches: Vec<(u64, Vec<GraphUpdate>)>,
}

/// The id the daemon gave the vertex an update batch added.
fn added_vertex(reply: &JsonValue) -> Result<u64, String> {
    let update = reply.get("update").and_then(|u| u.get("update"));
    let added = update
        .and_then(|u| u.get("new_vertices"))
        .and_then(JsonValue::as_array);
    let id = added
        .and_then(|ids| ids.first())
        .and_then(JsonValue::as_u64);
    id.ok_or_else(|| "the update reply names no new vertex".into())
}

/// A closed loop: the next request goes out when the previous reply is in.
fn client_loop(addr: SocketAddr, id: usize, seed: u64, deadline: Instant) -> Result<Log, String> {
    let mut client = Client::connect(addr)?;
    let mut ids = Ids(seed ^ (id as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut log = Log::default();
    while Instant::now() < deadline {
        log.sent += 1;
        if log.sent % WRITE_EVERY == 0 {
            let mut pins = vec![ids.below(VERTICES)];
            while pins.len() < 3 {
                let pin = ids.below(VERTICES);
                if !pins.contains(&pin) {
                    pins.push(pin);
                }
            }
            let line = format!(
                "{{\"op\": \"update\", \"updates\": [{{\"op\": \"add_vertex\"}}, \
                 {{\"op\": \"add_edge\", \"pins\": [{}, {}, {}]}}]}}\n",
                pins[0], pins[1], pins[2]
            );
            let (reply, ms) = client.request(&line)?;
            log.update_ms.push(ms);
            match check::reply(&reply).and_then(|reply| added_vertex(&reply)) {
                Ok(vertex) => log.batches.push((
                    vertex,
                    vec![
                        GraphUpdate::AddVertex { weight: 1.0 },
                        GraphUpdate::AddHyperedge { pins, weight: 1.0 },
                    ],
                )),
                Err(e) => {
                    log.failed += 1;
                    eprintln!("perfbench: update: {e}");
                }
            }
        } else {
            let line = format!(
                "{{\"op\": \"lookup\", \"vertex\": {}}}\n",
                ids.below(VERTICES)
            );
            let (reply, ms) = client.request(&line)?;
            log.lookup_ms.push(ms);
            if let Err(e) = check::reply(&reply) {
                log.failed += 1;
                eprintln!("perfbench: lookup: {e}");
            }
        }
    }
    Ok(log)
}

/// The link model and cost matrix the daemon profiles for
/// `"machine": "archer"` (its `partition` handler does the same).
fn archer_profile(seed: u64) -> (LinkModel, CostMatrix) {
    let link = LinkModel::from_machine(&MachineModel::archer_like(PARTS), 0.05, seed);
    let bandwidth = RingProfiler {
        seed,
        ..RingProfiler::default()
    }
    .profile(&link);
    (link, CostMatrix::from_bandwidth(&bandwidth))
}

fn partition_request(hg: &Hypergraph, seed: u64) -> String {
    let mut line = format!(
        "{{\"op\": \"partition\", \"parts\": {PARTS}, \"algorithm\": \"hyperpraw-aware\", \
         \"machine\": \"archer\", \"seed\": {seed}, \"vertices\": {}, \"edges\": [",
        hg.num_vertices()
    );
    for (e, pins) in hg.iter_edges() {
        if e > 0 {
            line.push(',');
        }
        line.push('[');
        for (i, pin) in pins.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&pin.to_string());
        }
        line.push(']');
    }
    line.push_str("]}\n");
    line
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = WorkDir::new("serve-mixed")?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let opts = ServeOptions {
        state_dir: Some(dir.path().join("state")),
        // Idle workers notice the shutdown within a second.
        read_timeout_secs: 1,
        ..ServeOptions::default()
    };
    let daemon = thread::spawn(move || serve_on(listener, &opts).map_err(|e| e.to_string()));
    let mut outcome = Outcome::default();
    let driven = drive(addr, args, &mut outcome);
    // Stop the daemon whatever happened, and wait for it.
    let stopped = Client::connect(addr)
        .and_then(|mut c| c.ask("shutdown", "{\"op\": \"shutdown\"}\n", &mut outcome));
    let joined = daemon
        .join()
        .map_err(|_| "the daemon panicked".to_string())
        .and_then(|served| served);
    driven?;
    stopped?;
    joined?;
    Ok(outcome)
}

fn drive(addr: SocketAddr, args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let seed = args.seed;

    // Set-up: generate the mesh and prime the daemon with it; each
    // partition request replaces the session with an identical one. The
    // connection closes before the load, since the daemon drops
    // connections idle for a few seconds.
    let (mut setup, mut prime_ms) = (Vec::new(), Vec::new());
    {
        let mut control = Client::connect(addr)?;
        for _ in 0..PRIMES {
            let started = Instant::now();
            let line = partition_request(&fem_mesh(VERTICES), seed);
            let (reply, ms) = control.request(&line)?;
            let primed = outcome.op("partition", check::reply(&reply));
            primed.ok_or("the priming partition request failed")?;
            prime_ms.push(ms);
            setup.push(started.elapsed().as_secs_f64());
        }
    }
    outcome.set("setup_s", median(&setup));
    outcome.set("time_to_partition_s", median(&prime_ms) / 1e3);
    outcome.set("trace.partition_ms", median(&prime_ms));

    // The load.
    sys::reset_peak_rss();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let logs: Vec<Result<Log, String>> = thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| scope.spawn(move || client_loop(addr, id, seed, deadline)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().unwrap_or_else(|_| Err("a client panicked".into())))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let peak_rss_kib = sys::peak_rss_kib().ok_or("no peak RSS on this platform")?;
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let sent: u64 = logs.iter().map(|l| l.sent).sum();
    outcome.ops(sent, logs.iter().map(|l| l.failed).sum());
    let lookup_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.lookup_ms.iter().copied())
        .collect();
    let update_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.update_ms.iter().copied())
        .collect();
    let mut batches: Vec<_> = logs.into_iter().flat_map(|l| l.batches).collect();
    batches.sort_by_key(|&(vertex, _)| vertex);
    let one_id_per_batch = batches
        .iter()
        .enumerate()
        .all(|(i, &(vertex, _))| vertex == (VERTICES + i) as u64);
    let order = one_id_per_batch
        .then_some(())
        .ok_or_else(|| "the new vertex ids are not one per accepted batch".to_string());
    outcome.verify("update order", order);
    let write_fraction = update_ms.len() as f64 / sent as f64;
    outcome.set("throughput_rps", sent as f64 / wall);
    outcome.set("peak_rss_mib", peak_rss_kib as f64 / 1024.0);
    outcome.set("serve.lookup_p50_ms", median(&lookup_ms));
    outcome.set("serve.lookup_p99_ms", tail(&lookup_ms, 0.99).unwrap_or(0.0));
    outcome.set("serve.update_p50_ms", median(&update_ms));
    outcome.set("serve.update_p95_ms", tail(&update_ms, 0.95).unwrap_or(0.0));
    outcome.set("serve.write_fraction", write_fraction);
    outcome.property("requests", sent as f64);
    outcome.property("updates", update_ms.len() as f64);
    outcome.property("write_fraction", write_fraction);

    // The daemon's own view after the load.
    let mut control = Client::connect(addr)?;
    let metrics = control.ask("metrics", "{\"op\": \"metrics\"}\n", outcome)?;
    let report = control.ask("report", "{\"op\": \"report\"}\n", outcome)?;
    drop(control);
    let quality = |key: &str| {
        let metrics = report.get("report").and_then(|r| r.get("metrics"));
        let value = metrics.and_then(|m| m.get(key)).and_then(JsonValue::as_f64);
        value.ok_or_else(|| format!("the report carries no {key}"))
    };
    let (comm_cost, imbalance) = (quality("comm_cost")?, quality("imbalance")?);
    outcome.set("comm_cost", comm_cost);
    outcome.set("imbalance", imbalance);
    let daemon_us = |name: &str, q: &str| {
        let histograms = metrics.get("metrics").and_then(|m| m.get("histograms"));
        let value = histograms.and_then(|h| h.get(name)).and_then(|h| h.get(q));
        value.and_then(JsonValue::as_f64).unwrap_or(0.0)
    };
    outcome.set(
        "serve.request.lookup_us_p99",
        daemon_us("serve.request.lookup_us", "p99"),
    );
    outcome.set(
        "serve.request.update_us_p50",
        daemon_us("serve.request.update_us", "p50"),
    );
    outcome.set(
        "serve.queue.wait_us_p99",
        daemon_us("serve.queue.wait_us", "p99"),
    );
    let wire_us = median(&lookup_ms) * 1e3 - daemon_us("serve.request.lookup_us", "p50");
    outcome.set("serve.wire_us_p50", wire_us);
    let journal = [
        (
            "dynamic.journal.append_us_p50",
            "dynamic.journal.append_us",
            "p50",
        ),
        (
            "dynamic.journal.fsync_us_p50",
            "dynamic.journal.fsync_us",
            "p50",
        ),
        (
            "dynamic.journal.fsync_us_p99",
            "dynamic.journal.fsync_us",
            "p99",
        ),
    ];
    for (metric, histogram, q) in journal {
        outcome.set(metric, daemon_us(histogram, q));
    }

    // The twin: the daemon's session rebuilt in process and fed the
    // accepted batches in order.
    let (link, cost) = archer_profile(seed);
    let mut twin = {
        let hg = fem_mesh(VERTICES);
        let initial = PartitionJob::new(Algorithm::HyperPrawAware)
            .partitions(PARTS as u32)
            .seed(seed)
            .cost(cost.clone())
            .run(&hg)
            .map_err(|e| format!("twin: {e}"))?;
        let config = DynamicConfig {
            config: HyperPrawConfig {
                seed,
                ..HyperPrawConfig::default()
            },
            ..DynamicConfig::default()
        };
        DynamicPartitioner::new(&hg, initial.partition, cost.clone(), config)
            .map_err(|e| format!("twin: {e}"))?
    };
    // In the traced run odd batches apply with a live registry: their
    // time against the even, untraced ones is the telemetry overhead.
    let (live, disabled) = (Registry::new(), Registry::disabled());
    let (mut apply_ms, mut traced_ms, mut dirty, mut reevaluate_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, (_, batch)) in batches.iter().enumerate() {
        let traced = args.trace && i % 2 == 1;
        twin.set_registry(if traced { &live } else { &disabled });
        let started = Instant::now();
        let applied = twin
            .apply(batch)
            .map_err(|e| format!("the twin rejected batch {i}: {e}"))?;
        let ms = ms_since(started);
        if traced {
            traced_ms.push(ms);
        } else {
            apply_ms.push(ms);
        }
        dirty.push(applied.dirty_vertices as f64);
        if args.trace && i % 10 == 0 {
            let started = Instant::now();
            std::hint::black_box(QualityReport::compute(
                twin.hypergraph(),
                twin.partition(),
                &cost,
            ));
            reevaluate_ms.push(ms_since(started));
        }
    }
    outcome.set("dynamic.apply_ms", median(&apply_ms));
    outcome.set("dynamic.dirty_set_p50", median(&dirty));
    if args.trace {
        outcome.set("dynamic.reevaluate_ms", median(&reevaluate_ms));
        outcome.set("metrics.quality_eval_ms", median(&reevaluate_ms));
        let overhead = median(&traced_ms) / median(&apply_ms) - 1.0;
        outcome.set("telemetry.overhead_pct", overhead * 100.0);
    }

    // Sampled lookups, the newest vertex first, must match the twin.
    let mut control = Client::connect(addr)?;
    let vertices = twin.hypergraph().num_vertices();
    let mut ids = Ids(seed ^ 0x5EED);
    for k in 0..SAMPLED_LOOKUPS {
        let v = if k == 0 {
            vertices as u32 - 1
        } else {
            ids.below(vertices)
        };
        let line = format!("{{\"op\": \"lookup\", \"vertex\": {v}}}\n");
        let answer = control
            .request(&line)
            .and_then(|(reply, _)| check::reply(&reply))
            .and_then(|reply| {
                let part = reply.get("part").and_then(JsonValue::as_u64);
                let expected = twin.lookup(v).map(u64::from);
                if part == expected {
                    Ok(())
                } else {
                    Err(format!("vertex {v}: daemon {part:?}, twin {expected:?}"))
                }
            });
        outcome.op("sampled lookup", answer);
    }
    let checks = [
        check::close("comm cost against the twin", comm_cost, twin.comm_cost()),
        check::close("imbalance against the twin", imbalance, twin.imbalance()),
        check::quality(
            twin.hypergraph(),
            twin.partition(),
            &cost,
            imbalance,
            Some(comm_cost),
        )
        .map(drop),
    ];
    for result in checks {
        outcome.verify("final state", result);
    }

    let benchmark = SyntheticBenchmark::new(link, BenchmarkConfig::default());
    let traffic = benchmark.run(twin.hypergraph(), twin.partition());
    outcome.set("sim_app_ms", traffic.total_time_us / 1e3);
    outcome.set("netsim.remote_bytes", traffic.remote_bytes as f64);
    outcome.set("netsim.remote_messages", traffic.remote_messages as f64);
    Ok(())
}
