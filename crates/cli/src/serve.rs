//! The `hyperpraw serve` daemon: a resident dynamic-partitioning session
//! behind a newline-delimited JSON protocol, with optional crash-safe
//! persistence and a concurrent TCP front end.
//!
//! One request per line, one response per line. The daemon holds at most
//! one [`DynamicSession`] at a time; `partition` (re)creates it, every
//! other operation queries or mutates it:
//!
//! ```text
//! → {"op": "partition", "parts": 4, "edges": [[0,1,2],[2,3]], "seed": 7}
//! ← {"ok": true, "report": {...}}
//! → {"op": "update", "updates": [{"op": "add_vertex"}, {"op": "add_edge", "pins": [4,0]}]}
//! ← {"ok": true, "update": {...}}
//! → {"op": "lookup", "vertex": 4}
//! ← {"ok": true, "vertex": 4, "part": 2}
//! → {"op": "report"}
//! ← {"ok": true, "report": {...}}
//! → {"op": "metrics"}
//! ← {"ok": true, "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}}
//! → {"op": "shutdown"}
//! ← {"ok": true, "bye": true}
//! ```
//!
//! `partition` takes the hypergraph inline (`"edges"`, optional
//! `"vertices"` floor) or from disk (`"path"`, only when the daemon runs
//! with `--data-dir DIR`: the path, relative to `DIR` or absolute, must
//! resolve — symlinks and `..` included — to a file inside `DIR`;
//! without the flag every `"path"` is refused), plus optional
//! `"algorithm"` (default `hyperpraw-basic`), `"seed"`, `"imbalance"` and
//! `"machine"` (profiles a preset into the cost matrix the aware
//! algorithm needs).
//!
//! # Durability (`--state-dir`)
//!
//! With `--state-dir DIR` the daemon keeps its session crash-safe via
//! [`hyperpraw::dynamic::StateDir`]: `partition` writes a full
//! binary snapshot, every accepted `update` batch is appended to a
//! write-ahead journal and fsynced *before* the response is sent, and a
//! fresh snapshot folds the journal in every `--snapshot-every` batches
//! (and on shutdown). On restart the daemon loads the latest valid
//! snapshot, replays the journal tail — truncating a torn or corrupt
//! final record rather than replaying it — and resumes with a
//! bit-identical assignment. The `report` op then carries a
//! `"recovery"` object with the replay stats. Persistence failures never
//! kill the daemon: they are logged and surfaced as
//! `"persistence_error"` in `report`, serving continues in memory, and
//! the journal is *disarmed* — a gapped journal must never be replayed,
//! so no further batch is appended until a full snapshot (attempted
//! immediately, then retried on every later update) provably re-syncs
//! the disk with the live session, at which point the error clears.
//!
//! # Observability
//!
//! The daemon keeps a live [`hyperpraw::telemetry::Registry`]: every
//! request increments a per-op counter (`serve.requests.<op>`) and a
//! per-op latency histogram (`serve.request.<op>_us`), the TCP front
//! end tracks queued-connection wait (`serve.queue.wait_us`) and active
//! connections (`serve.connections.active`), and persistence degradation
//! shows as `serve.persistence_errors` = 1 until a snapshot re-syncs the
//! disk. The same registry is threaded through the partitioning engine
//! (`engine.*`), the dynamic partitioner (`dynamic.*`) and the state
//! directory's journal/snapshot latencies, so one scrape sees the whole
//! stack. Read it with the `metrics` op (JSON, shown above) or — with
//! `--metrics-addr HOST:PORT` — as a Prometheus-style plain-text
//! exposition answered to any HTTP request on that address. The `report`
//! op additionally carries `uptime_secs`, per-op `requests` totals and
//! (with `--state-dir`) `batches_since_snapshot`.
//!
//! # Concurrency and robustness (TCP mode)
//!
//! The TCP front end accepts connections on a small worker pool
//! ([`run_on_workers`]); each connection gets its own worker, so an idle
//! client never blocks an active one, while requests serialise only on
//! the shared session lock for the duration of one request. A failed
//! `accept()` is logged and retried with exponential backoff — it does
//! not tear the daemon down. Per-connection reads carry a timeout
//! (`--read-timeout-secs`) so workers notice shutdown, and a connection
//! that stays completely silent for `IDLE_TIMEOUT_STRIKES` consecutive
//! timeout windows is disconnected — idle (or slow-loris) clients cannot
//! pin all `SERVE_WORKERS` workers forever and starve the accept
//! queue. Request lines are capped at `--max-line-bytes` (default
//! 16 MiB): an oversized line is drained and answered with a structured
//! error, keeping the connection alive. `shutdown` (from any client) and
//! SIGTERM/SIGINT both stop the daemon after flushing the journal and
//! writing a final snapshot.
//!
//! Every response is one [`JsonValue`] written on one line by the facade's
//! JSON writer; `report` and `update` embed the
//! [`hyperpraw::report::PartitionReport`] / `UpdateReport` values.
//! Integers travel as JSON numbers, exact below 2^53: a larger `"seed"`
//! or id is refused, not rounded. Errors never kill the session: every
//! failure answers a structured
//! `{"ok": false, "error": {"message": "...", "offset": N}}` object —
//! `offset` is the parser's byte offset into the request line when the
//! line itself was malformed (invalid JSON, or not UTF-8 at all), and is
//! omitted for semantic errors — and the loop keeps reading. Transport is
//! TCP ([`std::net::TcpListener`]) or — for tests and supervisors that
//! prefer pipes — stdin/stdout via `--stdio`.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hyperpraw::api::{Algorithm, DynamicSession, PartitionJob};
use hyperpraw::dynamic::{GraphUpdate, StateDir};
use hyperpraw::hypergraph::{run_on_workers, HypergraphBuilder};
use hyperpraw::json::{self, JsonValue};
use hyperpraw::telemetry::{Counter, Gauge, Histogram, Registry};

use crate::args::{FlagValue, MachinePreset};
use crate::commands::{check_parts, load_hypergraph, profile, CommandError};

/// Worker threads serving TCP connections (plus one acceptor).
const SERVE_WORKERS: usize = 4;

/// Consecutive read-timeout windows (each `--read-timeout-secs` long)
/// with zero bytes received before an idle connection is dropped to free
/// its worker for queued connections.
const IDLE_TIMEOUT_STRIKES: u32 = 4;

/// How the daemon runs: transport, durability and robustness knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOptions {
    /// TCP address to listen on (ignored with `stdio`).
    pub bind: String,
    /// Serve a single session over stdin/stdout instead of TCP.
    pub stdio: bool,
    /// Directory for the snapshot + write-ahead journal; `None` keeps
    /// the session in memory only.
    pub state_dir: Option<PathBuf>,
    /// The only directory a `partition` request's `"path"` may resolve
    /// into; `None` refuses every `"path"` (inline `"edges"` only).
    pub data_dir: Option<PathBuf>,
    /// Maximum accepted request-line size in bytes; longer lines answer
    /// a structured error and are drained, keeping the connection.
    pub max_line_bytes: usize,
    /// Per-connection read timeout in seconds — how quickly idle
    /// workers notice a daemon shutdown.
    pub read_timeout_secs: u64,
    /// Fold the journal into a fresh snapshot every N accepted batches.
    pub snapshot_every: u64,
    /// Address for the Prometheus-style plain-text metrics exposition
    /// (`GET` anything → `text/plain; version=0.0.4`); `None` disables
    /// the endpoint. Runs beside both transports, including `--stdio`.
    pub metrics_addr: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:7700".to_string(),
            stdio: false,
            state_dir: None,
            data_dir: None,
            max_line_bytes: 16 * 1024 * 1024,
            read_timeout_secs: 30,
            snapshot_every: 64,
            metrics_addr: None,
        }
    }
}

/// Every request op the daemon answers, in protocol order — one
/// `serve.requests.<op>` counter and one `serve.request.<op>_us` latency
/// histogram each.
const OPS: [&str; 6] = [
    "partition",
    "update",
    "lookup",
    "report",
    "metrics",
    "shutdown",
];

/// The daemon's observability handles, all off one shared live
/// [`Registry`]. Cheap to clone (handles are `Arc`s over the same
/// atomics): the TCP front end holds a copy for queue-wait and
/// connection accounting while the session state holds another for
/// request accounting.
#[derive(Clone)]
struct ServeMetrics {
    registry: Registry,
    /// Daemon start, for the `report` op's uptime.
    started: Instant,
    /// Connections currently being served by a worker.
    active_connections: Gauge,
    /// Time accepted connections spent queued before a worker took them.
    queue_wait_us: Histogram,
    /// 1 while the on-disk state lags the session (journal disarmed),
    /// 0 once a snapshot re-syncs it.
    persist_errors: Gauge,
    /// Per-op request totals and wall-clock latency, [`OPS`] order.
    ops: [(&'static str, Counter, Histogram); 6],
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        let ops = OPS.map(|name| {
            (
                name,
                registry.counter(&format!("serve.requests.{name}")),
                registry.histogram(&format!("serve.request.{name}_us")),
            )
        });
        Self {
            started: Instant::now(),
            active_connections: registry.gauge("serve.connections.active"),
            queue_wait_us: registry.histogram("serve.queue.wait_us"),
            persist_errors: registry.gauge("serve.persistence_errors"),
            ops,
            registry,
        }
    }

    /// The counter/histogram pair for a known op (`None` for ops the
    /// protocol rejects anyway).
    fn op(&self, name: &str) -> Option<(&Counter, &Histogram)> {
        self.ops
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, c, h)| (c, h))
    }
}

/// The daemon's shared mutable state: the resident session plus its
/// durable home (when `--state-dir` is given).
struct ServeState {
    session: Option<DynamicSession>,
    store: Option<StateDir>,
    /// The on-disk state may be missing acknowledged batches (an append
    /// or snapshot failed). While set, appends are refused — replaying a
    /// gapped journal would silently diverge — and every update instead
    /// retries a full snapshot until one re-syncs the disk.
    store_dirty: bool,
    persist_error: Option<String>,
    metrics: ServeMetrics,
}

/// Everything the TCP workers share. Queued connections carry their
/// accept time so the pop records how long they waited for a worker.
struct Shared {
    state: Mutex<ServeState>,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    available: Condvar,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
}

/// Set by the SIGTERM/SIGINT handler; polled by every serve loop.
static TERMINATED: AtomicBool = AtomicBool::new(false);

fn should_stop() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn on_terminate(_signum: i32) {
    TERMINATED.store(true, Ordering::SeqCst);
}

#[cfg(target_os = "linux")]
fn install_signal_handlers() {
    // glibc's signal() installs BSD (SA_RESTART) semantics: a blocking
    // stdin read would be transparently restarted, so an idle --stdio
    // daemon would not reach its should_stop() check (or write its final
    // snapshot) until the next input line. sigaction with empty flags
    // makes blocking reads fail with EINTR instead, which every serve
    // loop maps to a prompt shutdown check. Layout below matches glibc
    // and musl on every Linux target this workspace builds for:
    // handler, 1024-bit signal mask, flags, restorer.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }
    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    }
    let act = SigAction {
        handler: on_terminate as *const () as usize,
        mask: [0; 16],
        flags: 0, // notably: no SA_RESTART
        restorer: 0,
    };
    // SIGTERM = 15, SIGINT = 2 on every unix the toolchain targets.
    unsafe {
        sigaction(15, &act, std::ptr::null_mut());
        sigaction(2, &act, std::ptr::null_mut());
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
fn install_signal_handlers() {
    // Portable fallback for unixes whose sigaction layout we do not pin:
    // signal() restarts blocking reads, so an idle --stdio daemon may
    // only notice a signal at its next input line; TCP mode is unaffected
    // (socket reads carry a timeout and re-check should_stop()).
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(15, on_terminate);
        signal(2, on_terminate);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// A mutex that survives a panicking holder: the state it guards is
/// repaired or replaced by whoever observes the poison, never abandoned.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Opens (or creates) the state directory and recovers any persisted
/// session; `None` state dir yields a purely in-memory daemon. The
/// store, any recovered session, and the recovery stats all bind their
/// instrumentation to the daemon's registry.
fn open_state(opts: &ServeOptions, metrics: ServeMetrics) -> Result<ServeState, CommandError> {
    let mut state = ServeState {
        session: None,
        store: None,
        store_dirty: false,
        persist_error: None,
        metrics,
    };
    let Some(dir) = &opts.state_dir else {
        return Ok(state);
    };
    let (mut store, recovered) =
        StateDir::open(dir).map_err(|e| CommandError::Io(format!("{}: {e}", dir.display())))?;
    store.set_registry(&state.metrics.registry);
    state.store = Some(store);
    if let Some(rec) = recovered {
        rec.stats.record_into(&state.metrics.registry);
        let mut session = DynamicSession::resume(&rec.meta, rec.partitioner, Some(rec.stats))
            .map_err(|e| {
                CommandError::Io(format!(
                    "cannot resume the session persisted in {}: {e}",
                    dir.display()
                ))
            })?;
        session.set_registry(&state.metrics.registry);
        eprintln!(
            "hyperpraw serve: recovered session from {} ({} journal batches replayed{})",
            dir.display(),
            rec.stats.batches_replayed,
            if rec.stats.torn_tail {
                format!(", {} torn bytes truncated", rec.stats.truncated_bytes)
            } else {
                String::new()
            }
        );
        state.session = Some(session);
    }
    Ok(state)
}

/// Writes a final snapshot when the on-disk state lags the session —
/// journalled batches since the last snapshot, or a dirty (gapped)
/// store; called on every shutdown path.
fn persist_final(state: &mut ServeState) {
    let ServeState {
        session,
        store,
        store_dirty,
        ..
    } = state;
    if let (Some(store), Some(session)) = (store.as_mut(), session.as_ref()) {
        if store.batches_since_snapshot() > 0 || *store_dirty {
            if let Err(e) = store.write_snapshot(&session.session_meta(), session.partitioner()) {
                eprintln!("hyperpraw serve: final snapshot failed: {e}");
            }
        }
    }
}

fn note_persist_error(persist_error: &mut Option<String>, what: &str, e: impl std::fmt::Display) {
    let message = format!("{what}: {e}");
    eprintln!("hyperpraw serve: persistence degraded — {message}");
    *persist_error = Some(message);
}

/// Re-syncs the on-disk state with the live session via a full snapshot
/// (which also rotates in a fresh, gap-free journal). Success proves
/// disk and memory agree again: the dirty flag and the advertised
/// persistence error both clear. Failure (re-)marks the store dirty so
/// no append can ever follow a gap.
fn resync_snapshot(
    store: &mut StateDir,
    session: &DynamicSession,
    store_dirty: &mut bool,
    persist_error: &mut Option<String>,
    what: &str,
) {
    match store.write_snapshot(&session.session_meta(), session.partitioner()) {
        Ok(()) => {
            *store_dirty = false;
            *persist_error = None;
        }
        Err(e) => {
            *store_dirty = true;
            note_persist_error(persist_error, what, e);
        }
    }
}

/// Runs the daemon until a `shutdown` request, SIGTERM/SIGINT, or EOF in
/// `--stdio` mode.
pub fn serve(opts: &ServeOptions) -> Result<(), CommandError> {
    install_signal_handlers();
    if opts.stdio {
        let metrics = ServeMetrics::new();
        let endpoint = start_metrics_endpoint(opts, &metrics)?;
        let mut state = open_state(opts, metrics)?;
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let outcome = session_loop(stdin.lock(), &mut stdout.lock(), &mut state, opts);
        persist_final(&mut state);
        stop_metrics_endpoint(endpoint);
        outcome?;
        return Ok(());
    }
    let listener = TcpListener::bind(&opts.bind)
        .map_err(|e| CommandError::Io(format!("cannot bind {}: {e}", opts.bind)))?;
    serve_on(listener, opts)
}

/// Runs the TCP daemon on an already-bound listener (tests and benches
/// bind port 0 and pass the listener in to learn the actual port).
pub fn serve_on(listener: TcpListener, opts: &ServeOptions) -> Result<(), CommandError> {
    let metrics = ServeMetrics::new();
    let endpoint = start_metrics_endpoint(opts, &metrics)?;
    let state = open_state(opts, metrics.clone())?;
    let local = listener.local_addr().map(|a| a.to_string());
    eprintln!(
        "hyperpraw serve: listening on {}",
        local.as_deref().unwrap_or(&opts.bind)
    );
    listener
        .set_nonblocking(true)
        .map_err(|e| CommandError::Io(e.to_string()))?;
    let shared = Shared {
        state: Mutex::new(state),
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        shutdown: AtomicBool::new(false),
        metrics,
    };
    run_on_workers(SERVE_WORKERS + 1, |id| {
        if id == 0 {
            accept_loop(&listener, &shared, opts);
        } else {
            worker_loop(&shared, opts);
        }
    });
    persist_final(&mut lock(&shared.state));
    stop_metrics_endpoint(endpoint);
    Ok(())
}

/// A running `--metrics-addr` exposition endpoint: its thread plus the
/// flag that stops it.
type MetricsEndpoint = Option<(std::thread::JoinHandle<()>, Arc<AtomicBool>)>;

/// Binds and spawns the Prometheus-style exposition endpoint when
/// `--metrics-addr` was given. A bind failure is a startup error (a
/// daemon asked to expose metrics but silently not doing so would be
/// worse); per-scrape failures later are logged and dropped.
fn start_metrics_endpoint(
    opts: &ServeOptions,
    metrics: &ServeMetrics,
) -> Result<MetricsEndpoint, CommandError> {
    let Some(addr) = &opts.metrics_addr else {
        return Ok(None);
    };
    let listener = TcpListener::bind(addr)
        .map_err(|e| CommandError::Io(format!("cannot bind metrics endpoint {addr}: {e}")))?;
    eprintln!(
        "hyperpraw serve: metrics exposition on http://{}",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone())
    );
    listener
        .set_nonblocking(true)
        .map_err(|e| CommandError::Io(e.to_string()))?;
    let registry = metrics.registry.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = std::thread::spawn(move || metrics_endpoint_loop(listener, registry, stop_flag));
    Ok(Some((handle, stop)))
}

fn stop_metrics_endpoint(endpoint: MetricsEndpoint) {
    if let Some((handle, stop)) = endpoint {
        stop.store(true, Ordering::SeqCst);
        let _ = handle.join();
    }
}

/// Serves Prometheus text-format scrapes until the daemon stops. Every
/// request — regardless of method or path — answers the current
/// snapshot; a scrape endpoint has exactly one resource.
fn metrics_endpoint_loop(listener: TcpListener, registry: Registry, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) && !should_stop() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(e) = answer_scrape(stream, &registry) {
                    eprintln!("hyperpraw serve: metrics scrape failed: {e}");
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("hyperpraw serve: metrics accept failed: {e}");
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
}

/// Answers one HTTP scrape: drain the request head, write the
/// exposition. The hand-rolled response is deliberate — the workspace
/// is dependency-free, and a scrape endpoint needs nothing more than
/// status line + three headers.
fn answer_scrape(stream: TcpStream, registry: &Registry) -> io::Result<()> {
    // The accepted stream must block (with a cap) while the client
    // finishes sending its request head.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let body = registry.render_prometheus();
    let mut writer = stream;
    write!(
        writer,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    writer.flush()
}

/// Accepts connections until shutdown. Accept errors are logged and
/// retried with exponential backoff — one bad `accept()` (fd pressure,
/// a reset in the backlog) must not kill a daemon holding live state.
fn accept_loop(listener: &TcpListener, shared: &Shared, opts: &ServeOptions) {
    let mut backoff = Duration::from_millis(50);
    while !shared.shutdown.load(Ordering::SeqCst) && !should_stop() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = Duration::from_millis(50);
                // One-line requests and responses: Nagle + delayed ACK
                // would add ~40ms to every round trip.
                let _ = stream.set_nodelay(true);
                let _ = stream
                    .set_read_timeout(Some(Duration::from_secs(opts.read_timeout_secs.max(1))));
                lock(&shared.queue).push_back((stream, Instant::now()));
                shared.available.notify_one();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("hyperpraw serve: accept failed: {e}; retrying in {backoff:?}");
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
    }
    shared.available.notify_all();
}

/// One worker: pop a connection, serve it to completion, repeat.
fn worker_loop(shared: &Shared, opts: &ServeOptions) {
    loop {
        let stream = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) || should_stop() {
                    break None;
                }
                queue = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        let Some((stream, enqueued)) = stream else {
            return;
        };
        shared
            .metrics
            .queue_wait_us
            .record_duration(enqueued.elapsed());
        shared.metrics.active_connections.inc();
        let outcome = connection(stream, shared, opts);
        shared.metrics.active_connections.dec();
        if let Err(e) = outcome {
            eprintln!("hyperpraw serve: connection error: {e}");
        }
    }
}

/// Serves one TCP connection until it closes, goes silent for
/// [`IDLE_TIMEOUT_STRIKES`] read-timeout windows, the daemon shuts
/// down, or transport IO fails.
fn connection(stream: TcpStream, shared: &Shared, opts: &ServeOptions) -> io::Result<()> {
    let reader = stream.try_clone()?;
    let mut writer = stream;
    let mut lines = LineReader::new(BufReader::new(reader), opts.max_line_bytes);
    // Consecutive timeout windows with zero bytes received. A timeout
    // only fires when a whole `--read-timeout-secs` window passed with
    // nothing to read, so any traffic at all resets the count.
    let mut idle_strikes = 0u32;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || should_stop() {
            return Ok(());
        }
        match lines.next_line() {
            Line::Eof => return Ok(()),
            Line::TimedOut => {
                idle_strikes += 1;
                if idle_strikes >= IDLE_TIMEOUT_STRIKES {
                    // Free the worker: with a bounded pool, idle clients
                    // must not be able to starve queued connections.
                    return Ok(());
                }
                continue;
            }
            Line::Io(e) => return Err(e),
            Line::TooLong => {
                idle_strikes = 0;
                let response = error_response(&ServeError::from(format!(
                    "request line exceeds {} bytes",
                    opts.max_line_bytes
                )));
                writeln!(writer, "{response}")?;
                writer.flush()?;
            }
            Line::Data(buf) => {
                idle_strikes = 0;
                let Some((response, shutdown)) =
                    respond_bytes(&buf, &mut lock(&shared.state), opts)
                else {
                    continue;
                };
                writeln!(writer, "{response}")?;
                writer.flush()?;
                if shutdown {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    shared.available.notify_all();
                    return Ok(());
                }
            }
        }
    }
}

/// Serves one session over any line-oriented transport with a fresh
/// in-memory state (the persistence-aware daemon path goes through
/// [`serve`]); returns whether a `shutdown` request ended it (as opposed
/// to EOF). Kept for embedding and tests.
pub fn session<R: BufRead, W: Write>(input: R, out: &mut W) -> Result<bool, CommandError> {
    let opts = ServeOptions::default();
    let mut state = fresh_state();
    session_loop(input, out, &mut state, &opts)
}

/// A purely in-memory [`ServeState`] with its own live registry.
fn fresh_state() -> ServeState {
    ServeState {
        session: None,
        store: None,
        store_dirty: false,
        persist_error: None,
        metrics: ServeMetrics::new(),
    }
}

/// The single-transport serve loop (stdio mode and [`session`]).
///
/// Lines are read as raw bytes, so a request that is not valid UTF-8 gets
/// a structured error response (with the byte offset where the encoding
/// broke) instead of tearing down the whole connection; only transport
/// I/O failures end the session.
fn session_loop<R: BufRead, W: Write>(
    input: R,
    out: &mut W,
    state: &mut ServeState,
    opts: &ServeOptions,
) -> Result<bool, CommandError> {
    let mut lines = LineReader::new(input, opts.max_line_bytes);
    loop {
        if should_stop() {
            return Ok(false);
        }
        let (response, shutdown) = match lines.next_line() {
            Line::Eof => return Ok(false),
            Line::TimedOut => continue,
            Line::Io(e) => return Err(CommandError::Io(e.to_string())),
            Line::TooLong => (
                error_response(&ServeError::from(format!(
                    "request line exceeds {} bytes",
                    opts.max_line_bytes
                ))),
                false,
            ),
            Line::Data(buf) => match respond_bytes(&buf, state, opts) {
                Some(reply) => reply,
                None => continue,
            },
        };
        writeln!(out, "{response}").map_err(|e| CommandError::Io(e.to_string()))?;
        out.flush().map_err(|e| CommandError::Io(e.to_string()))?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Handles one raw request line; `None` for blank lines (no response).
fn respond_bytes(
    buf: &[u8],
    state: &mut ServeState,
    opts: &ServeOptions,
) -> Option<(String, bool)> {
    match std::str::from_utf8(buf) {
        Ok(line) if line.trim().is_empty() => None,
        Ok(line) => Some(respond(line, state, opts)),
        Err(e) => Some((
            error_response(&ServeError {
                message: "bad request: line is not valid UTF-8".to_string(),
                offset: Some(e.valid_up_to()),
            }),
            false,
        )),
    }
}

/// Handles one request line; never fails the session (errors become
/// `{"ok": false, ...}` responses).
fn respond(line: &str, state: &mut ServeState, opts: &ServeOptions) -> (String, bool) {
    match handle(line, state, opts) {
        Ok(Reply::Payload(fields)) => (reply(true, fields), false),
        Ok(Reply::Shutdown) => (reply(true, vec![("bye", true.into())]), true),
        Err(error) => (error_response(&error), false),
    }
}

/// One response line: `{"ok": ok}` followed by `fields`.
fn reply(ok: bool, fields: Vec<(&str, JsonValue)>) -> String {
    JsonValue::object(std::iter::once(("ok", ok.into())).chain(fields)).to_string()
}

/// A request failure: what went wrong, plus — for malformed lines — the
/// parser's byte offset into the request.
struct ServeError {
    message: String,
    offset: Option<usize>,
}

impl From<String> for ServeError {
    fn from(message: String) -> Self {
        ServeError {
            message,
            offset: None,
        }
    }
}

impl From<&str> for ServeError {
    fn from(message: &str) -> Self {
        ServeError::from(message.to_string())
    }
}

/// Serialises a [`ServeError`] into the protocol's structured error
/// object; `offset` appears only when the request line itself failed to
/// parse.
fn error_response(error: &ServeError) -> String {
    let message = ("message", error.message.as_str().into());
    let offset = error.offset.map(|offset| ("offset", offset.into()));
    let error = JsonValue::object(std::iter::once(message).chain(offset));
    reply(false, vec![("error", error)])
}

enum Reply {
    /// The fields that follow `"ok": true`.
    Payload(Vec<(&'static str, JsonValue)>),
    Shutdown,
}

fn handle(line: &str, state: &mut ServeState, opts: &ServeOptions) -> Result<Reply, ServeError> {
    let request = json::parse(line).map_err(|e| ServeError {
        message: format!("bad request: {}", e.message),
        offset: Some(e.offset),
    })?;
    let op = request
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field 'op'")?;
    // Clone the handles before handle_op borrows the state mutably;
    // they are Arcs over the same cells. Errors count too — the totals
    // are requests received, not requests satisfied.
    let timed = state.metrics.op(op).map(|(c, h)| (c.clone(), h.clone()));
    let started = Instant::now();
    let result = handle_op(op, &request, state, opts);
    state
        .metrics
        .persist_errors
        .set(i64::from(state.persist_error.is_some()));
    if let Some((requests, latency)) = timed {
        requests.inc();
        latency.record_duration(started.elapsed());
    }
    result
}

/// Dispatches one parsed request; split from [`handle`] so the wrapper
/// can time every op uniformly.
fn handle_op(
    op: &str,
    request: &JsonValue,
    state: &mut ServeState,
    opts: &ServeOptions,
) -> Result<Reply, ServeError> {
    match op {
        "partition" => {
            let report = start_session(request, state, opts)?;
            let ServeState {
                session,
                store,
                store_dirty,
                persist_error,
                ..
            } = state;
            if let (Some(store), Some(session)) = (store.as_mut(), session.as_ref()) {
                resync_snapshot(
                    store,
                    session,
                    store_dirty,
                    persist_error,
                    "initial snapshot",
                );
            }
            Ok(Reply::Payload(vec![("report", report)]))
        }
        "update" => {
            let updates = parse_updates(request)?;
            let ServeState {
                session,
                store,
                store_dirty,
                persist_error,
                ..
            } = state;
            let session = session
                .as_mut()
                .ok_or("no session: send 'partition' first")?;
            let update = session.update(&updates).map_err(|e| e.to_string())?;
            if let Some(store) = store.as_mut() {
                // The batch was accepted: journal it (fsynced) before the
                // client sees the acknowledgement, folding into a fresh
                // snapshot once the replay tail gets long. Any failure
                // leaves the disk behind the session, so the journal is
                // disarmed until a full snapshot re-syncs it — appending
                // past a gap would replay a silently divergent history.
                if *store_dirty {
                    resync_snapshot(
                        store,
                        session,
                        store_dirty,
                        persist_error,
                        "resync snapshot",
                    );
                } else if let Err(e) = store.append(&updates) {
                    *store_dirty = true;
                    eprintln!(
                        "hyperpraw serve: journal append failed ({e}); snapshotting to re-sync"
                    );
                    resync_snapshot(store, session, store_dirty, persist_error, "journal append");
                } else if store.batches_since_snapshot() >= opts.snapshot_every.max(1) {
                    resync_snapshot(
                        store,
                        session,
                        store_dirty,
                        persist_error,
                        "periodic snapshot",
                    );
                }
            }
            Ok(Reply::Payload(vec![("update", update.to_value())]))
        }
        "lookup" => {
            let session = state
                .session
                .as_ref()
                .ok_or("no session: send 'partition' first")?;
            let vertex = field_u64(request, "vertex")?;
            let vertex = u32::try_from(vertex).map_err(|_| "'vertex' out of range")?;
            let known = session.hypergraph().num_vertices();
            if vertex as usize >= known {
                return Err(
                    format!("vertex {vertex} outside the session's id space (0..{known})").into(),
                );
            }
            // In-range but tombstoned ids answer null: the id existed,
            // its vertex is gone.
            Ok(Reply::Payload(vec![
                ("vertex", vertex.into()),
                ("part", session.lookup(vertex).into()),
            ]))
        }
        "report" => {
            let session = state
                .session
                .as_ref()
                .ok_or("no session: send 'partition' first")?;
            let mut fields = vec![("report", session.report().to_value(false))];
            if let Some(recovery) = session.recovery() {
                fields.push(("recovery", recovery.into()));
            }
            if let Some(err) = &state.persist_error {
                fields.push(("persistence_error", err.as_str().into()));
            }
            let uptime = state.metrics.started.elapsed().as_secs_f64();
            fields.push(("uptime_secs", uptime.into()));
            // Requests answered so far, per op. The `report` being built
            // has not been counted yet — totals are through the previous
            // request.
            let requests = state.metrics.ops.iter();
            fields.push((
                "requests",
                JsonValue::object(requests.map(|(name, count, _)| (*name, count.get().into()))),
            ));
            if let Some(store) = &state.store {
                fields.push(("batches_since_snapshot", store.batches_since_snapshot().into()));
            }
            Ok(Reply::Payload(fields))
        }
        "metrics" => Ok(Reply::Payload(vec![(
            "metrics",
            JsonValue::from(&state.metrics.registry.snapshot()),
        )])),
        "shutdown" => Ok(Reply::Shutdown),
        other => Err(format!(
            "unknown op '{other}' (expected partition | update | lookup | report | metrics | shutdown)"
        )
        .into()),
    }
}

/// Builds the hypergraph named by a `partition` request and starts (or
/// replaces) the resident session; returns the initial report.
fn start_session(
    request: &JsonValue,
    state: &mut ServeState,
    opts: &ServeOptions,
) -> Result<JsonValue, String> {
    let parts = field_u64(request, "parts")?;
    let parts = u32::try_from(parts).map_err(|_| "'parts' out of range")?;
    let hg = match (request.get("edges"), request.get("path")) {
        (Some(edges), None) => inline_hypergraph(edges, request)?,
        (None, Some(path)) => {
            let path = path.as_str().ok_or("'path' must be a string")?;
            let path = confine(opts.data_dir.as_deref(), Path::new(path))?;
            load_hypergraph(&path).map_err(|e| e.to_string())?
        }
        (Some(_), Some(_)) => return Err("give either 'edges' or 'path', not both".into()),
        (None, None) => return Err("missing hypergraph: give 'edges' or 'path'".into()),
    };
    let algorithm = match request.get("algorithm").map(|v| {
        v.as_str()
            .ok_or("'algorithm' must be a string")
            .and_then(|s| Algorithm::parse(s).map_err(|_| "unknown 'algorithm'"))
    }) {
        Some(result) => result.map_err(String::from)?,
        None => Algorithm::HyperPrawBasic,
    };
    let seed = match request.get("seed") {
        Some(seed) => seed
            .as_u64()
            .ok_or("'seed' must be a non-negative integer")?,
        None => 2019,
    };
    let mut job = PartitionJob::new(algorithm)
        .partitions(parts)
        .seed(seed)
        .registry(&state.metrics.registry);
    if let Some(machine) = request.get("machine") {
        let preset = machine
            .as_str()
            .ok_or("'machine' must be a string")
            .and_then(|s| MachinePreset::parse_value(Some(s)).ok_or("unknown 'machine' preset"))?;
        check_parts(preset, parts, hg.num_vertices()).map_err(|e| e.to_string())?;
        let (_, cost) = profile(preset, parts as usize, seed).map_err(|e| e.to_string())?;
        job = job.cost(cost);
    }
    if let Some(tol) = request.get("imbalance") {
        let tol = tol.as_f64().ok_or("'imbalance' must be a number")?;
        if !tol.is_finite() || tol < 1.0 {
            return Err("'imbalance' must be a finite number >= 1.0".into());
        }
        job = job.imbalance_tolerance(tol);
    }
    let session = job.run_dynamic(&hg).map_err(|e| e.to_string())?;
    let report = session.initial_report().to_value(false);
    state.session = Some(session);
    Ok(report)
}

/// Resolves a `partition` request's `"path"` inside `data_dir`: relative
/// paths are taken from it, the result is canonicalised (symlinks and `..`
/// resolved) and must lie inside the canonical directory. Refused outright
/// without a data directory. Refusals do not say whether the file exists,
/// so a client cannot probe the file system outside the directory.
fn confine(data_dir: Option<&Path>, requested: &Path) -> Result<PathBuf, String> {
    let dir = data_dir
        .ok_or("'path' is disabled: start the daemon with --data-dir DIR to load files from DIR")?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("data directory {}: {e}", dir.display()))?;
    let refused = || {
        format!(
            "'path' {} does not name a file inside the data directory",
            requested.display()
        )
    };
    let resolved = dir.join(requested).canonicalize().map_err(|_| refused())?;
    if resolved.starts_with(&dir) && resolved.is_file() {
        Ok(resolved)
    } else {
        Err(refused())
    }
}

/// An inline hypergraph: `"edges": [[pins...], ...]` plus an optional
/// `"vertices": N` floor for trailing isolated vertices.
fn inline_hypergraph(
    edges: &JsonValue,
    request: &JsonValue,
) -> Result<hyperpraw::hypergraph::Hypergraph, String> {
    let edges = edges.as_array().ok_or("'edges' must be an array")?;
    let mut builder = HypergraphBuilder::with_capacity(0, edges.len());
    builder.name("serve".to_string());
    for (i, edge) in edges.iter().enumerate() {
        let pins = edge
            .as_array()
            .ok_or_else(|| format!("edge {i} must be an array of vertex ids"))?;
        let pins: Vec<u32> = pins
            .iter()
            .map(|p| {
                p.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| format!("edge {i} holds a non-vertex-id pin"))
            })
            .collect::<Result<_, _>>()?;
        builder.add_hyperedge(pins);
    }
    if let Some(n) = request.get("vertices") {
        let n = n
            .as_u64()
            .ok_or("'vertices' must be a non-negative integer")?;
        if n > u64::from(u32::MAX) {
            return Err("'vertices' out of range (vertex ids are u32)".into());
        }
        builder.ensure_vertices(n as usize);
    }
    Ok(builder.build())
}

/// Decodes the `update` request's batch into [`GraphUpdate`]s.
fn parse_updates(request: &JsonValue) -> Result<Vec<GraphUpdate>, String> {
    let updates = request
        .get("updates")
        .and_then(JsonValue::as_array)
        .ok_or("missing array field 'updates'")?;
    updates
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let op = u
                .get("op")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("update {i}: missing string field 'op'"))?;
            let vertex = || -> Result<u32, String> {
                let v = field_u64(u, "vertex").map_err(|e| format!("update {i}: {e}"))?;
                u32::try_from(v).map_err(|_| format!("update {i}: 'vertex' out of range"))
            };
            let edge = || -> Result<u32, String> {
                let e = field_u64(u, "edge").map_err(|e| format!("update {i}: {e}"))?;
                u32::try_from(e).map_err(|_| format!("update {i}: 'edge' out of range"))
            };
            let weight = u
                .get("weight")
                .map(|w| {
                    w.as_f64()
                        .ok_or_else(|| format!("update {i}: 'weight' must be a number"))
                })
                .transpose()?
                .unwrap_or(1.0);
            // Non-finite or negative weights would poison the load
            // accounting and are rejected by the snapshot codec; refuse
            // them at the door.
            if !weight.is_finite() || weight < 0.0 {
                return Err(format!(
                    "update {i}: 'weight' must be finite and non-negative"
                ));
            }
            match op {
                "add_vertex" => Ok(GraphUpdate::AddVertex { weight }),
                "remove_vertex" => Ok(GraphUpdate::RemoveVertex { vertex: vertex()? }),
                "add_edge" => {
                    let pins = u
                        .get("pins")
                        .and_then(JsonValue::as_array)
                        .ok_or_else(|| format!("update {i}: missing array field 'pins'"))?
                        .iter()
                        .map(|p| {
                            p.as_u64()
                                .and_then(|v| u32::try_from(v).ok())
                                .ok_or_else(|| format!("update {i}: bad pin"))
                        })
                        .collect::<Result<Vec<u32>, _>>()?;
                    Ok(GraphUpdate::AddHyperedge { pins, weight })
                }
                "remove_edge" => Ok(GraphUpdate::RemoveHyperedge { edge: edge()? }),
                "add_pin" => Ok(GraphUpdate::AddPin {
                    edge: edge()?,
                    vertex: vertex()?,
                }),
                "remove_pin" => Ok(GraphUpdate::RemovePin {
                    edge: edge()?,
                    vertex: vertex()?,
                }),
                other => Err(format!("update {i}: unknown op '{other}'")),
            }
        })
        .collect()
}

fn field_u64(value: &JsonValue, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing non-negative integer field '{key}'"))
}

// ---------------------------------------------------------------------------
// Capped, timeout-aware line reading
// ---------------------------------------------------------------------------

/// One read attempt's outcome.
enum Line {
    /// A complete request line (newline stripped).
    Data(Vec<u8>),
    /// The line passed the size cap; it has been / is being drained.
    /// Reported exactly once per oversized line.
    TooLong,
    /// The transport timed out (or was interrupted by a signal) with a
    /// partial line buffered; call again — the partial line is kept.
    TimedOut,
    /// Clean end of input.
    Eof,
    /// Transport failure.
    Io(io::Error),
}

/// A resumable line reader with a hard per-line size cap.
///
/// Unlike [`BufRead::read_until`], a read timeout does not lose the
/// partially received line (it stays buffered for the next call), and a
/// line over the cap is reported once, then silently drained to its
/// newline without ever buffering it — a client cannot make the daemon
/// allocate more than the cap per connection.
struct LineReader<R> {
    input: R,
    buf: Vec<u8>,
    discarding: bool,
    max: usize,
}

impl<R: BufRead> LineReader<R> {
    fn new(input: R, max: usize) -> Self {
        Self {
            input,
            buf: Vec::new(),
            discarding: false,
            max,
        }
    }

    fn next_line(&mut self) -> Line {
        loop {
            let (consumed, found_newline) = {
                let available = match self.input.fill_buf() {
                    Ok(b) => b,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock
                                | io::ErrorKind::TimedOut
                                | io::ErrorKind::Interrupted
                        ) =>
                    {
                        return Line::TimedOut
                    }
                    Err(e) => return Line::Io(e),
                };
                if available.is_empty() {
                    if self.discarding {
                        self.discarding = false;
                        return Line::Eof;
                    }
                    if self.buf.is_empty() {
                        return Line::Eof;
                    }
                    // A trailing line without a newline still counts.
                    return Line::Data(std::mem::take(&mut self.buf));
                }
                match available.iter().position(|&b| b == b'\n') {
                    Some(idx) => {
                        if !self.discarding {
                            self.buf.extend_from_slice(&available[..idx]);
                        }
                        (idx + 1, true)
                    }
                    None => {
                        if !self.discarding {
                            self.buf.extend_from_slice(available);
                        }
                        (available.len(), false)
                    }
                }
            };
            self.input.consume(consumed);
            if found_newline {
                if self.discarding {
                    // The oversized line (already reported) just ended.
                    self.discarding = false;
                    continue;
                }
                if self.buf.len() > self.max {
                    self.buf.clear();
                    return Line::TooLong;
                }
                return Line::Data(std::mem::take(&mut self.buf));
            }
            if !self.discarding && self.buf.len() > self.max {
                self.discarding = true;
                self.buf.clear();
                return Line::TooLong;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};
    use std::net::TcpStream;

    fn drive(requests: &str) -> (Vec<String>, bool) {
        drive_bytes(requests.as_bytes())
    }

    fn drive_bytes(requests: &[u8]) -> (Vec<String>, bool) {
        let mut out = Vec::new();
        let shutdown = session(Cursor::new(requests.to_vec()), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(|l| l.to_string()).collect(), shutdown)
    }

    #[test]
    fn full_round_trip_over_pipes() {
        let (lines, shutdown) = drive(concat!(
            "{\"op\": \"partition\", \"parts\": 2, \"seed\": 7, ",
            "\"edges\": [[0,1,2],[2,3],[3,4,5],[5,0]], \"vertices\": 6}\n",
            "{\"op\": \"update\", \"updates\": [{\"op\": \"add_vertex\"}, ",
            "{\"op\": \"add_edge\", \"pins\": [6, 0, 1]}]}\n",
            "{\"op\": \"lookup\", \"vertex\": 6}\n",
            "{\"op\": \"report\"}\n",
            "{\"op\": \"shutdown\"}\n",
        ));
        assert!(shutdown);
        assert_eq!(lines.len(), 5);
        for line in &lines {
            // Every response is itself one valid JSON document on one line.
            hyperpraw::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[0].contains("\"ok\": true") && lines[0].contains("\"report\""));
        assert!(lines[1].contains("\"update\"") && lines[1].contains("\"migration\""));
        let lookup = hyperpraw::json::parse(&lines[2]).unwrap();
        assert_eq!(lookup.get("vertex").and_then(JsonValue::as_u64), Some(6));
        assert!(lookup.get("part").and_then(JsonValue::as_u64).is_some());
        assert!(lines[3].contains("\"quality\": \"evaluated\""));
        assert_eq!(lines[4], "{\"ok\": true, \"bye\": true}");
    }

    #[test]
    fn errors_keep_the_session_alive() {
        let (lines, shutdown) = drive(concat!(
            "not json\n",
            "{\"op\": \"lookup\", \"vertex\": 0}\n",
            "{\"op\": \"mystery\"}\n",
            "{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1],[1,2]]}\n",
            "{\"op\": \"update\", \"updates\": [{\"op\": \"remove_vertex\", \"vertex\": 99}]}\n",
            "{\"op\": \"lookup\", \"vertex\": 1}\n",
        ));
        assert!(!shutdown, "EOF, not shutdown");
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"ok\": false") && lines[0].contains("bad request"));
        assert!(lines[1].contains("no session"));
        assert!(lines[2].contains("unknown op"));
        assert!(lines[3].contains("\"ok\": true"));
        assert!(lines[4].contains("\"ok\": false"), "{}", lines[4]);
        assert!(lines[5].contains("\"part\":"));
    }

    #[test]
    fn too_many_parts_are_refused_before_the_machine_is_profiled() {
        // Profiled first, a million parts overflow the ARCHER-like
        // hierarchy and a hundred thousand need an 80 GB bandwidth matrix.
        let (lines, shutdown) = drive(concat!(
            "{\"op\": \"partition\", \"parts\": 1000000, \"machine\": \"archer\", ",
            "\"edges\": [[0,1],[2,3]]}\n",
            "{\"op\": \"partition\", \"parts\": 100000, \"machine\": \"archer\", ",
            "\"edges\": [[0,1],[2,3]]}\n",
            "{\"op\": \"lookup\", \"vertex\": 0}\n",
        ));
        assert!(!shutdown, "EOF, not shutdown");
        assert_eq!(lines.len(), 3, "{lines:#?}");
        for (line, parts) in lines.iter().zip(["1000000", "100000"]) {
            let message = format!("cannot split 4 vertices into {parts} parts");
            assert!(line.contains(&message), "{line}");
        }
        assert!(lines[2].contains("no session"), "{}", lines[2]);
    }

    #[test]
    fn a_machine_with_fewer_than_two_parts_is_refused_not_profiled() {
        // The ring profiler asserts two processes at least.
        let (lines, _) = drive(concat!(
            "{\"op\": \"partition\", \"parts\": 1, \"machine\": \"flat\", ",
            "\"edges\": [[0,1],[2,3]]}\n",
        ));
        assert_eq!(lines.len(), 1, "{lines:#?}");
        assert!(lines[0].contains("at least two parts"), "{}", lines[0]);
    }

    #[test]
    fn malformed_lines_answer_structured_errors_with_offsets() {
        let mut requests = Vec::new();
        requests.extend_from_slice(b"[true, fals]\n");
        requests.extend_from_slice(b"{\"op\": \xff\xfe}\n"); // not UTF-8 at byte 7
        requests.extend_from_slice(b"{\"op\": \"shutdown\"}\n");
        let (lines, shutdown) = drive_bytes(&requests);
        assert!(
            shutdown,
            "garbage must not tear down the session: {lines:#?}"
        );
        assert_eq!(lines.len(), 3);

        let bad_json = json::parse(&lines[0]).unwrap();
        assert_eq!(bad_json.get("ok").and_then(JsonValue::as_bool), Some(false));
        let error = bad_json.get("error").expect("structured error object");
        let message = error.get("message").and_then(JsonValue::as_str).unwrap();
        assert!(message.contains("bad request"), "{message}");
        let offset = error.get("offset").and_then(JsonValue::as_u64).unwrap();
        assert!(offset >= 7, "offset {offset} points at the bad token");

        let bad_utf8 = json::parse(&lines[1]).unwrap();
        let error = bad_utf8.get("error").expect("structured error object");
        let message = error.get("message").and_then(JsonValue::as_str).unwrap();
        assert!(message.contains("UTF-8"), "{message}");
        assert_eq!(
            error.get("offset").and_then(JsonValue::as_u64),
            Some(7),
            "offset is where the encoding broke"
        );

        assert_eq!(lines[2], "{\"ok\": true, \"bye\": true}");
    }

    #[test]
    fn semantic_errors_carry_no_offset() {
        let (lines, _) = drive("{\"op\": \"lookup\", \"vertex\": 0}\n");
        let v = json::parse(&lines[0]).unwrap();
        let error = v.get("error").expect("structured error object");
        assert!(error
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("no session"));
        assert_eq!(error.get("offset"), None);
    }

    #[test]
    fn tombstoned_lookups_answer_null() {
        let (lines, _) = drive(concat!(
            "{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1,2],[2,3,4],[4,5,0]]}\n",
            "{\"op\": \"update\", \"updates\": [{\"op\": \"remove_vertex\", \"vertex\": 3}]}\n",
            "{\"op\": \"lookup\", \"vertex\": 3}\n",
        ));
        assert!(lines[2].contains("\"part\": null"), "{}", lines[2]);
    }

    #[test]
    fn out_of_range_lookups_answer_structured_errors() {
        let (lines, _) = drive(concat!(
            "{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1,2],[2,3]]}\n",
            "{\"op\": \"lookup\", \"vertex\": 4}\n",
            "{\"op\": \"lookup\", \"vertex\": 4000000000}\n",
            "{\"op\": \"lookup\", \"vertex\": 3}\n",
        ));
        assert!(
            lines[1].contains("\"ok\": false") && lines[1].contains("outside the session"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"ok\": false"), "{}", lines[2]);
        assert!(lines[3].contains("\"ok\": true"), "session still live");
    }

    #[test]
    fn non_finite_weights_are_rejected() {
        let (lines, _) = drive(concat!(
            "{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1],[1,2]]}\n",
            "{\"op\": \"update\", \"updates\": [{\"op\": \"add_vertex\", \"weight\": 1e999}]}\n",
            "{\"op\": \"update\", \"updates\": [{\"op\": \"add_vertex\", \"weight\": -1}]}\n",
            "{\"op\": \"lookup\", \"vertex\": 0}\n",
        ));
        assert!(lines[1].contains("finite"), "{}", lines[1]);
        assert!(lines[2].contains("finite"), "{}", lines[2]);
        assert!(lines[3].contains("\"ok\": true"), "session survives");
    }

    #[test]
    fn oversized_lines_answer_an_error_and_keep_the_connection() {
        let mut requests = Vec::new();
        requests.extend_from_slice(
            b"{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1],[1,2]]}\n",
        );
        requests.extend_from_slice(&vec![b'x'; 4096]);
        requests.push(b'\n');
        requests.extend_from_slice(b"{\"op\": \"lookup\", \"vertex\": 0}\n");

        let opts = ServeOptions {
            max_line_bytes: 1024,
            ..ServeOptions::default()
        };
        let mut state = fresh_state();
        let mut out = Vec::new();
        session_loop(Cursor::new(requests), &mut out, &mut state, &opts).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[1].contains("exceeds 1024 bytes"),
            "one structured error for the oversized line: {}",
            lines[1]
        );
        assert!(
            lines[2].contains("\"part\":"),
            "connection kept: {}",
            lines[2]
        );
    }

    #[test]
    fn line_reader_drains_without_buffering() {
        // 3 MiB line under a 1 KiB cap through a 64-byte reader: at most
        // cap+read-chunk bytes may ever be buffered.
        let mut input = vec![b'a'; 3 << 20];
        input.push(b'\n');
        input.extend_from_slice(b"next\n");
        let mut reader = LineReader::new(BufReader::with_capacity(64, Cursor::new(input)), 1024);
        assert!(matches!(reader.next_line(), Line::TooLong));
        assert!(reader.buf.capacity() <= 2048, "drained, not buffered");
        match reader.next_line() {
            Line::Data(d) => assert_eq!(d, b"next"),
            other => panic!("expected the next line, got {}", line_name(&other)),
        }
        assert!(matches!(reader.next_line(), Line::Eof));
    }

    fn line_name(l: &Line) -> &'static str {
        match l {
            Line::Data(_) => "Data",
            Line::TooLong => "TooLong",
            Line::TimedOut => "TimedOut",
            Line::Eof => "Eof",
            Line::Io(_) => "Io",
        }
    }

    /// A dirty store (an earlier append or snapshot failure) must never
    /// append again — the next accepted batch re-syncs the disk with a
    /// full snapshot instead, clearing the advertised error, and the
    /// re-synced directory recovers to the live assignment.
    #[test]
    fn dirty_store_resyncs_via_snapshot_and_clears_the_error() {
        let dir = std::env::temp_dir().join(format!("hpraw-serve-dirty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            state_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let mut state = open_state(&opts, ServeMetrics::new()).unwrap();
        let mut out = Vec::new();
        session_loop(
            Cursor::new(
                b"{\"op\": \"partition\", \"parts\": 2, \"seed\": 7, \"edges\": [[0,1,2],[2,3],[3,4,0]]}\n"
                    .to_vec(),
            ),
            &mut out,
            &mut state,
            &opts,
        )
        .unwrap();
        assert!(!state.store_dirty);

        // Simulate a journal-append failure having disarmed the store.
        state.store_dirty = true;
        state.persist_error = Some("journal append: injected".to_string());

        let mut out = Vec::new();
        session_loop(
            Cursor::new(
                concat!(
                    "{\"op\": \"update\", \"updates\": [{\"op\": \"add_vertex\"}, ",
                    "{\"op\": \"add_edge\", \"pins\": [5, 0]}]}\n",
                    "{\"op\": \"report\"}\n",
                )
                .as_bytes()
                .to_vec(),
            ),
            &mut out,
            &mut state,
            &opts,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"ok\": true"), "{}", lines[0]);
        assert!(
            !state.store_dirty,
            "a successful snapshot re-arms the store"
        );
        assert_eq!(state.persist_error, None);
        // The telemetry section always carries the `serve.persistence_errors`
        // gauge, so look for the report's own error field specifically.
        assert!(
            !lines[1].contains("\"persistence_error\":"),
            "the error must clear once disk and memory agree: {}",
            lines[1]
        );

        // The re-sync captured the batch the journal never saw: a fresh
        // recovery answers identically to the live session.
        let live: Vec<Option<u32>> = (0..6)
            .map(|v| state.session.as_ref().unwrap().lookup(v))
            .collect();
        drop(state);
        let (_, recovered) = StateDir::open(&dir).unwrap();
        let rec = recovered.expect("state must recover");
        let resumed = DynamicSession::resume(&rec.meta, rec.partitioner, Some(rec.stats)).unwrap();
        for v in 0..6u32 {
            assert_eq!(resumed.lookup(v), live[v as usize], "vertex {v}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A connection that never sends a byte is hung up on after
    /// [`IDLE_TIMEOUT_STRIKES`] read-timeout windows, and the daemon
    /// keeps serving new clients afterwards — idle clients cannot pin
    /// the worker pool.
    #[test]
    fn idle_connections_are_disconnected_to_free_workers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = ServeOptions {
            read_timeout_secs: 1,
            ..ServeOptions::default()
        };
        let server = std::thread::spawn(move || serve_on(listener, &opts));

        let idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut buf = [0u8; 1];
        // Blocks until the server closes the idle connection (~strikes
        // × 1s); a zero-byte read is that hang-up.
        let n = (&idle)
            .read(&mut buf)
            .expect("server must hang up, not time us out");
        assert_eq!(n, 0, "expected EOF from the server side");

        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(
            b"{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1],[1,2]]}\n{\"op\": \"shutdown\"}\n",
        )
        .unwrap();
        let mut responses = String::new();
        BufReader::new(&busy)
            .read_to_string(&mut responses)
            .unwrap();
        assert!(responses.contains("\"bye\""), "{responses}");
        server.join().unwrap().unwrap();
    }

    /// Two clients at once: an idle connection (A) must not block a full
    /// round trip on another (B) — connections are not served serially.
    #[test]
    fn concurrent_clients_are_not_serialised() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = ServeOptions {
            read_timeout_secs: 1,
            ..ServeOptions::default()
        };
        let server = std::thread::spawn(move || serve_on(listener, &opts));

        // A connects first and stays silent.
        let idle = TcpStream::connect(addr).unwrap();

        // B completes a full session while A is open.
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(b"{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1,2],[2,3]]}\n")
            .unwrap();
        busy.write_all(b"{\"op\": \"lookup\", \"vertex\": 1}\n")
            .unwrap();
        busy.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
        let mut responses = String::new();
        BufReader::new(&busy)
            .read_to_string(&mut responses)
            .unwrap();
        let lines: Vec<&str> = responses.lines().collect();
        assert_eq!(lines.len(), 3, "{responses}");
        assert!(lines[0].contains("\"ok\": true"));
        assert!(lines[1].contains("\"part\":"));
        assert!(lines[2].contains("\"bye\""));

        drop(idle);
        server.join().unwrap().unwrap();
    }

    /// The error objects keep the values recorded from the string-splicing
    /// writer this daemon used before replies became [`JsonValue`]s.
    #[test]
    fn error_replies_keep_their_recorded_values() {
        let (lines, _) = drive(concat!(
            "not json\n",
            "{\"op\": \"lookup\", \"vertex\": 0}\n",
            "{\"op\": \"odd \\\"op\\\"\\nwith\\\\escapes\\u0001\"}\n",
            "{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1],[1,2]], \"seed\": -1}\n",
        ));
        let parse = |l: &str| json::parse(l).unwrap();
        let recorded = include_str!("../tests/fixtures/serve_errors.ndjson");
        let recorded: Vec<JsonValue> = recorded.lines().map(parse).collect();
        assert_eq!(lines.iter().map(|l| parse(l)).collect::<Vec<_>>(), recorded);
    }

    /// A seed of 2^53 or more has no exact JSON number: it is refused, not
    /// silently aliased to a neighbouring seed.
    #[test]
    fn seeds_of_two_to_the_53_or_more_are_refused() {
        let (lines, _) = drive(
            "{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1]], \"seed\": 18446744073709551616}\n",
        );
        assert!(
            lines[0].contains("'seed' must be a non-negative"),
            "{lines:?}"
        );
    }
}
