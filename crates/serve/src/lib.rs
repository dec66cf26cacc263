//! `dtdinfer serve` — a multi-tenant incremental schema-inference daemon.
//!
//! The paper's algorithms (iDTD's SOA rewriting, CRX's partial-order
//! summary) are incremental by construction: learner state is a
//! commutative union of per-word contributions, so schemas can be
//! maintained as data trickles in rather than re-inferred from scratch.
//! This crate turns that property into a long-lived service. Clients POST
//! documents into named **schema sessions** — isolated tenants, each a
//! warm [`EngineState`](dtdinfer_engine::EngineState) — and read back the
//! current DTD/XSD, validate documents against it, or subscribe to an SSE
//! stream of **schema-drift events** (each ingest classified
//! equal/stricter/looser/incomparable by the DFA-based schema diff).
//!
//! The daemon is std-only like the rest of the workspace: a hand-rolled
//! HTTP/1.1 codec ([`http`]), a blocking accept loop feeding a bounded
//! connection queue (load-shedding with 503 when full), and a small fixed
//! worker pool. Durability is snapshot + journal per session
//! ([`dtdinfer_engine::journal`]): every acknowledged ingest is journaled
//! before it is absorbed, so `kill -9` loses nothing; graceful shutdown
//! (SIGINT/SIGTERM or `POST /shutdown`) additionally compacts every dirty
//! session.
//!
//! ## API
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /sessions/{name}/ingest` | absorb one document (or NDXML batch with `?mode=ndxml`); creates the session |
//! | `GET /sessions/{name}/dtd` | current inferred DTD |
//! | `GET /sessions/{name}/xsd` | current schema as XSD |
//! | `POST /sessions/{name}/validate` | validate body against current schema (JSON witnesses) |
//! | `GET /sessions/{name}/events` | SSE drift events |
//! | `GET /sessions` | list sessions |
//! | `DELETE /sessions/{name}` | drop a session and its files |
//! | `GET /metrics` | OpenMetrics exposition (per-route/status-class labeled series) |
//! | `GET /healthz` | liveness |
//! | `GET /debug/flight` | flight-recorder ring (recent requests, spans, lifecycle) |
//! | `GET /debug/timeseries` | live sampled metrics history |
//! | `GET /debug/profile?ms=N` | on-demand critical-path profile over an N ms trace window |
//! | `POST /shutdown` | graceful shutdown |
//!
//! ## Request-scoped telemetry
//!
//! Every request gets a monotonic id and is recorded three ways: labeled
//! metric series (`serve.http.requests{route,status_class}` plus latency
//! and body-size histograms, labeled by route *template* so hostile paths
//! cannot explode label cardinality), one JSON access-log line (behind
//! `--access-log <path|->`), and an entry in the flight recorder — a
//! bounded ring that a panic hook and the graceful-shutdown path dump to
//! `<data-dir>/flight-<pid>.json`, so a crash leaves the last N requests
//! behind as evidence.

#![warn(missing_docs)]

pub mod http;
pub mod session;

use http::{clean_text, read_request, write_response, Request, RequestError, Response};
use session::{ingest_json, parse_check, split_batch, valid_name, validation_json, Session};

use dtdinfer_obs::json::{write_key, write_string};
use dtdinfer_obs::timeseries::{Sampler, SamplerConfig};
use dtdinfer_xml::infer::InferenceEngine;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything `run` needs to know, with defaults a quickstart can keep.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:7700`. Port 0 picks a free port.
    pub addr: String,
    /// Directory holding per-session `<name>.snap` / `<name>.journal`.
    pub data_dir: PathBuf,
    /// Learner used to derive schemas (shared by every session).
    pub engine: InferenceEngine,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission: maximum live sessions (429 past this).
    pub max_sessions: usize,
    /// Admission: maximum request body bytes (413 past this).
    pub max_body_bytes: usize,
    /// Admission: maximum on-disk bytes per session (413 past this).
    pub max_session_bytes: u64,
    /// Journal size that triggers compaction (see `Store::wants_compaction`).
    pub compact_min_bytes: u64,
    /// Bounded connection queue depth (503 when full).
    pub queue_depth: usize,
    /// Structured JSON access log destination (`-` for stdout, `None`
    /// for no access log). One JSON object per line per request.
    pub access_log: Option<PathBuf>,
    /// Flight-recorder ring capacity: how many recent events survive
    /// into a crash dump (0 selects the recorder's default).
    pub flight_capacity: usize,
    /// Enables `POST /debug/panic`, a controlled crash drill that panics
    /// the handling worker so CI can verify the flight dump. Off by
    /// default — never enable it on an exposed address.
    pub debug_panic: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7700".to_owned(),
            data_dir: PathBuf::from("dtdinfer-data"),
            engine: InferenceEngine::Idtd,
            workers: 4,
            max_sessions: 64,
            max_body_bytes: 8 * 1024 * 1024,
            max_session_bytes: 256 * 1024 * 1024,
            compact_min_bytes: 64 * 1024,
            queue_depth: 64,
            access_log: None,
            flight_capacity: 256,
            debug_panic: false,
        }
    }
}

/// State shared by the accept loop and every worker.
struct Shared {
    config: ServeConfig,
    sessions: Mutex<BTreeMap<String, Arc<Mutex<Session>>>>,
    /// Set by `POST /shutdown`; OS signals set [`signals::SIGNALED`].
    shutdown: AtomicBool,
    /// Queued connections with their enqueue time, so the accept-queue
    /// wait is measurable per request.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    /// Source of monotonic request ids (first request is 1).
    next_request_id: AtomicU64,
    /// Structured access-log sink; every line is flushed so `kill -9`
    /// keeps what was acknowledged.
    access_log: Option<Mutex<Box<dyn Write + Send>>>,
    /// Always-on background metrics sampler backing `GET /debug/timeseries`.
    sampler: Sampler,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signals::signaled()
    }
}

/// How often the shutdown watcher looks at the shutdown flags.
const SHUTDOWN_POLL: Duration = Duration::from_millis(20);

/// Starts the thread that wakes the blocking accept loop for shutdown:
/// it looks at both shutdown triggers every [`SHUTDOWN_POLL`] and, once
/// one fired, connects to the listener so `accept` returns and the loop
/// sees the flag. A daemon bound to an unspecified address is reached
/// over loopback.
fn spawn_shutdown_watcher(shared: &Arc<Shared>, bound: SocketAddr) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let mut wake = bound;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    std::thread::spawn(move || {
        while !shared.shutting_down() {
            std::thread::sleep(SHUTDOWN_POLL);
        }
        if let Err(e) = TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
            eprintln!("dtdinfer serve: waking the accept loop via {wake}: {e}");
        }
    })
}

/// OS signal plumbing: SIGINT/SIGTERM flip one process-global flag the
/// shutdown watcher polls. Registered through the C `signal` symbol directly —
/// the workspace links libc through std anyway and takes no new crates.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the SIGINT/SIGTERM handlers (idempotent).
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn signaled() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    /// No signal handling off unix; Ctrl-C terminates the process and the
    /// journal makes that safe.
    pub fn install() {}
    /// Always false off unix.
    pub fn signaled() -> bool {
        false
    }
}

/// Boots the daemon and blocks until shutdown. Returns the human-readable
/// reason it stopped, or an error if it could not start. `on_ready` gets
/// the actually-bound address before the first connection is accepted
/// (the CLI logs it; tests bind port 0 and need the real port).
pub fn run(config: ServeConfig, on_ready: impl FnOnce(&str)) -> Result<String, String> {
    std::fs::create_dir_all(&config.data_dir)
        .map_err(|e| format!("{}: {e}", config.data_dir.display()))?;
    // The service is its own monitoring substrate: /metrics must work even
    // when the CLI did not pass --metrics, and the flight recorder must be
    // live before the first request so a crash always leaves evidence.
    dtdinfer_obs::enable(true, dtdinfer_obs::trace_enabled());
    dtdinfer_obs::flightrec::enable(config.flight_capacity);
    dtdinfer_obs::flightrec::install_panic_hook(config.data_dir.clone());
    publish_build_info();
    let access_log = open_access_log(config.access_log.as_deref())?;
    let listener = TcpListener::bind(&config.addr).map_err(|e| format!("{}: {e}", config.addr))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    let local = bound.to_string();
    signals::install();

    let shared = Arc::new(Shared {
        sessions: Mutex::new(BTreeMap::new()),
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        next_request_id: AtomicU64::new(0),
        access_log,
        // One point per second, ten minutes of history; the watch list is
        // empty because a daemon legitimately idles between requests.
        sampler: dtdinfer_obs::timeseries::start(SamplerConfig {
            interval: Duration::from_secs(1),
            capacity: 600,
            watch: Vec::new(),
            stall_after: 20,
            warn_on_stall: false,
        }),
        config,
    });
    recover_sessions(&shared)?;
    dtdinfer_obs::flightrec::record("lifecycle", &format!("serve listening on {local}"));
    on_ready(&local);

    let workers: Vec<_> = (0..shared.config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    // Accept loop: block in `accept`; the watcher's connection wakes it
    // for shutdown, so the flag is checked after every accept.
    let watcher = spawn_shutdown_watcher(&shared, bound);
    loop {
        let accepted = listener.accept();
        if shared.shutting_down() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                dtdinfer_obs::count("serve.http.accepted", 1);
                let mut queue = shared.queue.lock().expect("queue lock");
                if queue.len() >= shared.config.queue_depth {
                    drop(queue);
                    // Load shedding: tell the client to back off instead of
                    // queueing unboundedly.
                    shed(stream);
                } else {
                    queue.push_back((stream, Instant::now()));
                    drop(queue);
                    shared.queue_cv.notify_one();
                }
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    let _ = watcher.join();
    // Take the queue lock before notifying, so a worker between its flag
    // check and its wait cannot miss the wakeup.
    drop(shared.queue.lock().expect("queue lock"));
    shared.queue_cv.notify_all();
    for worker in workers {
        let _ = worker.join();
    }
    let flushed = flush_all(&shared);
    // Both exit paths — POST /shutdown and SIGINT/SIGTERM — land here, so
    // a terminated daemon leaves the same flight dump a panicking one
    // would.
    dtdinfer_obs::flightrec::record("lifecycle", "serve shutting down");
    if let Err(e) = dtdinfer_obs::flightrec::dump_to_dir(&shared.config.data_dir) {
        eprintln!("dtdinfer serve: flight dump failed: {e}");
    }
    Ok(format!("shutdown: {} session(s) flushed", flushed))
}

/// Opens the access-log sink: `-` is stdout, anything else appends to the
/// file (created if missing).
fn open_access_log(path: Option<&Path>) -> Result<Option<Mutex<Box<dyn Write + Send>>>, String> {
    let Some(path) = path else { return Ok(None) };
    let sink: Box<dyn Write + Send> = if path.as_os_str() == "-" {
        Box::new(std::io::stdout())
    } else {
        Box::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("access log {}: {e}", path.display()))?,
        )
    };
    Ok(Some(Mutex::new(sink)))
}

/// The conventional `dtdinfer_build_info{version="…"} 1` gauge, published
/// once at startup so every scrape identifies the running build.
fn publish_build_info() {
    dtdinfer_obs::gauge_with(
        "dtdinfer.build_info",
        &[("version", env!("CARGO_PKG_VERSION"))],
        1,
    );
}

/// Re-publishes the session-count gauge. Call wherever session-map
/// membership changes (recovery, first ingest, delete) with the map
/// locked, so the gauge never races the change it reports.
fn publish_session_gauges(sessions: &BTreeMap<String, Arc<Mutex<Session>>>) {
    dtdinfer_obs::gauge("serve.sessions", sessions.len() as u64);
}

/// Writes a one-line 503 to a connection the queue has no room for.
fn shed(mut stream: TcpStream) {
    dtdinfer_obs::count("serve.http.shed", 1);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = write_response(
        &mut stream,
        &Response::error(503, "connection queue full, retry later"),
    );
}

/// Reopens every session whose snapshot or journal survives in the data
/// dir, replaying journals (this is the restart-recovery path).
fn recover_sessions(shared: &Shared) -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    let entries = std::fs::read_dir(&shared.config.data_dir)
        .map_err(|e| format!("{}: {e}", shared.config.data_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let (Some(stem), Some(ext)) = (
            path.file_stem().and_then(|s| s.to_str()),
            path.extension().and_then(|s| s.to_str()),
        ) else {
            continue;
        };
        if (ext == "snap" || ext == "journal")
            && valid_name(stem)
            && !names.iter().any(|n| n == stem)
        {
            names.push(stem.to_owned());
        }
    }
    let mut sessions = shared.sessions.lock().expect("sessions lock");
    for name in names {
        let (session, replayed) =
            Session::open(&shared.config.data_dir, &name, shared.config.engine)
                .map_err(|e| format!("recovering session {name:?}: {e}"))?;
        dtdinfer_obs::count("serve.session.recovered", 1);
        if replayed > 0 {
            dtdinfer_obs::count("serve.session.replayed_records", replayed);
        }
        sessions.insert(name, Arc::new(Mutex::new(session)));
    }
    publish_session_gauges(&sessions);
    Ok(())
}

/// Compacts every dirty session (graceful-shutdown flush). Returns how
/// many sessions were written.
fn flush_all(shared: &Shared) -> u64 {
    let sessions = shared.sessions.lock().expect("sessions lock");
    let mut flushed = 0;
    for (name, session) in sessions.iter() {
        let mut session = session.lock().expect("session lock");
        match session.flush() {
            Ok(true) => flushed += 1,
            Ok(false) => {}
            Err(e) => eprintln!("dtdinfer serve: flushing session {name:?}: {e}"),
        }
        // Tell subscribers the stream is over before the socket drops.
        session.broadcast("event: shutdown\ndata: {}\n\n");
    }
    flushed
}

/// One worker: pop connections until shutdown and the queue is drained.
fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.shutting_down() {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock");
                queue = guard;
            }
        };
        let Some((mut stream, enqueued)) = stream else {
            return;
        };
        let queue_wait_ns = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        dtdinfer_obs::observe("serve.http.queue_wait_ns", queue_wait_ns);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        handle_connection(shared, &mut stream, queue_wait_ns);
    }
}

/// Everything the access log and the labeled metrics need to know about
/// one finished request.
struct RequestRecord {
    id: u64,
    method: String,
    path: String,
    /// Route template from the fixed routing table (`/sessions/{name}/…`)
    /// — never the raw path, so label cardinality stays bounded.
    template: &'static str,
    session: Option<String>,
    status: u16,
    bytes_in: u64,
    bytes_out: u64,
    queue_wait_ns: u64,
}

/// The status-class label value (`2xx` … `5xx`).
fn status_class(status: u16) -> &'static str {
    match status / 100 {
        1 => "1xx",
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        5 => "5xx",
        _ => "other",
    }
}

/// Publishes one finished request everywhere it is observed: labeled
/// metric series, the structured access log, and the flight recorder.
fn finish(shared: &Shared, record: &RequestRecord, started: Instant) {
    let duration_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let class = status_class(record.status);
    let labels = [("route", record.template), ("status_class", class)];
    dtdinfer_obs::count_with("serve.http.requests", &labels, 1);
    dtdinfer_obs::observe_with("serve.http.request_ns", &labels, duration_ns);
    let route_only = [("route", record.template)];
    dtdinfer_obs::observe_with("serve.http.bytes_in", &route_only, record.bytes_in);
    dtdinfer_obs::observe_with("serve.http.bytes_out", &route_only, record.bytes_out);
    dtdinfer_obs::count_labeled("serve.http.status", &record.status.to_string(), 1);
    let line = access_line(record, duration_ns);
    dtdinfer_obs::flightrec::record("access", &line);
    if let Some(log) = &shared.access_log {
        let mut log = log.lock().expect("access log lock");
        let _ = writeln!(log, "{line}");
        let _ = log.flush();
    }
}

/// One access-log line: a single JSON object (see README for the field
/// table). The raw path is sanitized; the route template is from the
/// routing table and needs no escaping beyond JSON's.
fn access_line(record: &RequestRecord, duration_ns: u64) -> String {
    let mut out = String::from("{");
    write_key(&mut out, "ts_ms");
    out.push_str(&dtdinfer_obs::flightrec::now_unix_ms().to_string());
    out.push(',');
    write_key(&mut out, "id");
    out.push_str(&record.id.to_string());
    out.push(',');
    write_key(&mut out, "method");
    write_string(&mut out, &clean_text(&record.method));
    out.push(',');
    write_key(&mut out, "route");
    write_string(&mut out, record.template);
    out.push(',');
    write_key(&mut out, "path");
    write_string(&mut out, &clean_text(&record.path));
    out.push(',');
    write_key(&mut out, "status");
    out.push_str(&record.status.to_string());
    out.push(',');
    write_key(&mut out, "bytes_in");
    out.push_str(&record.bytes_in.to_string());
    out.push(',');
    write_key(&mut out, "bytes_out");
    out.push_str(&record.bytes_out.to_string());
    out.push(',');
    write_key(&mut out, "duration_us");
    out.push_str(&(duration_ns / 1_000).to_string());
    out.push(',');
    write_key(&mut out, "queue_wait_us");
    out.push_str(&(record.queue_wait_ns / 1_000).to_string());
    out.push(',');
    write_key(&mut out, "session");
    match &record.session {
        Some(name) => write_string(&mut out, name),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// Reads one request, routes it, writes the response, and records the
/// whole exchange (labeled metrics + access log + flight ring). SSE
/// subscriptions adopt the stream and are recorded as status 200 with
/// zero response bytes.
fn handle_connection(shared: &Shared, stream: &mut TcpStream, queue_wait_ns: u64) {
    let id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    let started = Instant::now();
    let _request_span = dtdinfer_obs::span("serve.request");
    let request = match read_request(stream, shared.config.max_body_bytes) {
        Ok(request) => request,
        Err(e) => {
            let response = match e {
                RequestError::Io(_) => {
                    // Client went away before sending a request; nothing
                    // to say and nothing worth an access-log line.
                    dtdinfer_obs::count("serve.http.aborted", 1);
                    return;
                }
                RequestError::Malformed(m) => Response::error(400, &m),
                RequestError::TooLarge {
                    declared,
                    remaining,
                } => {
                    dtdinfer_obs::count("serve.admission.body_bytes", 1);
                    http::drain(stream, remaining);
                    Response::error(
                        413,
                        &format!(
                            "body of {declared} byte(s) exceeds the {}-byte limit",
                            shared.config.max_body_bytes
                        ),
                    )
                }
                RequestError::Unsupported(what) => {
                    Response::error(501, &format!("{what} is not supported"))
                }
            };
            let record = RequestRecord {
                id,
                method: "-".to_owned(),
                path: "-".to_owned(),
                template: "{unparsed}",
                session: None,
                status: response.status,
                bytes_in: 0,
                bytes_out: response.body.len() as u64,
                queue_wait_ns,
            };
            let _ = write_response(stream, &response);
            finish(shared, &record, started);
            return;
        }
    };
    let bytes_in = request.body.len() as u64;
    let (routed, info) = route(shared, &request, stream);
    let (status, bytes_out) = match &routed {
        Routed::Response(response) => (response.status, response.body.len() as u64),
        Routed::Streaming => (200, 0),
    };
    if let Routed::Response(response) = &routed {
        let _ = write_response(stream, response);
    }
    let record = RequestRecord {
        id,
        method: request.method.clone(),
        path: request.path.clone(),
        template: info.template,
        session: info.session,
        status,
        bytes_in,
        bytes_out,
        queue_wait_ns,
    };
    finish(shared, &record, started);
}

/// What routing did with the connection.
enum Routed {
    /// Normal request/response.
    Response(Response),
    /// The socket was adopted as an SSE subscriber.
    Streaming,
}

/// What routing resolved for telemetry: the route template from the
/// fixed routing table, and the tenant when the route names one.
struct RouteInfo {
    template: &'static str,
    session: Option<String>,
}

/// Dispatches one request. `stream` is only touched by the SSE path.
fn route(shared: &Shared, req: &Request, stream: &mut TcpStream) -> (Routed, RouteInfo) {
    let path_parts: Vec<&str> = req.path.split('/').filter(|p| !p.is_empty()).collect();
    let method = req.method.as_str();
    // Every arm pins its template so metrics and the access log label by
    // the route shape, never the raw (attacker-controlled) path.
    let (response, template, session): (Response, &'static str, Option<String>) =
        match (method, path_parts.as_slice()) {
            ("GET", ["healthz"]) => (Response::text(200, "ok\n"), "/healthz", None),
            ("GET", ["metrics"]) => (
                Response {
                    status: 200,
                    content_type: "application/openmetrics-text; version=1.0.0; charset=utf-8",
                    body: dtdinfer_obs::openmetrics::openmetrics(&dtdinfer_obs::snapshot())
                        .into_bytes(),
                },
                "/metrics",
                None,
            ),
            ("POST", ["shutdown"]) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                (
                    Response::json(200, "{\"shutting_down\":true}"),
                    "/shutdown",
                    None,
                )
            }
            ("GET", ["debug", "flight"]) => (
                Response::json(200, dtdinfer_obs::flightrec::snapshot().json()),
                "/debug/flight",
                None,
            ),
            ("GET", ["debug", "timeseries"]) => (
                Response::json(200, shared.sampler.peek().json()),
                "/debug/timeseries",
                None,
            ),
            ("GET", ["debug", "profile"]) => (debug_profile(req), "/debug/profile", None),
            ("POST", ["debug", "panic"]) if shared.config.debug_panic => {
                // Controlled crash drill (CI): unwinds this worker; the
                // panic hook dumps the flight ring on the way out.
                dtdinfer_obs::flightrec::record("lifecycle", "panic drill requested");
                panic!("panic drill requested via POST /debug/panic");
            }
            ("GET", ["sessions"]) => (list_sessions(shared), "/sessions", None),
            (_, ["sessions", name, ..]) if !valid_name(name) => (
                Response::error(
                    404,
                    &format!("invalid session name \"{}\"", clean_text(name)),
                ),
                "/sessions/{name}",
                None,
            ),
            ("POST", ["sessions", name, "ingest"]) => (
                ingest(shared, req, name),
                "/sessions/{name}/ingest",
                Some((*name).to_owned()),
            ),
            ("GET", ["sessions", name, "dtd"]) => (
                with_session(shared, name, |s| Response::text(200, s.dtd().serialize())),
                "/sessions/{name}/dtd",
                Some((*name).to_owned()),
            ),
            ("GET", ["sessions", name, "xsd"]) => (
                with_session(shared, name, |s| Response::text(200, s.xsd())),
                "/sessions/{name}/xsd",
                Some((*name).to_owned()),
            ),
            ("POST", ["sessions", name, "validate"]) => (
                validate(shared, req, name),
                "/sessions/{name}/validate",
                Some((*name).to_owned()),
            ),
            ("GET", ["sessions", name, "events"]) => {
                return (
                    subscribe(shared, name, stream),
                    RouteInfo {
                        template: "/sessions/{name}/events",
                        session: Some((*name).to_owned()),
                    },
                );
            }
            ("DELETE", ["sessions", name]) => (
                delete_session(shared, name),
                "/sessions/{name}",
                Some((*name).to_owned()),
            ),
            (_, ["sessions", ..]) => (
                Response::error(405, "method not allowed on this route"),
                "/sessions/{name}",
                None,
            ),
            _ => (
                Response::error(
                    404,
                    &format!(
                        "no route for {} {}",
                        clean_text(method),
                        clean_text(&req.path)
                    ),
                ),
                "{unmatched}",
                None,
            ),
        };
    (Routed::Response(response), RouteInfo { template, session })
}

/// `GET /debug/profile?ms=N` — on-demand critical-path profile. The trace
/// recorder is unbounded, so a daemon cannot leave tracing on forever;
/// instead this handler turns tracing on for a bounded window (default
/// 250 ms, clamped to 10..=5000), takes whatever spans the window caught,
/// and renders their critical path and per-phase stats. Concurrent
/// profile windows steal each other's spans — best-effort by design.
fn debug_profile(req: &Request) -> Response {
    let ms = req
        .query_param("ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(250)
        .clamp(10, 5_000);
    let was_tracing = dtdinfer_obs::trace_enabled();
    if !was_tracing {
        dtdinfer_obs::enable(true, true);
        // Drop anything recorded before this window opened.
        let _ = dtdinfer_obs::take_trace();
    }
    std::thread::sleep(Duration::from_millis(ms));
    let trace = dtdinfer_obs::take_trace();
    if !was_tracing {
        dtdinfer_obs::enable(true, false);
    }
    let forest = dtdinfer_obs::profile::build_forest(&trace);
    let body = format!(
        "{{\"window_ms\":{ms},\"spans\":{},\"profile\":{}}}",
        trace.len(),
        dtdinfer_obs::profile::profile_json(&forest)
    );
    Response::json(200, body)
}

/// Runs `f` on the named session, or 404s.
fn with_session(shared: &Shared, name: &str, f: impl FnOnce(&mut Session) -> Response) -> Response {
    let session = {
        let sessions = shared.sessions.lock().expect("sessions lock");
        sessions.get(name).cloned()
    };
    match session {
        Some(session) => f(&mut session.lock().expect("session lock")),
        None => Response::error(404, &format!("no session \"{}\"", clean_text(name))),
    }
}

fn list_sessions(shared: &Shared) -> Response {
    let sessions = shared.sessions.lock().expect("sessions lock");
    let mut body = String::from("{\"sessions\":[");
    for (i, session) in sessions.values().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&session.lock().expect("session lock").describe());
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn delete_session(shared: &Shared, name: &str) -> Response {
    let removed = {
        let mut sessions = shared.sessions.lock().expect("sessions lock");
        let removed = sessions.remove(name);
        publish_session_gauges(&sessions);
        removed
    };
    match removed {
        Some(session) => {
            let mut session = session.lock().expect("session lock");
            session.broadcast("event: deleted\ndata: {}\n\n");
            session.subscribers.clear();
            match session.store.remove() {
                Ok(()) => Response::json(200, "{\"deleted\":true}"),
                Err(e) => Response::error(500, &e),
            }
        }
        None => Response::error(404, &format!("no session \"{}\"", clean_text(name))),
    }
}

/// `POST /sessions/{name}/ingest` — the write path. Creates the session
/// on first use (admission: session count), checks every document parses
/// (400), checks disk caps (413), then journals + absorbs + classifies.
fn ingest(shared: &Shared, req: &Request, name: &str) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let docs = split_batch(req, body);
    if docs.is_empty() {
        return Response::error(400, "no documents in request body");
    }
    for (i, doc) in docs.iter().enumerate() {
        if let Err(e) = parse_check(doc) {
            return Response::error(400, &format!("document {} does not parse: {e}", i + 1));
        }
    }
    let session = {
        let mut sessions = shared.sessions.lock().expect("sessions lock");
        match sessions.get(name) {
            Some(session) => Arc::clone(session),
            None => {
                if sessions.len() >= shared.config.max_sessions {
                    dtdinfer_obs::count("serve.admission.session_limit", 1);
                    return Response::error(
                        429,
                        &format!("session limit of {} reached", shared.config.max_sessions),
                    );
                }
                let opened = Session::open(&shared.config.data_dir, name, shared.config.engine);
                match opened {
                    Ok((session, _)) => {
                        let session = Arc::new(Mutex::new(session));
                        sessions.insert(name.to_owned(), Arc::clone(&session));
                        publish_session_gauges(&sessions);
                        session
                    }
                    Err(e) => return Response::error(500, &e),
                }
            }
        }
    };
    let mut session = session.lock().expect("session lock");
    if session.store.disk_bytes() + req.body.len() as u64 > shared.config.max_session_bytes {
        dtdinfer_obs::count("serve.admission.session_bytes", 1);
        return Response::error(
            413,
            &format!(
                "session {name:?} would exceed its {}-byte disk cap",
                shared.config.max_session_bytes
            ),
        );
    }
    let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    match session.ingest(&doc_refs, shared.config.compact_min_bytes) {
        Ok(outcome) => {
            dtdinfer_obs::count("serve.ingest.documents", outcome.ingested);
            Response::json(
                200,
                ingest_json(&session.name, &outcome, session.state.num_documents),
            )
        }
        Err(e) => Response::error(500, &e),
    }
}

/// `POST /sessions/{name}/validate` — validates the body against the
/// session's current schema; shares its serializer with
/// `dtdinfer validate --format json`.
fn validate(shared: &Shared, req: &Request, name: &str) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let body = body.to_owned();
    with_session(shared, name, move |session| {
        if session.state.num_documents == 0 {
            return Response::error(409, "session has no documents yet");
        }
        match session.dtd().validate_structured(&body) {
            Ok(violations) => Response::json(200, validation_json(&violations)),
            Err(e) => Response::error(400, &format!("document does not parse: {e}")),
        }
    })
}

/// `GET /sessions/{name}/events` — writes the SSE preamble and hands the
/// socket to the session's subscriber list.
fn subscribe(shared: &Shared, name: &str, stream: &mut TcpStream) -> Routed {
    let session = {
        let sessions = shared.sessions.lock().expect("sessions lock");
        sessions.get(name).cloned()
    };
    let Some(session) = session else {
        return Routed::Response(Response::error(
            404,
            &format!("no session \"{}\"", clean_text(name)),
        ));
    };
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-store\r\n\
         Connection: keep-alive\r\n\r\n: subscribed to session {name}\n\n"
    );
    let Ok(adopted) = stream.try_clone() else {
        return Routed::Response(Response::error(500, "could not retain event stream"));
    };
    // Greet and register under one session lock. Broadcasts also hold it,
    // so a concurrent ingest either lands wholly before the greeting (the
    // client has not seen the subscription yet, so it cannot have sent
    // the document that triggered it) or after the subscriber is listed —
    // the greeting can never race ahead of registration and lose the
    // first drift event.
    let mut session = session.lock().expect("session lock");
    if stream.write_all(head.as_bytes()).is_err() {
        return Routed::Streaming; // client vanished; nothing to keep
    }
    session.subscribe(adopted);
    Routed::Streaming
}
