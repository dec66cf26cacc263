//! End-to-end exercises of the daemon over real sockets: a server per
//! test on an ephemeral port, raw HTTP/1.1 from a hand-rolled client.
//!
//! The crash-recovery test simulates `kill -9` by copying the session's
//! on-disk snapshot + journal *without* any shutdown/flush (exactly the
//! bytes a killed process leaves behind) and booting a second daemon on
//! the copy.

use dtdinfer_serve::{run, ServeConfig};
use dtdinfer_xml::infer::InferenceEngine;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// The flight ring and the panic hook are process-wide, and the tests of
/// this binary share its CPUs. A test that times the daemon or looks for
/// one event in the ring runs alone ([`exclusive`]): a sibling's requests
/// could otherwise push that event out of the ring, or its load stretch
/// the timing. Every other test holds [`shared`].
static RUNNING: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    RUNNING.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    RUNNING.write().unwrap_or_else(PoisonError::into_inner)
}

struct Server {
    addr: String,
    #[allow(dead_code)]
    thread: std::thread::JoinHandle<Result<String, String>>,
}

fn boot(data_dir: &Path, tweak: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: data_dir.to_owned(),
        engine: InferenceEngine::Idtd,
        workers: 2,
        ..ServeConfig::default()
    };
    tweak(&mut config);
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        run(config, move |addr| {
            tx.send(addr.to_owned()).expect("report addr");
        })
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server came up");
    Server { addr, thread }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtdinfer-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One request, one response: returns (status, body).
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: &str, path: &str) -> (u16, String) {
    request(addr, "GET", path, "")
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    request(addr, "POST", path, body)
}

fn corpus() -> Vec<String> {
    (0..10)
        .map(|i| match i % 3 {
            0 => format!("<cat><book id=\"b{i}\"><title>t</title></book></cat>"),
            1 => "<cat><book><title>t</title><author>a</author></book></cat>".to_owned(),
            _ => "<cat><book><title>t</title></book><book><title>u</title></book></cat>".to_owned(),
        })
        .collect()
}

#[test]
fn ingest_then_dtd_matches_sequential_inference() {
    let _running = shared();
    let dir = scratch("dtd");
    let server = boot(&dir, |_| {});
    for doc in corpus() {
        let (status, body) = post(&server.addr, "/sessions/cat/ingest", &doc);
        assert_eq!(status, 200, "{body}");
    }
    let (status, served) = get(&server.addr, "/sessions/cat/dtd");
    assert_eq!(status, 200);
    // The reference: the same corpus through the engine directly.
    let mut state = dtdinfer_engine::EngineState::new();
    for doc in corpus() {
        state.absorb_document(&doc).unwrap();
    }
    let (dtd, _) = state.derive(InferenceEngine::Idtd);
    assert_eq!(served, dtd.serialize());
    // XSD endpoint renders too.
    let (status, xsd) = get(&server.addr, "/sessions/cat/xsd");
    assert_eq!(status, 200);
    assert!(xsd.contains("xs:schema"), "{xsd}");
    post(&server.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
}

/// A small seeded generator (xorshift64*), so the random ingest sequence
/// below is the same on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// Record types of the random ingest sequence; each document touches one.
const RECORDS: [&str; 6] = ["m", "c", "p", "t", "e", "r"];
/// Leaf names, released a few at a time so the alphabet grows midway
/// while most record types sit untouched.
const LEAVES: [&str; 8] = ["x", "b", "y", "a", "z", "k", "n", "d"];

/// One random document: a `feed` root over one record whose children
/// are drawn from `leaves`, some with an attribute value or text.
fn random_document(rng: &mut Rng, leaves: &[&str]) -> String {
    let record = RECORDS[rng.below(RECORDS.len() as u64) as usize];
    let mut doc = format!("<feed><{record}>");
    for _ in 0..=rng.below(3) {
        let leaf = leaves[rng.below(leaves.len() as u64) as usize];
        match rng.below(3) {
            0 => doc.push_str(&format!("<{leaf}/>")),
            1 => doc.push_str(&format!("<{leaf} k=\"v{}\"/>", rng.below(3))),
            _ => doc.push_str(&format!("<{leaf}>t</{leaf}>")),
        }
    }
    doc.push_str(&format!("</{record}></feed>"));
    doc
}

/// Every ingest reply of a seeded random sequence (batches of one to
/// three documents, new names arriving as it goes) equals the reply
/// computed from two cold derivations, and the served DTD ends equal to
/// a cold derive: the session's warm derivation is invisible on the wire.
#[test]
fn random_ingest_replies_match_cold_derivations() {
    let _running = shared();
    use dtdinfer_serve::session::{classify_drift, ingest_json, IngestOutcome};
    use dtdinfer_xml::diff::{diff, Relation};
    let dir = scratch("random");
    let server = boot(&dir, |c| c.engine = InferenceEngine::Auto);
    let mut rng = Rng(0x5EED_1234_ABCD_0001);
    let mut state = dtdinfer_engine::EngineState::new();
    let mut before = state.derive(InferenceEngine::Auto).0;
    for seq in 1..=48u64 {
        let leaves = &LEAVES[..(3 + seq as usize / 8).min(LEAVES.len())];
        let batch: Vec<String> = (0..=rng.below(3))
            .map(|_| random_document(&mut rng, leaves))
            .collect();
        let (status, reply) = post(
            &server.addr,
            "/sessions/r/ingest?mode=ndxml",
            &batch.join("\n"),
        );
        assert_eq!(status, 200, "{reply}");
        for doc in &batch {
            state.absorb_document(doc).unwrap();
        }
        let after = state.derive(InferenceEngine::Auto).0;
        let diffs = diff(&before, &after);
        let outcome = IngestOutcome {
            ingested: batch.len() as u64,
            relation: classify_drift(&diffs),
            changed: diffs
                .into_iter()
                .filter(|d| d.relation != Relation::Equal)
                .collect(),
            seq,
        };
        assert_eq!(
            reply,
            ingest_json("r", &outcome, state.num_documents),
            "ingest {seq}"
        );
        before = after;
    }
    let (status, served) = get(&server.addr, "/sessions/r/dtd");
    assert_eq!(status, 200);
    assert_eq!(served, before.serialize());
    post(&server.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
}

/// With nothing in flight, the daemon is gone within 100 ms of the reply
/// to `POST /shutdown`: the blocking accept is woken, not polled.
#[test]
fn idle_daemon_stops_promptly_after_shutdown_request() {
    let _running = exclusive();
    let dir = scratch("idle-stop");
    let server = boot(&dir, |_| {});
    std::thread::sleep(Duration::from_millis(200));
    let (status, _) = post(&server.addr, "/shutdown", "");
    assert_eq!(status, 200);
    let replied = std::time::Instant::now();
    server.thread.join().unwrap().unwrap();
    let took = replied.elapsed();
    assert!(took < Duration::from_millis(100), "stopped after {took:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ndxml_batch_ingest_and_listing() {
    let _running = shared();
    let dir = scratch("batch");
    let server = boot(&dir, |_| {});
    let batch = corpus().join("\n");
    let (status, body) = post(&server.addr, "/sessions/b/ingest?mode=ndxml", &batch);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ingested\":10"), "{body}");
    let (status, listing) = get(&server.addr, "/sessions");
    assert_eq!(status, 200);
    assert!(listing.contains("\"name\":\"b\""), "{listing}");
    assert!(listing.contains("\"documents\":10"), "{listing}");
    // Deleting removes the session and its files.
    let (status, _) = request(&server.addr, "DELETE", "/sessions/b", "");
    assert_eq!(status, 200);
    let (status, _) = get(&server.addr, "/sessions/b/dtd");
    assert_eq!(status, 404);
    assert!(!dir.join("b.snap").exists() && !dir.join("b.journal").exists());
    post(&server.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_recovery_reproduces_schema_without_reingesting() {
    let _running = shared();
    let dir = scratch("crash");
    let server = boot(&dir, |_| {});
    for doc in corpus() {
        post(&server.addr, "/sessions/s/ingest", &doc);
    }
    let (_, before) = get(&server.addr, "/sessions/s/dtd");
    // "kill -9": copy the on-disk bytes as-is — no flush, no shutdown —
    // and boot a fresh daemon on the copy.
    let crash_dir = scratch("crash-copy");
    for f in ["s.snap", "s.journal"] {
        if dir.join(f).exists() {
            std::fs::copy(dir.join(f), crash_dir.join(f)).unwrap();
        }
    }
    let revived = boot(&crash_dir, |_| {});
    let (status, after) = get(&revived.addr, "/sessions/s/dtd");
    assert_eq!(status, 200);
    assert_eq!(after, before, "recovered schema differs");
    // The revived session keeps absorbing.
    let (status, _) = post(
        &revived.addr,
        "/sessions/s/ingest",
        "<cat><book><title>t</title></book></cat>",
    );
    assert_eq!(status, 200);
    post(&server.addr, "/shutdown", "");
    post(&revived.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

#[test]
fn graceful_shutdown_flushes_dirty_sessions() {
    let _running = shared();
    let dir = scratch("flush");
    let server = boot(&dir, |c| c.compact_min_bytes = u64::MAX); // never auto-compact
    for doc in corpus().iter().take(3) {
        post(&server.addr, "/sessions/f/ingest", doc);
    }
    let (_, before) = get(&server.addr, "/sessions/f/dtd");
    let (status, _) = post(&server.addr, "/shutdown", "");
    assert_eq!(status, 200);
    let outcome = server.thread.join().unwrap().unwrap();
    assert!(outcome.contains("1 session(s) flushed"), "{outcome}");
    // The flush compacted: snapshot holds everything, journal is empty.
    let snap = std::fs::read_to_string(dir.join("f.snap")).unwrap();
    assert!(snap.contains("documents 3"), "snapshot missing documents");
    let mut store = dtdinfer_engine::journal::Store::new(&dir, "f");
    let recovered = store.recover().unwrap();
    assert_eq!(recovered.replayed, 0, "journal should be compacted away");
    let (dtd, _) = recovered.state.derive(InferenceEngine::Idtd);
    assert_eq!(dtd.serialize(), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sse_stream_emits_classified_drift_events() {
    let _running = shared();
    let dir = scratch("sse");
    let server = boot(&dir, |_| {});
    // Create the session first (events 404 on unknown sessions).
    post(&server.addr, "/sessions/d/ingest", "<r><a/><b/></r>");
    // Subscribe.
    let mut sub = TcpStream::connect(&server.addr).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    sub.write_all(b"GET /sessions/d/events HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(sub.try_clone().unwrap());
    let mut line = String::new();
    // Read until the subscription greeting comment arrives.
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.starts_with(": subscribed") {
            break;
        }
    }
    // Scripted drift: same shape → equal; drop <b/> → looser (b becomes
    // optional); a brand-new element → looser again.
    let script: &[(&str, &str)] = &[
        ("<r><a/><b/></r>", "\"relation\":\"equal\""),
        ("<r><a/></r>", "\"relation\":\"looser\""),
        ("<r><a/><c/></r>", "\"relation\":\"looser\""),
    ];
    for (doc, want) in script {
        let (status, _) = post(&server.addr, "/sessions/d/ingest", doc);
        assert_eq!(status, 200);
        // Read one SSE frame: event, id, data, blank.
        let mut event = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() && !event.is_empty() {
                break;
            }
            event.push_str(&line);
        }
        assert!(event.contains("event: drift"), "{event}");
        assert!(event.contains(want), "wanted {want} in {event}");
    }
    post(&server.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validate_endpoint_shares_witness_serializer() {
    let _running = shared();
    let dir = scratch("val");
    let server = boot(&dir, |_| {});
    // No session yet → 404; empty session → 409 is unreachable via HTTP
    // (ingest creates), so ingest then validate.
    let (status, _) = post(&server.addr, "/sessions/v/validate", "<r/>");
    assert_eq!(status, 404);
    post(&server.addr, "/sessions/v/ingest", "<r><a/><b/></r>");
    let (status, body) = post(&server.addr, "/sessions/v/validate", "<r><a/><b/></r>");
    assert_eq!(status, 200);
    assert!(body.contains("\"valid\":true"), "{body}");
    let (status, body) = post(&server.addr, "/sessions/v/validate", "<r><b/><a/></r>");
    assert_eq!(status, 200);
    assert!(body.contains("\"valid\":false"), "{body}");
    assert!(body.contains("\"kind\":\"content-model\""), "{body}");
    assert!(body.contains("\"position\":1"), "{body}");
    let (status, body) = post(&server.addr, "/sessions/v/validate", "<r><a/>");
    assert_eq!(status, 400, "unparseable doc: {body}");
    post(&server.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admission_control_and_metrics() {
    let _running = shared();
    let dir = scratch("admit");
    let server = boot(&dir, |c| {
        c.max_sessions = 2;
        c.max_body_bytes = 256;
        c.max_session_bytes = 400;
    });
    // Body cap: 413 before the body is even read.
    let big = format!("<r>{}</r>", "x".repeat(1000));
    let (status, _) = post(&server.addr, "/sessions/a/ingest", &big);
    assert_eq!(status, 413);
    // Session cap: third distinct session is refused.
    assert_eq!(post(&server.addr, "/sessions/a/ingest", "<r/>").0, 200);
    assert_eq!(post(&server.addr, "/sessions/b/ingest", "<r/>").0, 200);
    let (status, body) = post(&server.addr, "/sessions/c/ingest", "<r/>");
    assert_eq!(status, 429, "{body}");
    // Per-session disk cap: keep appending to one session until 413.
    let mut saw_413 = false;
    for _ in 0..50 {
        let (status, _) = post(&server.addr, "/sessions/a/ingest", "<r><a/><b/><c/></r>");
        if status == 413 {
            saw_413 = true;
            break;
        }
        assert_eq!(status, 200);
    }
    assert!(saw_413, "disk cap never tripped");
    // Bad names and bad methods.
    assert_eq!(get(&server.addr, "/sessions/..%2Fevil/dtd").0, 404);
    assert_eq!(request(&server.addr, "PUT", "/sessions/a/dtd", "").0, 405);
    assert_eq!(get(&server.addr, "/nope").0, 404);
    // Parse failures poison nothing: 400, then the session still works.
    let (status, _) = post(&server.addr, "/sessions/b/ingest", "<r><unclosed>");
    assert_eq!(status, 400);
    assert_eq!(get(&server.addr, "/sessions/b/dtd").0, 200);
    // /metrics speaks valid OpenMetrics.
    let (status, metrics) = get(&server.addr, "/metrics");
    assert_eq!(status, 200);
    dtdinfer_obs::openmetrics::validate(&metrics)
        .unwrap_or_else(|e| panic!("omlint failed: {e}\n{metrics}"));
    assert!(metrics.contains("serve_sessions"), "{metrics}");
    post(&server.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn request_telemetry_labels_logs_and_debug_endpoints() {
    let _running = shared();
    let dir = scratch("telemetry");
    let log_path = dir.join("access.log");
    let log_for_config = log_path.clone();
    let server = boot(&dir, move |c| c.access_log = Some(log_for_config));
    for doc in corpus().iter().take(3) {
        assert_eq!(post(&server.addr, "/sessions/t/ingest", doc).0, 200);
    }
    assert_eq!(get(&server.addr, "/sessions/t/dtd").0, 200);
    assert_eq!(get(&server.addr, "/definitely/not/a/route").0, 404);
    // Labeled series: per-route/status-class counters and histograms.
    let (status, metrics) = get(&server.addr, "/metrics");
    assert_eq!(status, 200);
    dtdinfer_obs::openmetrics::validate(&metrics)
        .unwrap_or_else(|e| panic!("omlint failed: {e}\n{metrics}"));
    for needle in [
        "serve_http_requests_total{route=\"/sessions/{name}/ingest\",status_class=\"2xx\"}",
        "serve_http_request_ns_count{route=\"/sessions/{name}/dtd\",status_class=\"2xx\"}",
        "serve_http_requests_total{route=\"{unmatched}\",status_class=\"4xx\"}",
        "serve_http_bytes_in_count{route=\"/sessions/{name}/ingest\"}",
        "dtdinfer_build_info{version=",
        "serve_session_documents{session=\"t\"}",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in\n{metrics}");
    }
    // Debug endpoints all serve parseable JSON.
    let (status, flight) = get(&server.addr, "/debug/flight");
    assert_eq!(status, 200);
    let flight = dtdinfer_obs::json::Value::parse(&flight).expect("flight parses");
    let events = flight
        .get("events")
        .and_then(dtdinfer_obs::json::Value::as_arr)
        .expect("events array");
    assert!(!events.is_empty(), "flight ring should hold events");
    assert!(
        events.iter().any(|e| {
            e.get("kind").and_then(dtdinfer_obs::json::Value::as_str) == Some("access")
        }),
        "flight ring records access lines"
    );
    let (status, series) = get(&server.addr, "/debug/timeseries");
    assert_eq!(status, 200);
    let series = dtdinfer_obs::json::Value::parse(&series).expect("timeseries parses");
    assert!(series.get("points").is_some(), "timeseries has points");
    let (status, profile) = get(&server.addr, "/debug/profile?ms=20");
    assert_eq!(status, 200);
    let profile = dtdinfer_obs::json::Value::parse(&profile).expect("profile parses");
    assert!(profile.get("profile").is_some(), "profile payload present");
    post(&server.addr, "/shutdown", "");
    let _ = server.thread.join();
    // Access log: one JSON object per line, ids strictly increasing.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let mut last_id = 0u64;
    let mut lines = 0usize;
    for line in log.lines() {
        let v = dtdinfer_obs::json::Value::parse(line)
            .unwrap_or_else(|e| panic!("bad access line {line:?}: {e}"));
        for key in ["ts_ms", "id", "method", "route", "status", "duration_us"] {
            assert!(v.get(key).is_some(), "missing {key} in {line}");
        }
        let id = v
            .get("id")
            .and_then(dtdinfer_obs::json::Value::as_u64)
            .unwrap();
        assert!(id > last_id, "ids must be strictly increasing: {log}");
        last_id = id;
        lines += 1;
    }
    assert!(lines >= 6, "expected >=6 access lines, got {lines}:\n{log}");
    assert!(
        log.contains("\"route\":\"/sessions/{name}/ingest\""),
        "{log}"
    );
    assert!(log.contains("\"route\":\"{unmatched}\""), "{log}");
    // Graceful shutdown leaves the flight dump behind.
    let dump = dir.join(format!("flight-{}.json", std::process::id()));
    let body = std::fs::read_to_string(&dump).expect("shutdown flight dump");
    assert!(dtdinfer_obs::json::Value::parse(body.trim()).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_paths_are_sanitized_in_error_bodies() {
    let _running = shared();
    let dir = scratch("hostile");
    let server = boot(&dir, |_| {});
    // Terminal-escape injection via the request path must come back
    // neutered and length-capped in the error body.
    let (status, body) = get(&server.addr, "/\x1b[31mevil\x07/x");
    assert_eq!(status, 404);
    assert!(!body.contains('\x1b') && !body.contains('\x07'), "{body:?}");
    assert!(body.contains("?[31mevil?"), "{body}");
    let long = format!("/{}", "a".repeat(4000));
    let (status, body) = get(&server.addr, &long);
    assert_eq!(status, 404);
    assert!(
        body.len() < 300,
        "error body not capped: {} bytes",
        body.len()
    );
    assert!(body.contains('…'), "{body}");
    // Invalid session names (charset) echo sanitized too.
    let (status, body) = get(&server.addr, "/sessions/%2e%2e/dtd");
    assert_eq!(status, 404);
    assert!(body.contains("invalid session name"), "{body}");
    post(&server.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_scrape_is_consistent_under_concurrent_ingest() {
    let _running = shared();
    let dir = scratch("scrape");
    let server = boot(&dir, |c| c.max_body_bytes = 64 * 1024 * 1024);
    let addr = server.addr.clone();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_scraper = std::sync::Arc::clone(&stop);
    // Scraper: hammer /metrics while ingest runs; every scrape must be a
    // valid exposition and the ingest counter must never go backwards.
    let scraper = std::thread::spawn(move || {
        let mut last = 0.0f64;
        let mut scrapes = 0usize;
        while !stop_scraper.load(std::sync::atomic::Ordering::Relaxed) {
            let (status, text) = get(&addr, "/metrics");
            assert_eq!(status, 200);
            dtdinfer_obs::openmetrics::validate(&text)
                .unwrap_or_else(|e| panic!("mid-ingest scrape invalid: {e}"));
            if let Some(line) = text
                .lines()
                .find(|l| l.starts_with("serve_ingest_documents_total "))
            {
                let v: f64 = line.split(' ').nth(1).unwrap().parse().unwrap();
                assert!(v >= last, "counter went backwards: {v} < {last}");
                last = v;
            }
            scrapes += 1;
        }
        scrapes
    });
    let batch: String = (0..200)
        .map(|i| format!("<cat><book id=\"b{i}\"><title>t</title></book></cat>"))
        .collect::<Vec<_>>()
        .join("\n");
    for _ in 0..10 {
        let (status, body) = post(&server.addr, "/sessions/big/ingest?mode=ndxml", &batch);
        assert_eq!(status, 200, "{body}");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper clean");
    assert!(scrapes > 0, "scraper never ran");
    // Final state: all 2000 documents counted and listed.
    let (_, listing) = get(&server.addr, "/sessions");
    assert!(listing.contains("\"documents\":2000"), "{listing}");
    post(&server.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panic_drill_is_recorded_and_survivable() {
    let _running = exclusive();
    let dir = scratch("panic");
    let server = boot(&dir, |c| {
        c.debug_panic = true;
        c.workers = 3; // the drill kills one worker; others keep serving
    });
    post(&server.addr, "/sessions/p/ingest", "<r><a/></r>");
    // The drilled worker unwinds before writing a response, so the
    // connection just closes; tolerate the empty read.
    {
        let mut stream = TcpStream::connect(&server.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"POST /debug/panic HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw);
    }
    // The daemon survives and the flight ring holds the panic evidence.
    let (status, _) = get(&server.addr, "/healthz");
    assert_eq!(status, 200, "daemon must survive the drill");
    let (status, flight) = get(&server.addr, "/debug/flight");
    assert_eq!(status, 200);
    let flight = dtdinfer_obs::json::Value::parse(&flight).expect("flight parses");
    let events = flight
        .get("events")
        .and_then(dtdinfer_obs::json::Value::as_arr)
        .expect("events array");
    let panic_line = events
        .iter()
        .find(|e| e.get("kind").and_then(dtdinfer_obs::json::Value::as_str) == Some("panic"))
        .expect("panic event recorded");
    assert!(
        panic_line
            .get("line")
            .and_then(dtdinfer_obs::json::Value::as_str)
            .unwrap()
            .contains("panic drill"),
        "{panic_line:?}"
    );
    post(&server.addr, "/shutdown", "");
    std::fs::remove_dir_all(&dir).ok();
}
