//! The flight ring keeps request evidence when a schema grows by hundreds
//! of elements at once: deriving them must not push older events out.
//! Runs as its own test binary because the ring is process-global.

use dtdinfer_obs::json::Value;
use dtdinfer_serve::{run, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

fn post(addr: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default()
}

#[test]
fn a_wide_ingest_keeps_the_first_request_in_the_flight_ring() {
    let dir = std::env::temp_dir().join(format!("dtdinfer-flight-ring-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let server =
        std::thread::spawn(move || run(config, move |addr| tx.send(addr.to_owned()).unwrap()));
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("server up");

    post(&addr, "/sessions/wide/ingest", "<r><a/></r>");
    let leaves: String = (0..300).map(|i| format!("<leaf{i:03}/>")).collect();
    post(&addr, "/sessions/wide/ingest", &format!("<r>{leaves}</r>"));

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /debug/flight HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    let flight = Value::parse(body).expect("flight parses");
    let lines: Vec<&str> = flight
        .get("events")
        .and_then(Value::as_arr)
        .expect("events array")
        .iter()
        .filter_map(|e| e.get("line").and_then(Value::as_str))
        .collect();
    assert!(
        lines.iter().any(|l| l.contains("\"id\":1,")),
        "request 1's access line was pushed out of the ring: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("serve listening")),
        "the listening line was pushed out of the ring"
    );
    post(&addr, "/shutdown", "");
    server.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
