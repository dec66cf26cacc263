//! Worker telemetry of the sharded pool: per-worker gauges and one
//! `engine.shard` span per worker.
//!
//! Runs as its own integration-test binary: engine unit tests that ingest
//! concurrently in one process add their own shard spans to the global
//! trace this test counts.

use dtdinfer_engine::pool::ingest;

fn docs(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 5 {
            0 => format!("<r><a/><b/><c>x{i}</c></r>"),
            1 => "<r><b/><a/></r>".to_owned(),
            2 => format!("<r><c>y{i}</c></r>"),
            3 => "<r><a/><a/><b/></r>".to_owned(),
            _ => "<r/>".to_owned(),
        })
        .collect()
}

// The obs registry and recorder are process-global, so everything that
// records through them lives in one test to avoid cross-test races
// under the parallel runner.
#[test]
fn worker_telemetry_lands_in_gauges_and_trace() {
    let docs = docs(40);
    dtdinfer_obs::enable(true, true);
    dtdinfer_obs::reset();
    let ingested = ingest(&docs, 4).unwrap();
    let snap = dtdinfer_obs::snapshot();
    let trace = dtdinfer_obs::take_trace();
    dtdinfer_obs::disable();

    for s in &ingested.shards {
        let key = |name: &str| format!("{name}{{worker=\"{}\"}}", s.shard);
        assert_eq!(snap.gauges[&key("engine_worker_busy_ns")], s.busy_ns);
        assert_eq!(snap.gauges[&key("engine_worker_documents")], s.documents);
        assert_eq!(snap.gauges[&key("engine_worker_bytes")], s.bytes);
        assert_eq!(snap.gauges[&key("engine_worker_claims")], s.claims);
        assert_eq!(snap.gauges[&key("engine_worker_idle_polls")], s.idle_polls);
    }
    // The dot-numbered per-worker names are gone for good.
    assert!(
        !snap.gauges.keys().any(|k| k.starts_with("engine.worker.")),
        "no dot-numbered worker gauges: {:?}",
        snap.gauges.keys()
    );
    assert_eq!(
        snap.gauges["engine.ingest.peak_bytes_in_flight"],
        ingested.peak_bytes_in_flight
    );
    assert_eq!(
        snap.gauges["engine.ingest.peak_docs_in_flight"],
        ingested.peak_docs_in_flight
    );

    let mut shard_tids: Vec<u64> = trace
        .iter()
        .filter_map(|e| match e {
            dtdinfer_obs::TraceEntry::Span { name, tid, .. } if *name == "engine.shard" => {
                Some(*tid)
            }
            _ => None,
        })
        .collect();
    assert_eq!(shard_tids.len(), 4, "one span per worker: {trace:?}");
    shard_tids.sort_unstable();
    shard_tids.dedup();
    assert_eq!(shard_tids.len(), 4, "each worker has its own tid");
}
