//! Integration coverage for the always-on observability pipeline: a
//! background timeseries sampler snapshotting the registry *while* a
//! sharded ingest mutates it concurrently (workers counting documents,
//! SampleBag evicting attribute values, the merge folding shards in).
//!
//! Runs as its own integration-test binary so the process-global
//! registry is not shared with the engine's unit tests.

use dtdinfer_engine::pool::ingest;
use dtdinfer_obs::timeseries::{start, SamplerConfig};
use std::time::Duration;

/// A corpus whose attribute values exceed the SampleBag retention cap
/// (64 distinct), so ingestion exercises the eviction path too.
fn corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "<order id=\"id-{i}\" region=\"r{}\"><item sku=\"sku-{i}\"/>\
                 <item sku=\"sku-{i}b\"/><note>n{i}</note></order>",
                i % 3
            )
        })
        .collect()
}

#[test]
fn snapshots_during_sharded_ingest_are_monotone_and_untorn() {
    let docs = corpus(600);
    let max_doc = docs.iter().map(String::len).max().unwrap() as u64;
    let jobs = 4u64;

    dtdinfer_obs::enable(true, false);
    dtdinfer_obs::reset();
    let sampler = start(SamplerConfig {
        interval: Duration::from_millis(1),
        capacity: 4096,
        watch: vec!["engine.documents".to_owned()],
        stall_after: 10_000, // effectively off; stalls are tested in obs
        warn_on_stall: false,
    });

    // Several rounds so the sampler overlaps real mutation, including the
    // shard merges at the end of each round.
    let mut ingested = None;
    for _ in 0..5 {
        ingested = Some(ingest(&docs, jobs as usize).expect("corpus is valid"));
    }
    let ts = sampler.stop();
    let finale = dtdinfer_obs::snapshot();
    dtdinfer_obs::disable();

    assert!(
        ts.points.len() >= 2,
        "sampler must capture the run: {} points",
        ts.points.len()
    );
    assert_eq!(ts.stalls, 0);

    // Counters must be monotone in every adjacent snapshot pair — a
    // snapshot taken mid-merge or mid-claim may be *partial* but never
    // regress, and gauges must never show torn/impossible values.
    let monotone = [
        "engine.documents",
        "xml.samples.evictions",
        "xml.samples.overflow",
    ];
    for pair in ts.points.windows(2) {
        let (a, b) = (&pair[0].snapshot, &pair[1].snapshot);
        for name in monotone {
            let va = a.counters.get(name).copied().unwrap_or(0);
            let vb = b.counters.get(name).copied().unwrap_or(0);
            assert!(va <= vb, "counter {name} went backwards: {va} -> {vb}");
        }
        for point in [a, b] {
            if let Some(&docs_in_flight) = point.gauges.get("engine.inflight.docs") {
                assert!(
                    docs_in_flight <= jobs,
                    "more resident docs than workers: {docs_in_flight}"
                );
            }
            if let Some(&bytes_in_flight) = point.gauges.get("engine.inflight.bytes") {
                assert!(
                    bytes_in_flight <= jobs * max_doc,
                    "in-flight bytes above the residency bound: {bytes_in_flight}"
                );
            }
            if let Some(&remaining) = point.gauges.get("engine.queue.remaining") {
                assert!(
                    remaining <= docs.len() as u64,
                    "queue deeper than the corpus: {remaining}"
                );
            }
            if let Some(&peak) = point.gauges.get("engine.ingest.peak_docs_in_flight") {
                assert!((1..=jobs).contains(&peak), "torn peak gauge: {peak}");
            }
            if let Some(&peak) = point.gauges.get("engine.ingest.peak_bytes_in_flight") {
                assert!(
                    (1..=jobs * max_doc).contains(&peak),
                    "torn byte peak: {peak}"
                );
            }
        }
    }

    // End state: everything the run produced is visible, and the final
    // timeseries point agrees with a direct snapshot.
    let ingested = ingested.expect("ran");
    assert_eq!(finale.counters["engine.documents"], 5 * docs.len() as u64);
    assert!(
        finale.counters["xml.samples.evictions"] > 0,
        "600 distinct attribute values must overflow the 64-cap bag"
    );
    let last = ts.points.last().expect("non-empty");
    assert_eq!(
        last.snapshot.counters["engine.documents"], finale.counters["engine.documents"],
        "stop() takes a final snapshot covering the end of the run"
    );
    assert_eq!(
        last.snapshot.gauges["engine.ingest.peak_docs_in_flight"],
        ingested.peak_docs_in_flight
    );

    // The series is consumable: rates are finite and the JSON parses.
    for (_, rate) in ts.rates("engine.documents") {
        assert!(rate.is_finite() && rate >= 0.0);
    }
    let text = ts.json();
    let parsed = dtdinfer_obs::json::Value::parse(&text).expect("timeseries JSON parses");
    assert_eq!(
        parsed.get("points").unwrap().as_arr().unwrap().len(),
        ts.points.len()
    );
}
