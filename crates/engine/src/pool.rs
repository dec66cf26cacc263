//! Std-only worker pool for sharded corpus ingestion.
//!
//! Workers (`std::thread::scope` + an atomic work queue, no external
//! dependencies) claim document indices off a shared counter in adaptive
//! chunks, load each document themselves from a [`DocSource`] (a reused
//! per-worker buffer — at most one document resident per worker), fold it
//! into a shard-local [`EngineState`], and drop it. The shards are then
//! merged in index order. Which document lands on which shard is
//! scheduling-dependent, but every per-element summary is a commutative
//! union of per-word contributions and derivation canonicalizes the
//! alphabet, so the derived DTD is byte-identical for any worker count.
//!
//! Chunked claiming: one `fetch_add` hands a worker a run of consecutive
//! indices, sized to the work remaining (`remaining / (jobs * 8)`, clamped
//! to 1..=32), so queue traffic is O(jobs · log n) instead of O(n) while
//! the tail still balances one document at a time.

use crate::source::{DocSource, MemSource};
use crate::{EngineState, ParseArena};
use dtdinfer_xml::parser::XmlError;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// What one shard did during ingestion, for the stats report and the
/// `--metrics` JSON.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index (0-based).
    pub shard: usize,
    /// Documents this shard absorbed.
    pub documents: u64,
    /// Child-name sequences this shard absorbed.
    pub words: u64,
    /// Document bytes this shard loaded and parsed.
    pub bytes: u64,
    /// Wall-clock time the shard spent ingesting (claiming + parsing).
    pub duration_ns: u64,
    /// Time actually spent inside document loading + absorption — the
    /// worker's utilization is `busy_ns / duration_ns`; the rest is queue
    /// traffic and scheduling.
    pub busy_ns: u64,
    /// Queue claims that handed this shard at least one document. With
    /// chunked claiming this is far below `documents` on large corpora —
    /// the contention win `stats --jobs` reports.
    pub claims: u64,
    /// Queue polls that found no work left (1 per worker with the current
    /// counter queue — its exit poll; 0 on the sequential path, which has
    /// no queue).
    pub idle_polls: u64,
}

impl ShardReport {
    /// Fraction of the shard's wall-clock spent absorbing documents, in
    /// percent (0 when the shard did not run long enough to measure).
    pub fn utilization_pct(&self) -> f64 {
        if self.duration_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.duration_ns as f64 * 100.0
        }
    }
}

/// Result of a (possibly parallel) ingestion run.
#[derive(Debug, Clone)]
pub struct Ingest {
    /// The merged engine state.
    pub state: EngineState,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<ShardReport>,
    /// Wall-clock time spent merging shard states (0 for one shard).
    pub merge_ns: u64,
    /// Peak bytes of document text resident across all workers at any
    /// moment — the ingestion memory high-water mark (O(jobs · max
    /// document), not O(corpus)).
    pub peak_bytes_in_flight: u64,
    /// Peak number of documents resident at once (≤ worker count).
    pub peak_docs_in_flight: u64,
}

/// Why a document failed to ingest.
#[derive(Debug, Clone)]
pub enum IngestFailure {
    /// The document could not be read from its source.
    Read(String),
    /// The document did not parse.
    Parse(XmlError),
}

impl fmt::Display for IngestFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestFailure::Read(m) => write!(f, "{m}"),
            IngestFailure::Parse(e) => write!(f, "{e}"),
        }
    }
}

/// A failure during ingestion, attributed to the input document.
///
/// With multiple workers, documents after the failing one may already have
/// been absorbed elsewhere, but the *reported* failure is always the
/// lowest-indexed bad document — the same one sequential ingestion stops
/// at — so error output is deterministic too.
#[derive(Debug, Clone)]
pub struct IngestError {
    /// Index into the ingested document sequence.
    pub doc_index: usize,
    /// The source's name for the document (file path), when it has one.
    pub source: Option<String>,
    /// The underlying failure.
    pub error: IngestFailure,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Parse errors already carry the source name via
        // `XmlError::with_source`; read errors carry the path in their
        // message. Only anonymous documents need the index prefix.
        match (&self.source, &self.error) {
            (Some(_), _) => write!(f, "{}", self.error),
            (None, _) => write!(f, "document {}: {}", self.doc_index, self.error),
        }
    }
}

impl std::error::Error for IngestError {}

/// Tracks documents/bytes resident across workers and their peaks.
#[derive(Default)]
struct InFlight {
    bytes: AtomicU64,
    bytes_peak: AtomicU64,
    docs: AtomicU64,
    docs_peak: AtomicU64,
}

impl InFlight {
    fn enter(&self, bytes: u64) {
        let b = self.bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.bytes_peak.fetch_max(b, Ordering::Relaxed);
        let d = self.docs.fetch_add(1, Ordering::Relaxed) + 1;
        self.docs_peak.fetch_max(d, Ordering::Relaxed);
    }

    fn exit(&self, bytes: u64) {
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.docs.fetch_sub(1, Ordering::Relaxed);
    }

    fn peaks(&self) -> (u64, u64) {
        (
            self.bytes_peak.load(Ordering::Relaxed),
            self.docs_peak.load(Ordering::Relaxed),
        )
    }
}

/// How many indices one claim should take: an equal share of the
/// remaining work spread 8× finer than the worker count (large chunks
/// while the queue is deep, single documents near the tail), clamped to
/// 1..=32. The old 4×/64 tuning was sized for ~0.5 KB documents; with
/// multi-megabyte corpora in the mix, a 64-document chunk claimed near
/// the end can strand one worker with seconds of work, so the cap is
/// halved and the spread doubled — queue traffic stays O(jobs · log n).
fn chunk_size(total: usize, claimed: usize, jobs: usize) -> usize {
    let remaining = total.saturating_sub(claimed);
    (remaining / (jobs * 8)).clamp(1, 32)
}

/// Ingests in-memory `docs` into a fresh state with `jobs` workers.
pub fn ingest<D: AsRef<str> + Sync>(docs: &[D], jobs: usize) -> Result<Ingest, IngestError> {
    ingest_into(EngineState::new(), docs, jobs)
}

/// Ingests in-memory `docs` into an existing state (warm start from a
/// snapshot) with `jobs` workers.
pub fn ingest_into<D: AsRef<str> + Sync>(
    base: EngineState,
    docs: &[D],
    jobs: usize,
) -> Result<Ingest, IngestError> {
    ingest_source(base, &MemSource::new(docs), jobs)
}

/// Ingests every document of `source` into `base` with `jobs` workers.
/// Workers pull indices and load documents themselves, so peak memory is
/// O(jobs · max document size) regardless of corpus size.
pub fn ingest_source<S: DocSource>(
    base: EngineState,
    source: &S,
    jobs: usize,
) -> Result<Ingest, IngestError> {
    let _span = dtdinfer_obs::span("engine.ingest");
    let total = source.len();
    let jobs = jobs.max(1).min(total.max(1));
    if jobs == 1 {
        return ingest_sequential(base, source);
    }
    let next = AtomicUsize::new(0);
    let in_flight = InFlight::default();
    let workers: Vec<(EngineState, ShardReport, Option<IngestError>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|shard| {
                    let next = &next;
                    let in_flight = &in_flight;
                    scope.spawn(move || {
                        // The span runs on the worker thread, so traces
                        // carry one distinct tid per worker.
                        let _span = dtdinfer_obs::span("engine.shard");
                        let started = Instant::now();
                        let mut local = EngineState::new();
                        let mut buf = String::new();
                        let mut arena = ParseArena::new();
                        let mut documents = 0u64;
                        let mut bytes = 0u64;
                        let mut busy_ns = 0u64;
                        let mut claims = 0u64;
                        let mut idle_polls = 0u64;
                        let mut first_error: Option<IngestError> = None;
                        loop {
                            let k = chunk_size(total, next.load(Ordering::Relaxed), jobs);
                            let start = next.fetch_add(k, Ordering::Relaxed);
                            if start >= total {
                                idle_polls += 1;
                                break;
                            }
                            claims += 1;
                            record_heartbeat(
                                total.saturating_sub((start + k).min(total)),
                                in_flight,
                            );
                            for i in start..(start + k).min(total) {
                                let doc_started = Instant::now();
                                match absorb_one(
                                    &mut local, source, i, &mut buf, &mut arena, in_flight,
                                ) {
                                    Ok(len) => {
                                        documents += 1;
                                        bytes += len;
                                    }
                                    Err(error) => {
                                        let earlier =
                                            first_error.as_ref().is_none_or(|e| i < e.doc_index);
                                        if earlier {
                                            first_error = Some(error);
                                        }
                                    }
                                }
                                busy_ns += elapsed_ns(doc_started);
                            }
                        }
                        let report = ShardReport {
                            shard,
                            documents,
                            words: local.total_words(),
                            bytes,
                            duration_ns: elapsed_ns(started),
                            busy_ns,
                            claims,
                            idle_polls,
                        };
                        (local, report, first_error)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
    if let Some(err) = workers
        .iter()
        .filter_map(|(_, _, e)| e.clone())
        .min_by_key(|e| e.doc_index)
    {
        return Err(err);
    }
    let merge_started = Instant::now();
    let mut state = base;
    let mut shards = Vec::with_capacity(workers.len());
    for (local, report, _) in workers {
        state.merge(&local);
        record_shard(&report);
        shards.push(report);
    }
    let merge_ns = elapsed_ns(merge_started);
    dtdinfer_obs::observe("engine.merge_ns", merge_ns);
    let (peak_bytes_in_flight, peak_docs_in_flight) = in_flight.peaks();
    record_peaks(peak_bytes_in_flight, peak_docs_in_flight);
    Ok(Ingest {
        state,
        shards,
        merge_ns,
        peak_bytes_in_flight,
        peak_docs_in_flight,
    })
}

/// Loads document `i` and folds it into `local`, reusing the worker's
/// `buf` and `arena` scratch and tracking residency. Returns the
/// document's size in bytes.
fn absorb_one<S: DocSource>(
    local: &mut EngineState,
    source: &S,
    i: usize,
    buf: &mut String,
    arena: &mut ParseArena,
    in_flight: &InFlight,
) -> Result<u64, IngestError> {
    // The document is named only when it fails: a parse error carries the
    // name as its source, as a read error carries the path in its message.
    let fail = |error: IngestFailure| {
        let source = source.name(i);
        let error = match (error, &source) {
            (IngestFailure::Parse(e), Some(name)) => IngestFailure::Parse(e.with_source(name)),
            (error, _) => error,
        };
        IngestError {
            doc_index: i,
            source,
            error,
        }
    };
    let doc = source
        .load(i, buf)
        .map_err(|m| fail(IngestFailure::Read(m)))?;
    let len = doc.len() as u64;
    in_flight.enter(len);
    let absorbed = local.absorb_document_with(doc, arena);
    in_flight.exit(len);
    absorbed.map_err(|e| fail(IngestFailure::Parse(e)))?;
    Ok(len)
}

fn ingest_sequential<S: DocSource>(base: EngineState, source: &S) -> Result<Ingest, IngestError> {
    let started = Instant::now();
    let mut state = base;
    let words_before = state.total_words();
    let mut buf = String::new();
    let mut arena = ParseArena::new();
    let in_flight = InFlight::default();
    let mut busy_ns = 0u64;
    let mut bytes = 0u64;
    for i in 0..source.len() {
        let doc_started = Instant::now();
        bytes += absorb_one(&mut state, source, i, &mut buf, &mut arena, &in_flight)?;
        busy_ns += elapsed_ns(doc_started);
        // The sequential path has no claim points; heartbeat every 64
        // documents so long single-threaded ingests still feed the
        // timeseries sampler.
        if i % 64 == 63 {
            record_heartbeat(source.len() - i - 1, &in_flight);
        }
    }
    let report = ShardReport {
        shard: 0,
        documents: source.len() as u64,
        words: state.total_words() - words_before,
        bytes,
        duration_ns: elapsed_ns(started),
        busy_ns,
        claims: u64::from(source.len() > 0),
        idle_polls: 0,
    };
    record_shard(&report);
    let (peak_bytes_in_flight, peak_docs_in_flight) = in_flight.peaks();
    record_peaks(peak_bytes_in_flight, peak_docs_in_flight);
    Ok(Ingest {
        state,
        shards: vec![report],
        merge_ns: 0,
        peak_bytes_in_flight,
        peak_docs_in_flight,
    })
}

fn record_shard(report: &ShardReport) {
    if !dtdinfer_obs::is_enabled() {
        return;
    }
    let label = report.shard.to_string();
    dtdinfer_obs::count_labeled("engine.shard.documents", &label, report.documents);
    dtdinfer_obs::count_labeled("engine.shard.words", &label, report.words);
    dtdinfer_obs::observe("engine.shard.duration_ns", report.duration_ns);
    // Per-worker point-in-time telemetry: gauges, since re-ingesting in
    // the same process should replace — not accumulate — a worker's
    // stats. One labeled series per metric (`engine_worker_busy_ns
    // {worker="0"}`), not a dot-numbered name per worker, so dashboards
    // aggregate across workers without name surgery.
    let worker = label.as_str();
    let labels: &[(&str, &str)] = &[("worker", worker)];
    dtdinfer_obs::gauge_with("engine_worker_busy_ns", labels, report.busy_ns);
    dtdinfer_obs::gauge_with("engine_worker_documents", labels, report.documents);
    dtdinfer_obs::gauge_with("engine_worker_bytes", labels, report.bytes);
    dtdinfer_obs::gauge_with("engine_worker_claims", labels, report.claims);
    dtdinfer_obs::gauge_with("engine_worker_idle_polls", labels, report.idle_polls);
}

/// Live progress gauges, updated once per queue claim (not per document,
/// so the registry lock stays off the per-document path). These are what
/// the timeseries sampler sees *during* a run — queue depth draining and
/// document bytes in flight — where the peak gauges below only land at
/// the end.
fn record_heartbeat(remaining: usize, in_flight: &InFlight) {
    if !dtdinfer_obs::is_enabled() {
        return;
    }
    dtdinfer_obs::gauge("engine.queue.remaining", remaining as u64);
    dtdinfer_obs::gauge(
        "engine.inflight.bytes",
        in_flight.bytes.load(Ordering::Relaxed),
    );
    dtdinfer_obs::gauge(
        "engine.inflight.docs",
        in_flight.docs.load(Ordering::Relaxed),
    );
}

fn record_peaks(peak_bytes: u64, peak_docs: u64) {
    if dtdinfer_obs::is_enabled() {
        dtdinfer_obs::gauge("engine.ingest.peak_bytes_in_flight", peak_bytes);
        dtdinfer_obs::gauge("engine.ingest.peak_docs_in_flight", peak_docs);
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PathSource;
    use dtdinfer_xml::infer::InferenceEngine;

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

    #[test]
    fn sharded_equals_sequential_for_all_job_counts() {
        let docs = docs(53);
        let sequential = ingest(&docs, 1).unwrap();
        let baseline = sequential.state.derive(InferenceEngine::Idtd).0.serialize();
        for jobs in [2, 3, 4, 8] {
            let sharded = ingest(&docs, jobs).unwrap();
            assert_eq!(sharded.state.num_documents, docs.len() as u64);
            assert_eq!(sharded.shards.len(), jobs.min(docs.len()));
            assert_eq!(
                sharded.state.derive(InferenceEngine::Idtd).0.serialize(),
                baseline,
                "jobs {jobs}"
            );
            assert_eq!(
                sharded.shards.iter().map(|s| s.documents).sum::<u64>(),
                docs.len() as u64
            );
        }
    }

    #[test]
    fn error_reporting_is_deterministic() {
        let mut docs = docs(40);
        docs[17] = "<r><unclosed></r>".to_owned();
        docs[31] = "<also><bad></also>".to_owned();
        for jobs in [1, 4] {
            let err = ingest(&docs, jobs).unwrap_err();
            assert_eq!(err.doc_index, 17, "jobs {jobs}");
            assert!(matches!(err.error, IngestFailure::Parse(_)), "{err}");
            assert!(err.to_string().starts_with("document 17:"), "{err}");
        }
    }

    #[test]
    fn path_source_errors_name_the_file() {
        let dir = std::env::temp_dir().join(format!("dtdinfer-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.xml");
        let bad = dir.join("bad.xml");
        std::fs::write(&good, "<r><a/></r>").unwrap();
        std::fs::write(&bad, "<r><broken></r>").unwrap();
        for jobs in [1, 2] {
            let source = PathSource::new(vec![good.clone(), bad.clone(), good.clone()]);
            let err = ingest_source(EngineState::new(), &source, jobs).unwrap_err();
            assert_eq!(err.doc_index, 1, "jobs {jobs}");
            assert_eq!(err.source.as_deref(), Some(&*bad.display().to_string()));
            assert!(err.to_string().contains("bad.xml"), "{err}");
            // The index prefix is redundant once the path is known.
            assert!(!err.to_string().starts_with("document 1"), "{err}");

            let source = PathSource::new(vec![good.clone(), dir.join("absent.xml")]);
            let err = ingest_source(EngineState::new(), &source, jobs).unwrap_err();
            assert!(matches!(err.error, IngestFailure::Read(_)), "{err}");
            assert!(err.to_string().contains("absent.xml"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn path_source_matches_in_memory_ingestion() {
        let docs = docs(30);
        let dir = std::env::temp_dir().join(format!("dtdinfer-pool-eq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths: Vec<_> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let p = dir.join(format!("{i:03}.xml"));
                std::fs::write(&p, d).unwrap();
                p
            })
            .collect();
        let memory = ingest(&docs, 4).unwrap();
        let streamed = ingest_source(EngineState::new(), &PathSource::new(paths), 4).unwrap();
        assert_eq!(
            streamed.state.derive(InferenceEngine::Idtd).0.serialize(),
            memory.state.derive(InferenceEngine::Idtd).0.serialize()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_reports_account_for_busy_time_and_idle_polls() {
        let docs = docs(60);
        let sequential = ingest(&docs, 1).unwrap();
        let seq = &sequential.shards[0];
        assert_eq!(seq.idle_polls, 0, "no queue on the sequential path");
        assert_eq!(seq.claims, 1, "sequential path claims everything once");
        assert!(seq.busy_ns <= seq.duration_ns, "{seq:?}");
        assert!(seq.busy_ns > 0, "60 documents take measurable time");

        let parallel = ingest(&docs, 4).unwrap();
        for s in &parallel.shards {
            assert_eq!(s.idle_polls, 1, "one exhausted poll per worker: {s:?}");
            assert!(s.busy_ns <= s.duration_ns, "{s:?}");
            assert!(s.utilization_pct() <= 100.0, "{s:?}");
            assert!(s.claims <= s.documents.max(1), "{s:?}");
        }
    }

    #[test]
    fn chunked_claims_stay_below_document_count() {
        // 400 docs over 4 workers: per-claim chunks start at 400/32 = 12,
        // so total claims must be far below one per document.
        let docs = docs(400);
        let parallel = ingest(&docs, 4).unwrap();
        let total_claims: u64 = parallel.shards.iter().map(|s| s.claims).sum();
        let total_docs: u64 = parallel.shards.iter().map(|s| s.documents).sum();
        assert_eq!(total_docs, 400);
        assert!(
            total_claims < total_docs / 2,
            "chunking should cut queue traffic: {total_claims} claims for {total_docs} docs"
        );
    }

    #[test]
    fn chunk_size_is_adaptive() {
        assert_eq!(chunk_size(400, 0, 4), 12);
        assert_eq!(chunk_size(400, 396, 4), 1, "tail balances one at a time");
        assert_eq!(chunk_size(10_000, 0, 4), 32, "clamped above");
        assert_eq!(chunk_size(10, 10, 4), 1, "empty remainder still claims 1");
    }

    #[test]
    fn in_flight_peaks_are_bounded_by_workers() {
        let docs = docs(120);
        let max_doc = docs.iter().map(String::len).max().unwrap() as u64;
        for jobs in [1usize, 4] {
            let r = ingest(&docs, jobs).unwrap();
            assert!(r.peak_docs_in_flight >= 1, "{:?}", r.peak_docs_in_flight);
            assert!(
                r.peak_docs_in_flight <= jobs as u64,
                "at most one resident document per worker"
            );
            assert!(r.peak_bytes_in_flight >= 1);
            assert!(
                r.peak_bytes_in_flight <= jobs as u64 * max_doc,
                "peak {} vs bound {}",
                r.peak_bytes_in_flight,
                jobs as u64 * max_doc
            );
        }
    }

    #[test]
    fn more_jobs_than_documents() {
        let docs = docs(3);
        let r = ingest(&docs, 16).unwrap();
        assert_eq!(r.state.num_documents, 3);
        assert!(r.shards.len() <= 3);
    }

    #[test]
    fn warm_start_equals_one_shot() {
        let docs = docs(30);
        let one_shot = ingest(&docs, 4).unwrap();
        let first = ingest(&docs[..12], 4).unwrap();
        let resumed = ingest_into(first.state, &docs[12..], 4).unwrap();
        for engine in [InferenceEngine::Crx, InferenceEngine::Idtd] {
            assert_eq!(
                resumed.state.derive(engine).0.serialize(),
                one_shot.state.derive(engine).0.serialize(),
                "{engine:?}"
            );
        }
    }
}
