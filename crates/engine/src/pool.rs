//! Std-only worker pool for sharded corpus ingestion.
//!
//! Every job count runs one worker loop (`std::thread::scope` + an atomic
//! work queue, no external dependencies): the calling thread is shard 0
//! and folds its documents straight into the base corpus, and `jobs − 1`
//! scoped helpers each fold theirs into a fresh [`Corpus`]. A worker
//! claims document indices off a shared counter in adaptive chunks, loads
//! each document itself from a [`DocSource`] (a reused per-worker buffer
//! — at most one document resident per worker), absorbs it and drops it,
//! and stops at its own first failing document. The helpers' corpora are
//! then merged into the base in shard order. Which document lands on
//! which shard is scheduling-dependent, but every per-element summary is
//! a commutative union of per-word contributions and derivation
//! canonicalizes the alphabet, so the derived DTD is byte-identical for
//! any worker count.
//!
//! Chunked claiming: one `fetch_add` hands a worker a run of consecutive
//! indices, sized to the work remaining (`remaining / (jobs * 8)`, clamped
//! to 1..=32), so queue traffic is O(jobs · log n) instead of O(n) while
//! the tail still balances one document at a time.

use crate::source::{DocSource, MemSource};
use crate::ParseArena;
use dtdinfer_xml::extract::Corpus;
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
    /// Queue polls that found no work left: 1 for a worker that drained
    /// the queue (its exit poll), 0 for one that stopped at a failing
    /// document.
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
    /// The merged corpus: the base plus every ingested document.
    pub state: Corpus,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<ShardReport>,
    /// Wall-clock time spent merging the helpers' corpora into the base
    /// (0 for one job, which merges nothing).
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
/// lowest-indexed bad document — the same one a single worker stops at —
/// so error output is deterministic too.
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

/// Ingests in-memory `docs` into a fresh corpus with `jobs` workers.
pub fn ingest<D: AsRef<str> + Sync>(docs: &[D], jobs: usize) -> Result<Ingest, IngestError> {
    ingest_source(Corpus::new(), &MemSource::new(docs), jobs)
}

/// What every shard shares: the documents, the claim counter and the
/// residency tracker.
struct Queue<'a, S> {
    source: &'a S,
    total: usize,
    jobs: usize,
    next: AtomicUsize,
    in_flight: InFlight,
}

/// Ingests every document of `source` into `base` with `jobs` workers.
/// The calling thread is shard 0 and folds its documents straight into
/// `base`; `jobs − 1` scoped helpers fold theirs into fresh corpora that
/// are merged in afterwards, so one job spawns no thread and merges
/// nothing. Workers pull indices and load documents themselves, so peak
/// memory is O(jobs · max document size) regardless of corpus size.
pub fn ingest_source<S: DocSource>(
    base: Corpus,
    source: &S,
    jobs: usize,
) -> Result<Ingest, IngestError> {
    let _span = dtdinfer_obs::span("engine.ingest");
    let total = source.len();
    let queue = Queue {
        source,
        total,
        jobs: jobs.max(1).min(total.max(1)),
        next: AtomicUsize::new(0),
        in_flight: InFlight::default(),
    };
    let mut state = base;
    let ((first, first_failure), helpers) = std::thread::scope(|scope| {
        let queue = &queue;
        let handles: Vec<_> = (1..queue.jobs)
            .map(|shard| {
                scope.spawn(move || {
                    let mut local = Corpus::new();
                    let (report, failure) = run_shard(shard, &mut local, queue);
                    (local, report, failure)
                })
            })
            .collect();
        let first = run_shard(0, &mut state, queue);
        let helpers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        (first, helpers)
    });
    // Every index below a shard's failure was claimed by a shard that
    // had not failed yet and absorbed it, so the lowest first failure
    // is the lowest failing document overall.
    if let Some(err) = first_failure
        .iter()
        .chain(helpers.iter().filter_map(|(_, _, e)| e.as_ref()))
        .min_by_key(|e| e.doc_index)
    {
        return Err(err.clone());
    }
    let mut shards = vec![first];
    let mut merge_ns = 0;
    if !helpers.is_empty() {
        let merge_started = Instant::now();
        for (local, report, _) in helpers {
            state.merge(&local);
            shards.push(report);
        }
        merge_ns = elapsed_ns(merge_started);
        dtdinfer_obs::observe("engine.merge_ns", merge_ns);
    }
    shards.iter().for_each(record_shard);
    let (peak_bytes_in_flight, peak_docs_in_flight) = queue.in_flight.peaks();
    record_peaks(peak_bytes_in_flight, peak_docs_in_flight);
    Ok(Ingest {
        state,
        shards,
        merge_ns,
        peak_bytes_in_flight,
        peak_docs_in_flight,
    })
}

/// One shard's loop, the same on the calling thread and on every
/// helper: claims chunks of indices and folds each document into
/// `state` until the queue is empty or a document fails, and stops at
/// that first failure.
fn run_shard<S: DocSource>(
    shard: usize,
    state: &mut Corpus,
    queue: &Queue<S>,
) -> (ShardReport, Option<IngestError>) {
    // Helpers open the span on their own thread, so traces carry one
    // distinct tid per worker.
    let _span = dtdinfer_obs::span("engine.shard");
    let started = Instant::now();
    let words_before = state.total_sequences();
    let mut buf = String::new();
    let mut arena = ParseArena::new();
    let mut report = ShardReport {
        shard,
        documents: 0,
        words: 0,
        bytes: 0,
        duration_ns: 0,
        busy_ns: 0,
        claims: 0,
        idle_polls: 0,
    };
    let failure = 'claims: loop {
        let k = chunk_size(queue.total, queue.next.load(Ordering::Relaxed), queue.jobs);
        let start = queue.next.fetch_add(k, Ordering::Relaxed);
        if start >= queue.total {
            report.idle_polls += 1;
            break None;
        }
        report.claims += 1;
        let end = (start + k).min(queue.total);
        record_heartbeat(queue.total - end, &queue.in_flight);
        for i in start..end {
            let doc_started = Instant::now();
            let absorbed = absorb_one(state, queue, i, &mut buf, &mut arena);
            report.busy_ns += elapsed_ns(doc_started);
            match absorbed {
                Ok(len) => {
                    report.documents += 1;
                    report.bytes += len;
                }
                Err(error) => break 'claims Some(error),
            }
        }
    };
    report.words = (state.total_sequences() - words_before) as u64;
    report.duration_ns = elapsed_ns(started);
    (report, failure)
}

/// Loads document `i` and folds it into `state`, reusing the worker's
/// `buf` and `arena` scratch and tracking residency, and counts it in
/// `engine.documents` or `engine.parse_errors`. Returns the document's
/// size in bytes.
fn absorb_one<S: DocSource>(
    state: &mut Corpus,
    queue: &Queue<S>,
    i: usize,
    buf: &mut String,
    arena: &mut ParseArena,
) -> Result<u64, IngestError> {
    // The document is named only when it fails: a parse error carries the
    // name as its source, as a read error carries the path in its message.
    let fail = |error: IngestFailure| {
        let source = queue.source.name(i);
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
    let doc = queue
        .source
        .load(i, buf)
        .map_err(|m| fail(IngestFailure::Read(m)))?;
    let len = doc.len() as u64;
    queue.in_flight.enter(len);
    let absorbed = state.add_document_with(doc, arena);
    queue.in_flight.exit(len);
    absorbed.map_err(|e| {
        dtdinfer_obs::count("engine.parse_errors", 1);
        fail(IngestFailure::Parse(e))
    })?;
    dtdinfer_obs::count("engine.documents", 1);
    Ok(len)
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
    use dtdinfer_xml::infer::{infer_dtd, InferenceEngine};

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
        let baseline = infer_dtd(&sequential.state, InferenceEngine::Idtd).serialize();
        for jobs in [2, 3, 4, 8] {
            let sharded = ingest(&docs, jobs).unwrap();
            assert_eq!(sharded.state.num_documents, docs.len() as u64);
            assert_eq!(sharded.shards.len(), jobs.min(docs.len()));
            assert_eq!(
                infer_dtd(&sharded.state, InferenceEngine::Idtd).serialize(),
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
        // Two bad documents inside the first claim chunk (at least 6
        // documents at every job count here), and two far apart, which
        // different claims and usually different shards reach.
        for (bad, lowest) in [([2, 4], 2), ([171, 377], 171)] {
            let mut docs = docs(400);
            docs[bad[0]] = "<r><unclosed></r>".to_owned();
            docs[bad[1]] = "<also><bad></also>".to_owned();
            for jobs in [1, 2, 3, 8] {
                let err = ingest(&docs, jobs).unwrap_err();
                assert_eq!(err.doc_index, lowest, "{bad:?} jobs {jobs}");
                assert!(matches!(err.error, IngestFailure::Parse(_)), "{err}");
                let prefix = format!("document {lowest}:");
                assert!(err.to_string().starts_with(&prefix), "{err}");
            }
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
            let err = ingest_source(Corpus::new(), &source, jobs).unwrap_err();
            assert_eq!(err.doc_index, 1, "jobs {jobs}");
            assert_eq!(err.source.as_deref(), Some(&*bad.display().to_string()));
            assert!(err.to_string().contains("bad.xml"), "{err}");
            // The index prefix is redundant once the path is known.
            assert!(!err.to_string().starts_with("document 1"), "{err}");

            let source = PathSource::new(vec![good.clone(), dir.join("absent.xml")]);
            let err = ingest_source(Corpus::new(), &source, jobs).unwrap_err();
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
        let streamed = ingest_source(Corpus::new(), &PathSource::new(paths), 4).unwrap();
        assert_eq!(
            infer_dtd(&streamed.state, InferenceEngine::Idtd).serialize(),
            infer_dtd(&memory.state, InferenceEngine::Idtd).serialize()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_reports_account_for_busy_time_and_idle_polls() {
        let docs = docs(60);
        for jobs in [1, 2, 4] {
            let ingested = ingest(&docs, jobs).unwrap();
            assert_eq!(ingested.shards.len(), jobs);
            for s in &ingested.shards {
                assert_eq!(s.idle_polls, 1, "one exhausted poll per worker: {s:?}");
                assert!(s.busy_ns <= s.duration_ns, "{s:?}");
                assert!(s.utilization_pct() <= 100.0, "{s:?}");
                assert!(s.claims <= s.documents.max(1), "{s:?}");
            }
            let busy: u64 = ingested.shards.iter().map(|s| s.busy_ns).sum();
            assert!(busy > 0, "60 documents take measurable time");
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
        for jobs in [1, 2, 4] {
            let first = ingest(&docs[..12], jobs).unwrap();
            let resumed = ingest_source(first.state, &MemSource::new(&docs[12..]), jobs).unwrap();
            for engine in [InferenceEngine::Crx, InferenceEngine::Idtd] {
                assert_eq!(
                    infer_dtd(&resumed.state, engine).serialize(),
                    infer_dtd(&one_shot.state, engine).serialize(),
                    "{engine:?} jobs {jobs}"
                );
            }
        }
    }
}
