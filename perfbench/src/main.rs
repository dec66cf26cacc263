//! The traced, in-process half of the repository benchmark.
//!
//! `run.py --trace 1` runs this program on the corpus it generated, after
//! its end-to-end rounds. The program calls the dtdinfer crates' public
//! functions in-process and times each layer. It then replays the
//! benchmark's scenarios -- `infer` over the base, a snapshot refresh, and
//! the serve request mix -- calling the layer functions in the order the
//! CLI and the serve handlers call them, with one span around each call.
//! All spans are opened and closed here; the program under test carries no
//! extra tracing.
//!
//! ```text
//! perfbench-trace --corpus DIR --work DIR --trace-out FILE
//! ```
//!
//! The corpus directory holds the base documents `b0.xml`, `b1.xml`, ...
//! and the stream documents `s0.xml`, `s1.xml`, ...; the work directory is
//! scratch space for snapshots, journals and sessions. The spans go to the
//! trace file as Chrome trace-event JSON, and the per-layer metrics to
//! stdout as one JSON object.

mod trace;

use dtdinfer_engine::journal::Store;
use dtdinfer_engine::pool::{ingest, ingest_source};
use dtdinfer_engine::source::{DocSource, PathSource};
use dtdinfer_engine::{snapshot, EngineState, ParseArena};
use dtdinfer_serve::session::{classify_drift, parse_check, Session};
use dtdinfer_serve::ServeConfig;
use dtdinfer_xml::contextual::ContextualCorpus;
use dtdinfer_xml::diff::diff;
use dtdinfer_xml::dtd::Dtd;
use dtdinfer_xml::extract::Corpus;
use dtdinfer_xml::infer::{infer_dtd_with_stats, ElementReport, InferenceEngine};
use dtdinfer_xml::xsd::{generate_xsd, XsdOptions};
use dtdinfer_xml::XmlPullParser;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Repetitions of each whole-corpus measurement; the median is reported.
const REPS: usize = 3;
/// Repetitions of each whole-state measurement (snapshot, canonicalize).
const STATE_REPS: usize = 5;
/// Documents in the refresh scenario's fixed batch (as in `run.py`).
const REFRESH_BATCH: usize = 200;
/// Journal appends timed for the append measurement.
const APPENDS: usize = 1000;
/// Journal records replayed by the recovery measurement.
const RECOVER_RECORDS: usize = 200;
/// NDXML request size of the serve session's bulk ingest (as in `run.py`).
const BULK_BYTES: usize = 2 << 20;
/// Replays of the batch scenario, each over the whole base.
const BATCH_REPLAYS: usize = 3;
/// Replays of the refresh scenario.
const REFRESH_REPLAYS: usize = 10;
/// The mix replay runs at least MIX_MIN iterations, at most MIX_MAX, and
/// no more once MIX_BUDGET has passed.
const MIX_MIN: usize = 20;
const MIX_MAX: usize = 1000;
const MIX_BUDGET: Duration = Duration::from_secs(3);
/// The mix reads the XSD back every this many iterations (as in `run.py`).
const XSD_EVERY: usize = 10;

struct Options {
    corpus: PathBuf,
    work: PathBuf,
    trace_out: PathBuf,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut corpus = None;
        let mut work = None;
        let mut trace_out = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--corpus" => corpus = Some(PathBuf::from(value)),
                "--work" => work = Some(PathBuf::from(value)),
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        Ok(Options {
            corpus: corpus.ok_or("--corpus is required")?,
            work: work.ok_or("--work is required")?,
            trace_out: trace_out.ok_or("--trace-out is required")?,
        })
    }
}

/// One part of the corpus (base or stream), in index order.
struct Docs {
    paths: Vec<PathBuf>,
    texts: Vec<String>,
    bytes: usize,
}

impl Docs {
    /// Reads every `<prefix><i>.xml` under `dir`.
    fn load(dir: &Path, prefix: char) -> Result<Docs, String> {
        let mut indexed = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            let name = entry.map_err(|e| e.to_string())?.file_name();
            let Some(name) = name.to_str() else { continue };
            let index = name
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(".xml"))
                .and_then(|digits| digits.parse::<usize>().ok());
            if let Some(index) = index {
                indexed.push((index, dir.join(name)));
            }
        }
        indexed.sort();
        if indexed.is_empty() {
            return Err(format!("no {prefix}*.xml documents in {}", dir.display()));
        }
        let paths: Vec<PathBuf> = indexed.into_iter().map(|(_, p)| p).collect();
        let texts = paths
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
            .collect::<Result<Vec<_>, _>>()?;
        let bytes = texts.iter().map(String::len).sum();
        Ok(Docs {
            paths,
            texts,
            bytes,
        })
    }
}

/// Per-layer metrics by name, printed as one JSON object.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, v)| {
                if v.is_finite() {
                    format!("\"{name}\":{v}")
                } else {
                    format!("\"{name}\":null")
                }
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The nearest-rank median of `values`.
fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    values[values.len().div_ceil(2) - 1]
}

/// Runs `f` `n` times; returns the last result and the median seconds.
/// Each result is dropped outside the timed interval.
fn timed<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let started = Instant::now();
        let out = black_box(f());
        times.push(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    (last.expect("at least one repetition"), median(&mut times))
}

/// Calls `f(i)` for `i = 0, 1, ...`: at least `min` times, at most `max`
/// times, and no more once `budget` has passed.
fn bounded(
    min: usize,
    max: usize,
    budget: Duration,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    for i in 0..max {
        if i >= min && started.elapsed() >= budget {
            break;
        }
        f(i)?;
    }
    Ok(())
}

fn mb_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

fn no_xsd_options() -> XsdOptions {
    XsdOptions {
        numeric_threshold: None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args)?;
    let base = Docs::load(&opts.corpus, 'b')?;
    let stream = Docs::load(&opts.corpus, 's')?;
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    let mut m = Metrics::default();
    xml_layers(&base, &stream, &mut m)?;
    let warm = engine_layers(&base, &mut m)?;
    let dtd = derive_layers(&warm, &mut m);
    state_layers(&warm, &dtd, &base, &stream, &mut m)?;
    journal_layers(&opts.work, &warm, &stream, &mut m)?;
    // The replays run on a thread of their own, so that their allocations
    // come from a fresh malloc arena, as in a serve worker, and not from
    // the main arena the layer measurements above have churned.
    let tracer = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut replay = Replay::new(&opts.work, &base, &stream, &warm)?;
                for _ in 0..BATCH_REPLAYS {
                    replay.batch()?;
                }
                for _ in 0..REFRESH_REPLAYS {
                    replay.refresh()?;
                }
                bounded(MIX_MIN, MIX_MAX, MIX_BUDGET, |_| replay.mix_iteration())?;
                replay.finish(&mut m)
            })
            .join()
            .expect("the replay thread does not panic")
    })?;
    std::fs::write(&opts.trace_out, tracer.chrome_json())
        .map_err(|e| format!("{}: {e}", opts.trace_out.display()))?;
    println!("{}", m.json());
    Ok(())
}

/// Parsing and the two corpus extractors, over the in-memory documents.
fn xml_layers(base: &Docs, stream: &Docs, m: &mut Metrics) -> Result<(), String> {
    let (events, secs) = timed(REPS, || {
        let mut events = 0usize;
        for doc in base.texts.iter().chain(&stream.texts) {
            let mut parser = XmlPullParser::new(doc);
            while let Some(event) = parser.next().map_err(|e| e.to_string())? {
                black_box(&event);
                events += 1;
            }
        }
        Ok::<usize, String>(events)
    });
    events?;
    m.set("xml.parse_mb_s", mb_s(base.bytes + stream.bytes, secs));

    let (corpus, secs) = timed(REPS, || {
        let mut corpus = Corpus::new();
        for doc in &base.texts {
            corpus.add_document(doc).map_err(|e| e.to_string())?;
        }
        Ok::<Corpus, String>(corpus)
    });
    let corpus = corpus?;
    m.set("xml.extract_mb_s", mb_s(base.bytes, secs));

    let (contextual, secs) = timed(REPS, || {
        let mut corpus = ContextualCorpus::new();
        for doc in &base.texts {
            corpus.add_document(doc).map_err(|e| e.to_string())?;
        }
        Ok::<ContextualCorpus, String>(corpus)
    });
    contextual?;
    m.set("xml.contextual_mb_s", mb_s(base.bytes, secs));

    for (name, engine) in [
        ("xml.infer_ms.idtd", InferenceEngine::Idtd),
        ("xml.infer_ms.auto", InferenceEngine::Auto),
    ] {
        let (_, secs) = timed(REPS, || infer_dtd_with_stats(&corpus, engine));
        m.set(name, ms(secs));
    }
    Ok(())
}

/// File reads, absorption and sharded ingestion; returns the warm state
/// (the base absorbed sequentially).
fn engine_layers(base: &Docs, m: &mut Metrics) -> Result<EngineState, String> {
    let source = PathSource::new(base.paths.clone());
    let (read, secs) = timed(REPS, || {
        let mut buf = String::new();
        let mut read = 0usize;
        for i in 0..source.len() {
            read += source.load(i, &mut buf)?.len();
        }
        Ok::<usize, String>(read)
    });
    if read? != base.bytes {
        return Err("PathSource read a different corpus than the benchmark wrote".to_owned());
    }
    m.set("engine.source_mb_s", mb_s(base.bytes, secs));

    let absorb_all = || {
        let mut state = EngineState::new();
        let mut arena = ParseArena::new();
        for doc in &base.texts {
            state
                .absorb_document_with(doc, &mut arena)
                .map_err(|e| e.to_string())?;
        }
        Ok::<EngineState, String>(state)
    };
    let (warm, secs) = timed(REPS, absorb_all);
    let warm = warm?;
    m.set("engine.absorb_mb_s", mb_s(base.bytes, secs));

    for (name, jobs) in [("engine.ingest_mb_s.j1", 1), ("engine.ingest_mb_s.j2", 2)] {
        let mut merges = Vec::new();
        let mut busy = Vec::new();
        let mut skew = Vec::new();
        let (ingested, secs) = timed(REPS, || {
            let ingested = ingest(&base.texts, jobs).map_err(|e| e.to_string())?;
            if jobs == 2 {
                let shards = &ingested.shards;
                let mean_busy =
                    shards.iter().map(|s| s.busy_ns as f64).sum::<f64>() / shards.len() as f64;
                let max_busy = shards.iter().map(|s| s.busy_ns).max().unwrap_or(0) as f64;
                merges.push(ingested.merge_ns as f64);
                busy.push(
                    shards.iter().map(|s| s.utilization_pct()).sum::<f64>() / shards.len() as f64,
                );
                skew.push(max_busy / mean_busy);
            }
            Ok::<(), String>(())
        });
        ingested?;
        m.set(name, mb_s(base.bytes, secs));
        if jobs == 2 {
            m.set("engine.merge_ms", median(&mut merges) / 1e6);
            m.set("engine.shard_busy_pct", median(&mut busy));
            m.set("engine.shard_skew", median(&mut skew));
        }
    }
    Ok(warm)
}

/// Canonicalization, derivation per engine, and the learner counts;
/// returns the warm state's iDTD schema.
fn derive_layers(warm: &EngineState, m: &mut Metrics) -> Dtd {
    let (_, secs) = timed(STATE_REPS, || warm.canonicalized());
    m.set("engine.canonicalize_ms", ms(secs));
    let learn_ms =
        |reports: &[ElementReport]| reports.iter().map(|r| r.duration_ns as f64).sum::<f64>() / 1e6;

    let mut learn = Vec::new();
    let ((dtd, reports), secs) = timed(REPS, || {
        let out = warm.derive(InferenceEngine::Idtd);
        learn.push(learn_ms(&out.1));
        out
    });
    m.set("engine.derive_ms.idtd", ms(secs));
    m.set("core.learn_ms.idtd", median(&mut learn));
    let sum = |f: fn(&ElementReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
    m.set("core.rewrite_steps", sum(|r| r.rewrite_steps));
    m.set("core.repairs", sum(|r| r.repairs));
    m.set("core.fallbacks", sum(|r| r.fallbacks));
    m.set("core.dtd_tokens", sum(|r| r.expr_size));

    let mut learn = Vec::new();
    let mut slowest = Vec::new();
    let ((_, reports), secs) = timed(REPS, || {
        let out = warm.derive(InferenceEngine::Auto);
        learn.push(learn_ms(&out.1));
        slowest.push(out.1.iter().map(|r| r.duration_ns).max().unwrap_or(0) as f64 / 1e6);
        out
    });
    m.set("engine.derive_ms.auto", ms(secs));
    m.set("core.learn_ms.auto", median(&mut learn));
    m.set("core.max_element_ms.auto", median(&mut slowest));
    for (name, pick) in [
        ("core.auto_picks.sore", "auto-sore"),
        ("core.auto_picks.kore", "auto-kore"),
        ("core.auto_picks.chare", "auto-chare"),
    ] {
        m.set(
            name,
            reports.iter().filter(|r| r.engine == pick).count() as f64,
        );
    }

    m.set("engine.elements", warm.elements.len() as f64);
    let words = warm.elements.values().map(|e| &e.words);
    m.set(
        "engine.distinct_words",
        words.clone().map(|w| w.distinct()).sum::<usize>() as f64,
    );
    m.set(
        "engine.total_words",
        words.map(|w| w.total()).sum::<u64>() as f64,
    );
    dtd
}

/// Snapshots, XSD generation, validation and schema diffs.
fn state_layers(
    warm: &EngineState,
    dtd: &Dtd,
    base: &Docs,
    stream: &Docs,
    m: &mut Metrics,
) -> Result<(), String> {
    let (text, secs) = timed(STATE_REPS, || snapshot::save(warm));
    m.set("engine.snapshot_save_ms", ms(secs));
    m.set("engine.snapshot_bytes", text.len() as f64);
    let (loaded, secs) = timed(STATE_REPS, || snapshot::load(&text));
    loaded?;
    m.set("engine.snapshot_load_ms", ms(secs));

    let (facts, secs) = timed(STATE_REPS, || warm.facts_corpus());
    m.set("engine.facts_corpus_ms", ms(secs));
    let (_, secs) = timed(STATE_REPS, || {
        generate_xsd(dtd, Some(&facts), no_xsd_options())
    });
    m.set("xml.xsd_ms", ms(secs));

    let mut validate_us = Vec::new();
    bounded(20, base.texts.len(), Duration::from_secs(1), |i| {
        let started = Instant::now();
        let violations = dtd
            .validate_structured(&base.texts[i])
            .map_err(|e| e.to_string())?;
        validate_us.push(started.elapsed().as_secs_f64() * 1e6);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "base document {i} is invalid against the learned DTD"
            ))
        }
    })?;
    m.set("xml.validate_us", median(&mut validate_us));

    // One schema diff per ingest of a stream document, as serve does.
    let mut state = warm.clone();
    let mut before = dtd.clone();
    let mut diff_ms = Vec::new();
    bounded(5, stream.texts.len().min(50), Duration::from_secs(1), |i| {
        state
            .absorb_document(&stream.texts[i])
            .map_err(|e| e.to_string())?;
        let after = state.derive(InferenceEngine::Idtd).0;
        let started = Instant::now();
        black_box(diff(&before, &after));
        diff_ms.push(ms(started.elapsed().as_secs_f64()));
        before = after;
        Ok(())
    })?;
    m.set("xml.diff_ms", median(&mut diff_ms));
    Ok(())
}

/// Journal append, recovery and compaction in a session store.
fn journal_layers(
    work: &Path,
    warm: &EngineState,
    stream: &Docs,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = work.join("journal");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut store = Store::new(&dir, "bench");
    let (compacted, secs) = timed(REPS, || store.compact(warm));
    compacted?;
    m.set("engine.journal_compact_ms", ms(secs));

    let mut append_us = Vec::new();
    for (i, doc) in stream.texts.iter().cycle().take(APPENDS).enumerate() {
        let started = Instant::now();
        store.append(doc, warm.num_documents + i as u64)?;
        append_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    m.set("engine.journal_append_us", median(&mut append_us));

    // Recovery: the warm snapshot plus RECOVER_RECORDS journal records.
    store.compact(warm)?;
    for (i, doc) in stream
        .texts
        .iter()
        .cycle()
        .take(RECOVER_RECORDS)
        .enumerate()
    {
        store.append(doc, warm.num_documents + i as u64)?;
    }
    let (recovered, secs) = timed(REPS, || Store::new(&dir, "bench").recover());
    if recovered?.replayed != RECOVER_RECORDS as u64 {
        return Err("journal recovery replayed the wrong number of records".to_owned());
    }
    m.set("engine.journal_recover_ms", ms(secs));
    Ok(())
}

/// Bulk-loads `base` into `session` the way the benchmark's client does:
/// NDXML requests of at most BULK_BYTES each.
fn bulk_ingest(session: &mut Session, base: &Docs) -> Result<(), String> {
    let compact_min = ServeConfig::default().compact_min_bytes;
    let mut chunk: Vec<&str> = Vec::new();
    let mut size = 0;
    for doc in &base.texts {
        if size + doc.len() + 1 > BULK_BYTES && !chunk.is_empty() {
            session.ingest(&chunk, compact_min)?;
            chunk.clear();
            size = 0;
        }
        chunk.push(doc);
        size += doc.len() + 1;
    }
    if !chunk.is_empty() {
        session.ingest(&chunk, compact_min)?;
    }
    Ok(())
}

/// The scenario replays, recorded as spans.
struct Replay<'a> {
    tr: Tracer,
    base: &'a Docs,
    stream: &'a Docs,
    engine: InferenceEngine,
    compact_min: u64,
    source: PathSource,
    refresh_batch: PathSource,
    base_snap: PathBuf,
    snap: PathBuf,
    /// A warm serve session rebuilt from public calls, which the mix
    /// replay updates call by call inside spans.
    store: Store,
    state: EngineState,
    before: Dtd,
    /// A warm serve session, timed whole for the `serve.*` metrics.
    session: Session,
    mixed: usize,
    parse_us: Vec<f64>,
    ingest_ms: Vec<f64>,
    validate_us: Vec<f64>,
    xsd_ms: Vec<f64>,
}

impl<'a> Replay<'a> {
    fn new(
        work: &Path,
        base: &'a Docs,
        stream: &'a Docs,
        warm: &EngineState,
    ) -> Result<Self, String> {
        let config = ServeConfig::default();
        let base_snap = work.join("replay-base.snap");
        std::fs::write(&base_snap, snapshot::save(warm)).map_err(|e| e.to_string())?;
        let replica = work.join("replica");
        let live = work.join("session");
        for dir in [&replica, &live] {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut store = Store::new(&replica, "replica");
        let state = warm.clone();
        store.compact(&state)?;
        let before = state.derive(config.engine).0;
        let (mut session, _) = Session::open(&live, "bench", config.engine)?;
        bulk_ingest(&mut session, base)?;
        Ok(Replay {
            tr: Tracer::new(),
            base,
            stream,
            engine: config.engine,
            compact_min: config.compact_min_bytes,
            source: PathSource::new(base.paths.clone()),
            refresh_batch: PathSource::new(
                stream.paths.iter().take(REFRESH_BATCH).cloned().collect(),
            ),
            base_snap,
            snap: work.join("replay.snap"),
            store,
            state,
            before,
            session,
            mixed: 0,
            parse_us: Vec::new(),
            ingest_ms: Vec::new(),
            validate_us: Vec::new(),
            xsd_ms: Vec::new(),
        })
    }

    /// `dtdinfer infer BASE...`: read each file and extract it, then infer
    /// and serialize (the CLI's default path).
    fn batch(&mut self) -> Result<(), String> {
        let tr = &mut self.tr;
        let root = tr.request("scenario.batch");
        let mut corpus = Corpus::new();
        let mut buf = String::new();
        for i in 0..self.source.len() {
            let doc = tr.span("engine.source_load", || self.source.load(i, &mut buf))?;
            tr.span("xml.extract", || corpus.add_document(doc))
                .map_err(|e| e.to_string())?;
        }
        let id = tr.begin("xml.infer_dtd");
        let (dtd, reports) = infer_dtd_with_stats(&corpus, InferenceEngine::Idtd);
        tr.end_derive(id, &reports);
        black_box(tr.span("xml.serialize", || dtd.serialize()));
        tr.end(root);
        Ok(())
    }

    /// `dtdinfer snapshot update SNAP BATCH` then `dtdinfer snapshot load
    /// SNAP`, on a fresh copy of the base snapshot. The file reads and
    /// writes stay outside every span, as file I/O.
    fn refresh(&mut self) -> Result<(), String> {
        std::fs::copy(&self.base_snap, &self.snap).map_err(|e| e.to_string())?;
        let tr = &mut self.tr;
        let root = tr.request("scenario.refresh");
        let text = std::fs::read_to_string(&self.snap).map_err(|e| e.to_string())?;
        let state = tr.span("engine.snapshot_load", || snapshot::load(&text))?;
        let ingested = tr
            .span("engine.ingest", || {
                ingest_source(state, &self.refresh_batch, 1)
            })
            .map_err(|e| e.to_string())?;
        let text = tr.span("engine.snapshot_save", || snapshot::save(&ingested.state));
        std::fs::write(&self.snap, text).map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(&self.snap).map_err(|e| e.to_string())?;
        let state = tr.span("engine.snapshot_load", || snapshot::load(&text))?;
        let id = tr.begin("engine.derive");
        let (dtd, reports) = state.derive(self.engine);
        tr.end_derive(id, &reports);
        black_box(tr.span("xml.serialize", || dtd.serialize()));
        tr.end(root);
        Ok(())
    }

    /// One mix iteration: ingest one stream document and validate one
    /// base document, and every XSD_EVERY-th iteration read the XSD back --
    /// once on the traced replica, call by call as `Session::ingest` makes
    /// the calls, and once on the real session, timed whole.
    fn mix_iteration(&mut self) -> Result<(), String> {
        let i = self.mixed;
        self.mixed += 1;
        let doc = self.stream.texts[i % self.stream.texts.len()].as_str();
        let probe = self.base.texts[i % self.base.texts.len()].as_str();
        let tr = &mut self.tr;
        let (store, state) = (&mut self.store, &mut self.state);

        let root = tr.request("scenario.ingest");
        tr.span("serve.parse_check", || parse_check(doc))?;
        tr.span("engine.journal_append", || {
            store.append(doc, state.num_documents)
        })?;
        tr.span("engine.absorb", || state.absorb_document(doc))
            .map_err(|e| e.to_string())?;
        let id = tr.begin("engine.derive");
        let (after, reports) = state.derive(self.engine);
        tr.end_derive(id, &reports);
        black_box(tr.span("xml.diff", || classify_drift(&diff(&self.before, &after))));
        if store.wants_compaction(self.compact_min) {
            tr.span("engine.journal_compact", || store.compact(state))?;
        }
        self.before = after;
        tr.end(root);

        let root = tr.request("scenario.validate");
        let violations = tr
            .span("xml.validate", || self.before.validate_structured(probe))
            .map_err(|e| e.to_string())?;
        tr.end(root);
        if !violations.is_empty() {
            return Err(format!(
                "the replica rejects base document {}",
                i % self.base.texts.len()
            ));
        }
        if i.is_multiple_of(XSD_EVERY) {
            let root = tr.request("scenario.xsd");
            let facts = tr.span("engine.facts_corpus", || state.facts_corpus());
            black_box(tr.span("xml.xsd", || {
                generate_xsd(&self.before, Some(&facts), no_xsd_options())
            }));
            tr.end(root);
        }

        let session = &mut self.session;
        let started = Instant::now();
        parse_check(doc)?;
        self.parse_us.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        session.ingest(&[doc], self.compact_min)?;
        self.ingest_ms.push(ms(started.elapsed().as_secs_f64()));
        let started = Instant::now();
        let violations = session
            .dtd()
            .validate_structured(probe)
            .map_err(|e| e.to_string())?;
        self.validate_us.push(started.elapsed().as_secs_f64() * 1e6);
        if !violations.is_empty() {
            return Err(format!(
                "the session rejects base document {}",
                i % self.base.texts.len()
            ));
        }
        let started = Instant::now();
        black_box(session.xsd());
        self.xsd_ms.push(ms(started.elapsed().as_secs_f64()));
        Ok(())
    }

    /// Sets the `serve.*` metrics from the mix samples; returns the spans.
    fn finish(mut self, m: &mut Metrics) -> Result<Tracer, String> {
        m.set("serve.parse_check_us", median(&mut self.parse_us));
        m.set("serve.session_ingest_ms", median(&mut self.ingest_ms));
        m.set("serve.session_validate_us", median(&mut self.validate_us));
        m.set("serve.session_xsd_ms", median(&mut self.xsd_ms));
        Ok(self.tr)
    }
}
