//! The `dtdinfer` command-line tool.
//!
//! ```text
//! dtdinfer infer [--engine crx|idtd|idtd-noise:<N>|kore|auto] [--jobs N] [--xsd] [--numeric <N>] FILE...
//! dtdinfer stats [--engine ...] [--jobs N] FILE...  (per-element derivation report)
//! dtdinfer snapshot save|load|update     (persist engine state, warm-start)
//! dtdinfer validate --dtd SCHEMA.dtd FILE...
//! dtdinfer fuzz [--seed S] [--cases N] [--replay CASE]
//! dtdinfer sample [--count N] [--seed S] 'EXPRESSION'
//! dtdinfer learn [--engine ...] [--state FILE]  (words on stdin)
//! ```
//!
//! `infer`, `stats`, and `learn` also accept the observability flags
//! `--metrics <FILE|->`, `--trace <FILE|->`, `--trace-format jsonl|chrome`,
//! and `-v`/`--verbose`; see the README's Observability section.

use dtdinfer_engine::pool::{ingest_source, Ingest};
use dtdinfer_engine::snapshot;
use dtdinfer_engine::source::PathSource;
use dtdinfer_regex::alphabet::{Alphabet, Word};
use dtdinfer_regex::multiset::WordBag;
use dtdinfer_xml::dtd::Dtd;
use dtdinfer_xml::extract::Corpus;
use dtdinfer_xml::infer::{infer_dtd_with_stats, learn_model, ElementReport, InferenceEngine};
use dtdinfer_xml::xsd::{generate_xsd, XsdOptions};
use std::io::Read;
use std::process::ExitCode;

/// Counting allocator for `--metrics` memory accounting. Only installed
/// when built with `--features alloc-count`; default builds keep the
/// plain system allocator and pay nothing.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: dtdinfer_obs::alloc::CountingAlloc = dtdinfer_obs::alloc::CountingAlloc;

/// The observability flags shared by `infer`, `stats`, and `learn`.
#[derive(Debug, Default)]
struct ObsOptions {
    /// `--metrics <FILE|->`: write the metrics snapshot.
    metrics: Option<String>,
    /// `--metrics-format json|openmetrics`: snapshot serialization
    /// (default json; openmetrics is the Prometheus text exposition that
    /// `serve`'s `/metrics` endpoint also speaks). `None` when the flag
    /// was not given, so a lone `--metrics-format` can be rejected.
    metrics_format: Option<MetricsFormat>,
    /// `--trace <FILE|->`: write the span/event trace.
    trace: Option<String>,
    /// `--trace-format jsonl|chrome`: trace serialization (default jsonl;
    /// chrome is the trace-event JSON loadable in Perfetto). `None` when
    /// the flag was not given, so a lone `--trace-format` can be rejected.
    trace_format: Option<TraceFormat>,
    /// `--timeseries <FILE|->`: sample the registry on an interval while
    /// the command runs and write the series as JSON.
    timeseries: Option<String>,
    /// `--timeseries-interval <MS>`: sampling interval (default 100 ms).
    timeseries_interval_ms: Option<u64>,
    /// `-v` / `--verbose`: human-oriented progress and counter summary on
    /// stderr.
    verbose: bool,
    /// The background sampler, running between activate and finish.
    sampler: Option<dtdinfer_obs::timeseries::Sampler>,
}

/// How `--trace` output is serialized.
#[derive(Debug, PartialEq)]
enum TraceFormat {
    /// One JSON object per line — the crate's native format.
    Jsonl,
    /// Chrome trace-event JSON array (Perfetto / `chrome://tracing`).
    Chrome,
}

/// How `--metrics` output is serialized.
#[derive(Debug, PartialEq)]
enum MetricsFormat {
    /// One JSON object (the crate's stable snapshot form).
    Json,
    /// OpenMetrics / Prometheus text exposition.
    OpenMetrics,
}

impl ObsOptions {
    /// Tries to consume `a` (and its value from `it`) as an observability
    /// flag. Returns whether the flag was recognized.
    fn take(&mut self, a: &str, it: &mut std::slice::Iter<'_, String>) -> Result<bool, String> {
        match a {
            "--metrics" => {
                self.metrics = Some(
                    it.next()
                        .ok_or("--metrics needs a file argument (or -)")?
                        .to_owned(),
                );
                Ok(true)
            }
            "--trace" => {
                self.trace = Some(
                    it.next()
                        .ok_or("--trace needs a file argument (or -)")?
                        .to_owned(),
                );
                Ok(true)
            }
            "--trace-format" => {
                self.trace_format = Some(match it.next().map(String::as_str) {
                    Some("jsonl") => TraceFormat::Jsonl,
                    Some("chrome") => TraceFormat::Chrome,
                    Some(other) => {
                        return Err(format!(
                            "unknown trace format {other:?} (expected jsonl or chrome)"
                        ));
                    }
                    None => return Err("--trace-format needs a value (jsonl or chrome)".to_owned()),
                });
                Ok(true)
            }
            "--metrics-format" => {
                self.metrics_format = Some(match it.next().map(String::as_str) {
                    Some("json") => MetricsFormat::Json,
                    Some("openmetrics") => MetricsFormat::OpenMetrics,
                    Some(other) => {
                        return Err(format!(
                            "unknown metrics format {other:?} (expected json or openmetrics)"
                        ));
                    }
                    None => {
                        return Err(
                            "--metrics-format needs a value (json or openmetrics)".to_owned()
                        )
                    }
                });
                Ok(true)
            }
            "--timeseries" => {
                self.timeseries = Some(
                    it.next()
                        .ok_or("--timeseries needs a file argument (or -)")?
                        .to_owned(),
                );
                Ok(true)
            }
            "--timeseries-interval" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--timeseries-interval needs a value in milliseconds")?
                    .parse()
                    .map_err(|e| format!("bad --timeseries-interval: {e}"))?;
                if ms == 0 {
                    return Err("--timeseries-interval must be at least 1 ms".to_owned());
                }
                self.timeseries_interval_ms = Some(ms);
                Ok(true)
            }
            "-v" | "--verbose" => {
                self.verbose = true;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Validates flag combinations and turns recording on (cleanly) when
    /// any flag asked for it. Also starts the background timeseries
    /// sampler when `--timeseries` was given, and allocator accounting
    /// whenever metrics are on (a no-op unless the binary was built with
    /// the `alloc-count` feature).
    fn activate(&mut self) -> Result<(), String> {
        if self.trace_format.is_some() && self.trace.is_none() {
            return Err("--trace-format requires --trace".to_owned());
        }
        if self.metrics_format.is_some() && self.metrics.is_none() {
            return Err("--metrics-format requires --metrics".to_owned());
        }
        if self.timeseries_interval_ms.is_some() && self.timeseries.is_none() {
            return Err("--timeseries-interval requires --timeseries".to_owned());
        }
        let metrics = self.metrics.is_some() || self.verbose || self.timeseries.is_some();
        let trace = self.trace.is_some();
        if metrics || trace {
            dtdinfer_obs::enable(metrics, trace);
            dtdinfer_obs::reset();
        }
        if metrics {
            dtdinfer_obs::alloc::enable();
        }
        if self.timeseries.is_some() {
            let interval = self.timeseries_interval_ms.unwrap_or(100);
            self.sampler = Some(dtdinfer_obs::timeseries::start(
                dtdinfer_obs::timeseries::SamplerConfig {
                    interval: std::time::Duration::from_millis(interval),
                    ..Default::default()
                },
            ));
        }
        Ok(())
    }

    /// Emits everything recorded since [`ObsOptions::activate`] and turns
    /// recording back off. Fixed emission order: the trace block first,
    /// then the timeseries, the metrics output last — so when several
    /// share stdout with the DTD, a consumer always finds the metrics
    /// (one JSON line, or an `# EOF`-terminated exposition) at the end.
    fn finish(&mut self) -> Result<(), String> {
        let series = self
            .sampler
            .take()
            .map(dtdinfer_obs::timeseries::Sampler::stop);
        // Only a binary with its own counting allocator has `alloc.*`
        // figures; elsewhere the gauges would read 0 as if measured.
        if cfg!(feature = "alloc-count") && dtdinfer_obs::metrics_enabled() {
            dtdinfer_obs::alloc::publish_gauges();
        }
        if self.verbose {
            eprint!("{}", dtdinfer_obs::snapshot().render_text());
        }
        if let Some(target) = &self.trace {
            let entries = dtdinfer_obs::take_trace();
            let out = match self.trace_format {
                Some(TraceFormat::Chrome) => format!("{}\n", dtdinfer_obs::chrome_trace(&entries)),
                Some(TraceFormat::Jsonl) | None => {
                    let mut out = String::new();
                    for entry in &entries {
                        out.push_str(&entry.json());
                        out.push('\n');
                    }
                    out
                }
            };
            write_output(target, &out)?;
        }
        if let (Some(target), Some(series)) = (&self.timeseries, series) {
            write_output(target, &format!("{}\n", series.json()))?;
        }
        if let Some(target) = &self.metrics {
            let snap = dtdinfer_obs::snapshot();
            let out = match self.metrics_format {
                Some(MetricsFormat::OpenMetrics) => dtdinfer_obs::openmetrics::openmetrics(&snap),
                Some(MetricsFormat::Json) | None => format!("{}\n", snap.json()),
            };
            write_output(target, &out)?;
        }
        dtdinfer_obs::alloc::disable();
        dtdinfer_obs::disable();
        Ok(())
    }
}

/// Writes to a file, or to stdout when `target` is `-`.
fn write_output(target: &str, content: &str) -> Result<(), String> {
    if target == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(target, content).map_err(|e| format!("{target}: {e}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("infer") => cmd_infer(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("sample") => cmd_sample(&args[1..]),
        Some("learn") => cmd_learn(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("omlint") => cmd_omlint(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?} (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dtdinfer: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "dtdinfer — inference of concise DTDs from XML data (VLDB 2006)

USAGE:
  dtdinfer infer [OPTIONS] FILE...      infer a DTD for the given XML files
      --engine E                        learner: crx, idtd,
                                        idtd-noise:<N>, kore, auto
                                        (default: idtd)
      --xsd                             emit an XML Schema instead of a DTD
      --contextual                      XSD-strength typing: content models
                                        may depend on the parent element
      --numeric <N>                     tighten ?/+/* to numeric bounds
                                        (unbounded above N occurrences);
                                        requires --xsd
      --jobs <N>                        shard the corpus across N worker
                                        threads; output is byte-identical
                                        for every N
  dtdinfer stats [OPTIONS] FILE...      per-element derivation report:
                                        engine used, sample size, repairs,
                                        expression size, time
      --engine E                        learner: crx, idtd,
                                        idtd-noise:<N>, kore, auto
                                        (default: idtd)
      --jobs <N>                        shard ingestion; also prints a
                                        per-shard summary, merge time, and
                                        a per-worker utilization table
  dtdinfer snapshot save --out SNAP [--jobs N] FILE...
                                        ingest XML and persist the engine
                                        state as a versioned snapshot
  dtdinfer snapshot load [--engine E] [--xsd] SNAP
                                        derive a DTD (or XSD) from a
                                        snapshot without re-reading XML
  dtdinfer snapshot update [--jobs N] SNAP FILE...
                                        warm start: absorb more documents
                                        into a snapshot and rewrite it
  dtdinfer validate --dtd S.dtd FILE... validate XML files against a DTD
      --lint                            also check the DTD itself for
                                        non-deterministic content models
      --format human|json               witness output format (default
                                        human; json emits the structured
                                        violations the serve daemon's
                                        validate endpoint also speaks)
  dtdinfer serve --data-dir DIR [OPTS]  run the multi-tenant inference
                                        daemon: POST documents into named
                                        schema sessions, GET the evolving
                                        DTD/XSD, validate against it, and
                                        stream schema-drift events as SSE;
                                        sessions are journaled to DIR and
                                        survive restarts (kill -9 safe)
      --addr <HOST:PORT>                bind address (default 127.0.0.1:7700)
      --engine E                        learner: crx, idtd,
                                        idtd-noise:<N>, kore, auto
                                        (default: idtd)
      --workers <N>                     request worker threads (default 4)
      --max-sessions <N>                tenant cap, 429 past it (default 64)
      --max-body-bytes <N>              request body cap, 413 (default 8 MiB)
      --max-session-bytes <N>           per-session disk cap, 413
                                        (default 256 MiB)
      --compact-min-bytes <N>           journal size that triggers
                                        compaction (default 64 KiB)
      --queue-depth <N>                 connection queue bound, 503 when
                                        full (default 64)
      --access-log <FILE|->             append one JSON line per request
                                        (id, method, route, status, bytes,
                                        duration, queue wait, session)
      --flight-capacity <N>             flight-recorder ring size; the ring
                                        is dumped to DIR/flight-<pid>.json
                                        on panic and shutdown (default 256)
      --debug-panic                     enable POST /debug/panic (crash
                                        drill for testing the recorder)
  dtdinfer fuzz [OPTIONS] [CASE...]     closed-loop differential fuzzing:
                                        random DTDs, sampled corpora, a
                                        metamorphic oracle battery, and
                                        automatic case reduction; exits
                                        nonzero on any oracle violation
      --seed <S>                        master seed (default 0); the whole
                                        run is deterministic in the seed
      --cases <N>                       cases to run (default 100)
      --time-budget <SECS>              stop early after this much wall
                                        clock (forfeits determinism)
      --corpus-dir <DIR>                where reduced failing cases are
                                        persisted (default fuzz/corpus)
      --engine <E>                      focus generation on one engine:
                                        kore/auto fuzz repeating-symbol
                                        grammars only (full battery runs
                                        either way)
      --replay <CASE>                   re-run the oracle battery on a
                                        persisted case file instead of
                                        fuzzing (bare arguments work too)
  dtdinfer sample [OPTIONS] 'EXPR'      generate words from an expression
      --count <N>                       number of words (default 10)
      --seed <S>                        RNG seed (default 0)
  dtdinfer learn [OPTIONS]              learn an expression from words on
                                        stdin (one word per line, symbols
                                        whitespace-separated)
      --engine E                        learner: crx, idtd,
                                        idtd-noise:<N>, kore, auto
                                        (default: idtd)
      --state FILE                      incremental mode: learn from the
                                        words saved in FILE plus stdin's,
                                        then save them all to FILE
  dtdinfer explain                      like learn --engine idtd, but print
                                        the full rewrite/repair derivation
                                        (Figure 3 of the paper)
  dtdinfer dot 'EXPR'                   Graphviz rendering of the SOA of an
                                        expression
  dtdinfer diff FIRST.dtd SECOND.dtd    compare two DTDs element by element
                                        (schema cleaning: find where the
                                        second is stricter/looser)
  dtdinfer profile [OPTIONS] FILE...    critical-path profile of a full run:
                                        per-phase self time, the longest
                                        span chain, the top-k hottest
                                        elements, and a folded-stack file
                                        for flamegraph tooling
      --engine E                        learner: crx, idtd,
                                        idtd-noise:<N>, kore, auto
                                        (default: idtd)
      --jobs <N>                        shard ingestion across N workers
      --top <K>                         hottest elements to list (default 10)
      --folded <FILE>                   folded-stack output
                                        (default profile.folded)
  dtdinfer omlint [FILE|-]              validate an OpenMetrics exposition
                                        (as written by --metrics-format
                                        openmetrics); also asserts the
                                        allocator counters are monotone
      --require-labels <FAMILY>         fail unless the exposition has at
                                        least one labeled sample of this
                                        family (repeatable)

OBSERVABILITY (infer, stats, snapshot, learn, fuzz):
      --metrics <FILE|->                write pipeline counters and timing
                                        histograms
      --metrics-format json|openmetrics metrics serialization (default json;
                                        openmetrics is the Prometheus text
                                        exposition; requires --metrics)
      --timeseries <FILE|->             sample the metrics registry on an
                                        interval while the run is live and
                                        write the series as JSON
      --timeseries-interval <MS>        sampling interval in milliseconds
                                        (default 100; requires --timeseries)
      --trace <FILE|->                  write spans and events as JSON lines
      --trace-format jsonl|chrome       trace serialization; chrome emits
                                        trace-event JSON for Perfetto /
                                        chrome://tracing (requires --trace)
      -v, --verbose                     progress and counter summary on
                                        stderr
      When several streams share stdout the order is trace, timeseries,
      then metrics, so the metrics payload is always the final block.
      Allocator gauges (alloc.live/peak/total bytes) appear when the
      binary is built with --features alloc-count."
    );
}

fn parse_engine(spec: &str) -> Result<InferenceEngine, String> {
    match spec {
        "crx" => Ok(InferenceEngine::Crx),
        "idtd" => Ok(InferenceEngine::Idtd),
        "kore" => Ok(InferenceEngine::Kore),
        "auto" => Ok(InferenceEngine::Auto),
        other => match other.strip_prefix("idtd-noise:") {
            Some(n) => n
                .parse::<u64>()
                .map(|threshold| InferenceEngine::IdtdNoise { threshold })
                .map_err(|e| format!("bad noise threshold: {e}")),
            None => Err(format!("unknown engine {other:?}")),
        },
    }
}

fn cmd_infer(args: &[String]) -> Result<(), String> {
    let mut engine = InferenceEngine::Idtd;
    let mut xsd = false;
    let mut contextual = false;
    let mut numeric: Option<u32> = None;
    let mut jobs: Option<usize> = None;
    let mut obs = ObsOptions::default();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                engine = parse_engine(v)?;
            }
            "--xsd" => xsd = true,
            "--contextual" => contextual = true,
            "--numeric" => {
                let v = it.next().ok_or("--numeric needs a value")?;
                numeric = Some(v.parse().map_err(|e| format!("bad --numeric: {e}"))?);
            }
            "--jobs" => jobs = Some(parse_jobs(it.next())?),
            a if obs.take(a, &mut it)? => {}
            f if f.starts_with('-') => {
                return Err(format!("unknown option {f:?} (try --help)"));
            }
            f => files.push(f.to_owned()),
        }
    }
    if files.is_empty() {
        return Err("no input files".to_owned());
    }
    if numeric.is_some() && !xsd {
        return Err("--numeric requires --xsd".to_owned());
    }
    if contextual && jobs.is_some() {
        return Err("--contextual does not support --jobs yet".to_owned());
    }
    if contextual && numeric.is_some() {
        return Err("--contextual does not support --numeric".to_owned());
    }
    obs.activate()?;
    if contextual {
        // Context-aware (XSD-strength) inference: one type per
        // (parent, element) context, merged when language-equal.
        let mut corpus = dtdinfer_xml::contextual::ContextualCorpus::new();
        for f in &files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            corpus
                .add_document(&text)
                .map_err(|e| format!("{f}: {e}"))?;
            if obs.verbose {
                eprintln!("dtdinfer: parsed {f}");
            }
        }
        let schema = dtdinfer_xml::contextual::infer_contextual(&corpus, engine);
        if xsd {
            print!("{}", dtdinfer_xml::contextual::contextual_xsd(&schema));
        } else {
            print!("{}", schema.render());
            if schema.requires_xsd() {
                eprintln!(
                    "note: this corpus needs XSD typing (an element has context-dependent content)"
                );
            }
        }
        return obs.finish();
    }
    let ingested = stream_ingest(Corpus::new(), &files, jobs.unwrap_or(1), &obs)?;
    let xsd = xsd.then_some(XsdOptions {
        numeric_threshold: numeric,
    });
    print_schema(&ingested.state, engine, xsd, obs.verbose);
    obs.finish()
}

/// Derives the schema of `state` inside the `engine.derive` span that
/// `--metrics`, `--trace` and `profile` report.
fn derive(state: &Corpus, engine: InferenceEngine) -> (Dtd, Vec<ElementReport>) {
    let _span = dtdinfer_obs::span("engine.derive");
    infer_dtd_with_stats(state, engine)
}

/// Derives the schema of `state` and prints it: the DTD, or with `xsd`
/// the XSD, whose datatypes and numeric bounds come from the same corpus.
/// With `verbose`, each element's derivation goes to stderr first.
fn print_schema(state: &Corpus, engine: InferenceEngine, xsd: Option<XsdOptions>, verbose: bool) {
    let (dtd, reports) = derive(state, engine);
    if verbose {
        for r in &reports {
            eprintln!(
                "dtdinfer: element {} engine={} words={} repairs={} in {}",
                r.name,
                r.engine,
                r.words,
                r.repairs,
                fmt_ns(r.duration_ns)
            );
        }
    }
    match xsd {
        Some(options) => print!("{}", generate_xsd(&dtd, Some(state), options)),
        None => print!("{}", dtd.serialize()),
    }
}

fn parse_jobs(value: Option<&String>) -> Result<usize, String> {
    let jobs: usize = value
        .ok_or("--jobs needs a value")?
        .parse()
        .map_err(|e| format!("bad --jobs: {e}"))?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".to_owned());
    }
    Ok(jobs)
}

/// Streams the input files through the sharded engine: workers read,
/// parse, and drop each document themselves, so no file is resident
/// before a worker claims it and peak memory is O(jobs · max document).
/// Errors carry the file name straight from the source.
fn stream_ingest(
    base: Corpus,
    files: &[String],
    jobs: usize,
    obs: &ObsOptions,
) -> Result<Ingest, String> {
    if obs.verbose {
        eprintln!(
            "dtdinfer: streaming {} file(s) across {jobs} worker(s)",
            files.len()
        );
    }
    let source = PathSource::new(files.iter().map(std::path::PathBuf::from).collect());
    let ingested = ingest_source(base, &source, jobs).map_err(|e| e.to_string())?;
    if obs.verbose {
        eprintln!(
            "dtdinfer: peak in flight {} byte(s) across {} document(s)",
            ingested.peak_bytes_in_flight, ingested.peak_docs_in_flight
        );
    }
    Ok(ingested)
}

/// Adaptive duration rendering for report tables (ns → µs → ms → s).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{} µs", ns / 1_000),
        10_000_000..=9_999_999_999 => format!("{} ms", ns / 1_000_000),
        _ => format!("{:.2} s", ns as f64 / 1e9),
    }
}

/// `dtdinfer stats FILE...` — the per-element derivation report.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let mut engine = InferenceEngine::Idtd;
    let mut jobs: Option<usize> = None;
    let mut obs = ObsOptions::default();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                engine = parse_engine(v)?;
            }
            "--jobs" => jobs = Some(parse_jobs(it.next())?),
            a if obs.take(a, &mut it)? => {}
            f if f.starts_with('-') => {
                return Err(format!("unknown option {f:?} (try --help)"));
            }
            f => files.push(f.to_owned()),
        }
    }
    if files.is_empty() {
        return Err("no input files".to_owned());
    }
    obs.activate()?;
    let ingested = stream_ingest(Corpus::new(), &files, jobs.unwrap_or(1), &obs)?;
    let (_, reports) = derive(&ingested.state, engine);
    print_stats(ingested.state.num_documents, &reports);
    if jobs.is_some() {
        print_shards(&ingested);
    }
    obs.finish()
}

/// The per-shard ingestion summary and worker utilization table for
/// `stats --jobs N`.
fn print_shards(ingested: &Ingest) {
    for s in &ingested.shards {
        println!(
            "shard {}: {} document(s), {} word(s), ingest {}",
            s.shard,
            s.documents,
            s.words,
            fmt_ns(s.duration_ns)
        );
    }
    println!("shard merge {}", fmt_ns(ingested.merge_ns));
    println!(
        "peak in flight: {} byte(s), {} doc(s)",
        ingested.peak_bytes_in_flight, ingested.peak_docs_in_flight
    );
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>7} {:>12} {:>7}",
        "worker", "documents", "bytes", "busy", "wall", "claims", "idle polls", "util"
    );
    for s in &ingested.shards {
        println!(
            "{:<8} {:>10} {:>10} {:>12} {:>12} {:>7} {:>12} {:>6.1}%",
            s.shard,
            s.documents,
            s.bytes,
            fmt_ns(s.busy_ns),
            fmt_ns(s.duration_ns),
            s.claims,
            s.idle_polls,
            s.utilization_pct()
        );
    }
}

fn print_stats(num_documents: u64, reports: &[ElementReport]) {
    println!(
        "{:<24} {:>8} {:>7} {:>9} {:>8} {:>5} {:>10}",
        "element", "engine", "words", "rewrites", "repairs", "size", "time"
    );
    let mut total_ns = 0u64;
    for r in reports {
        let engine = if r.fallbacks > 0 {
            // Flag derivations that needed the merge-everything fallback.
            format!("{}!", r.engine)
        } else {
            r.engine.to_owned()
        };
        println!(
            "{:<24} {:>8} {:>7} {:>9} {:>8} {:>5} {:>10}",
            r.name,
            engine,
            r.words,
            r.rewrite_steps,
            r.repairs,
            r.expr_size,
            fmt_ns(r.duration_ns)
        );
        total_ns += r.duration_ns;
    }
    println!(
        "{num_documents} document(s), {} element(s), inference {}",
        reports.len(),
        fmt_ns(total_ns)
    );
}

/// `dtdinfer snapshot save|load|update` — persist engine state (§9:
/// the learner's internal representation is its complete memory) and
/// warm-start later runs from it.
fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("save") => cmd_snapshot_save(&args[1..]),
        Some("load") => cmd_snapshot_load(&args[1..]),
        Some("update") => cmd_snapshot_update(&args[1..]),
        _ => Err("usage: dtdinfer snapshot save|load|update ... (try --help)".to_owned()),
    }
}

/// `dtdinfer snapshot save --out SNAP [--jobs N] FILE...`
fn cmd_snapshot_save(args: &[String]) -> Result<(), String> {
    let mut out: Option<String> = None;
    let mut jobs = 1usize;
    let mut obs = ObsOptions::default();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.to_owned()),
            "--jobs" => jobs = parse_jobs(it.next())?,
            a if obs.take(a, &mut it)? => {}
            f if f.starts_with('-') => {
                return Err(format!("unknown option {f:?} (try --help)"));
            }
            f => files.push(f.to_owned()),
        }
    }
    let out = out.ok_or("--out is required")?;
    if files.is_empty() {
        return Err("no input files".to_owned());
    }
    obs.activate()?;
    let ingested = stream_ingest(Corpus::new(), &files, jobs, &obs)?;
    save_snapshot(&ingested.state, &out)?;
    obs.finish()
}

/// Writes `state` to the snapshot file `path` and reports its size.
fn save_snapshot(state: &Corpus, path: &str) -> Result<(), String> {
    let text = snapshot::save(state);
    std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} document(s), {} element(s), {} bytes",
        state.num_documents,
        state.elements.len(),
        text.len()
    );
    Ok(())
}

/// Reads and parses a snapshot file.
fn read_snapshot(path: &str) -> Result<Corpus, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    snapshot::load(&text).map_err(|e| format!("{path}: {e}"))
}

/// `dtdinfer snapshot load [--engine E] [--xsd] SNAP` — derive a schema
/// from persisted state without re-reading any XML.
fn cmd_snapshot_load(args: &[String]) -> Result<(), String> {
    let mut engine = InferenceEngine::Idtd;
    let mut xsd = false;
    let mut obs = ObsOptions::default();
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                engine = parse_engine(v)?;
            }
            "--xsd" => xsd = true,
            a if obs.take(a, &mut it)? => {}
            f if f.starts_with('-') => {
                return Err(format!("unknown option {f:?} (try --help)"));
            }
            f => paths.push(f.to_owned()),
        }
    }
    let [path] = paths.as_slice() else {
        return Err("exactly one snapshot file is required".to_owned());
    };
    obs.activate()?;
    let state = read_snapshot(path)?;
    print_schema(&state, engine, xsd.then(XsdOptions::default), false);
    obs.finish()
}

/// `dtdinfer snapshot update [--jobs N] SNAP FILE...` — warm start:
/// absorb more documents into persisted state and write it back.
fn cmd_snapshot_update(args: &[String]) -> Result<(), String> {
    let mut jobs = 1usize;
    let mut obs = ObsOptions::default();
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => jobs = parse_jobs(it.next())?,
            a if obs.take(a, &mut it)? => {}
            f if f.starts_with('-') => {
                return Err(format!("unknown option {f:?} (try --help)"));
            }
            f => paths.push(f.to_owned()),
        }
    }
    let [snap, files @ ..] = paths.as_slice() else {
        return Err("usage: dtdinfer snapshot update [--jobs N] SNAP FILE...".to_owned());
    };
    if files.is_empty() {
        return Err("no input files to absorb".to_owned());
    }
    obs.activate()?;
    let base = read_snapshot(snap)?;
    let ingested = stream_ingest(base, files, jobs, &obs)?;
    save_snapshot(&ingested.state, snap)?;
    obs.finish()
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let mut dtd_path: Option<String> = None;
    let mut lint = false;
    let mut json = false;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dtd" => dtd_path = Some(it.next().ok_or("--dtd needs a value")?.to_owned()),
            "--lint" => lint = true,
            "--format" => match it.next().ok_or("--format needs a value")?.as_str() {
                "json" => json = true,
                "human" => json = false,
                other => return Err(format!("unknown format {other:?} (human or json)")),
            },
            f if f.starts_with('-') => {
                return Err(format!("unknown option {f:?} (try --help)"));
            }
            f => files.push(f.to_owned()),
        }
    }
    let dtd_path = dtd_path.ok_or("--dtd is required")?;
    let dtd_text = std::fs::read_to_string(&dtd_path).map_err(|e| format!("{dtd_path}: {e}"))?;
    let dtd = Dtd::parse(&dtd_text).map_err(|e| e.to_string())?;
    if lint {
        let issues = dtd.lint();
        for issue in &issues {
            // With --format json stdout is reserved for the JSON document.
            if json {
                eprintln!("{dtd_path}: {issue}");
            } else {
                println!("{dtd_path}: {issue}");
            }
        }
        if files.is_empty() {
            return if issues.is_empty() {
                if !json {
                    println!("DTD is deterministic (XML-spec conformant)");
                }
                Ok(())
            } else {
                Err(format!("{} lint issue(s)", issues.len()))
            };
        }
    }
    let mut total_violations = 0usize;
    let mut json_files = String::new();
    for (i, f) in files.iter().enumerate() {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        if json {
            // Same serializer as the serve daemon's validate endpoint
            // (`violations_json`), wrapped in a per-file envelope.
            let violations = dtd
                .validate_structured(&text)
                .map_err(|e| format!("{f}: {e}"))?;
            if i > 0 {
                json_files.push(',');
            }
            json_files.push_str("\n{\"file\":");
            dtdinfer_obs::json::write_string(&mut json_files, f);
            json_files.push_str(",\"valid\":");
            json_files.push_str(if violations.is_empty() {
                "true"
            } else {
                "false"
            });
            json_files.push_str(",\"violations\":");
            json_files.push_str(&dtdinfer_xml::dtd::violations_json(&violations));
            json_files.push('}');
            total_violations += violations.len();
        } else {
            let violations = dtd.validate(&text).map_err(|e| format!("{f}: {e}"))?;
            for v in &violations {
                println!("{f}: {v}");
            }
            total_violations += violations.len();
        }
    }
    if json {
        println!("{{\"files\":[{json_files}\n],\"total_violations\":{total_violations}}}");
    }
    if total_violations == 0 {
        if !json {
            println!("all {} document(s) valid", files.len());
        }
        Ok(())
    } else {
        Err(format!("{total_violations} violation(s)"))
    }
}

/// `dtdinfer serve` — boot the multi-tenant inference daemon and block
/// until SIGINT/SIGTERM or `POST /shutdown`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = dtdinfer_serve::ServeConfig::default();
    let mut data_dir: Option<String> = None;
    let mut obs = ObsOptions::default();
    fn num(it: &mut std::slice::Iter<'_, String>, what: &str) -> Result<u64, String> {
        it.next()
            .ok_or(format!("{what} needs a value"))?
            .parse()
            .map_err(|e| format!("bad {what}: {e}"))
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = it.next().ok_or("--addr needs a value")?.to_owned(),
            "--data-dir" => {
                data_dir = Some(it.next().ok_or("--data-dir needs a value")?.to_owned())
            }
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                config.engine = parse_engine(v)?;
            }
            "--workers" => config.workers = num(&mut it, "--workers")? as usize,
            "--max-sessions" => config.max_sessions = num(&mut it, "--max-sessions")? as usize,
            "--max-body-bytes" => {
                config.max_body_bytes = num(&mut it, "--max-body-bytes")? as usize;
            }
            "--max-session-bytes" => {
                config.max_session_bytes = num(&mut it, "--max-session-bytes")?
            }
            "--compact-min-bytes" => {
                config.compact_min_bytes = num(&mut it, "--compact-min-bytes")?
            }
            "--queue-depth" => config.queue_depth = num(&mut it, "--queue-depth")? as usize,
            "--access-log" => {
                config.access_log = Some(std::path::PathBuf::from(
                    it.next().ok_or("--access-log needs a value")?,
                ));
            }
            "--flight-capacity" => {
                config.flight_capacity = num(&mut it, "--flight-capacity")? as usize
            }
            "--debug-panic" => config.debug_panic = true,
            a if obs.take(a, &mut it)? => {}
            f => return Err(format!("unknown option {f:?} (try --help)")),
        }
    }
    config.data_dir = std::path::PathBuf::from(data_dir.ok_or("--data-dir is required")?);
    // The sampler's ring is bounded (capacity + exact drop accounting), so
    // --timeseries is safe even though serve runs indefinitely; the
    // sampler thread is joined in finish() after the daemon stops.
    obs.activate()?;
    let stopped = dtdinfer_serve::run(config, |addr| {
        eprintln!("dtdinfer serve: listening on http://{addr}");
    })?;
    eprintln!("dtdinfer serve: {stopped}");
    obs.finish()
}

/// `dtdinfer fuzz` — closed-loop differential fuzzing: random target DTDs,
/// sampled corpora, the full oracle battery, automatic case reduction.
fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let mut cfg = dtdinfer_fuzz::FuzzConfig::default();
    let mut replay: Vec<String> = Vec::new();
    let mut obs = ObsOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                cfg.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--cases" => {
                cfg.cases = it
                    .next()
                    .ok_or("--cases needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --cases: {e}"))?;
            }
            "--time-budget" => {
                let secs: f64 = it
                    .next()
                    .ok_or("--time-budget needs a value in seconds")?
                    .parse()
                    .map_err(|e| format!("bad --time-budget: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--time-budget must be a positive number of seconds".to_owned());
                }
                cfg.time_budget = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--corpus-dir" => {
                cfg.corpus_dir =
                    std::path::PathBuf::from(it.next().ok_or("--corpus-dir needs a value")?);
            }
            "--engine" => {
                cfg.engine = Some(it.next().ok_or("--engine needs a value")?.to_owned());
            }
            "--replay" => replay.push(it.next().ok_or("--replay needs a case file")?.to_owned()),
            // Hidden: inject a known-wrong oracle so the reduce/persist
            // path can be exercised end to end (see EXPERIMENTS.md).
            "--plant-bug" => {
                cfg.planted = Some(dtdinfer_fuzz::PlantedBug::parse(
                    it.next().ok_or("--plant-bug needs a value")?,
                )?);
            }
            a if obs.take(a, &mut it)? => {}
            f if f.starts_with('-') => {
                return Err(format!("unknown option {f:?} (try --help)"));
            }
            // Bare arguments are treated as case files to replay, so
            // `dtdinfer fuzz fuzz/corpus/*.case` just works.
            f => replay.push(f.to_owned()),
        }
    }
    obs.activate()?;
    if !replay.is_empty() {
        let mut total = 0usize;
        for path in &replay {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let (case, result) =
                dtdinfer_fuzz::replay_file(&text).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "{path}: seed {} case {} ({}, {} doc(s)): {}",
                case.seed,
                case.case,
                case.oracle,
                case.docs.len(),
                if result.violations.is_empty() {
                    "clean"
                } else {
                    "FAIL"
                }
            );
            for v in &result.violations {
                println!("{path}: [{}] {}", v.oracle, v.detail);
            }
            total += result.violations.len();
        }
        obs.finish()?;
        return if total == 0 {
            Ok(())
        } else {
            Err(format!("{total} violation(s) on replay"))
        };
    }
    let report = dtdinfer_fuzz::run(&cfg)?;
    print!("{}", report.render_text());
    obs.finish()?;
    if report.total_violations() == 0 {
        Ok(())
    } else {
        Err(format!("{} oracle violation(s)", report.total_violations()))
    }
}

/// `dtdinfer profile FILE...` — critical-path profiling: run the full
/// ingest + derivation with tracing on, then post-process the spans into
/// per-phase self-time, the critical path, and the top-k hottest
/// elements by inference cost, plus a folded-stack file for flamegraph
/// tooling.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut engine = InferenceEngine::Idtd;
    let mut jobs = 1usize;
    let mut top = 10usize;
    let mut folded = "profile.folded".to_owned();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                engine = parse_engine(v)?;
            }
            "--jobs" => jobs = parse_jobs(it.next())?,
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --top: {e}"))?;
            }
            "--folded" => folded = it.next().ok_or("--folded needs a file")?.to_owned(),
            f if f.starts_with('-') => {
                return Err(format!("unknown option {f:?} (try --help)"));
            }
            f => files.push(f.to_owned()),
        }
    }
    if files.is_empty() {
        return Err("no input files".to_owned());
    }
    // Profiling *is* the observability request: recording is always on.
    dtdinfer_obs::enable(true, true);
    dtdinfer_obs::reset();
    dtdinfer_obs::alloc::enable();
    let quiet = ObsOptions::default();
    let ingested = stream_ingest(Corpus::new(), &files, jobs, &quiet)?;
    let (_, mut reports) = {
        let _span = dtdinfer_obs::span("derive");
        derive(&ingested.state, engine)
    };
    let alloc = dtdinfer_obs::alloc::stats();
    let trace = dtdinfer_obs::take_trace();
    dtdinfer_obs::alloc::disable();
    dtdinfer_obs::disable();

    let forest = dtdinfer_obs::profile::build_forest(&trace);
    let path = dtdinfer_obs::profile::critical_path(&forest);
    println!("critical path (longest span chain, wall-clock bound):");
    println!("{:<32} {:>6} {:>12} {:>12}", "phase", "tid", "wall", "self");
    for step in &path {
        println!(
            "{:<32} {:>6} {:>12} {:>12}",
            format!("{}{}", "  ".repeat(step.depth), step.name),
            step.tid,
            fmt_ns(step.dur_ns),
            fmt_ns(step.self_ns)
        );
    }
    println!();
    println!("phases by self time:");
    println!(
        "{:<32} {:>7} {:>12} {:>12} {:>12}",
        "phase", "count", "total", "self", "max"
    );
    for stat in dtdinfer_obs::profile::phase_stats(&forest) {
        println!(
            "{:<32} {:>7} {:>12} {:>12} {:>12}",
            stat.name,
            stat.count,
            fmt_ns(stat.total_ns),
            fmt_ns(stat.self_ns),
            fmt_ns(stat.max_ns)
        );
    }
    println!();
    println!("top {top} elements by inference cost:");
    println!(
        "{:<24} {:>8} {:>7} {:>5} {:>10}",
        "element", "engine", "words", "size", "time"
    );
    reports.sort_by(|a, b| b.duration_ns.cmp(&a.duration_ns).then(a.name.cmp(&b.name)));
    for r in reports.iter().take(top) {
        println!(
            "{:<24} {:>8} {:>7} {:>5} {:>10}",
            r.name,
            r.engine,
            r.words,
            r.expr_size,
            fmt_ns(r.duration_ns)
        );
    }
    // Gate on this crate's feature: it alone installs the counting
    // allocator above, whatever features `dtdinfer-obs` was built with.
    if cfg!(feature = "alloc-count") {
        println!();
        println!(
            "allocator: peak {} byte(s), total {} byte(s) over {} allocation(s)",
            alloc.peak_bytes, alloc.total_bytes, alloc.allocations
        );
    }
    let stacks = dtdinfer_obs::profile::folded_stacks(&forest);
    if stacks.is_empty() {
        return Err("trace produced no spans to fold".to_owned());
    }
    std::fs::write(&folded, &stacks).map_err(|e| format!("{folded}: {e}"))?;
    println!();
    println!(
        "folded stacks: {folded} ({} line(s)) — feed to flamegraph.pl / inferno / speedscope",
        stacks.lines().count()
    );
    Ok(())
}

/// `dtdinfer omlint [FILE|-]` — validate OpenMetrics text exposition (as
/// produced by `--metrics-format openmetrics`): syntax, TYPE
/// declarations, the `# EOF` terminator, and the allocator-counter
/// invariant live ≤ peak ≤ total when those gauges are present.
/// `--require-labels FAMILY` (repeatable) additionally fails unless the
/// exposition contains at least one *labeled* sample of that family —
/// the scrape-side check that a daemon's per-route series are present.
fn cmd_omlint(args: &[String]) -> Result<(), String> {
    let mut target: Option<String> = None;
    let mut required_labeled: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require-labels" => required_labeled.push(
                it.next()
                    .ok_or("--require-labels needs a family name")?
                    .clone(),
            ),
            f if f.starts_with("--") => {
                return Err(format!("unknown option {f:?} (try --help)"));
            }
            f => {
                if target.replace(f.to_owned()).is_some() {
                    return Err(
                        "usage: dtdinfer omlint [--require-labels FAMILY]... [FILE|-]".to_owned(),
                    );
                }
            }
        }
    }
    let target = target.unwrap_or_else(|| "-".to_owned());
    let text = if target == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(&target).map_err(|e| format!("{target}: {e}"))?
    };
    dtdinfer_obs::openmetrics::validate(&text).map_err(|e| format!("invalid exposition: {e}"))?;
    let mut families = 0usize;
    let mut samples = 0usize;
    let mut labeled = 0usize;
    let mut labeled_families: std::collections::BTreeSet<String> =
        std::collections::BTreeSet::new();
    let mut alloc: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for line in text.lines() {
        if line.starts_with("# TYPE ") {
            families += 1;
        } else if !line.starts_with('#') && !line.trim().is_empty() {
            samples += 1;
            if let Some(brace) = line.find('{') {
                labeled += 1;
                labeled_families.insert(line[..brace].to_owned());
            }
            if let Some((name, value)) = line.split_once(' ') {
                if matches!(
                    name,
                    "alloc_live_bytes" | "alloc_peak_bytes" | "alloc_total_bytes"
                ) {
                    alloc.insert(name, value.trim().parse().unwrap_or(f64::NAN));
                }
            }
        }
    }
    for family in &required_labeled {
        // Histogram families expose their samples with suffixes
        // (_count/_sum) and quantile labels, so accept any labeled
        // sample whose name starts with the required family.
        let found = labeled_families
            .iter()
            .any(|f| f == family || f.starts_with(family.as_str()));
        if !found {
            return Err(format!(
                "required labeled family {family:?} has no labeled samples"
            ));
        }
    }
    if let (Some(&live), Some(&peak)) =
        (alloc.get("alloc_live_bytes"), alloc.get("alloc_peak_bytes"))
    {
        if live > peak {
            return Err(format!(
                "allocator counters not monotone: live {live} > peak {peak}"
            ));
        }
        if let Some(&total) = alloc.get("alloc_total_bytes") {
            if peak > total {
                return Err(format!(
                    "allocator counters not monotone: peak {peak} > total {total}"
                ));
            }
        }
    }
    println!("OK: {families} famil(ies), {samples} sample(s), {labeled} labeled");
    Ok(())
}

fn cmd_sample(args: &[String]) -> Result<(), String> {
    let mut count = 10usize;
    let mut seed = 0u64;
    let mut expr: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--count" => {
                count = it
                    .next()
                    .ok_or("--count needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --count: {e}"))?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            e if e.starts_with('-') => {
                return Err(format!("unknown option {e:?} (try --help)"));
            }
            e => expr = Some(e.to_owned()),
        }
    }
    let expr = expr.ok_or("an expression argument is required")?;
    let mut al = Alphabet::new();
    let r = dtdinfer_regex::parser::parse(&expr, &mut al).map_err(|e| e.to_string())?;
    for w in dtdinfer_gen::generator::generate_sample(&r, count, seed) {
        println!("{}", al.render_word(&w, " "));
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    if !args.is_empty() {
        return Err("explain takes no options; words are read from stdin".into());
    }
    let mut al = Alphabet::new();
    let words = read_words(&mut al)?;
    let soa = dtdinfer_automata::soa::Soa::learn(&words);
    println!(
        "2T-INF: SOA with {} states, {} edges",
        soa.num_states(),
        soa.num_edges()
    );
    let (model, trace) =
        dtdinfer_core::idtd::idtd_traced(&soa, dtdinfer_core::idtd::IdtdConfig::default());
    for (i, event) in trace.iter().enumerate() {
        match event {
            dtdinfer_core::idtd::Event::Rewrite(step) => {
                let operands: Vec<String> = step
                    .operands
                    .iter()
                    .map(|r| dtdinfer_regex::display::render(r, &al))
                    .collect();
                println!(
                    "({:>2}) {:<14} {}  ⇒  {}",
                    i + 1,
                    step.rule.name(),
                    operands.join(" , "),
                    dtdinfer_regex::display::render(&step.result, &al)
                );
            }
            dtdinfer_core::idtd::Event::Repair {
                kind,
                k,
                edges_added,
            } => {
                println!(
                    "({:>2}) {:<14} k={k}, {edges_added} edge(s) added",
                    i + 1,
                    kind.name()
                );
            }
            dtdinfer_core::idtd::Event::Fallback => {
                println!("({:>2}) fallback: merge-everything", i + 1);
            }
        }
    }
    println!("result: {}", model.render(&al));
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let expr = args.first().ok_or("an expression argument is required")?;
    let mut al = Alphabet::new();
    let r = dtdinfer_regex::parser::parse(expr, &mut al).map_err(|e| e.to_string())?;
    let soa = dtdinfer_automata::glushkov::soa_of_sore(&r)
        .ok_or("expression is not single occurrence (no SOA exists)")?;
    print!("{}", soa.to_dot(&al));
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let [first, second] = args else {
        return Err("usage: dtdinfer diff FIRST.dtd SECOND.dtd".into());
    };
    let a = Dtd::parse(&std::fs::read_to_string(first).map_err(|e| format!("{first}: {e}"))?)
        .map_err(|e| e.to_string())?;
    let b = Dtd::parse(&std::fs::read_to_string(second).map_err(|e| format!("{second}: {e}"))?)
        .map_err(|e| e.to_string())?;
    for d in dtdinfer_xml::diff::diff(&a, &b) {
        println!("{:<24} {}", d.name, d.relation);
    }
    Ok(())
}

/// Reads stdin as words, one per line with whitespace-separated symbols,
/// interning the symbols into `al` in order of appearance.
fn read_words(al: &mut Alphabet) -> Result<Vec<Word>, String> {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| e.to_string())?;
    Ok(input
        .lines()
        .map(|line| line.split_whitespace().map(|t| al.intern(t)).collect())
        .collect())
}

/// `dtdinfer learn`: one model from the words on stdin. With `--state`
/// the counted words of earlier runs are loaded first (§9: the memory is
/// the word multiset, from which every learner is rebuilt), and the file
/// is rewritten with stdin's words added. Loading first gives every name
/// the symbol one run over all the words would give it, so where the
/// stream was split cannot change a tie.
fn cmd_learn(args: &[String]) -> Result<(), String> {
    let mut engine = InferenceEngine::Idtd;
    let mut state_path: Option<String> = None;
    let mut obs = ObsOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => engine = parse_engine(it.next().ok_or("--engine needs a value")?)?,
            "--state" => state_path = Some(it.next().ok_or("--state needs a value")?.to_owned()),
            a if obs.take(a, &mut it)? => {}
            other => return Err(format!("unknown option {other:?} (try --help)")),
        }
    }
    obs.activate()?;
    let (mut al, mut bag): (Alphabet, WordBag) = match &state_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => snapshot::load_words(&text).map_err(|e| format!("{path}: {e}"))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Default::default(),
            Err(e) => return Err(format!("{path}: {e}")),
        },
        None => Default::default(),
    };
    for w in read_words(&mut al)? {
        bag.insert(w);
    }
    if let Some(path) = &state_path {
        std::fs::write(path, snapshot::save_words(&al, &bag))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", learn_model(&bag, al.len(), engine).model.render(&al));
    obs.finish()
}
