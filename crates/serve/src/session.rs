//! One schema session: a named, journaled, warm incremental engine state.
//!
//! A session is the daemon's unit of tenancy. Each wraps an
//! [`EngineState`] (each element's counted child-word multiset, value
//! reservoirs and occurrence count, no raw corpus) plus a [`Store`]
//! whose snapshot and journal make every acknowledged ingest durable:
//! the journal record is flushed to the OS *before* the document is
//! absorbed, so a `kill -9` after the HTTP 200 never loses data. The
//! derived DTD lives in a [`Derivation`] beside the state, so an ingest
//! re-learns only the elements its documents touched; each ingest
//! request is classified against the previous schema with the DFA-based
//! diff and broadcast to SSE subscribers as one drift event.

use crate::http;
use dtdinfer_engine::journal::Store;
use dtdinfer_engine::EngineState;
use dtdinfer_obs::json::{write_key, write_string};
use dtdinfer_xml::diff::{diff, ElementDiff, Relation};
use dtdinfer_xml::dtd::Dtd;
use dtdinfer_xml::infer::{Derivation, InferenceEngine};
use dtdinfer_xml::parser::XmlPullParser;
use dtdinfer_xml::xsd::{generate_xsd, XsdOptions};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// How an ingest request moved a session's schema, as one word. The
/// per-element [`Relation`]s are folded: any incomparable element (or
/// movement in both directions) makes the whole step incomparable; an
/// element disappearing is stricter; one appearing is looser.
pub fn classify_drift(diffs: &[ElementDiff]) -> &'static str {
    let mut stricter = false;
    let mut looser = false;
    for d in diffs {
        match d.relation {
            Relation::Equal => {}
            Relation::Stricter | Relation::OnlyInFirst => stricter = true,
            Relation::Looser | Relation::OnlyInSecond => looser = true,
            Relation::Incomparable => return "incomparable",
        }
    }
    match (stricter, looser) {
        (true, true) => "incomparable",
        (true, false) => "stricter",
        (false, true) => "looser",
        (false, false) => "equal",
    }
}

/// Checks that `doc` parses end to end *without* touching engine state.
///
/// `EngineState::absorb_document` mutates the state as it streams, so a
/// document that fails mid-parse would leave a half-absorbed poisoned
/// session. Ingest therefore dry-runs the zero-copy parser first and only
/// journals + absorbs documents that are known to parse.
pub fn parse_check(doc: &str) -> Result<(), String> {
    let mut parser = XmlPullParser::new(doc);
    loop {
        match parser.next() {
            Ok(Some(_)) => {}
            Ok(None) => return Ok(()),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// The outcome of one ingest request, for the response body and the
/// drift event.
pub struct IngestOutcome {
    /// Documents absorbed by this request.
    pub ingested: u64,
    /// The drift classification word.
    pub relation: &'static str,
    /// Per-element changes (non-equal relations only).
    pub changed: Vec<ElementDiff>,
    /// Event sequence number assigned to this ingest.
    pub seq: u64,
}

/// A named schema session.
pub struct Session {
    /// The session name (validated `[A-Za-z0-9_-]{1,64}`).
    pub name: String,
    /// The warm incremental engine state.
    pub state: EngineState,
    /// Snapshot + journal persistence.
    pub store: Store,
    /// The schema derived from `state` by the session's learner, brought
    /// up to date element by element.
    derivation: Derivation,
    /// Open SSE subscriber streams; dead ones are dropped on write error.
    pub subscribers: Vec<TcpStream>,
    /// Monotone event sequence for SSE `id:` lines.
    pub event_seq: u64,
}

impl Session {
    /// Opens the session named `name` under `dir`: recovers snapshot +
    /// journal when backing files exist, otherwise starts empty. Returns
    /// the session and how many journal records were replayed.
    pub fn open(dir: &Path, name: &str, engine: InferenceEngine) -> Result<(Session, u64), String> {
        let mut store = Store::new(dir, name);
        let (state, replayed) = if store.exists() {
            let recovered = store.recover()?;
            (recovered.state, recovered.replayed)
        } else {
            (EngineState::new(), 0)
        };
        Ok((
            Session {
                name: name.to_owned(),
                state,
                store,
                derivation: Derivation::new(engine),
                subscribers: Vec::new(),
                event_seq: 0,
            },
            replayed,
        ))
    }

    /// The current derived DTD. The first call after `open` derives every
    /// element; later calls re-learn only what changed, usually nothing.
    pub fn dtd(&mut self) -> &Dtd {
        self.derivation.update(&self.state);
        self.derivation.dtd()
    }

    /// The current schema as an XSD (same rendering as
    /// `dtdinfer infer --xsd --jobs N`).
    pub fn xsd(&mut self) -> String {
        self.derivation.update(&self.state);
        generate_xsd(
            self.derivation.dtd(),
            Some(&self.state.corpus),
            XsdOptions {
                numeric_threshold: None,
            },
        )
    }

    /// Whether the session holds journaled state a shutdown flush should
    /// compact into a fresh snapshot.
    pub fn dirty(&self) -> bool {
        self.store.journal_records() > 0
    }

    /// Ingests a batch of pre-parse-checked documents: journal first (one
    /// record per document, durable before the HTTP 200), then absorb,
    /// re-learn the elements the documents touched, classify the schema
    /// movement and broadcast one drift event. Compacts afterwards when
    /// the journal has outgrown the snapshot.
    pub fn ingest(
        &mut self,
        docs: &[&str],
        compact_min_bytes: u64,
    ) -> Result<IngestOutcome, String> {
        let before = self.dtd().clone();
        for doc in docs {
            self.store.append(doc, self.state.num_documents)?;
            self.state
                .absorb_document(doc)
                .map_err(|e| format!("absorb failed after parse check: {e}"))?;
        }
        let diffs = diff(&before, self.dtd());
        let relation = classify_drift(&diffs);
        let changed: Vec<ElementDiff> = diffs
            .into_iter()
            .filter(|d| d.relation != Relation::Equal)
            .collect();
        self.event_seq += 1;
        let outcome = IngestOutcome {
            ingested: docs.len() as u64,
            relation,
            changed,
            seq: self.event_seq,
        };
        self.broadcast(&drift_event(&self.name, &outcome, self.state.num_documents));
        if self.store.wants_compaction(compact_min_bytes) {
            self.store.compact(&self.state)?;
        }
        dtdinfer_obs::gauge_with(
            "serve.session.documents",
            &[("session", self.name.as_str())],
            self.state.num_documents,
        );
        dtdinfer_obs::gauge_with(
            "serve.session.disk_bytes",
            &[("session", self.name.as_str())],
            self.store.disk_bytes(),
        );
        Ok(outcome)
    }

    /// Flushes journaled state into a fresh snapshot (graceful-shutdown
    /// path). Returns whether anything was written.
    pub fn flush(&mut self) -> Result<bool, String> {
        if !self.dirty() {
            return Ok(false);
        }
        self.store.compact(&self.state)?;
        Ok(true)
    }

    /// Adopts `stream` as an SSE subscriber (the HTTP response head and
    /// greeting have already been written).
    pub fn subscribe(&mut self, stream: TcpStream) {
        // A dead or glacial subscriber must not stall ingest for everyone
        // else in the session: bound each event write.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
        self.subscribers.push(stream);
        dtdinfer_obs::count("serve.sse.subscribed", 1);
    }

    /// Writes one pre-rendered SSE frame to every subscriber, dropping
    /// the ones whose sockets have died.
    pub fn broadcast(&mut self, frame: &str) {
        if self.subscribers.is_empty() {
            return;
        }
        let mut kept = Vec::with_capacity(self.subscribers.len());
        for mut stream in self.subscribers.drain(..) {
            let ok = stream.write_all(frame.as_bytes()).is_ok() && stream.flush().is_ok();
            if ok {
                kept.push(stream);
            } else {
                dtdinfer_obs::count("serve.sse.dropped", 1);
            }
        }
        dtdinfer_obs::count("serve.sse.events", 1);
        self.subscribers = kept;
    }

    /// One row of the `GET /sessions` listing.
    pub fn describe(&self) -> String {
        let mut out = String::from("{");
        write_key(&mut out, "name");
        write_string(&mut out, &self.name);
        out.push(',');
        write_key(&mut out, "documents");
        out.push_str(&self.state.num_documents.to_string());
        out.push(',');
        write_key(&mut out, "disk_bytes");
        out.push_str(&self.store.disk_bytes().to_string());
        out.push(',');
        write_key(&mut out, "journal_records");
        out.push_str(&self.store.journal_records().to_string());
        out.push(',');
        write_key(&mut out, "subscribers");
        out.push_str(&self.subscribers.len().to_string());
        out.push('}');
        out
    }
}

/// Renders the JSON payload shared by the ingest response body and the
/// SSE drift event.
pub fn ingest_json(name: &str, outcome: &IngestOutcome, documents: u64) -> String {
    let mut out = String::from("{");
    write_key(&mut out, "session");
    write_string(&mut out, name);
    out.push(',');
    write_key(&mut out, "seq");
    out.push_str(&outcome.seq.to_string());
    out.push(',');
    write_key(&mut out, "ingested");
    out.push_str(&outcome.ingested.to_string());
    out.push(',');
    write_key(&mut out, "documents");
    out.push_str(&documents.to_string());
    out.push(',');
    write_key(&mut out, "relation");
    write_string(&mut out, outcome.relation);
    out.push(',');
    write_key(&mut out, "changed");
    out.push('[');
    for (i, d) in outcome.changed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        write_key(&mut out, "element");
        write_string(&mut out, &d.name);
        out.push(',');
        write_key(&mut out, "relation");
        write_string(&mut out, &relation_word(d.relation));
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// The wire word for a per-element relation (kebab-case, no spaces).
fn relation_word(r: Relation) -> String {
    match r {
        Relation::OnlyInFirst => "removed".to_owned(),
        Relation::OnlyInSecond => "added".to_owned(),
        other => other.to_string(),
    }
}

/// One SSE frame for a drift event.
pub fn drift_event(name: &str, outcome: &IngestOutcome, documents: u64) -> String {
    format!(
        "event: drift\nid: {}\ndata: {}\n\n",
        outcome.seq,
        ingest_json(name, outcome, documents)
    )
}

/// Renders the validation endpoint / CLI JSON envelope around the shared
/// `violations_json` serializer.
pub fn validation_json(violations: &[dtdinfer_xml::dtd::Violation]) -> String {
    let mut out = String::from("{");
    write_key(&mut out, "valid");
    out.push_str(if violations.is_empty() {
        "true"
    } else {
        "false"
    });
    out.push(',');
    write_key(&mut out, "violations");
    out.push_str(&dtdinfer_xml::dtd::violations_json(violations));
    out.push('}');
    out
}

/// Splits an ingest body into documents: one document per request by
/// default, newline-delimited XML (one complete document per non-empty
/// line) when the request says so.
pub fn split_batch(req: &http::Request, body: &str) -> Vec<String> {
    let ndxml = req.query_param("mode") == Some("ndxml")
        || req
            .header("content-type")
            .is_some_and(|v| v.to_ascii_lowercase().contains("ndxml"));
    if ndxml {
        body.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_owned)
            .collect()
    } else {
        vec![body.to_owned()]
    }
}

/// Whether `name` is a safe session name: short, nonempty, and free of
/// path separators or anything else that could escape the data dir.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(text: &str) -> Dtd {
        Dtd::parse(text).unwrap()
    }

    #[test]
    fn drift_classification_folds_relations() {
        let base = "<!ELEMENT r (a, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>";
        assert_eq!(classify_drift(&diff(&d(base), &d(base))), "equal");
        let loose = "<!ELEMENT r (a, b?)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>";
        assert_eq!(classify_drift(&diff(&d(base), &d(loose))), "looser");
        assert_eq!(classify_drift(&diff(&d(loose), &d(base))), "stricter");
        let other = "<!ELEMENT r (b, a)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>";
        assert_eq!(classify_drift(&diff(&d(base), &d(other))), "incomparable");
        // A new element appearing is looser; one disappearing stricter.
        let grown = "<!ELEMENT r (a, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>";
        assert_eq!(classify_drift(&diff(&d(base), &d(grown))), "looser");
        assert_eq!(classify_drift(&diff(&d(grown), &d(base))), "stricter");
    }

    #[test]
    fn name_validation_blocks_traversal() {
        assert!(valid_name("feed-7_a"));
        assert!(!valid_name(""));
        assert!(!valid_name("../evil"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn parse_check_rejects_without_mutating_anything() {
        assert!(parse_check("<a><b/></a>").is_ok());
        assert!(parse_check("<a><b></a>").is_err());
        assert!(parse_check("not xml").is_err());
    }

    #[test]
    fn session_ingest_journals_and_classifies() {
        let dir = std::env::temp_dir().join(format!("dtdinfer-serve-sess-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut s, replayed) = Session::open(&dir, "t", InferenceEngine::Idtd).unwrap();
        s.store.remove().unwrap();
        assert_eq!(replayed, 0);
        let out = s.ingest(&["<r><a/></r>"], u64::MAX).unwrap();
        assert_eq!(out.ingested, 1);
        assert_eq!(out.relation, "looser"); // schema grew from nothing
        assert!(s.dirty());
        let out = s.ingest(&["<r><a/></r>"], u64::MAX).unwrap();
        assert_eq!(out.relation, "equal");
        // Reopen: journal replay restores the same schema.
        let dtd = s.dtd().serialize();
        drop(s);
        let (mut again, replayed) = Session::open(&dir, "t", InferenceEngine::Idtd).unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(again.dtd().serialize(), dtd);
        again.store.remove().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_compacts_and_preserves_schema() {
        let dir = std::env::temp_dir().join(format!("dtdinfer-serve-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut s, _) = Session::open(&dir, "f", InferenceEngine::Idtd).unwrap();
        s.store.remove().unwrap();
        s.ingest(&["<r><a/><b/></r>"], u64::MAX).unwrap();
        let dtd = s.dtd().serialize();
        assert!(s.flush().unwrap());
        assert!(!s.dirty());
        assert!(!s.flush().unwrap(), "second flush is a no-op");
        let (mut again, replayed) = Session::open(&dir, "f", InferenceEngine::Idtd).unwrap();
        assert_eq!(replayed, 0, "snapshot covers everything");
        assert_eq!(again.dtd().serialize(), dtd);
        again.store.remove().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
