//! Versioned engine snapshots: persist the engine's [`Corpus`] and
//! warm-start a later run from it.
//!
//! The format is line-oriented text holding exactly the engine's state:
//! per element, the occurrence count, the value reservoirs and the counted
//! child-word multiset. Every learner is a pure function of that multiset
//! (the §9 "internal representation is the complete memory" property), so
//! no learner state is written:
//!
//! ```text
//! #dtdinfer-engine v5
//! documents 24
//! root lib 24
//! element author
//! occurrences 23
//! text 23 64 0
//! tv A 22
//! tv B 1
//! attr id 23 64 0
//! av id b1 1
//! w 23
//! ```
//!
//! `text total viable overflowed` opens an element's text reservoir
//! (`viable` is the datatype-viability bitmask, `overflowed` 0/1) and each
//! `tv value count` line carries one retained sample; `attr name total
//! viable overflowed` / `av name value count` do the same per attribute.
//! `w count child…` rows carry the element's counted child-sequence
//! multiset, one distinct shape per row in canonical order — `w 23` above
//! records 23 empty child sequences. Free-form values (samples, attribute
//! names, element names in `element`/`root`) are percent-escaped so they
//! stay single whitespace-free tokens: `%` → `%25`, space → `%20`,
//! tab → `%09`, newline → `%0A`, carriage return → `%0D`.
//!
//! The header is mandatory. v3 and v4 files hold the same records plus
//! learner rows (`s` support-SOA and `c` CRX records, and in v4 `k`
//! k-occurrence records), which are functions of the `w` rows: they load
//! by skipping those rows, into the state a v5 file of the same documents
//! holds. v2 files have no `w` rows, so no model can be derived from them;
//! they are rejected with a message to rebuild them from their documents.
//! Earlier builds re-saved a loaded v2 file as v3 or v4 without `w` rows,
//! and such a state that absorbed more documents has `w` rows for those
//! documents only. So each v3/v4 element section must carry an `s words N`
//! row whose `N` equals the total of its `w` rows; otherwise the file is
//! rejected with the same message. In a v5 file a learner row is an
//! unknown record. In every version each name has exactly one `element`
//! section: a `root` or `w` row naming an element without one, and a
//! second section for one name, are rejected. Other versions (including
//! v1) and missing headers are rejected with a descriptive error rather
//! than misread.
//!
//! `dtdinfer learn --state` keeps one word multiset between runs in the
//! same rows: [`save_words`] writes a [`WORDS_HEADER`] line, one `name`
//! line per symbol in symbol order, and the `w` rows.

use dtdinfer_regex::alphabet::{Alphabet, Sym, Word};
use dtdinfer_regex::multiset::WordBag;
use dtdinfer_xml::extract::{Corpus, ElementFacts};
use dtdinfer_xml::samples::{SampleBag, DEFAULT_SAMPLE_CAP};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The header every snapshot this build writes starts with.
pub const HEADER: &str = "#dtdinfer-engine v5";

/// The previous format, still readable: v5 plus the `s`, `c` and `k`
/// learner rows, which loading skips.
pub const V4_HEADER: &str = "#dtdinfer-engine v4";

/// The oldest readable format: v4 minus the `k` rows.
pub const V3_HEADER: &str = "#dtdinfer-engine v3";

/// An unreadable format: v3 minus the `w` multiset rows, the only records
/// models can be derived from.
pub const V2_HEADER: &str = "#dtdinfer-engine v2";

/// What to do with a file whose `w` rows do not cover its documents.
const REBUILD: &str = "rebuild it from its documents with `dtdinfer snapshot save`";

fn write_bag(out: &mut String, kind: &str, prefix: &str, bag: &SampleBag) {
    if bag.is_empty() {
        return;
    }
    let (total, viable, overflowed) = bag.export_header();
    let _ = writeln!(
        out,
        "{kind}{prefix} {total} {viable} {}",
        u8::from(overflowed)
    );
    let value_kind = match kind {
        "text" => "tv".to_owned(),
        _ => format!("av{prefix}"),
    };
    for (value, count) in bag.entries() {
        let _ = writeln!(out, "{value_kind} {} {count}", esc(value));
    }
}

/// Serializes the state. The state is canonicalized first (and sample
/// reservoirs are canonical by construction), so snapshots of the same
/// document multiset are byte-identical regardless of ingestion order or
/// sharding.
pub fn save(state: &Corpus) -> String {
    let state = state.canonicalized();
    let mut out = String::from(HEADER);
    out.push('\n');
    let _ = writeln!(out, "documents {}", state.num_documents);
    for (&root, count) in &state.roots {
        let _ = writeln!(out, "root {} {count}", esc(state.alphabet.name(root)));
    }
    for (sym, element) in state.elements.iter() {
        let _ = writeln!(out, "element {}", esc(state.alphabet.name(sym)));
        let _ = writeln!(out, "occurrences {}", element.occurrences);
        write_bag(&mut out, "text", "", &element.text_samples);
        for (attr, values) in &element.attributes {
            write_bag(&mut out, "attr", &format!(" {}", esc(attr)), values);
        }
        write_word_rows(&mut out, &state.alphabet, &element.words);
    }
    dtdinfer_obs::observe("engine.snapshot.bytes", out.len() as u64);
    out
}

/// Writes `bag` as `w count child…` rows, one distinct word per row in the
/// bag's canonical order, naming each child through `alphabet`.
fn write_word_rows(out: &mut String, alphabet: &Alphabet, bag: &WordBag) {
    for (word, count) in bag.iter() {
        let _ = write!(out, "w {count}");
        for &s in word {
            let _ = write!(out, " {}", esc(alphabet.name(s)));
        }
        out.push('\n');
    }
}

/// Parses what follows the `w` of a multiset row: a non-zero count, then
/// the children, interned into `alphabet`.
fn read_word_row(rest: &str, alphabet: &mut Alphabet) -> Result<(Word, u32), String> {
    let mut fields = rest.split(' ').filter(|f| !f.is_empty());
    let count: u32 = fields
        .next()
        .ok_or("multiset row needs a count")?
        .parse()
        .map_err(|e| format!("bad multiset count: {e}"))?;
    if count == 0 {
        return Err("zero-count multiset row".into());
    }
    let word = fields
        .map(|child| Ok(alphabet.intern(&unesc(child)?)))
        .collect::<Result<Word, String>>()?;
    Ok((word, count))
}

/// Reservoir parts accumulated while a section is read; assembled into a
/// [`SampleBag`] when the section closes.
#[derive(Default)]
struct BagParts {
    total: u64,
    viable: u8,
    overflowed: bool,
    entries: Vec<(String, u64)>,
}

impl BagParts {
    fn parse_header(rest: &str) -> Result<BagParts, String> {
        let fields: Vec<&str> = rest.split(' ').collect();
        let [total, viable, overflowed] = fields.as_slice() else {
            return Err("reservoir header needs total, viability mask, overflow flag".into());
        };
        Ok(BagParts {
            total: total.parse().map_err(|e| format!("bad total: {e}"))?,
            viable: viable
                .parse()
                .map_err(|e| format!("bad viability mask: {e}"))?,
            overflowed: match *overflowed {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad overflow flag {other:?}")),
            },
            entries: Vec::new(),
        })
    }

    fn push_value(&mut self, rest: &str) -> Result<(), String> {
        let (value, count) = rest
            .rsplit_once(' ')
            .ok_or("sample record needs a value and a count")?;
        let count: u64 = count.parse().map_err(|e| format!("bad count: {e}"))?;
        self.entries.push((unesc(value)?, count));
        Ok(())
    }

    fn into_bag(self) -> Result<SampleBag, String> {
        SampleBag::from_parts(
            DEFAULT_SAMPLE_CAP,
            self.total,
            self.viable,
            self.overflowed,
            self.entries,
        )
    }
}

/// One element section being accumulated: the reservoir parts and
/// multiset rows are assembled when the section closes.
struct Section {
    sym: Sym,
    element: ElementFacts,
    text: Option<BagParts>,
    attrs: BTreeMap<String, BagParts>,
    words: Vec<(Word, u32)>,
    /// A v3/v4 section's `s words N` count: the child sequences its
    /// learners absorbed, which its `w` rows must add up to.
    learned: Option<u64>,
}

/// Parses a snapshot produced by [`save`] (v5) or by an earlier build (v3
/// or v4, whose learner rows are skipped once their `s words` count is
/// checked against the `w` rows). Rejects v2 files, v3/v4 files whose `w`
/// rows do not cover every child sequence, missing headers, other
/// versions, and malformed records with a descriptive error.
pub fn load(text: &str) -> Result<Corpus, String> {
    let legacy = match text.lines().next().map(str::trim) {
        Some(HEADER) => false,
        Some(V4_HEADER | V3_HEADER) => true,
        Some(V2_HEADER) => {
            return Err(format!(
                "snapshot version \"v2\" has no child-word rows to derive models from; {REBUILD}"
            ));
        }
        Some(h) if h.starts_with("#dtdinfer-engine ") => {
            let version = h.trim_start_matches("#dtdinfer-engine ").trim();
            return Err(format!(
                "unsupported snapshot version {version:?} (this build reads v3, v4, and v5)"
            ));
        }
        _ => {
            return Err(format!(
                "not a dtdinfer engine snapshot (expected a {HEADER:?} first line)"
            ));
        }
    };
    let mut state = Corpus::new();
    let mut current: Option<Section> = None;
    let flush = |state: &mut Corpus, current: &mut Option<Section>| -> Result<(), String> {
        if let Some(section) = current.take() {
            let Section {
                sym,
                mut element,
                text,
                attrs,
                words,
                learned,
            } = section;
            let name = |state: &Corpus| state.alphabet.name(sym).to_owned();
            // Rows were validated (non-zero counts, well-formed) as they
            // were read; rebuilding through `insert_n` re-canonicalizes
            // under this load's interning order, and a distinct-count
            // mismatch afterwards is exactly a duplicate row.
            let distinct_rows = words.len();
            for (w, n) in words {
                element.words.insert_n(w, n);
            }
            if element.words.distinct() != distinct_rows {
                return Err(format!(
                    "duplicate multiset row in element {:?}",
                    name(state)
                ));
            }
            if legacy {
                let rows = element.words.total();
                match learned {
                    Some(n) if n == rows => {}
                    Some(n) => {
                        return Err(format!(
                            "element {:?} has child-word rows for {rows} of its {n} child \
                             sequences, so no model can be derived from it; {REBUILD}",
                            name(state)
                        ));
                    }
                    None => {
                        return Err(format!(
                            "element {:?} has no \"s words\" row to check its child-word \
                             rows against",
                            name(state)
                        ));
                    }
                }
            }
            if let Some(parts) = text {
                element.text_samples = parts
                    .into_bag()
                    .map_err(|e| format!("text reservoir of {:?}: {e}", name(state)))?;
            }
            for (attr, parts) in attrs {
                let bag = parts.into_bag().map_err(|e| {
                    format!("attribute {attr:?} reservoir of {:?}: {e}", name(state))
                })?;
                element.attributes.insert(attr, bag);
            }
            *state.elements.entry(sym) = element;
        }
        Ok(())
    };
    for (lineno, line) in text.lines().enumerate().skip(1) {
        let err = |m: String| format!("line {}: {m}", lineno + 1);
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "documents" => {
                state.num_documents = rest
                    .parse()
                    .map_err(|e| err(format!("bad document count: {e}")))?;
            }
            "root" => {
                let (name, count) = rest
                    .rsplit_once(' ')
                    .ok_or_else(|| err("root needs a name and a count".into()))?;
                let sym = state.alphabet.intern(&unesc(name).map_err(err)?);
                let count: u64 = count.parse().map_err(|e| err(format!("bad count: {e}")))?;
                *state.roots.entry(sym).or_insert(0) += count;
            }
            "element" => {
                flush(&mut state, &mut current)?;
                let sym = state.alphabet.intern(&unesc(rest).map_err(err)?);
                if state.elements.get(sym).is_some() {
                    return Err(err(format!(
                        "duplicate section for element {:?}",
                        state.alphabet.name(sym)
                    )));
                }
                current = Some(Section {
                    sym,
                    element: ElementFacts::default(),
                    text: None,
                    attrs: BTreeMap::new(),
                    words: Vec::new(),
                    learned: None,
                });
            }
            "occurrences" | "text" | "tv" | "attr" | "av" | "w" | "s" | "c" | "k"
                if legacy || !matches!(kind, "s" | "c" | "k") =>
            {
                let section = current
                    .as_mut()
                    .ok_or_else(|| err(format!("{kind:?} record outside an element section")))?;
                match kind {
                    "occurrences" => {
                        section.element.occurrences = rest
                            .parse()
                            .map_err(|e| err(format!("bad occurrence count: {e}")))?;
                    }
                    "text" => {
                        if section.text.is_some() {
                            return Err(err("duplicate text reservoir".into()));
                        }
                        section.text = Some(BagParts::parse_header(rest).map_err(err)?);
                    }
                    "tv" => section
                        .text
                        .as_mut()
                        .ok_or_else(|| err("\"tv\" record before its \"text\" header".into()))?
                        .push_value(rest)
                        .map_err(err)?,
                    "attr" => {
                        let (name, header) = rest
                            .split_once(' ')
                            .ok_or_else(|| err("attr needs a name and a header".into()))?;
                        let name = unesc(name).map_err(err)?;
                        let parts = BagParts::parse_header(header).map_err(err)?;
                        if section.attrs.insert(name.clone(), parts).is_some() {
                            return Err(err(format!("duplicate attribute reservoir {name:?}")));
                        }
                    }
                    "av" => {
                        let (name, value) = rest
                            .split_once(' ')
                            .ok_or_else(|| err("av needs a name, a value and a count".into()))?;
                        let name = unesc(name).map_err(err)?;
                        section
                            .attrs
                            .get_mut(&name)
                            .ok_or_else(|| {
                                err(format!("\"av\" record before its {name:?} header"))
                            })?
                            .push_value(value)
                            .map_err(err)?;
                    }
                    "w" => section
                        .words
                        .push(read_word_row(rest, &mut state.alphabet).map_err(err)?),
                    // Learner rows of v3/v4 files: functions of the `w` rows,
                    // of which only the absorbed-word count is read.
                    "s" if rest.starts_with("words ") => {
                        if section.learned.is_some() {
                            return Err(err("duplicate \"s words\" row".into()));
                        }
                        let n = &rest["words ".len()..];
                        section.learned =
                            Some(n.parse().map_err(|e| err(format!("bad word count: {e}")))?);
                    }
                    _ => {}
                }
            }
            other => return Err(err(format!("unknown record {other:?}"))),
        }
    }
    flush(&mut state, &mut current)?;
    // `save` writes a section for every name a `root` or `w` row holds;
    // a name without one would derive a DTD that never declares it.
    if let Some((_, name)) = state
        .alphabet
        .entries()
        .find(|&(sym, _)| state.elements.get(sym).is_none())
    {
        return Err(format!(
            "element {name:?} is named as a root or child but has no \"element\" section"
        ));
    }
    dtdinfer_obs::observe("engine.snapshot.bytes", text.len() as u64);
    Ok(state)
}

/// The header of a word-state file: the memory `dtdinfer learn --state`
/// keeps between runs.
pub const WORDS_HEADER: &str = "#dtdinfer-words v1";

/// Headers of the per-learner state files earlier builds of `learn
/// --state` wrote: one learner's automaton or summary each, not the words
/// every learner needs.
const LEARNER_HEADERS: [&str; 3] = ["#dtdinfer-soa v1", "#dtdinfer-crx v1", "#dtdinfer-kore v1"];

/// Serializes a word multiset with the alphabet it is written over: the
/// [`WORDS_HEADER`], one `name NAME` line per symbol in symbol order, and
/// the same `w` rows an element section of [`save`] holds.
pub fn save_words(alphabet: &Alphabet, bag: &WordBag) -> String {
    let mut out = format!("{WORDS_HEADER}\n");
    for (_, name) in alphabet.entries() {
        let _ = writeln!(out, "name {}", esc(name));
    }
    write_word_rows(&mut out, alphabet, bag);
    out
}

/// Parses a [`save_words`] file. Its names are interned in their saved
/// order, so words interned after loading get the symbols one run over
/// every word would have given them. Rejects per-learner files of earlier
/// builds, duplicate names and rows, and rows naming a child without a
/// `name` line.
pub fn load_words(text: &str) -> Result<(Alphabet, WordBag), String> {
    match text.lines().next().map(str::trim) {
        Some(WORDS_HEADER) => {}
        Some(old) if LEARNER_HEADERS.contains(&old) => {
            return Err(format!(
                "line 1: a {old:?} file holds one learner's summary, not the words every \
                 learner needs; re-learn it from its words with `dtdinfer learn --state`"
            ));
        }
        _ => {
            return Err(format!(
                "line 1: not a dtdinfer word state (expected a {WORDS_HEADER:?} first line)"
            ));
        }
    }
    let mut alphabet = Alphabet::new();
    let mut bag = WordBag::new();
    for (lineno, line) in text.lines().enumerate().skip(1) {
        let err = |m: String| format!("line {}: {m}", lineno + 1);
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "name" => {
                let name = unesc(rest).map_err(err)?;
                if alphabet.get(&name).is_some() {
                    return Err(err(format!("duplicate name {name:?}")));
                }
                alphabet.intern(&name);
            }
            "w" => {
                let names = alphabet.len();
                let (word, count) = read_word_row(rest, &mut alphabet).map_err(err)?;
                if alphabet.len() != names {
                    return Err(err("a child has no \"name\" line".into()));
                }
                let distinct = bag.distinct();
                bag.insert_n(word, count);
                if bag.distinct() == distinct {
                    return Err(err("duplicate multiset row".into()));
                }
            }
            other => return Err(err(format!("unknown record {other:?}"))),
        }
    }
    Ok((alphabet, bag))
}

/// Escapes a value into a single whitespace-free token.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`esc`]; rejects truncated or non-hex escapes.
fn unesc(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).collect();
        if hex.len() != 2 {
            return Err(format!("truncated escape in {s:?}"));
        }
        let code =
            u32::from_str_radix(&hex, 16).map_err(|_| format!("bad escape %{hex} in {s:?}"))?;
        out.push(char::from_u32(code).ok_or_else(|| format!("bad escape %{hex} in {s:?}"))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ingest, ingest_source};
    use crate::source::MemSource;
    use dtdinfer_xml::infer::{infer_dtd, InferenceEngine};

    fn docs() -> Vec<String> {
        let mut docs = vec![
            "<r a=\"1 % two\"><x>hello world</x><y/></r>".to_owned(),
            "<r><y/><x>line\nbreak</x></r>".to_owned(),
        ];
        for i in 0..10 {
            docs.push(format!("<r><x>v{i}</x><y/><y/></r>"));
        }
        docs
    }

    #[test]
    fn round_trip_preserves_state_and_output() {
        let state = ingest(&docs(), 2).unwrap().state;
        let text = save(&state);
        let restored = load(&text).unwrap();
        assert_eq!(restored.num_documents, state.num_documents);
        assert_eq!(restored.total_sequences(), state.total_sequences());
        // Re-saving is the identity: the format is canonical.
        assert_eq!(save(&restored), text);
        for engine in [
            InferenceEngine::Crx,
            InferenceEngine::Idtd,
            InferenceEngine::IdtdNoise { threshold: 2 },
            InferenceEngine::Kore,
            InferenceEngine::Auto,
        ] {
            assert_eq!(
                infer_dtd(&restored, engine).serialize(),
                infer_dtd(&state, engine).serialize(),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn save_load_absorb_more_equals_one_shot() {
        let docs = docs();
        let one_shot = ingest(&docs, 2).unwrap().state;
        for jobs in [1, 2, 4] {
            let warm = load(&save(&ingest(&docs[..4], jobs).unwrap().state)).unwrap();
            let resumed = ingest_source(warm, &MemSource::new(&docs[4..]), jobs)
                .unwrap()
                .state;
            for engine in [InferenceEngine::Idtd, InferenceEngine::Kore] {
                assert_eq!(
                    infer_dtd(&resumed, engine).serialize(),
                    infer_dtd(&one_shot, engine).serialize(),
                    "{engine:?} jobs {jobs}"
                );
            }
            // The snapshots themselves coincide too.
            assert_eq!(save(&resumed), save(&one_shot), "jobs {jobs}");
        }
    }

    #[test]
    fn snapshot_is_ingestion_order_invariant() {
        let docs = docs();
        let forward = ingest(&docs, 1).unwrap().state;
        let reversed: Vec<String> = docs.iter().rev().cloned().collect();
        let backward = ingest(&reversed, 3).unwrap().state;
        assert_eq!(save(&forward), save(&backward));
    }

    #[test]
    fn rejects_missing_header() {
        let err = load("documents 3\n").unwrap_err();
        assert!(err.contains("not a dtdinfer engine snapshot"), "{err}");
    }

    #[test]
    fn rejects_other_versions() {
        for other in ["v1", "v6"] {
            let err = load(&format!("#dtdinfer-engine {other}\ndocuments 3\n")).unwrap_err();
            assert!(err.contains("unsupported snapshot version"), "{err}");
            assert!(err.contains("v3, v4, and v5"), "{err}");
        }
    }

    /// `testdata/snapshots/books.v4.snap`: `testdata/books` as the last v4
    /// writer saved it, learner rows included.
    const BOOKS_V4: &str = include_str!("../../../testdata/snapshots/books.v4.snap");

    /// A fresh corpus over `testdata/books`.
    fn books_state() -> Corpus {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../testdata/books");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "xml"))
            .collect();
        paths.sort();
        let docs: Vec<String> = paths
            .iter()
            .map(|path| std::fs::read_to_string(path).unwrap())
            .collect();
        ingest(&docs, 2).unwrap().state
    }

    /// `text` with its header replaced and every row starting with one of
    /// `drop` removed.
    fn rewrite(text: &str, header: &str, drop: &[&str]) -> String {
        let mut out = format!("{header}\n");
        for line in text.lines().skip(1) {
            if !drop.iter().any(|prefix| line.starts_with(prefix)) {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn v3_snapshots_load_losslessly() {
        // v4 files, and v3 files (v4 minus the `k` rows), carry learner
        // rows that are functions of the `w` rows: loading skips them, so
        // both re-save byte-identical to a fresh v5 save.
        let state = books_state();
        let fresh = save(&state);
        assert_eq!(
            fresh,
            rewrite(BOOKS_V4, HEADER, &["s ", "c ", "k "]),
            "v5 is v4 minus its learner rows"
        );
        let v3 = rewrite(BOOKS_V4, V3_HEADER, &["k "]);
        for legacy in [BOOKS_V4, v3.as_str()] {
            let loaded = load(legacy).unwrap();
            assert_eq!(save(&loaded), fresh);
            for engine in [
                InferenceEngine::Crx,
                InferenceEngine::Idtd,
                InferenceEngine::IdtdNoise { threshold: 2 },
                InferenceEngine::Kore,
                InferenceEngine::Auto,
            ] {
                assert_eq!(
                    infer_dtd(&loaded, engine).serialize(),
                    infer_dtd(&state, engine).serialize(),
                    "{engine:?}"
                );
            }
        }
    }

    #[test]
    fn v2_snapshots_are_rejected_with_a_rebuild_message() {
        // v2 is v3 minus the `w` rows: nothing to derive models from.
        let v2 = rewrite(BOOKS_V4, V2_HEADER, &["w ", "k "]);
        let err = load(&v2).unwrap_err();
        assert!(err.contains("\"v2\""), "{err}");
        assert!(err.contains("rebuild it from its documents"), "{err}");
    }

    #[test]
    fn legacy_files_whose_word_rows_miss_sequences_are_rejected() {
        // Earlier builds re-saved a loaded v2 file as v3/v4 without `w`
        // rows; after absorbing more documents its `w` rows covered only
        // those. The `s words` count exposes both: all rows missing, and
        // some missing (here the count-1 rows, the first of them in
        // `book`).
        for (legacy, element) in [
            (rewrite(BOOKS_V4, V4_HEADER, &["w "]), "author"),
            (rewrite(BOOKS_V4, V3_HEADER, &["w ", "k "]), "author"),
            (rewrite(BOOKS_V4, V4_HEADER, &["w 1 "]), "book"),
        ] {
            let err = load(&legacy).unwrap_err();
            assert!(err.contains(&format!("element {element:?}")), "{err}");
            assert!(err.contains("rebuild it from its documents"), "{err}");
        }
        let err = load(&rewrite(BOOKS_V4, V4_HEADER, &["s words "])).unwrap_err();
        assert!(err.contains("no \"s words\" row"), "{err}");
        for (row, needle) in [
            ("s words 61\ns words 61", "duplicate \"s words\""),
            ("s words sixty-one", "bad word count"),
        ] {
            let err = load(&BOOKS_V4.replacen("s words 61", row, 1)).unwrap_err();
            assert!(err.contains(needle), "{row} → {err}");
        }
    }

    #[test]
    fn v5_rejects_learner_rows() {
        for row in ["s words 23", "c words 23", "k edge a 0 b 1"] {
            let err = load(&format!("{HEADER}\nelement a\n{row}\n")).unwrap_err();
            assert!(err.contains("unknown record"), "{row} → {err}");
            assert!(err.contains("line 3"), "{row} → {err}");
        }
        // v3/v4 files may carry them, but only inside an element section.
        let err = load(&format!("{V4_HEADER}\ns words 23\n")).unwrap_err();
        assert!(err.contains("outside an element section"), "{err}");
    }

    #[test]
    fn rejects_names_without_an_element_section() {
        // `save` writes a section for every root and child name; a name
        // without one would reach the DTD undeclared.
        let child = "documents 1\nroot r 1\nelement r\noccurrences 1\nw 1 a b\n";
        let root = "documents 1\nroot q 1\nelement r\noccurrences 1\nw 1\n";
        for header in [HEADER, V4_HEADER, V3_HEADER] {
            for (body, name) in [(child, "a"), (root, "q")] {
                let mut text = format!("{header}\n{body}");
                if header != HEADER {
                    text.push_str("s words 1\n");
                }
                let err = load(&text).unwrap_err();
                assert!(
                    err.contains(&format!("element {name:?}")),
                    "{header}: {err}"
                );
                assert!(err.contains("no \"element\" section"), "{header}: {err}");
            }
        }
        // Given their sections, the names load.
        let whole = format!("{HEADER}\n{child}element a\nw 1\nelement b\nw 1\n");
        let state = load(&whole).unwrap();
        assert_eq!(state.elements.len(), state.alphabet.len());
    }

    #[test]
    fn rejects_a_second_section_for_one_element() {
        let text = format!("{HEADER}\nelement a\noccurrences 1\nw 1\nelement a\nw 1\n");
        let err = load(&text).unwrap_err();
        assert!(err.contains("duplicate section for element \"a\""), "{err}");
        assert!(err.contains("line 5"), "{err}");
    }

    #[test]
    fn multiset_rows_survive_round_trip() {
        let state = ingest(&docs(), 2).unwrap().state;
        let restored = load(&save(&state)).unwrap();
        let canon = state.canonicalized();
        let restored = restored.canonicalized();
        for (sym, element) in canon.elements.iter() {
            let name = canon.alphabet.name(sym);
            let twin = restored.alphabet.get(name).expect("same elements");
            assert_eq!(
                restored.elements[twin].words, element.words,
                "multiset of {name}"
            );
            assert_eq!(
                element.words.total(),
                element.occurrences,
                "one child sequence per occurrence of {name}"
            );
        }
    }

    #[test]
    fn rejects_corrupt_multiset_rows() {
        for (bad, needle) in [
            (format!("{HEADER}\nelement a\nw\n"), "needs a count"),
            (format!("{HEADER}\nelement a\nw nope x\n"), "bad multiset"),
            (format!("{HEADER}\nelement a\nw 0 x\n"), "zero-count"),
            (
                format!("{HEADER}\nelement a\nw 1 x\nw 2 x\n"),
                "duplicate multiset row",
            ),
            (format!("{HEADER}\nw 1 x\n"), "outside an element section"),
            (
                format!("{HEADER}\nelement a\nw 1 x%2\n"),
                "truncated escape",
            ),
        ] {
            let err = load(&bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn rejects_corrupted_records() {
        for (bad, needle) in [
            (
                format!("{HEADER}\ndocuments not-a-number\n"),
                "bad document count",
            ),
            (format!("{HEADER}\nfroz x\n"), "unknown record"),
            (
                format!("{HEADER}\noccurrences 3\n"),
                "outside an element section",
            ),
            (format!("{HEADER}\nelement a\nattr only-name\n"), "attr"),
            (
                format!("{HEADER}\nelement a\nattr id 3 127\n"),
                "reservoir header",
            ),
            (
                format!("{HEADER}\nelement a\ntext 3 127 2\n"),
                "bad overflow flag",
            ),
            (format!("{HEADER}\nelement a\ntv x 1\n"), "before its"),
            (format!("{HEADER}\nelement a\nav id x 1\n"), "before its"),
            (
                // Non-overflowed reservoir whose counts don't add up.
                format!("{HEADER}\nelement a\ntext 5 127 0\ntv x 1\n"),
                "text reservoir",
            ),
            (format!("{HEADER}\nelement a%2\n"), "truncated escape"),
        ] {
            let err = load(&bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn rejects_truncated_reservoir_rows() {
        // A "tv" row cut mid-record (value but no count) must fail closed,
        // not default the count.
        let bad = format!("{HEADER}\nelement a\ntext 1 127 0\ntv onlyvalue\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("needs a value and a count"), "{err}");
        // Same for attribute rows.
        let bad = format!("{HEADER}\nelement a\nattr id 1 127 0\nav id onlyvalue\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("needs a value and a count"), "{err}");
        // A non-numeric count is named, with its line number.
        let bad = format!("{HEADER}\nelement a\ntext 1 127 0\ntv x nope\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("bad count"), "{err}");
        assert!(err.contains("line 4"), "{err}");
    }

    #[test]
    fn rejects_bad_escape_sequences() {
        // Non-hex escape digits in a value row.
        let bad = format!("{HEADER}\nelement a\ntext 1 127 0\ntv x%zz 1\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("bad escape %zz"), "{err}");
        // An escape that decodes to no valid scalar (a surrogate would
        // need 4 digits; here an out-of-range check via %d8 is fine, so
        // use a name with a truncated escape at end of line instead).
        let bad = format!("{HEADER}\nroot r%a 1\n");
        let err = load(&bad).unwrap_err();
        assert!(err.contains("truncated escape"), "{err}");
    }

    #[test]
    fn rejects_realistic_v1_file_with_version_message() {
        // A plausible earlier-format file: right magic prefix, older
        // version, well-formed records. The version gate must fire before
        // any record parsing, and the message must say what this build
        // reads so the user knows to re-save.
        let v1 = "#dtdinfer-engine v1\n\
                  documents 12\n\
                  root order 12\n\
                  element order\n\
                  occurrences 12\n\
                  s pair item note\n";
        let err = load(v1).unwrap_err();
        assert!(err.contains("unsupported snapshot version \"v1\""), "{err}");
        assert!(err.contains("v5"), "{err}");
    }

    #[test]
    fn snapshot_round_trips_overflowed_reservoirs() {
        let cap = dtdinfer_xml::samples::DEFAULT_SAMPLE_CAP;
        let docs: Vec<String> = (0..cap * 3)
            .map(|i| format!("<r><x>value {i}</x></r>"))
            .collect();
        let state = ingest(&docs, 2).unwrap().state;
        let restored = load(&save(&state)).unwrap();
        assert_eq!(save(&restored), save(&state));
        let x = restored.alphabet.get("x").unwrap();
        let bag = &restored.elements[x].text_samples;
        assert!(bag.overflowed());
        assert_eq!(bag.distinct_retained(), cap);
        assert_eq!(bag.total(), (cap * 3) as u64);
    }

    #[test]
    fn word_states_round_trip_names_in_symbol_order() {
        // Unsorted names, two of which need escaping, and one in no word.
        let alphabet = Alphabet::from_names(["e", "a c", "100%", "b"]);
        let s = |n: &str| alphabet.get(n).unwrap();
        let bag: WordBag = [
            vec![s("e"), s("a c")],
            vec![s("e"), s("100%")],
            vec![],
            vec![s("e"), s("a c")],
        ]
        .into_iter()
        .collect();
        let text = save_words(&alphabet, &bag);
        let (loaded, loaded_bag) = load_words(&text).unwrap();
        assert_eq!(loaded, alphabet, "names keep their symbols");
        assert_eq!(loaded_bag, bag);
        assert_eq!(save_words(&loaded, &loaded_bag), text);
    }

    #[test]
    fn word_states_reject_learner_files_and_corrupt_rows() {
        for (bad, needle) in [
            (
                "#dtdinfer-crx v1\nwords 1\n".to_owned(),
                "line 1: a \"#dtdinfer-crx v1\"",
            ),
            (
                "#dtdinfer-kore v1\n".to_owned(),
                "re-learn it from its words",
            ),
            (HEADER.to_owned(), "not a dtdinfer word state"),
            (
                format!("{WORDS_HEADER}\nname a\nw 0 a\n"),
                "line 3: zero-count",
            ),
            (
                format!("{WORDS_HEADER}\nname a\nw 1 b\n"),
                "line 3: a child has no",
            ),
            (
                format!("{WORDS_HEADER}\nname a\nname a\n"),
                "line 3: duplicate name",
            ),
            (
                format!("{WORDS_HEADER}\nname a\nw 1 a\nw 2 a\n"),
                "line 4: duplicate multiset",
            ),
            (
                format!("{WORDS_HEADER}\nelement a\n"),
                "line 2: unknown record",
            ),
        ] {
            let err = load_words(&bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["", "plain", "with space", "100%", "a\tb\nc\rd", "%20", "%%"] {
            let e = esc(s);
            assert!(!e.contains(char::is_whitespace), "{e:?}");
            assert_eq!(unesc(&e).unwrap(), s, "{s:?}");
        }
    }
}
