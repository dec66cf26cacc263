//! The sharded inference engine: a layer between XML extraction and the
//! per-element learners that drives §9's incremental machinery at scale.
//!
//! The paper observes that the learners keep compact internal state — the
//! SOA and the CHARE partial-order summary — so the generating XML can be
//! discarded and schemas maintained as data "trickles in". Every learner
//! here is a pure function of one smaller memory still: the counted
//! multiset of an element's child-name sequences. So the engine keeps only
//! that multiset per element (plus the value reservoirs and the occurrence
//! count), and builds the learners from its distinct words when a schema
//! is derived. The multiset is a union of per-document contributions, so
//! the state can be built **in parallel**:
//!
//! 1. **Shard** — a std-only worker pool ([`pool::ingest`]) pulls documents
//!    off a shared queue; each worker folds child-word multisets into a
//!    shard-local [`EngineState`].
//! 2. **Merge** — shard states are combined with [`EngineState::merge`]
//!    (alphabets reconciled by name, multisets and reservoirs added
//!    pointwise). Every merge is commutative, so the result is independent
//!    of how documents were distributed over shards.
//! 3. **Derive** — the state is a `Corpus`, so [`EngineState::derive`] is
//!    `infer_dtd_with_stats`: it canonicalizes the alphabet (name-sorted,
//!    making the output independent of document arrival order) and learns
//!    every element's model from its multiset.
//!
//! [`snapshot`] persists an [`EngineState`] as a versioned text file so a
//! later run can warm-start and absorb only new documents.

pub mod journal;
pub mod pool;
pub mod snapshot;
pub mod source;

pub use dtdinfer_xml::extract::ParseArena;

use dtdinfer_regex::alphabet::Sym;
use dtdinfer_xml::dtd::Dtd;
use dtdinfer_xml::extract::{Corpus, ElementFacts};
use dtdinfer_xml::infer::{infer_dtd_with_stats, ElementReport, InferenceEngine};
use dtdinfer_xml::parser::XmlError;
use std::ops::{Deref, DerefMut};

/// Merges another shard's facts for the same element name, translating
/// its symbols through `f`.
fn merge_element(into: &mut ElementFacts, other: &ElementFacts, f: impl FnMut(Sym) -> Sym) {
    into.words.merge(&other.words.map_symbols(f));
    into.text_samples.merge(&other.text_samples);
    for (attr, values) in &other.attributes {
        into.attributes
            .entry(attr.clone())
            .or_default()
            .merge(values);
    }
    into.occurrences += other.occurrences;
}

/// The engine's whole-corpus state: a [`Corpus`] (it derefs to one),
/// filled by the corpus's own parse loop and merged across shards.
/// Memory is bounded by the distinct child-name sequences and the capped
/// reservoirs, not by the corpus.
#[derive(Debug, Clone, Default)]
pub struct EngineState {
    /// Word multiset, reservoirs and occurrence count per element name,
    /// plus root statistics, over a shard-local interning order
    /// (derivation canonicalizes).
    pub corpus: Corpus,
}

impl Deref for EngineState {
    type Target = Corpus;

    fn deref(&self) -> &Corpus {
        &self.corpus
    }
}

impl DerefMut for EngineState {
    fn deref_mut(&mut self) -> &mut Corpus {
        &mut self.corpus
    }
}

impl EngineState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`EngineState::absorb_document`], attributing any parse error to
    /// `source` (usually the file path).
    pub fn absorb_document_from(&mut self, doc: &str, source: &str) -> Result<(), XmlError> {
        self.absorb_document(doc).map_err(|e| e.with_source(source))
    }

    /// Parses one document and folds its statistics in.
    pub fn absorb_document(&mut self, doc: &str) -> Result<(), XmlError> {
        self.absorb_document_with(doc, &mut ParseArena::new())
    }

    /// [`EngineState::absorb_document`] with caller-owned scratch: runs
    /// the one parse loop, `Corpus::add_document_with`, and counts the
    /// document in `engine.documents` — one registry call per document.
    pub fn absorb_document_with(
        &mut self,
        doc: &str,
        arena: &mut ParseArena,
    ) -> Result<(), XmlError> {
        self.corpus
            .add_document_with(doc, arena)
            .inspect_err(|_| dtdinfer_obs::count("engine.parse_errors", 1))?;
        dtdinfer_obs::count("engine.documents", 1);
        Ok(())
    }

    /// Merges another state in, reconciling the two alphabets by element
    /// name. Commutative up to alphabet interning order, which
    /// [`EngineState::derive`] canonicalizes away — so the merged result's
    /// derived DTD does not depend on shard assignment or merge order.
    pub fn merge(&mut self, other: &EngineState) {
        let map: Vec<Sym> = other
            .alphabet
            .entries()
            .map(|(_, name)| self.alphabet.intern(name))
            .collect();
        let f = |s: Sym| map[s.index()];
        for (sym, facts) in other.elements.iter() {
            merge_element(self.elements.entry(f(sym)), facts, f);
        }
        for (&root, &count) in &other.roots {
            *self.roots.entry(f(root)).or_insert(0) += count;
        }
        self.num_documents += other.num_documents;
        dtdinfer_obs::count("engine.merges", 1);
    }

    /// Total absorbed child-name sequences across all elements.
    pub fn total_words(&self) -> u64 {
        self.total_sequences() as u64
    }

    /// A copy re-interned over a name-sorted alphabet; see
    /// `Corpus::canonicalized`.
    pub fn canonicalized(&self) -> EngineState {
        EngineState {
            corpus: self.corpus.canonicalized(),
        }
    }

    /// Derives the DTD and per-element reports from the accumulated state
    /// with `infer_dtd_with_stats`, which learns each element's model from
    /// its word multiset — so the output is byte-identical to the corpus
    /// path over the same documents, for every engine.
    pub fn derive(&self, engine: InferenceEngine) -> (Dtd, Vec<ElementReport>) {
        let _span = dtdinfer_obs::span("engine.derive");
        infer_dtd_with_stats(&self.corpus, engine)
    }

    /// An owned copy of the corpus view (child-sequence multisets, text
    /// samples, attributes, occurrences) for XSD datatype inference and
    /// numeric tightening; readers that only borrow use `&state.corpus`.
    pub fn facts_corpus(&self) -> Corpus {
        self.corpus.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_xml::infer::infer_dtd_with_stats;

    fn docs() -> Vec<String> {
        let mut docs = vec![
            "<lib><book id=\"b1\"><title>T</title><author>A</author></book></lib>".to_owned(),
            "<lib><book id=\"b2\"><title>U</title><author>B</author><author>C</author></book>\
             <journal/></lib>"
                .to_owned(),
            "<lib><journal/><journal/></lib>".to_owned(),
            "<lib><note>mixed <b>x</b> tail</note></lib>".to_owned(),
        ];
        for i in 0..20 {
            docs.push(format!(
                "<lib><book id=\"g{i}\"><title>V{i}</title><author>D</author></book></lib>"
            ));
        }
        docs
    }

    fn engine_state(docs: &[String]) -> EngineState {
        let mut state = EngineState::new();
        for d in docs {
            state.absorb_document(d).unwrap();
        }
        state
    }

    fn corpus(docs: &[String]) -> Corpus {
        let mut c = Corpus::new();
        for d in docs {
            c.add_document(d).unwrap();
        }
        c
    }

    #[test]
    fn derive_matches_corpus_inference_for_all_engines() {
        let docs = docs();
        let state = engine_state(&docs);
        let corpus = corpus(&docs);
        for engine in [
            InferenceEngine::Crx,
            InferenceEngine::Idtd,
            InferenceEngine::IdtdNoise { threshold: 3 },
            InferenceEngine::Kore,
            InferenceEngine::Auto,
        ] {
            let (engine_dtd, engine_reports) = state.derive(engine);
            let (corpus_dtd, corpus_reports) = infer_dtd_with_stats(&corpus, engine);
            assert_eq!(engine_dtd.serialize(), corpus_dtd.serialize(), "{engine:?}");
            assert_eq!(engine_reports.len(), corpus_reports.len());
            for (e, c) in engine_reports.iter().zip(&corpus_reports) {
                assert_eq!(e.name, c.name, "{engine:?}");
                assert_eq!(e.engine, c.engine, "{engine:?} {}", e.name);
                assert_eq!(e.words, c.words, "{engine:?} {}", e.name);
                assert_eq!(e.occurrences, c.occurrences, "{engine:?} {}", e.name);
                assert_eq!(e.repairs, c.repairs, "{engine:?} {}", e.name);
                assert_eq!(e.expr_size, c.expr_size, "{engine:?} {}", e.name);
            }
        }
    }

    #[test]
    fn merge_of_split_equals_whole() {
        let docs = docs();
        let whole = engine_state(&docs);
        for cut in [1, docs.len() / 2, docs.len() - 1] {
            let mut merged = engine_state(&docs[..cut]);
            merged.merge(&engine_state(&docs[cut..]));
            assert_eq!(merged.num_documents, whole.num_documents);
            assert_eq!(merged.total_words(), whole.total_words());
            for engine in [
                InferenceEngine::Crx,
                InferenceEngine::Idtd,
                InferenceEngine::Kore,
                InferenceEngine::Auto,
            ] {
                assert_eq!(
                    merged.derive(engine).0.serialize(),
                    whole.derive(engine).0.serialize(),
                    "cut {cut} {engine:?}"
                );
            }
        }
    }

    #[test]
    fn merge_reconciles_disjoint_interning_orders() {
        // Shard A sees <b> before <a>; shard B the reverse: the merged
        // derivation must not care.
        let mut a = EngineState::new();
        a.absorb_document("<r><b/><a/></r>").unwrap();
        let mut b = EngineState::new();
        b.absorb_document("<r><a/><c/></r>").unwrap();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(
            ab.derive(InferenceEngine::Idtd).0.serialize(),
            ba.derive(InferenceEngine::Idtd).0.serialize()
        );
    }

    #[test]
    fn parse_error_carries_source_when_named() {
        let mut state = EngineState::new();
        let err = state
            .absorb_document_from("<r><a></r>", "corpus/broken.xml")
            .unwrap_err();
        assert_eq!(err.source.as_deref(), Some("corpus/broken.xml"));
        assert!(err.to_string().starts_with("corpus/broken.xml: "));
    }

    #[test]
    fn xsd_from_facts_corpus_matches_corpus_path() {
        use dtdinfer_xml::xsd::{generate_xsd, XsdOptions};
        let docs = docs();
        let state = engine_state(&docs);
        let corpus = corpus(&docs);
        let engine_dtd = state.derive(InferenceEngine::Idtd).0;
        let corpus_dtd = infer_dtd_with_stats(&corpus, InferenceEngine::Idtd).0;
        assert_eq!(
            generate_xsd(
                &engine_dtd,
                Some(&state.facts_corpus()),
                XsdOptions::default()
            ),
            generate_xsd(&corpus_dtd, Some(&corpus), XsdOptions::default())
        );
        // The retained multisets make numeric tightening available on the
        // engine path too — byte-identical to the corpus path.
        let numeric = XsdOptions {
            numeric_threshold: Some(2),
        };
        assert_eq!(
            generate_xsd(&engine_dtd, Some(&state.facts_corpus()), numeric),
            generate_xsd(&corpus_dtd, Some(&corpus), numeric)
        );
    }
}
