//! End-to-end DTD inference: corpus → per-element learner → DTD.
//!
//! For every element name the corpus supplies the multiset of child-name
//! sequences; the chosen engine (CRX for sparse data, iDTD for rich data —
//! §1.2's two scenarios) learns one expression per element, and text/child
//! mixtures are mapped onto the DTD content-spec forms.

use crate::attlist::{infer_attdef_from_bag, AttDef};
use crate::dtd::{ContentSpec, Dtd};
use crate::extract::{Corpus, ElementFacts};
use dtdinfer_automata::soa::Soa;
use dtdinfer_core::crx::crx_counted;
use dtdinfer_core::idtd::{idtd_traced, Event, IdtdConfig};
use dtdinfer_core::kore::{pick_auto, KoreState};
use dtdinfer_core::model::InferredModel;
use dtdinfer_core::noise::SupportSoa;
use dtdinfer_regex::alphabet::{Alphabet, Sym};
use dtdinfer_regex::multiset::WordBag;
use std::collections::BTreeSet;
use std::time::Instant;

/// Which learning algorithm drives the per-element inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceEngine {
    /// CRX (§7): CHAREs, strong generalization, best for small samples.
    Crx,
    /// iDTD (§6): SOREs, more specific, best for abundant data.
    Idtd,
    /// iDTD with the §9 noise treatment: edges below the support threshold
    /// are dropped when rewriting gets stuck.
    IdtdNoise {
        /// Minimum support an edge needs to survive.
        threshold: u64,
    },
    /// k-ORE (the successor paper): k-occurrence automata over a marked
    /// alphabet, for content models where a symbol repeats (`a b a`).
    Kore,
    /// MDL model chooser: picks SORE vs k-ORE vs CHARE per element by
    /// two-part description length.
    Auto,
}

/// Example:
///
/// ```
/// use dtdinfer_xml::extract::Corpus;
/// use dtdinfer_xml::infer::{infer_dtd, InferenceEngine};
///
/// let mut corpus = Corpus::new();
/// corpus
///     .add_document("<order><item/><item/><note>rush</note></order>")
///     .unwrap();
/// corpus.add_document("<order><item/></order>").unwrap();
/// let dtd = infer_dtd(&corpus, InferenceEngine::Crx);
/// assert!(dtd.serialize().contains("<!ELEMENT order (item+, note?)>"));
/// ```
/// Infers a complete DTD for the corpus.
pub fn infer_dtd(corpus: &Corpus, engine: InferenceEngine) -> Dtd {
    infer_dtd_with_stats(corpus, engine).0
}

/// Per-element derivation telemetry: which engine ran, how much data it
/// saw, what the derivation did, and what it cost. Powers the
/// `dtdinfer stats` report.
#[derive(Debug, Clone)]
pub struct ElementReport {
    /// Element name.
    pub name: String,
    /// What produced the content model: `crx`, `idtd`, `idtd-noise`,
    /// `kore`, an `auto-*` chooser verdict (`auto-sore`, `auto-kore`,
    /// `auto-chare`), or one of the degenerate content kinds (`mixed`,
    /// `pcdata`, `empty`).
    pub engine: &'static str,
    /// Total occurrences of the element across the corpus.
    pub occurrences: u64,
    /// Sample size: number of child-name sequences the learner consumed.
    pub words: usize,
    /// Rewrite-rule applications in the iDTD derivation (0 for CRX).
    pub rewrite_steps: usize,
    /// Repair-rule invocations in the iDTD derivation (0 for CRX).
    pub repairs: usize,
    /// Merge-everything fallback firings (0 unless iDTD got stuck).
    pub fallbacks: usize,
    /// Size of the resulting content model, in regex tokens.
    pub expr_size: usize,
    /// Wall-clock inference time for this element.
    pub duration_ns: u64,
}

/// Like [`infer_dtd`], additionally returning one [`ElementReport`] per
/// element (sorted by element name, matching corpus iteration order).
/// This is a fresh [`Derivation`] updated once, so a cold derive and a
/// warm one run the same per-element code.
pub fn infer_dtd_with_stats(corpus: &Corpus, engine: InferenceEngine) -> (Dtd, Vec<ElementReport>) {
    let mut derivation = Derivation::new(engine);
    derivation.update(corpus);
    derivation.into_parts()
}

/// A derived schema kept beside a growing [`Corpus`]: each
/// [`Derivation::update`] re-learns only the elements whose facts changed
/// since the previous one, so a warm schema costs the elements a new
/// document touched, not the whole schema.
///
/// The cache key is an element's occurrence count. In
/// `Corpus::add_document_with` an element's word multiset, text reservoir
/// and attribute reservoirs change only while the element is open, and
/// opening it counts an occurrence; merging shards adds occurrences with
/// the facts. Counts only grow, so an element whose count equals its
/// cached report's has the facts it was derived from.
///
/// Derivation works over the canonical (name-sorted) alphabet so document
/// arrival order cannot leak into the output: every learner breaks ties
/// in symbol order, which then equals name order. When the corpus learns
/// a new name every canonical symbol shifts, and `auto`'s model cost
/// reads the alphabet size, so any element's model may change: the
/// update rebuilds the alphabet and drops every cached element.
///
/// Feed one derivation one corpus as it grows; a different corpus needs
/// a fresh derivation.
#[derive(Debug)]
pub struct Derivation {
    engine: InferenceEngine,
    /// Corpus symbol index → canonical symbol.
    canonical: Vec<Sym>,
    /// Whether `canonical` maps every symbol to itself (the corpus
    /// interned its names in sorted order), so words need no remap.
    identity: bool,
    /// The derived schema, over the canonical alphabet.
    dtd: Dtd,
    /// The report of each derived element, indexed by canonical symbol.
    reports: Vec<Option<ElementReport>>,
}

impl Derivation {
    /// An empty derivation: its first update derives every element.
    pub fn new(engine: InferenceEngine) -> Self {
        Derivation {
            engine,
            canonical: Vec::new(),
            identity: true,
            dtd: Dtd::default(),
            reports: Vec::new(),
        }
    }

    /// Brings the schema up to date with `corpus`, re-learning each
    /// element that has no cached report or whose occurrence count moved.
    /// Returns how many elements were re-learned. The `xml.engine.*`
    /// counts and the `xml.element.expr_size` histogram see only those.
    pub fn update(&mut self, corpus: &Corpus) -> usize {
        let _span = dtdinfer_obs::span("xml.infer_dtd");
        if corpus.alphabet.len() != self.canonical.len() {
            self.rebuild_alphabet(&corpus.alphabet);
        }
        let same_name =
            |(s, name): (Sym, &str)| self.dtd.alphabet.name(self.canonical[s.index()]) == name;
        debug_assert!(
            corpus.alphabet.entries().all(same_name),
            "a derivation follows one growing corpus"
        );
        self.dtd.root = corpus.root().map(|s| self.canonical[s.index()]);
        let mut relearned = 0;
        for (sym, facts) in corpus.elements.iter() {
            let canon = self.canonical[sym.index()];
            let cached = &self.reports[canon.index()];
            if cached.as_ref().map(|r| r.occurrences) == Some(facts.occurrences) {
                continue;
            }
            let remapped;
            let words = if self.identity {
                &facts.words
            } else {
                remapped = facts.words.map_symbols(|s| self.canonical[s.index()]);
                &remapped
            };
            let (spec, attlist, report) =
                infer_element(&self.dtd.alphabet, canon, words, facts, self.engine);
            dtdinfer_obs::count_labeled("xml.engine", report.engine, 1);
            dtdinfer_obs::observe("xml.element.expr_size", report.expr_size as u64);
            // Per-element events are costly fields and would flood serve's
            // flight ring, so only a trace gets them.
            if dtdinfer_obs::trace_enabled() {
                dtdinfer_obs::event(
                    "xml.element",
                    &[
                        ("name", report.name.clone()),
                        ("engine", report.engine.to_owned()),
                        ("words", report.words.to_string()),
                        ("repairs", report.repairs.to_string()),
                    ],
                );
            }
            self.dtd.elements.insert(canon, spec);
            if !attlist.is_empty() {
                self.dtd.attlists.insert(canon, attlist);
            }
            self.reports[canon.index()] = Some(report);
            relearned += 1;
        }
        relearned
    }

    /// Re-interns the corpus's names in sorted order and drops every
    /// cached element, whose symbols and models are all stale.
    fn rebuild_alphabet(&mut self, alphabet: &Alphabet) {
        let (canonical, table) = alphabet.sorted();
        self.canonical = table;
        self.identity = self
            .canonical
            .iter()
            .enumerate()
            .all(|(i, s)| s.index() == i);
        self.reports = vec![None; canonical.len()];
        self.dtd = Dtd {
            alphabet: canonical,
            ..Dtd::default()
        };
    }

    /// The derived schema, over the canonical alphabet.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// One report per derived element, in element-name order.
    pub fn reports(&self) -> impl Iterator<Item = &ElementReport> {
        self.reports.iter().flatten()
    }

    /// The schema and its reports, in element-name order.
    pub fn into_parts(self) -> (Dtd, Vec<ElementReport>) {
        (self.dtd, self.reports.into_iter().flatten().collect())
    }
}

/// Content-model size in tokens, for the stats report.
pub fn spec_size(spec: &ContentSpec) -> usize {
    match spec {
        ContentSpec::Empty | ContentSpec::Any | ContentSpec::PcData => 1,
        ContentSpec::Mixed(syms) => syms.len() + 1,
        ContentSpec::Children(r) => r.token_count(),
    }
}

/// What [`learn_model`] learned from one child-word multiset.
#[derive(Debug, Clone)]
pub struct LearnedModel {
    /// The content model.
    pub model: InferredModel,
    /// The learner that produced it: `crx`, `idtd`, `idtd-noise`, `kore`,
    /// or `auto`'s verdict (`auto-sore`, `auto-kore`, `auto-chare`).
    pub engine: &'static str,
    /// Rewrite-rule applications in the iDTD derivation (0 for CRX).
    pub rewrite_steps: usize,
    /// Repair-rule invocations in the iDTD derivation (0 for CRX).
    pub repairs: usize,
    /// Merge-everything fallback firings (0 unless iDTD got stuck).
    pub fallbacks: usize,
}

impl LearnedModel {
    fn new(model: InferredModel, engine: &'static str, events: &[Event]) -> Self {
        let mut learned = LearnedModel {
            model,
            engine,
            rewrite_steps: 0,
            repairs: 0,
            fallbacks: 0,
        };
        for e in events {
            match e {
                Event::Rewrite(_) => learned.rewrite_steps += 1,
                Event::Repair { .. } => learned.repairs += 1,
                Event::Fallback => learned.fallbacks += 1,
            }
        }
        learned
    }
}

/// Learns a content model from a counted child-word multiset: the one
/// path from words to a model, shared by [`infer_element`] and
/// `dtdinfer learn`. Every learner is built here from the distinct words
/// and consumes each once: the SOA is a set union (count-invariant), CRX
/// and the support counters take the multiplicity as a weight. Ties break
/// in symbol order, and `auto`'s model cost reads `alphabet_len`.
pub fn learn_model(words: &WordBag, alphabet_len: usize, engine: InferenceEngine) -> LearnedModel {
    match engine {
        InferenceEngine::Crx => LearnedModel::new(crx_counted(words.iter()), "crx", &[]),
        InferenceEngine::Idtd => {
            let soa = Soa::learn(words.words());
            let (model, trace) = idtd_traced(&soa, IdtdConfig::default());
            LearnedModel::new(model, "idtd", &trace)
        }
        InferenceEngine::IdtdNoise { threshold } => LearnedModel::new(
            SupportSoa::learn_counted(words.iter()).infer_denoised(threshold),
            "idtd-noise",
            &[],
        ),
        InferenceEngine::Kore => {
            let outcome = KoreState::learn_counted(words).derive();
            LearnedModel::new(outcome.model, "kore", &outcome.events)
        }
        InferenceEngine::Auto => {
            let soa = Soa::learn(words.words());
            let sore = idtd_traced(&soa, IdtdConfig::default());
            // The k-ORE descent stops at k = 2: `pick_auto` reads the
            // k = 1 candidate off `sore`.
            let kore = KoreState::learn_counted(words).derive_repeated();
            let chare = crx_counted(words.iter());
            let pick = pick_auto(sore, kore, chare, alphabet_len, words);
            LearnedModel::new(pick.model, pick.engine, &pick.events)
        }
    }
}

/// Learns one element's content model and attribute list: the
/// per-element step of [`Derivation::update`]. `words` is the element's
/// child-word multiset written over `alphabet`, which callers make the
/// canonical (name-sorted) one so ties break by name; `facts` supplies
/// the text and attribute reservoirs and the occurrence count (its own
/// `words` are not read). Element children are learned by
/// [`learn_model`], so no learner state outlives the call. The report's
/// duration covers the content model only.
pub fn infer_element(
    alphabet: &Alphabet,
    sym: Sym,
    words: &WordBag,
    facts: &ElementFacts,
    engine: InferenceEngine,
) -> (ContentSpec, Vec<AttDef>, ElementReport) {
    let started = Instant::now();
    let mut engine_used = "empty";
    let (mut rewrite_steps, mut repairs, mut fallbacks) = (0usize, 0usize, 0usize);
    let has_text = facts.has_text();
    let has_children = words.words().any(|w| !w.is_empty());
    let spec = match (has_text, has_children) {
        // Never any content observed: EMPTY is the tight choice (the
        // specialization-over-generalization default of §1.2's rich-data
        // scenario; a later document with text would flip this to PCDATA).
        (false, false) => ContentSpec::Empty,
        (true, false) => {
            engine_used = "pcdata";
            ContentSpec::PcData
        }
        (true, true) => {
            // Mixed content: DTDs only allow (#PCDATA | a | b)*. This is
            // exactly the §9 XHTML-paragraph shape, so the noise engine's
            // support threshold applies here too: child names occurring
            // fewer than `threshold` times are treated as intruders.
            let mut support: std::collections::BTreeMap<Sym, u64> = Default::default();
            for (w, n) in words.iter() {
                for &s in w {
                    *support.entry(s).or_insert(0) += u64::from(n);
                }
            }
            let threshold = match engine {
                InferenceEngine::IdtdNoise { threshold } => threshold,
                _ => 0,
            };
            let syms: BTreeSet<Sym> = support
                .into_iter()
                .filter(|&(_, count)| count >= threshold.max(1))
                .map(|(s, _)| s)
                .collect();
            engine_used = "mixed";
            ContentSpec::Mixed(syms.into_iter().collect())
        }
        (false, true) => {
            let learned = learn_model(words, alphabet.len(), engine);
            engine_used = learned.engine;
            (rewrite_steps, repairs, fallbacks) =
                (learned.rewrite_steps, learned.repairs, learned.fallbacks);
            match learned.model {
                InferredModel::Regex(r) => ContentSpec::Children(r),
                InferredModel::EpsilonOnly | InferredModel::Empty => ContentSpec::Empty,
            }
        }
    };
    let report = ElementReport {
        name: alphabet.name(sym).to_owned(),
        engine: engine_used,
        occurrences: facts.occurrences,
        words: words.total() as usize,
        rewrite_steps,
        repairs,
        fallbacks,
        expr_size: spec_size(&spec),
        duration_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    let attlist = facts
        .attributes
        .iter()
        .map(|(attr, values)| infer_attdef_from_bag(attr, values, facts.occurrences))
        .collect();
    (spec, attlist, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(docs: &[&str]) -> Corpus {
        let mut c = Corpus::new();
        for d in docs {
            c.add_document(d).unwrap();
        }
        c
    }

    #[test]
    fn end_to_end_simple_dtd() {
        let c = corpus(&[
            "<book><title>T1</title><author>A</author><author>B</author></book>",
            "<book><title>T2</title><author>C</author></book>",
        ]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let text = dtd.serialize();
        assert!(text.contains("<!ELEMENT book (title, author+)>"), "{text}");
        assert!(text.contains("<!ELEMENT title (#PCDATA)>"));
        assert!(text.contains("<!ELEMENT author (#PCDATA)>"));
        // The inferred DTD validates its own training data.
        for doc in [
            "<book><title>T1</title><author>A</author><author>B</author></book>",
            "<book><title>T2</title><author>C</author></book>",
        ] {
            assert_eq!(dtd.validate(doc).unwrap(), Vec::<String>::new());
        }
    }

    #[test]
    fn idtd_engine_gives_sore() {
        let c = corpus(&[
            "<r><a/><b/><a/><b/><c/></r>",
            "<r><a/><a/><c/></r>",
            "<r><b/><b/><c/></r>",
            "<r><b/><a/><c/></r>",
            "<r><c/></r>",
        ]);
        let dtd = infer_dtd(&c, InferenceEngine::Idtd);
        let canon = c.canonicalized();
        let r = dtd.alphabet.get("r").unwrap();
        match &dtd.elements[&r] {
            ContentSpec::Children(regex) => {
                assert!(dtdinfer_regex::classify::is_sore(regex));
                // Training sequences all match (over the canonical corpus,
                // whose symbols the DTD's expressions are written in).
                for w in canon.sequences_of("r").unwrap().words() {
                    assert!(dtdinfer_automata::nfa::regex_matches(regex, w));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mixed_content_detected() {
        let c = corpus(&["<p>text <em>x</em> more <strong>y</strong></p>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let p = dtd.alphabet.get("p").unwrap();
        match &dtd.elements[&p] {
            ContentSpec::Mixed(syms) => assert_eq!(syms.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_elements_declared_empty() {
        let c = corpus(&["<r><hr/><hr/></r>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let hr = dtd.alphabet.get("hr").unwrap();
        assert_eq!(dtd.elements[&hr], ContentSpec::Empty);
    }

    #[test]
    fn root_is_set() {
        let c = corpus(&["<top><a/></top>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        assert_eq!(dtd.root, dtd.alphabet.get("top"));
        assert!(dtd.serialize().starts_with("<!ELEMENT top"));
    }

    #[test]
    fn update_rederives_an_element_whose_only_new_fact_is_a_value() {
        let mut c = corpus(&["<r><a/></r>"]);
        let mut derivation = Derivation::new(InferenceEngine::Idtd);
        assert_eq!(derivation.update(&c), 2);
        assert_eq!(derivation.update(&c), 0, "nothing changed");
        // `a` keeps its child words; only an attribute value is new.
        c.add_document(r#"<r><a x="1"/></r>"#).unwrap();
        assert_eq!(derivation.update(&c), 2);
        let text = derivation.dtd().serialize();
        assert!(text.contains("<!ATTLIST a x "), "{text}");
        assert_eq!(text, infer_dtd(&c, InferenceEngine::Idtd).serialize());
        // Only a text value is new.
        c.add_document("<r><a>t</a></r>").unwrap();
        assert_eq!(derivation.update(&c), 2);
        let text = derivation.dtd().serialize();
        assert!(text.contains("<!ELEMENT a (#PCDATA)>"), "{text}");
        assert_eq!(text, infer_dtd(&c, InferenceEngine::Idtd).serialize());
    }

    #[test]
    fn a_new_name_rederives_every_element() {
        let mut c = corpus(&["<r><b/></r>"]);
        let mut derivation = Derivation::new(InferenceEngine::Auto);
        derivation.update(&c);
        // `r` and `b` are untouched, but `a` sorts before them.
        c.add_document("<s><a/></s>").unwrap();
        assert_eq!(derivation.update(&c), 4);
        let (cold, cold_reports) = infer_dtd_with_stats(&c, InferenceEngine::Auto);
        assert_eq!(derivation.dtd().serialize(), cold.serialize());
        let names: Vec<&str> = derivation.reports().map(|r| r.name.as_str()).collect();
        let cold_names: Vec<&str> = cold_reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "r", "s"]);
        assert_eq!(names, cold_names);
    }

    #[test]
    fn kore_engine_learns_repeated_symbol() {
        // `a b a?` has no SORE; the k-ORE engine recovers it exactly.
        let c = corpus(&["<r><a/><b/><a/></r>", "<r><a/><b/></r>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Kore);
        let text = dtd.serialize();
        assert!(text.contains("<!ELEMENT r (a, b, a?)>"), "{text}");
        for doc in ["<r><a/><b/><a/></r>", "<r><a/><b/></r>"] {
            assert_eq!(dtd.validate(doc).unwrap(), Vec::<String>::new());
        }
    }

    #[test]
    fn auto_engine_validates_sample_and_reports_choice() {
        let c = corpus(&[
            "<r><a/><b/><a/></r>",
            "<r><a/><b/><a/></r>",
            "<r><a/><b/></r>",
        ]);
        let (dtd, reports) = infer_dtd_with_stats(&c, InferenceEngine::Auto);
        let r = reports.iter().find(|rep| rep.name == "r").unwrap();
        assert!(
            r.engine.starts_with("auto-"),
            "chooser should stamp its verdict, got {}",
            r.engine
        );
        for doc in ["<r><a/><b/><a/></r>", "<r><a/><b/></r>"] {
            assert_eq!(dtd.validate(doc).unwrap(), Vec::<String>::new());
        }
    }

    #[test]
    fn noise_engine_cleans_mixed_content() {
        // The §9 XHTML scenario shape: paragraphs mixing text with em/strong,
        // plus a rare disallowed h1 intruder.
        let mut docs: Vec<String> = Vec::new();
        for i in 0..40 {
            docs.push(format!(
                "<p>text {i} <em>x</em> more <strong>y</strong></p>"
            ));
        }
        docs.push("<p>bad <h1>shout</h1></p>".to_owned());
        let mut c = Corpus::new();
        for d in &docs {
            c.add_document(d).unwrap();
        }
        let noisy = infer_dtd(&c, InferenceEngine::Idtd);
        let clean = infer_dtd(&c, InferenceEngine::IdtdNoise { threshold: 5 });
        let p_sym = noisy.alphabet.get("p").unwrap();
        let h1 = noisy.alphabet.get("h1").unwrap();
        match (&noisy.elements[&p_sym], &clean.elements[&p_sym]) {
            (ContentSpec::Mixed(with), ContentSpec::Mixed(without)) => {
                assert!(with.contains(&h1));
                assert!(!without.contains(&h1));
                assert_eq!(without.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn noise_engine_drops_rare_intruders() {
        let mut docs: Vec<String> = Vec::new();
        for _ in 0..30 {
            docs.push("<r><a/><b/></r>".to_owned());
            docs.push("<r><b/><a/></r>".to_owned());
            docs.push("<r><a/></r>".to_owned());
            docs.push("<r><b/></r>".to_owned());
            docs.push("<r><a/><a/></r>".to_owned());
            docs.push("<r><b/><b/></r>".to_owned());
            docs.push("<r></r>".to_owned());
        }
        docs.push("<r><z/></r>".to_owned());
        let mut c = Corpus::new();
        for d in &docs {
            c.add_document(d).unwrap();
        }
        let dtd = infer_dtd(&c, InferenceEngine::IdtdNoise { threshold: 5 });
        let r = dtd.alphabet.get("r").unwrap();
        let z = dtd.alphabet.get("z").unwrap();
        match &dtd.elements[&r] {
            ContentSpec::Children(regex) => {
                assert!(!regex.symbols().contains(&z), "{}", dtd.serialize());
            }
            other => panic!("{other:?}"),
        }
    }
}
