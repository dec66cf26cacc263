//! Corpus extraction: XML documents → per-element child-name sequences.
//!
//! DTD inference reduces to learning one regular expression per element
//! name from the multiset of strings occurring below that element (§1.2);
//! the [`Corpus`] accumulates exactly those words, along with the text and
//! attribute samples needed for the XSD datatype heuristics of §9.

use crate::dtd::Dtd;
use crate::infer::{infer_dtd_with_stats, ElementReport, InferenceEngine};
use crate::parser::{XmlError, XmlEvent, XmlPullParser};
use crate::samples::{SampleBag, SampleTally};
use dtdinfer_regex::alphabet::{Alphabet, Sym, Word};
use dtdinfer_regex::multiset::WordBag;
use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

/// Everything observed about one element name: the per-element summary
/// that inference reads and the sharded engine's snapshots persist,
/// exactly these four fields. Every learner is a pure function of `words`,
/// so no learner state is kept beside it.
#[derive(Debug, Clone, Default)]
pub struct ElementFacts {
    /// The child-name sequences observed under the element, as a counted
    /// multiset: one `(word, count)` entry per *distinct* sequence. Real
    /// corpora repeat shapes heavily, so this is far smaller than one
    /// word per occurrence and lets the learners absorb each distinct
    /// word once with its multiplicity.
    pub words: WordBag,
    /// Non-whitespace text chunks observed directly under the element
    /// (bounded reservoir; exact total and datatype mask).
    pub text_samples: SampleBag,
    /// Attribute name → sampled values (bounded reservoir per attribute).
    pub attributes: BTreeMap<String, SampleBag>,
    /// Total number of occurrences.
    pub occurrences: u64,
}

impl ElementFacts {
    /// Whether the element ever had character data.
    pub fn has_text(&self) -> bool {
        !self.text_samples.is_empty()
    }
}

/// [`ElementFacts`] per element name, indexed by [`Sym::index`]: symbols
/// are dense ids into the corpus alphabet, so the parse loop reaches an
/// element's facts with one index at every start tag, text chunk and end
/// tag. Iteration runs in symbol order; a symbol without facts is skipped
/// and not counted in [`ElementTable::len`].
#[derive(Debug, Clone, Default)]
pub struct ElementTable {
    slots: Vec<Option<ElementFacts>>,
}

impl ElementTable {
    /// Number of elements with facts.
    pub fn len(&self) -> usize {
        self.values().count()
    }

    /// Whether no element has facts.
    pub fn is_empty(&self) -> bool {
        self.values().next().is_none()
    }

    /// The facts of `sym`, if it has any.
    pub fn get(&self, sym: Sym) -> Option<&ElementFacts> {
        self.slots.get(sym.index())?.as_ref()
    }

    /// The facts of `sym`, created empty if it has none yet.
    pub fn entry(&mut self, sym: Sym) -> &mut ElementFacts {
        let i = sym.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].get_or_insert_with(ElementFacts::default)
    }

    /// `(symbol, facts)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &ElementFacts)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((Sym(i as u32), slot.as_ref()?)))
    }

    /// The facts in symbol order.
    pub fn values(&self) -> impl Iterator<Item = &ElementFacts> + Clone {
        self.slots.iter().flatten()
    }
}

impl Index<Sym> for ElementTable {
    type Output = ElementFacts;

    fn index(&self, sym: Sym) -> &ElementFacts {
        self.get(sym).expect("no facts for this symbol")
    }
}

impl IndexMut<Sym> for ElementTable {
    fn index_mut(&mut self, sym: Sym) -> &mut ElementFacts {
        self.slots
            .get_mut(sym.index())
            .and_then(Option::as_mut)
            .expect("no facts for this symbol")
    }
}

/// The root with the most documents, if any. Ties go to the
/// lexicographically smallest name, so the choice does not depend on
/// document arrival order.
pub fn dominant_root(roots: &BTreeMap<Sym, u64>, alphabet: &Alphabet) -> Option<Sym> {
    roots
        .iter()
        .max_by(|a, b| {
            a.1.cmp(b.1)
                .then_with(|| alphabet.name(*b.0).cmp(alphabet.name(*a.0)))
        })
        .map(|(&sym, _)| sym)
}

/// Reusable parse scratch for [`Corpus::add_document_with`]: the element
/// stack and a pool of recycled child [`Word`]s. One arena per worker
/// keeps the steady-state ingestion loop allocation-free for repeated
/// document shapes — new allocations happen only on first sight of a
/// distinct child sequence.
#[derive(Debug, Default)]
pub struct ParseArena {
    /// Open-element stack: (element symbol, children seen so far).
    stack: Vec<(Sym, Word)>,
    /// Recycled `Word` buffers, refilled as elements close.
    spare: Vec<Word>,
}

impl ParseArena {
    /// A fresh arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns every in-progress buffer to the spare pool (used after a
    /// parse error aborts a document mid-way, so the arena is clean for
    /// the next one).
    fn recycle(&mut self) {
        while let Some((_, mut w)) = self.stack.pop() {
            w.clear();
            self.spare.push(w);
        }
    }
}

/// A corpus of XML documents reduced to inference-ready statistics. It is
/// also the sharded engine's whole state: shards fill and merge corpora,
/// snapshots save and load one, and a serve session keeps one.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// Interned element names.
    pub alphabet: Alphabet,
    /// Facts per element, indexed by symbol.
    pub elements: ElementTable,
    /// Root elements observed, with counts (document order of first root
    /// wins ties in [`Corpus::root`]).
    pub roots: BTreeMap<Sym, u64>,
    /// Number of documents absorbed.
    pub num_documents: u64,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses one document and folds its statistics in.
    pub fn add_document(&mut self, doc: &str) -> Result<(), XmlError> {
        self.add_document_with(doc, &mut ParseArena::new())
    }

    /// [`Corpus::add_document`] with caller-owned scratch: a worker that
    /// ingests many documents reuses one [`ParseArena`], so the
    /// per-document element stack and child words come from recycled
    /// buffers. Each event reaches its element's facts with one index
    /// into the [`ElementTable`], and each closing element adds its child
    /// sequence to its element's multiset by reference: a shape seen
    /// before costs one binary search and an increment. The loop touches
    /// no metrics registry: the reservoirs' overflows and evictions are
    /// tallied and published once, when the document ends.
    pub fn add_document_with(&mut self, doc: &str, arena: &mut ParseArena) -> Result<(), XmlError> {
        let mut tally = SampleTally::default();
        let parsed = self.absorb_events(doc, arena, &mut tally);
        tally.publish();
        parsed
    }

    /// The parse loop of [`Corpus::add_document_with`].
    fn absorb_events(
        &mut self,
        doc: &str,
        arena: &mut ParseArena,
        tally: &mut SampleTally,
    ) -> Result<(), XmlError> {
        let mut parser = XmlPullParser::new(doc);
        let mut seen_root = false;
        loop {
            let event = match parser.next() {
                Ok(Some(event)) => event,
                Ok(None) => break,
                Err(e) => {
                    arena.recycle();
                    return Err(e);
                }
            };
            match event {
                XmlEvent::StartElement {
                    name, attributes, ..
                } => {
                    let sym = self.alphabet.intern(name);
                    let facts = self.elements.entry(sym);
                    facts.occurrences += 1;
                    for (attr, value) in &attributes {
                        // Allocate the attribute name only on first sight.
                        let retention = if let Some(bag) = facts.attributes.get_mut(*attr) {
                            bag.insert(value)
                        } else {
                            facts
                                .attributes
                                .entry((*attr).to_owned())
                                .or_default()
                                .insert(value)
                        };
                        tally.add(retention);
                    }
                    if let Some((_, children)) = arena.stack.last_mut() {
                        children.push(sym);
                    } else if !seen_root {
                        seen_root = true;
                        *self.roots.entry(sym).or_insert(0) += 1;
                    }
                    let children = arena.spare.pop().unwrap_or_default();
                    arena.stack.push((sym, children));
                }
                XmlEvent::EndElement { .. } => {
                    let (sym, mut children) = arena.stack.pop().expect("parser checks balance");
                    self.elements[sym].words.insert_ref(&children);
                    children.clear();
                    arena.spare.push(children);
                }
                XmlEvent::Text(text) => {
                    let trimmed = text.trim();
                    if !trimmed.is_empty() {
                        if let Some(&mut (sym, _)) = arena.stack.last_mut() {
                            tally.add(self.elements[sym].text_samples.insert(trimmed));
                        }
                    }
                }
                XmlEvent::Comment(_)
                | XmlEvent::ProcessingInstruction(_)
                | XmlEvent::Doctype(_) => {}
            }
        }
        self.num_documents += 1;
        Ok(())
    }

    /// The dominant root element (most documents), if any; see
    /// [`dominant_root`].
    pub fn root(&self) -> Option<Sym> {
        dominant_root(&self.roots, &self.alphabet)
    }

    /// A copy of the corpus re-interned over a name-sorted alphabet, so
    /// symbol order equals lexicographic name order. Every learner in this
    /// workspace breaks ties in symbol order, so inference over the
    /// canonical corpus is independent of document arrival order.
    pub fn canonicalized(&self) -> Corpus {
        let (alphabet, table) = self.alphabet.sorted();
        if table.iter().enumerate().all(|(i, s)| s.index() == i) {
            return self.clone();
        }
        let map = |s: Sym| table[s.index()];
        let mut elements = ElementTable::default();
        for (sym, facts) in self.elements.iter() {
            *elements.entry(map(sym)) = ElementFacts {
                words: facts.words.map_symbols(map),
                text_samples: facts.text_samples.clone(),
                attributes: facts.attributes.clone(),
                occurrences: facts.occurrences,
            };
        }
        let roots = self.roots.iter().map(|(&s, &c)| (map(s), c)).collect();
        Corpus {
            alphabet,
            elements,
            roots,
            num_documents: self.num_documents,
        }
    }

    /// Folds another corpus in (a shard's), reconciling the two alphabets
    /// by element name: word multisets, reservoirs, occurrence and root
    /// counts add. Commutative up to interning order, which
    /// [`Corpus::canonicalized`] and every derivation take away, so the
    /// merged schema does not depend on shard assignment or merge order.
    pub fn merge(&mut self, other: &Corpus) {
        let map: Vec<Sym> = other
            .alphabet
            .entries()
            .map(|(_, name)| self.alphabet.intern(name))
            .collect();
        let f = |s: Sym| map[s.index()];
        for (sym, facts) in other.elements.iter() {
            let into = self.elements.entry(f(sym));
            into.words.merge(&facts.words.map_symbols(f));
            into.text_samples.merge(&facts.text_samples);
            for (attr, values) in &facts.attributes {
                into.attributes
                    .entry(attr.clone())
                    .or_default()
                    .merge(values);
            }
            into.occurrences += facts.occurrences;
        }
        for (&root, &count) in &other.roots {
            *self.roots.entry(f(root)).or_insert(0) += count;
        }
        self.num_documents += other.num_documents;
        dtdinfer_obs::count("engine.merges", 1);
    }

    /// The child-sequence multiset of one element name.
    pub fn sequences_of(&self, name: &str) -> Option<&WordBag> {
        let sym = self.alphabet.get(name)?;
        self.elements.get(sym).map(|f| &f.words)
    }

    /// Total number of extracted words (occurrences, not distinct
    /// sequences) across all elements.
    pub fn total_sequences(&self) -> usize {
        self.elements
            .values()
            .map(|f| f.words.total() as usize)
            .sum()
    }
}

/// The method names of the engine state's former wrapper type, which the
/// benchmark under `perfbench/` still compiles against (with the
/// `dtdinfer_engine::EngineState` alias of [`Corpus`]). They go when the
/// benchmark moves off them, ROADMAP item 4's benchmark change.
impl Corpus {
    /// Use [`Corpus::add_document`].
    #[deprecated(note = "use `Corpus::add_document`")]
    pub fn absorb_document(&mut self, doc: &str) -> Result<(), XmlError> {
        self.add_document(doc)
    }

    /// Use [`Corpus::add_document_with`].
    #[deprecated(note = "use `Corpus::add_document_with`")]
    pub fn absorb_document_with(
        &mut self,
        doc: &str,
        arena: &mut ParseArena,
    ) -> Result<(), XmlError> {
        self.add_document_with(doc, arena)
    }

    /// Use [`infer_dtd_with_stats`].
    #[deprecated(note = "use `dtdinfer_xml::infer::infer_dtd_with_stats`")]
    pub fn derive(&self, engine: InferenceEngine) -> (Dtd, Vec<ElementReport>) {
        infer_dtd_with_stats(self, engine)
    }

    /// Use the corpus itself, or `clone` it.
    #[deprecated(note = "use the corpus itself")]
    pub fn facts_corpus(&self) -> Corpus {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_child_sequences() {
        let mut c = Corpus::new();
        c.add_document("<r><a/><b/><a/></r>").unwrap();
        c.add_document("<r><b/></r>").unwrap();
        let r = c.sequences_of("r").unwrap();
        assert_eq!(r.total(), 2);
        let words: Vec<String> = r.words().map(|w| c.alphabet.render_word(w, " ")).collect();
        assert_eq!(words, vec!["a b a", "b"]);
        // Leaves have empty sequences, deduplicated under one count.
        assert_eq!(c.sequences_of("a").unwrap().as_slice(), &[(vec![], 2)]);
    }

    #[test]
    fn repeated_shapes_collapse_into_counts() {
        let mut c = Corpus::new();
        for _ in 0..5 {
            c.add_document("<r><a/><b/></r>").unwrap();
        }
        c.add_document("<r><b/></r>").unwrap();
        let r = c.sequences_of("r").unwrap();
        assert_eq!(r.distinct(), 2, "two distinct shapes");
        assert_eq!(r.total(), 6, "six occurrences");
        let counts: Vec<u32> = r.iter().map(|(_, n)| n).collect();
        assert_eq!(counts, vec![5, 1]);
    }

    #[test]
    fn text_and_attributes_sampled() {
        let mut c = Corpus::new();
        c.add_document(r#"<r id="7"><t>  hello </t><t>42</t></r>"#)
            .unwrap();
        let t = c.alphabet.get("t").unwrap();
        let texts: Vec<_> = c.elements[t].text_samples.entries().collect();
        assert_eq!(texts, vec![("42", 1), ("hello", 1)]);
        let r = c.alphabet.get("r").unwrap();
        let ids: Vec<_> = c.elements[r].attributes["id"].entries().collect();
        assert_eq!(ids, vec![("7", 1)]);
        assert!(c.elements[t].has_text());
    }

    #[test]
    fn text_and_attribute_memory_is_bounded() {
        // A corpus with far more distinct values than the reservoir cap:
        // retained sample counts stay at the cap while totals stay exact.
        let mut c = Corpus::new();
        let cap = crate::samples::DEFAULT_SAMPLE_CAP;
        for i in 0..(cap * 10) {
            c.add_document(&format!(r#"<r k="val{i}"><t>text {i}</t></r>"#))
                .unwrap();
        }
        let t = c.alphabet.get("t").unwrap();
        let bag = &c.elements[t].text_samples;
        assert_eq!(bag.distinct_retained(), cap);
        assert!(bag.overflowed());
        assert_eq!(bag.total(), (cap * 10) as u64);
        let r = c.alphabet.get("r").unwrap();
        let ids = &c.elements[r].attributes["k"];
        assert_eq!(ids.distinct_retained(), cap);
        assert_eq!(ids.total(), (cap * 10) as u64);
    }

    #[test]
    fn root_detection() {
        let mut c = Corpus::new();
        c.add_document("<r><a/></r>").unwrap();
        c.add_document("<r/>").unwrap();
        c.add_document("<other/>").unwrap();
        assert_eq!(c.root(), c.alphabet.get("r"));
        assert_eq!(c.num_documents, 3);
    }

    #[test]
    fn whitespace_only_text_ignored() {
        let mut c = Corpus::new();
        c.add_document("<r>\n  <a/>\n</r>").unwrap();
        let r = c.alphabet.get("r").unwrap();
        assert!(!c.elements[r].has_text());
    }

    #[test]
    fn parse_errors_propagate() {
        let mut c = Corpus::new();
        assert!(c.add_document("<r><a></r>").is_err());
    }

    #[test]
    fn canonicalized_sorts_alphabet_by_name() {
        let mut c = Corpus::new();
        c.add_document("<z><m/><a/></z>").unwrap();
        let canon = c.canonicalized();
        let names: Vec<_> = canon
            .alphabet
            .entries()
            .map(|(_, n)| n.to_owned())
            .collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        // Same facts, relabeled.
        assert_eq!(canon.num_documents, 1);
        let z = canon.alphabet.get("z").unwrap();
        let word = canon.elements[z]
            .words
            .words()
            .next()
            .expect("one sequence");
        assert_eq!(canon.alphabet.render_word(word, " "), "m a");
        assert_eq!(canon.root(), Some(z));
        // Already-canonical corpora come back unchanged.
        assert_eq!(canon.canonicalized().alphabet, canon.alphabet);
    }

    #[test]
    fn root_ties_break_by_name() {
        let mut c = Corpus::new();
        c.add_document("<z/>").unwrap();
        c.add_document("<a/>").unwrap();
        assert_eq!(c.root(), c.alphabet.get("a"));
        // More documents beat name order.
        c.add_document("<z/>").unwrap();
        assert_eq!(c.root(), c.alphabet.get("z"));
    }

    #[test]
    fn occurrence_counting() {
        let mut c = Corpus::new();
        c.add_document("<r><a/><a/><a/></r>").unwrap();
        let a = c.alphabet.get("a").unwrap();
        assert_eq!(c.elements[a].occurrences, 3);
        assert_eq!(c.total_sequences(), 4);
    }
}
