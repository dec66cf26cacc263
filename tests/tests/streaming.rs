//! Properties of the streaming ingestion pipeline: generated documents
//! round trip through parse → extract, sharded ingestion of generated
//! corpora is deterministic, reservoirs stay bounded on corpora far past
//! their cap, and malformed entity references parse as literal text.

use dtdinfer_engine::pool::ingest;
use dtdinfer_engine::snapshot;
use dtdinfer_xml::extract::Corpus;
use dtdinfer_xml::infer::{infer_dtd, InferenceEngine};
use dtdinfer_xml::parser::{encode_entities, XmlEvent, XmlPullParser};
use dtdinfer_xml::samples::DEFAULT_SAMPLE_CAP;
use proptest::prelude::*;

/// A small random element tree, the generator side of the round trip.
#[derive(Debug, Clone)]
struct Tree {
    name: String,
    attrs: Vec<(String, String)>,
    text: Option<String>,
    children: Vec<Tree>,
}

impl Tree {
    fn serialize(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&encode_entities(v));
            out.push('"');
        }
        if self.text.is_none() && self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        if let Some(t) = &self.text {
            out.push_str(&encode_entities(t));
        }
        for c in &self.children {
            c.serialize(out);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Expected (element name → child-name sequences) facts, in document
    /// walk order.
    fn expected_words(&self, into: &mut Vec<(String, Vec<String>)>) {
        into.push((
            self.name.clone(),
            self.children.iter().map(|c| c.name.clone()).collect(),
        ));
        for c in &self.children {
            c.expected_words(into);
        }
    }
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let name = prop_oneof![
        Just("a".to_owned()),
        Just("b".to_owned()),
        Just("c".to_owned()),
        Just("item".to_owned()),
        Just("x-y".to_owned()),
    ];
    let attr = (
        prop_oneof![Just("id".to_owned()), Just("kind".to_owned())],
        "[ -~]{0,8}",
    );
    let leaf = (
        name.clone(),
        prop::collection::vec(attr.clone(), 0..2),
        prop_oneof![Just(None), "[ -~]{1,12}".prop_map(Some),],
    )
        .prop_map(|(name, mut attrs, text)| {
            attrs.dedup_by(|a, b| a.0 == b.0);
            Tree {
                name,
                attrs,
                // Whitespace-only text is not observable (the extractor
                // trims it), so pin it to something visible.
                text: text.filter(|t| !t.trim().is_empty()),
                children: Vec::new(),
            }
        });
    leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            prop_oneof![Just("r".to_owned()), Just("node".to_owned())],
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, children)| Tree {
                name,
                attrs: Vec::new(),
                text: None,
                children,
            })
    })
}

/// Renders a corpus's child words back to strings for comparison.
fn corpus_words(c: &Corpus) -> Vec<(String, Vec<Vec<String>>)> {
    c.elements
        .iter()
        .map(|(sym, facts)| {
            (
                c.alphabet.name(sym).to_owned(),
                facts
                    .words
                    .iter()
                    .flat_map(|(w, n)| {
                        // Expand the counted multiset back to occurrences
                        // for comparison against the generated tree.
                        let word: Vec<String> =
                            w.iter().map(|&s| c.alphabet.name(s).to_owned()).collect();
                        std::iter::repeat_n(word, n as usize)
                    })
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generate → serialize → parse → extract recovers exactly the child
    /// words, occurrence counts, and text/attribute totals of the tree.
    #[test]
    fn generated_trees_round_trip_through_extraction(tree in tree_strategy()) {
        let mut doc = String::new();
        tree.serialize(&mut doc);
        let mut corpus = Corpus::new();
        corpus.add_document(&doc).expect("generated document parses");

        let mut expected: Vec<(String, Vec<String>)> = Vec::new();
        tree.expected_words(&mut expected);
        for (name, mut words) in corpus_words(&corpus) {
            // The extractor records words in end-tag order, the tree
            // enumerates in start-tag order — compare as multisets.
            let mut want: Vec<Vec<String>> = expected
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, w)| w.clone())
                .collect();
            words.sort();
            want.sort();
            prop_assert_eq!(words, want, "children of {}", &name);
        }
        let texts: u64 = tree_texts(&tree);
        let observed: u64 = corpus.elements.values().map(|f| f.text_samples.total()).sum();
        prop_assert_eq!(observed, texts);
        let attrs: u64 = tree_attrs(&tree);
        let observed: u64 = corpus
            .elements
            .values()
            .flat_map(|f| f.attributes.values())
            .map(|b| b.total())
            .sum();
        prop_assert_eq!(observed, attrs);
    }

    /// Sharded ingestion of a generated corpus is byte-identical to
    /// sequential — DTD and snapshot both.
    #[test]
    fn sharded_ingestion_of_generated_corpora_is_deterministic(
        trees in prop::collection::vec(tree_strategy(), 1..8),
        jobs in 2usize..5,
    ) {
        let docs: Vec<String> = trees
            .iter()
            .map(|t| {
                let mut d = String::new();
                t.serialize(&mut d);
                d
            })
            .collect();
        let sequential = ingest(&docs, 1).expect("generated corpus parses");
        let sharded = ingest(&docs, jobs).expect("generated corpus parses");
        prop_assert_eq!(
            infer_dtd(&sequential.state, InferenceEngine::Idtd).serialize(),
            infer_dtd(&sharded.state, InferenceEngine::Idtd).serialize()
        );
        prop_assert_eq!(
            snapshot::save(&sequential.state),
            snapshot::save(&sharded.state)
        );
    }
}

fn tree_texts(t: &Tree) -> u64 {
    u64::from(t.text.is_some()) + t.children.iter().map(tree_texts).sum::<u64>()
}

fn tree_attrs(t: &Tree) -> u64 {
    t.attrs.len() as u64 + t.children.iter().map(tree_attrs).sum::<u64>()
}

/// Malformed entity references are not errors: the parser passes them
/// through as literal text, in character data and attribute values
/// alike (§9: real-world XML is noisy).
#[test]
fn malformed_entity_references_parse_as_literal_text() {
    let cases = [
        ("<a>\n  bad &#xZZ; ref</a>", "&#xZZ;"),
        ("<a>broken &amp reference</a>", "&amp reference"),
        ("<a v=\"&#xD800;\"/>", "&#xD800;"),
        ("<a>\n\n<b t=\"&bogus;\"/></a>", "&bogus;"),
    ];
    for (doc, literal) in cases {
        let events = XmlPullParser::new(doc)
            .collect_events()
            .expect("malformed references are not parse errors");
        let kept = events.iter().any(|e| match e {
            XmlEvent::Text(t) => t.contains(literal),
            XmlEvent::StartElement { attributes, .. } => {
                attributes.iter().any(|(_, v)| v == literal)
            }
            _ => false,
        });
        assert!(kept, "{doc:?} keeps {literal:?} verbatim: {events:?}");
        Corpus::new()
            .add_document(doc)
            .expect("ingestion passes malformed references through");
    }
}

/// A corpus with 10× more distinct text and attribute values than the
/// reservoir cap keeps memory at the cap while totals, datatypes, and the
/// inferred DTD stay exact.
#[test]
fn reservoirs_stay_bounded_ten_times_past_cap() {
    let n = DEFAULT_SAMPLE_CAP * 10;
    let docs: Vec<String> = (0..n)
        .map(|i| format!("<log id=\"e{i}\"><msg>event number {i}</msg></log>"))
        .collect();
    let mut corpus = Corpus::new();
    for d in &docs {
        corpus.add_document(d).unwrap();
    }
    let log = corpus.alphabet.get("log").unwrap();
    let msg = corpus.alphabet.get("msg").unwrap();
    let ids = &corpus.elements[log].attributes["id"];
    let msgs = &corpus.elements[msg].text_samples;
    for bag in [ids, msgs] {
        assert_eq!(bag.distinct_retained(), DEFAULT_SAMPLE_CAP);
        assert!(bag.overflowed());
        assert_eq!(bag.total(), n as u64);
    }
    // Inference over the bounded corpus matches inference over a corpus
    // small enough to never overflow: capping changes memory, not the DTD.
    let small: Vec<String> = docs[..4].to_vec();
    let mut small_corpus = Corpus::new();
    for d in &small {
        small_corpus.add_document(d).unwrap();
    }
    assert_eq!(
        infer_dtd(&corpus, InferenceEngine::Idtd).serialize(),
        infer_dtd(&small_corpus, InferenceEngine::Idtd).serialize()
    );
}
