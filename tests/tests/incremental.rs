//! The warm-derivation oracle: a `Derivation` updated after every ingest
//! step equals a cold derive of the same documents, byte for byte, for
//! every engine — including when a step brings names never seen before.

use dtdinfer_xml::extract::Corpus;
use dtdinfer_xml::infer::{infer_dtd_with_stats, Derivation, InferenceEngine};
use proptest::prelude::*;

const ENGINES: [InferenceEngine; 5] = [
    InferenceEngine::Crx,
    InferenceEngine::Idtd,
    InferenceEngine::IdtdNoise { threshold: 2 },
    InferenceEngine::Kore,
    InferenceEngine::Auto,
];

/// One element of a generated document: a name, an optional attribute
/// value, optional text, and children.
#[derive(Debug, Clone)]
struct Node {
    name: String,
    attr: Option<String>,
    text: Option<String>,
    children: Vec<Node>,
}

impl Node {
    fn serialize(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        if let Some(v) = &self.attr {
            out.push_str(&format!(" k=\"{v}\""));
        }
        out.push('>');
        if let Some(t) = &self.text {
            out.push_str(t);
        }
        for c in &self.children {
            c.serialize(out);
        }
        out.push_str(&format!("</{}>", self.name));
    }
}

/// Documents over `names`: the early part of a sequence draws from a
/// prefix of the name pool, the late part from all of it.
fn node_strategy(names: &'static [&'static str]) -> impl Strategy<Value = Node> {
    let name = (0..names.len()).prop_map(move |i| names[i].to_owned());
    let value = prop_oneof![Just(None), (0u32..4).prop_map(|v| Some(format!("v{v}")))];
    let text = prop_oneof![Just(None), Just(None), Just(Some("t".to_owned()))];
    let leaf = (name.clone(), value.clone(), text).prop_map(|(name, attr, text)| Node {
        name,
        attr,
        text,
        children: Vec::new(),
    });
    leaf.prop_recursive(3, 16, 4, move |inner| {
        (
            name.clone(),
            value.clone(),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attr, children)| Node {
                name,
                attr,
                text: None,
                children,
            })
    })
}

fn documents(nodes: &[Node]) -> Vec<String> {
    nodes
        .iter()
        .map(|n| {
            let mut doc = String::new();
            n.serialize(&mut doc);
            doc
        })
        .collect()
}

const EARLY: &[&str] = &["b", "d", "item", "r"];
const ALL: &[&str] = &["a", "b", "c", "d", "item", "r", "z"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cut a document sequence into random ingest steps; after every step
    /// the warm derivation's DTD and reports equal a cold derive's.
    #[test]
    fn warm_derivation_equals_cold_after_every_step(
        early in prop::collection::vec(node_strategy(EARLY), 1..6),
        late in prop::collection::vec(node_strategy(ALL), 1..8),
        cuts in prop::collection::vec(1usize..4, 1..12),
    ) {
        let docs = documents(&[early, late].concat());
        for engine in ENGINES {
            let mut corpus = Corpus::new();
            let mut warm = Derivation::new(engine);
            let mut next = 0;
            for &step in cuts.iter().cycle() {
                if next == docs.len() {
                    break;
                }
                let end = (next + step).min(docs.len());
                for doc in &docs[next..end] {
                    corpus.add_document(doc).expect("generated document parses");
                }
                next = end;
                warm.update(&corpus);
                let (cold, cold_reports) = infer_dtd_with_stats(&corpus, engine);
                prop_assert_eq!(
                    warm.dtd().serialize(),
                    cold.serialize(),
                    "{:?} after {} document(s)",
                    engine,
                    next
                );
                let reports: Vec<_> = warm.reports().collect();
                prop_assert_eq!(reports.len(), cold_reports.len());
                for (w, c) in reports.iter().zip(&cold_reports) {
                    prop_assert_eq!(&w.name, &c.name);
                    prop_assert_eq!(w.engine, c.engine);
                    prop_assert_eq!(w.words, c.words);
                    prop_assert_eq!(w.occurrences, c.occurrences);
                    prop_assert_eq!(w.repairs, c.repairs);
                    prop_assert_eq!(w.expr_size, c.expr_size);
                }
            }
        }
    }
}
