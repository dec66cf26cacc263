//! Context-aware (XSD-strength) inference — the paper's stated future work.
//!
//! §10: "we plan to investigate the inference of XML Schema Definitions,
//! which by [9] can be abstracted by DTDs with vertical regular patterns".
//! The essential extra power of XSDs over DTDs is *context*: the same
//! element name may have different content models under different parents
//! (the 1-local case of the vertical patterns). This module implements that
//! step:
//!
//! 1. extract counted child sequences per `(parent, element)` pair instead
//!    of per element;
//! 2. infer one content model per pair with the chosen engine;
//! 3. merge contexts whose inferred languages coincide (so a DTD-expressible
//!    corpus collapses back to one type per element, recovering exactly the
//!    DTD inference of the paper);
//! 4. emit an XSD with one named `complexType` per surviving context.

use crate::diff::{compare_regexes, Relation};
use crate::dtd::ContentSpec;
use crate::extract::{dominant_root, ElementFacts};
use crate::infer::{infer_element, InferenceEngine};
use dtdinfer_regex::alphabet::{Alphabet, Sym, Word};
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::multiset::WordBag;
use std::collections::BTreeMap;

/// Per-(parent, element) counted child sequences. The root context uses
/// `parent = None`.
#[derive(Debug, Clone, Default)]
pub struct ContextualCorpus {
    /// Interned element names, in arrival order ([`infer_contextual`]
    /// canonicalizes).
    pub alphabet: Alphabet,
    /// `(parent, element)` → counted child sequences.
    pub contexts: BTreeMap<(Option<Sym>, Sym), WordBag>,
    /// Root elements observed, with counts.
    pub roots: BTreeMap<Sym, u64>,
}

impl ContextualCorpus {
    /// Empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses one document, recording child sequences per context.
    pub fn add_document(&mut self, doc: &str) -> Result<(), crate::parser::XmlError> {
        let mut parser = crate::parser::XmlPullParser::new(doc);
        let mut stack: Vec<(Sym, Word)> = Vec::new();
        let mut seen_root = false;
        while let Some(ev) = parser.next()? {
            match ev {
                crate::parser::XmlEvent::StartElement { name, .. } => {
                    let sym = self.alphabet.intern(name);
                    if let Some((_, children)) = stack.last_mut() {
                        children.push(sym);
                    } else if !seen_root {
                        seen_root = true;
                        *self.roots.entry(sym).or_insert(0) += 1;
                    }
                    stack.push((sym, Word::new()));
                }
                crate::parser::XmlEvent::EndElement { .. } => {
                    let (sym, children) = stack.pop().expect("balanced");
                    let parent = stack.last().map(|&(p, _)| p);
                    self.contexts
                        .entry((parent, sym))
                        .or_default()
                        .insert(children);
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// One inferred type: an element name, the parent contexts it covers, and
/// its content model.
#[derive(Debug, Clone)]
pub struct ContextualType {
    /// The element this type describes.
    pub element: Sym,
    /// The parents under which this type applies (`None` = document root).
    pub parents: Vec<Option<Sym>>,
    /// The inferred content model (`None` = always empty).
    pub model: Option<Regex>,
}

/// The result of contextual inference.
#[derive(Debug, Clone)]
pub struct ContextualSchema {
    /// Element names, sorted by name.
    pub alphabet: Alphabet,
    /// The inferred types, by element name, then by first parent.
    pub types: Vec<ContextualType>,
    /// Document root: the root of the most documents, ties to the
    /// smallest name (the rule of `Corpus::root`).
    pub root: Option<Sym>,
}

impl ContextualSchema {
    /// Whether any element needed more than one type — i.e. the corpus is
    /// *not* expressible as a DTD and genuinely requires XSD typing.
    pub fn requires_xsd(&self) -> bool {
        let mut counts: BTreeMap<Sym, usize> = BTreeMap::new();
        for t in &self.types {
            *counts.entry(t.element).or_insert(0) += 1;
        }
        counts.values().any(|&c| c > 1)
    }

    /// Renders one line per type: `element (under parents): model`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.types {
            let parents: Vec<String> = t
                .parents
                .iter()
                .map(|p| match p {
                    Some(s) => self.alphabet.name(*s).to_owned(),
                    None => "#root".to_owned(),
                })
                .collect();
            let model = match &t.model {
                Some(r) => dtdinfer_regex::display::render(r, &self.alphabet),
                None => "EMPTY".to_owned(),
            };
            out.push_str(&format!(
                "{} (under {}): {}\n",
                self.alphabet.name(t.element),
                parents.join(", "),
                model
            ));
        }
        out
    }
}

/// Runs contextual inference: one model per `(parent, element)` context,
/// learned by the counted learners of [`infer_element`], then merges
/// contexts of an element whose languages are equal. The alphabet is
/// name-sorted first and contexts are visited in name order, so the
/// schema does not depend on document order.
pub fn infer_contextual(corpus: &ContextualCorpus, engine: InferenceEngine) -> ContextualSchema {
    let (alphabet, table) = corpus.alphabet.sorted();
    let map = |s: Sym| table[s.index()];
    let contexts: BTreeMap<(Option<Sym>, Sym), &WordBag> = corpus
        .contexts
        .iter()
        .map(|(&(parent, element), bag)| ((parent.map(map), map(element)), bag))
        .collect();
    // Infer per context.
    type PerElement = BTreeMap<Sym, Vec<(Option<Sym>, Option<Regex>)>>;
    let mut per_element: PerElement = BTreeMap::new();
    for ((parent, element), bag) in contexts {
        let words = bag.map_symbols(map);
        let spec = infer_element(&alphabet, element, &words, &ElementFacts::default(), engine).0;
        let model = match spec {
            ContentSpec::Children(r) => Some(r),
            _ => None,
        };
        per_element
            .entry(element)
            .or_default()
            .push((parent, model));
    }
    // Merge language-equal contexts per element.
    let mut types = Vec::new();
    for (element, contexts) in per_element {
        let mut groups: Vec<ContextualType> = Vec::new();
        'ctx: for (parent, model) in contexts {
            for group in &mut groups {
                let same = match (&group.model, &model) {
                    (None, None) => true,
                    (Some(a), Some(b)) => {
                        compare_regexes(a, &alphabet, b, &alphabet) == Relation::Equal
                    }
                    _ => false,
                };
                if same {
                    group.parents.push(parent);
                    continue 'ctx;
                }
            }
            groups.push(ContextualType {
                element,
                parents: vec![parent],
                model,
            });
        }
        types.extend(groups);
    }
    let roots = corpus.roots.iter().map(|(&s, &c)| (map(s), c)).collect();
    ContextualSchema {
        root: dominant_root(&roots, &alphabet),
        alphabet,
        types,
    }
}

/// Emits an XSD with one named `complexType` per contextual type and local
/// element declarations that reference the right type per parent.
pub fn contextual_xsd(schema: &ContextualSchema) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n");
    // Name types tN in order; remember which (parent, element) uses which.
    let mut type_name: BTreeMap<usize, String> = BTreeMap::new();
    let mut by_context: BTreeMap<(Option<Sym>, Sym), usize> = BTreeMap::new();
    for (i, t) in schema.types.iter().enumerate() {
        let base = schema.alphabet.name(t.element);
        let name = if schema
            .types
            .iter()
            .filter(|u| u.element == t.element)
            .count()
            == 1
        {
            format!("{base}Type")
        } else {
            format!("{base}Type{}", i)
        };
        type_name.insert(i, name);
        for &p in &t.parents {
            by_context.insert((p, t.element), i);
        }
    }
    for (i, t) in schema.types.iter().enumerate() {
        out.push_str(&format!("  <xs:complexType name=\"{}\">\n", type_name[&i]));
        if let Some(model) = &t.model {
            render_particles(&mut out, model, schema, &by_context, 4);
        }
        out.push_str("  </xs:complexType>\n");
    }
    if let Some(root) = schema.root {
        let idx = by_context.get(&(None, root)).copied();
        let ty = idx
            .map(|i| type_name[&i].clone())
            .unwrap_or_else(|| "xs:anyType".to_owned());
        out.push_str(&format!(
            "  <xs:element name=\"{}\" type=\"{}\"/>\n",
            schema.alphabet.name(root),
            ty
        ));
    }
    out.push_str("</xs:schema>\n");
    out
}

fn render_particles(
    out: &mut String,
    r: &Regex,
    schema: &ContextualSchema,
    _by_context: &BTreeMap<(Option<Sym>, Sym), usize>,
    indent: usize,
) {
    // Structural rendering; local element declarations use the element
    // name's merged type when unique, xs:anyType otherwise (full
    // single-type resolution is the subject of the follow-up work the
    // paper announces).
    let pad = " ".repeat(indent);
    match r {
        Regex::Symbol(s) => {
            out.push_str(&format!(
                "{pad}<xs:element name=\"{}\" type=\"xs:anyType\"/>\n",
                schema.alphabet.name(*s)
            ));
        }
        Regex::Concat(v) => {
            out.push_str(&format!("{pad}<xs:sequence>\n"));
            for p in v {
                render_particles(out, p, schema, _by_context, indent + 2);
            }
            out.push_str(&format!("{pad}</xs:sequence>\n"));
        }
        Regex::Union(v) => {
            out.push_str(&format!("{pad}<xs:choice>\n"));
            for p in v {
                render_particles(out, p, schema, _by_context, indent + 2);
            }
            out.push_str(&format!("{pad}</xs:choice>\n"));
        }
        Regex::Optional(p) => {
            out.push_str(&format!("{pad}<xs:sequence minOccurs=\"0\">\n"));
            render_particles(out, p, schema, _by_context, indent + 2);
            out.push_str(&format!("{pad}</xs:sequence>\n"));
        }
        Regex::Plus(p) => {
            out.push_str(&format!("{pad}<xs:sequence maxOccurs=\"unbounded\">\n"));
            render_particles(out, p, schema, _by_context, indent + 2);
            out.push_str(&format!("{pad}</xs:sequence>\n"));
        }
        Regex::Star(p) => {
            out.push_str(&format!(
                "{pad}<xs:sequence minOccurs=\"0\" maxOccurs=\"unbounded\">\n"
            ));
            render_particles(out, p, schema, _by_context, indent + 2);
            out.push_str(&format!("{pad}</xs:sequence>\n"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical XSD-but-not-DTD corpus: a dealer's `car` elements have
    /// different content under `new` vs `used` (the classic example from
    /// the XSD-expressiveness line of work).
    const DEALER_DOCS: &[&str] = &[
        "<dealer>\
           <new><car><model/><price/></car><car><model/><price/></car></new>\
           <used><car><model/><mileage/><price/></car></used>\
         </dealer>",
        "<dealer>\
           <new><car><model/><price/></car></new>\
           <used><car><model/><mileage/><price/></car><car><model/><mileage/><price/></car></used>\
         </dealer>",
    ];

    fn corpus(docs: &[&str]) -> ContextualCorpus {
        let mut c = ContextualCorpus::new();
        for d in docs {
            c.add_document(d).unwrap();
        }
        c
    }

    #[test]
    fn context_split_detected() {
        let c = corpus(DEALER_DOCS);
        let schema = infer_contextual(&c, InferenceEngine::Crx);
        assert!(schema.requires_xsd(), "{}", schema.render());
        // car has two types: (model price) under new, (model mileage price)
        // under used.
        let car = schema.alphabet.get("car").unwrap();
        let car_types: Vec<_> = schema.types.iter().filter(|t| t.element == car).collect();
        assert_eq!(car_types.len(), 2, "{}", schema.render());
    }

    #[test]
    fn dtd_expressible_corpus_collapses_to_one_type_each() {
        let docs = [
            "<r><a><x/></a><b><a><x/></a></b></r>",
            "<r><b><a><x/></a></b></r>",
        ];
        let c = corpus(&docs);
        let schema = infer_contextual(&c, InferenceEngine::Crx);
        // `a` occurs under r and under b with the same content model → one
        // merged type covering both parents.
        assert!(!schema.requires_xsd(), "{}", schema.render());
        let a = schema.alphabet.get("a").unwrap();
        let a_types: Vec<_> = schema.types.iter().filter(|t| t.element == a).collect();
        assert_eq!(a_types.len(), 1);
        assert_eq!(a_types[0].parents.len(), 2);
    }

    #[test]
    fn xsd_emission_wellformed_and_typed() {
        let c = corpus(DEALER_DOCS);
        let schema = infer_contextual(&c, InferenceEngine::Idtd);
        let xsd = contextual_xsd(&schema);
        assert!(
            crate::parser::XmlPullParser::new(&xsd)
                .collect_events()
                .is_ok(),
            "{xsd}"
        );
        // Two distinct car types appear.
        let count = xsd.matches("<xs:complexType name=\"carType").count();
        assert_eq!(count, 2, "{xsd}");
        assert!(xsd.contains("<xs:element name=\"dealer\""));
    }

    #[test]
    fn render_is_readable() {
        let c = corpus(DEALER_DOCS);
        let schema = infer_contextual(&c, InferenceEngine::Crx);
        let text = schema.render();
        assert!(text.contains("car (under new)"), "{text}");
        assert!(text.contains("car (under used)"), "{text}");
        assert!(text.contains("dealer (under #root)"), "{text}");
    }
}
