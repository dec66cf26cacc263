//! XML Schema generation (§9).
//!
//! "The study in \[9\] shows that 85% of XSDs are structurally equivalent to
//! a DTD. Generating such XSDs is merely a matter of using the correct
//! syntax." This module emits exactly that class of schema from an inferred
//! [`Dtd`]:
//!
//! * content models map structurally — concatenation → `xs:sequence`,
//!   union → `xs:choice`, `?`/`+`/`*` → `minOccurs`/`maxOccurs`;
//! * the numerical-predicate extension maps to tightened
//!   `minOccurs`/`maxOccurs` values on CHARE factors;
//! * text-only elements get a built-in datatype from the heuristics of
//!   [`crate::datatype`].

use crate::attlist::{AttDefault, AttType};
use crate::dtd::{ContentSpec, Dtd};
use crate::extract::Corpus;
use dtdinfer_regex::alphabet::{Alphabet, Word};
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::classify::as_chare;
use dtdinfer_regex::numeric::tighten;
use std::fmt::Write as _;

/// Options for XSD generation.
#[derive(Debug, Clone, Copy, Default)]
pub struct XsdOptions {
    /// Tighten `?`/`+`/`*` to observed numeric bounds when the content
    /// model is a CHARE and the corpus is available (§9 numerical
    /// predicates). A factor whose maximum observed count exceeds this
    /// value keeps `maxOccurs="unbounded"`.
    pub numeric_threshold: Option<u32>,
}

/// Renders an XSD for `dtd`; `corpus` (when given) supplies text samples
/// for datatype inference and occurrence counts for numeric bounds.
pub fn generate_xsd(dtd: &Dtd, corpus: Option<&Corpus>, options: XsdOptions) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n");
    let mut syms: Vec<_> = dtd.elements.keys().copied().collect();
    if let Some(root) = dtd.root {
        syms.sort_by_key(|&s| (s != root, dtd.alphabet.name(s).to_owned()));
    }
    for sym in syms {
        let name = dtd.alphabet.name(sym);
        let attrs = attribute_lines(dtd, sym);
        match &dtd.elements[&sym] {
            ContentSpec::Empty => {
                if attrs.is_empty() {
                    let _ = writeln!(
                        out,
                        "  <xs:element name=\"{name}\"><xs:complexType/></xs:element>"
                    );
                } else {
                    let _ = writeln!(out, "  <xs:element name=\"{name}\"><xs:complexType>");
                    out.push_str(&attrs.join(""));
                    out.push_str("  </xs:complexType></xs:element>\n");
                }
            }
            ContentSpec::Any => {
                let _ = writeln!(
                    out,
                    "  <xs:element name=\"{name}\"><xs:complexType mixed=\"true\">\
                     <xs:sequence><xs:any minOccurs=\"0\" maxOccurs=\"unbounded\"/>\
                     </xs:sequence></xs:complexType></xs:element>"
                );
            }
            ContentSpec::PcData => {
                // Corpus facts are looked up by name: the DTD's alphabet is
                // canonical (name-sorted) and need not share ids with the
                // corpus the caller extracted.
                let ty = corpus
                    .and_then(|c| c.alphabet.get(name).and_then(|s| c.elements.get(s)))
                    .map(|f| f.text_samples.datatype())
                    .unwrap_or(crate::datatype::XsdType::String);
                if attrs.is_empty() {
                    let _ = writeln!(
                        out,
                        "  <xs:element name=\"{name}\" type=\"{}\"/>",
                        ty.xsd_name()
                    );
                } else {
                    // Text plus attributes: simpleContent extension.
                    let _ = writeln!(out, "  <xs:element name=\"{name}\"><xs:complexType>");
                    let _ = writeln!(
                        out,
                        "    <xs:simpleContent><xs:extension base=\"{}\">",
                        ty.xsd_name()
                    );
                    out.push_str(&attrs.join(""));
                    out.push_str("    </xs:extension></xs:simpleContent>\n");
                    out.push_str("  </xs:complexType></xs:element>\n");
                }
            }
            ContentSpec::Mixed(children) => {
                let _ = writeln!(
                    out,
                    "  <xs:element name=\"{name}\"><xs:complexType mixed=\"true\">"
                );
                out.push_str("    <xs:choice minOccurs=\"0\" maxOccurs=\"unbounded\">\n");
                for &c in children {
                    let _ = writeln!(out, "      <xs:element ref=\"{}\"/>", dtd.alphabet.name(c));
                }
                out.push_str("    </xs:choice>\n");
                out.push_str(&attrs.join(""));
                out.push_str("  </xs:complexType></xs:element>\n");
            }
            ContentSpec::Children(regex) => {
                let _ = writeln!(out, "  <xs:element name=\"{name}\"><xs:complexType>");
                let body = render_content(regex, &dtd.alphabet, sym, corpus, options);
                out.push_str(&body);
                out.push_str(&attrs.join(""));
                out.push_str("  </xs:complexType></xs:element>\n");
            }
        }
    }
    out.push_str("</xs:schema>\n");
    out
}

/// Renders the `<xs:attribute>` lines of one element.
fn attribute_lines(dtd: &Dtd, sym: dtdinfer_regex::alphabet::Sym) -> Vec<String> {
    let Some(defs) = dtd.attlists.get(&sym) else {
        return Vec::new();
    };
    defs.iter()
        .map(|def| {
            let use_attr = match def.default {
                AttDefault::Required => " use=\"required\"",
                AttDefault::Implied => "",
            };
            match &def.ty {
                AttType::CData => format!(
                    "    <xs:attribute name=\"{}\" type=\"xs:string\"{use_attr}/>\n",
                    def.name
                ),
                AttType::NmToken => format!(
                    "    <xs:attribute name=\"{}\" type=\"xs:NMTOKEN\"{use_attr}/>\n",
                    def.name
                ),
                AttType::Id => format!(
                    "    <xs:attribute name=\"{}\" type=\"xs:ID\"{use_attr}/>\n",
                    def.name
                ),
                AttType::Enumeration(values) => {
                    let mut s = format!(
                        "    <xs:attribute name=\"{}\"{use_attr}><xs:simpleType>\
                         <xs:restriction base=\"xs:string\">\n",
                        def.name
                    );
                    for v in values {
                        let _ = writeln!(s, "      <xs:enumeration value=\"{v}\"/>");
                    }
                    s.push_str("    </xs:restriction></xs:simpleType></xs:attribute>\n");
                    s
                }
            }
        })
        .collect()
}

/// Renders a content model, using numeric CHARE bounds when enabled.
fn render_content(
    regex: &Regex,
    alphabet: &Alphabet,
    sym: dtdinfer_regex::alphabet::Sym,
    corpus: Option<&Corpus>,
    options: XsdOptions,
) -> String {
    if let (Some(threshold), Some(corpus)) = (options.numeric_threshold, corpus) {
        let facts = corpus
            .alphabet
            .get(alphabet.name(sym))
            .and_then(|s| corpus.elements.get(s));
        if let (Some(factors), Some(facts)) = (as_chare(regex), facts) {
            // The corpus may intern names in a different order than the
            // canonical DTD alphabet: translate the observed words by name
            // before counting factor occurrences. Names unknown to the DTD
            // (corpus/DTD mismatch) disable tightening for this element.
            // Distinct words suffice: `tighten` takes per-word minima and
            // maxima, which repeats cannot change.
            let sequences: Option<Vec<Word>> = facts
                .words
                .words()
                .map(|w| {
                    w.iter()
                        .map(|&s| alphabet.get(corpus.alphabet.name(s)))
                        .collect()
                })
                .collect();
            let Some(sequences) = sequences else {
                let mut out = String::new();
                render_regex(&mut out, regex, alphabet, 4, 1, Some(1));
                return out;
            };
            let numeric = tighten(&factors, &sequences, threshold);
            let mut out = String::from("    <xs:sequence>\n");
            for f in &numeric.factors {
                let occurs = occurs_attrs(f.bounds.min, f.bounds.max);
                if f.syms.len() == 1 {
                    let _ = writeln!(
                        out,
                        "      <xs:element ref=\"{}\"{occurs}/>",
                        alphabet.name(f.syms[0])
                    );
                } else {
                    let _ = writeln!(out, "      <xs:choice{occurs}>");
                    for &s in &f.syms {
                        let _ = writeln!(out, "        <xs:element ref=\"{}\"/>", alphabet.name(s));
                    }
                    out.push_str("      </xs:choice>\n");
                }
            }
            out.push_str("    </xs:sequence>\n");
            return out;
        }
    }
    let mut out = String::new();
    render_regex(&mut out, regex, alphabet, 4, 1, Some(1));
    out
}

fn occurs_attrs(min: u32, max: Option<u32>) -> String {
    let mut s = String::new();
    if min != 1 {
        let _ = write!(s, " minOccurs=\"{min}\"");
    }
    match max {
        Some(1) => {}
        Some(m) => {
            let _ = write!(s, " maxOccurs=\"{m}\"");
        }
        None => s.push_str(" maxOccurs=\"unbounded\""),
    }
    s
}

/// Structural translation of an arbitrary RE into nested
/// sequence/choice particles with occurrence attributes.
fn render_regex(
    out: &mut String,
    r: &Regex,
    alphabet: &Alphabet,
    indent: usize,
    min: u32,
    max: Option<u32>,
) {
    let pad = " ".repeat(indent);
    let occurs = occurs_attrs(min, max);
    match r {
        Regex::Symbol(s) => {
            let _ = writeln!(
                out,
                "{pad}<xs:element ref=\"{}\"{occurs}/>",
                alphabet.name(*s)
            );
        }
        Regex::Concat(parts) => {
            let _ = writeln!(out, "{pad}<xs:sequence{occurs}>");
            for p in parts {
                render_regex(out, p, alphabet, indent + 2, 1, Some(1));
            }
            let _ = writeln!(out, "{pad}</xs:sequence>");
        }
        Regex::Union(parts) => {
            let _ = writeln!(out, "{pad}<xs:choice{occurs}>");
            for p in parts {
                render_regex(out, p, alphabet, indent + 2, 1, Some(1));
            }
            let _ = writeln!(out, "{pad}</xs:choice>");
        }
        Regex::Optional(inner) => render_regex(out, inner, alphabet, indent, 0, max),
        Regex::Plus(inner) => render_regex(out, inner, alphabet, indent, min, None),
        Regex::Star(inner) => render_regex(out, inner, alphabet, indent, 0, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_dtd, InferenceEngine};

    fn corpus(docs: &[&str]) -> Corpus {
        let mut c = Corpus::new();
        for d in docs {
            c.add_document(d).unwrap();
        }
        c
    }

    #[test]
    fn structural_translation() {
        let c = corpus(&[
            "<book><title>T</title><author>A</author><author>B</author></book>",
            "<book><title>T</title><author>C</author></book>",
        ]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let xsd = generate_xsd(&dtd, Some(&c), XsdOptions::default());
        assert!(xsd.contains("<xs:element name=\"book\">"), "{xsd}");
        assert!(xsd.contains("<xs:element ref=\"title\"/>"));
        assert!(xsd.contains("<xs:element ref=\"author\" maxOccurs=\"unbounded\"/>"));
        assert!(xsd.contains("<xs:element name=\"title\" type=\"xs:NMTOKEN\"/>"));
    }

    #[test]
    fn datatype_heuristics_applied() {
        let c = corpus(&["<r><n>42</n><n>7</n><d>2006-09-12</d></r>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let xsd = generate_xsd(&dtd, Some(&c), XsdOptions::default());
        assert!(
            xsd.contains("<xs:element name=\"n\" type=\"xs:integer\"/>"),
            "{xsd}"
        );
        assert!(xsd.contains("<xs:element name=\"d\" type=\"xs:date\"/>"));
    }

    #[test]
    fn numeric_bounds_emitted() {
        // a always appears exactly twice, b two-or-more times.
        let c = corpus(&["<r><a/><a/><b/><b/></r>", "<r><a/><a/><b/><b/><b/></r>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let xsd = generate_xsd(
            &dtd,
            Some(&c),
            XsdOptions {
                numeric_threshold: Some(10),
            },
        );
        assert!(
            xsd.contains("<xs:element ref=\"a\" minOccurs=\"2\" maxOccurs=\"2\"/>"),
            "{xsd}"
        );
        assert!(xsd.contains("<xs:element ref=\"b\" minOccurs=\"2\" maxOccurs=\"3\"/>"));
    }

    #[test]
    fn numeric_threshold_unbounded() {
        let c = corpus(&["<r><a/></r>", "<r><a/><a/><a/><a/><a/><a/><a/><a/></r>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let xsd = generate_xsd(
            &dtd,
            Some(&c),
            XsdOptions {
                numeric_threshold: Some(4),
            },
        );
        assert!(
            xsd.contains("<xs:element ref=\"a\" maxOccurs=\"unbounded\"/>"),
            "{xsd}"
        );
    }

    #[test]
    fn mixed_and_empty_forms() {
        let c = corpus(&["<r><p>t <em>e</em></p><hr/></r>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let xsd = generate_xsd(&dtd, Some(&c), XsdOptions::default());
        assert!(xsd.contains("mixed=\"true\""));
        assert!(xsd.contains("<xs:element name=\"hr\"><xs:complexType/></xs:element>"));
    }

    #[test]
    fn attributes_emitted() {
        let c = corpus(&[
            r#"<r><item id="n1" kind="big">7</item><item id="n2" kind="small">8</item><item id="n3" kind="big">9</item><item id="n4" kind="small">10</item></r>"#,
        ]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let xsd = generate_xsd(&dtd, Some(&c), XsdOptions::default());
        assert!(
            xsd.contains("<xs:attribute name=\"id\" type=\"xs:ID\" use=\"required\"/>"),
            "{xsd}"
        );
        assert!(xsd.contains("<xs:enumeration value=\"big\"/>"), "{xsd}");
        // Text + attributes → simpleContent extension over the datatype.
        assert!(xsd.contains("<xs:extension base=\"xs:integer\">"), "{xsd}");
        // Still well-formed XML.
        assert!(crate::parser::XmlPullParser::new(&xsd)
            .collect_events()
            .is_ok());
    }

    #[test]
    fn optional_group() {
        let c = corpus(&["<r><a/><b/></r>", "<r><b/></r>"]);
        let dtd = infer_dtd(&c, InferenceEngine::Crx);
        let xsd = generate_xsd(&dtd, Some(&c), XsdOptions::default());
        assert!(
            xsd.contains("<xs:element ref=\"a\" minOccurs=\"0\"/>"),
            "{xsd}"
        );
    }
}
