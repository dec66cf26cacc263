//! Robustness fuzzing of the XML substrate: the parser must never panic on
//! arbitrary input (§9's premise is that real-world XML is broken), and
//! well-formed generation/parsing must round trip.

use dtdinfer_xml::dtd::Dtd;
use dtdinfer_xml::extract::Corpus;
use dtdinfer_xml::parser::{decode_entities_cow, encode_entities, XmlPullParser};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser returns Ok or Err on arbitrary junk — never panics.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = XmlPullParser::new(&input).collect_events();
    }

    /// XML-shaped junk (lots of angle brackets) — never panics.
    #[test]
    fn parser_never_panics_markupish(parts in prop::collection::vec(
        prop_oneof![
            Just("<".to_owned()),
            Just(">".to_owned()),
            Just("</".to_owned()),
            Just("/>".to_owned()),
            Just("<!--".to_owned()),
            Just("-->".to_owned()),
            Just("<![CDATA[".to_owned()),
            Just("]]>".to_owned()),
            Just("<?".to_owned()),
            Just("?>".to_owned()),
            Just("<!DOCTYPE".to_owned()),
            Just("a".to_owned()),
            Just("=\"v\"".to_owned()),
            Just("&amp;".to_owned()),
            Just("&#x41;".to_owned()),
            Just(" ".to_owned()),
        ],
        0..30,
    )) {
        let input: String = parts.concat();
        let _ = XmlPullParser::new(&input).collect_events();
    }

    /// The DTD parser never panics on junk either.
    #[test]
    fn dtd_parser_never_panics(input in ".{0,200}") {
        let _ = Dtd::parse(&input);
    }

    /// Entity escape/unescape round trip on arbitrary text.
    #[test]
    fn entity_round_trip(text in "\\PC{0,64}") {
        prop_assert_eq!(decode_entities_cow(&encode_entities(&text)), text);
    }

    /// Escaped text embedded in a document parses back to the original.
    #[test]
    fn text_embedding_round_trip(text in "\\PC{0,48}") {
        let doc = format!("<r>{}</r>", encode_entities(&text));
        let events = XmlPullParser::new(&doc).collect_events().expect("well-formed");
        let mut recovered = String::new();
        for e in events {
            if let dtdinfer_xml::parser::XmlEvent::Text(t) = e {
                recovered.push_str(&t);
            }
        }
        prop_assert_eq!(recovered, text);
    }

    /// Attribute values round trip through a document.
    #[test]
    fn attribute_embedding_round_trip(value in "\\PC{0,32}") {
        let doc = format!("<r a=\"{}\"/>", encode_entities(&value));
        let events = XmlPullParser::new(&doc).collect_events().expect("well-formed");
        match &events[0] {
            dtdinfer_xml::parser::XmlEvent::StartElement { attributes, .. } => {
                prop_assert_eq!(&attributes[0].1, &value);
            }
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    /// Corpus extraction never panics; on parse success the statistics are
    /// internally consistent.
    #[test]
    fn corpus_extraction_consistent(input in ".{0,300}") {
        let mut corpus = Corpus::new();
        if corpus.add_document(&input).is_ok() {
            let total: u64 = corpus.elements.values().map(|f| f.occurrences).sum();
            let sequences: usize = corpus.total_sequences();
            prop_assert_eq!(total as usize, sequences);
        }
    }
}
