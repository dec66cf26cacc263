//! # dtdinfer — inference of concise DTDs from XML data
//!
//! A Rust implementation of Bex, Neven, Schwentick & Tuyls,
//! *"Inference of Concise DTDs from XML Data"* (VLDB 2006): learning
//! **single occurrence regular expressions** (SOREs) and **chain regular
//! expressions** (CHAREs) from positive example strings, and from there
//! complete DTDs and simple XSDs for XML corpora.
//!
//! This crate is the facade: it re-exports the whole workspace under one
//! name and hosts the `dtdinfer` command-line tool and the runnable
//! examples.
//!
//! ## Quickstart
//!
//! ```
//! use dtdinfer::xml::{Corpus, infer_dtd, InferenceEngine};
//!
//! let mut corpus = Corpus::new();
//! corpus
//!     .add_document("<book><title>T</title><author>A</author><author>B</author></book>")
//!     .unwrap();
//! corpus
//!     .add_document("<book><title>U</title><author>C</author></book>")
//!     .unwrap();
//! let dtd = infer_dtd(&corpus, InferenceEngine::Crx);
//! assert!(dtd.serialize().contains("<!ELEMENT book (title, author+)>"));
//! ```
//!
//! ## Learning expressions directly
//!
//! ```
//! use dtdinfer::regex::alphabet::Alphabet;
//! use dtdinfer::core::{crx, idtd_from_words};
//! use dtdinfer::regex::display::render;
//!
//! let mut al = Alphabet::new();
//! let words: Vec<_> = ["bacacdacde", "cbacdbacde", "abccaadcde"]
//!     .iter()
//!     .map(|w| al.word_from_chars(w))
//!     .collect();
//! let sore = idtd_from_words(&words).into_regex().unwrap();
//! assert_eq!(render(&sore, &al), "((b? (a | c))+ d)+ e");
//! let chare = crx(&words).into_regex().unwrap();
//! assert_eq!(render(&chare, &al), "(b | a | c | d)+ e");
//! ```

#![warn(missing_docs)]

/// Regular-expression syntax: AST, parser, printer, SORE/CHARE classes,
/// normalization, sampling, numerical predicates.
pub use dtdinfer_regex as regex;

/// Automata substrate: SOAs, 2T-INF, Glushkov, GFAs, state elimination,
/// DFA-based language comparison.
pub use dtdinfer_automata as automata;

/// The inference algorithms: `rewrite`, `iDTD`, `CRX`, k-ORE and the MDL
/// chooser, noise handling.
pub use dtdinfer_core as core;

/// XML substrate: pull parser, corpus extraction, DTD model/validation,
/// XSD generation.
pub use dtdinfer_xml as xml;

/// Baselines: XTRACT reimplementation and the Trang-like inferrer.
pub use dtdinfer_baselines as baselines;

/// Workload generators and the paper's experiment scenarios.
pub use dtdinfer_gen as gen;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let mut al = crate::regex::alphabet::Alphabet::new();
        let w = al.word_from_chars("ab");
        let model = crate::core::crx(&[w]);
        assert!(model.as_regex().is_some());
    }
}
