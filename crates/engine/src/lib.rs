//! The sharded inference engine: a layer between XML extraction and the
//! per-element learners that drives §9's incremental machinery at scale.
//!
//! The paper observes that the learners keep compact internal state — the
//! SOA and the CHARE partial-order summary — so the generating XML can be
//! discarded and schemas maintained as data "trickles in". Every learner
//! here is a pure function of one smaller memory still: the counted
//! multiset of an element's child-name sequences. So the engine's state is
//! a [`Corpus`]: per element that multiset plus the value reservoirs and
//! the occurrence count, filled by the corpus's one parse loop
//! (`Corpus::add_document_with`); the learners are built from its
//! distinct words when a schema is derived. The multiset is a union of
//! per-document contributions, so the state can be built **in parallel**:
//!
//! 1. **Shard** — a std-only worker pool ([`pool::ingest_source`]) runs one
//!    worker loop for every job count: workers pull documents off a shared
//!    queue and fold their child-word multisets into a corpus. The caller
//!    is shard 0 and folds straight into the base corpus; each of the
//!    `jobs − 1` helpers folds into a fresh one. A shard stops at its own
//!    first failing document, and the lowest failing index is reported.
//! 2. **Merge** — the helpers' corpora are folded into the base with
//!    [`Corpus::merge`] (alphabets reconciled by name, multisets and
//!    reservoirs added pointwise); one job merges nothing. Every merge is
//!    commutative, so the result is independent of how documents were
//!    distributed over shards.
//! 3. **Derive** — `infer_dtd_with_stats` canonicalizes the alphabet
//!    (name-sorted, making the output independent of document arrival
//!    order) and learns every element's model from its multiset.
//!
//! [`snapshot`] persists the corpus as a versioned text file so a later
//! run can warm-start and absorb only new documents; [`journal`] layers
//! an append-only log of documents on a snapshot.

pub mod journal;
pub mod pool;
pub mod snapshot;
pub mod source;

pub use dtdinfer_xml::extract::ParseArena;

use dtdinfer_xml::extract::Corpus;

/// The engine state's former type name, which the benchmark under
/// `perfbench/` still compiles against together with the `Corpus`
/// methods of the same era (`absorb_document`, `absorb_document_with`,
/// `derive`, `facts_corpus`). They go when the benchmark moves off them,
/// ROADMAP item 4's benchmark change.
#[deprecated(note = "the engine's state is `Corpus`")]
pub type EngineState = Corpus;

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_xml::infer::{infer_dtd, InferenceEngine};
    use dtdinfer_xml::samples::DEFAULT_SAMPLE_CAP;

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

    /// Documents whose text and attribute reservoirs overflow: three
    /// times the cap of distinct values each.
    fn overflowing_docs() -> Vec<String> {
        (0..3 * DEFAULT_SAMPLE_CAP)
            .map(|i| format!("<r k=\"v{i}\"><t>text {i}</t><u/></r>"))
            .collect()
    }

    fn corpus(docs: &[String]) -> Corpus {
        let mut corpus = Corpus::new();
        for d in docs {
            corpus.add_document(d).unwrap();
        }
        corpus
    }

    #[test]
    fn merge_of_split_equals_whole() {
        let engines = [
            InferenceEngine::Crx,
            InferenceEngine::Idtd,
            InferenceEngine::Kore,
            InferenceEngine::Auto,
        ];
        for docs in [docs(), overflowing_docs()] {
            let whole = corpus(&docs);
            let saved = snapshot::save(&whole);
            let dtds = engines.map(|engine| infer_dtd(&whole, engine).serialize());
            for cut in 1..docs.len() {
                let mut merged = corpus(&docs[..cut]);
                merged.merge(&corpus(&docs[cut..]));
                assert_eq!(merged.num_documents, whole.num_documents);
                assert_eq!(merged.total_sequences(), whole.total_sequences());
                assert_eq!(snapshot::save(&merged), saved, "cut {cut}");
                for (engine, dtd) in engines.iter().zip(&dtds) {
                    assert_eq!(
                        &infer_dtd(&merged, *engine).serialize(),
                        dtd,
                        "cut {cut} {engine:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_reconciles_disjoint_interning_orders() {
        // Shard A sees <b> before <a>; shard B the reverse: the merged
        // derivation must not care.
        let a = corpus(&["<r><b/><a/></r>".to_owned()]);
        let b = corpus(&["<r><a/><c/></r>".to_owned()]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(
            infer_dtd(&ab, InferenceEngine::Idtd).serialize(),
            infer_dtd(&ba, InferenceEngine::Idtd).serialize()
        );
    }
}
