//! Property-based tests for the k-ORE engine: shard algebra, snapshot
//! versioning, and the k-testable specificity ladder it generalizes.
//!
//! The load-bearing fact behind all three groups is that a [`KoreState`]
//! is a pure function of the element's word *multiset* (marking commutes
//! with 2T-INF), so merge order, shard boundaries, and snapshot round
//! trips must all be invisible in the learned state and in the derived
//! model.

use dtdinfer_automata::ktestable::KTestable;
use dtdinfer_core::kore::{KoreState, MAX_K};
use dtdinfer_core::noise::{EdgeKind, SupportSoa};
use dtdinfer_engine::pool::ingest;
use dtdinfer_engine::{snapshot, EngineState};
use dtdinfer_regex::alphabet::{Alphabet, Sym, Word};
use dtdinfer_regex::multiset::WordBag;
use dtdinfer_xml::infer::InferenceEngine;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Strategy: a multiset of words over `n_syms` symbols, with repetition
/// within words (the territory where k-ORE differs from SORE).
fn arb_words(n_syms: u32) -> impl Strategy<Value = Vec<Word>> {
    prop::collection::vec(
        prop::collection::vec((0..n_syms).prop_map(Sym), 0..6),
        1..10,
    )
}

/// Renders child words as documents: `[a, b, a]` → `<r><a/><b/><a/></r>`.
fn docs_of(words: &[Word]) -> Vec<String> {
    words
        .iter()
        .map(|w| {
            let mut doc = String::from("<r>");
            for s in w {
                doc.push_str(&format!("<c{}/>", s.0));
            }
            doc.push_str("</r>");
            doc
        })
        .collect()
}

/// `state` as a v3 or v4 writer saved it: the current records under the
/// old `header`, plus each element's learner rows after its `w` rows —
/// `s` support-SOA and `c` CRX records, and for v4 the `k` k-ORE records.
fn legacy_save(state: &EngineState, header: &str) -> String {
    let canon = state.canonicalized();
    let with_kore = header == snapshot::V4_HEADER;
    let mut learner_rows = canon
        .elements
        .values()
        .map(|facts| learner_rows(&facts.words, &canon.alphabet, with_kore));
    // Sections appear in canonical element order, as `canon.elements`.
    let mut out = String::new();
    let mut pending = String::new();
    for line in snapshot::save(state).lines() {
        if line == snapshot::HEADER {
            out.push_str(header);
        } else {
            if line.starts_with("element ") {
                out.push_str(&std::mem::take(&mut pending));
                pending = learner_rows.next().expect("one section per element");
            }
            out.push_str(line);
        }
        out.push('\n');
    }
    out.push_str(&pending);
    out
}

/// The learner rows the v3/v4 writers derived from one element's word
/// multiset, in their record formats: `s` the supports of the SOA's
/// symbols and edges, `c` CRX's successor pairs and per-word symbol
/// counts, and (`with_kore`, for a non-empty bag) `k` the SOA over words
/// whose i-th `a` is marked `a i` (capped at `MAX_K`).
fn learner_rows(bag: &WordBag, al: &Alphabet, with_kore: bool) -> String {
    let name = |s: Sym| al.name(s);
    let mut out = format!("s words {}\n", bag.total());
    let support = SupportSoa::learn_counted(bag.iter());
    for (s, count) in support.symbol_supports() {
        out += &format!("s sym {} {count}\n", name(s));
    }
    let soa = support.soa();
    let edges = (soa.initial.iter().map(|&s| EdgeKind::Initial(s)))
        .chain(soa.edges.iter().map(|&(a, b)| EdgeKind::Pair(a, b)))
        .chain(soa.finals.iter().map(|&s| EdgeKind::Final(s)))
        .chain(soa.accepts_empty.then_some(EdgeKind::Epsilon));
    for edge in edges {
        let count = support.support(edge);
        out += &match edge {
            EdgeKind::Initial(s) => format!("s initial {} {count}\n", name(s)),
            EdgeKind::Pair(a, b) => format!("s pair {} {} {count}\n", name(a), name(b)),
            EdgeKind::Final(s) => format!("s final {} {count}\n", name(s)),
            EdgeKind::Epsilon => format!("s empty {count}\n"),
        };
    }

    out += &format!("c words {}\n", bag.total());
    let syms: BTreeSet<Sym> = bag.words().flatten().copied().collect();
    for &s in &syms {
        out += &format!("c sym {}\n", name(s));
    }
    let pairs: BTreeSet<(Sym, Sym)> = bag
        .words()
        .flat_map(|w| w.windows(2).map(|p| (p[0], p[1])))
        .collect();
    for &(a, b) in &pairs {
        out += &format!("c edge {} {}\n", name(a), name(b));
    }
    let mut vectors: BTreeMap<Vec<(Sym, u32)>, u64> = BTreeMap::new();
    for (w, n) in bag.iter() {
        let mut counts: BTreeMap<Sym, u32> = BTreeMap::new();
        for &s in w {
            *counts.entry(s).or_default() += 1;
        }
        *vectors.entry(counts.into_iter().collect()).or_default() += u64::from(n);
    }
    for (vector, mult) in vectors {
        out += &format!("c vec {mult}");
        for (s, c) in vector {
            out += &format!(" {}={c}", name(s));
        }
        out.push('\n');
    }

    if !with_kore || bag.is_empty() {
        return out;
    }
    // Marked symbols sort by (symbol, occurrence), as the k-ORE learner's
    // encoding does.
    let (mut initial, mut finals, mut edges) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    let mut empty = false;
    for w in bag.words() {
        let mut seen: BTreeMap<Sym, usize> = BTreeMap::new();
        let marked: Vec<(Sym, usize)> = w
            .iter()
            .map(|&s| {
                let occ = seen.entry(s).or_default();
                *occ = (*occ + 1).min(MAX_K);
                (s, *occ)
            })
            .collect();
        match (marked.first(), marked.last()) {
            (Some(&first), Some(&last)) => {
                initial.insert(first);
                finals.insert(last);
            }
            _ => empty = true,
        }
        edges.extend(marked.windows(2).map(|p| (p[0], p[1])));
    }
    out += &format!("k words {}\n", bag.total());
    if empty {
        out += "k empty\n";
    }
    for (s, occ) in initial {
        out += &format!("k initial {} {occ}\n", name(s));
    }
    for (s, occ) in finals {
        out += &format!("k final {} {occ}\n", name(s));
    }
    for ((a, oa), (b, ob)) in edges {
        out += &format!("k edge {} {oa} {} {ob}\n", name(a), name(b));
    }
    out
}

/// `text` without its `w` rows: what an earlier build wrote when it
/// re-saved a v2 file, which had none.
fn without_word_rows(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("w "))
        .map(|l| format!("{l}\n"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Splitting the documents into shards, absorbing each shard into its
    /// own engine state, and merging is identical to absorbing the whole —
    /// for every split point, and in either merge order. The engine keeps
    /// only the word multiset and learns the k-ORE from it at derive time,
    /// so equal snapshots mean equal k-ORE states.
    #[test]
    fn kore_merge_of_split_equals_whole(words in arb_words(3), cut in 0usize..10) {
        let cut = cut.min(words.len());
        let docs = docs_of(&words);
        let whole = ingest(&docs, 1).expect("ingest").state;
        let left = ingest(&docs[..cut], 1).expect("ingest").state;
        let right = ingest(&docs[cut..], 1).expect("ingest").state;

        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right;
        rl.merge(&left);
        for merged in [&lr, &rl] {
            prop_assert_eq!(snapshot::save(merged), snapshot::save(&whole));
            prop_assert_eq!(
                merged.derive(InferenceEngine::Kore).0.serialize(),
                whole.derive(InferenceEngine::Kore).0.serialize()
            );
        }
    }

    /// Incremental absorption equals batch learning: the state is a pure
    /// function of the multiset, not of arrival order.
    #[test]
    fn kore_absorb_order_is_invisible(words in arb_words(3)) {
        let bag: WordBag = words.iter().cloned().collect();
        let batch = KoreState::learn_counted(&bag);
        let mut forward = KoreState::new();
        for w in &words {
            forward.absorb(w);
        }
        prop_assert_eq!(&forward, &batch);
        let mut backward = KoreState::new();
        for w in words.iter().rev() {
            backward.absorb(w);
        }
        prop_assert_eq!(&backward, &batch);
    }

    /// Snapshot round trip: a v4 file (learner rows included) loads into
    /// the state of its word rows and re-saves as the fresh current save;
    /// save → load → save is the identity; and the loaded state derives
    /// the same kore/auto DTDs — for any shard count used during ingestion.
    #[test]
    fn snapshot_v4_round_trips(words in arb_words(2), jobs in 1usize..4) {
        let docs = docs_of(&words);
        let state = ingest(&docs, jobs).expect("ingest").state;
        let text = snapshot::save(&state);
        let v4 = legacy_save(&state, snapshot::V4_HEADER);
        prop_assert!(v4.contains("\nk "), "a v4 file carries k-ORE rows");
        let from_v4 = snapshot::load(&v4).expect("v4 snapshot loads");
        prop_assert_eq!(snapshot::save(&from_v4), text.clone(), "v4 re-saves as current");
        let loaded = snapshot::load(&text).expect("fresh save loads");
        prop_assert_eq!(snapshot::save(&loaded), text.clone(), "save∘load is the identity");
        for engine in [InferenceEngine::Kore, InferenceEngine::Auto] {
            prop_assert_eq!(
                loaded.derive(engine).0.serialize(),
                state.derive(engine).0.serialize(),
                "derive after round trip, {:?}", engine
            );
        }
    }

    /// v3 read-compat: a v3 file's learner rows are skipped once its
    /// `s words` count matches its `w` rows, so it loads into the exact
    /// state of those rows — re-saving produces the byte-identical current
    /// text, and the k-ORE learned from the rows equals the original's.
    /// Without its `w` rows (an upgraded v2 file) it is rejected.
    #[test]
    fn snapshot_v3_rebuilds_kore_exactly(words in arb_words(2)) {
        let docs = docs_of(&words);
        let state = ingest(&docs, 2).expect("ingest").state;
        let current = snapshot::save(&state);
        let v3 = legacy_save(&state, snapshot::V3_HEADER);
        prop_assert!(v3.contains("\ns words "), "a v3 file carries support-SOA rows");
        let loaded = snapshot::load(&v3).expect("v3 snapshot loads");
        prop_assert_eq!(snapshot::save(&loaded), current, "rebuild from word rows is exact");
        prop_assert_eq!(
            loaded.derive(InferenceEngine::Kore).0.serialize(),
            state.derive(InferenceEngine::Kore).0.serialize()
        );
        let err = snapshot::load(&without_word_rows(&v3)).unwrap_err();
        prop_assert!(err.contains("rebuild it from its documents"), "{}", err);
    }

    /// KTestable::learn is antitone in k on acceptance: for every probe,
    /// acceptance at window k+1 implies acceptance at window k (larger
    /// windows only specialize). Sample words stay accepted at every k.
    #[test]
    fn ktestable_learn_is_monotone_in_k(sample in arb_words(2), probes in arb_words(2)) {
        let learned: Vec<KTestable> =
            (1..=4).map(|k| KTestable::learn(k, &sample)).collect();
        for kt in &learned {
            for w in &sample {
                prop_assert!(kt.accepts(w), "k={}: sample word {:?} rejected", kt.k, w);
            }
        }
        for p in sample.iter().chain(&probes) {
            for pair in learned.windows(2) {
                prop_assert!(
                    !pair[1].accepts(p) || pair[0].accepts(p),
                    "probe {:?}: accepted at k={} but rejected at k={}",
                    p, pair[1].k, pair[0].k
                );
            }
        }
    }
}

/// The v3/v4 files the proptests feed the loader are the ones those
/// writers produced: over `testdata/books`, [`legacy_save`] reproduces the
/// fixture the last v4 writer saved, byte for byte.
#[test]
fn legacy_save_reproduces_the_v4_writer() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut paths: Vec<_> = std::fs::read_dir(root.join("testdata/books"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "xml"))
        .collect();
    paths.sort();
    let docs: Vec<String> = paths
        .iter()
        .map(|path| std::fs::read_to_string(path).unwrap())
        .collect();
    let state = ingest(&docs, 2).expect("ingest").state;
    let fixture = std::fs::read_to_string(root.join("testdata/snapshots/books.v4.snap")).unwrap();
    assert_eq!(legacy_save(&state, snapshot::V4_HEADER), fixture);
}
