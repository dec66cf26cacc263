//! Single occurrence automata and 2T-INF (§3–§4).
//!
//! An SOA is a Σ-labeled graph with a unique source and sink in which every
//! alphabet symbol labels at most one state; edges are unlabeled because
//! every edge implicitly carries the label of the state it points to. A
//! 2-testable language is uniquely identified by its SOA and vice versa, and
//! [`Soa::learn`] (the 2T-INF algorithm) recovers it from positive words:
//! initial symbols, final symbols and the set of 2-grams.

use dtdinfer_regex::alphabet::{Alphabet, Sym, Word};
use std::collections::BTreeSet;

/// A single occurrence automaton.
///
/// States are identified by their labels (element names); the implicit
/// source and sink are kept as the `initial` / `finals` / `accepts_empty`
/// components rather than explicit nodes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Soa {
    /// Symbols labeling a state.
    pub states: BTreeSet<Sym>,
    /// Edges between labeled states: `(a, b)` means "b may directly follow
    /// a".
    pub edges: BTreeSet<(Sym, Sym)>,
    /// Symbols with an edge from the source (words may start with them).
    pub initial: BTreeSet<Sym>,
    /// Symbols with an edge to the sink (words may end with them).
    pub finals: BTreeSet<Sym>,
    /// Whether there is a direct source→sink edge (ε is accepted).
    pub accepts_empty: bool,
}

impl Soa {
    /// Creates an empty SOA accepting nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// **2T-INF** (García & Vidal, §4): learns the SOA of the smallest
    /// 2-testable language containing every word of `sample`.
    pub fn learn<'a, I>(sample: I) -> Self
    where
        I: IntoIterator<Item = &'a Word>,
    {
        let _span = dtdinfer_obs::span("automata.2tinf");
        let mut soa = Self::new();
        for w in sample {
            soa.absorb(w);
        }
        dtdinfer_obs::observe("automata.soa.states", soa.num_states() as u64);
        dtdinfer_obs::observe("automata.soa.edges", soa.num_edges() as u64);
        soa
    }

    /// Incrementally extends the automaton with one more example word (the
    /// incremental-computation extension of §9: the SOA is the complete
    /// internal state; the original words can be forgotten).
    pub fn absorb(&mut self, w: &Word) {
        // 2T-INF telemetry: one relaxed atomic load when recording is off.
        let recording = dtdinfer_obs::metrics_enabled();
        let before = if recording {
            (self.num_states(), self.num_edges())
        } else {
            (0, 0)
        };
        match w.split_first() {
            None => self.accepts_empty = true,
            Some((&first, _)) => {
                self.initial.insert(first);
                self.finals.insert(*w.last().expect("non-empty"));
                for &s in w {
                    self.states.insert(s);
                }
                for pair in w.windows(2) {
                    self.edges.insert((pair[0], pair[1]));
                }
            }
        }
        if recording {
            dtdinfer_obs::count("automata.2tinf.words", 1);
            dtdinfer_obs::count(
                "automata.2tinf.states_added",
                (self.num_states() - before.0) as u64,
            );
            // Every new edge/initial/final the word contributes is one
            // 2T-INF merge step.
            dtdinfer_obs::count(
                "automata.2tinf.merge_steps",
                (self.num_edges() - before.1) as u64,
            );
        }
    }

    /// Builds an SOA from an explicit `(I, F, S)` triple.
    pub fn from_parts(
        initial: impl IntoIterator<Item = Sym>,
        finals: impl IntoIterator<Item = Sym>,
        pairs: impl IntoIterator<Item = (Sym, Sym)>,
        accepts_empty: bool,
    ) -> Self {
        let mut soa = Self {
            initial: initial.into_iter().collect(),
            finals: finals.into_iter().collect(),
            edges: pairs.into_iter().collect(),
            accepts_empty,
            ..Self::default()
        };
        soa.states.extend(soa.initial.iter().copied());
        soa.states.extend(soa.finals.iter().copied());
        let edge_syms: Vec<Sym> = soa.edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        soa.states.extend(edge_syms);
        soa
    }

    /// Whether the automaton accepts `w`: `w` starts in `I`, ends in `F`,
    /// and every adjacent pair is an allowed 2-gram.
    pub fn accepts(&self, w: &[Sym]) -> bool {
        match w.split_first() {
            None => self.accepts_empty,
            Some((&first, _)) => {
                self.initial.contains(&first)
                    && self.finals.contains(w.last().expect("non-empty"))
                    && w.windows(2).all(|p| self.edges.contains(&(p[0], p[1])))
            }
        }
    }

    /// Number of labeled states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of edges, counting source and sink edges like the paper does
    /// when it reports "the SOA corresponding to example3 already contains
    /// 1897 edges".
    pub fn num_edges(&self) -> usize {
        self.edges.len() + self.initial.len() + self.finals.len() + usize::from(self.accepts_empty)
    }

    /// Whether `other` accepts a subset of this automaton's language
    /// (componentwise containment of the `(I, F, S, ε)` characterization —
    /// sound and complete for 2-testable languages).
    pub fn contains(&self, other: &Soa) -> bool {
        other.initial.is_subset(&self.initial)
            && other.finals.is_subset(&self.finals)
            && other.edges.is_subset(&self.edges)
            && (!other.accepts_empty || self.accepts_empty)
    }

    /// Direct successors of `s` among labeled states.
    pub fn succ(&self, s: Sym) -> impl Iterator<Item = Sym> + '_ {
        self.edges
            .range((s, Sym(0))..=(s, Sym(u32::MAX)))
            .map(|&(_, b)| b)
    }

    /// Direct predecessors of `s` among labeled states.
    pub fn pred(&self, s: Sym) -> impl Iterator<Item = Sym> + '_ {
        self.edges
            .iter()
            .filter(move |&&(_, b)| b == s)
            .map(|&(a, _)| a)
    }

    /// Graphviz rendering (used by examples and docs).
    pub fn to_dot(&self, alphabet: &Alphabet) -> String {
        let mut out = String::from("digraph soa {\n  rankdir=LR;\n  src [shape=point];\n  snk [shape=doublecircle, label=\"\"];\n");
        for &s in &self.states {
            out.push_str(&format!("  n{} [label=\"{}\"];\n", s.0, alphabet.name(s)));
        }
        for &s in &self.initial {
            out.push_str(&format!("  src -> n{};\n", s.0));
        }
        for &(a, b) in &self.edges {
            out.push_str(&format!("  n{} -> n{};\n", a.0, b.0));
        }
        for &s in &self.finals {
            out.push_str(&format!("  n{} -> snk;\n", s.0));
        }
        if self.accepts_empty {
            out.push_str("  src -> snk;\n");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(alphabet: &mut Alphabet, words: &[&str]) -> Vec<Word> {
        words.iter().map(|w| alphabet.word_from_chars(w)).collect()
    }

    /// The paper's Figure 1 automaton, learned from
    /// W = {bacacdacde, cbacdbacde, abccaadcde}.
    #[test]
    fn figure1_automaton() {
        let mut al = Alphabet::new();
        let words = sample(&mut al, &["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let soa = Soa::learn(&words);
        let s = |n: &str| al.get(n).unwrap();
        assert_eq!(
            soa.initial,
            [s("a"), s("b"), s("c")]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
        assert_eq!(soa.finals, [s("e")].into_iter().collect::<BTreeSet<_>>());
        let expect: BTreeSet<(Sym, Sym)> = [
            ("a", "a"),
            ("a", "d"),
            ("a", "c"),
            ("a", "b"),
            ("b", "a"),
            ("b", "c"),
            ("c", "b"),
            ("c", "c"),
            ("c", "a"),
            ("c", "d"),
            ("d", "a"),
            ("d", "b"),
            ("d", "c"),
            ("d", "e"),
        ]
        .iter()
        .map(|&(x, y)| (s(x), s(y)))
        .collect();
        assert_eq!(soa.edges, expect);
        assert!(!soa.accepts_empty);
    }

    /// Figure 2: the sub-automaton learned from only the first two words.
    #[test]
    fn figure2_is_subautomaton_of_figure1() {
        let mut al = Alphabet::new();
        let all = sample(&mut al, &["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let partial = sample(&mut al, &["bacacdacde", "cbacdbacde"]);
        let full = Soa::learn(&all);
        let sub = Soa::learn(&partial);
        assert!(full.contains(&sub));
        assert!(!sub.contains(&full));
        assert!(sub.edges.len() < full.edges.len());
    }

    #[test]
    fn accepts_training_words() {
        let mut al = Alphabet::new();
        let words = sample(&mut al, &["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let soa = Soa::learn(&words);
        for w in &words {
            assert!(soa.accepts(w));
        }
    }

    #[test]
    fn accepts_generalizes_to_2testable_closure() {
        let mut al = Alphabet::new();
        let words = sample(&mut al, &["abc"]);
        let soa = Soa::learn(&words);
        assert!(soa.accepts(&al.word_from_chars("abc")));
        assert!(!soa.accepts(&al.word_from_chars("ab"))); // b not final
        assert!(!soa.accepts(&al.word_from_chars("bc"))); // b not initial
    }

    #[test]
    fn loops_generalize() {
        let mut al = Alphabet::new();
        let words = sample(&mut al, &["aab"]);
        let soa = Soa::learn(&words);
        // "aa" 2-gram allows arbitrarily many a's.
        assert!(soa.accepts(&al.word_from_chars("aaaab")));
        assert!(soa.accepts(&al.word_from_chars("ab")));
    }

    #[test]
    fn empty_word_handling() {
        let mut al = Alphabet::new();
        let a = al.intern("a");
        let words: Vec<Word> = vec![vec![], vec![a]];
        let soa = Soa::learn(&words);
        assert!(soa.accepts_empty);
        assert!(soa.accepts(&[]));
        assert!(soa.accepts(&[a]));
        assert!(!soa.accepts(&[a, a]));
    }

    #[test]
    fn incremental_absorb_equals_batch() {
        let mut al = Alphabet::new();
        let words = sample(&mut al, &["abc", "acb", "bca"]);
        let batch = Soa::learn(&words);
        let mut inc = Soa::new();
        for w in &words {
            inc.absorb(w);
        }
        assert_eq!(batch, inc);
    }

    #[test]
    fn edge_count_includes_source_and_sink() {
        let mut al = Alphabet::new();
        let words = sample(&mut al, &["ab"]);
        let soa = Soa::learn(&words);
        // source->a, a->b, b->sink
        assert_eq!(soa.num_edges(), 3);
        assert_eq!(soa.num_states(), 2);
    }

    #[test]
    fn succ_pred() {
        let mut al = Alphabet::new();
        let words = sample(&mut al, &["abc", "abd"]);
        let soa = Soa::learn(&words);
        let s = |n: &str| al.get(n).unwrap();
        let succ_b: Vec<Sym> = soa.succ(s("b")).collect();
        assert_eq!(succ_b, vec![s("c"), s("d")]);
        let pred_b: Vec<Sym> = soa.pred(s("b")).collect();
        assert_eq!(pred_b, vec![s("a")]);
    }

    #[test]
    fn from_parts_round_trip() {
        let mut al = Alphabet::new();
        let (a, b) = (al.intern("a"), al.intern("b"));
        let soa = Soa::from_parts([a], [b], [(a, b)], false);
        assert!(soa.accepts(&[a, b]));
        assert!(!soa.accepts(&[a]));
        assert_eq!(soa.num_states(), 2);
    }

    #[test]
    fn dot_output_contains_labels() {
        let mut al = Alphabet::new();
        let words = sample(&mut al, &["ab"]);
        let soa = Soa::learn(&words);
        let dot = soa.to_dot(&al);
        assert!(dot.contains("label=\"a\""));
        assert!(dot.contains("label=\"b\""));
        assert!(dot.contains("-> snk"));
    }
}
