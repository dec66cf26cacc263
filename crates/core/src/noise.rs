//! Noise handling (§9).
//!
//! Real-world XML is noisy: in the paper's XHTML study, paragraph elements
//! containing >30000 occurrences matched a 41-symbol repeated disjunction
//! except for about a dozen disallowed intruders appearing in ~10 strings.
//! Two countermeasures are described:
//!
//! * the **support threshold**: count the support of every element name and
//!   drop names below a threshold before inference;
//! * the **edge-support refinement** for iDTD: annotate every SOA edge with
//!   how many sample words used it; when `rewrite` gets stuck, first try
//!   *removing* low-support edges to advance before resorting to repair
//!   rules (which grow the language).

use crate::idtd::{idtd_with, IdtdConfig};
use crate::model::InferredModel;
use crate::rewrite::rewrite_exhaust;
use dtdinfer_automata::gfa::Gfa;
use dtdinfer_automata::soa::Soa;
use dtdinfer_regex::alphabet::{Sym, Word};
use dtdinfer_regex::normalize::{simplify, star_form};
use std::collections::HashMap;

/// Kinds of SOA edges, for support accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeKind {
    /// source → a (a word started with `a`).
    Initial(Sym),
    /// a → b (the 2-gram `ab` occurred).
    Pair(Sym, Sym),
    /// a → sink (a word ended with `a`).
    Final(Sym),
    /// source → sink (an empty word occurred).
    Epsilon,
}

/// An SOA annotated with per-edge and per-symbol supports.
#[derive(Debug, Clone, Default)]
pub struct SupportSoa {
    soa: Soa,
    edge_support: HashMap<EdgeKind, u64>,
    sym_support: HashMap<Sym, u64>,
    num_words: u64,
}

impl SupportSoa {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns from a batch of words.
    pub fn learn<'a, I: IntoIterator<Item = &'a Word>>(words: I) -> Self {
        let mut s = Self::new();
        for w in words {
            s.absorb(w);
        }
        s
    }

    /// Learns from a counted multiset of `(word, count)` entries: equal to
    /// absorbing each word `count` times, at the cost of one pass per
    /// *distinct* word.
    pub fn learn_counted<'a, I: IntoIterator<Item = (&'a Word, u32)>>(words: I) -> Self {
        let mut s = Self::new();
        for (w, n) in words {
            s.absorb_counted(w, n);
        }
        s
    }

    /// Folds in one word, incrementing supports.
    pub fn absorb(&mut self, w: &Word) {
        self.absorb_counted(w, 1);
    }

    /// Folds in `n` occurrences of one word. The SOA part is a set union
    /// (count-invariant), so the word is walked once and every support
    /// counter advances by `n` — identical to `n` calls of
    /// [`SupportSoa::absorb`].
    pub fn absorb_counted(&mut self, w: &Word, n: u32) {
        if n == 0 {
            return;
        }
        let n = u64::from(n);
        self.num_words += n;
        self.soa.absorb(w);
        match w.split_first() {
            None => {
                *self.edge_support.entry(EdgeKind::Epsilon).or_insert(0) += n;
            }
            Some((&first, _)) => {
                *self
                    .edge_support
                    .entry(EdgeKind::Initial(first))
                    .or_insert(0) += n;
                *self
                    .edge_support
                    .entry(EdgeKind::Final(*w.last().expect("non-empty")))
                    .or_insert(0) += n;
                for pair in w.windows(2) {
                    *self
                        .edge_support
                        .entry(EdgeKind::Pair(pair[0], pair[1]))
                        .or_insert(0) += n;
                }
                for &s in w {
                    *self.sym_support.entry(s).or_insert(0) += n;
                }
            }
        }
    }

    /// The underlying automaton.
    pub fn soa(&self) -> &Soa {
        &self.soa
    }

    /// Number of absorbed words.
    pub fn num_words(&self) -> u64 {
        self.num_words
    }

    /// Support of one edge (0 if never seen).
    pub fn support(&self, edge: EdgeKind) -> u64 {
        self.edge_support.get(&edge).copied().unwrap_or(0)
    }

    /// Support of a symbol: total number of occurrences in the corpus.
    pub fn symbol_support(&self, s: Sym) -> u64 {
        self.sym_support.get(&s).copied().unwrap_or(0)
    }

    /// All symbol supports in symbol order (total occurrences per element
    /// name across the absorbed words).
    pub fn symbol_supports(&self) -> std::collections::BTreeMap<Sym, u64> {
        self.sym_support.iter().map(|(&s, &c)| (s, c)).collect()
    }

    /// The simple countermeasure: an SOA with every symbol of support
    /// < `threshold` dropped (with its incident edges) and every surviving
    /// edge of support < `threshold` dropped.
    pub fn pruned(&self, threshold: u64) -> Soa {
        let keep = |s: &Sym| self.symbol_support(*s) >= threshold;
        let mut soa = Soa::new();
        soa.states = self.soa.states.iter().copied().filter(keep).collect();
        soa.initial = self
            .soa
            .initial
            .iter()
            .copied()
            .filter(|s| keep(s) && self.support(EdgeKind::Initial(*s)) >= threshold)
            .collect();
        soa.finals = self
            .soa
            .finals
            .iter()
            .copied()
            .filter(|s| keep(s) && self.support(EdgeKind::Final(*s)) >= threshold)
            .collect();
        soa.edges = self
            .soa
            .edges
            .iter()
            .copied()
            .filter(|&(a, b)| {
                keep(&a) && keep(&b) && self.support(EdgeKind::Pair(a, b)) >= threshold
            })
            .collect();
        soa.accepts_empty = self.soa.accepts_empty && self.support(EdgeKind::Epsilon) >= threshold;
        soa
    }

    /// iDTD over the pruned automaton (the simple §9 treatment).
    pub fn infer_pruned(&self, threshold: u64) -> InferredModel {
        idtd_with(&self.pruned(threshold), IdtdConfig::default())
    }

    /// A symbol-only prune: drops element names whose total support is
    /// below `threshold` (with their incident edges) but keeps every edge
    /// between surviving symbols. The "obvious way in dealing with noise"
    /// of §9.
    pub fn pruned_symbols(&self, threshold: u64) -> Soa {
        let keep = |s: &Sym| self.symbol_support(*s) >= threshold;
        let mut soa = self.soa.clone();
        soa.states.retain(keep);
        soa.initial.retain(keep);
        soa.finals.retain(keep);
        soa.edges.retain(|&(a, b)| keep(&a) && keep(&b));
        soa
    }

    /// Production entry point combining both §9 treatments: low-support
    /// *symbols* are dropped outright, then rewriting proceeds with the
    /// edge-aware rescue of [`SupportSoa::infer_noise_aware`].
    pub fn infer_denoised(&self, threshold: u64) -> InferredModel {
        self.infer_from(self.pruned_symbols(threshold), threshold)
    }

    /// The refined §9 treatment: run `rewrite`; each time it gets stuck,
    /// try deleting the lowest-support edge below `threshold` (checking
    /// whether that advances rewriting) before falling back to iDTD's
    /// repair rules on whatever remains.
    pub fn infer_noise_aware(&self, threshold: u64) -> InferredModel {
        self.infer_from(self.soa.clone(), threshold)
    }

    fn infer_from(&self, soa: Soa, threshold: u64) -> InferredModel {
        if soa.states.is_empty() {
            return if soa.accepts_empty {
                InferredModel::EpsilonOnly
            } else {
                InferredModel::Empty
            };
        }
        let mut soa = soa;
        loop {
            let (mut g, _) = Gfa::from_soa(&soa);
            rewrite_exhaust(&mut g);
            if let Some(r) = g.final_regex() {
                return InferredModel::Regex(simplify(&star_form(r)));
            }
            // Stuck: find the weakest sub-threshold edge and drop it.
            let weakest = self.weakest_edge(&soa, threshold);
            match weakest {
                Some(edge) => remove_edge(&mut soa, edge),
                // Nothing noisy left to remove: repair instead.
                None => return idtd_with(&soa, IdtdConfig::default()),
            }
        }
    }

    fn weakest_edge(&self, soa: &Soa, threshold: u64) -> Option<EdgeKind> {
        let mut candidates: Vec<(u64, EdgeKind)> = Vec::new();
        for &s in &soa.initial {
            candidates.push((self.support(EdgeKind::Initial(s)), EdgeKind::Initial(s)));
        }
        for &s in &soa.finals {
            candidates.push((self.support(EdgeKind::Final(s)), EdgeKind::Final(s)));
        }
        for &(a, b) in &soa.edges {
            candidates.push((self.support(EdgeKind::Pair(a, b)), EdgeKind::Pair(a, b)));
        }
        if soa.accepts_empty {
            candidates.push((self.support(EdgeKind::Epsilon), EdgeKind::Epsilon));
        }
        candidates
            .into_iter()
            .filter(|&(sup, _)| sup < threshold)
            .min()
            .map(|(_, e)| e)
    }
}

fn remove_edge(soa: &mut Soa, edge: EdgeKind) {
    match edge {
        EdgeKind::Initial(s) => {
            soa.initial.remove(&s);
        }
        EdgeKind::Final(s) => {
            soa.finals.remove(&s);
        }
        EdgeKind::Pair(a, b) => {
            soa.edges.remove(&(a, b));
        }
        EdgeKind::Epsilon => soa.accepts_empty = false,
    }
    // Drop states that became unreferenced so the GFA stays tidy.
    let referenced: std::collections::BTreeSet<Sym> = soa
        .initial
        .iter()
        .chain(soa.finals.iter())
        .copied()
        .chain(soa.edges.iter().flat_map(|&(a, b)| [a, b]))
        .collect();
    soa.states.retain(|s| referenced.contains(s));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_regex::alphabet::Alphabet;
    use dtdinfer_regex::display::render;
    use dtdinfer_regex::normalize::equiv_commutative;
    use dtdinfer_regex::parser::parse;

    /// A clean (a|b|c)* corpus plus a few words with an intruder symbol z.
    fn noisy_corpus(al: &mut Alphabet) -> Vec<Word> {
        let mut words = Vec::new();
        for _ in 0..30 {
            for w in [
                "abc", "bca", "cab", "aa", "bb", "cc", "ac", "ca", "ab", "ba", "bc", "cb", "",
            ] {
                words.push(al.word_from_chars(w));
            }
        }
        // Noise: z appears in only 2 of ~390 words.
        words.push(al.word_from_chars("azb"));
        words.push(al.word_from_chars("zc"));
        words
    }

    #[test]
    fn pruning_removes_low_support_symbols() {
        let mut al = Alphabet::new();
        let s = SupportSoa::learn(&noisy_corpus(&mut al));
        let z = al.get("z").unwrap();
        assert!(s.soa().states.contains(&z));
        let pruned = s.pruned(5);
        assert!(!pruned.states.contains(&z));
        assert!(pruned.states.contains(&al.get("a").unwrap()));
    }

    #[test]
    fn pruned_inference_recovers_clean_expression() {
        let mut al = Alphabet::new();
        let s = SupportSoa::learn(&noisy_corpus(&mut al));
        let r = s.infer_pruned(5).into_regex().unwrap();
        let target = parse("(a | b | c)*", &mut al).unwrap();
        assert!(equiv_commutative(&r, &target), "got {}", render(&r, &al));
    }

    #[test]
    fn noise_aware_idtd_drops_weak_edges_first() {
        let mut al = Alphabet::new();
        let s = SupportSoa::learn(&noisy_corpus(&mut al));
        let r = s.infer_noise_aware(5).into_regex().unwrap();
        // The intruder z must be gone from the inferred expression.
        let z = al.get("z").unwrap();
        assert!(!r.symbols().contains(&z), "got {}", render(&r, &al));
    }

    #[test]
    fn without_threshold_noise_stays() {
        let mut al = Alphabet::new();
        let s = SupportSoa::learn(&noisy_corpus(&mut al));
        // threshold 0 = keep everything: z must appear.
        let r = s.infer_noise_aware(0).into_regex().unwrap();
        let z = al.get("z").unwrap();
        assert!(r.symbols().contains(&z));
    }

    #[test]
    fn supports_counted() {
        let mut al = Alphabet::new();
        let words: Vec<Word> = vec![
            al.word_from_chars("ab"),
            al.word_from_chars("ab"),
            al.word_from_chars("b"),
            vec![],
        ];
        let s = SupportSoa::learn(&words);
        let (a, b) = (al.get("a").unwrap(), al.get("b").unwrap());
        assert_eq!(s.support(EdgeKind::Initial(a)), 2);
        assert_eq!(s.support(EdgeKind::Initial(b)), 1);
        assert_eq!(s.support(EdgeKind::Pair(a, b)), 2);
        assert_eq!(s.support(EdgeKind::Final(b)), 3);
        assert_eq!(s.support(EdgeKind::Epsilon), 1);
        assert_eq!(s.symbol_support(a), 2);
        assert_eq!(s.num_words(), 4);
    }

    #[test]
    fn degenerate_empty() {
        let s = SupportSoa::new();
        assert_eq!(s.infer_noise_aware(3), InferredModel::Empty);
    }
}
