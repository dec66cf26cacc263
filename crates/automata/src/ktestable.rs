//! k-testable languages in the strict sense (García & Vidal, cited as \[23\]).
//!
//! The paper builds exclusively on the k = 2 case — a 2-testable language
//! is determined by its allowed first symbols, last symbols and 2-grams,
//! and corresponds exactly to a single occurrence automaton (§4). The
//! general k-testable machinery implemented here is the natural
//! "specificity knob" the same inference framework offers: larger k yields
//! strictly more specific languages at the cost of needing more data,
//! which the `ktest_specificity` test below demonstrates. (For k > 2 the
//! learned automaton is no longer single occurrence, so the SORE/CHARE
//! translation of the paper does not apply — the reason the paper fixes
//! k = 2.)
//!
//! A k-testable language is given by: `I` — allowed prefixes of length
//! k−1; `F` — allowed suffixes of length k−1; `T` — allowed k-grams; and
//! the finite set `S` of allowed words *shorter than k−1* (such words are
//! too short to have a (k−1)-window, so the window conditions cannot see
//! them — note a word of length exactly k−1 is its own prefix and suffix
//! and is covered by `I`/`F`, not `S`). A word of length ≥ k−1 belongs
//! iff its (k−1)-prefix ∈ I, its (k−1)-suffix ∈ F and all its k-grams
//! ∈ T; a shorter word belongs iff it is in S. The empty word is in S for
//! every k ≥ 2, but for k = 1 it is the (empty) prefix/suffix window
//! itself — the boundary the `empty_word_only_sample` test pins down.

use crate::dfa::Dfa;
use dtdinfer_regex::alphabet::{Sym, Word};
use std::collections::{BTreeMap, BTreeSet};

/// A learned k-testable language (strict sense).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KTestable {
    /// The window size k ≥ 1.
    pub k: usize,
    /// Allowed (k−1)-prefixes.
    pub prefixes: BTreeSet<Word>,
    /// Allowed (k−1)-suffixes.
    pub suffixes: BTreeSet<Word>,
    /// Allowed k-grams.
    pub grams: BTreeSet<Word>,
    /// Words shorter than k−1 seen verbatim (they are not covered by the
    /// window conditions).
    pub shorts: BTreeSet<Word>,
}

impl KTestable {
    /// Learns the smallest k-testable language containing every sample
    /// word (the k-generalization of 2T-INF).
    pub fn learn<'a, I>(k: usize, sample: I) -> Self
    where
        I: IntoIterator<Item = &'a Word>,
    {
        assert!(k >= 1, "k must be at least 1");
        let mut out = KTestable {
            k,
            prefixes: BTreeSet::new(),
            suffixes: BTreeSet::new(),
            grams: BTreeSet::new(),
            shorts: BTreeSet::new(),
        };
        for w in sample {
            out.absorb(w);
        }
        out
    }

    /// Incrementally absorbs one word.
    pub fn absorb(&mut self, w: &Word) {
        let k = self.k;
        if w.len() < k.saturating_sub(1) {
            self.shorts.insert(w.clone());
            return;
        }
        self.prefixes.insert(w[..k - 1].to_vec());
        self.suffixes.insert(w[w.len() - (k - 1)..].to_vec());
        for gram in w.windows(k) {
            self.grams.insert(gram.to_vec());
        }
    }

    /// Membership in the learned language.
    pub fn accepts(&self, w: &[Sym]) -> bool {
        let k = self.k;
        if w.len() < k.saturating_sub(1) {
            return self.shorts.contains(w);
        }

        self.prefixes.contains(&w[..k - 1])
            && self.suffixes.contains(&w[w.len() - (k - 1)..])
            && w.windows(k).all(|g| self.grams.contains(g))
    }

    /// Whether this language contains `other` (componentwise inclusion —
    /// sound and complete for equal k).
    pub fn contains(&self, other: &KTestable) -> bool {
        assert_eq!(self.k, other.k, "containment requires equal k");
        other.prefixes.is_subset(&self.prefixes)
            && other.suffixes.is_subset(&self.suffixes)
            && other.grams.is_subset(&self.grams)
            && other.shorts.is_subset(&self.shorts)
    }

    /// All symbols mentioned anywhere in the descriptor.
    pub fn symbols(&self) -> Vec<Sym> {
        let mut set = BTreeSet::new();
        for w in self
            .prefixes
            .iter()
            .chain(&self.suffixes)
            .chain(&self.grams)
            .chain(&self.shorts)
        {
            set.extend(w.iter().copied());
        }
        set.into_iter().collect()
    }

    /// Compiles the descriptor to a complete DFA over `alphabet` (states =
    /// windows of the last k−1 symbols read).
    pub fn to_dfa(&self, alphabet: &[Sym]) -> Dfa {
        let mut syms = alphabet.to_vec();
        syms.sort_unstable();
        syms.dedup();
        let k = self.k;
        // State: Err = dead; Ok(window) where window.len() < k-1 means "read
        // so far" (short phase), == k-1 means sliding window.
        let mut index: BTreeMap<Option<Word>, usize> = BTreeMap::new();
        let mut order: Vec<Option<Word>> = Vec::new();
        let mut intern = |key: Option<Word>, order: &mut Vec<Option<Word>>| -> (usize, bool) {
            if let Some(&i) = index.get(&key) {
                return (i, false);
            }
            let i = order.len();
            index.insert(key.clone(), i);
            order.push(key);
            (i, true)
        };
        let (start, _) = intern(Some(Vec::new()), &mut order);
        let mut trans: Vec<Vec<usize>> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut queue = vec![start];
        while let Some(state) = queue.pop() {
            if trans.len() <= state {
                trans.resize(state + 1, Vec::new());
                accept.resize(state + 1, false);
            }
            let key = order[state].clone();
            accept[state] = match &key {
                None => false,
                Some(window) => {
                    if window.len() < k.saturating_sub(1) {
                        self.shorts.contains(window)
                    } else {
                        // Words ending here have this window as suffix; the
                        // prefix/gram conditions were enforced on the way.
                        self.suffixes.contains(window)
                    }
                }
            };
            let mut row = Vec::with_capacity(syms.len());
            for &s in &syms {
                let next_key: Option<Word> = match &key {
                    None => None,
                    Some(window) => {
                        let mut next = window.clone();
                        next.push(s);
                        if next.len() < k.saturating_sub(1) {
                            Some(next) // still assembling the first window
                        } else if next.len() == k.saturating_sub(1) {
                            // The first full (k-1)-window: must be a legal
                            // prefix.
                            if self.prefixes.contains(&next) {
                                Some(next)
                            } else {
                                None
                            }
                        } else {
                            // Sliding: the new k-gram must be allowed.
                            if self.grams.contains(&next) {
                                next.remove(0);
                                Some(next)
                            } else {
                                None
                            }
                        }
                    }
                };
                let (target, fresh) = intern(next_key, &mut order);
                if fresh {
                    queue.push(target);
                }
                row.push(target);
            }
            trans[state] = row;
        }
        debug_assert_eq!(trans.len(), order.len(), "every state visited once");
        Dfa {
            syms,
            start,
            accept,
            trans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::Soa;
    use dtdinfer_regex::alphabet::Alphabet;

    fn words(al: &mut Alphabet, ws: &[&str]) -> Vec<Word> {
        ws.iter().map(|w| al.word_from_chars(w)).collect()
    }

    #[test]
    fn k2_coincides_with_soa() {
        let mut al = Alphabet::new();
        let sample = words(&mut al, &["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let k2 = KTestable::learn(2, &sample);
        let soa = Soa::learn(&sample);
        // Same acceptance on a batch of probes.
        let probes = words(
            &mut al,
            &["bacacdacde", "ade", "bde", "e", "acde", "abcde", "aaaade"],
        );
        for p in &probes {
            assert_eq!(k2.accepts(p), soa.accepts(p), "{p:?}");
        }
    }

    #[test]
    fn larger_k_is_more_specific() {
        let mut al = Alphabet::new();
        let sample = words(&mut al, &["aabb", "aaabbb"]);
        let k2 = KTestable::learn(2, &sample);
        let k3 = KTestable::learn(3, &sample);
        // k=2 overgeneralizes to a+b+; k=3 requires aa ... bb shape.
        let w = al.word_from_chars("ab");
        assert!(k2.accepts(&w));
        assert!(!k3.accepts(&w), "k=3 must reject ab (no 2-prefix 'ab'… )");
        // Every sample word accepted by both.
        for s in &sample {
            assert!(k2.accepts(s));
            assert!(k3.accepts(s), "{s:?}");
        }
    }

    #[test]
    fn ktest_specificity_chain() {
        // L(k+1) ⊆ L(k) on the sample probes.
        let mut al = Alphabet::new();
        let sample = words(&mut al, &["abcabc", "abc", "abcabcabc"]);
        let k2 = KTestable::learn(2, &sample);
        let k3 = KTestable::learn(3, &sample);
        let k4 = KTestable::learn(4, &sample);
        let mut probe_al = al.clone();
        for probe in ["abc", "abcabc", "abcbc", "ababc", "abcab", "bcabc", "aabc"] {
            let w = probe_al.word_from_chars(probe);
            let (a2, a3, a4) = (k2.accepts(&w), k3.accepts(&w), k4.accepts(&w));
            assert!(!a3 || a2, "{probe}: k3 ⊆ k2 violated");
            assert!(!a4 || a3, "{probe}: k4 ⊆ k3 violated");
        }
    }

    #[test]
    fn short_words_handled() {
        let mut al = Alphabet::new();
        let sample = words(&mut al, &["", "a", "abc"]);
        let k3 = KTestable::learn(3, &sample);
        assert!(k3.accepts(&[]));
        assert!(k3.accepts(&al.word_from_chars("a")));
        assert!(!k3.accepts(&al.word_from_chars("b")));
        assert!(k3.accepts(&al.word_from_chars("abc")));
    }

    #[test]
    fn dfa_compilation_agrees_with_direct_membership() {
        let mut al = Alphabet::new();
        let sample = words(&mut al, &["aabb", "aaabbb", "ab", "abab"]);
        for k in 1..=4usize {
            let kt = KTestable::learn(k, &sample);
            let dfa = kt.to_dfa(&kt.symbols());
            let mut probe_al = al.clone();
            for probe in [
                "", "a", "b", "ab", "ba", "aabb", "abab", "aaabbb", "aabbb", "abb", "ababab",
            ] {
                let w = probe_al.word_from_chars(probe);
                assert_eq!(dfa.accepts(&w), kt.accepts(&w), "k={k} probe={probe:?}");
            }
        }
    }

    #[test]
    fn containment() {
        let mut al = Alphabet::new();
        let big = KTestable::learn(2, &words(&mut al, &["ab", "ba", "aa"]));
        let small = KTestable::learn(2, &words(&mut al, &["ab"]));
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
    }

    #[test]
    fn empty_word_only_sample() {
        // The ε-only sample is the boundary between the S bucket (k ≥ 2:
        // ε is shorter than k−1) and the window conditions (k = 1: ε is
        // the empty prefix/suffix window). Either way the learned language
        // must be exactly {ε}, and the compiled DFA must agree.
        let mut al = Alphabet::new();
        let sample = vec![Word::new()];
        let a = al.intern("a");
        let b = al.intern("b");
        for k in 1..=4usize {
            let kt = KTestable::learn(k, &sample);
            assert!(kt.accepts(&[]), "k={k}: ε must be accepted");
            for probe in [vec![a], vec![b], vec![a, a], vec![a, b, a]] {
                assert!(!kt.accepts(&probe), "k={k}: {probe:?} must be rejected");
            }
            // contains is reflexive and agrees with the learned components
            // even when every window set is empty (k ≥ 2).
            assert!(kt.contains(&kt), "k={k}: containment must be reflexive");
            assert!(
                kt.contains(&KTestable::learn(k, &sample)),
                "k={k}: relearning ε changes nothing"
            );
            // to_dfa over an explicit alphabet (symbols() is empty here, so
            // pass one) accepts exactly ε too.
            let dfa = kt.to_dfa(&[a, b]);
            assert!(dfa.accepts(&[]), "k={k}: DFA must accept ε");
            for probe in [vec![a], vec![b], vec![b, a]] {
                assert!(!dfa.accepts(&probe), "k={k}: DFA must reject {probe:?}");
            }
        }
    }

    #[test]
    fn accepts_and_dfa_agree_on_boundary_length_words() {
        // Exhaustive differential check on every word of length ≤ 4 over a
        // two-symbol alphabet, for samples that straddle the short/window
        // boundary (ε, length k−2, k−1 and k words together).
        let mut al = Alphabet::new();
        let a = al.intern("a");
        let b = al.intern("b");
        let samples: Vec<Vec<Word>> = vec![
            vec![Word::new(), vec![a]],
            vec![vec![a], vec![a, b]],
            vec![Word::new(), vec![a, b], vec![a, b, a]],
            vec![vec![b, b], vec![a, b, a, b]],
        ];
        let mut probes: Vec<Word> = vec![Word::new()];
        let mut frontier: Vec<Word> = vec![Word::new()];
        for _ in 0..4 {
            let mut next = Vec::new();
            for w in &frontier {
                for &s in &[a, b] {
                    let mut e = w.clone();
                    e.push(s);
                    next.push(e);
                }
            }
            probes.extend(next.iter().cloned());
            frontier = next;
        }
        for sample in &samples {
            for k in 1..=4usize {
                let kt = KTestable::learn(k, sample);
                for w in sample {
                    assert!(kt.accepts(w), "k={k}: sample word {w:?} must be accepted");
                }
                let dfa = kt.to_dfa(&[a, b]);
                for p in &probes {
                    assert_eq!(
                        kt.accepts(p),
                        dfa.accepts(p),
                        "k={k} sample={sample:?} probe={p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn k1_is_symbol_set_language() {
        // k=1: prefixes/suffixes are ε; membership = all symbols' 1-grams
        // allowed.
        let mut al = Alphabet::new();
        let kt = KTestable::learn(1, &words(&mut al, &["ab"]));
        assert!(kt.accepts(&al.word_from_chars("abba")));
        assert!(!kt.accepts(&al.word_from_chars("abc")));
    }
}
