//! The CRX algorithm (§7, Algorithm 3, Theorems 3–5).
//!
//! CRX infers chain regular expressions directly from words, bypassing the
//! automaton representation entirely:
//!
//! 1. Build the pre-order `→W` on symbols (`a →W b` iff `ab` occurs in some
//!    word) and its equivalence classes `≈W` (strongly connected
//!    components).
//! 2. Merge maximal sets of *singleton* classes that share predecessor and
//!    successor sets in the Hasse diagram of the induced partial order.
//! 3. Topologically sort the classes.
//! 4. Qualify each class `[a1,…,an]` from per-word occurrence counts:
//!    exactly one → `(a1+…+an)`, at most one → `…?`, at least one with a
//!    repeat → `…+`, otherwise → `…*`.
//!
//! Its strength is generalization: `(a1+…+an)*` is learned from `O(n)`
//! 2-grams where `rewrite` needs all `n²` and iDTD around `n² − n` (§7).
//!
//! [`CrxState`] is the streaming/incremental form (§7 last paragraph, §9):
//! it retains only the `→W` edge set plus per-word occurrence-count vectors
//! (deduplicated with multiplicities), so the XML corpus itself never needs
//! to stay in memory and new words can be absorbed at any time.

use crate::model::InferredModel;
use dtdinfer_regex::alphabet::{Sym, Word};
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::classify::{chare_to_regex, ChareFactor, ChareModifier};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Streaming state of CRX: the induced order and occurrence statistics.
///
/// This is the "internal representation" of the incremental-computation
/// extension of §9; `absorb` folds in new words and `infer` recomputes the
/// CHARE at any point. Every component is a set, a multiset, or a count,
/// so the state is invariant under permutation of the absorbed words.
/// Ties (topological order, members of a disjunction) are broken by `Sym`
/// order, which equals first-occurrence order whenever the alphabet was
/// interned from the same word stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrxState {
    /// 2-gram successor relation `→W`.
    edges: BTreeSet<(Sym, Sym)>,
    /// All symbols seen.
    syms: BTreeSet<Sym>,
    /// Occurrence-count vector per word (sorted sparse), with multiplicity.
    count_vectors: BTreeMap<Vec<(Sym, u32)>, usize>,
    /// Total number of words absorbed.
    num_words: usize,
}

impl CrxState {
    /// An empty state (no words seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word into the state.
    pub fn absorb(&mut self, w: &Word) {
        self.absorb_counted(w, 1);
    }

    /// Folds `n` occurrences of one word into the state. The successor
    /// relation and symbol set are unions (count-invariant), so the word
    /// is walked once; only the count-vector multiplicity and the word
    /// total advance by `n` — identical to `n` calls of
    /// [`CrxState::absorb`].
    pub fn absorb_counted(&mut self, w: &Word, n: u32) {
        if n == 0 {
            return;
        }
        self.num_words += n as usize;
        let mut counts: BTreeMap<Sym, u32> = BTreeMap::new();
        for &s in w {
            self.syms.insert(s);
            *counts.entry(s).or_insert(0) += 1;
        }
        for pair in w.windows(2) {
            self.edges.insert((pair[0], pair[1]));
        }
        let vector: Vec<(Sym, u32)> = counts.into_iter().collect();
        *self.count_vectors.entry(vector).or_insert(0) += n as usize;
    }

    /// Number of words absorbed so far.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Whether any non-empty word was absorbed (the element has children).
    pub fn has_symbols(&self) -> bool {
        !self.syms.is_empty()
    }

    /// Runs steps 1–4 of Algorithm 3 on the accumulated state.
    pub fn infer_factors(&self) -> Vec<ChareFactor> {
        let _span = dtdinfer_obs::span("core.crx");
        dtdinfer_obs::count("core.crx.runs", 1);
        dtdinfer_obs::count("core.crx.words", self.num_words as u64);
        if self.syms.is_empty() {
            return Vec::new();
        }
        let syms: Vec<Sym> = self.syms.iter().copied().collect();
        let index: HashMap<Sym, usize> = syms.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let n = syms.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            adj[index[&a]].push(index[&b]);
        }

        // Step 1: equivalence classes of ≈W = SCCs of →W.
        let sccs = tarjan_sccs(&adj);
        let class_of: Vec<usize> = {
            let mut c = vec![0usize; n];
            for (ci, comp) in sccs.iter().enumerate() {
                for &v in comp {
                    c[v] = ci;
                }
            }
            c
        };

        // Build the class DAG (condensation), then its Hasse diagram
        // (transitive reduction).
        let mut classes: Vec<BTreeSet<Sym>> = sccs
            .iter()
            .map(|comp| comp.iter().map(|&v| syms[v]).collect())
            .collect();
        let mut dag_succ: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); classes.len()];
        for &(a, b) in &self.edges {
            let (ca, cb) = (class_of[index[&a]], class_of[index[&b]]);
            if ca != cb {
                dag_succ[ca].insert(cb);
            }
        }
        transitive_reduction(&mut dag_succ);
        let mut dag_pred: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); classes.len()];
        for (u, succs) in dag_succ.iter().enumerate() {
            for &v in succs {
                dag_pred[v].insert(u);
            }
        }

        // Step 2–3: repeatedly merge maximal sets of singleton nodes with
        // identical predecessor and successor sets.
        let mut alive: Vec<bool> = vec![true; classes.len()];
        loop {
            let mut groups: BTreeMap<(Vec<usize>, Vec<usize>), Vec<usize>> = BTreeMap::new();
            for (ci, class) in classes.iter().enumerate() {
                if alive[ci] && class.len() == 1 {
                    let key = (
                        dag_pred[ci].iter().copied().collect::<Vec<_>>(),
                        dag_succ[ci].iter().copied().collect::<Vec<_>>(),
                    );
                    groups.entry(key).or_default().push(ci);
                }
            }
            let Some(group) = groups.into_values().find(|g| g.len() >= 2) else {
                break;
            };
            // Merge into the first member; redirect edges; kill the rest.
            let target = group[0];
            for &ci in &group[1..] {
                let members: Vec<Sym> = classes[ci].iter().copied().collect();
                classes[target].extend(members);
                alive[ci] = false;
                let preds: Vec<usize> = dag_pred[ci].iter().copied().collect();
                for p in preds {
                    dag_succ[p].remove(&ci);
                    dag_succ[p].insert(target);
                    dag_pred[target].insert(p);
                }
                let succs: Vec<usize> = dag_succ[ci].iter().copied().collect();
                for s in succs {
                    dag_pred[s].remove(&ci);
                    dag_pred[s].insert(target);
                    dag_succ[target].insert(s);
                }
                dag_pred[ci].clear();
                dag_succ[ci].clear();
            }
        }

        // Step 4: topological sort, deterministic by smallest symbol among
        // class members (= first corpus occurrence when the alphabet was
        // interned from the same word stream).
        let class_key =
            |ci: usize| -> Sym { classes[ci].iter().min().copied().expect("non-empty class") };
        let mut indeg: Vec<usize> = (0..classes.len()).map(|ci| dag_pred[ci].len()).collect();
        let mut ready: BTreeSet<(Sym, usize)> = (0..classes.len())
            .filter(|&ci| alive[ci] && indeg[ci] == 0)
            .map(|ci| (class_key(ci), ci))
            .collect();
        let mut order: Vec<usize> = Vec::new();
        while let Some(&(key, ci)) = ready.iter().next() {
            ready.remove(&(key, ci));
            order.push(ci);
            let succs: Vec<usize> = dag_succ[ci].iter().copied().collect();
            for s in succs {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.insert((class_key(s), s));
                }
            }
        }

        // Steps 5–13: qualifiers from per-word class occurrence counts.
        let factors: Vec<ChareFactor> = order
            .into_iter()
            .map(|ci| {
                let class = &classes[ci];
                let mut min_count = u32::MAX;
                let mut max_count = 0u32;
                for vector in self.count_vectors.keys() {
                    let total: u32 = vector
                        .iter()
                        .filter(|(s, _)| class.contains(s))
                        .map(|&(_, c)| c)
                        .sum();
                    min_count = min_count.min(total);
                    max_count = max_count.max(total);
                }
                let modifier = match (min_count, max_count) {
                    (1, 1) => ChareModifier::One,
                    (0, 1) => ChareModifier::Opt,
                    (1.., 2..) => ChareModifier::Plus,
                    _ => ChareModifier::Star,
                };
                // Alternatives in symbol order: stable, and faithful to
                // first corpus occurrence for stream-interned alphabets.
                let syms: Vec<Sym> = class.iter().copied().collect();
                ChareFactor { syms, modifier }
            })
            .collect();
        dtdinfer_obs::observe("core.crx.factors", factors.len() as u64);
        factors
    }

    /// Full CRX result including the degenerate cases.
    pub fn infer(&self) -> InferredModel {
        if self.num_words == 0 {
            return InferredModel::Empty;
        }
        let factors = self.infer_factors();
        if factors.is_empty() {
            return InferredModel::EpsilonOnly;
        }
        InferredModel::Regex(chare_to_regex(&factors))
    }
}

/// Runs CRX on a batch of words, yielding the CHARE factors.
pub fn crx_factors<'a, I>(words: I) -> Vec<ChareFactor>
where
    I: IntoIterator<Item = &'a Word>,
{
    let mut state = CrxState::new();
    for w in words {
        state.absorb(w);
    }
    state.infer_factors()
}

/// Example (the paper's Example 1):
///
/// ```
/// use dtdinfer_regex::alphabet::Alphabet;
/// use dtdinfer_regex::display::render;
///
/// let mut al = Alphabet::new();
/// let words: Vec<_> = ["abd", "bcdee", "cade"]
///     .iter()
///     .map(|w| al.word_from_chars(w))
///     .collect();
/// let chare = dtdinfer_core::crx::crx(&words).into_regex().unwrap();
/// assert_eq!(render(&chare, &al), "(a | b | c)+ d e*");
/// ```
/// Runs CRX on a batch of words (Algorithm 3): a CHARE `rW` with
/// `W ⊆ L(rW)` (Theorem 3).
pub fn crx<'a, I>(words: I) -> InferredModel
where
    I: IntoIterator<Item = &'a Word>,
{
    let mut state = CrxState::new();
    for w in words {
        state.absorb(w);
    }
    state.infer()
}

/// [`crx`] over a counted multiset of `(word, count)` entries: equal to
/// running CRX on each word repeated `count` times, at the cost of one
/// pass per *distinct* word.
pub fn crx_counted<'a, I>(words: I) -> InferredModel
where
    I: IntoIterator<Item = (&'a Word, u32)>,
{
    let mut state = CrxState::new();
    for (w, n) in words {
        state.absorb_counted(w, n);
    }
    state.infer()
}

/// Builds `r` as a [`Regex`] from CRX factors (re-exported convenience).
pub fn factors_to_regex(factors: &[ChareFactor]) -> Regex {
    chare_to_regex(factors)
}

/// Tarjan's strongly connected components; returns components as vertex
/// lists in reverse topological order of the condensation.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        edge: usize,
    }
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame { v: root, edge: 0 }];
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(frame) = call.last_mut() {
            let v = frame.v;
            if frame.edge < adj[v].len() {
                let w = adj[v][frame.edge];
                frame.edge += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push(Frame { v: w, edge: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    low[parent.v] = low[parent.v].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

/// In-place transitive reduction of a DAG given as successor sets.
fn transitive_reduction(succ: &mut [BTreeSet<usize>]) {
    let n = succ.len();
    // reach[u] = vertices reachable from u by paths of length ≥ 1.
    // Computed bottom-up in reverse topological order.
    let order = topo_order(succ);
    let mut reach: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for &u in order.iter().rev() {
        let mut r = BTreeSet::new();
        for &v in &succ[u] {
            r.insert(v);
            r.extend(reach[v].iter().copied());
        }
        reach[u] = r;
    }
    for row in succ.iter_mut() {
        let direct: Vec<usize> = row.iter().copied().collect();
        for &v in &direct {
            // (u,v) is transitive if another direct successor reaches v.
            // (Checking against the snapshot is sound: in a DAG, a removed
            // witness w is itself reached by a surviving one.)
            let redundant = direct.iter().any(|&w| w != v && reach[w].contains(&v));
            if redundant {
                row.remove(&v);
            }
        }
    }
}

fn topo_order(succ: &[BTreeSet<usize>]) -> Vec<usize> {
    let n = succ.len();
    let mut indeg = vec![0usize; n];
    for s in succ {
        for &v in s {
            indeg[v] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in &succ[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push(w);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "cycle in condensation DAG");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_regex::alphabet::Alphabet;
    use dtdinfer_regex::display::render;
    use dtdinfer_regex::normalize::equiv_commutative;
    use dtdinfer_regex::parser::parse;

    fn run(words: &[&str]) -> (InferredModel, Alphabet) {
        let mut al = Alphabet::new();
        let ws: Vec<Word> = words.iter().map(|w| al.word_from_chars(w)).collect();
        (crx(&ws), al)
    }

    /// Example 1 of §7: W = {abd, bcdee, cade} yields (a+b+c)+ d e*.
    #[test]
    fn paper_example1() {
        let (model, al) = run(&["abd", "bcdee", "cade"]);
        let r = model.into_regex().unwrap();
        let mut al2 = al.clone();
        let target = parse("(a | b | c)+ d e*", &mut al2).unwrap();
        assert!(equiv_commutative(&r, &target), "got {}", render(&r, &al));
    }

    /// Examples 2–4 of §7: W = {abccde, cccad, bfegg, bfehi} yields
    /// (a+b+c)+ (d+f) e? g* h? i?.
    #[test]
    fn paper_examples_2_to_4() {
        let (model, al) = run(&["abccde", "cccad", "bfegg", "bfehi"]);
        let r = model.into_regex().unwrap();
        let mut al2 = al.clone();
        let target = parse("(a | b | c)+ (d | f) e? g* h? i?", &mut al2).unwrap();
        assert!(equiv_commutative(&r, &target), "got {}", render(&r, &al));
    }

    /// The non-linear-order caveat after Theorem 5: W = {abc, ade, abe}
    /// yields the all-optional chain rather than a(b+d)(c+e).
    #[test]
    fn theorem5_nonlinear_caveat() {
        let (model, al) = run(&["abc", "ade", "abe"]);
        let r = model.as_regex().unwrap().clone();
        // a exactly once, everything else optional singletons (order may
        // put d before or after c; both are topological sorts).
        let rendered = render(&r, &al);
        assert!(rendered.starts_with('a'));
        for w in ["abc", "ade", "abe"] {
            let mut al2 = al.clone();
            assert!(model.matches(&al2.word_from_chars(w)), "{w}");
        }
        assert_eq!(r.symbols().len(), 5);
        assert_eq!(r.symbol_count(), 5, "CHARE is single occurrence");
    }

    /// Theorem 3 on arbitrary samples: W ⊆ L(rW) and the result is a CHARE.
    #[test]
    fn theorem3_battery() {
        let samples: &[&[&str]] = &[
            &["ab", "ba"],
            &["abc", "cab", "bca"],
            &["a", "aa", "aaa"],
            &["xyz"],
            &["ab", "cd", "abcd"],
            &["abcabc"],
            &["a", ""],
            &["ab", "b", "aab"],
        ];
        for words in samples {
            let mut al = Alphabet::new();
            let ws: Vec<Word> = words.iter().map(|w| al.word_from_chars(w)).collect();
            let model = crx(&ws);
            for w in &ws {
                assert!(model.matches(w), "{words:?} lost {w:?}");
            }
            if let Some(r) = model.as_regex() {
                assert!(
                    dtdinfer_regex::classify::is_chare(r),
                    "{words:?} gave non-CHARE {}",
                    render(r, &al)
                );
            }
        }
    }

    /// §7's generalization claim: (a+…+e)* learned from the O(n) cyclic
    /// 2-gram sample {a1a2, a2a3, …, an a1} (plus ε for the star).
    #[test]
    fn linear_sample_learns_repeated_disjunction() {
        let mut al = Alphabet::new();
        let names = ["a", "b", "c", "d", "e"];
        let mut words: Vec<Word> = Vec::new();
        for i in 0..names.len() {
            let j = (i + 1) % names.len();
            words.push(al.word_from_chars(&format!("{}{}", names[i], names[j])));
        }
        words.push(Vec::new()); // ε → star, not plus
        let r = crx(&words).into_regex().unwrap();
        let target = parse("(a | b | c | d | e)*", &mut al).unwrap();
        assert!(equiv_commutative(&r, &target), "got {}", render(&r, &al));
    }

    #[test]
    fn degenerate_inputs() {
        let (model, _) = run(&[]);
        assert_eq!(model, InferredModel::Empty);
        let mut al = Alphabet::new();
        let ws: Vec<Word> = vec![vec![], vec![]];
        assert_eq!(crx(&ws), InferredModel::EpsilonOnly);
        let _ = al.intern("x");
    }

    #[test]
    fn exactly_once_class() {
        let (model, al) = run(&["ab", "ab"]);
        let r = model.into_regex().unwrap();
        assert_eq!(render(&r, &al), "a b");
    }

    #[test]
    fn incremental_equals_batch() {
        let words = ["abccde", "cccad", "bfegg", "bfehi"];
        let mut al = Alphabet::new();
        let ws: Vec<Word> = words.iter().map(|w| al.word_from_chars(w)).collect();
        let batch = crx(&ws);
        let mut state = CrxState::new();
        for w in &ws {
            state.absorb(w);
        }
        assert_eq!(state.infer(), batch);
        assert_eq!(state.num_words(), 4);
    }

    #[test]
    fn state_is_word_order_invariant() {
        let words = ["abd", "bcdee", "cade", "", "abd"];
        let mut al = Alphabet::new();
        let ws: Vec<Word> = words.iter().map(|w| al.word_from_chars(w)).collect();
        let mut forward = CrxState::new();
        ws.iter().for_each(|w| forward.absorb(w));
        let mut backward = CrxState::new();
        ws.iter().rev().for_each(|w| backward.absorb(w));
        assert_eq!(forward, backward);
        assert_eq!(forward.infer(), backward.infer());
    }

    #[test]
    fn count_vectors_deduplicate() {
        let mut al = Alphabet::new();
        let ws: Vec<Word> = (0..1000).map(|_| al.word_from_chars("ab")).collect();
        let mut state = CrxState::new();
        for w in &ws {
            state.absorb(w);
        }
        assert_eq!(state.count_vectors.len(), 1);
        assert_eq!(state.num_words(), 1000);
    }

    /// Disjunction factors must not repeat symbols ("some care has to be
    /// taken to generate factors which are disjunctions without
    /// repetitions").
    #[test]
    fn factors_are_duplicate_free() {
        let (model, _) = run(&["abab", "ba"]);
        let r = model.into_regex().unwrap();
        assert_eq!(r.symbols().len(), r.symbol_count());
    }

    #[test]
    fn qualifier_star_when_absent_and_repeated() {
        let (model, al) = run(&["aab", "b"]);
        let r = model.into_regex().unwrap();
        assert_eq!(render(&r, &al), "a* b");
    }

    #[test]
    fn qualifier_plus_when_present_and_repeated() {
        let (model, al) = run(&["aab", "ab"]);
        let r = model.into_regex().unwrap();
        assert_eq!(render(&r, &al), "a+ b");
    }
}
