//! The k-ORE engine: k-occurrence automata and deterministic k-occurrence
//! regular expressions.
//!
//! The paper's SOREs (§3) cannot express content models where a symbol
//! repeats — `a b a` has no single-occurrence expression. The direct
//! successor paper (Bex, Gelade, Neven, Vansummeren, "Learning Deterministic
//! Regular Expressions for the Inference of Schemas from XML Data") lifts
//! the whole pipeline to *k-occurrence* expressions: mark the i-th
//! occurrence of each symbol in every sample word (`a#1`, `a#2`, …), learn
//! an ordinary SOA over the marked alphabet, rewrite it with the unchanged
//! §5/§6 machinery, then erase the marks. The result is a k-ORE: an
//! expression in which each alphabet symbol occurs at most `k` times.
//!
//! Two facts make the incremental/sharded integration exact:
//!
//! * **Marking commutes with 2T-INF.** The marked SOA is a pure function of
//!   the word multiset (in fact of the word *set*), so absorbing words one
//!   at a time and learning from a merged or persisted [`WordBag`] land on
//!   the same automaton.
//! * **Capping commutes with 2T-INF.** Folding marks down from [`MAX_K`] to
//!   any smaller `k` (occurrence `min(m, k)`) is an alphabet homomorphism,
//!   and 2T-INF commutes with alphabet homomorphisms, so the folded SOA
//!   equals the SOA learned from the k-capped marked words directly. One
//!   stored automaton therefore serves every `k ≤ MAX_K`.
//!
//! [`KoreState::derive`] tries `k` from the largest observed repeat count
//! downward; each candidate is rewritten by iDTD over the marked alphabet,
//! unmarked, and kept only if the unmarked expression is one-unambiguous
//! (deterministic per the XML spec). `k = 1` is the plain SORE, which is
//! deterministic by definition (§3), so the loop always terminates.
//!
//! The module also hosts the MDL-style model chooser used by
//! `--engine auto`: two-part code length (model bits + data bits under a
//! Glushkov-walk code) computed with integer arithmetic only, so the choice
//! is byte-identical across shard counts and document permutations.

use crate::idtd::{idtd_traced, Event, IdtdConfig};
use crate::model::InferredModel;
use dtdinfer_automata::nfa::Nfa;
use dtdinfer_automata::soa::Soa;
use dtdinfer_regex::alphabet::{Sym, Word};
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::determinism::check_deterministic;
use dtdinfer_regex::multiset::WordBag;
use dtdinfer_regex::normalize::simplify;
use std::collections::BTreeSet;

/// Largest occurrence index the learner distinguishes. Occurrences beyond
/// the cap collapse onto mark `MAX_K`, which bounds the marked alphabet at
/// `MAX_K·|Σ|` and keeps the automaton size linear in the alphabet.
pub const MAX_K: usize = 4;

/// Encodes `(symbol, occurrence)` as a marked symbol. `occ` is 1-based and
/// must be in `1..=MAX_K`. The encoding is injective and order-preserving
/// (marked symbols sort by `(symbol, occurrence)`), so canonical-alphabet
/// remaps lift to injective remaps of the marked alphabet.
fn mark(s: Sym, occ: usize) -> Sym {
    debug_assert!((1..=MAX_K).contains(&occ));
    Sym(s.0 * MAX_K as u32 + (occ as u32 - 1))
}

/// Inverse of [`mark`].
fn unmark_sym(m: Sym) -> (Sym, usize) {
    (Sym(m.0 / MAX_K as u32), (m.0 % MAX_K as u32) as usize + 1)
}

/// Marks words over Σ into their form over Σ×{1..MAX_K}: the i-th
/// occurrence of `s` becomes `mark(s, min(i, MAX_K))`. Holds its scratch
/// (occurrence counts indexed by symbol, and the marked word) across
/// words, so marking a whole bag allocates only as the alphabet grows.
#[derive(Default)]
struct Marker {
    seen: Vec<usize>,
    marked: Word,
}

impl Marker {
    fn mark(&mut self, w: &Word) -> &Word {
        self.marked.clear();
        for &s in w {
            if s.index() >= self.seen.len() {
                self.seen.resize(s.index() + 1, 0);
            }
            let n = &mut self.seen[s.index()];
            *n = (*n + 1).min(MAX_K);
            self.marked.push(mark(s, *n));
        }
        for &s in w {
            self.seen[s.index()] = 0;
        }
        &self.marked
    }
}

/// Erases marks from a regex learned over the marked alphabet, rebuilding
/// through the smart constructors so structural invariants (flattening,
/// no 1-ary nodes) hold on the result.
fn unmark_regex(r: &Regex) -> Regex {
    match r {
        Regex::Symbol(m) => Regex::Symbol(unmark_sym(*m).0),
        Regex::Concat(v) => Regex::concat(v.iter().map(unmark_regex).collect()),
        Regex::Union(v) => Regex::union(v.iter().map(unmark_regex).collect()),
        Regex::Optional(b) => Regex::optional(unmark_regex(b)),
        Regex::Plus(b) => Regex::plus(unmark_regex(b)),
        Regex::Star(b) => Regex::star(unmark_regex(b)),
    }
}

/// The k-ORE's `k = 1` candidate, given the element's SORE (iDTD over
/// the unmarked words). The fold to `k = 1` relabels each `s` as
/// `mark(s, 1)`, which keeps symbol order, so iDTD takes the same steps
/// on it and erasing the marks gives back the SORE. The k-ORE then
/// simplifies once more, and [`simplify`] is not idempotent: a second
/// pass can strip a `?` off an alternative of a starred union that the
/// first pass built, so the candidate is not always the SORE itself.
fn at_k1(sore: &InferredModel) -> InferredModel {
    match sore {
        InferredModel::Regex(r) => InferredModel::Regex(simplify(r)),
        degenerate => degenerate.clone(),
    }
}

/// Streaming state of the k-ORE learner: the 2T-INF automaton over the
/// [`MAX_K`]-marked alphabet plus a word count.
///
/// Every component is a set union or a sum, so the state is invariant under
/// permutation of the absorbed words: it is a pure function of the absorbed
/// word multiset, so a state learned from a [`WordBag`] is byte-identical
/// to one that was grown incrementally. The sharded engine relies on this:
/// it keeps only the bag and learns the state when it derives a schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KoreState {
    /// 2T-INF automaton over marked symbols.
    marked: Soa,
    /// Total number of words absorbed.
    num_words: u64,
}

/// The result of a k-ORE derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KoreOutcome {
    /// The deterministic k-ORE (or a degenerate model).
    pub model: InferredModel,
    /// The iDTD derivation trace at the accepted `k`.
    pub events: Vec<Event>,
    /// The occurrence bound the derivation settled on (`1` = plain SORE).
    pub k: usize,
}

impl KoreState {
    /// An empty state (no words seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word into the state.
    pub fn absorb(&mut self, w: &Word) {
        self.absorb_counted(w, 1);
    }

    /// Folds `n` occurrences of one word into the state. The marked SOA is
    /// count-invariant (set unions), so the word is marked and absorbed
    /// once; only the word total advances by `n`.
    pub fn absorb_counted(&mut self, w: &Word, n: u32) {
        self.absorb_marked(w, n, &mut Marker::default());
    }

    fn absorb_marked(&mut self, w: &Word, n: u32, marker: &mut Marker) {
        if n == 0 {
            return;
        }
        self.num_words += u64::from(n);
        self.marked.absorb(marker.mark(w));
    }

    /// Learns a state from a counted word multiset — the batch counterpart
    /// of incremental absorption, guaranteed to produce the same state.
    pub fn learn_counted(bag: &WordBag) -> Self {
        let mut state = Self::new();
        let mut marker = Marker::default();
        for (w, n) in bag.iter() {
            state.absorb_marked(w, n, &mut marker);
        }
        state
    }

    /// Number of words absorbed so far.
    pub fn num_words(&self) -> u64 {
        self.num_words
    }

    /// Whether no word at all has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.num_words == 0
    }

    /// The largest occurrence index present in the marked automaton — the
    /// starting `k` for the derivation loop. `0` when no symbol was seen.
    pub fn k_max(&self) -> usize {
        self.marked
            .states
            .iter()
            .map(|&m| unmark_sym(m).1)
            .max()
            .unwrap_or(0)
    }

    /// The marked SOA folded down to occurrence bound `k`: occurrence
    /// indices above `k` collapse onto `k`. Because capping is an alphabet
    /// homomorphism and 2T-INF commutes with homomorphisms, this equals the
    /// SOA learned from the k-capped marked words directly.
    pub fn fold(&self, k: usize) -> Soa {
        assert!(k >= 1, "occurrence bound must be at least 1");
        let cap = |m: Sym| {
            let (s, occ) = unmark_sym(m);
            mark(s, occ.min(k))
        };
        Soa::from_parts(
            self.marked.initial.iter().map(|&m| cap(m)),
            self.marked.finals.iter().map(|&m| cap(m)),
            self.marked.edges.iter().map(|&(a, b)| (cap(a), cap(b))),
            self.marked.accepts_empty,
        )
    }

    /// The automaton over unmarked symbols: the marked one with its marks
    /// erased, which equals 2T-INF over the words themselves (erasing is
    /// an alphabet homomorphism, like the folds).
    fn unmarked(&self) -> Soa {
        let erase = |m: Sym| unmark_sym(m).0;
        Soa::from_parts(
            self.marked.initial.iter().map(|&m| erase(m)),
            self.marked.finals.iter().map(|&m| erase(m)),
            self.marked.edges.iter().map(|&(a, b)| (erase(a), erase(b))),
            self.marked.accepts_empty,
        )
    }

    /// Derives a deterministic k-ORE: the candidate of
    /// [`derive_repeated`](Self::derive_repeated) when there is one, else
    /// the `k = 1` candidate — [`at_k1`] of the SORE that iDTD derives
    /// over the [unmarked](Self::unmarked) automaton, deterministic by
    /// definition (§3).
    ///
    /// The soundness chain `L(sample) ⊆ L(k-ORE)` holds at every `k`: the
    /// marked SOA over-approximates the marked sample (Theorem 2 over the
    /// marked alphabet) and mark erasure is a homomorphism, which can only
    /// grow the language.
    pub fn derive(&self) -> KoreOutcome {
        self.derive_repeated().unwrap_or_else(|| {
            if self.marked.num_states() == 0 {
                let model = if self.marked.accepts_empty {
                    InferredModel::EpsilonOnly
                } else {
                    InferredModel::Empty
                };
                return KoreOutcome {
                    model,
                    events: Vec::new(),
                    k: 1,
                };
            }
            let (sore, events) = idtd_traced(&self.unmarked(), IdtdConfig::default());
            KoreOutcome {
                model: at_k1(&sore),
                events,
                k: 1,
            }
        })
    }

    /// The repeated-symbol half of [`derive`](Self::derive): for `k` from
    /// [`k_max`](Self::k_max) down to 2, fold the marked automaton to `k`,
    /// run iDTD over the marked alphabet, erase the marks, and return the
    /// first candidate whose unmarked expression is one-unambiguous.
    /// `None` when no fold is (or no symbol was seen): the k-ORE is then
    /// the `k = 1` candidate, which [`at_k1`] reads off the element's
    /// SORE, so `--engine auto` does not derive it twice.
    pub fn derive_repeated(&self) -> Option<KoreOutcome> {
        let _span = dtdinfer_obs::span("core.kore");
        dtdinfer_obs::count("core.kore.runs", 1);
        if self.marked.num_states() == 0 {
            return None;
        }
        for k in (2..=self.k_max()).rev() {
            let (model, events) = idtd_traced(&self.fold(k), IdtdConfig::default());
            let Some(r) = model.as_regex() else {
                // Degenerate models can only arise from empty automata,
                // handled above; keep the fallback total regardless.
                return Some(KoreOutcome { model, events, k });
            };
            let candidate = simplify(&unmark_regex(r));
            if check_deterministic(&candidate).is_ok() {
                dtdinfer_obs::observe("core.kore.k", k as u64);
                return Some(KoreOutcome {
                    model: InferredModel::Regex(candidate),
                    events,
                    k,
                });
            }
        }
        dtdinfer_obs::observe("core.kore.k", 1);
        None
    }
}

/// `⌈log2(n)⌉` — the number of bits to pick one of `n` options. `0` when
/// there is at most one option.
fn ceil_log2(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        u64::from(64 - (n - 1).leading_zeros())
    }
}

/// Sentinel cost of a model that cannot encode the sample at all. The
/// chooser never sees it for iDTD/k-ORE/CRX outputs (all are supersets of
/// their sample by construction); it exists so the cost function is total.
pub const INFEASIBLE: u64 = u64::MAX;

/// Bits to encode one word as a walk through the Glushkov automaton of
/// `nfa`: at each step, `⌈log2⌉` of the number of locally available choices
/// (distinct continuation symbols, plus the option to stop when the walk
/// may end here). `None` when the automaton rejects the word.
///
/// This is the set walk: it tracks every position the word may be at.
/// [`WalkCode`] computes the same integers from a table and calls back
/// here for the words it cannot follow.
fn word_bits(nfa: &Nfa, w: &Word) -> Option<u64> {
    let mut bits = 0u64;
    let mut active: Vec<usize> = Vec::new();
    let mut at_start = true;
    for step in 0..=w.len() {
        let (succ, can_stop) = if at_start {
            (nfa.first.clone(), nfa.accepts_empty)
        } else {
            let mut set = BTreeSet::new();
            for &p in &active {
                set.extend(nfa.follow[p].iter().copied());
            }
            let stop = active.iter().any(|&p| nfa.last[p]);
            (set.into_iter().collect::<Vec<_>>(), stop)
        };
        let continuations: BTreeSet<Sym> = succ.iter().map(|&q| nfa.sym_at[q]).collect();
        let options = continuations.len() as u64 + u64::from(can_stop);
        if step == w.len() {
            if !can_stop {
                return None;
            }
            bits = bits.saturating_add(ceil_log2(options));
            break;
        }
        bits = bits.saturating_add(ceil_log2(options));
        let c = w[step];
        active = succ.into_iter().filter(|&q| nfa.sym_at[q] == c).collect();
        if active.is_empty() {
            return None;
        }
        at_start = false;
    }
    Some(bits)
}

/// Marks a symbol two positions of one state continue with: the table
/// cannot follow it, so the word is walked by [`word_bits`].
const AMBIGUOUS: usize = usize::MAX;

/// The Glushkov-walk code of one model as a table, built once per model.
/// Each state — the start, then position `p` as state `p + 1` — has its
/// `⌈log2⌉` option count (distinct continuation symbols, plus stopping
/// where the walk may stop) and its moves. A walk through a SORE, a
/// CHARE or a deterministic k-ORE is at a single position after every
/// step, so a word costs one lookup per symbol. A step that could
/// continue at two positions of one symbol falls back to [`word_bits`]
/// for that word; the integers are the same either way.
struct WalkCode<'a> {
    nfa: &'a Nfa,
    /// Per state: the bits one step from it costs.
    bits: Vec<u64>,
    /// Per state: whether the walk may stop there.
    stop: Vec<bool>,
    /// Per state: where its moves start in `moves`, plus one closing entry.
    offsets: Vec<usize>,
    /// Each state's moves, sorted by symbol: the state the symbol leads
    /// to, or [`AMBIGUOUS`].
    moves: Vec<(Sym, usize)>,
}

impl<'a> WalkCode<'a> {
    fn new(nfa: &'a Nfa) -> Self {
        let mut code = WalkCode {
            nfa,
            bits: Vec::with_capacity(nfa.len() + 1),
            stop: Vec::with_capacity(nfa.len() + 1),
            offsets: Vec::with_capacity(nfa.len() + 2),
            moves: Vec::new(),
        };
        code.offsets.push(0);
        let states = std::iter::once((&nfa.first, nfa.accepts_empty))
            .chain(nfa.follow.iter().zip(nfa.last.iter().copied()));
        let mut sorted: Vec<(Sym, usize)> = Vec::new();
        for (succ, stop) in states {
            sorted.clear();
            sorted.extend(succ.iter().map(|&q| (nfa.sym_at[q], q + 1)));
            sorted.sort_unstable();
            let start = code.moves.len();
            for &(sym, to) in &sorted {
                match code.moves[start..].last_mut() {
                    Some(last) if last.0 == sym => {
                        if last.1 != to {
                            last.1 = AMBIGUOUS;
                        }
                    }
                    _ => code.moves.push((sym, to)),
                }
            }
            let symbols = (code.moves.len() - start) as u64;
            code.bits.push(ceil_log2(symbols + u64::from(stop)));
            code.stop.push(stop);
            code.offsets.push(code.moves.len());
        }
        code
    }

    /// [`word_bits`] from the table.
    fn word_bits(&self, w: &Word) -> Option<u64> {
        let mut state = 0;
        let mut bits = 0u64;
        for &c in w {
            bits = bits.saturating_add(self.bits[state]);
            let moves = &self.moves[self.offsets[state]..self.offsets[state + 1]];
            let i = moves.binary_search_by_key(&c, |&(s, _)| s).ok()?;
            state = moves[i].1;
            if state == AMBIGUOUS {
                return word_bits(self.nfa, w);
            }
        }
        self.stop[state].then(|| bits.saturating_add(self.bits[state]))
    }
}

/// Two-part MDL cost of `model` against the counted sample `words`:
/// model bits (`token_count` symbols/operators, each at `⌈log2⌉` of the
/// alphabet size plus the four operator kinds) plus data bits (the
/// Glushkov-walk code of every word, weighted by its count, read from
/// the model's [`WalkCode`]). All integer and saturating, so the
/// comparison is exact and platform-independent.
pub fn mdl_cost(model: &InferredModel, alphabet_len: usize, words: &WordBag) -> u64 {
    match model {
        InferredModel::Empty => {
            if words.is_empty() {
                1
            } else {
                INFEASIBLE
            }
        }
        InferredModel::EpsilonOnly => {
            if words.words().all(|w| w.is_empty()) {
                1
            } else {
                INFEASIBLE
            }
        }
        InferredModel::Regex(r) => {
            let alphabet_and_ops = alphabet_len as u64 + 4;
            let model_bits = (r.token_count() as u64).saturating_mul(ceil_log2(alphabet_and_ops));
            let nfa = Nfa::from_regex(r);
            let code = WalkCode::new(&nfa);
            let mut data_bits = 0u64;
            for (w, n) in words.iter() {
                match code.word_bits(w) {
                    Some(b) => data_bits = data_bits.saturating_add(b.saturating_mul(u64::from(n))),
                    None => return INFEASIBLE,
                }
            }
            model_bits.saturating_add(data_bits)
        }
    }
}

/// The outcome of the `--engine auto` model chooser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoPick {
    /// Which candidate won: `"auto-sore"`, `"auto-kore"`, or
    /// `"auto-chare"`.
    pub engine: &'static str,
    /// The winning model.
    pub model: InferredModel,
    /// Derivation trace of the winner (empty for CHARE).
    pub events: Vec<Event>,
    /// Occurrence bound of the winner (`1` for SORE/CHARE).
    pub k: usize,
}

/// Picks among the three per-element candidates by MDL cost. Ties break in
/// the fixed order SORE < k-ORE < CHARE (prefer the paper's primary model),
/// so the choice is deterministic — a requirement for the byte-identity
/// guarantees of the sharded engine.
///
/// `kore` is [`KoreState::derive_repeated`]'s candidate. `None` means the
/// k-ORE is the `k = 1` candidate, read off the SORE by [`at_k1`]: nearly
/// always the SORE itself, which is not costed twice and whose equal cost
/// loses the tie to SORE.
pub fn pick_auto(
    sore: (InferredModel, Vec<Event>),
    kore: Option<KoreOutcome>,
    chare: InferredModel,
    alphabet_len: usize,
    words: &WordBag,
) -> AutoPick {
    let kore = kore.or_else(|| {
        let model = at_k1(&sore.0);
        (model != sore.0).then(|| KoreOutcome {
            model,
            events: sore.1.clone(),
            k: 1,
        })
    });
    let sore_cost = mdl_cost(&sore.0, alphabet_len, words);
    let kore_cost = kore
        .as_ref()
        .map_or(sore_cost, |kore| mdl_cost(&kore.model, alphabet_len, words));
    let chare_cost = mdl_cost(&chare, alphabet_len, words);
    if sore_cost <= kore_cost && sore_cost <= chare_cost {
        AutoPick {
            engine: "auto-sore",
            model: sore.0,
            events: sore.1,
            k: 1,
        }
    } else if let Some(kore) = kore.filter(|_| kore_cost <= chare_cost) {
        AutoPick {
            engine: "auto-kore",
            model: kore.model,
            events: kore.events,
            k: kore.k,
        }
    } else {
        AutoPick {
            engine: "auto-chare",
            model: chare,
            events: Vec::new(),
            k: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_regex::alphabet::Alphabet;
    use dtdinfer_regex::display::render;
    use proptest::prelude::*;

    fn bag(al: &mut Alphabet, words: &[&str]) -> WordBag {
        words.iter().map(|w| al.word_from_chars(w)).collect()
    }

    fn derive_str(al: &mut Alphabet, words: &[&str]) -> (String, usize) {
        let state = KoreState::learn_counted(&bag(al, words));
        let out = state.derive();
        (out.model.render(al), out.k)
    }

    #[test]
    fn repeated_symbol_yields_k2_ore() {
        let mut al = Alphabet::new();
        let (r, k) = derive_str(&mut al, &["aba"]);
        assert_eq!(r, "a b a");
        assert_eq!(k, 2);
    }

    #[test]
    fn optional_second_occurrence() {
        let mut al = Alphabet::new();
        let (r, k) = derive_str(&mut al, &["aba", "ab"]);
        assert_eq!(r, "a b a?");
        assert_eq!(k, 2);
    }

    #[test]
    fn sore_language_stays_k1() {
        let mut al = Alphabet::new();
        let (_, k) = derive_str(&mut al, &["abc", "ac"]);
        assert_eq!(k, 1);
    }

    #[test]
    fn degenerate_models() {
        let empty = KoreState::new();
        assert_eq!(empty.derive().model, InferredModel::Empty);
        let mut eps = KoreState::new();
        eps.absorb(&Vec::new());
        assert_eq!(eps.derive().model, InferredModel::EpsilonOnly);
    }

    #[test]
    fn occurrences_beyond_max_k_collapse() {
        let mut al = Alphabet::new();
        let state = KoreState::learn_counted(&bag(&mut al, &["aaaaaaa"]));
        assert_eq!(state.k_max(), MAX_K);
        let out = state.derive();
        let r = out.model.as_regex().expect("regex");
        assert!(check_deterministic(r).is_ok());
        // The derived model must still accept the sample word.
        assert!(out.model.matches(&al.word_from_chars("aaaaaaa")));
    }

    #[test]
    fn derivation_is_sound_on_sample() {
        let mut al = Alphabet::new();
        let words = ["aba", "ab", "ba", "abab", "b"];
        let state = KoreState::learn_counted(&bag(&mut al, &words));
        let out = state.derive();
        for w in words {
            assert!(
                out.model.matches(&al.word_from_chars(w)),
                "k-ORE must accept sample word {w:?}"
            );
        }
        if let Some(r) = out.model.as_regex() {
            assert!(
                check_deterministic(r).is_ok(),
                "k-ORE must be deterministic"
            );
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 40), 40);
    }

    #[test]
    fn mdl_prefers_tight_model_on_repetitive_sample() {
        let mut al = Alphabet::new();
        // Many copies of `aba`: the k-ORE `a b a` costs far fewer data bits
        // than the SORE repair (which must generalize to a loop).
        let mut words = WordBag::new();
        words.insert_n(al.word_from_chars("aba"), 50);
        let kore = KoreState::learn_counted(&words).derive();
        let sore = crate::idtd::idtd_traced(&Soa::learn(words.words()), IdtdConfig::default());
        let kore_cost = mdl_cost(&kore.model, al.len(), &words);
        let sore_cost = mdl_cost(&sore.0, al.len(), &words);
        assert!(
            kore_cost < sore_cost,
            "k-ORE ({kore_cost}) should beat SORE ({sore_cost}) on {}",
            render(kore.model.as_regex().unwrap(), &al)
        );
        let pick = pick_auto(sore, Some(kore), InferredModel::Empty, al.len(), &words);
        assert_eq!(pick.engine, "auto-kore");
        assert_eq!(pick.k, 2);
    }

    #[test]
    fn auto_breaks_ties_toward_sore() {
        let mut al = Alphabet::new();
        let words = bag(&mut al, &["ab", "a"]);
        let sore = crate::idtd::idtd_traced(&Soa::learn(words.words()), IdtdConfig::default());
        let state = KoreState::learn_counted(&words);
        // SORE language ⇒ the k-ORE settles at k = 1 with the same model,
        // the costs tie, and the tie breaks to SORE — whether the k-ORE is
        // passed in or left as the SORE itself.
        assert_eq!(state.derive_repeated(), None);
        let kore = state.derive();
        assert_eq!((&kore.model, kore.k), (&sore.0, 1));
        let pick = pick_auto(
            sore.clone(),
            Some(kore),
            InferredModel::Empty,
            al.len(),
            &words,
        );
        assert_eq!(pick.engine, "auto-sore");
        let pick = pick_auto(sore, None, InferredModel::Empty, al.len(), &words);
        assert_eq!(pick.engine, "auto-sore");
    }

    #[test]
    fn auto_without_a_repeated_candidate_still_picks_chare() {
        let mut al = Alphabet::new();
        let words = bag(&mut al, &["ab", "ba"]);
        let sore = crate::idtd::idtd_traced(&Soa::learn(words.words()), IdtdConfig::default());
        let chare = crate::crx::crx_counted(words.iter());
        let sore_cost = mdl_cost(&sore.0, al.len(), &words);
        let chare_cost = mdl_cost(&chare, al.len(), &words);
        let pick = pick_auto(sore, None, chare, al.len(), &words);
        let expected = if sore_cost <= chare_cost {
            "auto-sore"
        } else {
            "auto-chare"
        };
        assert_eq!(pick.engine, expected);
    }

    /// A second `simplify` pass can strip an operator off the SORE, so the
    /// `k = 1` candidate is not always the SORE: `{caba, b, a}` learns
    /// `(a | b | c?)*`, whose `k = 1` candidate is one token shorter and
    /// wins the pick as a `k = 1` k-ORE.
    #[test]
    fn k1_candidate_can_be_shorter_than_the_sore() {
        let mut al = Alphabet::new();
        for name in ["a", "b", "c"] {
            al.intern(name);
        }
        let words = bag(&mut al, &["caba", "b", "a"]);
        let sore = idtd_traced(&Soa::learn(words.words()), IdtdConfig::default());
        let state = KoreState::learn_counted(&words);
        assert_eq!(state.derive_repeated(), None);
        assert_eq!(sore.0.render(&al), "(a | b | c?)*");
        assert_eq!(state.derive().model.render(&al), "(a | b | c)*");
        let pick = pick_auto(sore, None, InferredModel::Empty, al.len(), &words);
        assert_eq!((pick.engine, pick.k), ("auto-kore", 1));
        assert_eq!(pick.model.render(&al), "(a | b | c)*");
    }

    /// The walks the table cannot follow: two positions of one symbol.
    #[test]
    fn walk_code_falls_back_on_non_deterministic_steps() {
        let mut al = Alphabet::new();
        for (src, words) in [
            ("(a b) | (a c)", ["ab", "ac", "a", "abc"]),
            ("(a | b)* a", ["a", "ba", "aba", "b"]),
        ] {
            let r = dtdinfer_regex::parser::parse(src, &mut al).unwrap();
            let nfa = Nfa::from_regex(&r);
            let code = WalkCode::new(&nfa);
            assert!(code.moves.iter().any(|&(_, to)| to == AMBIGUOUS), "{src}");
            for w in words {
                let w = al.word_from_chars(w);
                assert_eq!(code.word_bits(&w), word_bits(&nfa, &w), "{src} on {w:?}");
            }
        }
    }

    /// An expression over symbols `0..n_syms`, with repeated symbols, so
    /// non-deterministic shapes such as `(a b) | (a c)` come up.
    fn arb_regex(n_syms: u32) -> impl Strategy<Value = Regex> {
        let leaf = (0..n_syms).prop_map(|i| Regex::sym(Sym(i)));
        leaf.prop_recursive(4, 20, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
                prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::union),
                inner.clone().prop_map(Regex::optional),
                inner.clone().prop_map(Regex::plus),
                inner.prop_map(Regex::star),
            ]
        })
    }

    /// `KoreState::derive` as it was before it stopped at `k = 2`: the
    /// `k = 1` candidate is the fold to `k = 1`, rewritten over marked
    /// symbols and unmarked.
    fn derive_through_fold_one(state: &KoreState) -> KoreOutcome {
        if let Some(outcome) = state.derive_repeated() {
            return outcome;
        }
        let (model, events) = idtd_traced(&state.fold(1), IdtdConfig::default());
        let model = match model {
            InferredModel::Regex(r) => InferredModel::Regex(simplify(&unmark_regex(&r))),
            degenerate => degenerate,
        };
        KoreOutcome {
            model,
            events,
            k: 1,
        }
    }

    /// Rewrite steps, repairs and fallbacks in a derivation.
    fn event_counts(events: &[Event]) -> [usize; 3] {
        let mut counts = [0; 3];
        for e in events {
            counts[match e {
                Event::Rewrite(_) => 0,
                Event::Repair { .. } => 1,
                Event::Fallback => 2,
            }] += 1;
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table walk equals the set walk on random expressions and on
        /// random words, accepted (sampled from the expression) and
        /// rejected (symbol 3 never occurs in the expression).
        #[test]
        fn walk_code_equals_set_walk(
            r in arb_regex(3),
            random in prop::collection::vec(prop::collection::vec((0..4u32).prop_map(Sym), 0..8), 0..12),
            seed in 0u64..1_000_000,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sampled = dtdinfer_regex::sample::sample_words(
                &r,
                &dtdinfer_regex::sample::SampleConfig::default(),
                &mut rng,
                12,
            );
            let nfa = Nfa::from_regex(&r);
            let code = WalkCode::new(&nfa);
            for w in sampled.iter().chain(&random) {
                prop_assert_eq!(code.word_bits(w), word_bits(&nfa, w), "{:?} on {:?}", r, w);
            }
            for w in &sampled {
                prop_assert!(code.word_bits(w).is_some(), "{:?} must accept {:?}", r, w);
            }
        }

        /// `derive` equals the fold-to-`k = 1` derivation it replaced, and
        /// whenever it settles at `k = 1` its model is [`at_k1`] of iDTD's
        /// over 2T-INF of the same words, with the same rewrite, repair and
        /// fallback counts. At `k ≥ 2` nothing changed.
        #[test]
        fn kore_at_k1_is_the_sore(
            words in prop::collection::vec(
                (prop::collection::vec((0..4u32).prop_map(Sym), 0..7), 1..4u32),
                1..10,
            ),
        ) {
            let mut bag = WordBag::new();
            for (w, n) in words {
                bag.insert_n(w, n);
            }
            let state = KoreState::learn_counted(&bag);
            let outcome = state.derive();
            let before = derive_through_fold_one(&state);
            prop_assert_eq!(&outcome.model, &before.model);
            prop_assert_eq!(outcome.k, before.k);
            prop_assert_eq!(event_counts(&outcome.events), event_counts(&before.events));
            if outcome.k == 1 {
                prop_assert_eq!(state.derive_repeated(), None);
                let (sore, events) = idtd_traced(&Soa::learn(bag.words()), IdtdConfig::default());
                prop_assert_eq!(&outcome.model, &at_k1(&sore));
                prop_assert_eq!(event_counts(&outcome.events), event_counts(&events));
            } else {
                prop_assert_eq!(&outcome.events, &before.events);
            }
        }
    }

    #[test]
    fn infeasible_costs() {
        let mut al = Alphabet::new();
        let words = bag(&mut al, &["a"]);
        assert_eq!(
            mdl_cost(&InferredModel::Empty, al.len(), &words),
            INFEASIBLE
        );
        assert_eq!(
            mdl_cost(&InferredModel::EpsilonOnly, al.len(), &words),
            INFEASIBLE
        );
        let b = al.intern("b");
        let model = InferredModel::Regex(Regex::Symbol(b));
        assert_eq!(mdl_cost(&model, al.len(), &words), INFEASIBLE);
    }
}
