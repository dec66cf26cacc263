//! Property-based tests on the automata substrate: the verification layer
//! itself gets verified by cross-checking independent implementations
//! against each other (NFA simulation vs subset-construction DFA vs
//! state-elimination round trips).

use dtdinfer_automata::dfa::{joint_alphabet, regex_equiv, soa_equiv_regex, Dfa};
use dtdinfer_automata::ktestable::KTestable;
use dtdinfer_automata::nfa::Nfa;
use dtdinfer_automata::soa::Soa;
use dtdinfer_automata::state_elim::eliminate;
use dtdinfer_regex::alphabet::{Sym, Word};
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::sample::{sample_words, SampleConfig};
use proptest::prelude::*;

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

fn arb_word(n_syms: u32) -> impl Strategy<Value = Word> {
    prop::collection::vec((0..n_syms).prop_map(Sym), 0..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// NFA simulation and subset-construction DFA agree on membership.
    #[test]
    fn nfa_dfa_membership_agreement(r in arb_regex(3), w in arb_word(3)) {
        let nfa = Nfa::from_regex(&r);
        let alpha: Vec<Sym> = (0..3).map(Sym).collect();
        let dfa = Dfa::from_regex(&r, &alpha);
        prop_assert_eq!(nfa.accepts(&w), dfa.accepts(&w));
    }

    /// State elimination preserves the language of a learned SOA.
    #[test]
    fn state_elimination_sound(words in prop::collection::vec(arb_word(3), 1..8)) {
        let soa = Soa::learn(&words);
        match eliminate(&soa).into_regex() {
            Some(r) => prop_assert!(soa_equiv_regex(&soa, &r)),
            None => {
                // ∅ or {ε}: every training word must then be empty.
                prop_assert!(words.iter().all(Vec::is_empty));
            }
        }
    }

    /// 2T-INF over-approximates its sample, and equals KTestable at k = 2.
    #[test]
    fn twoinf_covers_and_matches_k2(
        words in prop::collection::vec(arb_word(3), 1..10),
        probe in arb_word(3),
    ) {
        let soa = Soa::learn(&words);
        for w in &words {
            prop_assert!(soa.accepts(w));
        }
        let k2 = KTestable::learn(2, &words);
        prop_assert_eq!(soa.accepts(&probe), k2.accepts(&probe));
    }

    /// KTestable's compiled DFA agrees with direct membership.
    #[test]
    fn ktestable_dfa_agrees(
        words in prop::collection::vec(arb_word(3), 1..8),
        probe in arb_word(3),
        k in 1usize..5,
    ) {
        let kt = KTestable::learn(k, &words);
        let alpha: Vec<Sym> = (0..3).map(Sym).collect();
        let dfa = kt.to_dfa(&alpha);
        prop_assert_eq!(dfa.accepts(&probe), kt.accepts(&probe));
    }

    /// The k-hierarchy: for equal samples, larger k accepts a subset.
    #[test]
    fn ktestable_hierarchy(
        words in prop::collection::vec(arb_word(3), 1..8),
        probe in arb_word(3),
        k in 1usize..4,
    ) {
        let coarse = KTestable::learn(k, &words);
        let fine = KTestable::learn(k + 1, &words);
        if fine.accepts(&probe) {
            prop_assert!(coarse.accepts(&probe), "k-hierarchy violated");
        }
    }

    /// GFA closure invariants on random learned SOAs: direct edges are in
    /// the closure, and pred/succ are duals.
    #[test]
    fn gfa_closure_invariants(words in prop::collection::vec(arb_word(4), 1..8)) {
        use dtdinfer_automata::gfa::Gfa;
        let soa = Soa::learn(&words);
        let (g, _) = Gfa::from_soa(&soa);
        let closure = g.closure();
        for (from, to) in g.edges() {
            prop_assert!(closure.succ(from).contains(&to), "direct ⊆ closure");
            prop_assert!(closure.pred(to).contains(&from));
        }
        // Duality over all node pairs.
        let nodes: Vec<_> = g
            .inner_nodes()
            .chain([dtdinfer_automata::gfa::SOURCE, dtdinfer_automata::gfa::SINK])
            .collect();
        for &u in &nodes {
            for &v in &nodes {
                prop_assert_eq!(
                    closure.succ(u).contains(&v),
                    closure.pred(v).contains(&u),
                    "pred/succ duality"
                );
            }
        }
    }

    /// The equivalence test is reflexive and symmetric on random pairs.
    #[test]
    fn regex_equiv_laws(a in arb_regex(3), b in arb_regex(3)) {
        prop_assert!(regex_equiv(&a, &a));
        prop_assert_eq!(regex_equiv(&a, &b), regex_equiv(&b, &a));
    }

    /// Sampled words of an expression are accepted by its DFA.
    #[test]
    fn dfa_accepts_samples(r in arb_regex(3), seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let alpha = joint_alphabet(&[&r.symbols()]);
        let dfa = Dfa::from_regex(&r, &alpha);
        for w in sample_words(&r, &SampleConfig::default(), &mut rng, 5) {
            prop_assert!(dfa.accepts(&w));
        }
    }
}
