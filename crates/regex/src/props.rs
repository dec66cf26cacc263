//! Position-based (Glushkov) properties of regular expressions.
//!
//! Linearizes an expression into *positions* (one per symbol occurrence) and
//! computes the classical `nullable` / `first` / `last` / `follow` functions.
//! These drive the Glushkov automaton construction in `dtdinfer-automata`
//! (Proposition 1: the Glushkov automaton of a SORE is an SOA) and the
//! coverage-guaranteed sampler in [`crate::sample`].

use crate::alphabet::Sym;
use crate::ast::Regex;

/// A position: the index of one symbol occurrence in left-to-right order.
pub type Pos = usize;

/// Result of Glushkov linearization.
#[derive(Debug, Clone)]
pub struct Linearized {
    /// Symbol at each position, indexed by `Pos`.
    pub sym_at: Vec<Sym>,
    /// Whether ε ∈ L(r).
    pub nullable: bool,
    /// Positions that can start a word.
    pub first: Vec<Pos>,
    /// Positions that can end a word.
    pub last: Vec<Pos>,
    /// `follow[p]` = positions that may directly follow `p` in a word.
    pub follow: Vec<Vec<Pos>>,
}

impl Linearized {
    /// Number of positions (symbol occurrences).
    pub fn len(&self) -> usize {
        self.sym_at.len()
    }

    /// Whether the expression has no positions (never: ε/∅ are not REs here),
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.sym_at.is_empty()
    }
}

/// Intermediate per-subexpression data during linearization.
struct Attrs {
    nullable: bool,
    first: Vec<Pos>,
    last: Vec<Pos>,
}

/// Linearizes `r` and computes nullable/first/last/follow.
pub fn linearize(r: &Regex) -> Linearized {
    let mut sym_at = Vec::new();
    let mut follow: Vec<Vec<Pos>> = Vec::new();
    let attrs = go(r, &mut sym_at, &mut follow);
    let mut lin = Linearized {
        sym_at,
        nullable: attrs.nullable,
        first: attrs.first,
        last: attrs.last,
        follow,
    };
    for f in &mut lin.follow {
        f.sort_unstable();
        f.dedup();
    }
    lin
}

fn go(r: &Regex, sym_at: &mut Vec<Sym>, follow: &mut Vec<Vec<Pos>>) -> Attrs {
    match r {
        Regex::Symbol(s) => {
            let p = sym_at.len();
            sym_at.push(*s);
            follow.push(Vec::new());
            Attrs {
                nullable: false,
                first: vec![p],
                last: vec![p],
            }
        }
        Regex::Concat(parts) => {
            let mut acc = go(&parts[0], sym_at, follow);
            for part in &parts[1..] {
                let rhs = go(part, sym_at, follow);
                // follow: every last of the prefix connects to every first
                // of the next part.
                for &l in &acc.last {
                    follow[l].extend_from_slice(&rhs.first);
                }
                let first = if acc.nullable {
                    let mut f = acc.first.clone();
                    f.extend_from_slice(&rhs.first);
                    f
                } else {
                    acc.first
                };
                let last = if rhs.nullable {
                    let mut l = acc.last;
                    l.extend_from_slice(&rhs.last);
                    l
                } else {
                    rhs.last
                };
                acc = Attrs {
                    nullable: acc.nullable && rhs.nullable,
                    first,
                    last,
                };
            }
            acc
        }
        Regex::Union(parts) => {
            let mut nullable = false;
            let mut first = Vec::new();
            let mut last = Vec::new();
            for part in parts {
                let a = go(part, sym_at, follow);
                nullable |= a.nullable;
                first.extend(a.first);
                last.extend(a.last);
            }
            Attrs {
                nullable,
                first,
                last,
            }
        }
        Regex::Optional(inner) => {
            let a = go(inner, sym_at, follow);
            Attrs {
                nullable: true,
                ..a
            }
        }
        Regex::Plus(inner) | Regex::Star(inner) => {
            let a = go(inner, sym_at, follow);
            for &l in &a.last {
                let firsts = a.first.clone();
                follow[l].extend(firsts);
            }
            Attrs {
                nullable: a.nullable || matches!(r, Regex::Star(_)),
                first: a.first,
                last: a.last,
            }
        }
    }
}

/// The set of 2-grams (ordered symbol pairs `ab`) occurring in words of
/// `L(r)`, together with possible first and last symbols — exactly the
/// `(I, F, S)` triple that characterizes the 2-testable closure of `L(r)`
/// (§4).
pub fn two_gram_profile(r: &Regex) -> TwoGramProfile {
    let lin = linearize(r);
    let mut firsts: Vec<Sym> = lin.first.iter().map(|&p| lin.sym_at[p]).collect();
    let mut lasts: Vec<Sym> = lin.last.iter().map(|&p| lin.sym_at[p]).collect();
    firsts.sort_unstable();
    firsts.dedup();
    lasts.sort_unstable();
    lasts.dedup();
    let mut pairs = Vec::new();
    for (p, succs) in lin.follow.iter().enumerate() {
        for &q in succs {
            pairs.push((lin.sym_at[p], lin.sym_at[q]));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    TwoGramProfile {
        nullable: lin.nullable,
        first: firsts,
        last: lasts,
        pairs,
    }
}

/// `(I, F, S)` triple of a 2-testable language (plus ε-membership).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoGramProfile {
    /// Whether ε is accepted.
    pub nullable: bool,
    /// Symbols that can start a word (`I`).
    pub first: Vec<Sym>,
    /// Symbols that can end a word (`F`).
    pub last: Vec<Sym>,
    /// Allowed 2-grams (`S`).
    pub pairs: Vec<(Sym, Sym)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::parser::parse;

    fn lin(src: &str) -> (Linearized, Alphabet) {
        let mut a = Alphabet::new();
        let r = parse(src, &mut a).unwrap();
        (linearize(&r), a)
    }

    #[test]
    fn single_symbol() {
        let (l, _) = lin("a");
        assert_eq!(l.len(), 1);
        assert!(!l.nullable);
        assert_eq!(l.first, vec![0]);
        assert_eq!(l.last, vec![0]);
        assert!(l.follow[0].is_empty());
    }

    #[test]
    fn concat_follow() {
        let (l, _) = lin("a b c");
        assert_eq!(l.first, vec![0]);
        assert_eq!(l.last, vec![2]);
        assert_eq!(l.follow[0], vec![1]);
        assert_eq!(l.follow[1], vec![2]);
    }

    #[test]
    fn optional_skips() {
        let (l, _) = lin("a b? c");
        assert_eq!(l.follow[0], vec![1, 2]);
        assert_eq!(l.follow[1], vec![2]);
    }

    #[test]
    fn plus_loops_back() {
        let (l, _) = lin("(a b)+");
        assert_eq!(l.follow[1], vec![0]);
        assert_eq!(l.first, vec![0]);
        assert_eq!(l.last, vec![1]);
        assert!(!l.nullable);
    }

    #[test]
    fn star_is_nullable_and_loops() {
        let (l, _) = lin("a*");
        assert!(l.nullable);
        assert_eq!(l.follow[0], vec![0]);
    }

    #[test]
    fn union_merges() {
        let (l, _) = lin("(a | b) c");
        assert_eq!(l.first, vec![0, 1]);
        assert_eq!(l.follow[0], vec![2]);
        assert_eq!(l.follow[1], vec![2]);
    }

    #[test]
    fn nullable_chain_first_propagates() {
        let (l, _) = lin("a? b? c");
        assert_eq!(l.first, vec![0, 1, 2]);
        assert_eq!(l.last, vec![2]);
    }

    #[test]
    fn paper_2gram_example() {
        // r = (a|b)+ c: I = {a,b}, F = {c},
        // S = {ab, aa, ba, bb, ac, bc} (§4).
        let mut al = Alphabet::new();
        let r = parse("(a | b)+ c", &mut al).unwrap();
        let prof = two_gram_profile(&r);
        let (a, b, c) = (
            al.get("a").unwrap(),
            al.get("b").unwrap(),
            al.get("c").unwrap(),
        );
        assert!(!prof.nullable);
        assert_eq!(prof.first, vec![a, b]);
        assert_eq!(prof.last, vec![c]);
        let mut expect = vec![(a, b), (a, a), (b, a), (b, b), (a, c), (b, c)];
        expect.sort_unstable();
        assert_eq!(prof.pairs, expect);
    }

    #[test]
    fn paper_running_sore_profile() {
        // ((b?(a|c))+d)+e generates exactly the automaton of Fig. 1, i.e.
        // I = {a,b,c}, F = {e},
        // S = {aa,ad,ac,ab,ba,bc,cb,cc,ca,cd,da,db,dc,de}.
        let mut al = Alphabet::new();
        let r = parse("((b? (a|c))+ d)+ e", &mut al).unwrap();
        let prof = two_gram_profile(&r);
        let s = |n: &str| al.get(n).unwrap();
        assert_eq!(prof.first, {
            let mut v = vec![s("a"), s("b"), s("c")];
            v.sort_unstable();
            v
        });
        assert_eq!(prof.last, vec![s("e")]);
        let mut expect: Vec<(Sym, Sym)> = [
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
        expect.sort_unstable();
        assert_eq!(prof.pairs, expect);
    }
}
