//! One-unambiguity (determinism) checking.
//!
//! The XML specification requires content models to be *deterministic*
//! (one-unambiguous in the sense of Brüggemann-Klein & Wood, cited as \[12\]
//! in the paper): while matching a word left to right, the next input
//! symbol must determine the next position of the expression without
//! lookahead. §3 notes that every SORE — and hence every CHARE — is
//! deterministic by definition; this module provides the general check so
//! the DTD validator can flag hand-written non-deterministic models like
//! `(a b) | (a c)`.
//!
//! Criterion (Glushkov form): an expression is one-unambiguous iff no two
//! distinct positions carrying the same symbol compete — i.e. appear
//! together in `first`, or together in `follow(p)` for some position `p`.

use crate::alphabet::Sym;
use crate::ast::Regex;
use crate::props::{linearize, Pos};

/// A witness of non-determinism: two competing positions of one symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ambiguity {
    /// The symbol both positions carry.
    pub symbol: Sym,
    /// The competing positions (indices into the linearization).
    pub positions: (Pos, Pos),
    /// The position after which the conflict arises; `None` when the
    /// conflict is between possible first symbols.
    pub after: Option<Pos>,
}

/// Checks one-unambiguity; returns the first conflict found.
pub fn check_deterministic(r: &Regex) -> Result<(), Ambiguity> {
    let lin = linearize(r);
    find_conflict(&lin.first, &lin.sym_at, None)?;
    for (p, succs) in lin.follow.iter().enumerate() {
        find_conflict(succs, &lin.sym_at, Some(p))?;
    }
    Ok(())
}

/// Whether `r` is one-unambiguous (deterministic per the XML spec).
pub fn is_deterministic(r: &Regex) -> bool {
    check_deterministic(r).is_ok()
}

fn find_conflict(positions: &[Pos], sym_at: &[Sym], after: Option<Pos>) -> Result<(), Ambiguity> {
    // Position lists are small; a quadratic scan keeps the witness simple.
    for (i, &p) in positions.iter().enumerate() {
        for &q in &positions[i + 1..] {
            if p != q && sym_at[p] == sym_at[q] {
                return Err(Ambiguity {
                    symbol: sym_at[p],
                    positions: (p, q),
                    after,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::classify::is_sore;
    use crate::parser::parse;

    fn det(src: &str) -> bool {
        let mut al = Alphabet::new();
        is_deterministic(&parse(src, &mut al).unwrap())
    }

    #[test]
    fn sores_are_deterministic() {
        for src in [
            "a",
            "((b? (a|c))+ d)+ e",
            "a (b|c)* d+ (e|f)?",
            "a1 a2* (a3 | a4)?",
        ] {
            let mut al = Alphabet::new();
            let r = parse(src, &mut al).unwrap();
            assert!(is_sore(&r));
            assert!(is_deterministic(&r), "{src}");
        }
    }

    #[test]
    fn classic_nondeterministic_examples() {
        // (a b) | (a c): after seeing `a` the match is ambiguous.
        assert!(!det("(a b) | (a c)"));
        // a? a: ambiguous on first symbol a.
        assert!(!det("a? a"));
        // (a | b)* a — the textbook one-ambiguous expression.
        assert!(!det("(a | b)* a"));
    }

    #[test]
    fn deterministic_non_sores() {
        // a (b a)* repeats `a` but is deterministic.
        assert!(det("a (b a)*"));
        // b? a (b a)* likewise.
        assert!(det("b? a (b a)*"));
    }

    #[test]
    fn witness_reports_symbol() {
        let mut al = Alphabet::new();
        let r = parse("(a b) | (a c)", &mut al).unwrap();
        let amb = check_deterministic(&r).unwrap_err();
        assert_eq!(amb.symbol, al.get("a").unwrap());
        assert_eq!(amb.after, None, "conflict on the first symbol");
    }

    #[test]
    fn follow_conflict_reports_position() {
        let mut al = Alphabet::new();
        // After the first a: both `b a` loop and trailing `a` compete… use
        // (a | b)* a which conflicts inside follow sets.
        let r = parse("(a | b)* a", &mut al).unwrap();
        let amb = check_deterministic(&r).unwrap_err();
        assert_eq!(amb.symbol, al.get("a").unwrap());
    }
}
