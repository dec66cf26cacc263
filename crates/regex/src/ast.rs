//! Regular expression abstract syntax.
//!
//! Following §3 of the paper, ε and ∅ are not basic expressions: every leaf
//! is an alphabet symbol. The empty word can only be matched through the `?`
//! and `*` operators. Union and concatenation are n-ary in the AST (flattened
//! by [`crate::normalize::normalize`]); this keeps the SORE/CHARE shape
//! checks and the printer simple.

use crate::alphabet::Sym;

/// A regular expression over interned symbols.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Regex {
    /// A single alphabet symbol.
    Symbol(Sym),
    /// Concatenation `r1 · r2 · … · rn` (n ≥ 2 after normalization).
    Concat(Vec<Regex>),
    /// Union `r1 + r2 + … + rn` (n ≥ 2 after normalization).
    Union(Vec<Regex>),
    /// Zero-or-one `r?`.
    Optional(Box<Regex>),
    /// One-or-more `r+`.
    Plus(Box<Regex>),
    /// Zero-or-more `r*`. The `rewrite` algorithm never produces `Star`
    /// directly (it uses `(r+)?`); [`crate::normalize::star_form`] converts
    /// post-hoc.
    Star(Box<Regex>),
}

impl Regex {
    /// Leaf constructor.
    pub fn sym(s: Sym) -> Self {
        Regex::Symbol(s)
    }

    /// Smart concatenation: flattens nested concats and avoids 1-ary nodes.
    pub fn concat(parts: Vec<Regex>) -> Self {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Concat(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => panic!("empty concatenation (ε is not a regex)"),
            1 => out.pop().unwrap(),
            _ => Regex::Concat(out),
        }
    }

    /// Smart union: flattens nested unions and avoids 1-ary nodes.
    pub fn union(parts: Vec<Regex>) -> Self {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Union(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => panic!("empty union (∅ is not a regex)"),
            1 => out.pop().unwrap(),
            _ => Regex::Union(out),
        }
    }

    /// `r?`, collapsing `r??` to `r?` and `(r*)?` to `r*`.
    pub fn optional(r: Regex) -> Self {
        match r {
            r @ (Regex::Optional(_) | Regex::Star(_)) => r,
            r => Regex::Optional(Box::new(r)),
        }
    }

    /// `r+`, collapsing `(r+)+` to `r+` and `(r?)+` / `(r*)+` to `r*`.
    pub fn plus(r: Regex) -> Self {
        match r {
            r @ (Regex::Plus(_) | Regex::Star(_)) => r,
            // (r?)+ ≡ r*; recurse so nested operators inside collapse too.
            Regex::Optional(inner) => Regex::star(*inner),
            r => Regex::Plus(Box::new(r)),
        }
    }

    /// `r*`, collapsing any nested unary operator (recursively, so chains
    /// like `((r+)?)*` flatten to `r*`).
    pub fn star(r: Regex) -> Self {
        match r {
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Optional(inner) => Regex::star(*inner),
            r => Regex::Star(Box::new(r)),
        }
    }

    /// Number of occurrences of alphabet symbols (the "size" measure of the
    /// paper: a SORE over n distinct names has exactly n of these).
    pub fn symbol_count(&self) -> usize {
        match self {
            Regex::Symbol(_) => 1,
            Regex::Concat(v) | Regex::Union(v) => v.iter().map(Regex::symbol_count).sum(),
            Regex::Optional(r) | Regex::Plus(r) | Regex::Star(r) => r.symbol_count(),
        }
    }

    /// Token count: symbols plus operators (each `?`/`+`/`*` is one token,
    /// each union of k alternatives contributes k−1 tokens, concatenation is
    /// free). Used to compare conciseness with xtract, whose outputs the
    /// paper reports as "an expression of 185 tokens".
    pub fn token_count(&self) -> usize {
        match self {
            Regex::Symbol(_) => 1,
            Regex::Concat(v) => v.iter().map(Regex::token_count).sum(),
            Regex::Union(v) => v.iter().map(Regex::token_count).sum::<usize>() + v.len() - 1,
            Regex::Optional(r) | Regex::Plus(r) | Regex::Star(r) => r.token_count() + 1,
        }
    }

    /// The expression with every symbol translated through `f`, rebuilt
    /// through the smart constructors, so the result is flattened and has
    /// no 1-ary nodes whatever the input's shape.
    pub fn map_symbols(&self, mut f: impl FnMut(Sym) -> Sym) -> Regex {
        fn go(r: &Regex, f: &mut impl FnMut(Sym) -> Sym) -> Regex {
            match r {
                Regex::Symbol(s) => Regex::sym(f(*s)),
                Regex::Concat(v) => Regex::concat(v.iter().map(|p| go(p, f)).collect()),
                Regex::Union(v) => Regex::union(v.iter().map(|p| go(p, f)).collect()),
                Regex::Optional(p) => Regex::optional(go(p, f)),
                Regex::Plus(p) => Regex::plus(go(p, f)),
                Regex::Star(p) => Regex::star(go(p, f)),
            }
        }
        go(self, &mut f)
    }

    /// All symbols occurring in the expression, in left-to-right order of
    /// first occurrence.
    pub fn symbols(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut Vec<Sym>) {
        match self {
            Regex::Symbol(s) => {
                if !out.contains(s) {
                    out.push(*s);
                }
            }
            Regex::Concat(v) | Regex::Union(v) => {
                for r in v {
                    r.collect_symbols(out);
                }
            }
            Regex::Optional(r) | Regex::Plus(r) | Regex::Star(r) => r.collect_symbols(out),
        }
    }

    /// Whether the empty word is in the language of the expression.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Symbol(_) => false,
            Regex::Concat(v) => v.iter().all(Regex::nullable),
            Regex::Union(v) => v.iter().any(Regex::nullable),
            Regex::Optional(_) | Regex::Star(_) => true,
            Regex::Plus(r) => r.nullable(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn syms() -> (Sym, Sym, Sym) {
        let mut a = Alphabet::new();
        (a.intern("a"), a.intern("b"), a.intern("c"))
    }

    #[test]
    fn concat_flattens() {
        let (a, b, c) = syms();
        let r = Regex::concat(vec![
            Regex::concat(vec![Regex::sym(a), Regex::sym(b)]),
            Regex::sym(c),
        ]);
        assert_eq!(
            r,
            Regex::Concat(vec![Regex::sym(a), Regex::sym(b), Regex::sym(c)])
        );
    }

    #[test]
    fn union_flattens() {
        let (a, b, c) = syms();
        let r = Regex::union(vec![
            Regex::union(vec![Regex::sym(a), Regex::sym(b)]),
            Regex::sym(c),
        ]);
        assert_eq!(
            r,
            Regex::Union(vec![Regex::sym(a), Regex::sym(b), Regex::sym(c)])
        );
    }

    #[test]
    fn unary_smart_constructors_collapse() {
        let (a, _, _) = syms();
        let s = Regex::sym(a);
        assert_eq!(
            Regex::optional(Regex::optional(s.clone())),
            Regex::optional(s.clone())
        );
        assert_eq!(Regex::plus(Regex::plus(s.clone())), Regex::plus(s.clone()));
        // (r?)+ == r*
        assert_eq!(
            Regex::plus(Regex::optional(s.clone())),
            Regex::star(s.clone())
        );
        // (r+)? == (r+)? stays as Optional(Plus) via the raw variant, but the
        // smart constructor of star collapses everything:
        assert_eq!(Regex::star(Regex::plus(s.clone())), Regex::star(s.clone()));
        assert_eq!(Regex::optional(Regex::star(s.clone())), Regex::star(s));
    }

    #[test]
    fn map_symbols_translates_through_smart_constructors() {
        let (a, b, c) = syms();
        // A raw (a · (b · c)?) keeps its shape and gets new symbols.
        let raw = Regex::Concat(vec![
            Regex::sym(a),
            Regex::Optional(Box::new(Regex::Concat(vec![Regex::sym(b), Regex::sym(c)]))),
        ]);
        let swapped = raw.map_symbols(|s| if s == a { c } else { a });
        assert_eq!(
            swapped,
            Regex::concat(vec![
                Regex::sym(c),
                Regex::optional(Regex::concat(vec![Regex::sym(a), Regex::sym(a)])),
            ])
        );
        // Nested raw nodes come back flattened and collapsed.
        let nested = Regex::Union(vec![
            Regex::Union(vec![Regex::sym(a), Regex::sym(b)]),
            Regex::Star(Box::new(Regex::Optional(Box::new(Regex::sym(c))))),
        ]);
        assert_eq!(
            nested.map_symbols(|s| s),
            Regex::Union(vec![
                Regex::sym(a),
                Regex::sym(b),
                Regex::star(Regex::sym(c))
            ])
        );
    }

    #[test]
    fn single_element_collapse() {
        let (a, _, _) = syms();
        assert_eq!(Regex::concat(vec![Regex::sym(a)]), Regex::sym(a));
        assert_eq!(Regex::union(vec![Regex::sym(a)]), Regex::sym(a));
    }

    #[test]
    fn counts() {
        let (a, b, c) = syms();
        // (a|b)+ c
        let r = Regex::concat(vec![
            Regex::plus(Regex::union(vec![Regex::sym(a), Regex::sym(b)])),
            Regex::sym(c),
        ]);
        assert_eq!(r.symbol_count(), 3);
        assert_eq!(r.token_count(), 3 + 1 + 1); // 3 syms, 1 union bar, 1 plus
        assert_eq!(r.symbols(), vec![a, b, c]);
    }

    #[test]
    fn nullability() {
        let (a, b, _) = syms();
        assert!(!Regex::sym(a).nullable());
        assert!(Regex::optional(Regex::sym(a)).nullable());
        assert!(Regex::star(Regex::sym(a)).nullable());
        assert!(!Regex::plus(Regex::sym(a)).nullable());
        assert!(Regex::concat(vec![
            Regex::optional(Regex::sym(a)),
            Regex::star(Regex::sym(b))
        ])
        .nullable());
        assert!(Regex::union(vec![Regex::sym(a), Regex::optional(Regex::sym(b))]).nullable());
    }

    #[test]
    #[should_panic]
    fn empty_concat_panics() {
        let _ = Regex::concat(vec![]);
    }
}
