//! Interned alphabet of element names.
//!
//! All algorithms in this workspace operate on dense integer symbol ids
//! (`Sym`) rather than strings; an [`Alphabet`] owns the bidirectional
//! mapping between XML element names and ids. Words (child-name sequences
//! extracted from XML documents) are `Vec<Sym>`.

use std::collections::HashMap;
use std::fmt;

/// An interned alphabet symbol (an XML element name).
///
/// `Sym` is a dense index into an [`Alphabet`]; it is `Copy` and cheap to
/// hash, so the inference algorithms can use it as a graph-node key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The dense index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A word over the alphabet: one child-name sequence.
pub type Word = Vec<Sym>;

/// Bidirectional mapping between element names and dense [`Sym`] ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Alphabet {
    names: Vec<String>,
    index: HashMap<String, Sym>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an alphabet containing `names` in order.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut a = Self::new();
        for n in names {
            a.intern(n.as_ref());
        }
        a
    }

    /// Interns `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = Sym(u32::try_from(self.names.len()).expect("alphabet overflow"));
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), s);
        s
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.index.get(name).copied()
    }

    /// Returns the name of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this alphabet.
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no symbol has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all symbols in id order.
    pub fn symbols(&self) -> impl Iterator<Item = Sym> + '_ {
        (0..self.names.len() as u32).map(Sym)
    }

    /// Iterates over `(Sym, name)` pairs in id order.
    pub fn entries(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_str()))
    }

    /// The same names interned in sorted order, and the table mapping each
    /// symbol of `self` (by index) to its symbol there. Every learner breaks
    /// ties in symbol order, so learning over the sorted alphabet makes
    /// name order, not interning order, decide them.
    pub fn sorted(&self) -> (Alphabet, Vec<Sym>) {
        let mut order: Vec<Sym> = self.symbols().collect();
        order.sort_unstable_by_key(|&s| self.name(s));
        let sorted = Alphabet::from_names(order.iter().map(|&s| self.name(s)));
        let mut table = vec![Sym(0); order.len()];
        for (new, old) in sorted.symbols().zip(order) {
            table[old.index()] = new;
        }
        (sorted, table)
    }

    /// Interns every character of `s` as a single-character name, producing a
    /// word. Convenient for tests that use the paper's one-letter examples
    /// (e.g. `"bacacdacde"`).
    pub fn word_from_chars(&mut self, s: &str) -> Word {
        s.chars().map(|c| self.intern(&c.to_string())).collect()
    }

    /// Renders a word as a string of names separated by `sep`.
    pub fn render_word(&self, w: &[Sym], sep: &str) -> String {
        w.iter()
            .map(|&s| self.name(s))
            .collect::<Vec<_>>()
            .join(sep)
    }
}

/// Creates a fresh alphabet with generated names `a1..an` (paper style) and
/// returns both the alphabet and the symbols in order.
pub fn numbered_alphabet(n: usize) -> (Alphabet, Vec<Sym>) {
    let mut a = Alphabet::new();
    let syms = (1..=n).map(|i| a.intern(&format!("a{i}"))).collect();
    (a, syms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut a = Alphabet::new();
        let x = a.intern("title");
        let y = a.intern("title");
        assert_eq!(x, y);
        assert_eq!(a.len(), 1);
        assert_eq!(a.name(x), "title");
    }

    #[test]
    fn distinct_names_get_distinct_syms() {
        let mut a = Alphabet::new();
        let x = a.intern("a");
        let y = a.intern("b");
        assert_ne!(x, y);
        assert_eq!(a.get("a"), Some(x));
        assert_eq!(a.get("b"), Some(y));
        assert_eq!(a.get("c"), None);
    }

    #[test]
    fn word_from_chars_round_trips() {
        let mut a = Alphabet::new();
        let w = a.word_from_chars("abca");
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], w[3]);
        assert_eq!(a.render_word(&w, ""), "abca");
    }

    #[test]
    fn numbered_alphabet_names() {
        let (a, syms) = numbered_alphabet(3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.name(syms[0]), "a1");
        assert_eq!(a.name(syms[2]), "a3");
    }

    #[test]
    fn entries_enumerates_in_order() {
        let a = Alphabet::from_names(["x", "y"]);
        let v: Vec<_> = a
            .entries()
            .map(|(s, n)| (s.index(), n.to_owned()))
            .collect();
        assert_eq!(v, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn sorted_maps_each_symbol_to_its_name() {
        let a = Alphabet::from_names(["title", "author", "year", "book"]);
        let (sorted, table) = a.sorted();
        let names: Vec<&str> = sorted.entries().map(|(_, n)| n).collect();
        assert_eq!(names, ["author", "book", "title", "year"]);
        for (old, name) in a.entries() {
            assert_eq!(sorted.name(table[old.index()]), name);
        }
        let (empty, table) = Alphabet::new().sorted();
        assert!(empty.is_empty() && table.is_empty());
    }
}
