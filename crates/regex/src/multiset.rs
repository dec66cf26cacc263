//! A counted multiset of words.
//!
//! Real corpora repeat child-name sequences heavily — every `<book>` with
//! the same `title author+ year` shape contributes the *same* word — so
//! storing one `(Word, count)` entry per distinct word makes corpus
//! accumulation, shard merging, and snapshot size O(distinct words)
//! instead of O(occurrences), and lets count-aware learners absorb each
//! distinct word once.
//!
//! The representation is a `Vec<(Word, u32)>` kept sorted by word
//! (lexicographic over `Sym` ids) with no duplicate words and no zero
//! counts. That canonical order makes equality, merging, and serialized
//! form independent of insertion order, which the byte-identity guarantees
//! of the sharded engine rely on.

use crate::alphabet::{Sym, Word};

/// A canonical-sorted counted multiset of [`Word`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WordBag {
    /// `(word, count)` entries, strictly sorted by word, counts ≥ 1.
    entries: Vec<(Word, u32)>,
}

impl WordBag {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one occurrence of `w`.
    pub fn insert(&mut self, w: Word) {
        self.insert_n(w, 1);
    }

    /// Adds one occurrence of `w`, cloning it only on first sight — the
    /// allocation-free path for hot loops that recycle their scratch
    /// [`Word`]s: repeated shapes cost a binary search and an increment.
    pub fn insert_ref(&mut self, w: &Word) {
        match self.entries.binary_search_by(|(e, _)| e.cmp(w)) {
            Ok(i) => self.entries[i].1 = self.entries[i].1.saturating_add(1),
            Err(i) => self.entries.insert(i, (w.clone(), 1)),
        }
    }

    /// Adds `n` occurrences of `w`. `n = 0` is a no-op.
    pub fn insert_n(&mut self, w: Word, n: u32) {
        if n == 0 {
            return;
        }
        match self.entries.binary_search_by(|(e, _)| e.cmp(&w)) {
            Ok(i) => self.entries[i].1 = self.entries[i].1.saturating_add(n),
            Err(i) => self.entries.insert(i, (w, n)),
        }
    }

    /// Folds `other` in: counts add, order stays canonical. One linear
    /// merge pass — O(distinct words), not O(occurrences).
    pub fn merge(&mut self, other: &WordBag) {
        if other.entries.is_empty() {
            return;
        }
        if self.entries.is_empty() {
            self.entries = other.entries.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let mut a = std::mem::take(&mut self.entries).into_iter().peekable();
        let mut b = other.entries.iter().cloned().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some((wa, _)), Some((wb, _))) => match wa.cmp(wb) {
                    std::cmp::Ordering::Less => merged.push(a.next().expect("peeked")),
                    std::cmp::Ordering::Greater => merged.push(b.next().expect("peeked")),
                    std::cmp::Ordering::Equal => {
                        let (w, ca) = a.next().expect("peeked");
                        let (_, cb) = b.next().expect("peeked");
                        merged.push((w, ca.saturating_add(cb)));
                    }
                },
                (Some(_), None) => merged.push(a.next().expect("peeked")),
                (None, Some(_)) => merged.push(b.next().expect("peeked")),
                (None, None) => break,
            }
        }
        self.entries = merged;
    }

    /// Iterates `(word, count)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&Word, u32)> {
        self.entries.iter().map(|(w, c)| (w, *c))
    }

    /// Iterates the distinct words in canonical order.
    pub fn words(&self) -> impl Iterator<Item = &Word> {
        self.entries.iter().map(|(w, _)| w)
    }

    /// The underlying sorted `(word, count)` slice.
    pub fn as_slice(&self) -> &[(Word, u32)] {
        &self.entries
    }

    /// Number of distinct words.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Total occurrences (sum of counts).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, c)| u64::from(*c)).sum()
    }

    /// Whether no word (of any length) has been inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rebuilds the bag with every symbol remapped through `f`,
    /// re-sorting into canonical order (alphabet canonicalization).
    pub fn map_symbols(&self, mut f: impl FnMut(Sym) -> Sym) -> WordBag {
        let mut entries: Vec<(Word, u32)> = self
            .entries
            .iter()
            .map(|(w, c)| (w.iter().map(|&s| f(s)).collect(), *c))
            .collect();
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        // A symbol remap is injective in practice, but fold duplicates
        // defensively so the canonical invariant always holds.
        let mut bag = WordBag::new();
        for (w, c) in entries {
            match bag.entries.last_mut() {
                Some((last, count)) if *last == w => *count = count.saturating_add(c),
                _ => bag.entries.push((w, c)),
            }
        }
        bag
    }

    /// Builds a bag from raw `(word, count)` rows (snapshot loading),
    /// failing when a row violates the canonical form: zero counts,
    /// duplicate or out-of-order words.
    pub fn from_rows(rows: Vec<(Word, u32)>) -> Result<WordBag, String> {
        for (i, (w, c)) in rows.iter().enumerate() {
            if *c == 0 {
                return Err(format!("word row {i}: zero count"));
            }
            if i > 0 {
                match rows[i - 1].0.cmp(w) {
                    std::cmp::Ordering::Less => {}
                    std::cmp::Ordering::Equal => {
                        return Err(format!("word row {i}: duplicate word"));
                    }
                    std::cmp::Ordering::Greater => {
                        return Err(format!("word row {i}: out of canonical order"));
                    }
                }
            }
        }
        Ok(WordBag { entries: rows })
    }
}

impl FromIterator<Word> for WordBag {
    fn from_iter<I: IntoIterator<Item = Word>>(iter: I) -> Self {
        let mut bag = WordBag::new();
        for w in iter {
            bag.insert(w);
        }
        bag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(syms: &[u32]) -> Word {
        syms.iter().map(|&i| Sym(i)).collect()
    }

    #[test]
    fn insert_counts_and_sorts() {
        let mut bag = WordBag::new();
        bag.insert(w(&[1, 2]));
        bag.insert(w(&[0]));
        bag.insert(w(&[1, 2]));
        bag.insert(w(&[]));
        assert_eq!(
            bag.as_slice(),
            &[(w(&[]), 1), (w(&[0]), 1), (w(&[1, 2]), 2)]
        );
        assert_eq!(bag.distinct(), 3);
        assert_eq!(bag.total(), 4);
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let a: WordBag = [w(&[1]), w(&[2]), w(&[1]), w(&[])].into_iter().collect();
        let b: WordBag = [w(&[]), w(&[1]), w(&[1]), w(&[2])].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn merge_adds_counts_linearly() {
        let mut a: WordBag = [w(&[1]), w(&[1]), w(&[3])].into_iter().collect();
        let b: WordBag = [w(&[1]), w(&[2])].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.as_slice(), &[(w(&[1]), 3), (w(&[2]), 1), (w(&[3]), 1)]);
        let mut empty = WordBag::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn map_symbols_resorts() {
        let bag: WordBag = [w(&[0, 1]), w(&[2])].into_iter().collect();
        // Reverse the symbol order: 0↔2.
        let mapped = bag.map_symbols(|s| Sym(2 - s.0));
        assert_eq!(mapped.as_slice(), &[(w(&[0]), 1), (w(&[2, 1]), 1)]);
    }

    #[test]
    fn from_rows_is_fail_closed() {
        assert!(WordBag::from_rows(vec![(w(&[1]), 1), (w(&[2]), 3)]).is_ok());
        assert!(
            WordBag::from_rows(vec![(w(&[1]), 0)]).is_err(),
            "zero count"
        );
        assert!(
            WordBag::from_rows(vec![(w(&[2]), 1), (w(&[1]), 1)]).is_err(),
            "out of order"
        );
        assert!(
            WordBag::from_rows(vec![(w(&[1]), 1), (w(&[1]), 1)]).is_err(),
            "duplicate"
        );
    }

    #[test]
    fn insert_ref_matches_insert() {
        let words = [w(&[1, 2]), w(&[0]), w(&[1, 2]), w(&[]), w(&[0])];
        let by_value: WordBag = words.iter().cloned().collect();
        let mut by_ref = WordBag::new();
        for word in &words {
            by_ref.insert_ref(word);
        }
        assert_eq!(by_ref, by_value);
        assert_eq!(by_ref.as_slice(), by_value.as_slice());
    }

    #[test]
    fn saturating_counts() {
        let mut bag = WordBag::new();
        bag.insert_n(w(&[1]), u32::MAX);
        bag.insert(w(&[1]));
        assert_eq!(bag.as_slice(), &[(w(&[1]), u32::MAX)]);
    }
}
