//! Schema comparison — the §1.1 "schema cleaning" workflow.
//!
//! The paper's motivating example compares a published DTD against one
//! inferred from the data: the refinfo content model turned out to be
//! *stricter* in the corpus (`(volume | month)` instead of
//! `volume? month?`), revealing latent semantics. This module compares two
//! DTDs element by element at the language level (DFA inclusion both ways)
//! and classifies each element into equal / stricter / looser /
//! incomparable / missing.

use crate::dtd::{ContentSpec, Dtd};
use dtdinfer_automata::dfa::{dfa_subset, joint_alphabet, Dfa};
use dtdinfer_regex::alphabet::{Alphabet, Word};
use dtdinfer_regex::ast::Regex;
use std::collections::HashSet;
use std::fmt;

/// Relationship between the content models of one element in two DTDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Same language.
    Equal,
    /// The second (e.g. inferred) model accepts a strict subset — it is
    /// *stricter*, like the refinfo discovery.
    Stricter,
    /// The second model accepts a strict superset.
    Looser,
    /// Neither contains the other.
    Incomparable,
    /// Declared only in the first DTD.
    OnlyInFirst,
    /// Declared only in the second DTD.
    OnlyInSecond,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Equal => "equal",
            Relation::Stricter => "stricter",
            Relation::Looser => "looser",
            Relation::Incomparable => "incomparable",
            Relation::OnlyInFirst => "only in first",
            Relation::OnlyInSecond => "only in second",
        })
    }
}

/// One element's comparison result.
#[derive(Debug, Clone)]
pub struct ElementDiff {
    /// Element name.
    pub name: String,
    /// How the second DTD's model relates to the first's.
    pub relation: Relation,
}

/// Example (the §1.1 refinfo discovery):
///
/// ```
/// use dtdinfer_xml::diff::{diff, Relation};
/// use dtdinfer_xml::dtd::Dtd;
///
/// let published = Dtd::parse("<!ELEMENT r (v?, m?)><!ELEMENT v EMPTY><!ELEMENT m EMPTY>").unwrap();
/// let inferred = Dtd::parse("<!ELEMENT r (v | m)><!ELEMENT v EMPTY><!ELEMENT m EMPTY>").unwrap();
/// let diffs = diff(&published, &inferred);
/// let r = diffs.iter().find(|d| d.name == "r").unwrap();
/// assert_eq!(r.relation, Relation::Stricter);
/// ```
/// Compares `second` against `first` (order matters: `Stricter` means the
/// second is stricter). Elements are matched by name.
pub fn diff(first: &Dtd, second: &Dtd) -> Vec<ElementDiff> {
    let mut seen: HashSet<&str> = HashSet::new();
    let names: Vec<&str> = first
        .elements
        .keys()
        .map(|&s| first.alphabet.name(s))
        .chain(second.elements.keys().map(|&s| second.alphabet.name(s)))
        .filter(|name| seen.insert(name))
        .collect();
    names
        .into_iter()
        .map(|name| {
            let a = first
                .alphabet
                .get(name)
                .and_then(|s| first.elements.get(&s))
                .map(|spec| (spec, &first.alphabet));
            let b = second
                .alphabet
                .get(name)
                .and_then(|s| second.elements.get(&s))
                .map(|spec| (spec, &second.alphabet));
            let relation = match (a, b) {
                (None, None) => unreachable!("name came from one of the DTDs"),
                (Some(_), None) => Relation::OnlyInFirst,
                (None, Some(_)) => Relation::OnlyInSecond,
                (Some((sa, ala)), Some((sb, alb))) => compare_specs(sa, ala, sb, alb),
            };
            ElementDiff {
                name: name.to_owned(),
                relation,
            }
        })
        .collect()
}

/// Compares two content specs at the language level. The comparison works
/// over element-*name* words, so the two DTDs may use different alphabets.
fn compare_specs(a: &ContentSpec, al_a: &Alphabet, b: &ContentSpec, al_b: &Alphabet) -> Relation {
    use ContentSpec as C;
    match (a, b) {
        (C::Empty, C::Empty) | (C::PcData, C::PcData) | (C::Any, C::Any) => Relation::Equal,
        // ANY contains everything; EMPTY/PCDATA accept no element children.
        (C::Any, _) => Relation::Stricter,
        (_, C::Any) => Relation::Looser,
        // EMPTY and PCDATA both mean "no element children": equal as child
        // languages (the text dimension is reported by validation instead).
        (C::Empty | C::PcData, C::Empty | C::PcData) => Relation::Equal,
        (C::Mixed(xs), C::Mixed(ys)) => {
            let xs: std::collections::BTreeSet<&str> = xs.iter().map(|&s| al_a.name(s)).collect();
            let ys: std::collections::BTreeSet<&str> = ys.iter().map(|&s| al_b.name(s)).collect();
            match (ys.is_subset(&xs), xs.is_subset(&ys)) {
                (true, true) => Relation::Equal,
                (true, false) => Relation::Stricter,
                (false, true) => Relation::Looser,
                (false, false) => Relation::Incomparable,
            }
        }
        (C::Children(ra), C::Children(rb)) => compare_regexes(ra, al_a, rb, al_b),
        // A content model vs no-children: the childless side's language is
        // {ε}, which a nullable model strictly contains (paper REs always
        // accept at least one non-empty word).
        (C::Children(ra), C::Empty | C::PcData) => {
            if ra.nullable() {
                Relation::Stricter
            } else {
                Relation::Incomparable
            }
        }
        (C::Empty | C::PcData, C::Children(rb)) => {
            if rb.nullable() {
                Relation::Looser
            } else {
                Relation::Incomparable
            }
        }
        // Mixed content interleaves text with elements; comparisons against
        // the remaining forms are not meaningful at the child-word level.
        (C::Mixed(_), _) | (_, C::Mixed(_)) => Relation::Incomparable,
    }
}

/// Language comparison of two expressions over (possibly) different
/// alphabets, by name-aligning the symbols into a common alphabet. Two
/// expressions that are the same symbol for symbol by name are `Equal`
/// without building an automaton, which is the common case when a schema
/// is compared with its own previous version.
pub fn compare_regexes(ra: &Regex, al_a: &Alphabet, rb: &Regex, al_b: &Alphabet) -> Relation {
    if same_expression(ra, al_a, rb, al_b) {
        return Relation::Equal;
    }
    let mut common = Alphabet::new();
    let map_a = remap(ra, al_a, &mut common);
    let map_b = remap(rb, al_b, &mut common);
    let alpha = joint_alphabet(&[&map_a.symbols(), &map_b.symbols()]);
    let da = Dfa::from_regex(&map_a, &alpha);
    let db = Dfa::from_regex(&map_b, &alpha);
    match (dfa_subset(&db, &da), dfa_subset(&da, &db)) {
        (true, true) => Relation::Equal,
        (true, false) => Relation::Stricter,
        (false, true) => Relation::Looser,
        (false, false) => Relation::Incomparable,
    }
}

/// Whether `ra` and `rb` are the same expression tree with the same
/// element name at every leaf.
fn same_expression(ra: &Regex, al_a: &Alphabet, rb: &Regex, al_b: &Alphabet) -> bool {
    let all_same = |xs: &[Regex], ys: &[Regex]| {
        xs.len() == ys.len()
            && xs
                .iter()
                .zip(ys)
                .all(|(x, y)| same_expression(x, al_a, y, al_b))
    };
    match (ra, rb) {
        (Regex::Symbol(x), Regex::Symbol(y)) => al_a.name(*x) == al_b.name(*y),
        (Regex::Concat(xs), Regex::Concat(ys)) | (Regex::Union(xs), Regex::Union(ys)) => {
            all_same(xs, ys)
        }
        (Regex::Optional(x), Regex::Optional(y))
        | (Regex::Plus(x), Regex::Plus(y))
        | (Regex::Star(x), Regex::Star(y)) => same_expression(x, al_a, y, al_b),
        _ => false,
    }
}

/// Rebuilds `r` over `common`, translating symbols by name.
fn remap(r: &Regex, from: &Alphabet, common: &mut Alphabet) -> Regex {
    match r {
        Regex::Symbol(s) => Regex::sym(common.intern(from.name(*s))),
        Regex::Concat(v) => Regex::concat(v.iter().map(|p| remap(p, from, common)).collect()),
        Regex::Union(v) => Regex::union(v.iter().map(|p| remap(p, from, common)).collect()),
        Regex::Optional(p) => Regex::optional(remap(p, from, common)),
        Regex::Plus(p) => Regex::plus(remap(p, from, common)),
        Regex::Star(p) => Regex::star(remap(p, from, common)),
    }
}

/// Convenience for reports: a word of element names rendered by the DTD
/// whose alphabet produced it.
pub fn render_word(al: &Alphabet, w: &Word) -> String {
    al.render_word(w, " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const PUBLISHED: &str = r#"
<!ELEMENT refinfo (authors, citation, volume?, month?, year)>
<!ELEMENT authors (#PCDATA)>
<!ELEMENT citation (#PCDATA)>
<!ELEMENT volume (#PCDATA)>
<!ELEMENT month (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT legacy EMPTY>
"#;

    const INFERRED: &str = r#"
<!ELEMENT refinfo (authors, citation, (volume | month), year)>
<!ELEMENT authors (#PCDATA)>
<!ELEMENT citation (#PCDATA)>
<!ELEMENT volume (#PCDATA)>
<!ELEMENT month (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT extra EMPTY>
"#;

    fn relation_of(diffs: &[ElementDiff], name: &str) -> Relation {
        diffs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .relation
    }

    #[test]
    fn refinfo_is_stricter() {
        let a = Dtd::parse(PUBLISHED).unwrap();
        let b = Dtd::parse(INFERRED).unwrap();
        let diffs = diff(&a, &b);
        assert_eq!(relation_of(&diffs, "refinfo"), Relation::Stricter);
        assert_eq!(relation_of(&diffs, "authors"), Relation::Equal);
        assert_eq!(relation_of(&diffs, "legacy"), Relation::OnlyInFirst);
        assert_eq!(relation_of(&diffs, "extra"), Relation::OnlyInSecond);
    }

    #[test]
    fn looser_and_incomparable() {
        let a = Dtd::parse("<!ELEMENT r (x, y)><!ELEMENT x EMPTY><!ELEMENT y EMPTY>").unwrap();
        let looser =
            Dtd::parse("<!ELEMENT r (x?, y?)><!ELEMENT x EMPTY><!ELEMENT y EMPTY>").unwrap();
        let incomp = Dtd::parse("<!ELEMENT r (y, x)><!ELEMENT x EMPTY><!ELEMENT y EMPTY>").unwrap();
        assert_eq!(relation_of(&diff(&a, &looser), "r"), Relation::Looser);
        assert_eq!(relation_of(&diff(&a, &incomp), "r"), Relation::Incomparable);
    }

    #[test]
    fn cross_alphabet_comparison() {
        // Same names, different intern orders must not matter.
        let a = Dtd::parse("<!ELEMENT r (b, a)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>").unwrap();
        let b = Dtd::parse("<!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT r (b, a)>").unwrap();
        let diffs = diff(&a, &b);
        assert_eq!(relation_of(&diffs, "r"), Relation::Equal);
    }

    #[test]
    fn empty_vs_nullable_children() {
        let a = Dtd::parse("<!ELEMENT r EMPTY>").unwrap();
        let b = Dtd::parse("<!ELEMENT r (x*)><!ELEMENT x EMPTY>").unwrap();
        // Second accepts ε plus more → looser.
        assert_eq!(relation_of(&diff(&a, &b), "r"), Relation::Looser);
        let c = Dtd::parse("<!ELEMENT r (x+)><!ELEMENT x EMPTY>").unwrap();
        assert_eq!(relation_of(&diff(&a, &c), "r"), Relation::Incomparable);
    }

    #[test]
    fn mixed_subset() {
        let a = Dtd::parse(
            "<!ELEMENT p (#PCDATA | em | strong)*><!ELEMENT em EMPTY><!ELEMENT strong EMPTY>",
        )
        .unwrap();
        let b =
            Dtd::parse("<!ELEMENT p (#PCDATA | em)*><!ELEMENT em EMPTY><!ELEMENT strong EMPTY>")
                .unwrap();
        assert_eq!(relation_of(&diff(&a, &b), "p"), Relation::Stricter);
    }
}
