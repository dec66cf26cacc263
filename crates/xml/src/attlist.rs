//! Attribute-list declarations: model, inference, validation.
//!
//! DTDs declare attributes per element via `<!ATTLIST>`; the paper's §9
//! datatype discussion ("heuristics to recognize times or dates, integers,
//! doubles, nmtokens and strings") applies to attribute values just as to
//! element text. Inference follows the same
//! specialization-over-generalization principle as the content models:
//!
//! * an attribute present on *every* occurrence of its element becomes
//!   `#REQUIRED`, otherwise `#IMPLIED`;
//! * a small closed set of NMTOKEN values becomes an enumeration
//!   `(v1 | v2 | …)`; otherwise `NMTOKEN` when every value is one,
//!   else `CDATA`.

use crate::datatype::{matches_type, XsdType};
use crate::samples::SampleBag;
use std::collections::BTreeSet;
use std::fmt;

/// The attribute type of a declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttType {
    /// `CDATA` — any character data.
    CData,
    /// `NMTOKEN` — a single name token.
    NmToken,
    /// `ID` — a document-unique identifier.
    Id,
    /// An enumerated choice `(v1 | v2 | …)`.
    Enumeration(Vec<String>),
}

impl fmt::Display for AttType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttType::CData => f.write_str("CDATA"),
            AttType::NmToken => f.write_str("NMTOKEN"),
            AttType::Id => f.write_str("ID"),
            AttType::Enumeration(values) => {
                write!(f, "({})", values.join(" | "))
            }
        }
    }
}

/// The default specification of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttDefault {
    /// `#REQUIRED` — must be present.
    Required,
    /// `#IMPLIED` — optional.
    Implied,
}

impl fmt::Display for AttDefault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttDefault::Required => f.write_str("#REQUIRED"),
            AttDefault::Implied => f.write_str("#IMPLIED"),
        }
    }
}

/// One attribute definition inside an `<!ATTLIST>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttDef {
    /// Attribute name.
    pub name: String,
    /// Declared type.
    pub ty: AttType,
    /// Default specification.
    pub default: AttDefault,
}

impl AttDef {
    /// Whether `value` conforms to the declared type.
    pub fn accepts(&self, value: &str) -> bool {
        match &self.ty {
            AttType::CData => true,
            AttType::NmToken | AttType::Id => matches_type(value, XsdType::NmToken),
            AttType::Enumeration(values) => values.iter().any(|v| v == value),
        }
    }
}

/// Maximum number of distinct values for an enumeration; beyond it the
/// type generalizes to NMTOKEN/CDATA.
pub const MAX_ENUMERATION: usize = 8;

/// Minimum number of observations per distinct value before an
/// enumeration is trusted (guards against enumerating IDs).
pub const MIN_SUPPORT_PER_VALUE: usize = 2;

/// Infers one attribute definition from observed values.
///
/// `values` holds one entry per element occurrence where the attribute was
/// present; `occurrences` is the total number of element occurrences.
pub fn infer_attdef(name: &str, values: &[String], occurrences: u64) -> AttDef {
    let default = if values.len() as u64 == occurrences && occurrences > 0 {
        AttDefault::Required
    } else {
        AttDefault::Implied
    };
    let all_nmtoken = values.iter().all(|v| matches_type(v, XsdType::NmToken));
    let distinct: BTreeSet<&String> = values.iter().collect();
    // All-distinct NMTOKEN values on every occurrence look like IDs.
    let id_like = all_nmtoken
        && default == AttDefault::Required
        && values.len() >= 3
        && distinct.len() == values.len();
    let ty = if id_like {
        AttType::Id
    } else if all_nmtoken
        && !values.is_empty()
        && distinct.len() <= MAX_ENUMERATION
        && values.len() >= distinct.len() * MIN_SUPPORT_PER_VALUE
    {
        AttType::Enumeration(distinct.into_iter().cloned().collect())
    } else if all_nmtoken && !values.is_empty() {
        AttType::NmToken
    } else {
        AttType::CData
    };
    AttDef {
        name: name.to_owned(),
        ty,
        default,
    }
}

/// [`infer_attdef`] over a bounded [`SampleBag`] instead of a value slice.
///
/// When the bag has not overflowed its cap this makes *exactly* the
/// decisions of the slice-based path: totals and per-value counts are
/// exact, and the NMTOKEN check rides the bag's exact viability mask.
/// When it has overflowed (more distinct values than the cap, which must
/// be ≥ [`MAX_ENUMERATION`]):
///
/// * enumeration is correctly ruled out — distinct > cap ≥ the maximum
///   enumeration size, so the slice path would reject it too;
/// * the ID heuristic's all-distinct test becomes evidence from a uniform
///   sample of the distinct values (retained counts all 1) instead of a
///   full scan — the only decision that is sampled rather than exact.
pub fn infer_attdef_from_bag(name: &str, values: &SampleBag, occurrences: u64) -> AttDef {
    let default = if values.total() == occurrences && occurrences > 0 {
        AttDefault::Required
    } else {
        AttDefault::Implied
    };
    let all_nmtoken = values.all_nmtoken();
    let id_like = all_nmtoken
        && default == AttDefault::Required
        && values.total() >= 3
        && values.looks_all_distinct();
    let ty = if id_like {
        AttType::Id
    } else if all_nmtoken
        && !values.is_empty()
        && !values.overflowed()
        && values.distinct_retained() <= MAX_ENUMERATION
        && values.total() >= (values.distinct_retained() * MIN_SUPPORT_PER_VALUE) as u64
    {
        AttType::Enumeration(values.entries().map(|(v, _)| v.to_owned()).collect())
    } else if all_nmtoken && !values.is_empty() {
        AttType::NmToken
    } else {
        AttType::CData
    };
    AttDef {
        name: name.to_owned(),
        ty,
        default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn required_vs_implied() {
        let always = infer_attdef("x", &strings(&["a", "b"]), 2);
        assert_eq!(always.default, AttDefault::Required);
        let sometimes = infer_attdef("x", &strings(&["a"]), 2);
        assert_eq!(sometimes.default, AttDefault::Implied);
    }

    #[test]
    fn enumeration_for_closed_sets() {
        let values = strings(&["red", "blue", "red", "red", "blue", "blue"]);
        let def = infer_attdef("color", &values, 6);
        assert_eq!(def.ty, AttType::Enumeration(strings(&["blue", "red"])));
        assert!(def.accepts("red"));
        assert!(!def.accepts("green"));
    }

    #[test]
    fn id_like_detection() {
        let values = strings(&["n1", "n2", "n3", "n4"]);
        let def = infer_attdef("id", &values, 4);
        assert_eq!(def.ty, AttType::Id);
    }

    #[test]
    fn nmtoken_fallback_for_wide_value_sets() {
        let values: Vec<String> = (0..40).map(|i| format!("v{}", i % 20)).collect();
        let def = infer_attdef("v", &values, 41);
        assert_eq!(def.ty, AttType::NmToken);
        assert_eq!(def.default, AttDefault::Implied);
    }

    #[test]
    fn cdata_for_free_text() {
        let values = strings(&["hello world", "two words"]);
        let def = infer_attdef("title", &values, 2);
        assert_eq!(def.ty, AttType::CData);
        assert!(def.accepts("anything at all"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttType::CData.to_string(), "CDATA");
        assert_eq!(
            AttType::Enumeration(strings(&["a", "b"])).to_string(),
            "(a | b)"
        );
        assert_eq!(AttDefault::Required.to_string(), "#REQUIRED");
    }

    #[test]
    fn empty_observations() {
        let def = infer_attdef("x", &[], 5);
        assert_eq!(def.default, AttDefault::Implied);
        assert_eq!(def.ty, AttType::CData);
        let bag = SampleBag::default();
        assert_eq!(infer_attdef_from_bag("x", &bag, 5), def);
    }

    #[test]
    fn bag_path_matches_slice_path_when_not_overflowed() {
        let cases: Vec<(Vec<String>, u64)> = vec![
            (strings(&["red", "blue", "red", "red", "blue", "blue"]), 6),
            (strings(&["n1", "n2", "n3", "n4"]), 4),
            (strings(&["a"]), 2),
            (strings(&["hello world", "two words"]), 2),
            ((0..40).map(|i| format!("v{}", i % 20)).collect(), 41),
            (strings(&["x", "x", "x"]), 3),
        ];
        for (values, occurrences) in cases {
            let mut bag = SampleBag::default();
            for v in &values {
                bag.insert(v);
            }
            assert!(!bag.overflowed());
            assert_eq!(
                infer_attdef_from_bag("a", &bag, occurrences),
                infer_attdef("a", &values, occurrences),
                "{values:?}"
            );
        }
    }

    #[test]
    fn overflowed_bag_never_enumerates() {
        // More distinct NMTOKEN values than the cap: enumeration is
        // impossible (distinct > cap ≥ MAX_ENUMERATION), NMTOKEN stands.
        let mut bag = SampleBag::default();
        for i in 0..(bag.cap() * 4) {
            bag.insert(&format!("v{i}"));
            bag.insert(&format!("v{i}")); // duplicate: defeats the ID heuristic
        }
        assert!(bag.overflowed());
        let def = infer_attdef_from_bag("v", &bag, bag.total());
        assert_eq!(def.ty, AttType::NmToken);
    }
}
