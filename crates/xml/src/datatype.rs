//! Built-in datatype heuristics (§9).
//!
//! "Improvements to the derivation of built-in data types can be made by
//! introducing heuristics to recognize times or dates, integers, doubles,
//! nmtokens and strings." Given the text samples of an element or
//! attribute, [`infer_datatype`] returns the most specific XSD built-in
//! that covers all of them.

/// The recognized XML Schema built-in datatypes, most-specific first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum XsdType {
    /// `xs:boolean` — true/false/0/1.
    Boolean,
    /// `xs:integer`.
    Integer,
    /// `xs:decimal` / `xs:double` lexical space.
    Double,
    /// `xs:date` — YYYY-MM-DD.
    Date,
    /// `xs:time` — HH:MM:SS(.fff)?.
    Time,
    /// `xs:dateTime` — date`T`time.
    DateTime,
    /// `xs:NMTOKEN` — name characters only, no spaces.
    NmToken,
    /// `xs:string` — anything.
    String,
}

impl XsdType {
    /// The `xs:…` name.
    pub fn xsd_name(self) -> &'static str {
        match self {
            XsdType::Boolean => "xs:boolean",
            XsdType::Integer => "xs:integer",
            XsdType::Double => "xs:double",
            XsdType::Date => "xs:date",
            XsdType::Time => "xs:time",
            XsdType::DateTime => "xs:dateTime",
            XsdType::NmToken => "xs:NMTOKEN",
            XsdType::String => "xs:string",
        }
    }
}

/// The datatypes the viability masks track, most specific first: bit `i`
/// of a mask stands for `ORDER[i]`. `xs:string` is the implicit fallback.
pub(crate) const ORDER: [XsdType; 7] = [
    XsdType::Boolean,
    XsdType::Integer,
    XsdType::Double,
    XsdType::Date,
    XsdType::Time,
    XsdType::DateTime,
    XsdType::NmToken,
];

/// All seven viability bits set: no value has ruled a type out yet.
pub(crate) const ALL_VIABLE: u8 = 0x7f;

/// Whether `s` lexically belongs to `t`.
pub fn matches_type(s: &str, t: XsdType) -> bool {
    match ORDER.iter().position(|&o| o == t) {
        Some(i) => classify(s, 1 << i) != 0,
        None => true,
    }
}

/// The bits of `viable` whose types `value` lexically belongs to. The
/// value is trimmed once, only the types still set in `viable` are
/// tested, and nothing is allocated: a reservoir calls this on every
/// observation, and most of its bits drop out after the first few values.
pub(crate) fn classify(value: &str, viable: u8) -> u8 {
    let s = value.trim().as_bytes();
    let mut left = viable & ALL_VIABLE;
    let mut kept = 0;
    while left != 0 {
        let i = left.trailing_zeros();
        left &= left - 1;
        let matches = match ORDER[i as usize] {
            XsdType::Boolean => matches!(s, b"true" | b"false" | b"0" | b"1"),
            XsdType::Integer => is_integer(s),
            XsdType::Double => is_double(s),
            XsdType::Date => is_date(s),
            XsdType::Time => is_time(s),
            XsdType::DateTime => s.get(10) == Some(&b'T') && is_date(&s[..10]) && is_time(&s[11..]),
            XsdType::NmToken => {
                !s.is_empty()
                    && s.iter().all(|&b| {
                        b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-')
                    })
            }
            XsdType::String => true,
        };
        if matches {
            kept |= 1 << i;
        }
    }
    kept
}

/// The most specific type a viability mask allows (`xs:string` when none).
pub(crate) fn most_specific(viable: u8) -> XsdType {
    ORDER
        .get(viable.trailing_zeros() as usize)
        .copied()
        .unwrap_or(XsdType::String)
}

fn all_digits(s: &[u8]) -> bool {
    s.iter().all(u8::is_ascii_digit)
}

/// `s` without one leading `+` or `-`.
fn unsigned(s: &[u8]) -> &[u8] {
    match s {
        [b'+' | b'-', rest @ ..] => rest,
        _ => s,
    }
}

fn is_integer(s: &[u8]) -> bool {
    let body = unsigned(s);
    !body.is_empty() && all_digits(body)
}

/// The xs:double lexical space: an optional sign, digits with an
/// optional fraction (one side may be empty, not both), an optional
/// exponent with its own sign; also `INF`, `-INF` and `NaN`.
fn is_double(s: &[u8]) -> bool {
    if matches!(s, b"INF" | b"-INF" | b"NaN") {
        return true;
    }
    let body = unsigned(s);
    let (mantissa, exponent) = match body.iter().position(|&b| matches!(b, b'e' | b'E')) {
        Some(at) => (&body[..at], Some(&body[at + 1..])),
        None => (body, None),
    };
    let int = mantissa.iter().take_while(|b| b.is_ascii_digit()).count();
    let mantissa_ok = match &mantissa[int..] {
        [] => int > 0,
        [b'.', frac @ ..] => all_digits(frac) && (int > 0 || !frac.is_empty()),
        _ => false,
    };
    mantissa_ok && exponent.is_none_or(is_integer)
}

/// `YYYY-MM-DD` with month 01–12 and day 01–31.
fn is_date(s: &[u8]) -> bool {
    let [y0, y1, y2, y3, b'-', m0, m1, b'-', d0, d1] = *s else {
        return false;
    };
    all_digits(&[y0, y1, y2, y3, m0, m1, d0, d1])
        && (1..=12).contains(&two_digits(m0, m1))
        && (1..=31).contains(&two_digits(d0, d1))
}

/// `hh:mm:ss` below 24:00:00, then optionally `.` and at least one digit.
fn is_time(s: &[u8]) -> bool {
    let Some((&[h0, h1, b':', m0, m1, b':', s0, s1], frac)) = s.split_first_chunk::<8>() else {
        return false;
    };
    all_digits(&[h0, h1, m0, m1, s0, s1])
        && two_digits(h0, h1) < 24
        && two_digits(m0, m1) < 60
        && two_digits(s0, s1) < 60
        && match frac {
            [] => true,
            [b'.', digits @ ..] => !digits.is_empty() && all_digits(digits),
            _ => false,
        }
}

/// The value of two ASCII digits.
fn two_digits(tens: u8, ones: u8) -> u8 {
    (tens - b'0') * 10 + (ones - b'0')
}

/// The most specific type covering every sample (preference order:
/// boolean, integer, double, date, time, dateTime, NMTOKEN, string).
/// Empty sample sets default to `xs:string`.
pub fn infer_datatype<'a, I>(samples: I) -> XsdType
where
    I: IntoIterator<Item = &'a str>,
{
    let mut viable = ALL_VIABLE;
    let mut any = false;
    for s in samples {
        any = true;
        viable = classify(s, viable);
    }
    if any {
        most_specific(viable)
    } else {
        XsdType::String
    }
}

/// The matchers [`classify`] replaced, one call per type with its own
/// trim and splits: the oracle the classifier is checked against.
#[cfg(test)]
mod reference {
    use super::XsdType;

    pub fn matches_type(s: &str, t: XsdType) -> bool {
        let s = s.trim();
        match t {
            XsdType::Boolean => matches!(s, "true" | "false" | "0" | "1"),
            XsdType::Integer => {
                let body = s.strip_prefix(['+', '-']).unwrap_or(s);
                !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit())
            }
            XsdType::Double => is_double(s),
            XsdType::Date => is_date(s),
            XsdType::Time => is_time(s),
            XsdType::DateTime => s
                .split_once('T')
                .is_some_and(|(d, t)| is_date(d) && is_time(t)),
            XsdType::NmToken => {
                !s.is_empty()
                    && s.bytes().all(|b| {
                        b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-')
                    })
            }
            XsdType::String => true,
        }
    }

    fn is_double(s: &str) -> bool {
        if s.is_empty() {
            return false;
        }
        if matches!(s, "INF" | "-INF" | "NaN") {
            return true;
        }
        let body = s.strip_prefix(['+', '-']).unwrap_or(s);
        let (mantissa, exponent) = match body.split_once(['e', 'E']) {
            Some((m, e)) => (m, Some(e)),
            None => (body, None),
        };
        let mantissa_ok = match mantissa.split_once('.') {
            Some((int, frac)) => {
                (!int.is_empty() || !frac.is_empty())
                    && int.bytes().all(|b| b.is_ascii_digit())
                    && frac.bytes().all(|b| b.is_ascii_digit())
                    && !(int.is_empty() && frac.is_empty())
            }
            None => !mantissa.is_empty() && mantissa.bytes().all(|b| b.is_ascii_digit()),
        };
        let exponent_ok = exponent.is_none_or(|e| {
            let e = e.strip_prefix(['+', '-']).unwrap_or(e);
            !e.is_empty() && e.bytes().all(|b| b.is_ascii_digit())
        });
        mantissa_ok && exponent_ok
    }

    fn is_date(s: &str) -> bool {
        let parts: Vec<&str> = s.split('-').collect();
        parts.len() == 3
            && parts[0].len() == 4
            && parts[1].len() == 2
            && parts[2].len() == 2
            && parts.iter().all(|p| p.bytes().all(|b| b.is_ascii_digit()))
            && (1..=12).contains(&parts[1].parse::<u32>().unwrap_or(0))
            && (1..=31).contains(&parts[2].parse::<u32>().unwrap_or(0))
    }

    fn is_time(s: &str) -> bool {
        let (hms, frac) = match s.split_once('.') {
            Some((h, f)) => (h, Some(f)),
            None => (s, None),
        };
        let parts: Vec<&str> = hms.split(':').collect();
        parts.len() == 3
            && parts
                .iter()
                .all(|p| p.len() == 2 && p.bytes().all(|b| b.is_ascii_digit()))
            && parts[0].parse::<u32>().unwrap_or(99) < 24
            && parts[1].parse::<u32>().unwrap_or(99) < 60
            && parts[2].parse::<u32>().unwrap_or(99) < 60
            && frac.is_none_or(|f| !f.is_empty() && f.bytes().all(|b| b.is_ascii_digit()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn integers() {
        assert_eq!(infer_datatype(["1", "-42", "+7"]), XsdType::Integer);
        assert_eq!(infer_datatype(["1", "2.5"]), XsdType::Double);
    }

    #[test]
    fn booleans() {
        assert_eq!(infer_datatype(["true", "false"]), XsdType::Boolean);
        // 0/1 alone are boolean-viable (most specific wins).
        assert_eq!(infer_datatype(["0", "1"]), XsdType::Boolean);
        assert_eq!(infer_datatype(["0", "2"]), XsdType::Integer);
    }

    #[test]
    fn doubles() {
        assert_eq!(
            infer_datatype(["1.5", "-0.25", "3e8", "NaN"]),
            XsdType::Double
        );
        assert!(!matches_type("1.2.3", XsdType::Double));
        assert!(!matches_type("e8", XsdType::Double));
        assert!(matches_type(".5", XsdType::Double));
    }

    #[test]
    fn dates_times() {
        assert_eq!(infer_datatype(["2006-09-12", "2006-09-15"]), XsdType::Date);
        assert_eq!(infer_datatype(["23:59:59", "00:00:00.5"]), XsdType::Time);
        assert_eq!(infer_datatype(["2006-09-12T10:30:00"]), XsdType::DateTime);
        assert!(!matches_type("2006-13-01", XsdType::Date));
        assert!(!matches_type("24:00:00", XsdType::Time));
    }

    #[test]
    fn nmtoken_and_string() {
        assert_eq!(infer_datatype(["abc", "a-b_c.1"]), XsdType::NmToken);
        assert_eq!(infer_datatype(["two words"]), XsdType::String);
        assert_eq!(infer_datatype(["abc", "two words"]), XsdType::String);
    }

    #[test]
    fn empty_is_string() {
        assert_eq!(infer_datatype(std::iter::empty::<&str>()), XsdType::String);
    }

    #[test]
    fn mixed_specificity() {
        // dates are NMTOKEN-shaped too; Date is preferred because it is
        // checked first among the viable ones... but both stay viable, and
        // Integer/Boolean/Double drop out.
        assert_eq!(infer_datatype(["2006-09-12"]), XsdType::Date);
    }

    /// The reference matchers' verdicts as a viability mask.
    fn reference_mask(value: &str) -> u8 {
        ORDER
            .iter()
            .enumerate()
            .filter(|&(_, &t)| reference::matches_type(value, t))
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }

    /// `classify` equals the reference under every 7-bit viability mask.
    fn assert_matches_reference(value: &str) {
        let full = reference_mask(value);
        for viable in 0..=ALL_VIABLE {
            assert_eq!(
                classify(value, viable),
                viable & full,
                "{value:?} under mask {viable:#09b}"
            );
        }
    }

    /// ASCII and Unicode padding; `str::trim` strips all but the last two.
    const PADS: &[&str] = &[
        "", " ", "\t", "\n ", "\u{a0}", "\u{2003}", "\u{3000}", "\u{feff}", "x",
    ];
    const SIGNS: &[&str] = &["", "+", "-", "++", "+-", "-+"];
    const MANTISSAS: &[&str] = &[
        "0", "1", "42", ".5", "5.", ".", "", "1.5", "1.2.3", "0x1", "1_000", "٣", "５", "INF",
        "NaN",
    ];
    const EXPONENTS: &[&str] = &["", "e", "E", "e5", "E-3", "e+", "e+07", "e1.5", "ee5", "e٣"];
    const YEARS: &[&str] = &["2006", "0000", "206", "20061", "２006", "-2006", "+2006"];
    const FRACTIONS: &[&str] = &["", ".", ".5", ".123", ".x", "..5", ".5.5", ".٣", ":00", "Z"];
    const SEPARATORS: &[&str] = &["T", "t", " ", "TT", "T ", ""];
    /// Splice material: every type's separators, signs and digits, words
    /// and non-ASCII digits.
    const PIECES: &[&str] = &[
        "0", "1", "5", "00", "12", "13", "24", "31", "32", "59", "60", "2006", "+", "-", ".", ":",
        "e", "E", "T", " ", "\u{a0}", "٣", "５", "INF", "NaN", "true", "false", "True", "a", "_",
        "é",
    ];

    /// Values one step away from some datatype: numbers with zero to two
    /// signs, `.5`/`5.`/`.` mantissas and exponents with and without
    /// digits; dates with months 00–13 and days 00–32; times with hours
    /// to 25, minutes and seconds to 61 and empty or non-digit fractions;
    /// dateTimes with one bad half or separator; and free splices.
    fn near_miss() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..SIGNS.len(), 0..MANTISSAS.len(), 0..EXPONENTS.len())
                .prop_map(|(s, m, e)| format!("{}{}{}", SIGNS[s], MANTISSAS[m], EXPONENTS[e])),
            (0..YEARS.len(), 0u32..14, 0u32..33)
                .prop_map(|(y, m, d)| format!("{}-{m:02}-{d:02}", YEARS[y])),
            (0u32..26, 0u32..62, 0u32..62, 0..FRACTIONS.len())
                .prop_map(|(h, m, s, f)| format!("{h:02}:{m:02}:{s:02}{}", FRACTIONS[f])),
            (
                (0u32..14, 0u32..33),
                (0u32..26, 0u32..62),
                0..SEPARATORS.len()
            )
                .prop_map(|((mo, d), (h, mi), sep)| {
                    format!("2006-{mo:02}-{d:02}{}{h:02}:{mi:02}:30", SEPARATORS[sep])
                }),
            prop::collection::vec(0..PIECES.len(), 0..6)
                .prop_map(|ix| ix.iter().map(|&i| PIECES[i]).collect::<String>()),
        ]
    }

    fn padded() -> impl Strategy<Value = String> {
        (0..PADS.len(), near_miss(), 0..PADS.len())
            .prop_map(|(a, core, b)| format!("{}{core}{}", PADS[a], PADS[b]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn classifier_matches_the_reference_matchers(value in padded()) {
            assert_matches_reference(&value);
        }
    }

    #[test]
    fn classifier_matches_the_reference_on_named_near_misses() {
        let cases = [
            "",
            " ",
            "true",
            " false\t",
            "True",
            "0",
            "1",
            "01",
            "+1",
            "-0",
            "++1",
            "+-1",
            "+",
            "-",
            "\u{a0}42\u{2003}",
            "\u{feff}42",
            "٣",
            "1٣",
            "５",
            ".5",
            "5.",
            ".",
            "-.5",
            "+5.",
            "1e5",
            "1e",
            "1E+",
            "1e+5",
            "1e-5.0",
            "e5",
            ".e5",
            "5.e5",
            "INF",
            "-INF",
            "+INF",
            "NaN",
            "-NaN",
            "inf",
            "1.2.3",
            "2006-09-12",
            "2006-00-12",
            "2006-13-12",
            "2006-09-00",
            "2006-09-32",
            "2006-09-31",
            "2006-9-12",
            "-2006-09-12",
            "２006-09-12",
            "23:59:59",
            "24:00:00",
            "23:60:00",
            "23:59:60",
            "00:00:00.5",
            "00:00:00.",
            "00:00:00.x",
            "00:00:00.5.5",
            "0:00:00",
            "00:00:00Z",
            "2006-09-12T10:30:00",
            "2006-13-12T10:30:00",
            "2006-09-12T24:30:00",
            "2006-09-12T10:30",
            "2006-09-12 10:30:00",
            "2006-09-12TT10:30:00",
            "2006-09-12t10:30:00",
            "2006-09-12T10:30:00.25",
            "a-b_c.1",
            "x:y",
            "two words",
            "é",
        ];
        for value in cases {
            assert_matches_reference(value);
        }
        // The list holds accepted and rejected values of every type, so
        // neither side of any bit goes unchecked.
        for (i, ty) in ORDER.iter().enumerate() {
            assert!(
                cases.iter().any(|v| reference_mask(v) & 1 << i != 0),
                "{ty:?}"
            );
            assert!(
                cases.iter().any(|v| reference_mask(v) & 1 << i == 0),
                "{ty:?}"
            );
        }
    }

    #[test]
    fn matches_type_keeps_the_string_fallback() {
        for value in ["", "anything at all", "42"] {
            assert!(matches_type(value, XsdType::String));
        }
    }
}
