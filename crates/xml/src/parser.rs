//! A streaming, zero-copy XML pull parser.
//!
//! Hand-written, dependency-free, and scoped to what schema inference
//! needs: well-formed element structure, attributes, character data (with
//! predefined and numeric entity decoding; unknown and malformed
//! references, and references to code points XML does not allow as
//! characters, pass through as literal text), CDATA sections, comments,
//! processing instructions, and DOCTYPE declarations (skipped, including
//! internal subsets). It checks tag balance — mismatched or dangling tags
//! are errors — but does not validate against any schema; that is the job
//! of [`crate::dtd`].
//!
//! Events *borrow* from the input buffer: names are `&'a str` slices,
//! text and attribute values are [`Cow`]s that only allocate when entity
//! decoding actually rewrites bytes, and skipped constructs (comments,
//! processing instructions, DOCTYPE) are raw slices that never
//! materialize. The paper's premise (§9) is that the generating XML can be
//! discarded as data trickles in; the parser's job is to touch it exactly
//! once on the way through.

use crate::scan;
use std::borrow::Cow;
use std::fmt;

/// A parse event, borrowing from the document buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// `<name attr="v" …>`; `self_closing` for `<name … />`.
    StartElement {
        /// Element name (a slice of the input).
        name: &'a str,
        /// Attributes in document order; values are borrowed unless entity
        /// decoding forced an allocation.
        attributes: Vec<(&'a str, Cow<'a, str>)>,
        /// Whether the tag closed itself (`<a/>`); an `EndElement` is still
        /// emitted.
        self_closing: bool,
    },
    /// `</name>` (also emitted after a self-closing tag).
    EndElement {
        /// Element name.
        name: &'a str,
    },
    /// Character data (entity-decoded) or CDATA content.
    Text(Cow<'a, str>),
    /// `<!-- … -->` content, as a raw slice (never allocated).
    Comment(&'a str),
    /// `<?target data?>`, as a raw slice (never allocated).
    ProcessingInstruction(&'a str),
    /// A `<!DOCTYPE …>` declaration was skipped; the raw slice.
    Doctype(&'a str),
}

/// Parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column (in bytes) of the error.
    pub column: usize,
    /// Description.
    pub message: String,
    /// The originating document (file path or another caller-supplied
    /// label), when known. Attached by [`XmlError::with_source`]; `None`
    /// straight out of the parser.
    pub source: Option<String>,
}

impl XmlError {
    /// Attaches the originating document name (usually a file path) if one
    /// is not already recorded.
    pub fn with_source(mut self, source: &str) -> XmlError {
        if self.source.is_none() {
            self.source = Some(source.to_owned());
        }
        self
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(source) = &self.source {
            write!(f, "{source}: ")?;
        }
        write!(
            f,
            "XML error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// Pull parser over a full document held in memory.
pub struct XmlPullParser<'a> {
    input: &'a str,
    pos: usize,
    /// Open-element stack for well-formedness checking (slices of the
    /// input — the stack never copies names).
    stack: Vec<&'a str>,
    /// Pending synthetic end event after a self-closing tag.
    pending_end: Option<&'a str>,
    finished: bool,
}

impl<'a> XmlPullParser<'a> {
    /// Creates a parser over `input`. Entity handling is lenient (unknown
    /// and malformed references pass through verbatim, as §9's noisy
    /// real-world data requires).
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            stack: Vec::new(),
            pending_end: None,
            finished: false,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    /// An error at the current position, with its line and column.
    fn err<T>(&self, message: &str) -> Result<T, XmlError> {
        let offset = self.pos.min(self.input.len());
        let before = &self.bytes()[..offset];
        let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
        let column = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|i| offset - i)
            .unwrap_or(offset + 1);
        Err(XmlError {
            offset,
            line,
            column,
            message: message.to_owned(),
            source: None,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Returns the slice up to (excluding) `delim` and skips past it. All
    /// delimiters are ASCII, so the slice boundaries are char boundaries.
    fn take_until(&mut self, delim: &str) -> Result<&'a str, XmlError> {
        match scan::next_subslice(self.bytes(), self.pos, delim.as_bytes()) {
            Some(i) => {
                let content = &self.input[self.pos..i];
                self.pos = i + delim.len();
                Ok(content)
            }
            None => self.err(&format!("unterminated construct (expected {delim:?})")),
        }
    }

    /// [`XmlPullParser::take_until`] for a single-byte delimiter (the
    /// attribute-value quote). One fused SWAR scan finds the delimiter and
    /// reports whether the content holds an '&' — entity-free values (the
    /// common case) then skip the decoder's rescan entirely.
    fn take_until_byte(&mut self, delim: u8) -> Result<(&'a str, bool), XmlError> {
        let bytes = self.bytes();
        let (end, has_amp) = match scan::next_byte2(bytes, self.pos, delim, b'&') {
            Some(i) if bytes[i] == delim => (Some(i), false),
            Some(amp) => (scan::next_byte(bytes, amp + 1, delim), true),
            None => (None, false),
        };
        match end {
            Some(i) => {
                let content = &self.input[self.pos..i];
                self.pos = i + 1;
                Ok((content, has_amp))
            }
            None => self.err(&format!(
                "unterminated construct (expected {:?})",
                char::from(delim)
            )),
        }
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        let tail = &self.bytes()[start..];
        let len = tail
            .iter()
            .position(|&c| !is_name_char(c))
            .unwrap_or(tail.len());
        if len == 0 {
            return self.err("expected a name");
        }
        self.pos = start + len;
        // Name scanning stops at an ASCII delimiter and non-ASCII bytes
        // are all name characters, so both ends are char boundaries.
        Ok(&self.input[start..self.pos])
    }

    /// Pulls the next event; `Ok(None)` at end of input (only legal once all
    /// elements are closed).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<XmlEvent<'a>>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            return Ok(Some(XmlEvent::EndElement { name }));
        }
        if self.finished {
            return Ok(None);
        }
        loop {
            if self.pos >= self.input.len() {
                if let Some(open) = self.stack.last() {
                    return self.err(&format!("unexpected end of input: <{open}> not closed"));
                }
                self.finished = true;
                return Ok(None);
            }
            if self.peek() == Some(b'<') {
                return self.parse_markup().map(Some);
            }
            // Character data up to the next '<'. One fused SWAR run finds
            // the end of the run and learns on the way whether it contains
            // an '&' — entity-free text (the common case) is then borrowed
            // without the decoder rescanning it.
            let start = self.pos;
            let bytes = self.bytes();
            let (end, has_amp) = match scan::next_byte2(bytes, start, b'<', b'&') {
                Some(i) if bytes[i] == b'<' => (i, false),
                Some(amp) => (
                    scan::next_byte(bytes, amp + 1, b'<').unwrap_or(bytes.len()),
                    true,
                ),
                None => (bytes.len(), false),
            };
            self.pos = end;
            let raw = &self.input[start..end];
            if self.stack.is_empty() {
                if raw.trim().is_empty() {
                    continue; // whitespace between prolog and root
                }
                return self.err("character data outside the root element");
            }
            return Ok(Some(XmlEvent::Text(if has_amp {
                decode_entities_cow(raw)
            } else {
                Cow::Borrowed(raw)
            })));
        }
    }

    fn parse_markup(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        // Dispatch on the byte after '<'. Start and end tags are the
        // overwhelming majority of markup, so they must not pay a chain
        // of literal-prefix comparisons against every rare construct.
        match self.bytes().get(self.pos + 1) {
            Some(b'!') | Some(b'?') => self.parse_declaration(),
            Some(b'/') => {
                self.pos += 2;
                // Fast path: a well-formed end tag names the innermost
                // open element with no stray whitespace, so one slice
                // compare against the stack top replaces the name scan.
                if let Some(&open) = self.stack.last() {
                    let end = self.pos + open.len();
                    if self.bytes().get(end) == Some(&b'>')
                        && self.bytes()[self.pos..end] == *open.as_bytes()
                    {
                        self.pos = end + 1;
                        self.stack.pop();
                        return Ok(XmlEvent::EndElement { name: open });
                    }
                }
                let name = self.read_name()?;
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return self.err("expected '>' in end tag");
                }
                self.pos += 1;
                match self.stack.pop() {
                    Some(open) if open == name => Ok(XmlEvent::EndElement { name }),
                    Some(open) => self.err(&format!("mismatched end tag </{name}>, open <{open}>")),
                    None => self.err(&format!("end tag </{name}> without open element")),
                }
            }
            _ => self.parse_start_tag(),
        }
    }

    /// The rare markup constructs behind `<!` and `<?`: comments, CDATA,
    /// DOCTYPE, and processing instructions. Off the tag hot path, so the
    /// literal-prefix chain is fine here.
    fn parse_declaration(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        if self.starts_with("<!--") {
            self.pos += 4;
            let content = self.take_until("-->")?;
            return Ok(XmlEvent::Comment(content));
        }
        if self.starts_with("<![CDATA[") {
            self.pos += 9;
            let content = self.take_until("]]>")?;
            if self.stack.is_empty() {
                return self.err("CDATA outside the root element");
            }
            return Ok(XmlEvent::Text(Cow::Borrowed(content)));
        }
        if self.starts_with("<?") {
            self.pos += 2;
            let content = self.take_until("?>")?;
            return Ok(XmlEvent::ProcessingInstruction(content));
        }
        if self.starts_with("<!DOCTYPE") {
            return self.parse_doctype();
        }
        // `<!` followed by anything else falls through to the start-tag
        // parser, which rejects `!` with the pre-dispatch error message.
        self.parse_start_tag()
    }

    fn parse_start_tag(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        self.pos += 1; // consume '<'
        let name = self.read_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    self.stack.push(name);
                    return Ok(XmlEvent::StartElement {
                        name,
                        attributes,
                        self_closing: false,
                    });
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return self.err("expected '>' after '/'");
                    }
                    self.pos += 1;
                    self.pending_end = Some(name);
                    return Ok(XmlEvent::StartElement {
                        name,
                        attributes,
                        self_closing: true,
                    });
                }
                Some(c) if is_name_char(c) => {
                    let attr = self.read_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return self.err("expected '=' after attribute name");
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return self.err("expected quoted attribute value"),
                    };
                    self.pos += 1;
                    let (value, has_amp) = self.take_until_byte(quote)?;
                    attributes.push((
                        attr,
                        if has_amp {
                            decode_entities_cow(value)
                        } else {
                            Cow::Borrowed(value)
                        },
                    ));
                }
                _ => return self.err("malformed start tag"),
            }
        }
    }

    fn parse_doctype(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        let start = self.pos;
        self.pos += "<!DOCTYPE".len();
        // Scan to the matching '>', skipping an internal subset in [...]
        // and quoted strings.
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            match c {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'"' | b'\'' => {
                    let quote = c;
                    self.pos += 1;
                    while let Some(c2) = self.peek() {
                        if c2 == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(XmlEvent::Doctype(&self.input[start..self.pos]));
                }
                _ => {}
            }
            self.pos += 1;
        }
        self.err("unterminated DOCTYPE")
    }

    /// Drains the parser into an event vector.
    pub fn collect_events(mut self) -> Result<Vec<XmlEvent<'a>>, XmlError> {
        let mut out = Vec::new();
        while let Some(ev) = self.next()? {
            out.push(ev);
        }
        Ok(out)
    }
}

/// Name-character set as a flat table: `read_name` runs once per tag and
/// attribute, so its per-byte test must be one load, not a chain of range
/// compares. Non-ASCII bytes are accepted as name characters: XML names
/// may use the full Unicode letter range, and passing UTF-8 continuation
/// bytes through keeps multi-byte names intact without a full table.
static NAME_CHAR: [bool; 256] = {
    let mut t = [false; 256];
    let mut c = 0usize;
    while c < 256 {
        let b = c as u8;
        t[c] = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-') || b >= 0x80;
        c += 1;
    }
    t
};

#[inline(always)]
fn is_name_char(c: u8) -> bool {
    NAME_CHAR[c as usize]
}

/// Escapes the five predefined XML entities so `s` can be embedded in
/// character data or a double-quoted attribute value.
pub fn encode_entities(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Resolves the reference at the start of `rest` (which starts with `&`)
/// to its character and its length in bytes. A reference is `&#` and
/// decimal digits, `&#x` (or `&#X`) and hex digits, or one of the five
/// predefined entity names, ended by `;`. The scan stops where that
/// syntax does, so it reads the reference's own bytes and at most one
/// more. `None` for a malformed or unknown reference, and for one naming
/// a code point that is not an XML `Char` (§2.2: no NUL, no C0 control
/// but tab, LF and CR, no surrogate, U+FFFE or U+FFFF).
fn resolve_reference(rest: &[u8]) -> Option<(char, usize)> {
    if rest.get(1) != Some(&b'#') {
        let end = 1 + rest[1..].iter().take_while(|&&b| is_name_char(b)).count();
        let c = match (&rest[1..end], rest.get(end)) {
            (b"lt", Some(b';')) => '<',
            (b"gt", Some(b';')) => '>',
            (b"amp", Some(b';')) => '&',
            (b"apos", Some(b';')) => '\'',
            (b"quot", Some(b';')) => '"',
            _ => return None,
        };
        return Some((c, end + 1));
    }
    let (start, radix) = match rest.get(2) {
        Some(b'x' | b'X') => (3, 16),
        _ => (2, 10),
    };
    let digits = rest[start..]
        .iter()
        .take_while(|&&b| char::from(b).is_digit(radix))
        .count();
    let end = start + digits;
    if digits == 0 || rest.get(end) != Some(&b';') {
        return None;
    }
    // Leading zeros are free; a value past `u32` is no character anyway.
    let code = rest[start..end].iter().try_fold(0u32, |code, &b| {
        let digit = char::from(b).to_digit(radix)?;
        code.checked_mul(radix)?.checked_add(digit)
    })?;
    let c = char::from_u32(code).filter(|c| {
        matches!(c, '\t' | '\n' | '\r' | ' '..='\u{D7FF}' | '\u{E000}'..='\u{FFFD}' | '\u{10000}'..)
    })?;
    Some((c, end + 1))
}

/// Decodes the predefined XML entities and numeric character references
/// of any length. Unknown and malformed references, and references to
/// code points that are not XML characters, pass through verbatim
/// (lenient, as the noisy real-world data of §9 requires). Borrows `s`
/// when it contains no ampersand (the common case on real data),
/// allocating only when a reference actually has to be rewritten. The gate and the
/// reference loop both skip between ampersands with the SWAR scanner.
pub fn decode_entities_cow(s: &str) -> Cow<'_, str> {
    if scan::next_byte(s.as_bytes(), 0, b'&').is_none() {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = scan::next_byte(rest.as_bytes(), 0, b'&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        match resolve_reference(rest.as_bytes()) {
            Some((c, len)) => {
                out.push(c);
                rest = &rest[len..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(doc: &str) -> Vec<XmlEvent<'_>> {
        XmlPullParser::new(doc).collect_events().expect("parse")
    }

    fn names(doc: &str) -> Vec<String> {
        events(doc)
            .into_iter()
            .filter_map(|e| match e {
                XmlEvent::StartElement { name, .. } => Some(name.to_owned()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn simple_document() {
        let evs = events("<a><b>hi</b><c/></a>");
        assert_eq!(evs.len(), 7);
        assert!(matches!(&evs[0], XmlEvent::StartElement { name, .. } if *name == "a"));
        assert!(matches!(&evs[2], XmlEvent::Text(t) if t == "hi"));
        assert!(matches!(
            &evs[4],
            XmlEvent::StartElement {
                self_closing: true,
                ..
            }
        ));
        assert!(matches!(&evs[5], XmlEvent::EndElement { name } if *name == "c"));
    }

    #[test]
    fn attributes_parsed() {
        let evs = events(r#"<a x="1" y='two &amp; three'/>"#);
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].0, "x");
                assert_eq!(attributes[0].1, "1");
                assert_eq!(attributes[1].1, "two & three");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn borrowed_events_do_not_allocate_for_plain_content() {
        let doc = r#"<a x="plain">text</a>"#;
        for ev in events(doc) {
            match ev {
                XmlEvent::Text(t) => assert!(matches!(t, Cow::Borrowed(_)), "{t:?}"),
                XmlEvent::StartElement { attributes, .. } => {
                    for (_, v) in &attributes {
                        assert!(matches!(v, Cow::Borrowed(_)), "{v:?}");
                    }
                }
                _ => {}
            }
        }
        // Entity decoding is the one thing that forces an allocation.
        let evs = events("<a>x &amp; y</a>");
        assert!(matches!(&evs[1], XmlEvent::Text(Cow::Owned(_))));
    }

    #[test]
    fn prolog_comment_pi_doctype() {
        let doc = r#"<?xml version="1.0"?>
<!-- a comment -->
<!DOCTYPE root [ <!ELEMENT root (#PCDATA)> ]>
<root>x</root>"#;
        let evs = events(doc);
        assert!(matches!(&evs[0], XmlEvent::ProcessingInstruction(p) if p.starts_with("xml")));
        assert!(matches!(&evs[1], XmlEvent::Comment(c) if c.contains("a comment")));
        assert!(matches!(&evs[2], XmlEvent::Doctype(d) if d.contains("#PCDATA")));
        assert_eq!(names(doc), vec!["root"]);
    }

    #[test]
    fn cdata_is_text() {
        let evs = events("<a><![CDATA[<not-a-tag> & raw]]></a>");
        assert!(matches!(&evs[1], XmlEvent::Text(t) if t == "<not-a-tag> & raw"));
        // CDATA content is never decoded, hence never copied.
        assert!(matches!(&evs[1], XmlEvent::Text(Cow::Borrowed(_))));
    }

    #[test]
    fn encode_decode_round_trip() {
        for text in ["a < b & c > d", "\"quoted\" & 'apos'", "plain", "ü ≤ €"] {
            assert_eq!(decode_entities_cow(&encode_entities(text)), text);
        }
    }

    #[test]
    fn entity_decoding() {
        assert_eq!(
            decode_entities_cow("a &lt; b &gt; c &amp; &quot;d&quot;"),
            "a < b > c & \"d\""
        );
        assert_eq!(decode_entities_cow("&#65;&#x42;"), "AB");
        assert_eq!(decode_entities_cow("&unknown; & bare"), "&unknown; & bare");
    }

    #[test]
    fn references_decode_by_their_own_syntax() {
        for (input, decoded) in [
            // Well-formed references decode whatever their length.
            ("&#0000000000065;", "A"),
            ("&#x000000000041;", "A"),
            ("&#65;&#x42;&#X43;", "ABC"),
            ("&#x1F600;", "\u{1F600}"),
            ("&#9;&#xA;&#13;", "\t\n\r"),
            ("&&lt;&amp;amp;", "&<&amp;"),
            ("&averyveryverylongname;&gt;", "&averyveryverylongname;>"),
            // Code points XML does not allow as characters stay literal.
            ("&#0;", "&#0;"),
            ("&#x1F;", "&#x1F;"),
            ("&#xD800;", "&#xD800;"),
            ("&#xFFFE;", "&#xFFFE;"),
            ("&#x110000;", "&#x110000;"),
            ("&#99999999999;", "&#99999999999;"),
            // So do malformed and unknown references.
            ("&#;", "&#;"),
            ("&#x;", "&#x;"),
            ("&#+65;", "&#+65;"),
            ("&#65 ;", "&#65 ;"),
            ("&#6A;", "&#6A;"),
            ("&#65", "&#65"),
            ("&lt", "&lt"),
            ("&ltx;", "&ltx;"),
            ("& lt;", "& lt;"),
            ("a & b;", "a & b;"),
            ("&", "&"),
        ] {
            assert_eq!(decode_entities_cow(input), decoded, "{input}");
        }
    }

    #[test]
    fn cow_decoding_borrows_when_clean() {
        assert!(matches!(
            decode_entities_cow("no entities"),
            Cow::Borrowed(_)
        ));
        assert!(matches!(decode_entities_cow("a &amp; b"), Cow::Owned(_)));
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(XmlPullParser::new("<a><b></a></b>")
            .collect_events()
            .is_err());
        assert!(XmlPullParser::new("<a>").collect_events().is_err());
        assert!(XmlPullParser::new("</a>").collect_events().is_err());
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(XmlPullParser::new("hello <a/>").collect_events().is_err());
        // but whitespace is fine
        assert!(XmlPullParser::new("  \n<a/>\n  ").collect_events().is_ok());
    }

    #[test]
    fn nested_structure_names() {
        assert_eq!(names("<a><b><c/></b><b/></a>"), vec!["a", "b", "c", "b"]);
    }

    #[test]
    fn doctype_with_internal_subset_and_quotes() {
        let doc = r#"<!DOCTYPE r [ <!ENTITY e "<>"> ]><r/>"#;
        let evs = events(doc);
        assert!(matches!(&evs[0], XmlEvent::Doctype(_)));
        assert_eq!(names(doc), vec!["r"]);
    }

    #[test]
    fn malformed_attribute_rejected() {
        assert!(XmlPullParser::new("<a x=1/>").collect_events().is_err());
        assert!(XmlPullParser::new("<a x></a>").collect_events().is_err());
    }

    #[test]
    fn unterminated_comment_rejected() {
        assert!(XmlPullParser::new("<a><!-- oops</a>")
            .collect_events()
            .is_err());
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = XmlPullParser::new("<a>\n  <b>\n</a>")
            .collect_events()
            .unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn error_source_attribution() {
        let err = XmlPullParser::new("<a>").collect_events().unwrap_err();
        assert_eq!(err.source, None);
        let named = err.with_source("corpus/doc01.xml");
        assert!(
            named.to_string().starts_with("corpus/doc01.xml: XML error"),
            "{named}"
        );
        // An already-attributed error keeps its first source.
        assert_eq!(
            named.with_source("other.xml").source.as_deref(),
            Some("corpus/doc01.xml")
        );
    }

    #[test]
    fn namespaced_names() {
        assert_eq!(names("<ns:a><ns:b/></ns:a>"), vec!["ns:a", "ns:b"]);
    }

    #[test]
    fn unicode_element_names() {
        assert_eq!(
            names("<livre><tête/><café>ü</café></livre>"),
            vec!["livre", "tête", "café"]
        );
    }
}
