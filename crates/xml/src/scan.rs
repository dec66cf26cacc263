//! SWAR byte scanners for the parser's hot loops.
//!
//! The pull parser spends nearly all of its time answering one question:
//! *where is the next interesting byte?* — the next `<` while streaming
//! text, the next `&` while deciding whether a slice needs entity
//! decoding, the closing quote of an attribute value. This module answers
//! it eight bytes at a time with SWAR (SIMD Within A Register) on plain
//! `u64` loads: broadcast the needle across a word, XOR, and detect zero
//! bytes with the classic `(x - 0x01…01) & !x & 0x80…80` mask. No
//! dependencies, no `unsafe`, no platform intrinsics — `u64::from_le_bytes`
//! on `chunks_exact(8)` compiles to a single unaligned load on every
//! target we care about.
//!
//! The zero-byte mask is exact for the *first* match in a word: borrow
//! propagation in the subtraction can set high bits only at positions
//! *above* a true zero byte, so `trailing_zeros` (little-endian: low byte
//! = low position) always lands on a genuine match. All entry points here
//! are find-first-from scans, so the shortcut is sound; the differential
//! tests below pin that against a naive scalar loop byte for byte.

/// `0x01` in every byte lane.
const LO: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte lane.
const HI: u64 = 0x8080_8080_8080_8080;

/// Broadcasts `b` into every byte lane of a word.
#[inline(always)]
fn broadcast(b: u8) -> u64 {
    u64::from(b) * LO
}

/// A mask with the high bit set in (at least) every zero byte of `x`; the
/// lowest set bit is always at the first zero byte.
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Byte offset (0..8) of the lowest set high-bit in a nonzero mask.
#[inline(always)]
fn mask_offset(mask: u64) -> usize {
    (mask.trailing_zeros() as usize) >> 3
}

/// Position of the first `needle` at or after `from`, or `None`.
#[inline]
pub fn next_byte(hay: &[u8], from: usize, needle: u8) -> Option<usize> {
    let start = from.min(hay.len());
    let t = broadcast(needle);
    let mut i = start;
    let mut chunks = hay[start..].chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let m = zero_bytes(w ^ t);
        if m != 0 {
            return Some(i + mask_offset(m));
        }
        i += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|p| i + p)
}

/// Position of the first `a` *or* `b` at or after `from`, or `None`.
#[inline]
pub fn next_byte2(hay: &[u8], from: usize, a: u8, b: u8) -> Option<usize> {
    let start = from.min(hay.len());
    let (ta, tb) = (broadcast(a), broadcast(b));
    let mut i = start;
    let mut chunks = hay[start..].chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let m = zero_bytes(w ^ ta) | zero_bytes(w ^ tb);
        if m != 0 {
            return Some(i + mask_offset(m));
        }
        i += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&c| c == a || c == b)
        .map(|p| i + p)
}

/// Position of the first occurrence of `needle` (a short literal like
/// `-->` or `]]>`) at or after `from`. Skips between candidates with the
/// SWAR single-byte scan on the needle's first byte, then verifies the
/// remainder — the multi-byte delimiters the parser looks for are rare,
/// so nearly all bytes are covered at word speed.
#[inline]
pub fn next_subslice(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    let Some((&first, rest)) = needle.split_first() else {
        return Some(from.min(hay.len()));
    };
    let mut i = from;
    while let Some(p) = next_byte(hay, i, first) {
        let after = p + 1;
        if hay.len() - after < rest.len() {
            return None;
        }
        if &hay[after..after + rest.len()] == rest {
            return Some(p);
        }
        i = after;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop, proptest, ProptestConfig};

    /// The naive scalar loop the SWAR scanners must agree with.
    fn naive(hay: &[u8], from: usize, set: &[u8]) -> Option<usize> {
        (from.min(hay.len())..hay.len()).find(|&i| set.contains(&hay[i]))
    }

    fn naive_subslice(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
        let from = from.min(hay.len());
        if needle.is_empty() {
            return Some(from);
        }
        if hay.len() < needle.len() {
            return None;
        }
        (from..=hay.len() - needle.len()).find(|&i| &hay[i..i + needle.len()] == needle)
    }

    #[test]
    fn finds_first_match_in_each_lane() {
        // One haystack per lane position, so every `trailing_zeros`
        // offset 0..8 is exercised, plus a second match that must lose.
        for lane in 0..8 {
            let mut hay = vec![b'x'; 20];
            hay[lane] = b'<';
            hay[12] = b'<';
            assert_eq!(next_byte(&hay, 0, b'<'), Some(lane), "lane {lane}");
        }
    }

    #[test]
    fn empty_and_missing() {
        assert_eq!(next_byte(b"", 0, b'<'), None);
        assert_eq!(next_byte(b"abcdefghij", 0, b'<'), None);
        assert_eq!(next_byte(b"abc", 99, b'a'), None);
        assert_eq!(next_byte2(b"", 0, b'<', b'&'), None);
    }

    #[test]
    fn sub_word_tails() {
        // Inputs shorter than one word never enter the SWAR loop; the
        // scalar tail must carry them.
        for len in 0..8 {
            let hay: Vec<u8> = (0..len)
                .map(|i| if i == len / 2 { b'&' } else { b'.' })
                .collect();
            let expect = if len == 0 { None } else { Some(len / 2) };
            assert_eq!(next_byte(&hay, 0, b'&'), expect, "len {len}");
        }
    }

    #[test]
    fn high_bytes_are_not_false_positives() {
        // 0x80.. bytes are where a sloppy zero-byte mask goes wrong.
        let hay: Vec<u8> = vec![0x80, 0xff, 0xfe, 0x81, 0xc3, 0xa9, 0x00, b'<'];
        assert_eq!(next_byte(&hay, 0, b'<'), Some(7));
        assert_eq!(next_byte(&hay, 0, 0x00), Some(6));
        assert_eq!(next_byte(&hay, 0, 0xff), Some(1));
        assert_eq!(next_byte2(&hay, 0, b'<', 0xc3), Some(4));
    }

    #[test]
    fn subslice_matches_scalar_search() {
        let hay = b"a--b-->c-->";
        assert_eq!(next_subslice(hay, 0, b"-->"), Some(4));
        assert_eq!(next_subslice(hay, 5, b"-->"), Some(8));
        assert_eq!(next_subslice(hay, 9, b"-->"), None);
        assert_eq!(next_subslice(b"ab", 0, b"abc"), None);
        assert_eq!(next_subslice(b"abc", 1, b""), Some(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Differential check: on arbitrary bytes (the full 0x00–0xFF
        /// range, so 0x80–0xFF lanes are dense), from every start offset
        /// 0..=len (covering all 8 word alignments and sub-word tails),
        /// the SWAR scanners report exactly the positions of a naive
        /// scalar loop.
        #[test]
        fn swar_equals_scalar(
            hay in prop::collection::vec(0u8..=255, 0..80),
            a in 0u8..=255,
            b in 0u8..=255,
        ) {
            for from in 0..=hay.len() + 1 {
                assert_eq!(next_byte(&hay, from, a), naive(&hay, from, &[a]));
                assert_eq!(next_byte2(&hay, from, a, b), naive(&hay, from, &[a, b]));
            }
        }

        /// Same differential check for the literal search, with needles
        /// drawn from the hay so matches actually occur.
        #[test]
        fn subslice_equals_scalar(
            hay in prop::collection::vec(0u8..=255, 0..60),
            start in 0usize..=60,
            nlen in 1usize..=4,
        ) {
            let needle: Vec<u8> = if hay.is_empty() {
                vec![0x2d; nlen]
            } else {
                (0..nlen).map(|i| hay[(start + i) % hay.len()]).collect()
            };
            for from in 0..=hay.len() + 1 {
                assert_eq!(
                    next_subslice(&hay, from, &needle),
                    naive_subslice(&hay, from, &needle),
                    "hay {hay:?} from {from} needle {needle:?}"
                );
            }
        }
    }
}
