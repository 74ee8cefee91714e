//! Scanner for literal metacharacters in text content.
//!
//! HTML text content should escape `<`, `>` and `&` as `&lt;`, `&gt;` and
//! `&amp;`. The tokenizer only produces a bare `<` inside a [`crate::Text`]
//! token when the `<` could not begin markup, so every `<` found here is by
//! construction a literal metacharacter; `>` in text is always literal; `&`
//! is literal when it does not begin an entity reference.

use crate::cursor::find_metachar;
use crate::pos::{Pos, Span};

/// Which metacharacter appeared literally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaCharKind {
    /// A bare `<`.
    Lt,
    /// A bare `>`.
    Gt,
    /// A bare `&` that does not begin an entity reference.
    Amp,
}

impl MetaCharKind {
    /// The literal character.
    pub fn ch(self) -> char {
        match self {
            MetaCharKind::Lt => '<',
            MetaCharKind::Gt => '>',
            MetaCharKind::Amp => '&',
        }
    }

    /// The entity reference that should be used instead.
    pub fn escape(self) -> &'static str {
        match self {
            MetaCharKind::Lt => "&lt;",
            MetaCharKind::Gt => "&gt;",
            MetaCharKind::Amp => "&amp;",
        }
    }
}

/// A literal metacharacter occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaChar {
    /// Which character.
    pub kind: MetaCharKind,
    /// Where it appeared.
    pub span: Span,
}

/// Scan a text run (starting at `base` in the source) for literal `<`, `>`
/// and `&` characters.
///
/// # Examples
///
/// ```
/// use weblint_tokenizer::{scan_metachars, MetaCharKind, Pos};
///
/// let hits = scan_metachars("1 < 2 > 0 & true", Pos::START);
/// let kinds: Vec<_> = hits.iter().map(|m| m.kind).collect();
/// assert_eq!(
///     kinds,
///     [MetaCharKind::Lt, MetaCharKind::Gt, MetaCharKind::Amp]
/// );
/// ```
pub fn scan_metachars(text: &str, base: Pos) -> Vec<MetaChar> {
    let mut out = Vec::new();
    let mut pos = base;
    let bytes = text.as_bytes();
    // Jump metacharacter to metacharacter; everything between them only
    // needs line/column accounting, done byte-wise by advance_str. The
    // candidate bytes are ASCII, so a byte hit is always a real character
    // and `i` always lands on a character boundary.
    let mut i = 0;
    while let Some(j) = find_metachar(&text[i..]) {
        let hit = i + j;
        pos.advance_str(&text[i..hit]);
        let ch = bytes[hit] as char;
        let kind = match ch {
            '<' => Some(MetaCharKind::Lt),
            '>' => Some(MetaCharKind::Gt),
            _ => {
                // '&' followed by a letter or '#'+digit scans as an entity
                // reference; the entity checks own that case.
                let next = bytes.get(hit + 1).copied();
                let starts_entity = match next {
                    Some(b) if b.is_ascii_alphabetic() => true,
                    Some(b'#') => {
                        let after = bytes.get(hit + 2).copied();
                        matches!(after, Some(b) if b.is_ascii_digit())
                            || (matches!(after, Some(b'x') | Some(b'X'))
                                && matches!(bytes.get(hit + 3), Some(b) if b.is_ascii_hexdigit()))
                    }
                    _ => false,
                };
                if starts_entity {
                    None
                } else {
                    Some(MetaCharKind::Amp)
                }
            }
        };
        if let Some(kind) = kind {
            let start = pos;
            let mut end = pos;
            end.advance(ch);
            out.push(MetaChar {
                kind,
                span: Span::new(start, end),
            });
        }
        pos.advance(ch);
        i = hit + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_entities;

    fn kinds(text: &str) -> Vec<MetaCharKind> {
        scan_metachars(text, Pos::START)
            .iter()
            .map(|m| m.kind)
            .collect()
    }

    #[test]
    fn clean_text_has_no_hits() {
        assert!(kinds("perfectly ordinary text").is_empty());
    }

    #[test]
    fn bare_lt_and_gt() {
        assert_eq!(kinds("a < b"), [MetaCharKind::Lt]);
        assert_eq!(kinds("a > b"), [MetaCharKind::Gt]);
    }

    #[test]
    fn amp_starting_entity_is_ignored() {
        assert!(kinds("&amp; &#65; &#x41;").is_empty());
    }

    #[test]
    fn bare_amp_detected() {
        assert_eq!(kinds("R & D"), [MetaCharKind::Amp]);
        assert_eq!(kinds("trailing &"), [MetaCharKind::Amp]);
        assert_eq!(kinds("&# x"), [MetaCharKind::Amp]);
        assert_eq!(kinds("&#x zz"), [MetaCharKind::Amp]);
    }

    #[test]
    fn amp_before_letter_is_left_to_entity_checks() {
        // "&T" could be a (mistyped) entity; the entity table decides.
        assert!(kinds("AT&T").is_empty());
    }

    #[test]
    fn positions_are_exact() {
        let hits = scan_metachars("ab\nc > d", Pos::START);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].span.start.line, 2);
        assert_eq!(hits[0].span.start.col, 3);
    }

    #[test]
    fn find_metachar_gates_both_scanners_exactly() {
        // Pieces of HTML text: the three metacharacters, the bytes entity
        // references are made of, markup punctuation, whitespace, and
        // multibyte characters (whose bytes must never match).
        const CLEAN: &[&str] = &[
            "#", "x", "X", ";", "a", "T", "9", "/", "!", "\"", "=", " ", "\n", "é", "日", "—",
            "amp", "lt",
        ];
        const META: &[&str] = &["&", "<", ">", "&amp;", "&#", "&#x4"];
        let mut rng = proptest::TestRng::for_test("find_metachar_gates_both_scanners_exactly");
        for case in 0..20_000 {
            // Half the cases are metacharacter-free, the rest get some.
            let with_meta = case % 2 == 1;
            let mut text = String::new();
            for _ in 0..rng.below(64) {
                let piece = if with_meta && rng.below(8) == 0 {
                    META[rng.below(META.len() as u64) as usize]
                } else {
                    CLEAN[rng.below(CLEAN.len() as u64) as usize]
                };
                text.push_str(piece);
            }
            let naive = text.bytes().position(|b| matches!(b, b'&' | b'<' | b'>'));
            assert_eq!(find_metachar(&text), naive, "{text:?}");
            if naive.is_none() {
                assert!(scan_entities(&text, Pos::START).is_empty(), "{text:?}");
                assert!(scan_metachars(&text, Pos::START).is_empty(), "{text:?}");
            }
        }
    }

    #[test]
    fn escape_suggestions() {
        assert_eq!(MetaCharKind::Lt.escape(), "&lt;");
        assert_eq!(MetaCharKind::Gt.escape(), "&gt;");
        assert_eq!(MetaCharKind::Amp.escape(), "&amp;");
        assert_eq!(MetaCharKind::Amp.ch(), '&');
    }
}
