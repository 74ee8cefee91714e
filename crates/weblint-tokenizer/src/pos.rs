//! Source positions and spans.

use std::fmt;

use crate::run::{scan_run, Run};

/// A position within a source document.
///
/// Lines and columns are 1-based, matching the line numbers weblint prints
/// (`line 4: no closing </TITLE> seen …`). `offset` is the 0-based byte
/// offset into the source string, useful for slicing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number, counted in characters.
    pub col: u32,
    /// 0-based byte offset into the source.
    pub offset: usize,
}

impl Pos {
    /// The start of a document: line 1, column 1, offset 0.
    pub const START: Pos = Pos {
        line: 1,
        col: 1,
        offset: 0,
    };

    /// Create a position.
    pub fn new(line: u32, col: u32, offset: usize) -> Pos {
        Pos { line, col, offset }
    }

    /// Advance this position over one character.
    ///
    /// A newline moves to column 1 of the next line; anything else advances
    /// the column by one. The byte offset always advances by the character's
    /// UTF-8 length.
    pub fn advance(&mut self, ch: char) {
        self.offset += ch.len_utf8();
        if ch == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
    }

    /// Advance this position over every character in `s`.
    ///
    /// Equivalent to calling [`Pos::advance`] per character, but works on
    /// bytes in one pass, eight or more at a time, with no per-character
    /// decode: the newlines and the character starts (every byte that is
    /// not a continuation byte, `0b10xx_xxxx`) are counted, and the
    /// characters after the last newline.
    pub fn advance_str(&mut self, s: &str) {
        self.advance_run(&scan_run::<false>(s.as_bytes()));
    }

    /// Advance this position over a text run that [`scan_run`] read: the
    /// run's bytes, its newlines and the characters after the last one.
    pub(crate) fn advance_run(&mut self, run: &Run) {
        self.offset += run.len;
        if run.newlines == 0 {
            self.col += run.tail;
        } else {
            self.line += run.newlines;
            self.col = 1 + run.tail;
        }
    }
}

impl Default for Pos {
    fn default() -> Self {
        Pos::START
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A half-open byte range in the source, with the position of its start and
/// the position just past its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Position of the first character.
    pub start: Pos,
    /// Position one past the last character.
    pub end: Pos,
}

impl Span {
    /// Create a span from two positions.
    pub fn new(start: Pos, end: Pos) -> Span {
        Span { start, end }
    }

    /// A zero-length span at `pos`.
    pub fn empty(pos: Pos) -> Span {
        Span {
            start: pos,
            end: pos,
        }
    }

    /// The 1-based line number of the span's start — what weblint reports.
    pub fn line(&self) -> u32 {
        self.start.line
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end.offset - self.start.offset
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slice `src` to this span's text.
    ///
    /// Returns an empty string if the span is out of bounds for `src` (which
    /// can only happen if the span came from a different document).
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start.offset..self.end.offset).unwrap_or("")
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_plain_chars() {
        let mut p = Pos::START;
        p.advance('a');
        p.advance('b');
        assert_eq!(p, Pos::new(1, 3, 2));
    }

    #[test]
    fn advance_newline_resets_column() {
        let mut p = Pos::START;
        p.advance_str("ab\nc");
        assert_eq!(p, Pos::new(2, 2, 4));
    }

    #[test]
    fn advance_multibyte_counts_chars_not_bytes() {
        let mut p = Pos::START;
        p.advance_str("é"); // 2 bytes, 1 char
        assert_eq!(p, Pos::new(1, 2, 2));
    }

    #[test]
    fn advance_str_matches_per_char_advance() {
        let check = |s: &str| {
            let mut fast = Pos::new(3, 9, 17);
            fast.advance_str(s);
            let mut slow = Pos::new(3, 9, 17);
            for ch in s.chars() {
                slow.advance(ch);
            }
            assert_eq!(fast, slow, "{s:?}");
        };
        for s in [
            "",
            "plain ascii",
            "ends with newline\n",
            "\n\nleading",
            "mixé\nmulti—byte\n日本語 text",
            "tab\tand\rcarriage",
            "\n",
        ] {
            check(s);
        }
        // Seeded random strings of 0–200 bytes, so every word lane and the
        // padded tail word see newlines and 1- to 4-byte characters.
        const CHARS: &[char] = &['a', ' ', '\n', '\t', '\r', 'é', '—', '日', '😀', '\u{80}'];
        let mut rng = proptest::TestRng::for_test("advance_str_matches_per_char_advance");
        for _ in 0..5_000 {
            let len = rng.below(201) as usize;
            let mut s = String::new();
            loop {
                let ch = CHARS[rng.below(CHARS.len() as u64) as usize];
                if s.len() + ch.len_utf8() > len {
                    break;
                }
                s.push(ch);
            }
            check(&s);
        }
    }

    #[test]
    fn span_slice() {
        let src = "hello world";
        let mut end = Pos::START;
        end.advance_str("hello");
        let span = Span::new(Pos::START, end);
        assert_eq!(span.slice(src), "hello");
        assert_eq!(span.len(), 5);
        assert!(!span.is_empty());
    }

    #[test]
    fn span_out_of_bounds_is_empty() {
        let span = Span::new(Pos::new(1, 1, 100), Pos::new(1, 1, 105));
        assert_eq!(span.slice("short"), "");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Pos::new(3, 7, 40).to_string(), "3:7");
        let span = Span::new(Pos::new(1, 1, 0), Pos::new(1, 4, 3));
        assert_eq!(span.to_string(), "1:1..1:4");
    }
}
