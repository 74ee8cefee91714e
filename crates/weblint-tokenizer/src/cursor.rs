//! A byte cursor over the source with position tracking.
//!
//! Every byte that decides where a token ends (`<`, `>`, `"`, `'`, `=`,
//! `&`, whitespace, name characters) is ASCII, and no such byte occurs
//! inside a multibyte UTF-8 character. So the cursor scans bytes, never
//! decodes a `char`, and still stops on character boundaries; it advances
//! its [`Pos`] over each scanned span in bulk, counting columns in
//! characters. Text runs, the bulk of a document, take one pass per byte:
//! [`Cursor::eat_text`] finds the run's end, counts its lines and
//! characters, and notes whether it holds a metacharacter, all at once
//! (see [`scan_run`]).

use crate::pos::Pos;
use crate::run::{is_char_start, scan_run};

/// A forward-only cursor over `src` that tracks line/column/offset.
///
/// `src` may be a piece of a larger document that starts at document
/// position `start`: positions are then the document's, so the spans of
/// a resumed tokenization need no rebasing.
#[derive(Debug, Clone)]
pub(crate) struct Cursor<'a> {
    src: &'a str,
    pos: Pos,
    /// Document offset of `src[0]`.
    origin: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `src`, which begins at document position `start`.
    pub(crate) fn new(src: &'a str, start: Pos) -> Cursor<'a> {
        Cursor {
            src,
            pos: start,
            origin: start.offset,
        }
    }

    /// Current position.
    pub(crate) fn pos(&self) -> Pos {
        self.pos
    }

    /// Whole source string.
    pub(crate) fn src(&self) -> &'a str {
        self.src
    }

    /// Index into `src` of the cursor.
    fn at(&self) -> usize {
        self.pos.offset - self.origin
    }

    /// Remaining unconsumed input.
    pub(crate) fn rest(&self) -> &'a str {
        &self.src[self.at()..]
    }

    /// True when all input has been consumed.
    pub(crate) fn is_eof(&self) -> bool {
        self.at() >= self.src.len()
    }

    /// The byte `n` bytes past the cursor, if the input holds one.
    pub(crate) fn peek_byte(&self, n: usize) -> Option<u8> {
        self.src.as_bytes().get(self.at() + n).copied()
    }

    /// Whether the remaining input starts with `s` (case-sensitive).
    pub(crate) fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    /// Whether the remaining input starts with `s`, ignoring ASCII case.
    pub(crate) fn starts_with_ci(&self, s: &str) -> bool {
        // Compare as bytes: slicing the str at `s.len()` could split a
        // multibyte character and panic.
        let rest = self.rest().as_bytes();
        let pat = s.as_bytes();
        rest.len() >= pat.len() && rest[..pat.len()].eq_ignore_ascii_case(pat)
    }

    /// Consume `n` bytes, which must fall on a character boundary.
    pub(crate) fn bump_bytes(&mut self, n: usize) {
        let taken = &self.rest()[..n];
        self.pos.advance_str(taken);
    }

    /// Consume `n` bytes of ASCII that hold no newline: a delimiter such as
    /// `<`, `</` or `>`.
    pub(crate) fn bump_ascii(&mut self, n: usize) {
        debug_assert!(self.rest().as_bytes()[..n]
            .iter()
            .all(|&b| b.is_ascii() && b != b'\n'));
        self.pos.offset += n;
        self.pos.col += n as u32;
    }

    /// Consume bytes before document offset `limit` while `f` holds;
    /// return the consumed slice.
    ///
    /// `f` must decide on ASCII alone: hold for every non-ASCII byte or for
    /// none. Either way the walk stops on a character boundary (an ASCII
    /// byte, or the lead byte of a multibyte character), and so must
    /// `limit`. The position advances in the same pass.
    pub(crate) fn eat_bytes_while(&mut self, limit: usize, f: impl Fn(u8) -> bool) -> &'a str {
        let bytes = &self.src.as_bytes()[..limit - self.origin];
        let start = self.at();
        let mut pos = self.pos;
        while let Some(&b) = bytes.get(pos.offset - self.origin) {
            if !f(b) {
                break;
            }
            pos.offset += 1;
            if b == b'\n' {
                pos.line += 1;
                pos.col = 1;
            } else {
                pos.col += u32::from(is_char_start(b));
            }
        }
        self.pos = pos;
        &self.src[start..self.at()]
    }

    /// Consume bytes while `f` holds; return the consumed slice. `f` may
    /// hold only for ASCII bytes other than a newline (a tag name's), so
    /// the position moves by one column per byte.
    pub(crate) fn eat_ascii_while(&mut self, f: impl Fn(u8) -> bool) -> &'a str {
        let rest = self.rest();
        let n = rest.bytes().position(|b| !f(b)).unwrap_or(rest.len());
        self.bump_ascii(n);
        &rest[..n]
    }

    /// Consume ASCII whitespace before document offset `limit`; return
    /// true if any was consumed.
    pub(crate) fn eat_ws(&mut self, limit: usize) -> bool {
        !self
            .eat_bytes_while(limit, |b| b.is_ascii_whitespace())
            .is_empty()
    }

    /// Consume a text run: everything up to (not including) the next `<`
    /// that begins markup, or to end-of-file, searching from byte `from`
    /// (an earlier search over a shorter input found none before it).
    /// Returns the run and whether it holds a `&`, `<` or `>` (a bare `<`
    /// included): exactly `find_metachar(run).is_some()`.
    ///
    /// Unless `eof`, a run that reaches the end of the input could still
    /// grow: nothing is consumed, and `Err` is where the search resumes,
    /// short of a trailing `<` that the next byte may make markup.
    pub(crate) fn eat_text(&mut self, from: usize, eof: bool) -> Result<(&'a str, bool), usize> {
        let rest = self.rest();
        let bytes = rest.as_bytes();
        let end = match bytes.last() {
            Some(b'<') if !eof => bytes.len() - 1,
            _ => bytes.len(),
        };
        let mut run = scan_run::<true>(&bytes[from..end]);
        if from + run.len == end && !eof {
            return Err(end);
        }
        if from > 0 {
            // A run resumed past its start is counted once more, whole.
            run = scan_run::<false>(&bytes[..from + run.len]);
        }
        self.pos.advance_run(&run);
        Ok((&rest[..run.len], run.has_metachar))
    }

    /// Consume the next `n` bytes, which must end on a character boundary,
    /// as raw text, where `<` begins nothing. Returns them and whether they
    /// hold a `&`, `<` or `>`, as [`Cursor::eat_text`] does.
    pub(crate) fn eat_raw_text(&mut self, n: usize) -> (&'a str, bool) {
        let raw = &self.rest()[..n];
        let run = scan_run::<false>(raw.as_bytes());
        self.pos.advance_run(&run);
        (raw, run.has_metachar)
    }

    /// Consume up to and including the first occurrence of `needle` that
    /// starts at or after byte `from` of the remaining input, a character
    /// boundary; return the consumed slice before the needle, or `None`
    /// (consuming nothing) if there is none.
    pub(crate) fn eat_until_and_past(&mut self, needle: &str, from: usize) -> Option<&'a str> {
        let rest = self.rest();
        let idx = from + rest[from..].find(needle)?;
        self.pos.advance_str(&rest[..idx + needle.len()]);
        Some(&rest[..idx])
    }

    /// Consume everything to end-of-file; return it.
    pub(crate) fn eat_to_eof(&mut self) -> &'a str {
        let rest = self.rest();
        self.pos.advance_str(rest);
        rest
    }
}

/// The largest character boundary of `s` at or below `at`.
pub(crate) fn floor_char_boundary(s: &str, mut at: usize) -> usize {
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Whether `b`, just after a `<`, makes that `<` begin markup: a tag, an
/// end tag, a declaration or a processing instruction.
pub(crate) fn begins_markup(b: u8) -> bool {
    b.is_ascii_alphabetic() || matches!(b, b'!' | b'?' | b'/')
}

/// Case-insensitive substring search (ASCII case only).
pub(crate) fn find_ci(haystack: &str, needle: &str) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    let n = needle.len();
    if haystack.len() < n {
        return None;
    }
    let hay = haystack.as_bytes();
    let pat = needle.as_bytes();
    let first = pat[0];
    // Compare as bytes throughout: a candidate index may fall inside a
    // multibyte character, and `&str` slicing there would panic. The needles
    // are always ASCII (`</script` etc.), so a byte match is also a
    // char-boundary match.
    if !first.is_ascii_alphabetic() {
        // Case-insensitivity is moot for the first byte: jump candidate to
        // candidate with memchr instead of walking every byte.
        let mut i = 0;
        while let Some(j) = memchr(first, &hay[i..]) {
            let at = i + j;
            if at > hay.len() - n {
                return None;
            }
            if hay[at..at + n].eq_ignore_ascii_case(pat) {
                return Some(at);
            }
            i = at + 1;
        }
        return None;
    }
    let first_lo = first.to_ascii_lowercase();
    for i in 0..=hay.len() - n {
        if hay[i].to_ascii_lowercase() == first_lo && hay[i..i + n].eq_ignore_ascii_case(pat) {
            return Some(i);
        }
    }
    None
}

/// Position of the first occurrence of `needle` in `hay`.
///
/// Blocks of 32 bytes are tested with no early exit inside a block, a loop
/// shape the compiler turns into vector compares (SSE2 on x86-64) — about
/// 3.5× the eight-byte SWAR test on long text runs, and no slower on short
/// ones. The byte loop only runs over the block containing the hit or the
/// final partial block.
pub(crate) fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    const BLOCK: usize = 32;
    let mut start = 0;
    for block in hay.chunks_exact(BLOCK) {
        if block.iter().fold(false, |hit, &b| hit | (b == needle)) {
            break;
        }
        start += BLOCK;
    }
    hay[start..]
        .iter()
        .position(|&b| b == needle)
        .map(|p| start + p)
}

/// Position of the first `&`, `<` or `>` in `text` — a SWAR search for the
/// three HTML metacharacters.
///
/// Neither [`scan_entities`](crate::scan_entities) nor
/// [`scan_metachars`](crate::scan_metachars) can report anything in a text
/// run without one of these bytes, so a `None` here lets a caller skip both
/// scanners exactly. Each eight-byte word is tested with the zero-byte
/// trick (`(x - 0x01…01) & !x & 0x80…80` is non-zero iff some byte of `x`
/// is zero): once against `&`, and once with bit 1 forced on against `>`,
/// which catches `<` (`0x3C`) and `>` (`0x3E`) together — no other byte
/// becomes `0x3E` when bit 1 is set.
///
/// # Examples
///
/// ```
/// use weblint_tokenizer::find_metachar;
///
/// assert_eq!(find_metachar("plain words, no markup"), None);
/// assert_eq!(find_metachar("fish & chips"), Some(5));
/// assert_eq!(find_metachar("i < 3"), Some(2));
/// ```
pub fn find_metachar(text: &str) -> Option<usize> {
    const LANES: usize = std::mem::size_of::<usize>();
    const LO: usize = usize::from_ne_bytes([0x01; LANES]);
    const HI: usize = usize::from_ne_bytes([0x80; LANES]);
    const BIT1: usize = usize::from_ne_bytes([0x02; LANES]);
    const AMP: usize = usize::from_ne_bytes([b'&'; LANES]);
    const ANGLE: usize = usize::from_ne_bytes([b'>'; LANES]);
    let hay = text.as_bytes();
    let mut i = 0;
    while i + LANES <= hay.len() {
        let chunk = usize::from_ne_bytes(
            hay[i..i + LANES]
                .try_into()
                .expect("slice is one word long"),
        );
        let amp = chunk ^ AMP;
        let angle = (chunk | BIT1) ^ ANGLE;
        if ((amp.wrapping_sub(LO) & !amp) | (angle.wrapping_sub(LO) & !angle)) & HI != 0 {
            break;
        }
        i += LANES;
    }
    hay[i..]
        .iter()
        .position(|&b| matches!(b, b'&' | b'<' | b'>'))
        .map(|p| i + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_tracks_position() {
        let mut c = Cursor::new("a\nb", Pos::START);
        c.bump_ascii(1);
        c.bump_bytes(1);
        assert_eq!(c.pos(), Pos::new(2, 1, 2));
        c.bump_bytes(1);
        assert!(c.is_eof());
    }

    #[test]
    fn eat_bytes_while_tracks_position() {
        let mut c = Cursor::new("a\n\u{e9}b=c", Pos::START);
        assert_eq!(c.eat_bytes_while(4, |b| b != b'='), "a\n\u{e9}");
        assert_eq!(c.pos(), Pos::new(2, 2, 4));
        assert_eq!(c.eat_bytes_while(6, |b| b != b'='), "b");
        assert_eq!(c.rest(), "=c");
        assert!(!c.eat_ws(7));
        // A cursor over a piece of a document counts in the document's
        // positions; `limit` is a document offset too.
        let mut c = Cursor::new("x y\nz", Pos::new(3, 5, 100));
        assert_eq!(c.eat_ascii_while(|b| b == b'x'), "x");
        assert!(c.eat_ws(102));
        assert_eq!(c.pos(), Pos::new(3, 7, 102));
        assert_eq!(c.eat_bytes_while(105, |b| b != b'z'), "y\n");
        assert_eq!(c.pos(), Pos::new(4, 1, 104));
        assert_eq!(c.rest(), "z");
    }

    #[test]
    fn peek_byte() {
        let c = Cursor::new("xyz", Pos::START);
        assert_eq!(c.peek_byte(0), Some(b'x'));
        assert_eq!(c.peek_byte(2), Some(b'z'));
        assert_eq!(c.peek_byte(3), None);
    }

    #[test]
    fn eat_until_and_past_consumes_needle() {
        let mut c = Cursor::new("foo-->bar", Pos::START);
        assert_eq!(c.eat_until_and_past("-->", 0), Some("foo"));
        assert_eq!(c.rest(), "bar");
        // The search starts at `from`: a needle before it does not count.
        let mut c = Cursor::new("<!-->a-->b", Pos::START);
        assert_eq!(c.eat_until_and_past("-->", 4), Some("<!-->a"));
        assert_eq!(c.rest(), "b");
    }

    #[test]
    fn eat_until_missing_needle_consumes_nothing() {
        let mut c = Cursor::new("foobar", Pos::START);
        assert_eq!(c.eat_until_and_past("-->", 0), None);
        assert_eq!(c.rest(), "foobar");
    }

    #[test]
    fn starts_with_ci_matches_any_case() {
        let c = Cursor::new("DocType html", Pos::START);
        assert!(c.starts_with_ci("doctype"));
        assert!(!c.starts_with("doctype"));
    }

    #[test]
    fn starts_with_ci_survives_multibyte_input() {
        // Regression: the pattern length may fall inside a multibyte
        // character; byte-wise comparison must not panic.
        let c = Cursor::new("<! '-eIn\u{feff} x", Pos::START);
        assert!(!c.starts_with_ci("<!doctype"));
        let c = Cursor::new("é", Pos::START);
        assert!(!c.starts_with_ci("ab"));
    }

    #[test]
    fn find_ci_finds_mixed_case() {
        assert_eq!(find_ci("xx</ScRiPt>", "</script"), Some(2));
        assert_eq!(find_ci("nothing here", "</script"), None);
        assert_eq!(find_ci("abc", ""), Some(0));
        assert_eq!(find_ci("ab", "abc"), None);
    }

    #[test]
    fn find_ci_survives_multibyte_haystack() {
        // Regression: candidate offsets can fall inside multibyte
        // characters; the comparison must stay byte-wise.
        let hay = "鄨Q\u{202e}x</script>";
        assert_eq!(find_ci(hay, "</script"), Some("鄨Q\u{202e}x".len()));
        assert_eq!(find_ci("é鄨\u{202e}", "</script"), None);
    }

    #[test]
    fn memchr_matches_naive_search() {
        let hay = b"abcabc\x00xyz\xff\x80abc<tail<";
        for len in 0..hay.len() {
            for needle in [b'a', b'<', b'\x00', b'\xff', b'\x80', b'q'] {
                let expected = hay[..len].iter().position(|&b| b == needle);
                assert_eq!(memchr(needle, &hay[..len]), expected, "{needle} in {len}");
            }
        }
        let long = [b'x'; 100];
        assert_eq!(memchr(b'y', &long), None);
        let mut long = long;
        long[83] = b'y';
        assert_eq!(memchr(b'y', &long), Some(83));
    }

    #[test]
    fn eat_text_stops_at_markup_or_eof() {
        let mut c = Cursor::new("ab\u{e9}\ncd<3f", Pos::START);
        assert_eq!(c.eat_text(0, true), Ok(("ab\u{e9}\ncd<3f", true)));
        assert!(c.is_eof());
        let mut c = Cursor::new("ab\u{e9}\ncd<Ef", Pos::START);
        assert_eq!(c.eat_text(0, false), Ok(("ab\u{e9}\ncd", false)));
        assert_eq!(c.pos(), Pos::new(2, 3, 7));
        assert_eq!(c.rest(), "<Ef");
        let mut c = Cursor::new("a < b, trailing <", Pos::START);
        assert_eq!(c.eat_text(0, true), Ok(("a < b, trailing <", true)));
        // Before end-of-file a run that reaches the end of the input stays
        // open, short of a trailing `<`, and resumes where it stopped.
        let mut c = Cursor::new("a < b, trailing <", Pos::START);
        assert_eq!(c.eat_text(0, false), Err("a < b, trailing ".len()));
        assert_eq!(c.rest(), "a < b, trailing <");
        let mut c = Cursor::new("a < b,\ntrailing <I>x", Pos::START);
        assert_eq!(c.eat_text(16, false), Ok(("a < b,\ntrailing ", true)));
        assert_eq!(c.pos(), Pos::new(2, 10, 16));
    }
}
