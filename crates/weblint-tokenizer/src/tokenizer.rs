//! The tokenizer state machine.

use crate::cursor::{floor_char_boundary, Cursor};
use crate::pos::{Pos, Span};
use crate::run::is_char_start;
use crate::token::{Attr, AttrValue, Comment, Decl, Quote, Tag, Text, Token, TokenKind};

/// What a start tag named `name` does to the text after it: `Some(close)`
/// for an element whose content is raw text up to the close pattern
/// (`"</script"` etc.), `None` for every other element.
///
/// The paper (§5.1): "Certain elements require special processing, such as
/// comments, SCRIPT and STYLE." `XMP` and `LISTING` are the obsolete HTML 2
/// raw-text elements. The name's length picks the one candidate to compare,
/// so most start tags cost one length test.
fn raw_text_close(name: &str) -> Option<&'static str> {
    let close = match name.len() {
        3 => "</xmp",
        5 => "</style",
        6 => "</script",
        7 => "</listing",
        _ => return None,
    };
    name.eq_ignore_ascii_case(&close[2..]).then_some(close)
}

/// Whether a start tag named `name` is `PLAINTEXT`, which makes the rest
/// of the file text.
fn is_plaintext(name: &str) -> bool {
    name.len() == 9 && name.eq_ignore_ascii_case("plaintext")
}

/// Abort the quote-aware tag scan once a single quoted value exceeds this
/// many bytes — at that point the quote is almost certainly unterminated and
/// the quote-parity fallback produces far better diagnostics.
const QUOTE_SCAN_CAP: usize = 32 * 1024;

/// A scan that reached the end of a buffer that is not the end of the
/// document, before its construct's terminator arrived: which construct,
/// how far its search got, and the search's state there. Offsets count
/// from the construct's first byte, where the next buffer begins, so the
/// next drain resumes the search instead of restarting it and builds the
/// token once, when its terminator arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scan {
    /// A text run: no `<` that begins markup starts before `at`.
    Text { at: usize },
    /// A raw-text body: no close pattern starts before `at`.
    RawText { at: usize },
    /// A comment: no `-->` starts before `at`.
    Comment { at: usize },
    /// A CDATA section: no `]]>` starts before `at`.
    Cdata { at: usize },
    /// A declaration or processing instruction: the quote-aware walk for
    /// its `>` reached `at` with `quote` open.
    Decl { at: usize, quote: Option<u8> },
    /// A start or end tag: the walk for its end reached `at`, counted
    /// from past the `<` or `</`, in state `walk`.
    Tag { is_end: bool, at: usize, walk: Walk },
}

/// The state of a tag's walk (see [`walk_tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// Outside any quote.
    Plain,
    /// Inside a `quote` opened at body offset `start`.
    Quoted { quote: u8, start: usize },
    /// The quote-aware walk gave up; the quote-parity fallback is
    /// searching for its `>`.
    Fallback,
}

/// Everything of a tokenizer's state besides its cursor that a tokenizer
/// over the next buffer needs to carry on where this one stopped.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Carry {
    /// When set, the content of a just-opened raw-text element must be
    /// consumed as text before normal tokenization resumes. Holds the close
    /// pattern (`"</script"` etc.) from [`raw_text_close`].
    raw_text_until: Option<&'static str>,
    /// A `PLAINTEXT` start tag was seen: the rest of the file is text.
    plaintext: bool,
    /// The scan that ran out of input, if the last one did.
    scan: Option<Scan>,
}

/// A streaming HTML tokenizer.
///
/// Iterate it to receive [`Token`]s. The tokenizer never fails: any input,
/// however mangled, produces a token stream covering the whole document.
///
/// A tokenizer made by [`Tokenizer::new`] reads a whole document. The
/// [`StreamTokenizer`](crate::StreamTokenizer) drives the same tokenizer
/// over each buffer of a document that arrives in pieces: there a construct
/// still open at the buffer's end ends the iteration, and the next buffer's
/// tokenizer resumes its scan where this one stopped.
///
/// # Examples
///
/// ```
/// use weblint_tokenizer::{Tokenizer, TokenKind};
///
/// let tokens: Vec<_> = Tokenizer::new("<B>x</B>").collect();
/// assert_eq!(tokens.len(), 3);
/// assert!(matches!(tokens[1].kind, TokenKind::Text(_)));
/// ```
#[derive(Debug, Clone)]
pub struct Tokenizer<'a> {
    cur: Cursor<'a>,
    carry: Carry,
    /// The end of the buffer is the end of the document. When false, a
    /// construct that reaches the end of the buffer is left unconsumed,
    /// its scan recorded in `carry.scan`, and the iteration ends.
    eof: bool,
}

impl<'a> Tokenizer<'a> {
    /// Create a tokenizer over `src`.
    pub fn new(src: &'a str) -> Tokenizer<'a> {
        Tokenizer::resume(src, Pos::START, Carry::default(), true)
    }

    /// A tokenizer over `src`, a piece of a larger document that starts at
    /// document position `start`, carrying on from `carry`, the state of
    /// the tokenizer over the piece before. Token spans are document
    /// positions.
    pub(crate) fn resume(src: &'a str, start: Pos, carry: Carry, eof: bool) -> Self {
        Tokenizer {
            cur: Cursor::new(src, start),
            carry,
            eof,
        }
    }

    /// The state the tokenizer over the next piece carries on from.
    pub(crate) fn carry(&self) -> Carry {
        self.carry
    }

    /// Document position just past the last token.
    pub(crate) fn pos(&self) -> Pos {
        self.cur.pos()
    }

    /// The full source this tokenizer reads from.
    pub fn source(&self) -> &'a str {
        self.cur.src()
    }

    /// Record `scan` for the tokenizer over the next buffer and end the
    /// iteration, consuming nothing.
    fn suspend(&mut self, scan: Scan) -> Option<Token<'a>> {
        self.carry.scan = Some(scan);
        None
    }

    fn token(&self, start: Pos, kind: TokenKind<'a>) -> Token<'a> {
        Token {
            kind,
            span: Span::new(start, self.cur.pos()),
        }
    }

    /// Consume raw-text content: the next `len` bytes, up to a close
    /// pattern or to end-of-file.
    fn raw_text(&mut self, len: usize) -> Token<'a> {
        let start = self.cur.pos();
        let (raw, has_metachar) = self.cur.eat_raw_text(len);
        self.token(
            start,
            TokenKind::Text(Text {
                raw,
                is_raw: true,
                has_metachar,
            }),
        )
    }

    /// Search for a raw-text body's end, `close` (`"</script"` etc.,
    /// matched case-insensitively), from byte `from`: `Ok(len)` is the
    /// body's length, `Err(at)` where the search resumes once more input
    /// arrives.
    fn raw_text_end(&self, close: &str, from: usize) -> Result<usize, usize> {
        let rest = self.cur.rest();
        match crate::cursor::find_ci(&rest[from..], close) {
            Some(at) => Ok(from + at),
            None if self.eof => Ok(rest.len()),
            None => Err(resume_at(rest, from, close)),
        }
    }

    fn scan_text(&mut self, from: usize) -> Option<Token<'a>> {
        let start = self.cur.pos();
        // A bare `<` (e.g. "i < 3") is part of the text; one that begins
        // markup ends the run.
        match self.cur.eat_text(from, self.eof) {
            Ok((raw, has_metachar)) => Some(self.token(
                start,
                TokenKind::Text(Text {
                    raw,
                    is_raw: false,
                    has_metachar,
                }),
            )),
            // Nothing but a `<` that the next byte decides: dispatch
            // afresh then.
            Err(0) => None,
            Err(at) => self.suspend(Scan::Text { at }),
        }
    }

    /// Consume the construct at the cursor up to and including `close`,
    /// searched for from byte `from`: its bytes before `close`, and
    /// whether the document ended first. `None` when more input may still
    /// bring `close`: then `scan` records where the search resumes.
    fn eat_closed_by(
        &mut self,
        close: &str,
        from: usize,
        scan: fn(usize) -> Scan,
    ) -> Option<(&'a str, bool)> {
        match self.cur.eat_until_and_past(close, from) {
            Some(body) => Some((body, false)),
            None if self.eof => Some((self.cur.eat_to_eof(), true)),
            None => {
                let at = resume_at(self.cur.rest(), from, close);
                self.suspend(scan(at));
                None
            }
        }
    }

    /// Scan a comment whose `-->` search starts at byte `from` (4, past
    /// the `<!--`, on the first scan).
    fn scan_comment(&mut self, from: usize) -> Option<Token<'a>> {
        let start = self.cur.pos();
        let (body, unterminated) = self.eat_closed_by("-->", from, |at| Scan::Comment { at })?;
        let text = &body[4..];
        Some(self.token(
            start,
            TokenKind::Comment(Comment {
                text,
                unterminated,
                contains_markup: looks_like_markup(text),
                interior_dashes: text.contains("--"),
            }),
        ))
    }

    /// Scan a CDATA marked section whose `]]>` search starts at byte
    /// `from` (9, past the `<![CDATA[`, on the first scan).
    fn scan_cdata(&mut self, from: usize) -> Option<Token<'a>> {
        let start = self.cur.pos();
        let (body, unterminated) = self.eat_closed_by("]]>", from, |at| Scan::Cdata { at })?;
        let decl = Decl {
            text: &body[CDATA_OPEN.len()..],
            unterminated,
        };
        Some(self.token(start, TokenKind::Decl(decl)))
    }

    /// Scan a `<!…>` declaration or `<?…>` processing instruction, which
    /// closes with a quote-aware `>`, resuming its walk at byte `from`
    /// with `quote` open (2 and `None` on the first scan).
    fn scan_decl(&mut self, from: usize, mut quote: Option<u8>) -> Option<Token<'a>> {
        let rest = self.cur.rest();
        let bytes = rest.as_bytes();
        let end = bytes[from..]
            .iter()
            .position(|&b| match quote {
                None => match b {
                    b'>' => true,
                    b'"' | b'\'' => {
                        quote = Some(b);
                        false
                    }
                    _ => false,
                },
                Some(q) => {
                    if b == q {
                        quote = None;
                    }
                    false
                }
            })
            .map(|at| from + at);
        // A walk that ran off the buffer, in a quote or not, could still
        // meet its `>` (or close its quote and move it) in later bytes.
        if end.is_none() && !self.eof {
            let at = bytes.len();
            return self.suspend(Scan::Decl { at, quote });
        }
        let start = self.cur.pos();
        let is_doctype = self.cur.starts_with_ci("<!doctype");
        let decl = Decl {
            text: &rest[2..end.unwrap_or(rest.len())],
            unterminated: end.is_none(),
        };
        self.cur.bump_bytes(end.map_or(rest.len(), |at| at + 1));
        let kind = if bytes[1] == b'?' {
            TokenKind::Pi(decl)
        } else if is_doctype {
            TokenKind::Doctype(decl)
        } else {
            TokenKind::Decl(decl)
        };
        Some(self.token(start, kind))
    }

    fn scan_markup_decl(&mut self) -> Option<Token<'a>> {
        // Until its opener is whole, a `<!` could still become a comment
        // or a CDATA section, each with its own terminator.
        let rest = self.cur.rest().as_bytes();
        let cut = |open: &str| {
            rest.len() < open.len() && open.as_bytes()[..rest.len()].eq_ignore_ascii_case(rest)
        };
        if !self.eof && (cut("<!--") || cut(CDATA_OPEN)) {
            return None;
        }
        if self.cur.starts_with("<!--") {
            self.scan_comment(4)
        } else if self.cur.starts_with_ci(CDATA_OPEN) {
            self.scan_cdata(CDATA_OPEN.len())
        } else {
            self.scan_decl(2, None)
        }
    }

    /// Scan a tag whose walk for its end resumes at byte `at` past the
    /// `<` or `</` in state `walk` (0 and [`Walk::Plain`] on the first
    /// scan).
    fn scan_tag(&mut self, is_end: bool, at: usize, walk: Walk) -> Option<Token<'a>> {
        let head = 1 + usize::from(is_end);
        match walk_tag(&self.cur.rest().as_bytes()[head..], at, walk, self.eof) {
            Ok((len, end, odd_quotes)) => Some(self.build_tag(is_end, head + len, end, odd_quotes)),
            Err((at, walk)) => self.suspend(Scan::Tag { is_end, at, walk }),
        }
    }

    /// Consume the tag at the cursor, whose body ends `len` bytes on, how
    /// [`walk_tag`] found, and parse its name and attributes.
    fn build_tag(&mut self, is_end: bool, len: usize, end: BodyEnd, odd_quotes: bool) -> Token<'a> {
        let start = self.cur.pos();
        let body_end_offset = start.offset + len;
        self.cur.bump_ascii(if is_end { 2 } else { 1 }); // '<' or '</'
        let space_before_name = is_end && self.cur.eat_ws(body_end_offset);
        let name = self.cur.eat_ascii_while(is_name_byte);

        // The commonest tag has no body at all: `<P>`, `</TD>`.
        if self.cur.pos().offset == body_end_offset && end == BodyEnd::Gt {
            self.cur.bump_ascii(1);
            let tag = Tag {
                name,
                attrs: Vec::new(),
                self_closing: false,
                odd_quotes: false,
                unterminated: false,
                space_before_name,
            };
            return self.tag_token(start, is_end, tag);
        }

        // An XML-style "/>" self-close: strip the trailing '/' from the body
        // so it is not parsed as a stray attribute.
        let body = &self.cur.rest()[..body_end_offset - self.cur.pos().offset];
        let trimmed = match body.as_bytes().last() {
            // Most bodies end in a quote or a name character: nothing to
            // trim, and no need to decode the last character to know it.
            Some(b) if b.is_ascii_graphic() => body,
            _ => body.trim_end(),
        };
        let self_closing = end == BodyEnd::Gt && trimmed.ends_with('/');
        let attr_limit = if self_closing {
            self.cur.pos().offset + trimmed.len() - 1
        } else {
            body_end_offset
        };

        let attrs = self.parse_attrs(attr_limit);

        // Step over anything the attribute parser left behind (e.g. the
        // trailing '/' of a self-close), then the closing '>'.
        let left = body_end_offset - self.cur.pos().offset;
        if left > 0 {
            self.cur.bump_bytes(left);
        }
        if end == BodyEnd::Gt {
            self.cur.bump_ascii(1); // '>'
        }

        let tag = Tag {
            name,
            attrs,
            self_closing,
            odd_quotes,
            unterminated: end != BodyEnd::Gt,
            space_before_name,
        };
        self.tag_token(start, is_end, tag)
    }

    /// The token of a tag that ends at the cursor. A start tag may switch
    /// the mode the tokenizer reads what follows it in.
    fn tag_token(&mut self, start: Pos, is_end: bool, tag: Tag<'a>) -> Token<'a> {
        if is_end {
            return self.token(start, TokenKind::EndTag(tag));
        }
        if let Some(close) = raw_text_close(tag.name) {
            self.carry.raw_text_until = Some(close);
        } else if is_plaintext(tag.name) {
            self.carry.plaintext = true;
        }
        self.token(start, TokenKind::StartTag(tag))
    }

    /// Parse attributes up to byte offset `limit` (exclusive).
    fn parse_attrs(&mut self, limit: usize) -> Vec<Attr<'a>> {
        let mut attrs = Vec::new();
        loop {
            self.cur.eat_ws(limit);
            if self.cur.pos().offset >= limit {
                break;
            }
            let name_start = self.cur.pos();
            let name = self.cur.eat_bytes_while(limit, |b| {
                !b.is_ascii_whitespace() && !matches!(b, b'=' | b'"' | b'\'')
            });
            if name.is_empty() && self.cur.peek_byte(0) != Some(b'=') {
                // A stray quote: skip it to guarantee progress.
                self.cur.bump_ascii(1);
                continue;
            }
            let name_span = Span::new(name_start, self.cur.pos());
            self.cur.eat_ws(limit);
            let mut has_eq = false;
            let mut value = None;
            if self.cur.pos().offset < limit && self.cur.peek_byte(0) == Some(b'=') {
                has_eq = true;
                self.cur.bump_ascii(1);
                self.cur.eat_ws(limit);
                if self.cur.pos().offset < limit {
                    value = Some(self.parse_attr_value(limit));
                }
            }
            attrs.push(Attr {
                name,
                value,
                has_eq,
                span: name_span,
            });
        }
        attrs
    }

    fn parse_attr_value(&mut self, limit: usize) -> AttrValue<'a> {
        match self.cur.peek_byte(0) {
            Some(q @ (b'"' | b'\'')) => {
                self.cur.bump_ascii(1);
                let vstart = self.cur.pos();
                let raw = self.cur.eat_bytes_while(limit, |b| b != q);
                let vspan = Span::new(vstart, self.cur.pos());
                let terminated = self.cur.pos().offset < limit && self.cur.peek_byte(0) == Some(q);
                if terminated {
                    self.cur.bump_ascii(1);
                }
                AttrValue {
                    raw,
                    quote: if q == b'"' {
                        Quote::Double
                    } else {
                        Quote::Single
                    },
                    terminated,
                    span: vspan,
                }
            }
            _ => {
                let vstart = self.cur.pos();
                let raw = self
                    .cur
                    .eat_bytes_while(limit, |b| !b.is_ascii_whitespace());
                AttrValue {
                    raw,
                    quote: Quote::None,
                    terminated: true,
                    span: Span::new(vstart, self.cur.pos()),
                }
            }
        }
    }

    /// The one token-producing path: resume the suspended scan, if any,
    /// else dispatch on the next bytes.
    fn next_token(&mut self) -> Option<Token<'a>> {
        if self.cur.is_eof() {
            return None;
        }
        if self.carry.plaintext {
            // PLAINTEXT swallows everything to end-of-file.
            return self.eof.then(|| self.raw_text(self.cur.rest().len()));
        }
        match self.carry.scan {
            None => self.scan_next(0),
            Some(_) => self.resume_scan(),
        }
    }

    /// Scan the next token from its first byte; in raw-text mode, search
    /// for the body's end from byte `raw_from`.
    fn scan_next(&mut self, raw_from: usize) -> Option<Token<'a>> {
        if let Some(close) = self.carry.raw_text_until.take() {
            match self.raw_text_end(close, raw_from) {
                Ok(0) => {} // no content; parse the end tag normally
                Ok(len) => return Some(self.raw_text(len)),
                Err(at) => {
                    self.carry.raw_text_until = Some(close);
                    return self.suspend(Scan::RawText { at });
                }
            }
        }
        match *self.cur.rest().as_bytes() {
            [b'<', b'!', ..] => self.scan_markup_decl(),
            [b'<', b'?', ..] => self.scan_decl(2, None),
            [b'<', b'/', ..] => self.scan_tag(true, 0, Walk::Plain),
            [b'<', c, ..] if c.is_ascii_alphabetic() => self.scan_tag(false, 0, Walk::Plain),
            _ => self.scan_text(0),
        }
    }

    /// Carry on the scan the tokenizer over the last buffer suspended.
    #[cold]
    fn resume_scan(&mut self) -> Option<Token<'a>> {
        match self.carry.scan.take()? {
            Scan::Text { at } => self.scan_text(at),
            Scan::RawText { at } => self.scan_next(at),
            Scan::Comment { at } => self.scan_comment(at),
            Scan::Cdata { at } => self.scan_cdata(at),
            Scan::Decl { at, quote } => self.scan_decl(at, quote),
            Scan::Tag { is_end, at, walk } => self.scan_tag(is_end, at, walk),
        }
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        self.next_token()
    }
}

/// The opener of a CDATA marked section, matched case-insensitively.
const CDATA_OPEN: &str = "<![CDATA[";

/// Where a search of `rest` for `needle` that began at byte `from` and
/// found nothing resumes once more bytes arrive: before the tail that the
/// next bytes could complete into `needle`, on a character boundary.
fn resume_at(rest: &str, from: usize, needle: &str) -> usize {
    floor_char_boundary(rest, rest.len().saturating_sub(needle.len() - 1).max(from))
}

/// How a tag body scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyEnd {
    /// A closing `>` was found (not included in the body length).
    Gt,
    /// A new `<` interrupted the tag outside any quote.
    EarlyLt,
    /// End-of-file arrived first.
    Eof,
}

/// Find where a tag ends: `tag` is its bytes past the `<` or `</`, and
/// the walk resumes at byte `i` in state `walk`. Returns the length of
/// the name and body (everything before the closing `>`), how they ended
/// and whether their quotes are odd, or, when the walk reaches the end of
/// `tag` and `eof` is false, where it stopped. The name, and the
/// whitespace an end tag allows before it, hold no byte the walk decides
/// on, so the walk reads them as it reads the body.
///
/// First a quote-aware walk is attempted: quoted values may contain `>` and
/// newlines. If that walk finds a `<` *inside* a quote, runs past
/// [`QUOTE_SCAN_CAP`] inside a quote, or hits end-of-file inside a quote, the
/// quote is assumed unterminated and weblint's quote-parity fallback applies:
/// the tag is cut at the first `>` regardless of quotes, and `odd_quotes`
/// reports whether the quote count in that span is odd (the paper's §4.2
/// "odd number of quotes in element" diagnostic).
///
/// A quote-aware `>` or unquoted `<` settles the extent, and so does an
/// abort (a `<` inside a quote, or a quote past the cap) once the fallback
/// finds its `>`. Running off the end of `body` settles nothing before
/// end-of-file: a later byte could close the quote and move the real
/// terminator.
// Inlined into its one caller: every tag takes this path, and a call per
// bodiless tag (`<P>`, `</TD>`) cost 5–10% of tokenizing them.
#[inline]
fn walk_tag(
    tag: &[u8],
    mut i: usize,
    mut walk: Walk,
    eof: bool,
) -> Result<(usize, BodyEnd, bool), (usize, Walk)> {
    // A byte walk, not a char walk: every byte that decides anything
    // (`>` `<` `"` `'`) is ASCII and can never match inside a multibyte
    // character. The cap check fires only at character starts, so the
    // abort point is where a per-char walk would abort.
    while i < tag.len() {
        let b = tag[i];
        match walk {
            Walk::Plain => match b {
                b'>' => return Ok((i, BodyEnd::Gt, false)),
                b'<' => return Ok((i, BodyEnd::EarlyLt, false)),
                b'"' | b'\'' => walk = Walk::Quoted { quote: b, start: i },
                _ => {}
            },
            Walk::Quoted { quote, start } => {
                if b == quote {
                    walk = Walk::Plain;
                } else if b == b'<' || (is_char_start(b) && i - start > QUOTE_SCAN_CAP) {
                    break;
                }
            }
            Walk::Fallback => break,
        }
        i += 1;
    }
    // An abort, or EOF inside a quote: the quote-parity fallback cuts the
    // tag at the first `>`, which may sit anywhere in it.
    if matches!(walk, Walk::Quoted { .. }) && (i < tag.len() || eof) {
        (walk, i) = (Walk::Fallback, 0);
    }
    if walk != Walk::Fallback {
        // EOF outside a quote: the tag just never closed.
        return if eof {
            Ok((tag.len(), BodyEnd::Eof, false))
        } else {
            Err((i, walk))
        };
    }
    let (len, end) = match crate::cursor::memchr(b'>', &tag[i..]) {
        Some(at) => (i + at, BodyEnd::Gt),
        None if !eof => return Err((tag.len(), walk)),
        None => match crate::cursor::memchr(b'<', tag) {
            Some(at) => (at, BodyEnd::EarlyLt),
            None => (tag.len(), BodyEnd::Eof),
        },
    };
    Ok((len, end, odd_quote_count(&tag[..len])))
}

fn odd_quote_count(s: &[u8]) -> bool {
    let dq = s.iter().filter(|&&b| b == b'"').count();
    let sq = s.iter().filter(|&&b| b == b'\'').count();
    dq % 2 == 1 || sq % 2 == 1
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'_' | b':')
}

/// Heuristic for "this comment contains markup": `<` immediately followed by
/// a letter or `/`.
fn looks_like_markup(text: &str) -> bool {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'<' {
            if let Some(&next) = bytes.get(i + 1) {
                if next.is_ascii_alphabetic() || next == b'/' {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tokenize;

    /// Documents that exercise every token class, every terminator, and
    /// the ways a scan can run off the end of a buffer. Every prefix of
    /// each is a buffer the stream tokenizer may hold.
    pub(crate) const TRICKY_DOCS: &[&[u8]] = &[
        b"",
        b"<HTML><BODY>hi</BODY></HTML>",
        b"<A HREF=\"a.html>here</B></A>",
        // Quote-aware walks that abort (a `<` inside a quote), with and
        // without a `>` for the parity fallback, and quotes holding `>`.
        b"<A HREF=\"a<b>c</A>",
        b"<A HREF=\"a<b c",
        b"<A TITLE=\"x>y\"z>w<P CLASS='q\"r'>s",
        b"<!DOCTYPE x \"a>b\">c<?pi 'x>y'?>z",
        b"<![CDATA[a]]b]]>c<!-- a --->b<!--->d",
        b"<IMG ALT=\"a > b\" SRC=\"x.gif\">text",
        b"<IMG ALT=\"two\nlines\">",
        b"<P <B>x",
        b"<A HREF=x",
        b"<A HREF=\"x",
        b"i < 3 and j <3",
        b"trailing lt <",
        b"<BR/>",
        b"</ HEAD>",
        b"</A HREF=x>",
        b"</>",
        b"<!-- hello -->after",
        b"<!-- runs off the end",
        b"<!-- a -- b -->",
        b"<!-- <B>bold</B> -->",
        b"<!-->",
        b"<!doctype html><HTML>",
        b"<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\"><HTML>",
        b"<!ENTITY foo \"bar\">x",
        b"<!ENTITY gt \">\" done>y",
        b"<?xml version=\"1.0\"?>x",
        b"<![CDATA[ <not-a-tag> ]]>x",
        b"<![CDATA[ never closed",
        b"<SCRIPT>if (a<b) { x(); }</SCRIPT>after",
        b"<style>b { color: red }</STYLE>",
        b"<SCRIPT>never closed",
        b"<SCRIPT></SCRIPT>x",
        // Bare `<`s and partial close patterns that must not end a run,
        // and multibyte text the raw-text watermark must back out of.
        b"<SCRIPT>a<b; c</scr; d</SCRIP</script>x",
        b"<STYLE>p<q</STYL</style >y",
        "<SCRIPT>\u{65e5}\u{672c}<\u{e9}</SCRIPT>z".as_bytes(),
        b"<PRE>i < 3 <\n j <= 4 < </PRE>x",
        b"a < b <",
        b"<PLAINTEXT><B>not markup</B>",
        b"<P \"\">x",
        "caf\u{e9} \u{65e5}\u{672c}\u{8a9e} text<B>x</B>".as_bytes(),
        "<IMG ALT=\"caf\u{e9}\">".as_bytes(),
        b"<HTML>\n<HEAD>\n<TITLE>example page\n</HEAD>\n<BODY BGCOLOR=\"fffff\" TEXT=#00ff00>\n<H1>My Example</H2>\nClick <B><A HREF=\"a.html>here</B></A>\nfor more details.\n</BODY>\n</HTML>\n",
    ];

    /// The stability verdicts as they stood before the scanners reported
    /// them: a separate read-only pass over the buffer per token. Kept as
    /// the oracle the suspended scans are checked against.
    mod reference {
        use crate::cursor::{begins_markup, find_ci};
        use crate::tokenizer::QUOTE_SCAN_CAP;

        /// Whether the next token of `rest` (tokenized in the given mode)
        /// is already fully determined by the bytes in the buffer.
        pub(super) fn next_token_stable(
            rest: &str,
            raw_text_until: Option<&'static str>,
            plaintext: bool,
        ) -> bool {
            if plaintext {
                return false;
            }
            if let Some(close) = raw_text_until {
                return match find_ci(rest, close) {
                    Some(0) => tag_stable(rest),
                    Some(_) => true,
                    None => false,
                };
            }
            let bytes = rest.as_bytes();
            match (bytes.first(), bytes.get(1)) {
                (Some(b'<'), Some(b'!')) => markup_decl_stable(rest),
                (Some(b'<'), Some(b'?')) => decl_stable(&rest[2..]),
                (Some(b'<'), Some(b'/')) => tag_stable(rest),
                (Some(b'<'), Some(c)) if c.is_ascii_alphabetic() => tag_stable(rest),
                (Some(b'<'), None) => false,
                (Some(_), _) => text_stable(rest),
                (None, _) => false,
            }
        }

        /// Stability of a text run: [`Tokenizer::scan_text`] ends only at a `<` that
        /// begins markup, so the run is pinned once such a `<` is in the buffer. A
        /// run that consumed to the buffer's end (no `<`, a trailing bare `<`, or
        /// only non-markup `<`s) could still grow.
        fn text_stable(rest: &str) -> bool {
            rest.as_bytes()
                .windows(2)
                .any(|w| w[0] == b'<' && begins_markup(w[1]))
        }

        /// Stability of a `<!…>` markup declaration. Classification between comment,
        /// DOCTYPE and other declarations is itself buffer-dependent, but every
        /// ambiguous spelling (a proper prefix of `<!--` or `<!doctype`) contains no
        /// terminator, so the per-class terminator checks below already refuse it.
        fn markup_decl_stable(rest: &str) -> bool {
            if let Some(after_opener) = rest.strip_prefix("<!--") {
                // A comment ends at `-->`, searched past the 4-byte opener.
                return after_opener.contains("-->");
            }
            decl_stable(&rest[2..])
        }

        /// Stability of a declaration/PI body (`after` starts past the `<!`/`<?`
        /// opener): CDATA sections are pinned by `]]>`, everything else by a
        /// quote-aware `>`. A walk that ends inside the buffer — or inside an open
        /// quote — is not stable; a later byte could close the quote and move the
        /// real terminator.
        fn decl_stable(after: &str) -> bool {
            // Byte-wise prefix compare: slicing the str at 7 could split a
            // multibyte character.
            let bytes = after.as_bytes();
            if bytes.len() >= 7 && bytes[..7].eq_ignore_ascii_case(b"[CDATA[") {
                return after[7..].contains("]]>");
            }
            let mut in_quote: Option<u8> = None;
            for &b in after.as_bytes() {
                match in_quote {
                    None => match b {
                        b'>' => return true,
                        b'"' | b'\'' => in_quote = Some(b),
                        _ => {}
                    },
                    Some(q) if b == q => in_quote = None,
                    Some(_) => {}
                }
            }
            false
        }

        /// Stability of a start or end tag (`rest` starts at the `<`). The name must
        /// terminate inside the buffer (a name running to the buffer's end could
        /// continue), then the body must reach a stable verdict under the same
        /// quote-aware rules as `scan_tag_body`.
        fn tag_stable(rest: &str) -> bool {
            let bytes = rest.as_bytes();
            let mut i = 1; // '<'
            if bytes.get(1) == Some(&b'/') {
                i = 2;
                // End tags tolerate whitespace before the name (`</ HEAD>`).
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
            }
            while i < bytes.len() && is_name_byte(bytes[i]) {
                i += 1;
            }
            if i == bytes.len() {
                return false;
            }
            tag_body_stable(&rest[i..])
        }

        /// Stability of a tag body, mirroring `scan_tag_body`: a quote-aware `>`
        /// or an unquoted `<` in the buffer pins the tag. An abort (a `<` inside a
        /// quote, or a quote run past `QUOTE_SCAN_CAP`) is itself stable and falls
        /// to the quote-parity heuristic, which cuts at the first `>` anywhere — so
        /// it is stable only once some `>` is in the buffer. Running off the end of
        /// the buffer (in or out of a quote) is never stable.
        fn tag_body_stable(rest: &str) -> bool {
            let bytes = rest.as_bytes();
            let mut in_quote: Option<u8> = None;
            let mut quote_start = 0usize;
            let mut i = 0;
            while i < bytes.len() {
                let b = bytes[i];
                match in_quote {
                    None => match b {
                        b'>' | b'<' => return true,
                        b'"' | b'\'' => {
                            in_quote = Some(b);
                            quote_start = i;
                        }
                        _ => {}
                    },
                    Some(q) => {
                        if b == q {
                            in_quote = None;
                        } else if b == b'<'
                            || ((b & 0xC0) != 0x80 && i - quote_start > QUOTE_SCAN_CAP)
                        {
                            return rest.contains('>');
                        }
                    }
                }
                i += 1;
            }
            false
        }

        fn is_name_byte(b: u8) -> bool {
            b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'_' | b':')
        }
    }

    /// Tokenize `buf` as a buffer that does not end its document,
    /// checking before every token that one comes out exactly when the
    /// reference says the next token is already stable, and that a scan
    /// suspended at the end consumed nothing.
    fn assert_scans_match_reference(buf: &str) {
        let mut tok = Tokenizer::resume(buf, Pos::START, Carry::default(), false);
        loop {
            let mode = (tok.carry.raw_text_until, tok.carry.plaintext);
            let rest = tok.cur.rest();
            let stable = !rest.is_empty() && reference::next_token_stable(rest, mode.0, mode.1);
            if tok.next().is_some() {
                assert!(stable, "unstable token taken at {rest:?} of {buf:?}");
                continue;
            }
            assert!(!stable, "stable token refused at {rest:?} of {buf:?}");
            assert_eq!(tok.cur.rest(), rest, "a suspended scan consumed input");
            return;
        }
    }

    #[test]
    fn scans_take_exactly_the_stable_tokens_of_every_prefix() {
        for doc in TRICKY_DOCS {
            let doc = String::from_utf8_lossy(doc);
            for cut in (0..=doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
                assert_scans_match_reference(&doc[..cut]);
            }
        }
    }

    #[test]
    fn scans_match_reference_around_the_quote_scan_cap() {
        // A quote that runs past the cap aborts the quote-aware walk; the
        // fallback then needs a `>` anywhere to pin the tag.
        let long = "x".repeat(QUOTE_SCAN_CAP + 8);
        let doc = format!("<A TITLE=\"{long}\" HREF=y>tail<B>");
        let open = "<A TITLE=\"".len();
        for cut in [
            open + QUOTE_SCAN_CAP - 1,
            open + QUOTE_SCAN_CAP,
            open + QUOTE_SCAN_CAP + 1,
            open + QUOTE_SCAN_CAP + 2,
            doc.len() - 10,
            doc.len() - 9,
            doc.len() - 3,
            doc.len(),
        ] {
            assert_scans_match_reference(&doc[..cut]);
        }
    }

    fn kinds(src: &str) -> Vec<String> {
        tokenize(src)
            .iter()
            .map(|t| t.kind.kind_name().to_string())
            .collect()
    }

    fn start_tag<'a>(tok: &'a Token<'a>) -> &'a Tag<'a> {
        match &tok.kind {
            TokenKind::StartTag(t) => t,
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn simple_document() {
        assert_eq!(
            kinds("<HTML><BODY>hi</BODY></HTML>"),
            ["start-tag", "start-tag", "text", "end-tag", "end-tag"]
        );
    }

    #[test]
    fn tag_names_preserve_case() {
        let toks = tokenize("<BoDy>");
        assert_eq!(start_tag(&toks[0]).name, "BoDy");
        assert_eq!(start_tag(&toks[0]).name_lc(), "body");
    }

    #[test]
    fn attributes_parse_with_all_quote_styles() {
        let toks = tokenize(r#"<BODY BGCOLOR="fffff" TEXT=#00ff00 ALT='x'>"#);
        let tag = start_tag(&toks[0]);
        assert_eq!(tag.attrs.len(), 3);
        assert_eq!(tag.attrs[0].name, "BGCOLOR");
        assert_eq!(tag.attrs[0].value_raw(), "fffff");
        assert_eq!(tag.attrs[0].value.as_ref().unwrap().quote, Quote::Double);
        assert_eq!(tag.attrs[1].value_raw(), "#00ff00");
        assert_eq!(tag.attrs[1].value.as_ref().unwrap().quote, Quote::None);
        assert_eq!(tag.attrs[2].value.as_ref().unwrap().quote, Quote::Single);
    }

    #[test]
    fn valueless_attribute() {
        let toks = tokenize("<OPTION SELECTED>");
        let tag = start_tag(&toks[0]);
        assert_eq!(tag.attrs.len(), 1);
        assert_eq!(tag.attrs[0].name, "SELECTED");
        assert!(tag.attrs[0].value.is_none());
        assert!(!tag.attrs[0].has_eq);
    }

    #[test]
    fn dangling_equals() {
        let toks = tokenize("<A HREF=>");
        let tag = start_tag(&toks[0]);
        assert_eq!(tag.attrs.len(), 1);
        assert!(tag.attrs[0].has_eq);
        assert!(tag.attrs[0].value.is_none());
    }

    #[test]
    fn paper_example_odd_quotes() {
        // §4.2: <A HREF="a.html>here</B></A> — the quote never closes; the
        // tag must end at the first '>' and be flagged.
        let toks = tokenize(r#"<A HREF="a.html>here</B></A>"#);
        assert_eq!(kinds(r#"<A HREF="a.html>here</B></A>"#).len(), 4);
        let tag = start_tag(&toks[0]);
        assert!(tag.odd_quotes);
        assert!(!tag.unterminated);
        assert_eq!(tag.attrs[0].name, "HREF");
        assert_eq!(tag.attrs[0].value_raw(), "a.html");
        assert!(!tag.attrs[0].value.as_ref().unwrap().terminated);
        match &toks[1].kind {
            TokenKind::Text(t) => assert_eq!(t.raw, "here"),
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn quoted_value_may_contain_gt() {
        let toks = tokenize(r#"<IMG ALT="a > b" SRC="x.gif">text"#);
        let tag = start_tag(&toks[0]);
        assert!(!tag.odd_quotes);
        assert_eq!(tag.attr("alt").unwrap().value_raw(), "a > b");
        assert_eq!(tag.attr("src").unwrap().value_raw(), "x.gif");
    }

    #[test]
    fn quoted_value_may_span_lines() {
        let toks = tokenize("<IMG ALT=\"two\nlines\">");
        let tag = start_tag(&toks[0]);
        assert_eq!(tag.attr("alt").unwrap().value_raw(), "two\nlines");
    }

    #[test]
    fn tag_interrupted_by_new_tag() {
        let toks = tokenize("<P <B>x");
        let tag = start_tag(&toks[0]);
        assert!(tag.unterminated);
        assert_eq!(tag.name, "P");
        let b = start_tag(&toks[1]);
        assert_eq!(b.name, "B");
        assert!(!b.unterminated);
    }

    #[test]
    fn tag_at_eof_is_unterminated() {
        let toks = tokenize("<A HREF=x");
        let tag = start_tag(&toks[0]);
        assert!(tag.unterminated);
        assert_eq!(tag.attrs[0].value_raw(), "x");
    }

    #[test]
    fn unterminated_quote_at_eof_uses_parity_fallback() {
        let toks = tokenize("<A HREF=\"x");
        let tag = start_tag(&toks[0]);
        assert!(tag.unterminated);
        assert!(tag.odd_quotes);
    }

    #[test]
    fn self_closing_tag() {
        let toks = tokenize("<BR/>");
        let tag = start_tag(&toks[0]);
        assert!(tag.self_closing);
        assert!(tag.attrs.is_empty());
    }

    #[test]
    fn self_closing_with_attrs() {
        let toks = tokenize(r#"<IMG SRC="x.gif" />"#);
        let tag = start_tag(&toks[0]);
        assert!(tag.self_closing);
        assert_eq!(tag.attrs.len(), 1);
    }

    #[test]
    fn end_tag_with_space_before_name() {
        let toks = tokenize("</ HEAD>");
        match &toks[0].kind {
            TokenKind::EndTag(t) => {
                assert_eq!(t.name, "HEAD");
                assert!(t.space_before_name);
            }
            other => panic!("expected end tag, got {other:?}"),
        }
    }

    #[test]
    fn end_tag_with_attributes_is_preserved() {
        let toks = tokenize("</A HREF=x>");
        match &toks[0].kind {
            TokenKind::EndTag(t) => assert_eq!(t.attrs.len(), 1),
            other => panic!("expected end tag, got {other:?}"),
        }
    }

    #[test]
    fn bare_lt_is_text() {
        let toks = tokenize("i < 3 and j <3");
        assert_eq!(toks.len(), 1);
        match &toks[0].kind {
            TokenKind::Text(t) => assert_eq!(t.raw, "i < 3 and j <3"),
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn numeric_tag_like_h1() {
        let toks = tokenize("<H1>x</H1>");
        assert_eq!(start_tag(&toks[0]).name, "H1");
    }

    #[test]
    fn comment_basic() {
        let toks = tokenize("<!-- hello -->after");
        match &toks[0].kind {
            TokenKind::Comment(c) => {
                assert_eq!(c.text, " hello ");
                assert!(!c.unterminated);
                assert!(!c.contains_markup);
                assert!(!c.interior_dashes);
            }
            other => panic!("expected comment, got {other:?}"),
        }
        assert!(matches!(toks[1].kind, TokenKind::Text(_)));
    }

    #[test]
    fn comment_with_markup_inside() {
        let toks = tokenize("<!-- <B>bold</B> -->");
        match &toks[0].kind {
            TokenKind::Comment(c) => assert!(c.contains_markup),
            other => panic!("expected comment, got {other:?}"),
        }
    }

    #[test]
    fn comment_unterminated() {
        let toks = tokenize("<!-- runs off the end");
        match &toks[0].kind {
            TokenKind::Comment(c) => assert!(c.unterminated),
            other => panic!("expected comment, got {other:?}"),
        }
        assert_eq!(toks.len(), 1);
    }

    #[test]
    fn comment_interior_dashes() {
        let toks = tokenize("<!-- a -- b -->");
        match &toks[0].kind {
            TokenKind::Comment(c) => assert!(c.interior_dashes),
            other => panic!("expected comment, got {other:?}"),
        }
    }

    #[test]
    fn doctype_recognised_case_insensitively() {
        let toks = tokenize("<!doctype html><HTML>");
        assert!(matches!(toks[0].kind, TokenKind::Doctype(_)));
        let toks = tokenize(r#"<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.0//EN"><HTML>"#);
        match &toks[0].kind {
            TokenKind::Doctype(d) => {
                assert!(d.text.contains("W3C"));
                assert!(!d.unterminated);
            }
            other => panic!("expected doctype, got {other:?}"),
        }
    }

    #[test]
    fn other_markup_decl() {
        let toks = tokenize("<!ENTITY foo \"bar\">x");
        assert!(matches!(toks[0].kind, TokenKind::Decl(_)));
    }

    #[test]
    fn processing_instruction() {
        let toks = tokenize("<?xml version=\"1.0\"?>x");
        assert!(matches!(toks[0].kind, TokenKind::Pi(_)));
        assert!(matches!(toks[1].kind, TokenKind::Text(_)));
    }

    #[test]
    fn cdata_section() {
        let toks = tokenize("<![CDATA[ <not-a-tag> ]]>x");
        match &toks[0].kind {
            TokenKind::Decl(d) => assert_eq!(d.text, " <not-a-tag> "),
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn script_content_is_raw() {
        let toks = tokenize("<SCRIPT>if (a<b) { x(); }</SCRIPT>after");
        assert_eq!(
            kinds("<SCRIPT>if (a<b) { x(); }</SCRIPT>after"),
            ["start-tag", "text", "end-tag", "text"]
        );
        match &toks[1].kind {
            TokenKind::Text(t) => {
                assert!(t.is_raw);
                assert_eq!(t.raw, "if (a<b) { x(); }");
            }
            other => panic!("expected raw text, got {other:?}"),
        }
    }

    #[test]
    fn style_close_tag_found_case_insensitively() {
        assert_eq!(
            kinds("<style>b { color: red }</STYLE>"),
            ["start-tag", "text", "end-tag"]
        );
    }

    #[test]
    fn unclosed_script_swallows_to_eof() {
        let toks = tokenize("<SCRIPT>never closed");
        assert_eq!(toks.len(), 2);
        match &toks[1].kind {
            TokenKind::Text(t) => assert!(t.is_raw),
            other => panic!("expected raw text, got {other:?}"),
        }
    }

    #[test]
    fn empty_script_element() {
        assert_eq!(
            kinds("<SCRIPT></SCRIPT>x"),
            ["start-tag", "end-tag", "text"]
        );
    }

    #[test]
    fn plaintext_swallows_rest_of_file() {
        assert_eq!(kinds("<PLAINTEXT><B>not markup</B>"), ["start-tag", "text"]);
    }

    #[test]
    fn line_numbers_match_paper_example() {
        // The §4.2 test.html: TITLE opens on line 3, </HEAD> on line 4,
        // BODY on line 5, H1 on line 6, A on line 7.
        let src = "<HTML>\n<HEAD>\n<TITLE>example page\n</HEAD>\n\
                   <BODY BGCOLOR=\"fffff\" TEXT=#00ff00>\n<H1>My Example</H2>\n\
                   Click <B><A HREF=\"a.html>here</B></A>\nfor more details.\n\
                   </BODY>\n</HTML>\n";
        let lines: Vec<(String, u32)> = tokenize(src)
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::StartTag(tag) => Some((format!("<{}>", tag.name), t.span.line())),
                TokenKind::EndTag(tag) => Some((format!("</{}>", tag.name), t.span.line())),
                _ => None,
            })
            .collect();
        assert_eq!(
            lines,
            vec![
                ("<HTML>".to_string(), 1),
                ("<HEAD>".to_string(), 2),
                ("<TITLE>".to_string(), 3),
                ("</HEAD>".to_string(), 4),
                ("<BODY>".to_string(), 5),
                ("<H1>".to_string(), 6),
                ("</H2>".to_string(), 6),
                ("<B>".to_string(), 7),
                ("<A>".to_string(), 7),
                ("</B>".to_string(), 7),
                ("</A>".to_string(), 7),
                ("</BODY>".to_string(), 9),
                ("</HTML>".to_string(), 10),
            ]
        );
    }

    #[test]
    fn whole_source_is_covered() {
        let src = "<P>one<BR>two <!-- c --> three <B class=x>four</B>";
        let toks = tokenize(src);
        let mut offset = 0;
        for t in &toks {
            assert_eq!(t.span.start.offset, offset, "gap before {t}");
            offset = t.span.end.offset;
        }
        assert_eq!(offset, src.len());
    }

    #[test]
    fn stray_quote_in_tag_does_not_loop() {
        let toks = tokenize("<P \"\">x");
        assert!(!toks.is_empty());
    }

    #[test]
    fn odd_quote_parity_detects_singles() {
        assert!(odd_quote_count(b"a'b"));
        assert!(!odd_quote_count(b"a'b'c"));
        assert!(odd_quote_count(b"\""));
        assert!(!odd_quote_count(b"\"\""));
    }
}
