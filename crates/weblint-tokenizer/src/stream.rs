//! Incremental tokenization over a growing byte stream.
//!
//! [`StreamTokenizer`] is the buffer-management layer that turns the
//! pull-based [`Tokenizer`] into a push-based one: callers [`feed`] byte
//! chunks as they arrive (off a socket, a pipe, a fetch in progress) and
//! drain the tokens that are already *prefix-stable* — tokens whose extent
//! no future byte can change (see [`Tokenizer::step`]). The token stream,
//! spans included, is byte-identical to tokenizing the concatenated
//! document in one shot.
//!
//! Three pieces of state cross a feed boundary:
//!
//! 1. **The undecoded tail** — up to three bytes of an incomplete UTF-8
//!    sequence, held back so the lossy decode matches
//!    [`String::from_utf8_lossy`] of the whole input.
//! 2. **The unconsumed buffer suffix** — bytes of a token still waiting for
//!    its terminator, plus the global [`Pos`] of its first byte, where the
//!    resumed tokenizer starts counting, so its spans are document
//!    coordinates as they come.
//! 3. **The tokenizer mode flags** — the pending raw-text close pattern
//!    (`</script` …) and the `PLAINTEXT` latch.
//!
//! Consumed prefixes are compacted away, so memory is bounded by the
//! largest single token, not the document.
//!
//! [`feed`]: StreamTokenizer::feed

use crate::cursor::find_ci;
use crate::pos::Pos;
use crate::token::Token;
use crate::tokenizer::{find_markup_start, Step, Tokenizer};

/// Compact the buffer only once this many consumed bytes have piled up (and
/// they are at least half the buffer), so steady chunked feeding does not
/// degenerate into a quadratic memmove.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// A push-based tokenizer over a document that arrives in chunks.
///
/// # Examples
///
/// ```
/// use weblint_tokenizer::StreamTokenizer;
///
/// let mut stream = StreamTokenizer::new();
/// let mut names = Vec::new();
/// for chunk in [&b"<HTML><BO"[..], b"DY>hi</BODY", b"></HTML>"] {
///     stream.feed(chunk);
///     stream.drain_tokens(|_, _, tokens| names.extend(tokens.map(|t| t.to_string())));
/// }
/// stream.finish();
/// stream.drain_tokens(|_, _, tokens| names.extend(tokens.map(|t| t.to_string())));
/// assert_eq!(
///     names,
///     ["<HTML>", "<BODY>", "text(2 bytes)", "</BODY>", "</HTML>"]
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamTokenizer {
    /// Decoded text not yet fully consumed; `buf[consumed..]` is the
    /// pending suffix the next drain resumes on.
    buf: String,
    /// Byte offset into `buf` of the first unconsumed byte.
    consumed: usize,
    /// Global document position of `buf[consumed]` — survives compaction,
    /// which only moves bytes inside `buf`.
    base: Pos,
    /// Undecoded tail: a so-far-valid prefix of one UTF-8 character cut off
    /// by the chunk boundary (at most 3 bytes).
    pending: Vec<u8>,
    /// Carried [`Tokenizer::mode`] flags.
    raw_text_until: Option<&'static str>,
    plaintext: bool,
    /// `finish` was called: the next drain treats the buffer end as EOF.
    eof: bool,
    /// How far into the unconsumed suffix the search for the pending text
    /// run's terminator has got: no terminator *starts* before this
    /// offset. The terminator is the raw-text close pattern (`</script`
    /// …) in raw-text mode, else a `<` that begins markup. A bare `<`
    /// (`a<b`, `i < 3`) does not end a run, so the watermark passes it;
    /// it stops short only of a tail that could still grow into a
    /// terminator (a trailing `<`, or a close-pattern prefix), which the
    /// next feed re-reads. Without it, every feed of a long text run
    /// would re-scan the whole carry, turning a streamed `<PRE>` dump or
    /// `<SCRIPT>` body quadratic.
    text_scan: usize,
}

impl StreamTokenizer {
    /// A stream positioned at the start of a document.
    pub fn new() -> StreamTokenizer {
        StreamTokenizer::default()
    }

    /// Append a chunk of the document's bytes.
    ///
    /// Invalid UTF-8 is replaced exactly as [`String::from_utf8_lossy`]
    /// would over the concatenated input; a multibyte character split by the
    /// chunk boundary is held back until its remaining bytes arrive.
    pub fn feed(&mut self, chunk: &[u8]) {
        debug_assert!(!self.eof, "feed after finish");
        if self.pending.is_empty() {
            self.decode(chunk);
        } else {
            let mut tail = std::mem::take(&mut self.pending);
            tail.extend_from_slice(chunk);
            self.decode(&tail);
        }
    }

    /// Declare end-of-input: any held-back partial character becomes one
    /// replacement character (as `from_utf8_lossy` of the full input would
    /// produce), and the next [`drain_tokens`](Self::drain_tokens) emits
    /// every remaining token.
    pub fn finish(&mut self) {
        if !self.pending.is_empty() {
            self.pending.clear();
            self.buf.push('\u{FFFD}');
        }
        self.eof = true;
    }

    /// Decode `bytes` onto the buffer, stashing an incomplete trailing
    /// character in `pending`.
    fn decode(&mut self, mut bytes: &[u8]) {
        loop {
            match std::str::from_utf8(bytes) {
                Ok(s) => {
                    self.buf.push_str(s);
                    return;
                }
                Err(e) => {
                    let valid = e.valid_up_to();
                    self.buf
                        .push_str(std::str::from_utf8(&bytes[..valid]).unwrap());
                    match e.error_len() {
                        // A valid-so-far sequence cut off by the chunk end.
                        None => {
                            self.pending = bytes[valid..].to_vec();
                            return;
                        }
                        // A definitely-invalid sequence of `n` bytes: one
                        // replacement character, then keep decoding.
                        Some(n) => {
                            self.buf.push('\u{FFFD}');
                            bytes = &bytes[valid + n..];
                        }
                    }
                }
            }
        }
    }

    /// Emit every token that is already stable (every remaining token, after
    /// [`finish`](Self::finish)).
    ///
    /// `f` runs at most once per drain — not at all when no token can have
    /// completed. It receives the backing text slice, the global byte
    /// offset of that slice's first byte, and an iterator over the stable
    /// tokens, each with **global** (whole-document) spans: any span a
    /// token carries resolves via `&slice[span.start.offset - offset..]`.
    /// Tokens the callback leaves unread stay in the stream for the next
    /// drain.
    pub fn drain_tokens<F: FnOnce(&str, usize, &mut StreamTokens<'_>)>(&mut self, f: F) {
        // `<PLAINTEXT>` swallows the rest of the document as one token;
        // nothing can stabilize until finish.
        if !self.eof && (self.plaintext || !self.pending_run_may_end()) {
            return;
        }
        self.text_scan = 0;
        self.compact();
        let slice = &self.buf[self.consumed..];
        let mut tokens = StreamTokens {
            tok: Tokenizer::resume(slice, self.base, self.raw_text_until, self.plaintext),
            eof: self.eof,
            end: self.base,
        };
        f(slice, self.base.offset, &mut tokens);
        let (raw_text_until, plaintext) = tokens.tok.mode();
        let end = tokens.end;
        self.raw_text_until = raw_text_until;
        self.plaintext = plaintext;
        self.consumed += end.offset - self.base.offset;
        self.base = end;
    }

    /// Whether the token pending at the start of the unconsumed suffix may
    /// complete with the bytes buffered so far. Only a text run (or a raw
    /// text body) is answered from the suffix: its search resumes at the
    /// [`text_scan`](Self::text_scan) watermark and moves it on, so each
    /// byte of a long run is read a bounded number of times however many
    /// feeds it spans. Any other pending token defers to the tokenizer.
    fn pending_run_may_end(&mut self) -> bool {
        let suffix = &self.buf[self.consumed..];
        let from = self.text_scan.min(suffix.len());
        self.text_scan = match self.raw_text_until {
            Some(close) => {
                // The close pattern is ASCII, so a match starts on a
                // character boundary; the watermark may not, so back it up
                // to one.
                let from = (0..=from)
                    .rev()
                    .find(|&i| suffix.is_char_boundary(i))
                    .unwrap_or(0);
                if find_ci(&suffix[from..], close).is_some() {
                    return true;
                }
                // A match could still start in the last `close.len() - 1`
                // bytes, completed by the next chunk.
                suffix.len().saturating_sub(close.len() - 1)
            }
            // A pending tag, comment or declaration starts with a `<` that
            // begins markup, so it is found at offset 0 and answered true.
            None => match find_markup_start(suffix.as_bytes(), from) {
                Ok(_) => return true,
                Err(resume) => resume,
            },
        };
        false
    }

    /// Bytes currently buffered (unconsumed suffix plus any undecoded
    /// tail) — the stream's memory footprint, bounded by the largest
    /// in-flight token.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed + self.pending.len()
    }

    /// Global position just past the last drained token.
    pub fn pos(&self) -> Pos {
        self.base
    }

    /// Drop the consumed prefix once it dominates the buffer. `consumed` is
    /// always a token boundary, hence a character boundary.
    fn compact(&mut self) {
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed >= COMPACT_THRESHOLD && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

/// The stable tokens of one [`StreamTokenizer::drain_tokens`] call, in
/// document order, with whole-document spans.
#[derive(Debug)]
pub struct StreamTokens<'a> {
    tok: Tokenizer<'a>,
    eof: bool,
    /// Global position just past the last token yielded.
    end: Pos,
}

impl<'a> Iterator for StreamTokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let Step::Token(token) = self.tok.step(self.eof) else {
            return None;
        };
        self.end = token.span.end;
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::Span;
    use crate::token::TokenKind;
    use crate::tokenize;
    use crate::tokenizer::tests::TRICKY_DOCS;

    /// Render a token to a form that captures everything the engine ever
    /// looks at: kind, span, attribute spans, text content and flags. Debug
    /// output prints slice *contents*, so streamed and one-shot tokens
    /// compare equal iff they are byte-identical.
    fn render_all(src: &[u8], chunks: &[&[u8]]) -> (Vec<String>, Vec<String>) {
        let text = String::from_utf8_lossy(src);
        let one_shot: Vec<String> = tokenize(&text).iter().map(|t| format!("{t:?}")).collect();
        let mut streamed = Vec::new();
        let mut stream = StreamTokenizer::new();
        let mut drain = |stream: &mut StreamTokenizer| {
            stream.drain_tokens(|_, _, tokens| streamed.extend(tokens.map(|t| format!("{t:?}"))))
        };
        for chunk in chunks {
            stream.feed(chunk);
            drain(&mut stream);
        }
        stream.finish();
        drain(&mut stream);
        (one_shot, streamed)
    }

    fn assert_split_equivalence(src: &[u8]) {
        for cut in 0..=src.len() {
            let (one_shot, streamed) = render_all(src, &[&src[..cut], &src[cut..]]);
            assert_eq!(
                one_shot,
                streamed,
                "split at {cut} of {:?}",
                String::from_utf8_lossy(src)
            );
        }
        // Byte-at-a-time is the adversarial extreme: every boundary at once.
        let singles: Vec<&[u8]> = src.chunks(1).collect();
        let (one_shot, streamed) = render_all(src, &singles);
        assert_eq!(
            one_shot,
            streamed,
            "byte-at-a-time of {:?}",
            String::from_utf8_lossy(src)
        );
    }

    #[test]
    fn every_split_of_every_tricky_document_matches_one_shot() {
        for doc in TRICKY_DOCS {
            assert_split_equivalence(doc);
        }
    }

    #[test]
    fn watermark_never_delays_a_stable_token() {
        // finish() flushes everything, so a watermark that skipped past a
        // terminator would still pass the split tests. Here a stream fed
        // byte by byte must, after every byte, have drained exactly as
        // many tokens as a fresh stream given that prefix in one chunk
        // (whose first drain starts with no watermark).
        let docs: &[&[u8]] = &[
            b"<SCRIPT>a<b; c</scr; d</SCRIP</script>x<B>y</B>",
            b"<STYLE>p<q</STYL</style >y",
            "<XMP>\u{65e5}\u{672c}<\u{e9}</xmp>z<I>".as_bytes(),
            b"<PRE>i < 3 <\n j <= 4 < </PRE>x<B>",
            b"a < b <<P>c <</P> d <!-- e -->",
        ];
        let drained = |stream: &mut StreamTokenizer| {
            let mut n = 0;
            stream.drain_tokens(|_, _, tokens| n = tokens.count());
            n
        };
        for doc in docs {
            let mut stream = StreamTokenizer::new();
            let mut total = 0;
            for cut in 1..=doc.len() {
                stream.feed(&doc[cut - 1..cut]);
                total += drained(&mut stream);
                let mut fresh = StreamTokenizer::new();
                fresh.feed(&doc[..cut]);
                assert_eq!(
                    total,
                    drained(&mut fresh),
                    "after {cut} bytes of {:?}",
                    String::from_utf8_lossy(doc)
                );
            }
        }
    }

    #[test]
    fn invalid_utf8_matches_from_utf8_lossy_at_every_split() {
        let docs: &[&[u8]] = &[
            b"<P>\xff\xfe</P>",
            b"<P>a\xe2\x82</P>",          // truncated 3-byte sequence inside
            b"<P>tail\xe2\x82",           // truncated sequence at EOF
            b"<P>\xf0\x9f\x92\xa9ok</P>", // valid 4-byte char
            b"<P>\xf0\x9f\x92ok</P>",     // its truncation
            b"<B \xc3\x28>x</B>",         // invalid continuation inside a tag
            b"\x80\x80<I>y</I>",          // stray continuation bytes
        ];
        for doc in docs {
            assert_split_equivalence(doc);
        }
    }

    #[test]
    fn spans_are_rebased_to_document_coordinates() {
        let src = "<HTML>\n<BODY CLASS=\"x\">\ntext\n</BODY>\n</HTML>\n";
        let mut expected = Vec::new();
        for t in tokenize(src) {
            expected.push((t.span, format!("{t}")));
        }
        for cut in 0..=src.len() {
            let mut got = Vec::new();
            let mut stream = StreamTokenizer::new();
            let mut drain = |stream: &mut StreamTokenizer| {
                stream.drain_tokens(|_, _, tokens| {
                    got.extend(tokens.map(|t| (t.span, format!("{t}"))))
                })
            };
            stream.feed(&src.as_bytes()[..cut]);
            drain(&mut stream);
            stream.feed(&src.as_bytes()[cut..]);
            stream.finish();
            drain(&mut stream);
            assert_eq!(expected, got, "split at {cut}");
        }
    }

    #[test]
    fn callback_slice_resolves_global_spans() {
        let src = b"<HTML>\n<BODY CLASS=\"x\">\ntext\n</BODY>\n";
        let mut stream = StreamTokenizer::new();
        for chunk in src.chunks(5) {
            stream.feed(chunk);
            stream.drain_tokens(check_slice);
        }
        stream.finish();
        stream.drain_tokens(check_slice);

        fn check_slice(slice: &str, offset: usize, tokens: &mut StreamTokens<'_>) {
            let local = |span: Span| &slice[span.start.offset - offset..span.end.offset - offset];
            for t in tokens {
                if let TokenKind::StartTag(tag) = &t.kind {
                    for attr in &tag.attrs {
                        assert_eq!(local(attr.span), attr.name);
                        if let Some(v) = &attr.value {
                            assert_eq!(local(v.span), v.raw);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn memory_stays_bounded_by_token_size_not_document_size() {
        // A long stream of small, self-contained paragraphs: the buffer
        // must keep compacting back down instead of accumulating the
        // document.
        let mut stream = StreamTokenizer::new();
        let para = b"<P CLASS=\"x\">some text content goes here</P>\n";
        let mut peak = 0usize;
        for _ in 0..10_000 {
            stream.feed(para);
            stream.drain_tokens(|_, _, tokens| tokens.for_each(drop));
            peak = peak.max(stream.buffered());
        }
        assert!(
            peak < 2 * COMPACT_THRESHOLD + para.len(),
            "buffer grew to {peak} bytes over a 460 KB stream"
        );
        stream.finish();
        stream.drain_tokens(|_, _, tokens| tokens.for_each(drop));
        assert_eq!(stream.buffered(), 0);
    }

    #[test]
    fn step_with_eof_matches_iterator() {
        let src = "<P>one<BR>two <!-- c --> three <B class=x>four</B><A HREF=\"x";
        let mut by_iter = Vec::new();
        for t in Tokenizer::new(src) {
            by_iter.push(format!("{t:?}"));
        }
        let mut by_step = Vec::new();
        let mut tok = Tokenizer::new(src);
        loop {
            match tok.step(true) {
                Step::Token(t) => by_step.push(format!("{t:?}")),
                Step::Done => break,
                Step::NeedMore => panic!("NeedMore is unreachable at eof"),
            }
        }
        assert_eq!(by_iter, by_step);
    }
}
