//! Incremental tokenization over a growing byte stream.
//!
//! [`StreamTokenizer`] is the buffer-management layer that turns the
//! pull-based [`Tokenizer`] into a push-based one: callers [`feed`] byte
//! chunks as they arrive (off a socket, a pipe, a fetch in progress) and
//! drain the tokens that are already complete — tokens whose extent no
//! future byte can change. The token stream, spans included, is
//! byte-identical to tokenizing the concatenated document in one shot.
//!
//! Each drain runs the one [`Tokenizer`] over the unconsumed buffer. Two
//! pieces of state cross a feed boundary besides that buffer and the
//! global [`Pos`] of its first byte:
//!
//! 1. **The undecoded tail** — up to three bytes of an incomplete UTF-8
//!    sequence, held back so the lossy decode matches
//!    [`String::from_utf8_lossy`] of the whole input.
//! 2. **The tokenizer's carry** — the pending raw-text close pattern
//!    (`</script` …), the `PLAINTEXT` latch, and the suspended scan: when
//!    a text run, raw-text body, comment, CDATA section, declaration or
//!    tag is still open at the end of the buffer, its scan records how far
//!    its terminator search got and the search's state there (the open
//!    quote of a tag body, say). The next drain resumes that search, so
//!    every byte of a construct is searched once however many feeds it
//!    spans, and the token is built once, when its terminator arrives.
//!
//! Consumed prefixes are compacted away, so memory is bounded by the
//! largest single token, not the document.
//!
//! [`feed`]: StreamTokenizer::feed

use crate::pos::Pos;
use crate::tokenizer::{Carry, Tokenizer};

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
    /// What the tokenizer of the last drain left for the next one.
    carry: Carry,
    /// `finish` was called: the next drain treats the buffer end as EOF.
    eof: bool,
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

    /// Emit every token that is already complete (every remaining token,
    /// after [`finish`](Self::finish)).
    ///
    /// `f` runs once per drain. It receives the backing text slice, the
    /// global byte offset of that slice's first byte, and the tokenizer
    /// over it, which yields the complete tokens, each with **global**
    /// (whole-document) spans: any span a token carries resolves via
    /// `&slice[span.start.offset - offset..]`. Tokens the callback leaves
    /// unread stay in the stream for the next drain.
    pub fn drain_tokens<F>(&mut self, f: F)
    where
        F: for<'s> FnOnce(&'s str, usize, &mut Tokenizer<'s>),
    {
        self.compact();
        let slice = &self.buf[self.consumed..];
        let mut tokens = Tokenizer::resume(slice, self.base, self.carry, self.eof);
        f(slice, self.base.offset, &mut tokens);
        let end = tokens.pos();
        self.carry = tokens.carry();
        self.consumed += end.offset - self.base.offset;
        self.base = end;
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

        fn check_slice(slice: &str, offset: usize, tokens: &mut Tokenizer<'_>) {
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
}
