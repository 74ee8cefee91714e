//! The lint object: check many documents with amortized-zero allocation
//! churn, one-shot or incrementally.
//!
//! "The weblint module is a Perl class which encapsulates the HTML checking
//! functionality. This makes it easy to embed weblint functionality into any
//! application" (§5.4). [`LintSession`] is that class, and the simplest use
//! translates directly:
//!
//! ```text
//! use Weblint;                     let mut weblint = LintSession::new();
//! $weblint = Weblint->new();   →   let diags = weblint.check_file(path)?;
//! $weblint->check_file($filename);
//! ```
//!
//! A session owns the engine's working memory — the element stacks, the
//! seen-line table, the side name intern, and the text accumulators — and
//! reuses it across [`LintSession::check_string`] calls. After the first
//! few documents the hot path performs no per-document allocations beyond
//! the returned diagnostics themselves, which is what a long-lived service
//! worker wants. A fresh session per document gives byte-identical
//! diagnostics; it only pays for the buffers again.
//!
//! A session can also lint a document *incrementally*: push byte chunks
//! with [`LintSession::feed`] as they arrive off a socket and collect
//! diagnostics as soon as their trigger token closes, then
//! [`LintSession::finish`] at end of input for the end-of-document checks.
//! The diagnostics, concatenated, are byte-identical to one-shot output
//! regardless of where the chunk boundaries fall, because there is one
//! pump: a drain runs the checker over what the tokenizer yields from one
//! buffer, and the drain of the buffer that ends the document also runs
//! the end-of-document checks. A one-shot check is that last drain alone,
//! over the caller's string in place; a streamed document is a drain per
//! feed of the stream's buffer, whose tokenizer resumes a construct still
//! open at a feed's end where its scan stopped, and a last one at
//! `finish`. Memory while streaming is bounded by the engine state plus
//! the largest single token, not the document size.

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use weblint_html::HtmlSpec;
use weblint_rules::profile::Profile;
use weblint_tokenizer::{StreamTokenizer, Tokenizer};

use crate::engine::{Checker, DocState, Scratch, SrcView};
use crate::message::Diagnostic;
use crate::options::LintConfig;

/// In-flight state of a document being linted incrementally.
#[derive(Debug, Clone, Default)]
struct StreamState {
    tok: StreamTokenizer,
    doc: DocState,
    /// How many of `doc.diags` have already been handed to the caller.
    yielded: usize,
}

/// An HTML checker with a configuration and reusable working memory.
///
/// Building a session assembles the HTML version tables once; checks then
/// borrow them and recycle the engine's scratch buffers, so checking many
/// documents against one configuration is cheap.
///
/// # Examples
///
/// ```
/// use weblint_core::LintSession;
///
/// let mut session = LintSession::new();
/// for doc in ["<B>unclosed", "<I>also unclosed"] {
///     let diags = session.check_string(doc);
///     assert!(diags.iter().any(|d| d.id == "unclosed-element"));
/// }
/// assert_eq!(session.fallback_interns(), 0);
/// ```
#[doc(alias = "Weblint")]
#[derive(Debug, Clone)]
pub struct LintSession {
    config: LintConfig,
    spec: HtmlSpec,
    scratch: Scratch,
    documents: u64,
    /// Present while a streamed document is between `feed` and `finish`.
    stream: Option<StreamState>,
}

impl LintSession {
    /// A session with the default configuration: HTML 4.0 Transitional, no
    /// extensions, the 42 default messages enabled.
    pub fn new() -> LintSession {
        LintSession::with_config(LintConfig::default())
    }

    /// A session with an explicit configuration.
    pub fn with_config(config: LintConfig) -> LintSession {
        let spec = HtmlSpec::new(config.version, config.extensions);
        LintSession {
            config,
            spec,
            scratch: Scratch::default(),
            documents: 0,
            stream: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Replace the configuration (rebuilding the language tables if the
    /// version or extensions changed). The scratch buffers are kept.
    pub fn set_config(&mut self, config: LintConfig) {
        if config.version != self.config.version || config.extensions != self.config.extensions {
            self.spec = HtmlSpec::new(config.version, config.extensions);
        }
        self.config = config;
    }

    /// The assembled HTML language tables this session consults.
    pub fn spec(&self) -> &HtmlSpec {
        &self.spec
    }

    /// Check a document held in memory, reusing this session's buffers.
    /// Never fails; returns diagnostics in source order. Any document still
    /// streaming via [`LintSession::feed`] is abandoned first.
    ///
    /// This runs the one drain of the streamed path, once, over `src` in
    /// place, as the buffer that ends the document.
    pub fn check_string(&mut self, src: &str) -> Vec<Diagnostic> {
        self.check_whole(src, None)
    }

    /// [`LintSession::check_string`], accumulating per-rule hit and
    /// wall-time counters into `profile`. The diagnostics are identical to
    /// the unprofiled call's. This is what `weblint -profile` runs.
    pub fn check_string_profiled(&mut self, src: &str, profile: &mut Profile) -> Vec<Diagnostic> {
        let t0 = Instant::now();
        let diags = self.check_whole(src, Some(&mut *profile));
        profile.total_nanos += t0.elapsed().as_nanos() as u64;
        profile.documents += 1;
        diags
    }

    fn check_whole(&mut self, src: &str, profile: Option<&mut Profile>) -> Vec<Diagnostic> {
        self.stream = None;
        self.scratch.reset();
        let mut doc = DocState::default();
        self.drain(&mut doc, 0, &mut Tokenizer::new(src), true, profile);
        self.documents += 1;
        doc.diags
    }

    /// Push the next chunk of a streamed document and collect the
    /// diagnostics it completes.
    ///
    /// The first `feed` after construction, [`LintSession::finish`] or
    /// [`LintSession::abort`] starts a new document. Chunks are raw bytes:
    /// invalid UTF-8 is replaced exactly as [`LintSession::check_file`]
    /// replaces it, even when a multi-byte sequence straddles a chunk
    /// boundary. Diagnostics come out as soon as their trigger token
    /// closes, in source order, identical to what one-shot
    /// [`LintSession::check_string`] would report for the concatenated
    /// input; the end-of-document diagnostics arrive from `finish`.
    ///
    /// # Examples
    ///
    /// ```
    /// use weblint_core::LintSession;
    ///
    /// let mut session = LintSession::new();
    /// let mut ids = Vec::new();
    /// for chunk in [&b"<H1>My Ex"[..], &b"ample</H2>"[..]] {
    ///     ids.extend(session.feed(chunk).map(|d| d.id));
    /// }
    /// ids.extend(session.finish().map(|d| d.id));
    /// assert!(ids.contains(&"heading-mismatch"));
    /// ```
    pub fn feed(&mut self, chunk: &[u8]) -> impl Iterator<Item = Diagnostic> {
        let mut state = self.take_stream();
        state.tok.feed(chunk);
        state.tok.drain_tokens(|_, offset, tokens| {
            self.drain(&mut state.doc, offset, tokens, false, None)
        });
        // Hold back any diagnostic an element still on the stacks may yet
        // amend (a deferred obsolete-element rename attaches its fix when
        // the matching end tag arrives); everything earlier is final.
        let safe = [&self.scratch.stack, &self.scratch.unresolved]
            .into_iter()
            .filter_map(|stack| stack.first_deferred_fix())
            .fold(state.doc.diags.len(), usize::min);
        let fresh = state.doc.diags[state.yielded..safe].to_vec();
        state.yielded = safe;
        self.stream = Some(state);
        fresh.into_iter()
    }

    /// End the streamed document: flush the tokenizer, run the
    /// end-of-document checks, and return the remaining diagnostics.
    /// Without a preceding [`LintSession::feed`] this checks an empty
    /// document. The session is ready for the next document afterwards.
    pub fn finish(&mut self) -> impl Iterator<Item = Diagnostic> {
        let mut state = self.take_stream();
        state.tok.finish();
        state.tok.drain_tokens(|_, offset, tokens| {
            self.drain(&mut state.doc, offset, tokens, true, None)
        });
        self.documents += 1;
        let yielded = state.yielded.min(state.doc.diags.len());
        state.doc.diags.split_off(yielded).into_iter()
    }

    /// The document streaming now, or a new one.
    fn take_stream(&mut self) -> StreamState {
        self.stream.take().unwrap_or_else(|| {
            self.scratch.reset();
            StreamState::default()
        })
    }

    /// Abandon a document mid-stream (client hung up, finding budget
    /// exhausted) without running the end-of-document checks. A no-op when
    /// nothing is streaming.
    pub fn abort(&mut self) {
        self.stream = None;
    }

    /// Bytes currently buffered for the in-flight streamed document —
    /// the unconsumed suffix a partial token occupies, which is what a
    /// per-connection memory accounting wants. Zero when idle: a fully
    /// consumed buffer has been recycled.
    pub fn stream_buffered(&self) -> usize {
        self.stream.as_ref().map_or(0, |s| s.tok.buffered())
    }

    /// The pump: run the checker over every token `tokens` yields, from
    /// global offset `offset` of the document on, and then, if `eof`, the
    /// end-of-document checks. The per-document state is resumed from
    /// `doc` and suspended back into it, so no borrow of a buffer outlives
    /// the drain.
    fn drain(
        &mut self,
        doc: &mut DocState,
        offset: usize,
        tokens: &mut Tokenizer<'_>,
        eof: bool,
        profile: Option<&mut Profile>,
    ) {
        let view = SrcView::resumed(tokens.source(), offset);
        let mut checker = Checker::resume(&self.spec, &self.config, view, &mut self.scratch, doc);
        checker.profile = profile;
        for token in tokens {
            checker.on_token(&token);
        }
        if eof {
            checker.run_eof_checks();
        }
        checker.suspend(doc);
    }

    /// Check a file on disk.
    ///
    /// Non-UTF-8 bytes are replaced rather than rejected — 1990s HTML is
    /// frequently Latin-1, and weblint checks what it can.
    pub fn check_file(&mut self, path: impl AsRef<Path>) -> io::Result<Vec<Diagnostic>> {
        let bytes = fs::read(path)?;
        let src = String::from_utf8_lossy(&bytes);
        Ok(self.check_string(&src))
    }

    /// Number of documents checked by this session.
    pub fn documents_checked(&self) -> u64 {
        self.documents
    }

    /// Cumulative count of names that missed the static atom table and fell
    /// back to the per-document side intern — the allocation canary. Stays
    /// at zero while every element and attribute name the session sees is
    /// in the generated tables.
    pub fn fallback_interns(&self) -> u64 {
        self.scratch.names.fallbacks()
    }
}

impl Default for LintSession {
    fn default() -> LintSession {
        LintSession::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblint_html::{Extensions, HtmlVersion};

    #[test]
    fn new_uses_defaults() {
        let session = LintSession::new();
        assert_eq!(session.config().version, HtmlVersion::Html40Transitional);
        assert_eq!(session.config().enabled_count(), 42);
    }

    #[test]
    fn reused_session_matches_fresh_sessions() {
        let mut session = LintSession::new();
        let docs = [
            "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>hi</BODY></HTML>",
            "<H1>My Example</H2>",
            "<NOSUCHTAG attr=1 attr=2><B>dangling",
            "",
            "<A HREF=\"mailto:x@y\">here</A>",
        ];
        for doc in docs {
            assert_eq!(
                session.check_string(doc),
                LintSession::new().check_string(doc),
                "{doc:?}"
            );
        }
        assert_eq!(session.documents_checked(), docs.len() as u64);
    }

    #[test]
    fn fallback_counter_tracks_unknown_names() {
        let mut session = LintSession::new();
        session.check_string("<HTML><BODY><P>fine</BODY></HTML>");
        assert_eq!(session.fallback_interns(), 0);
        session.check_string("<BLOCKQOUTE>x</BLOCKQOUTE>");
        // Open and close of the same unknown name intern it once per
        // document.
        assert_eq!(session.fallback_interns(), 1);
        session.check_string("<BLOCKQOUTE>x</BLOCKQOUTE>");
        assert_eq!(session.fallback_interns(), 2);
    }

    #[test]
    fn set_config_rebuilds_spec() {
        let mut session = LintSession::new();
        let mut config = LintConfig::default();
        config.extensions = Extensions::netscape();
        session.set_config(config);
        assert!(session.spec().element("blink").is_some());
        let diags = session.check_string("<BLINK>hi</BLINK>");
        assert!(!diags.iter().any(|d| d.id == "extension-markup"));
    }

    #[test]
    fn reconfigured_session_matches_fresh_session() {
        let doc = "<HTML><BODY><ACRONYM>HTML</ACRONYM></BODY></HTML>";
        let mut session = LintSession::new();
        let html40 = session.check_string(doc);
        let mut config = LintConfig::default();
        config.version = HtmlVersion::Html32;
        session.set_config(config.clone());
        let html32 = session.check_string(doc);
        assert_ne!(html32, html40, "ACRONYM is not HTML 3.2");
        assert_eq!(html32, LintSession::with_config(config).check_string(doc));
    }

    /// feed+finish at a given split must reproduce one-shot output exactly.
    fn stream_at_split(session: &mut LintSession, doc: &str, at: usize) -> Vec<Diagnostic> {
        let bytes = doc.as_bytes();
        let mut diags: Vec<Diagnostic> = session.feed(&bytes[..at]).collect();
        diags.extend(session.feed(&bytes[at..]));
        diags.extend(session.finish());
        diags
    }

    #[test]
    fn feed_finish_matches_check_string_at_every_split() {
        let docs = [
            "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>hi</BODY></HTML>",
            "<H1>My Example</H2>",
            "<A HREF=\"a.html>foo</A>\n<B>next line</B>",
            "<NOSUCHTAG attr=1 attr=2><B>dangling",
            "<XMP>literal <B> here</XMP><PRE>x</PRE>",
            "<!-- note --><P>&nbsp; &nosuch; text",
        ];
        let mut session = LintSession::new();
        for doc in docs {
            let expected = session.check_string(doc);
            for at in 0..=doc.len() {
                if !doc.is_char_boundary(at) {
                    continue;
                }
                let streamed = stream_at_split(&mut session, doc, at);
                assert_eq!(streamed, expected, "{doc:?} split at {at}");
            }
        }
    }

    #[test]
    fn byte_at_a_time_matches_one_shot() {
        let doc = "<HTML><HEAD><TITLE>café</TITLE></HEAD>\n<BODY><IMG SRC=x>\n</BODY></HTML>";
        let mut session = LintSession::new();
        let expected = session.check_string(doc);
        let mut streamed = Vec::new();
        for b in doc.as_bytes() {
            streamed.extend(session.feed(std::slice::from_ref(b)));
        }
        streamed.extend(session.finish());
        assert_eq!(streamed, expected);
    }

    #[test]
    fn deferred_rename_fix_survives_chunk_boundaries() {
        // <XMP> is obsolete with a mechanical replacement: the fix attaches
        // to the open tag's diagnostic only when </XMP> arrives, so the
        // stream must hold that diagnostic back across feeds.
        let doc = "<XMP>code</XMP>";
        let mut config = LintConfig::default();
        config.fragment = true;
        config.emit_fixes = true;
        let mut session = LintSession::with_config(config);
        let expected = session.check_string(doc);
        assert!(
            expected.iter().any(|d| d.fix.is_some()),
            "expected a rename fix: {expected:?}"
        );
        for at in 0..=doc.len() {
            let streamed = stream_at_split(&mut session, doc, at);
            assert_eq!(streamed, expected, "split at {at}");
        }
    }

    #[test]
    fn streaming_memory_stays_bounded() {
        let mut session = LintSession::new();
        let para = "<P>some ordinary paragraph text that repeats</P>\n";
        let mut peak = 0;
        for _ in 0..5000 {
            let _ = session.feed(para.as_bytes()).count();
            peak = peak.max(session.stream_buffered());
        }
        let diags: Vec<_> = session.finish().collect();
        assert!(
            peak < 128 * 1024,
            "buffered {peak} bytes for a 245 KiB document"
        );
        // require-doctype/html-outer/head/title — not one per paragraph.
        assert!(diags.len() < 10, "{}", diags.len());
        assert_eq!(session.stream_buffered(), 0);
    }

    #[test]
    fn feed_yields_diagnostics_before_finish() {
        let mut session = LintSession::new();
        let early: Vec<_> = session.feed(b"<HTML><NOSUCHTAG>rest of doc").collect();
        assert!(early.iter().any(|d| d.id == "unknown-element"), "{early:?}");
        session.abort();
        assert_eq!(session.stream_buffered(), 0);
        // The aborted document must not leak state into the next one.
        assert_eq!(session.check_string(""), vec![]);
    }

    #[test]
    fn finish_without_feed_checks_empty_document() {
        let mut session = LintSession::new();
        assert_eq!(session.finish().count(), 0);
        assert_eq!(session.documents_checked(), 1);
    }

    #[test]
    fn invalid_utf8_stream_matches_lossy_one_shot() {
        // 0xE9 is Latin-1 é — invalid UTF-8, replaced by U+FFFD, even when
        // fed as its own chunk.
        let bytes: &[u8] = b"<TITLE>caf\xe9</TITLE>";
        let lossy = String::from_utf8_lossy(bytes).into_owned();
        let mut session = LintSession::new();
        let expected = session.check_string(&lossy);
        for at in 0..=bytes.len() {
            let mut streamed: Vec<_> = session.feed(&bytes[..at]).collect();
            streamed.extend(session.feed(&bytes[at..]));
            streamed.extend(session.finish());
            assert_eq!(streamed, expected, "split at {at}");
        }
    }

    #[test]
    fn profiled_check_matches_plain_check() {
        let doc = "<H1>My Example</H2>";
        let mut session = LintSession::new();
        let plain = session.check_string(doc);
        let mut profile = Profile::default();
        let profiled = session.check_string_profiled(doc, &mut profile);
        assert_eq!(plain, profiled);
        assert_eq!(profile.documents, 1);
        assert_eq!(session.documents_checked(), 2);
    }

    #[test]
    fn check_file_round_trip() {
        let dir = std::env::temp_dir().join("weblint-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.html");
        std::fs::write(&path, "<B>x").unwrap();
        let mut session = LintSession::new();
        let diags = session.check_file(&path).unwrap();
        assert!(!diags.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_file_missing_is_io_error() {
        let mut session = LintSession::new();
        assert!(session.check_file("/no/such/file.html").is_err());
    }

    #[test]
    fn check_file_tolerates_latin1() {
        let dir = std::env::temp_dir().join("weblint-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("latin1.html");
        std::fs::write(&path, b"<P>caf\xe9</P>").unwrap();
        let mut session = LintSession::new();
        assert!(session.check_file(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
