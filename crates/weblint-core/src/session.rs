//! Reusable lint sessions: check many documents with amortized-zero
//! allocation churn, one-shot or incrementally.
//!
//! [`crate::Weblint`] builds fresh engine state per document; a
//! [`LintSession`] owns that state — the element stacks, the seen-line
//! table, the side name intern, and the text accumulators — and reuses it
//! across [`LintSession::check_string`] calls. After the first few
//! documents the hot path performs no per-document allocations beyond the
//! returned diagnostics themselves, which is what a long-lived service
//! worker wants.
//!
//! A session can also lint a document *incrementally*: push byte chunks
//! with [`LintSession::feed`] as they arrive off a socket and collect
//! diagnostics as soon as their trigger token closes, then
//! [`LintSession::finish`] at end of input for the end-of-document checks.
//! The diagnostics, concatenated, are byte-identical to one-shot output
//! regardless of where the chunk boundaries fall — both paths drive the
//! same eof-aware tokenizer step and the same checker. Memory while
//! streaming is bounded by the engine state plus the largest single token,
//! not the document size.

use std::fs;
use std::io;
use std::path::Path;

use weblint_html::HtmlSpec;
use weblint_tokenizer::StreamTokenizer;

use crate::engine::{self, Checker, DocState, Scratch, SrcView, NO_FIX};
use crate::message::Diagnostic;
use crate::options::LintConfig;

/// Options for a single [`LintSession::lint`] call — the one entry point
/// behind [`LintSession::check_string`] and the deprecated
/// [`LintSession::check_string_profiled`].
#[derive(Debug, Default)]
pub struct LintRequest<'p> {
    /// Override the session configuration's `emit_fixes` for this document:
    /// `Some(true)` collects mechanical repairs on the diagnostics,
    /// `Some(false)` suppresses them, `None` inherits the config.
    pub emit_fixes: Option<bool>,
    /// Accumulate per-rule hit and wall-time counters for this document.
    /// Diagnostics are identical to the unprofiled path; the engine merely
    /// brackets its check sections with timers.
    pub profile: Option<&'p mut weblint_rules::profile::Profile>,
}

/// In-flight state of a document being linted incrementally.
#[derive(Debug, Clone, Default)]
struct StreamState {
    tok: StreamTokenizer,
    doc: DocState,
    /// How many of `doc.diags` have already been handed to the caller.
    yielded: usize,
}

/// An HTML checker that owns reusable working memory.
///
/// Behaves exactly like [`crate::Weblint`] — same configuration surface,
/// byte-identical diagnostics — but `check_string` takes `&mut self` so the
/// engine's scratch buffers can be recycled between documents.
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

    /// Check a whole in-memory document under per-call options, reusing
    /// this session's buffers. Never fails; returns diagnostics in source
    /// order. Any document still streaming via [`LintSession::feed`] is
    /// abandoned first.
    pub fn lint(&mut self, src: &str, request: LintRequest<'_>) -> Vec<Diagnostic> {
        self.stream = None;
        let saved = self.config.emit_fixes;
        if let Some(fixes) = request.emit_fixes {
            self.config.emit_fixes = fixes;
        }
        self.documents += 1;
        let diags = match request.profile {
            Some(profile) => {
                engine::check_profiled(&self.spec, &self.config, src, &mut self.scratch, profile)
            }
            None => engine::check_with(&self.spec, &self.config, src, &mut self.scratch),
        };
        self.config.emit_fixes = saved;
        diags
    }

    /// Check a document held in memory, reusing this session's buffers.
    /// Never fails; returns diagnostics in source order. Equivalent to
    /// [`LintSession::lint`] with default options.
    pub fn check_string(&mut self, src: &str) -> Vec<Diagnostic> {
        self.lint(src, LintRequest::default())
    }

    /// [`LintSession::check_string`], accumulating per-rule hit and
    /// wall-time counters into `profile`. This is what `weblint -profile`
    /// runs.
    #[deprecated(since = "0.10.0", note = "use `lint` with `LintRequest::profile`")]
    pub fn check_string_profiled(
        &mut self,
        src: &str,
        profile: &mut weblint_rules::profile::Profile,
    ) -> Vec<Diagnostic> {
        self.lint(
            src,
            LintRequest {
                profile: Some(profile),
                ..LintRequest::default()
            },
        )
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
        if self.stream.is_none() {
            self.scratch.reset();
            self.stream = Some(StreamState::default());
        }
        let state = self.stream.as_mut().expect("stream state just ensured");
        state.tok.feed(chunk);
        Self::drain(&self.spec, &self.config, &mut self.scratch, state);
        // Hold back any diagnostic an element still on the stacks may yet
        // amend (a deferred obsolete-element rename attaches its fix when
        // the matching end tag arrives); everything earlier is final.
        let safe = self
            .scratch
            .stack
            .iter()
            .chain(self.scratch.unresolved.iter())
            .filter(|o| o.fix_diag != NO_FIX)
            .map(|o| o.fix_diag as usize)
            .min()
            .unwrap_or(usize::MAX)
            .min(state.doc.diags.len());
        let fresh = state.doc.diags[state.yielded..safe].to_vec();
        state.yielded = safe;
        fresh.into_iter()
    }

    /// End the streamed document: flush the tokenizer, run the
    /// end-of-document checks, and return the remaining diagnostics.
    /// Without a preceding [`LintSession::feed`] this checks an empty
    /// document. The session is ready for the next document afterwards.
    pub fn finish(&mut self) -> impl Iterator<Item = Diagnostic> {
        if self.stream.is_none() {
            self.scratch.reset();
            self.stream = Some(StreamState::default());
        }
        let mut state = self.stream.take().expect("stream state just ensured");
        state.tok.finish();
        Self::drain(&self.spec, &self.config, &mut self.scratch, &mut state);
        let view = SrcView::resumed("", state.tok.pos().offset);
        let mut checker = Checker::resume(
            &self.spec,
            &self.config,
            view,
            &mut self.scratch,
            &mut state.doc,
        );
        checker.run_eof_checks();
        checker.suspend(&mut state.doc);
        self.documents += 1;
        let yielded = state.yielded.min(state.doc.diags.len());
        state.doc.diags.split_off(yielded).into_iter()
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

    /// Run every token the stream can currently complete through the
    /// checker: one resume, every token of the drain, one suspend. The
    /// per-document state is suspended between drains so the borrow of the
    /// stream buffer never outlives the callback.
    fn drain(spec: &HtmlSpec, config: &LintConfig, scratch: &mut Scratch, state: &mut StreamState) {
        let doc = &mut state.doc;
        state.tok.drain_tokens(|slice, offset, tokens| {
            let view = SrcView::resumed(slice, offset);
            let mut checker = Checker::resume(spec, config, view, scratch, doc);
            for token in tokens {
                checker.on_token(&token);
            }
            checker.suspend(doc);
        });
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
    use crate::linter::Weblint;
    use weblint_html::{Extensions, HtmlVersion};

    #[test]
    fn matches_weblint_across_documents() {
        let weblint = Weblint::new();
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
                weblint.check_string(doc),
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
    fn config_versions_match_weblint() {
        let mut config = LintConfig::default();
        config.version = HtmlVersion::Html32;
        let weblint = Weblint::with_config(config.clone());
        let mut session = LintSession::with_config(config);
        let doc = "<HTML><BODY><ACRONYM>HTML</ACRONYM></BODY></HTML>";
        assert_eq!(session.check_string(doc), weblint.check_string(doc));
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
    fn lint_request_profile_matches_deprecated_wrapper() {
        let doc = "<H1>My Example</H2>";
        let mut session = LintSession::new();
        let plain = session.check_string(doc);
        let mut profile = weblint_rules::profile::Profile::default();
        let profiled = session.lint(
            doc,
            LintRequest {
                profile: Some(&mut profile),
                ..LintRequest::default()
            },
        );
        assert_eq!(plain, profiled);
        assert_eq!(profile.documents, 1);
    }

    #[test]
    fn lint_request_emit_fixes_overrides_config() {
        let doc = "<IMG SRC=pic.gif>";
        let mut config = LintConfig::default();
        config.fragment = true;
        let mut session = LintSession::with_config(config);
        let plain = session.check_string(doc);
        assert!(plain.iter().all(|d| d.fix.is_none()));
        let fixed = session.lint(
            doc,
            LintRequest {
                emit_fixes: Some(true),
                ..LintRequest::default()
            },
        );
        assert!(fixed.iter().any(|d| d.fix.is_some()), "{fixed:?}");
        // The override is per-call: the next plain check emits none.
        let again = session.check_string(doc);
        assert!(again.iter().all(|d| d.fix.is_none()));
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
}
