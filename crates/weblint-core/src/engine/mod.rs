//! The lint engine: "basically a stack machine with an ad-hoc parser, which
//! uses various heuristics to keep things together as it goes along" (§5.1).
//!
//! The file being processed is tokenised into start tags, text content and
//! end tags. Opening tags are pushed onto the main stack; closing tags pop
//! it. A secondary stack holds unresolved tags — elements displaced by
//! overlapping markup — so that their close tags, arriving later, do not
//! produce spurious messages. The heuristics (implied closes, overlap
//! resolution, silent handling of unknown elements' close tags) exist "in an
//! effort to minimise the number of warning cascades, where a single problem
//! generates a flurry of error messages"; they can be switched off via
//! [`crate::LintConfig::heuristics`] to measure exactly that effect.
//!
//! All engine state is keyed by interned [`names::NameId`]s and lives in a
//! reusable [`Scratch`], so a [`crate::LintSession`] can lint many
//! documents with amortized-zero allocation churn.

mod end;
pub(crate) mod names;
mod open;
mod scratch;
mod start;
mod text;
mod view;

pub(crate) use open::Open;
pub(crate) use scratch::Scratch;
pub(crate) use view::SrcView;

use std::time::Instant;

use weblint_html::HtmlSpec;
use weblint_rules::pattern::PatternRule;
use weblint_rules::profile::Profile;
use weblint_rules::{applies, kind_mask, Rule};
use weblint_tokenizer::{Pos, Span, Token, TokenKind};

use crate::fix::{Edit, Fix};
use crate::message::Diagnostic;
use crate::options::{CaseStyle, LintConfig};

use names::known;

/// The per-document engine state that must survive between drains of a
/// document: everything in [`Checker`] that is not borrowed from the
/// session or derivable from the config. A [`crate::LintSession`] holds
/// one of these per document; [`Checker::resume`] loads it for the
/// duration of a drain and [`Checker::suspend`] stores it back.
/// (The element stacks and text accumulators also cross feeds, but they
/// live in [`Scratch`], which the session owns directly.)
#[derive(Debug, Clone)]
pub(crate) struct DocState {
    pub(crate) diags: Vec<Diagnostic>,
    pub(crate) seen_doctype: bool,
    pub(crate) first_tag_checked: bool,
    pub(crate) head_seen: bool,
    pub(crate) body_seen: bool,
    pub(crate) after_head: bool,
    pub(crate) last_heading: Option<u8>,
    pub(crate) end_pos: Pos,
    /// The enabled-rule mask, computed from the config on the first
    /// resume and reused for every later one. A streamed document is
    /// resumed once per drain, which is once per feed that completes a
    /// token — up to once per byte under byte-at-a-time feeding — and
    /// recomputing the mask (a registry walk with a hash lookup per rule)
    /// that often would dominate small feeds.
    pub(crate) mask: Option<u64>,
}

impl Default for DocState {
    fn default() -> DocState {
        DocState {
            diags: Vec::new(),
            seen_doctype: false,
            first_tag_checked: false,
            head_seen: false,
            body_seen: false,
            after_head: false,
            last_heading: None,
            end_pos: Pos::START,
            mask: None,
        }
    }
}

/// Engine state for one document.
pub(crate) struct Checker<'a> {
    pub(crate) spec: &'a HtmlSpec,
    pub(crate) config: &'a LintConfig,
    pub(crate) src: SrcView<'a>,
    /// Reusable stacks, buffers and name tables.
    pub(crate) scratch: &'a mut Scratch,
    pub(crate) diags: Vec<Diagnostic>,
    pub(crate) seen_doctype: bool,
    pub(crate) first_tag_checked: bool,
    pub(crate) head_seen: bool,
    pub(crate) body_seen: bool,
    /// Between `</HEAD>` and `<BODY>`: content here is misplaced.
    pub(crate) after_head: bool,
    pub(crate) last_heading: Option<u8>,
    /// Position of the end of input, maintained as tokens stream past.
    pub(crate) end_pos: Pos,
    /// Bitmask of enabled registry rules (bit position = `Rule as u16`),
    /// computed once per document so every emission gates on a single AND.
    pub(crate) mask: u64,
    /// Enabled custom pattern rules, interpreted against each start tag
    /// after the built-in checks.
    pub(crate) custom: Vec<&'a PatternRule>,
    /// Per-rule cost counters, present only when profiling was requested.
    pub(crate) profile: Option<&'a mut Profile>,
    /// Whether any enabled rule inspects comments. The comment handler is
    /// pure emissions, so it can be skipped wholesale when this is false.
    check_comments: bool,
    /// The name-case style, read off `mask` once: every tag and attribute
    /// name consults it, and [`LintConfig::case_style`] costs two map
    /// lookups per call.
    case_style: CaseStyle,
}

impl<'a> Checker<'a> {
    fn with_mask(
        spec: &'a HtmlSpec,
        config: &'a LintConfig,
        src: SrcView<'a>,
        scratch: &'a mut Scratch,
        mask: u64,
    ) -> Checker<'a> {
        // An empty iterator collects without allocating, so documents
        // linted under a rule-free config pay nothing here.
        let custom: Vec<&'a PatternRule> = config
            .custom_rules
            .iter()
            .filter(|r| config.is_enabled(r.id))
            .collect();
        Checker {
            spec,
            config,
            src,
            scratch,
            diags: Vec::new(),
            seen_doctype: false,
            first_tag_checked: false,
            head_seen: false,
            body_seen: false,
            after_head: false,
            last_heading: None,
            end_pos: Pos::START,
            mask,
            custom,
            profile: None,
            check_comments: mask & kind_mask(applies::COMMENT) != 0,
            case_style: if mask & Rule::UpperCase.bit() != 0 {
                CaseStyle::Upper
            } else if mask & Rule::LowerCase.bit() != 0 {
                CaseStyle::Lower
            } else {
                CaseStyle::Any
            },
        }
    }

    /// Rebuild a checker from suspended state, for the next drain of a
    /// document. The borrowed fields (spec, config, scratch) come fresh
    /// from the session; everything else is moved or copied out of
    /// `state`.
    pub(crate) fn resume(
        spec: &'a HtmlSpec,
        config: &'a LintConfig,
        src: SrcView<'a>,
        scratch: &'a mut Scratch,
        state: &mut DocState,
    ) -> Checker<'a> {
        let mask = match state.mask {
            Some(mask) => mask,
            None => {
                let mask = config.rule_mask();
                state.mask = Some(mask);
                mask
            }
        };
        let mut checker = Checker::with_mask(spec, config, src, scratch, mask);
        checker.diags = std::mem::take(&mut state.diags);
        checker.seen_doctype = state.seen_doctype;
        checker.first_tag_checked = state.first_tag_checked;
        checker.head_seen = state.head_seen;
        checker.body_seen = state.body_seen;
        checker.after_head = state.after_head;
        checker.last_heading = state.last_heading;
        checker.end_pos = state.end_pos;
        checker
    }

    /// Store the surviving per-document state back into `state` at the end
    /// of a drain, releasing the borrows of the session's buffers.
    pub(crate) fn suspend(self, state: &mut DocState) {
        state.diags = self.diags;
        state.seen_doctype = self.seen_doctype;
        state.first_tag_checked = self.first_tag_checked;
        state.head_seen = self.head_seen;
        state.body_seen = self.body_seen;
        state.after_head = self.after_head;
        state.last_heading = self.last_heading;
        state.end_pos = self.end_pos;
    }

    pub(crate) fn on_token(&mut self, token: &Token<'_>) {
        self.end_pos = token.span.end;
        match &token.kind {
            TokenKind::StartTag(tag) => self.on_start_tag(tag, token.span),
            TokenKind::EndTag(tag) => self.on_end_tag(tag, token.span),
            TokenKind::Text(t) => self.on_text(t, token.span),
            TokenKind::Comment(c) => {
                if self.check_comments {
                    self.on_comment(c, token.span)
                }
            }
            TokenKind::Doctype(d) => self.on_doctype(d, token.span),
            // Other markup declarations and PIs are passed through silently:
            // weblint checks HTML, not SGML prologues.
            TokenKind::Decl(_) | TokenKind::Pi(_) => {}
        }
    }

    /// Emit a diagnostic if its rule is enabled.
    pub(crate) fn emit(&mut self, rule: Rule, span: Span, message: String) {
        if self.mask & rule.bit() == 0 {
            return;
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.hit(rule);
        }
        let def = rule.descriptor();
        self.diags
            .push(Diagnostic::at(def.id, def.category, span, message));
    }

    /// Emit a diagnostic that has a mechanical repair.
    ///
    /// `span` is where the message reports (line/column come from its
    /// start, exactly as [`Checker::emit`]); `fix_span` is the full byte
    /// range of the construct being repaired, recorded on the diagnostic
    /// so downstream consumers never re-scan the source. The fix itself
    /// is built lazily — `build` only runs in fix-collecting mode, so the
    /// one-shot lint path pays a single branch for all of this. `build`
    /// may return `None` for instances that are not mechanically
    /// repairable (mangled quoting, out-of-range offsets).
    pub(crate) fn emit_fix(
        &mut self,
        rule: Rule,
        span: Span,
        fix_span: Span,
        message: String,
        build: impl FnOnce() -> Option<Fix>,
    ) {
        if self.mask & rule.bit() == 0 {
            return;
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.hit(rule);
        }
        let def = rule.descriptor();
        let mut diag = Diagnostic::at(def.id, def.category, span, message);
        diag.span = fix_span;
        if self.config.emit_fixes {
            if let Some(fix) = build() {
                // The span audit: a diagnostic that carries a repair must
                // also carry the full span of what it repairs.
                debug_assert!(
                    !fix_span.is_empty(),
                    "fixable diagnostic `{}` has an empty span",
                    def.id
                );
                debug_assert!(
                    fix.is_well_formed() && !fix.edits.is_empty(),
                    "fix for `{}` is malformed: {fix:?}",
                    def.id
                );
                diag.fix = Some(Box::new(fix));
            }
        }
        self.diags.push(diag);
    }

    /// Open a profiling bracket: `Some(now)` only when profiling, so the
    /// unprofiled hot path pays a single branch.
    #[inline]
    pub(crate) fn prof_start(&self) -> Option<Instant> {
        self.profile.as_ref().map(|_| Instant::now())
    }

    /// Close a profiling bracket opened by [`Checker::prof_start`],
    /// attributing the elapsed time to `rule`. Brackets cover whole check
    /// sections; `rule` is the section's face (see DESIGN.md §26).
    #[inline]
    pub(crate) fn prof_end(&mut self, rule: Rule, t0: Option<Instant>) {
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            p.add_time(rule, t0.elapsed());
        }
    }

    /// Whether a `<HEAD>` element is currently open.
    pub(crate) fn in_head(&self) -> bool {
        self.scratch.stack.holds(known().head)
    }

    /// End-of-document processing: force-close whatever is still open and
    /// run the whole-document checks.
    pub(crate) fn run_eof_checks(&mut self) {
        let eof = Span::empty(self.end_pos);
        let end_offset = self.end_pos.offset;
        while let Some(open) = self.scratch.stack.pop() {
            let silent =
                self.config.heuristics && open.def.map(|d| d.end_tag_optional()).unwrap_or(true);
            if !silent {
                let orig = open.orig(&self.scratch.origs).to_string();
                self.emit_fix(
                    Rule::UnclosedElement,
                    eof,
                    open.name_span,
                    format!(
                        "no closing </{orig}> seen for <{orig}> on line {line}",
                        line = open.line
                    ),
                    // Append the missing end tag at end-of-file. The stack
                    // pops innermost-first, and same-offset insertions keep
                    // their emission order, so nesting comes out right.
                    move || Some(Fix::one(Edit::insert(end_offset, format!("</{orig}>")))),
                );
            }
            self.close_bookkeeping(&open, eof);
            self.scratch.release_orig(&open);
        }
        if self.first_tag_checked && !self.config.fragment {
            if !self.head_seen {
                self.emit(
                    Rule::RequireHead,
                    eof,
                    "document should contain a HEAD element".to_string(),
                );
            }
            if self.scratch.seen_line(known().title) == 0 {
                self.emit(
                    Rule::RequireTitle,
                    eof,
                    "no <TITLE> in HEAD element".to_string(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::LintSession;

    fn lint(src: &str) -> Vec<Diagnostic> {
        LintSession::new().check_string(src)
    }

    fn ids(src: &str) -> Vec<&'static str> {
        lint(src).iter().map(|d| d.id).collect()
    }

    const CLEAN: &str = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
        <HTML>\n<HEAD>\n<TITLE>ok</TITLE>\n</HEAD>\n<BODY>\n\
        <H1>Fine</H1>\n<P>Hello there.\n</BODY>\n</HTML>\n";

    #[test]
    fn clean_document_is_clean() {
        assert_eq!(lint(CLEAN), vec![]);
    }

    #[test]
    fn empty_input_is_clean() {
        assert_eq!(lint(""), vec![]);
    }

    #[test]
    fn text_only_input_is_clean() {
        // No markup at all: the structure checks stay quiet.
        assert_eq!(lint("just some words\n"), vec![]);
    }

    #[test]
    fn missing_doctype_reported_at_first_tag() {
        let diags = lint("<HTML><HEAD><TITLE>x</TITLE></HEAD><BODY>y</BODY></HTML>");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].id, "require-doctype");
        assert_eq!(diags[0].line, 1);
        assert_eq!(
            diags[0].message,
            "first element was not DOCTYPE specification"
        );
    }

    #[test]
    fn missing_head_and_title_reported_at_eof() {
        let src = "<!DOCTYPE HTML PUBLIC \"x\">\n<HTML>\n<BODY>hi</BODY>\n</HTML>";
        let found = ids(src);
        assert!(found.contains(&"require-head"), "{found:?}");
        assert!(found.contains(&"require-title"), "{found:?}");
    }

    #[test]
    fn fragment_mode_skips_structure_checks() {
        let mut config = LintConfig::default();
        config.fragment = true;
        let diags = LintSession::with_config(config).check_string("<B>bold</B> and <I>italic</I>");
        assert_eq!(diags, vec![]);
    }

    #[test]
    fn unclosed_at_eof_reported() {
        let src = format!("{}<B>dangling", CLEAN);
        let diags = lint(&src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].id, "unclosed-element");
        assert!(diags[0].message.contains("</B>"), "{}", diags[0].message);
    }

    #[test]
    fn optional_end_tags_close_silently_at_eof() {
        // P and LI end tags are omissible: no noise.
        let src = "<!DOCTYPE HTML PUBLIC \"x\">\n<HTML><HEAD><TITLE>t</TITLE></HEAD>\
                   <BODY><P>one<UL><LI>two</UL></BODY></HTML>";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_checks() {
        // Reusing one Scratch across documents — including ones that leave
        // elements open, unknown names interned, and buffers dirty — must
        // give exactly the diagnostics a fresh check gives.
        let docs = [
            CLEAN,
            "<HTML><HEAD><TITLE>t</TITLE><BODY><A HREF=x>here</A>",
            "<NOSUCHTAG><B>dangling",
            "",
            CLEAN,
        ];
        let mut session = LintSession::new();
        for doc in docs {
            let reused = session.check_string(doc);
            assert_eq!(reused, lint(doc), "{doc:?}");
        }
    }
}
