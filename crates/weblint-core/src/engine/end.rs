//! End-tag handling: stack popping, overlap resolution via the secondary
//! stack, and the checks that run when an element closes.

use weblint_rules::Rule;
use weblint_tokenizer::{Span, Tag};

use crate::fix::{Edit, Fix};

use super::names::{heading_level, known, NameId};
use super::open::NO_FIX;
use super::{Checker, Open};

/// A fix that removes a stray end tag outright.
fn delete_tag(span: Span) -> impl FnOnce() -> Option<Fix> {
    move || {
        if span.is_empty() {
            return None;
        }
        Some(Fix::one(Edit::delete(span.start.offset, span.end.offset)))
    }
}

impl Checker<'_> {
    pub(crate) fn on_end_tag(&mut self, tag: &Tag<'_>, span: Span) {
        self.check_first_tag(tag.name, span);
        if tag.name.is_empty() {
            self.emit_fix(
                Rule::UnexpectedClose,
                span,
                span,
                "empty end tag `</>'".to_string(),
                delete_tag(span),
            );
            return;
        }
        self.check_name_case(tag.name, span, "tag");
        if tag.space_before_name {
            let (name_start, _) = self.src.range_of(tag.name);
            self.emit_fix(
                Rule::LeadingWhitespace,
                span,
                span,
                format!(
                    "whitespace not allowed between `</' and the tag name (</{}>)",
                    tag.name
                ),
                // Remove everything between `</` and the name.
                move || {
                    let from = span.start.offset + 2;
                    let to = name_start as usize;
                    if to <= from {
                        return None;
                    }
                    Some(Fix::one(Edit::delete(from, to)))
                },
            );
        }
        if !tag.attrs.is_empty() {
            let (name_start, name_len) = self.src.range_of(tag.name);
            let unterminated = tag.unterminated;
            let src = self.src;
            self.emit_fix(
                Rule::ClosingAttribute,
                span,
                span,
                format!("end tag </{}> should not have attributes", tag.name),
                // Remove everything between the name and the closing `>`.
                move || {
                    if unterminated {
                        return None;
                    }
                    let from = (name_start + name_len) as usize;
                    let to = span.end.offset.checked_sub(1)?;
                    if to < from || src.byte(to) != Some(b'>') {
                        return None;
                    }
                    Some(Fix::one(Edit::delete(from, to)))
                },
            );
        }

        let id = self.scratch.names.id(tag.name);

        // End tag for an empty element (</IMG>, </BR>): nothing to pop.
        if let Some(def) = id.atom().and_then(|atom| self.spec.element_any_atom(atom)) {
            if def.is_empty_element() {
                self.emit_fix(
                    Rule::UnexpectedClose,
                    span,
                    span,
                    format!(
                        "</{orig}> is not legal - {orig} is an empty element",
                        orig = tag.name
                    ),
                    delete_tag(span),
                );
                return;
            }
        }

        match self.scratch.stack.rposition(id) {
            Some(index) => self.close_matched(index, tag, span),
            None => self.close_unmatched(id, tag, span),
        }
    }

    /// The end tag matches an element on the stack. Anything opened above
    /// it is either silently closed (omissible end tags, unknown elements),
    /// reported as *overlap* (inline elements — the paper's `</B>` over
    /// `<A>` case) and parked on the secondary stack, or reported as
    /// *unclosed* (structural elements — the `</HEAD>` over `<TITLE>` case).
    fn close_matched(&mut self, index: usize, tag: &Tag<'_>, span: Span) {
        while self.scratch.stack.len() > index + 1 {
            let open = self
                .scratch
                .stack
                .pop()
                .expect("intervening element exists");
            if self.config.heuristics && open.silently_closable() {
                self.close_bookkeeping(&open, span);
                self.scratch.release_orig(&open);
            } else if self.config.heuristics && open.is_inline() {
                self.emit(
                    Rule::ElementOverlap,
                    span,
                    format!(
                        "</{close}> on line {close_line} seems to overlap <{open}>, \
                         opened on line {open_line}",
                        close = tag.name,
                        close_line = span.start.line,
                        open = open.orig(&self.scratch.origs),
                        open_line = open.line
                    ),
                );
                // Park it: its own end tag will arrive later and must not
                // count as unmatched. Its arena slot stays live with it.
                self.scratch.unresolved.push(open);
            } else {
                let orig = open.orig(&self.scratch.origs).to_string();
                self.emit_fix(
                    Rule::UnclosedElement,
                    span,
                    open.name_span,
                    format!(
                        "no closing </{orig}> seen for <{orig}> on line {line}",
                        line = open.line
                    ),
                    // Insert the missing end tag just before the close that
                    // forced this element off the stack. Same-offset
                    // insertions keep emission (= innermost-first) order.
                    move || {
                        Some(Fix::one(Edit::insert(
                            span.start.offset,
                            format!("</{orig}>"),
                        )))
                    },
                );
                self.close_bookkeeping(&open, span);
                self.scratch.release_orig(&open);
            }
        }
        let open = self.scratch.stack.pop().expect("matched element exists");
        // Complete a rename deferred from the open tag (obsolete-element):
        // now that the matching end tag is known, both names can be
        // rewritten together.
        if open.fix_diag != NO_FIX {
            self.attach_rename_fix(&open, tag);
        }
        self.close_bookkeeping(&open, span);
        self.scratch.release_orig(&open);
    }

    /// Attach the two-edit rename recorded in `open.fix_diag`: replace the
    /// open tag's name and this end tag's name with the catalog's
    /// replacement element.
    fn attach_rename_fix(&mut self, open: &Open, tag: &Tag<'_>) {
        let Some(diag) = self.diags.get_mut(open.fix_diag as usize) else {
            return;
        };
        if diag.id != "obsolete-element" || diag.fix.is_some() {
            return;
        }
        let Some(replacement) = open.def.and_then(|d| d.deprecated) else {
            return;
        };
        let open_span = open.name_span;
        let (close_start, close_len) = self.src.range_of(tag.name);
        let (close_start, close_len) = (close_start as usize, close_len as usize);
        if open_span.is_empty() || close_len == 0 || open_span.end.offset > close_start {
            return;
        }
        diag.fix = Some(Box::new(Fix::new(vec![
            Edit::replace(open_span.start.offset, open_span.end.offset, replacement),
            Edit::replace(close_start, close_start + close_len, replacement),
        ])));
    }

    /// The end tag matches nothing on the stack: resolve it against the
    /// secondary stack, recognise the heading-mismatch idiom, or report it
    /// as unmatched.
    fn close_unmatched(&mut self, id: NameId, tag: &Tag<'_>, span: Span) {
        if self.config.heuristics {
            if let Some(pos) = self.scratch.unresolved.rposition(id) {
                // The element was displaced by an earlier overlap and has
                // already been reported; its close resolves silently.
                let open = self.scratch.unresolved.remove(pos);
                self.scratch.release_orig(&open);
                return;
            }
        }
        // The paper's <H1>..</H2> case: a heading closed with the wrong
        // level. Treat the close as ending the open heading so a single
        // typo yields a single message.
        if let (Some(close_level), Some(top)) =
            (heading_level(id), self.scratch.stack.last().copied())
        {
            if let Some(open_level) = heading_level(top.id) {
                if open_level != close_level {
                    let (close_start, close_len) = self.src.range_of(tag.name);
                    let orig = top.orig(&self.scratch.origs).to_string();
                    self.emit_fix(
                        Rule::HeadingMismatch,
                        span,
                        span,
                        format!(
                            "malformed heading - open tag is <{}>, but closing is </{}>",
                            orig, tag.name
                        ),
                        // Rewrite the close tag's name to match the heading
                        // that is actually open, preserving its case.
                        move || {
                            if orig.is_empty() {
                                return None;
                            }
                            let start = close_start as usize;
                            Some(Fix::one(Edit::replace(
                                start,
                                start + close_len as usize,
                                orig,
                            )))
                        },
                    );
                    let open = self.scratch.stack.pop().expect("heading on top");
                    self.close_bookkeeping(&open, span);
                    self.scratch.release_orig(&open);
                    return;
                }
            }
        }
        self.emit_fix(
            Rule::UnexpectedClose,
            span,
            span,
            format!("unmatched </{orig}> (no <{orig}> seen)", orig = tag.name),
            delete_tag(span),
        );
    }

    /// Checks that run whenever an element actually leaves the stack,
    /// however it was closed.
    pub(crate) fn close_bookkeeping(&mut self, open: &Open, span: Span) {
        let warn_if_empty = open.def.map(|d| d.warn_if_empty).unwrap_or(false);
        if warn_if_empty && !open.has_content {
            self.emit(
                Rule::EmptyContainer,
                span,
                format!(
                    "empty container element <{}>",
                    open.orig(&self.scratch.origs)
                ),
            );
        }
        let k = known();
        if open.id == k.a {
            if self.scratch.anchor_active {
                self.scratch.anchor_active = false;
                // Take the buffer out to check it, then put it back so its
                // capacity carries over to the next anchor and document.
                let text = std::mem::take(&mut self.scratch.anchor_buf);
                let t0 = self.prof_start();
                self.check_anchor_text(&text, span);
                self.prof_end(Rule::HereAnchor, t0);
                self.scratch.anchor_buf = text;
                self.scratch.anchor_buf.clear();
            }
        } else if open.id == k.title {
            if self.scratch.title_active {
                self.scratch.title_active = false;
                let len = self.scratch.title_buf.trim().chars().count();
                if len > self.config.max_title_length {
                    self.emit(
                        Rule::TitleLength,
                        span,
                        format!(
                            "TITLE text is {len} characters long - keep it under {}",
                            self.config.max_title_length
                        ),
                    );
                }
                self.scratch.title_buf.clear();
            }
        } else if open.id == k.head {
            self.after_head = true;
        }
    }

    fn check_anchor_text(&mut self, text: &str, span: Span) {
        let trimmed = text.trim();
        let lc = trimmed.to_lowercase();
        if self
            .config
            .here_anchor_texts
            .iter()
            .any(|t| t.as_str() == lc)
        {
            self.emit(
                Rule::HereAnchor,
                span,
                format!("anchor text `{trimmed}' is content-free - describe the link target"),
            );
        }
        if !trimmed.is_empty()
            && (text.starts_with(char::is_whitespace) || text.ends_with(char::is_whitespace))
        {
            self.emit(
                Rule::ContainerWhitespace,
                span,
                "whitespace at beginning or end of anchor text".to_string(),
            );
        }
    }
}
