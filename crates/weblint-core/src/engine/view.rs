//! A window onto the document source.
//!
//! A one-shot check shows the engine the whole document; each drain of a
//! streamed one only the unconsumed suffix of the stream buffer.
//! [`SrcView`] pairs the visible text with the global byte offset of its
//! first byte, so every span the tokenizer produces (always in
//! whole-document coordinates) slices the same either way. Offsets below
//! the window (spans from tokens of earlier feeds) resolve to `""`/`None`
//! rather than panicking — callers that need an earlier tag's spelling use
//! the [`super::Scratch`] orig-name arena instead.

use weblint_tokenizer::{Pos, Span};

/// The source text visible to the checker, positioned in whole-document
/// byte coordinates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SrcView<'a> {
    text: &'a str,
    /// Global byte offset of `text[0]`.
    base: usize,
}

impl<'a> SrcView<'a> {
    /// A view of the suffix of a document whose first visible byte sits
    /// at global offset `base`.
    pub(crate) fn resumed(text: &'a str, base: usize) -> SrcView<'a> {
        SrcView { text, base }
    }

    /// Slice a global span's text, or `""` when any part of it has already
    /// scrolled out of the window.
    pub(crate) fn slice(&self, span: Span) -> &'a str {
        let lo = span.start.offset.checked_sub(self.base);
        let hi = span.end.offset.checked_sub(self.base);
        match (lo, hi) {
            (Some(lo), Some(hi)) => self.text.get(lo..hi).unwrap_or(""),
            _ => "",
        }
    }

    /// The byte at a global offset, if visible.
    pub(crate) fn byte(&self, offset: usize) -> Option<u8> {
        self.text
            .as_bytes()
            .get(offset.checked_sub(self.base)?)
            .copied()
    }

    /// Global offset one past the last visible byte.
    pub(crate) fn end_offset(&self) -> usize {
        self.base + self.text.len()
    }

    /// Global byte range of `part`, which must be a subslice of the view's
    /// text (tokenizer tag and attribute names always are). A non-subslice
    /// yields a range that slices to `""`, never a panic.
    pub(crate) fn range_of(&self, part: &str) -> (u32, u32) {
        let local = (part.as_ptr() as usize).wrapping_sub(self.text.as_ptr() as usize);
        debug_assert_eq!(
            self.text.get(local..local.wrapping_add(part.len())),
            Some(part),
            "name is not a subslice of the source view"
        );
        ((self.base + local) as u32, part.len() as u32)
    }

    /// Full global span of `part` — a subslice of the view that sits on the
    /// same line as `outer.start` with only single-byte characters before it
    /// (tag names always do: they directly follow `<` or `</`). Column
    /// arithmetic under those conditions is plain offset arithmetic.
    pub(crate) fn sub_span(&self, outer: Span, part: &str) -> Span {
        let (start, len) = self.range_of(part);
        let start = start as usize;
        let delta = start.saturating_sub(outer.start.offset) as u32;
        let s = Pos::new(outer.start.line, outer.start.col + delta, start);
        let e = Pos::new(outer.start.line, s.col + len, start + len as usize);
        Span::new(s, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resumed_view_resolves_global_coordinates() {
        let doc = "<HTML><BODY>";
        let view = SrcView::resumed(&doc[6..], 6);
        let span = Span::new(Pos::new(1, 7, 6), Pos::new(1, 13, 12));
        assert_eq!(view.slice(span), "<BODY>");
        assert_eq!(view.byte(6), Some(b'<'));
        assert_eq!(view.byte(3), None, "before the window");
        assert_eq!(view.end_offset(), 12);
        let name = &doc[7..11];
        assert_eq!(view.range_of(name), (7, 4));
        let sub = view.sub_span(span, name);
        assert_eq!(sub.start, Pos::new(1, 8, 7));
        assert_eq!(view.slice(sub), "BODY");
    }

    #[test]
    fn spans_behind_the_window_slice_empty() {
        let view = SrcView::resumed("tail", 100);
        let gone = Span::new(Pos::new(1, 1, 10), Pos::new(1, 5, 14));
        assert_eq!(view.slice(gone), "");
        let straddling = Span::new(Pos::new(1, 1, 98), Pos::new(1, 7, 104));
        assert_eq!(view.slice(straddling), "");
    }
}
