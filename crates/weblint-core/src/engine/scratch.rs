//! Reusable engine working memory.
//!
//! Everything the checker allocates per document — the two element stacks,
//! the seen-line history, the side name intern, the anchor/title text
//! accumulators, the attribute-dedup list — lives here so a
//! [`crate::LintSession`] can lint document after document without
//! re-allocating any of it. [`Scratch::reset`] erases the contents but
//! keeps every buffer's capacity.

use std::ops::{Deref, DerefMut};

use weblint_html::Atom;

use super::names::{NameId, NameTable};
use super::open::{Open, NO_FIX};

/// A stack of elements that counts its entries per name, so looking for a
/// name it does not hold costs no walk: under thousands of open elements,
/// an end tag that matches none of them must not read them all.
#[derive(Debug, Clone, Default)]
pub(crate) struct ElementStack {
    items: Vec<Open>,
    /// Entries per name, indexed by [`NameId::index`].
    counts: Vec<u32>,
    /// Entries holding a deferred fix (`fix_diag != NO_FIX`).
    deferred: usize,
}

impl ElementStack {
    pub(crate) fn push(&mut self, open: Open) {
        let index = open.id.index();
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
        self.deferred += usize::from(open.fix_diag != NO_FIX);
        self.items.push(open);
    }

    pub(crate) fn pop(&mut self) -> Option<Open> {
        let open = self.items.pop()?;
        self.forget(&open);
        Some(open)
    }

    /// Remove and return the entry at `index`.
    pub(crate) fn remove(&mut self, index: usize) -> Open {
        let open = self.items.remove(index);
        self.forget(&open);
        open
    }

    fn forget(&mut self, open: &Open) {
        self.counts[open.id.index()] -= 1;
        self.deferred -= usize::from(open.fix_diag != NO_FIX);
    }

    /// The earliest diagnostic an entry's deferred fix may still amend.
    /// Most stacks hold none, and then this reads no entry.
    pub(crate) fn first_deferred_fix(&self) -> Option<usize> {
        if self.deferred == 0 {
            return None;
        }
        self.items
            .iter()
            .filter(|o| o.fix_diag != NO_FIX)
            .map(|o| o.fix_diag as usize)
            .min()
    }

    /// Whether an entry is named `id`.
    pub(crate) fn holds(&self, id: NameId) -> bool {
        self.counts.get(id.index()).is_some_and(|&n| n > 0)
    }

    /// Index of the innermost entry named `id`.
    pub(crate) fn rposition(&self, id: NameId) -> Option<usize> {
        if !self.holds(id) {
            return None;
        }
        self.items.iter().rposition(|o| o.id == id)
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.counts.clear();
        self.deferred = 0;
    }
}

impl Deref for ElementStack {
    type Target = [Open];

    fn deref(&self) -> &[Open] {
        &self.items
    }
}

impl DerefMut for ElementStack {
    fn deref_mut(&mut self) -> &mut [Open] {
        &mut self.items
    }
}

/// The per-session working memory of the lint engine.
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    /// The main stack of open elements.
    pub(crate) stack: ElementStack,
    /// The secondary stack of unresolved (overlapped) elements.
    pub(crate) unresolved: ElementStack,
    /// First line each name was seen on, indexed by [`NameId::index`];
    /// 0 means "not seen" (real lines are 1-based).
    pub(crate) seen: Vec<u32>,
    /// Name identities for this document.
    pub(crate) names: NameTable,
    /// Accumulated visible text of the innermost open `<A>`.
    pub(crate) anchor_buf: String,
    /// Whether an `<A>` is open and accumulating into `anchor_buf`.
    pub(crate) anchor_active: bool,
    /// Accumulated text of an open `<TITLE>`.
    pub(crate) title_buf: String,
    /// Whether a `<TITLE>` is open and accumulating into `title_buf`.
    pub(crate) title_active: bool,
    /// Attribute names seen so far in the current tag, for duplicates.
    attr_seen: Vec<NameId>,
    /// Whether each name is in `attr_seen`, indexed by [`NameId::index`]:
    /// a tag of thousands of attributes must not search them all per
    /// attribute.
    attr_marked: Vec<bool>,
    /// As-written spellings of the elements on the two stacks, packed
    /// end-to-end. [`Open`] entries index into this arena instead of the
    /// source because in streaming mode the source window may scroll past
    /// an open tag before its close arrives.
    pub(crate) origs: String,
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch {
            stack: ElementStack::default(),
            unresolved: ElementStack::default(),
            seen: vec![0; Atom::count()],
            names: NameTable::default(),
            anchor_buf: String::new(),
            anchor_active: false,
            title_buf: String::new(),
            title_active: false,
            attr_seen: Vec::new(),
            attr_marked: Vec::new(),
            origs: String::new(),
        }
    }
}

impl Scratch {
    /// Erase per-document state, keeping capacity. Cumulative metrics
    /// (the intern fallback counter) survive.
    pub(crate) fn reset(&mut self) {
        self.stack.clear();
        self.unresolved.clear();
        self.seen.clear();
        self.seen.resize(Atom::count(), 0);
        self.names.clear();
        self.anchor_buf.clear();
        self.anchor_active = false;
        self.title_buf.clear();
        self.title_active = false;
        self.clear_attrs();
        self.origs.clear();
    }

    /// Forget the current tag's attribute names.
    pub(crate) fn clear_attrs(&mut self) {
        for id in self.attr_seen.drain(..) {
            self.attr_marked[id.index()] = false;
        }
    }

    /// Record attribute name `id` of the current tag; false if the tag
    /// named it already.
    pub(crate) fn first_attr(&mut self, id: NameId) -> bool {
        let index = id.index();
        if index >= self.attr_marked.len() {
            self.attr_marked.resize(index + 1, false);
        }
        if self.attr_marked[index] {
            return false;
        }
        self.attr_marked[index] = true;
        self.attr_seen.push(id);
        true
    }

    /// Copy an as-written element name into the orig-name arena, returning
    /// its (start, len) for an [`Open`] entry.
    pub(crate) fn intern_orig(&mut self, name: &str) -> (u32, u32) {
        let start = self.origs.len() as u32;
        self.origs.push_str(name);
        (start, name.len() as u32)
    }

    /// Return an element's arena slot after it permanently leaves both
    /// stacks. Reclaims the bytes when they sit at the arena top (the
    /// common LIFO case); out-of-order releases (overlap parking) leave a
    /// hole that is swept once both stacks drain.
    pub(crate) fn release_orig(&mut self, open: &Open) {
        if open.orig_start as usize + open.orig_len as usize == self.origs.len() {
            self.origs.truncate(open.orig_start as usize);
        }
        if self.stack.is_empty() && self.unresolved.is_empty() {
            self.origs.clear();
        }
    }

    /// First line `id` was seen on, or 0 if unseen.
    pub(crate) fn seen_line(&self, id: NameId) -> u32 {
        self.seen.get(id.index()).copied().unwrap_or(0)
    }

    /// Record that `id` appeared on `line`, keeping the first occurrence.
    pub(crate) fn record_seen(&mut self, id: NameId, line: u32) {
        let index = id.index();
        if index >= self.seen.len() {
            self.seen.resize(index + 1, 0);
        }
        if self.seen[index] == 0 {
            self.seen[index] = line;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seen_lines_keep_first_occurrence() {
        let mut s = Scratch::default();
        let id = s.names.id("title");
        assert_eq!(s.seen_line(id), 0);
        s.record_seen(id, 4);
        s.record_seen(id, 9);
        assert_eq!(s.seen_line(id), 4);
    }

    #[test]
    fn side_interned_ids_grow_the_table() {
        let mut s = Scratch::default();
        let id = s.names.id("nosuchtag");
        assert_eq!(s.seen_line(id), 0);
        s.record_seen(id, 2);
        assert_eq!(s.seen_line(id), 2);
    }

    #[test]
    fn reset_clears_document_state() {
        let mut s = Scratch::default();
        let id = s.names.id("nosuchtag");
        s.record_seen(id, 2);
        s.anchor_active = true;
        s.anchor_buf.push_str("text");
        s.reset();
        assert_eq!(s.seen_line(id), 0);
        assert!(!s.anchor_active);
        assert!(s.anchor_buf.is_empty());
        assert_eq!(s.names.fallbacks(), 1, "counter survives reset");
    }
}
