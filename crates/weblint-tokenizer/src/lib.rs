//! Error-tolerant HTML tokenizer, after weblint's ad-hoc parser.
//!
//! Weblint (Bowers, USENIX 1998, §5.1) is "basically a stack machine with an
//! ad-hoc parser, which uses various heuristics to keep things together as it
//! goes along". This crate is that parser: it turns a byte-exact HTML source
//! string into a stream of [`Token`]s — start tags with attributes, end tags,
//! text, comments, DOCTYPE and other markup declarations — while *never*
//! failing. Malformed input is tokenized on a best-effort basis and the
//! malformations are recorded on the tokens themselves (odd quote counts,
//! unterminated tags and comments, whitespace after `</`, …) so that the lint
//! engine can report them with precise line numbers.
//!
//! The tokenizer deliberately differs from a spec-conformant HTML5 tokenizer:
//! reproducing weblint requires weblint's *permissive* tokenization — e.g. the
//! quote-parity heuristic that recovers from `<A HREF="a.html>` (the paper's
//! §4.2 example) by ending the tag at the first `>` and flagging the odd
//! number of quotes, rather than silently consuming the rest of the document
//! as an attribute value.
//!
//! The tokenizer reads bytes, not `char`s: every byte that decides where a
//! token ends is ASCII, so a byte walk stops exactly where a character walk
//! would, and columns are still counted in characters. A text run, most of
//! a document, is read once: one pass finds its end, counts its lines and
//! characters, and notes in [`Text::has_metachar`] whether it holds a
//! `&`, `<` or `>`, so a consumer can skip its entity and metacharacter
//! scans without reading the run again.
//!
//! # Examples
//!
//! ```
//! use weblint_tokenizer::{Tokenizer, TokenKind};
//!
//! let mut names = Vec::new();
//! for token in Tokenizer::new("<HTML><BODY>hi</BODY></HTML>") {
//!     if let TokenKind::StartTag(tag) = &token.kind {
//!         names.push(tag.name.to_string());
//!     }
//! }
//! assert_eq!(names, ["HTML", "BODY"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cursor;
mod entity;
mod meta;
mod pos;
mod run;
mod stream;
mod token;
mod tokenizer;

pub use cursor::find_metachar;
pub use entity::{scan_entities, EntityRef};
pub use meta::{scan_metachars, MetaChar, MetaCharKind};
pub use pos::{Pos, Span};
pub use stream::StreamTokenizer;
pub use token::{Attr, AttrValue, Comment, Decl, Quote, Tag, Text, Token, TokenKind};
pub use tokenizer::Tokenizer;

/// Tokenize an entire document into a vector.
///
/// Convenience wrapper around [`Tokenizer::new`] for callers that want all
/// tokens at once rather than streaming.
///
/// # Examples
///
/// ```
/// let tokens = weblint_tokenizer::tokenize("<P>hello");
/// assert_eq!(tokens.len(), 2);
/// ```
pub fn tokenize(src: &str) -> Vec<Token<'_>> {
    Tokenizer::new(src).collect()
}
