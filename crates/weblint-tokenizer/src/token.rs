//! Token types produced by the tokenizer.

use crate::pos::Span;
use std::fmt;

/// How an attribute value was quoted in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quote {
    /// Bare value: `WIDTH=100`.
    None,
    /// Single quotes: `ALT='photo'`. Legal HTML, but weblint warns — "many
    /// clients and HTML processors can't handle single quotes" (§4.3).
    Single,
    /// Double quotes: `HREF="a.html"`.
    Double,
}

impl Quote {
    /// The quote character, if any.
    pub fn ch(self) -> Option<char> {
        match self {
            Quote::None => None,
            Quote::Single => Some('\''),
            Quote::Double => Some('"'),
        }
    }
}

/// An attribute value as written in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrValue<'a> {
    /// The value text with surrounding quotes stripped. Entity references
    /// are left unexpanded.
    pub raw: &'a str,
    /// The quoting style used.
    pub quote: Quote,
    /// False if the opening quote was never matched before the tag ended —
    /// the `<A HREF="a.html>` case.
    pub terminated: bool,
    /// Span of the value (excluding quotes).
    pub span: Span,
}

/// A single attribute on a tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr<'a> {
    /// Attribute name as written (case preserved).
    pub name: &'a str,
    /// The value, if one was given (`SELECTED` alone has none).
    pub value: Option<AttrValue<'a>>,
    /// Whether an `=` was present. `true` with `value: None` means a
    /// dangling `NAME=` at the end of a tag.
    pub has_eq: bool,
    /// Span of the attribute name.
    pub span: Span,
}

impl<'a> Attr<'a> {
    /// The attribute name lower-cased for table lookups.
    pub fn name_lc(&self) -> String {
        self.name.to_ascii_lowercase()
    }

    /// The raw value text, or `""` for valueless attributes.
    pub fn value_raw(&self) -> &'a str {
        self.value.as_ref().map(|v| v.raw).unwrap_or("")
    }
}

/// A start or end tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tag<'a> {
    /// Element name as written (case preserved), e.g. `H1`, `blockquote`.
    pub name: &'a str,
    /// Attributes in source order. End tags can carry attributes too — that
    /// is itself a lintable mistake, so they are preserved.
    pub attrs: Vec<Attr<'a>>,
    /// XML-style `/>` self-close marker was present.
    pub self_closing: bool,
    /// The quote-parity heuristic fired: the tag contained an odd number of
    /// `"` or `'` characters and was cut at the first `>` (§4.2, "odd number
    /// of quotes in element").
    pub odd_quotes: bool,
    /// The tag ran into end-of-file or a new `<` before any `>` was seen.
    pub unterminated: bool,
    /// There was whitespace between `</` and the name (`</ HEAD>`).
    pub space_before_name: bool,
}

impl<'a> Tag<'a> {
    /// The element name lower-cased for table lookups.
    pub fn name_lc(&self) -> String {
        self.name.to_ascii_lowercase()
    }

    /// Find an attribute by case-insensitive name.
    pub fn attr(&self, name: &str) -> Option<&Attr<'a>> {
        self.attrs
            .iter()
            .find(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// Whether an attribute with the given case-insensitive name is present.
    pub fn has_attr(&self, name: &str) -> bool {
        self.attr(name).is_some()
    }
}

/// A run of character data between tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Text<'a> {
    /// The raw text, entities unexpanded.
    pub raw: &'a str,
    /// True when this text is the raw content of a `SCRIPT`, `STYLE`, `XMP`,
    /// `LISTING` or `PLAINTEXT` element, in which `<` and `&` are not markup.
    pub is_raw: bool,
    /// The text holds a `&`, `<` or `>`: exactly when
    /// [`find_metachar`](crate::find_metachar)`(raw)` finds one. The
    /// tokenizer learns it in the pass that finds the run's end, so a
    /// consumer can skip its entity and metacharacter scans on a run
    /// without one at no further cost.
    pub has_metachar: bool,
}

/// An SGML comment, `<!-- … -->`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment<'a> {
    /// Comment content between `<!--` and `-->`.
    pub text: &'a str,
    /// No closing `-->` was found; the comment ran to end-of-file.
    pub unterminated: bool,
    /// The content looks like it contains markup (`<x` or `</x`) — legal
    /// SGML, but "can be incorrectly parsed by parsers, particularly those
    /// of the quick and dirty kind" (§4.3).
    pub contains_markup: bool,
    /// The content contains an interior `--`, which makes the comment
    /// ill-formed under strict SGML comment rules.
    pub interior_dashes: bool,
}

/// A markup declaration: `<!DOCTYPE …>`, other `<!…>` declarations, and
/// processing instructions `<?…>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl<'a> {
    /// Everything between the opening delimiter and the closing `>`.
    pub text: &'a str,
    /// No closing `>` was found before end-of-file.
    pub unterminated: bool,
}

/// The kind of a token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// `<NAME …>`.
    StartTag(Tag<'a>),
    /// `</NAME>`.
    EndTag(Tag<'a>),
    /// Character data.
    Text(Text<'a>),
    /// `<!-- … -->`.
    Comment(Comment<'a>),
    /// `<!DOCTYPE …>`.
    Doctype(Decl<'a>),
    /// Any other `<!…>` markup declaration (e.g. `<!ENTITY …>`).
    Decl(Decl<'a>),
    /// `<?…>` processing instruction.
    Pi(Decl<'a>),
}

impl<'a> TokenKind<'a> {
    /// Short kind name for diagnostics and debugging.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TokenKind::StartTag(_) => "start-tag",
            TokenKind::EndTag(_) => "end-tag",
            TokenKind::Text(_) => "text",
            TokenKind::Comment(_) => "comment",
            TokenKind::Doctype(_) => "doctype",
            TokenKind::Decl(_) => "decl",
            TokenKind::Pi(_) => "pi",
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// What was tokenized.
    pub kind: TokenKind<'a>,
    /// Where it sits in the source.
    pub span: Span,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TokenKind::StartTag(t) => write!(f, "<{}>", t.name),
            TokenKind::EndTag(t) => write!(f, "</{}>", t.name),
            TokenKind::Text(t) => write!(f, "text({} bytes)", t.raw.len()),
            TokenKind::Comment(_) => write!(f, "<!--…-->"),
            TokenKind::Doctype(_) => write!(f, "<!DOCTYPE…>"),
            TokenKind::Decl(_) => write!(f, "<!…>"),
            TokenKind::Pi(_) => write!(f, "<?…>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::{Pos, Span};

    fn span() -> Span {
        Span::empty(Pos::START)
    }

    #[test]
    fn quote_chars() {
        assert_eq!(Quote::None.ch(), None);
        assert_eq!(Quote::Single.ch(), Some('\''));
        assert_eq!(Quote::Double.ch(), Some('"'));
    }

    #[test]
    fn tag_attr_lookup_is_case_insensitive() {
        let tag = Tag {
            name: "IMG",
            attrs: vec![Attr {
                name: "SRC",
                value: Some(AttrValue {
                    raw: "x.gif",
                    quote: Quote::Double,
                    terminated: true,
                    span: span(),
                }),
                has_eq: true,
                span: span(),
            }],
            self_closing: false,
            odd_quotes: false,
            unterminated: false,
            space_before_name: false,
        };
        assert!(tag.has_attr("src"));
        assert!(tag.has_attr("SRC"));
        assert!(!tag.has_attr("alt"));
        assert_eq!(tag.attr("Src").unwrap().value_raw(), "x.gif");
        assert_eq!(tag.name_lc(), "img");
    }

    #[test]
    fn display_forms() {
        let tok = Token {
            kind: TokenKind::Text(Text {
                raw: "abc",
                is_raw: false,
                has_metachar: false,
            }),
            span: span(),
        };
        assert_eq!(tok.to_string(), "text(3 bytes)");
    }
}
