//! Defect-injection operators: one per mistake class.
//!
//! Each class injects exactly one instance of one kind of author mistake
//! into an otherwise-valid document, and names the weblint message expected
//! to fire. The baseline-comparison experiment (DESIGN.md E6) runs all
//! three checkers over documents mutated by every class and compares who
//! detects what, with how many messages.

use rand::Rng;

/// A class of HTML authoring mistake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectClass {
    /// DOCTYPE omitted entirely.
    MissingDoctype,
    /// A mistyped element name (`<BLOCKQOUTE>`).
    UnknownElement,
    /// A mistyped attribute name.
    UnknownAttribute,
    /// A block container opened but never closed.
    UnclosedElement,
    /// A close tag for an element that was never opened.
    UnexpectedClose,
    /// Interleaved inline elements (`<B><I>..</B>..</I>`).
    ElementOverlap,
    /// Heading closed at a different level than it opened.
    HeadingMismatch,
    /// Attribute value with an unbalanced quote.
    OddQuotes,
    /// A tag interrupted before its `>`.
    UnterminatedTag,
    /// Unquoted attribute value that needs quoting.
    UnquotedValue,
    /// Attribute value violating its legal pattern (a bad color).
    IllegalAttrValue,
    /// Single-quoted attribute value.
    SingleQuoteDelimiter,
    /// The same attribute twice in one tag.
    DuplicateAttribute,
    /// Required attributes missing (`TEXTAREA` without `ROWS`/`COLS`).
    MissingRequiredAttr,
    /// `IMG` without `ALT`.
    MissingAlt,
    /// End tag carrying attributes.
    EndTagAttribute,
    /// Obsolete element (`<LISTING>`).
    ObsoleteElement,
    /// Vendor extension markup with extensions disabled (`<BLINK>`).
    ExtensionMarkup,
    /// Markup from a different HTML version (`<FRAMESET>` in Transitional).
    VersionMarkup,
    /// Literal `<` in text.
    LiteralMetachar,
    /// Reference to an undefined entity.
    UnknownEntity,
    /// Entity reference missing its `;`.
    UnterminatedEntity,
    /// Markup inside a comment.
    MarkupInComment,
    /// Comment never closed (swallows the rest of the file).
    UnclosedComment,
    /// Content-free anchor text ("click here").
    HereAnchor,
    /// An anchor nested inside an anchor.
    NestedAnchor,
    /// `<LI>` outside any list.
    RequiredContext,
    /// An `<A NAME=…>` with no content.
    EmptyContainer,
}

/// Every defect class, in a stable order.
pub fn all_defect_classes() -> &'static [DefectClass] {
    use DefectClass::*;
    &[
        MissingDoctype,
        UnknownElement,
        UnknownAttribute,
        UnclosedElement,
        UnexpectedClose,
        ElementOverlap,
        HeadingMismatch,
        OddQuotes,
        UnterminatedTag,
        UnquotedValue,
        IllegalAttrValue,
        SingleQuoteDelimiter,
        DuplicateAttribute,
        MissingRequiredAttr,
        MissingAlt,
        EndTagAttribute,
        ObsoleteElement,
        ExtensionMarkup,
        VersionMarkup,
        LiteralMetachar,
        UnknownEntity,
        UnterminatedEntity,
        MarkupInComment,
        UnclosedComment,
        HereAnchor,
        NestedAnchor,
        RequiredContext,
        EmptyContainer,
    ]
}

impl DefectClass {
    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        use DefectClass::*;
        match self {
            MissingDoctype => "missing-doctype",
            UnknownElement => "unknown-element",
            UnknownAttribute => "unknown-attribute",
            UnclosedElement => "unclosed-element",
            UnexpectedClose => "unexpected-close",
            ElementOverlap => "element-overlap",
            HeadingMismatch => "heading-mismatch",
            OddQuotes => "odd-quotes",
            UnterminatedTag => "unterminated-tag",
            UnquotedValue => "unquoted-value",
            IllegalAttrValue => "illegal-attr-value",
            SingleQuoteDelimiter => "single-quote-delimiter",
            DuplicateAttribute => "duplicate-attribute",
            MissingRequiredAttr => "missing-required-attr",
            MissingAlt => "missing-alt",
            EndTagAttribute => "end-tag-attribute",
            ObsoleteElement => "obsolete-element",
            ExtensionMarkup => "extension-markup",
            VersionMarkup => "version-markup",
            LiteralMetachar => "literal-metachar",
            UnknownEntity => "unknown-entity",
            UnterminatedEntity => "unterminated-entity",
            MarkupInComment => "markup-in-comment",
            UnclosedComment => "unclosed-comment",
            HereAnchor => "here-anchor",
            NestedAnchor => "nested-anchor",
            RequiredContext => "required-context",
            EmptyContainer => "empty-container",
        }
    }

    /// The weblint message identifier this defect is expected to trigger.
    pub fn expected_message(self) -> &'static str {
        use DefectClass::*;
        match self {
            MissingDoctype => "require-doctype",
            UnknownElement => "unknown-element",
            UnknownAttribute => "unknown-attribute",
            UnclosedElement => "unclosed-element",
            UnexpectedClose => "unexpected-close",
            ElementOverlap => "element-overlap",
            HeadingMismatch => "heading-mismatch",
            OddQuotes => "odd-quotes",
            UnterminatedTag => "unterminated-tag",
            UnquotedValue => "quote-attribute-value",
            IllegalAttrValue => "attribute-value",
            SingleQuoteDelimiter => "attribute-delimiter",
            DuplicateAttribute => "duplicate-attribute",
            MissingRequiredAttr => "required-attribute",
            MissingAlt => "img-alt",
            EndTagAttribute => "closing-attribute",
            ObsoleteElement => "obsolete-element",
            ExtensionMarkup => "extension-markup",
            VersionMarkup => "version-markup",
            LiteralMetachar => "literal-metacharacter",
            UnknownEntity => "unknown-entity",
            UnterminatedEntity => "unterminated-entity",
            MarkupInComment => "markup-in-comment",
            UnclosedComment => "unclosed-comment",
            HereAnchor => "here-anchor",
            NestedAnchor => "nested-element",
            RequiredContext => "required-context",
            EmptyContainer => "empty-container",
        }
    }

    /// Whether the defect breaks element *nesting*, the class of problem a
    /// stack-less line-oriented checker (htmlchek-style, DESIGN.md S10)
    /// cannot see.
    pub fn is_nesting_defect(self) -> bool {
        use DefectClass::*;
        matches!(
            self,
            UnclosedElement
                | UnexpectedClose
                | ElementOverlap
                | HeadingMismatch
                | NestedAnchor
                | RequiredContext
                | EmptyContainer
                | UnclosedComment
        )
    }

    /// The snippet this class injects (everything except `MissingDoctype`,
    /// which removes text instead).
    pub fn snippet(self) -> &'static str {
        use DefectClass::*;
        match self {
            MissingDoctype => "",
            UnknownElement => "<BLOCKQOUTE>a common typo</BLOCKQOUTE>\n",
            UnknownAttribute => "<P BLARG=\"oops\">mistyped attribute.</P>\n",
            UnclosedElement => "<DIV CLASS=\"x\">this div is never closed\n",
            UnexpectedClose => "</DL>\n",
            ElementOverlap => "<P><B><I>interleaved</B> markup</I></P>\n",
            HeadingMismatch => "<H2>mismatched heading</H3>\n",
            OddQuotes => "<P>Click <A HREF=\"a.html>this link</A> now.</P>\n",
            UnterminatedTag => "<P <B>interrupted tag</B>\n",
            UnquotedValue => "<P>See <A HREF=docs/notes.html>the notes</A>.</P>\n",
            IllegalAttrValue => "<TABLE WIDTH=\"very wide\"><TR><TD>x</TD></TR></TABLE>\n",
            SingleQuoteDelimiter => "<P>See <A HREF='x.html'>the page</A>.</P>\n",
            DuplicateAttribute => "<P>See <A HREF=\"x.html\" HREF=\"y.html\">the page</A>.</P>\n",
            MissingRequiredAttr => "<TEXTAREA NAME=\"t\">text</TEXTAREA>\n",
            MissingAlt => "<P><IMG SRC=\"logo.gif\" WIDTH=\"10\" HEIGHT=\"10\"></P>\n",
            EndTagAttribute => "<P><B>bold</B CLASS=\"x\"> text</P>\n",
            ObsoleteElement => "<LISTING>old markup</LISTING>\n",
            ExtensionMarkup => "<P><BLINK>hot!</BLINK></P>\n",
            VersionMarkup => "<FRAMESET ROWS=\"50%,50%\"></FRAMESET>\n",
            LiteralMetachar => "<P>clearly 1 < 2 in all cases.</P>\n",
            UnknownEntity => "<P>the &fooby; entity.</P>\n",
            UnterminatedEntity => "<P>caf&eacute is nice.</P>\n",
            MarkupInComment => "<!-- commented out: <B>old content</B> -->\n",
            UnclosedComment => "<!-- this comment is never closed\n",
            HereAnchor => "<P>Click <A HREF=\"more.html\">here</A> for more.</P>\n",
            NestedAnchor => "<P><A HREF=\"x.html\">outer <A HREF=\"y.html\">inner</A></A></P>\n",
            RequiredContext => "<LI>a loose list item\n",
            EmptyContainer => "<P><A NAME=\"anchor-point\"></A>section.</P>\n",
        }
    }

    /// Inject one instance of this defect into `doc`.
    ///
    /// `MissingDoctype` strips the DOCTYPE line; `UnclosedComment` appends
    /// just before `</BODY>` so it does not hide the rest of the corpus;
    /// everything else is inserted at a line boundary inside the body,
    /// chosen by `rng`.
    pub fn inject(self, doc: &str, rng: &mut impl Rng) -> String {
        match self {
            DefectClass::MissingDoctype => doc
                .lines()
                .filter(|l| !l.trim_start().starts_with("<!DOCTYPE"))
                .map(|l| format!("{l}\n"))
                .collect(),
            DefectClass::UnclosedComment => match doc.rfind("</BODY>") {
                Some(idx) => {
                    let mut out = String::with_capacity(doc.len() + 64);
                    out.push_str(&doc[..idx]);
                    out.push_str(self.snippet());
                    out.push_str(&doc[idx..]);
                    out
                }
                None => format!("{doc}{}", self.snippet()),
            },
            _ => {
                let idx = body_insertion_point(doc, rng);
                let mut out = String::with_capacity(doc.len() + 128);
                out.push_str(&doc[..idx]);
                out.push_str(self.snippet());
                out.push_str(&doc[idx..]);
                out
            }
        }
    }
}

/// A random *block boundary* inside `<BODY>…</BODY>`: a line boundary
/// where the preceding line closes a block. Injecting between blocks keeps
/// the defect the only problem in the document — landing mid-table or
/// mid-list would manufacture unrelated context violations.
fn body_insertion_point(doc: &str, rng: &mut impl Rng) -> usize {
    let start = doc
        .find("<BODY")
        .and_then(|i| doc[i..].find('\n').map(|j| i + j + 1))
        .unwrap_or(0);
    let end = doc.rfind("</BODY>").unwrap_or(doc.len());
    let mut candidates = Vec::new();
    let mut line_start = start;
    for (i, c) in doc[start..end].char_indices() {
        if c != '\n' {
            continue;
        }
        let boundary = start + i + 1;
        let line = doc[line_start..start + i].trim_end();
        if is_block_end(line) && boundary < end {
            candidates.push(boundary);
        }
        line_start = boundary;
    }
    if candidates.is_empty() {
        return end;
    }
    candidates[rng.random_range(0..candidates.len())]
}

/// Does this source line end at the top level of the body?
fn is_block_end(line: &str) -> bool {
    const BLOCK_CLOSERS: &[&str] = &[
        "</P>",
        "</TABLE>",
        "</UL>",
        "</OL>",
        "</PRE>",
        "</H1>",
        "</H2>",
        "</H3>",
        "</H4>",
        "</H5>",
        "</H6>",
        "</DL>",
        "</BLOCKQUOTE>",
        "</DIV>",
        "<BODY>",
    ];
    BLOCK_CLOSERS.iter().any(|c| line.ends_with(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_document;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn class_list_is_complete_and_unique() {
        let classes = all_defect_classes();
        assert_eq!(classes.len(), 28);
        let names: std::collections::HashSet<_> = classes.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), classes.len());
    }

    #[test]
    fn injection_is_deterministic() {
        let doc = generate_document(11, 2048);
        let a = DefectClass::OddQuotes.inject(&doc, &mut StdRng::seed_from_u64(5));
        let b = DefectClass::OddQuotes.inject(&doc, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn missing_doctype_strips_the_declaration() {
        let doc = generate_document(12, 1024);
        let mutated = DefectClass::MissingDoctype.inject(&doc, &mut StdRng::seed_from_u64(0));
        assert!(!mutated.contains("<!DOCTYPE"));
        assert!(mutated.contains("<HTML>"));
    }

    #[test]
    fn injections_land_inside_body() {
        let doc = generate_document(13, 2048);
        let mut rng = StdRng::seed_from_u64(3);
        for class in all_defect_classes() {
            if *class == DefectClass::MissingDoctype {
                continue;
            }
            let mutated = class.inject(&doc, &mut rng);
            let snippet = class.snippet();
            let pos = mutated.find(snippet).expect("snippet present");
            let body = mutated.find("<BODY").expect("body present");
            assert!(pos > body, "{} landed before <BODY>", class.name());
        }
    }

    #[test]
    fn every_class_fires_its_expected_message() {
        // The contract the E6 experiment relies on: inject class C into a
        // clean document, and weblint (defaults) reports C's expected id.
        let doc = generate_document(17, 4096);
        let mut weblint = weblint_core::LintSession::new();
        assert_eq!(weblint.check_string(&doc), vec![], "base doc must be clean");
        let mut rng = StdRng::seed_from_u64(99);
        for class in all_defect_classes() {
            let mutated = class.inject(&doc, &mut rng);
            let diags = weblint.check_string(&mutated);
            let expected = class.expected_message();
            assert!(
                diags.iter().any(|d| d.id == expected),
                "{}: expected `{expected}`, got {:?}",
                class.name(),
                diags.iter().map(|d| d.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn defects_produce_few_messages_each() {
        // Cascade suppression: one injected defect should produce a handful
        // of messages, not a flurry (§5.1).
        let doc = generate_document(21, 4096);
        let mut weblint = weblint_core::LintSession::new();
        let mut rng = StdRng::seed_from_u64(7);
        for class in all_defect_classes() {
            let mutated = class.inject(&doc, &mut rng);
            let n = weblint.check_string(&mutated).len();
            assert!(n <= 3, "{} produced {n} messages", class.name());
        }
    }
}
