//! Per-message coverage: for every identifier in the catalog, an input
//! that triggers it and a near-miss that must not.
//!
//! The site-mode messages (`bad-link`, `orphan-page`, `directory-index`)
//! are emitted by the site checker, not the engine, and are covered in the
//! `weblint-site` crate; everything else is exercised here.

use weblint_core::{LintConfig, LintSession};

/// Checker with everything on (so default-off checks are testable), in
/// fragment mode (so structure noise doesn't pollute single-check tests).
fn pedantic_fragment() -> LintSession {
    let mut config = LintConfig::pedantic();
    config.fragment = true;
    LintSession::with_config(config)
}

fn ids(weblint: &mut LintSession, src: &str) -> Vec<&'static str> {
    weblint
        .check_string(src)
        .into_iter()
        .map(|d| d.id)
        .collect()
}

/// Assert `src` triggers `id` and `near_miss` does not, under a pedantic
/// fragment configuration.
fn check(id: &str, src: &str, near_miss: &str) {
    let mut weblint = pedantic_fragment();
    let hit = ids(&mut weblint, src);
    assert!(hit.contains(&id), "`{id}` not in {hit:?} for {src:?}");
    let miss = ids(&mut weblint, near_miss);
    assert!(
        !miss.contains(&id),
        "`{id}` wrongly fired in {miss:?} for {near_miss:?}"
    );
}

#[test]
fn attribute_delimiter() {
    check(
        "attribute-delimiter",
        "<A HREF='x.html'>y</A>",
        "<A HREF=\"x.html\">y</A>",
    );
}

#[test]
fn attribute_value() {
    check(
        "attribute-value",
        "<TABLE WIDTH=\"wide\"><TR><TD>x</TD></TR></TABLE>",
        "<TABLE WIDTH=\"100%\"><TR><TD>x</TD></TR></TABLE>",
    );
}

#[test]
fn bad_text_context() {
    check(
        "bad-text-context",
        "<UL>loose words<LI>item</UL>",
        "<UL><LI>item</UL>",
    );
}

#[test]
fn closing_attribute() {
    check("closing-attribute", "<B>x</B CLASS=\"y\">", "<B>x</B>");
}

#[test]
fn comment_dashes() {
    check("comment-dashes", "<!-- a -- b -->", "<!-- a - b -->");
}

#[test]
fn container_whitespace() {
    check(
        "container-whitespace",
        "<A HREF=\"x.html\"> padded </A>",
        "<A HREF=\"x.html\">tight</A>",
    );
}

#[test]
fn deprecated_attribute() {
    check(
        "deprecated-attribute",
        "<P ALIGN=\"center\">x</P>",
        "<P CLASS=\"center\">x</P>",
    );
}

#[test]
fn doctype_version() {
    // Not a fragment test: DOCTYPE checking needs a whole document.
    let mut config = LintConfig::pedantic();
    config.fragment = false;
    let mut weblint = LintSession::with_config(config);
    let wrong = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 3.2 Final//EN\">\n\
                 <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</P></BODY></HTML>";
    assert!(ids(&mut weblint, wrong).contains(&"doctype-version"));
    let right = wrong.replace("3.2 Final", "4.0 Transitional");
    assert!(!ids(&mut weblint, &right).contains(&"doctype-version"));
}

#[test]
fn duplicate_attribute() {
    check(
        "duplicate-attribute",
        "<P ALIGN=\"left\" ALIGN=\"right\">x</P>",
        "<P ALIGN=\"left\" CLASS=\"right\">x</P>",
    );
}

#[test]
fn element_overlap() {
    check("element-overlap", "<B><I>x</B></I>", "<B><I>x</I></B>");
}

#[test]
fn empty_container() {
    check(
        "empty-container",
        "<A NAME=\"x\"></A>text",
        "<A NAME=\"x\">text</A>",
    );
}

#[test]
fn extension_attribute() {
    check(
        "extension-attribute",
        "<IMG SRC=\"x.gif\" ALT=\"a\" WIDTH=\"1\" HEIGHT=\"1\" LOWSRC=\"y.gif\">",
        "<IMG SRC=\"x.gif\" ALT=\"a\" WIDTH=\"1\" HEIGHT=\"1\">",
    );
}

#[test]
fn extension_markup() {
    check("extension-markup", "<BLINK>x</BLINK>", "<B>x</B>");
}

#[test]
fn head_element() {
    // Also not meaningful in fragment mode.
    let mut weblint = LintSession::new();
    let bad = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
               <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\
               <BASE HREF=\"http://x/\"><P>x</P></BODY></HTML>";
    assert!(ids(&mut weblint, bad).contains(&"head-element"));
    let good = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
                <HTML><HEAD><BASE HREF=\"http://x/\"><TITLE>t</TITLE></HEAD>\
                <BODY><P>x</P></BODY></HTML>";
    assert!(!ids(&mut weblint, good).contains(&"head-element"));
}

#[test]
fn heading_in_anchor() {
    check(
        "heading-in-anchor",
        "<A HREF=\"x.html\"><H2>inside</H2></A>",
        "<H2><A HREF=\"x.html\">inside</A></H2>",
    );
}

#[test]
fn heading_mismatch() {
    check("heading-mismatch", "<H1>x</H2>", "<H1>x</H1>");
}

#[test]
fn heading_order() {
    check(
        "heading-order",
        "<H1>a</H1><H3>b</H3>",
        "<H1>a</H1><H2>b</H2>",
    );
}

#[test]
fn here_anchor() {
    check(
        "here-anchor",
        "<A HREF=\"x.html\">here</A>",
        "<A HREF=\"x.html\">the weblint paper</A>",
    );
}

#[test]
fn html_outer() {
    let mut weblint = LintSession::new();
    let bad = "<BODY><P>x</P></BODY>";
    assert!(ids(&mut weblint, bad).contains(&"html-outer"));
    let good = "<HTML><BODY><P>x</P></BODY></HTML>";
    assert!(!ids(&mut weblint, good).contains(&"html-outer"));
}

#[test]
fn img_alt() {
    check(
        "img-alt",
        "<IMG SRC=\"x.gif\" WIDTH=\"1\" HEIGHT=\"1\">",
        "<IMG SRC=\"x.gif\" ALT=\"x\" WIDTH=\"1\" HEIGHT=\"1\">",
    );
}

#[test]
fn img_size() {
    check(
        "img-size",
        "<IMG SRC=\"x.gif\" ALT=\"x\">",
        "<IMG SRC=\"x.gif\" ALT=\"x\" WIDTH=\"1\" HEIGHT=\"1\">",
    );
}

#[test]
fn leading_whitespace() {
    check("leading-whitespace", "<B>x</ B>", "<B>x</B>");
}

#[test]
fn literal_metacharacter() {
    check(
        "literal-metacharacter",
        "<P>1 < 2 and R & D</P>",
        "<P>1 &lt; 2 and R &amp; D</P>",
    );
}

#[test]
fn case_styles() {
    let mut config = LintConfig::default();
    config.fragment = true;
    config.enable("lower-case").unwrap();
    let mut weblint = LintSession::with_config(config.clone());
    assert!(ids(&mut weblint, "<B>x</B>").contains(&"lower-case"));
    assert!(!ids(&mut weblint, "<b>x</b>").contains(&"lower-case"));

    config.enable("upper-case").unwrap();
    let mut weblint = LintSession::with_config(config);
    assert!(ids(&mut weblint, "<b CLASS=\"x\">x</b>").contains(&"upper-case"));
    assert!(ids(&mut weblint, "<B class=\"x\">x</B>").contains(&"upper-case")); // attr case too
    assert!(!ids(&mut weblint, "<B CLASS=\"x\">x</B>").contains(&"upper-case"));
}

#[test]
fn mailto_link() {
    check(
        "mailto-link",
        "<A HREF=\"mailto:neilb@cre.canon.co.uk\">mail me</A>",
        "<A HREF=\"contact.html\">contact</A>",
    );
}

#[test]
fn markup_in_comment() {
    check(
        "markup-in-comment",
        "<!-- <B>hidden</B> -->",
        "<!-- plain words -->",
    );
}

#[test]
fn missing_attribute_value() {
    check(
        "missing-attribute-value",
        "<A HREF=>x</A>",
        "<A HREF=\"y\">x</A>",
    );
}

#[test]
fn must_follow_head() {
    let mut weblint = LintSession::new();
    let bad = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
               <HTML><HEAD><TITLE>t</TITLE></HEAD>\nstray words\n\
               <BODY><P>x</P></BODY></HTML>";
    assert!(ids(&mut weblint, bad).contains(&"must-follow-head"));
    let good = bad.replace("\nstray words\n", "\n");
    assert!(!ids(&mut weblint, &good).contains(&"must-follow-head"));
}

#[test]
fn nested_element() {
    check(
        "nested-element",
        "<A HREF=\"a\">x<A HREF=\"b\">y</A></A>",
        "<A HREF=\"a\">x</A><A HREF=\"b\">y</A>",
    );
}

#[test]
fn obsolete_element() {
    check("obsolete-element", "<LISTING>x</LISTING>", "<PRE>x</PRE>");
}

#[test]
fn odd_quotes() {
    check(
        "odd-quotes",
        "<A HREF=\"a.html>x</A>",
        "<A HREF=\"a.html\">x</A>",
    );
}

#[test]
fn once_only() {
    let mut weblint = LintSession::new();
    let bad = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
               <HTML><HEAD><TITLE>a</TITLE><TITLE>b</TITLE></HEAD>\
               <BODY><P>x</P></BODY></HTML>";
    assert!(ids(&mut weblint, bad).contains(&"once-only"));
}

#[test]
fn physical_font() {
    check("physical-font", "<B>x</B>", "<STRONG>x</STRONG>");
}

#[test]
fn quote_attribute_value() {
    check(
        "quote-attribute-value",
        "<BODY TEXT=#00ff00><P>x</P></BODY>",
        "<BODY TEXT=\"#00ff00\"><P>x</P></BODY>",
    );
}

#[test]
fn require_doctype_and_structure() {
    let mut weblint = LintSession::new();
    let found = ids(&mut weblint, "<HTML><BODY><P>x</P></BODY></HTML>");
    assert!(found.contains(&"require-doctype"));
    assert!(found.contains(&"require-head"));
    assert!(found.contains(&"require-title"));
    assert!(found.contains(&"body-no-head"));
    let clean = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
                 <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</P></BODY></HTML>";
    assert_eq!(ids(&mut weblint, clean), Vec::<&str>::new());
}

#[test]
fn required_attribute() {
    check(
        "required-attribute",
        "<TEXTAREA NAME=\"t\">x</TEXTAREA>",
        "<TEXTAREA NAME=\"t\" ROWS=\"2\" COLS=\"20\">x</TEXTAREA>",
    );
}

#[test]
fn required_context() {
    check("required-context", "<LI>x", "<UL><LI>x</UL>");
}

#[test]
fn title_length() {
    let long = "x".repeat(100);
    check(
        "title-length",
        &format!("<TITLE>{long}</TITLE>"),
        "<TITLE>short</TITLE>",
    );
}

#[test]
fn unclosed_comment() {
    check("unclosed-comment", "<!-- never ends", "<!-- ends -->");
}

#[test]
fn unclosed_element() {
    // The intervening element must be structural — inline elements take
    // the overlap path instead.
    check(
        "unclosed-element",
        "<DIV><BLOCKQUOTE>x</DIV>",
        "<DIV><BLOCKQUOTE>x</BLOCKQUOTE></DIV>",
    );
}

#[test]
fn unexpected_close() {
    check("unexpected-close", "</DL>", "<DL><DT>x</DL>");
    // End tag for an empty element is also unexpected-close.
    check("unexpected-close", "<BR></BR>", "<BR>");
}

#[test]
fn unknown_attribute() {
    check(
        "unknown-attribute",
        "<P ZORP=\"x\">y</P>",
        "<P CLASS=\"x\">y</P>",
    );
}

#[test]
fn unknown_element() {
    check("unknown-element", "<BLINQUE>x</BLINQUE>", "<B>x</B>");
}

#[test]
fn unknown_entity() {
    check("unknown-entity", "<P>&zorp;</P>", "<P>&amp;</P>");
}

#[test]
fn unterminated_entity() {
    check(
        "unterminated-entity",
        "<P>caf&eacute now</P>",
        "<P>caf&eacute; now</P>",
    );
}

#[test]
fn unterminated_tag() {
    check("unterminated-tag", "<P <B>x</B>", "<P><B>x</B></P>");
}

#[test]
fn version_markup() {
    let mut config = LintConfig::default();
    config.fragment = true;
    config.version = weblint_core::HtmlVersion::Html32;
    let mut weblint = LintSession::with_config(config);
    assert!(ids(&mut weblint, "<SPAN>x</SPAN>").contains(&"version-markup"));
    assert!(!ids(&mut weblint, "<EM>x</EM>").contains(&"version-markup"));
}

#[test]
fn xml_self_close() {
    check("xml-self-close", "<BR/>", "<BR>");
}

#[test]
fn every_engine_message_is_covered_by_this_file() {
    // Keep this suite honest: any new catalog entry must add a test here
    // (or to the site crate for the three site-mode messages).
    let site_mode = ["bad-link", "orphan-page", "directory-index"];
    let body = include_str!("messages.rs");
    for check in weblint_core::CATALOG {
        if site_mode.contains(&check.id) {
            continue;
        }
        assert!(
            body.contains(&format!("\"{}\"", check.id)),
            "no test mentions {}",
            check.id
        );
    }
}
