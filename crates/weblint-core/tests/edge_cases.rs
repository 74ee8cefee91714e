//! Engine edge cases: the interactions between checks and the §5.1
//! heuristics on realistic-but-awkward markup.

use weblint_core::{LintConfig, LintSession};

fn fragment() -> LintSession {
    let mut config = LintConfig::default();
    config.fragment = true;
    LintSession::with_config(config)
}

fn ids(src: &str) -> Vec<&'static str> {
    fragment()
        .check_string(src)
        .into_iter()
        .map(|d| d.id)
        .collect()
}

#[test]
fn implied_close_chains_in_tables() {
    // TD closes TD, TR closes TD and TR, the table end closes everything.
    let src = "<TABLE>\
               <TR><TD>a<TD>b<TH>c\
               <TR><TD>d\
               </TABLE>";
    assert_eq!(ids(src), Vec::<&str>::new());
}

#[test]
fn table_sections_imply_closes() {
    let src = "<TABLE>\
               <THEAD><TR><TH>h\
               <TBODY><TR><TD>a\
               <TFOOT><TR><TD>f\
               </TABLE>";
    assert_eq!(ids(src), Vec::<&str>::new());
}

#[test]
fn nested_lists_do_not_imply_close() {
    // An inner UL must *not* close the outer LI: only a sibling LI does.
    let src = "<UL><LI>outer<UL><LI>inner</UL><LI>sibling</UL>";
    assert_eq!(ids(src), Vec::<&str>::new());
}

#[test]
fn definition_lists_alternate() {
    let src = "<DL><DT>one<DD>first<DT>two<DD>second</DL>";
    assert_eq!(ids(src), Vec::<&str>::new());
}

#[test]
fn select_option_chains() {
    let src = "<FORM ACTION=\"/go\"><SELECT NAME=\"s\">\
               <OPTION>a<OPTION SELECTED>b<OPTION>c\
               </SELECT></FORM>";
    assert_eq!(ids(src), Vec::<&str>::new());
}

#[test]
fn paragraphs_closed_by_blocks() {
    let src = "<P>one<P>two<H2>head</H2><P>three<UL><LI>x</UL><P>four";
    assert_eq!(ids(src), Vec::<&str>::new());
}

#[test]
fn script_containing_almost_closing_tag() {
    // "</scr" + "ipt" inside a string must not end the element; only the
    // real close tag does.
    let src = "<SCRIPT TYPE=\"text/javascript\">\
               var s = \"</scr\" + \"ipt>\";\
               if (a < b) { c(); }\
               </SCRIPT>";
    // The string actually contains "</scr" followed by "ipt>", so the
    // tokenizer must not get confused by the '<' inside.
    let found = ids(src);
    assert_eq!(found, Vec::<&str>::new(), "{found:?}");
}

#[test]
fn comment_between_head_and_body_is_fine() {
    let mut weblint = LintSession::new();
    let src = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
               <HTML><HEAD><TITLE>t</TITLE></HEAD>\n\
               <!-- navigation bar inserted here by the build -->\n\
               <BODY><P>x</P></BODY></HTML>";
    assert_eq!(weblint.check_string(src), vec![]);
}

#[test]
fn whitespace_between_head_and_body_is_fine() {
    let mut weblint = LintSession::new();
    let src = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
               <HTML><HEAD><TITLE>t</TITLE></HEAD>\n\n\n\
               <BODY><P>x</P></BODY></HTML>";
    assert_eq!(weblint.check_string(src), vec![]);
}

#[test]
fn overlap_inside_table_cell_is_contained() {
    // The overlap resolves within the cell; the table machinery stays quiet.
    let src = "<TABLE><TR><TD><B><I>x</B></I></TD></TR></TABLE>";
    assert_eq!(ids(src), vec!["element-overlap"]);
}

#[test]
fn two_overlaps_two_messages() {
    let src = "<P><B><I>x</B></I> and <TT><EM>y</TT></EM></P>";
    assert_eq!(ids(src), vec!["element-overlap", "element-overlap"]);
}

#[test]
fn heading_mismatch_then_more_content_is_quiet() {
    // After the mismatch resolves the heading, later content is unaffected.
    let src = "<H2>bad</H3><P>then a <B>fine</B> paragraph.</P>";
    assert_eq!(ids(src), vec!["heading-mismatch"]);
}

#[test]
fn empty_elements_do_not_hold_content_state() {
    // <BR> between <A> open and text must not mark the anchor empty.
    let src = "<A NAME=\"x\"><BR></A>y";
    let found = ids(src);
    assert!(!found.contains(&"empty-container"), "{found:?}");
}

#[test]
fn case_insensitive_matching_of_tags() {
    let src = "<b>bold <I>italic</i></B>";
    assert_eq!(ids(src), Vec::<&str>::new());
}

#[test]
fn stray_closes_after_eof_pop() {
    // Closing tags after everything is closed: each reports once.
    let src = "<P>x</P></P></B>";
    assert_eq!(ids(src), vec!["unexpected-close", "unexpected-close"]);
}

#[test]
fn unknown_element_contents_still_checked() {
    // Inside an unknown element, ordinary checks keep running.
    let src = "<WOBBLE><IMG SRC=\"x.gif\"></WOBBLE>";
    let found = ids(src);
    assert!(found.contains(&"unknown-element"));
    assert!(found.contains(&"img-alt"));
}

#[test]
fn duplicate_ids_of_messages_per_line_order() {
    // Messages on one line come out in check order, stable.
    let src = "<BODY BGCOLOR=\"zzz\" TEXT=#0f0 ALINK=\"also bad\">x</BODY>";
    let mut weblint = fragment();
    let diags = weblint.check_string(src);
    let ids: Vec<_> = diags.iter().map(|d| d.id).collect();
    // Lexical pass first (quote on TEXT), then value checks in attribute
    // order — #0f0 is three hex digits, also illegal.
    assert_eq!(
        ids,
        vec![
            "quote-attribute-value",
            "attribute-value",
            "attribute-value",
            "attribute-value",
        ]
    );
}

#[test]
fn body_implies_nothing_without_head() {
    // A fragment starting at BODY: no structure noise in fragment mode.
    let src = "<BODY><P>x</P></BODY>";
    assert_eq!(ids(src), Vec::<&str>::new());
}

#[test]
fn title_text_through_entities() {
    let mut weblint = LintSession::new();
    let src = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
               <HTML><HEAD><TITLE>caf&eacute; &amp; more</TITLE></HEAD>\
               <BODY><P>x</P></BODY></HTML>";
    assert_eq!(weblint.check_string(src), vec![]);
}

#[test]
fn pre_preserves_checks() {
    // PRE content is still HTML (unlike XMP): entities and tags checked.
    let src = "<PRE>a <B>bold</B> word &amp; an entity</PRE>";
    assert_eq!(ids(src), Vec::<&str>::new());
    let src = "<PRE>unknown &zorp; entity</PRE>";
    assert_eq!(ids(src), vec!["unknown-entity"]);
}

#[test]
fn xmp_content_is_not_checked() {
    // XMP is raw text (plus obsolete): its content produces nothing.
    let found = ids("<XMP>1 < 2 &zorp; <B>not markup</XMP>");
    assert_eq!(found, vec!["obsolete-element"]);
}

#[test]
fn markup_between_head_and_body_is_misplaced() {
    let mut weblint = LintSession::new();
    let src = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
               <HTML><HEAD><TITLE>t</TITLE></HEAD>\n<HR>\n\
               <BODY><P>x</P></BODY></HTML>";
    let found: Vec<_> = weblint
        .check_string(src)
        .into_iter()
        .map(|d| d.id)
        .collect();
    assert_eq!(found, vec!["must-follow-head"]);
}
