//! Experiment E1: the paper's §4.2 worked example, reproduced
//! message-for-message.
//!
//! The paper feeds this `test.html` through `weblint -s` and shows seven
//! diagnostics. This test asserts our engine produces the same seven, on
//! the same lines, in the same order, with the same message text (modulo
//! the paper's own typo, which prints the TEXT value as `#00ffoo` although
//! the input says `#00ff00`).

use weblint_core::{format_report, LintSession, OutputFormat};

/// The literal test.html from §4.2.
const TEST_HTML: &str = "<HTML>\n\
<HEAD>\n\
<TITLE>example page\n\
</HEAD>\n\
<BODY BGCOLOR=\"fffff\" TEXT=#00ff00>\n\
<H1>My Example</H2>\n\
Click <B><A HREF=\"a.html>here</B></A>\n\
for more details.\n\
</BODY>\n\
</HTML>\n";

#[test]
fn paper_output_reproduced_exactly() {
    let mut weblint = LintSession::new();
    let diags = weblint.check_string(TEST_HTML);
    let report = format_report(&diags, "test.html", OutputFormat::Short);
    let expected = "\
line 1: first element was not DOCTYPE specification
line 4: no closing </TITLE> seen for <TITLE> on line 3
line 5: value for attribute TEXT (#00ff00) of element BODY should be quoted (i.e. TEXT=\"#00ff00\")
line 5: illegal value for BGCOLOR attribute of BODY (fffff)
line 6: malformed heading - open tag is <H1>, but closing is </H2>
line 7: odd number of quotes in element <A HREF=\"a.html>
line 7: </B> on line 7 seems to overlap <A>, opened on line 7
";
    assert_eq!(report, expected);
}

#[test]
fn paper_example_message_ids() {
    let mut weblint = LintSession::new();
    let ids: Vec<_> = weblint
        .check_string(TEST_HTML)
        .into_iter()
        .map(|d| d.id)
        .collect();
    assert_eq!(
        ids,
        [
            "require-doctype",
            "unclosed-element",
            "quote-attribute-value",
            "attribute-value",
            "heading-mismatch",
            "odd-quotes",
            "element-overlap",
        ]
    );
}

#[test]
fn paper_example_lint_style_format() {
    // §4.2: the default output style is "test.html(1): blah blah blah".
    let mut weblint = LintSession::new();
    let diags = weblint.check_string(TEST_HTML);
    let report = format_report(&diags, "test.html", OutputFormat::Lint);
    assert!(report.starts_with("test.html(1): first element was not DOCTYPE specification\n"));
}

#[test]
fn fixed_version_of_test_html_is_clean() {
    // Applying every fix weblint asked for yields a clean page.
    let fixed = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
<HTML>\n\
<HEAD>\n\
<TITLE>example page</TITLE>\n\
</HEAD>\n\
<BODY BGCOLOR=\"#ffffff\" TEXT=\"#00ff00\">\n\
<H1>My Example</H1>\n\
Click <B><A HREF=\"a.html\">example</A></B>\n\
for more details.\n\
</BODY>\n\
</HTML>\n";
    let mut weblint = LintSession::new();
    assert_eq!(weblint.check_string(fixed), vec![]);
}

#[test]
fn no_cascade_from_the_overlap() {
    // The </A> after </B> must resolve against the secondary stack and
    // produce no unexpected-close; likewise </HEAD> must not report itself.
    let mut weblint = LintSession::new();
    let diags = weblint.check_string(TEST_HTML);
    assert!(diags.iter().all(|d| d.id != "unexpected-close"));
    // Exactly one message per underlying mistake: 7 total.
    assert_eq!(diags.len(), 7);
}
