//! Report and form rendering.
//!
//! The generated pages are period-appropriate HTML 4.0 Transitional and
//! must themselves pass weblint cleanly — the gateway that flags your
//! markup had better not be flagged for its own.

use weblint_core::{Category, Diagnostic, Summary};

use crate::escape::escape_html;

/// Options for report rendering.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Page title.
    pub title: String,
    /// Include a numbered source listing with per-line message markers.
    pub show_source: bool,
    /// Cap the number of source lines listed (to keep reports on huge
    /// documents bounded). `0` means no cap.
    pub max_source_lines: usize,
    /// Include the page-weight table with modem download estimates — the
    /// §3.6 WebTechs feature ("a weight for your web page, including
    /// estimated download times for different modem speeds").
    pub show_weight: bool,
}

impl Default for ReportOptions {
    fn default() -> ReportOptions {
        ReportOptions {
            title: "weblint report".to_string(),
            show_source: true,
            max_source_lines: 500,
            show_weight: true,
        }
    }
}

/// Render a full report page for one checked document.
pub fn render_report(
    input_name: &str,
    src: &str,
    diags: &[Diagnostic],
    options: &ReportOptions,
) -> String {
    let mut page = String::with_capacity(2048 + src.len());
    render_report_into(&mut page, input_name, src, diags, options);
    page
}

/// [`render_report`], appended to a caller-owned buffer — servers building
/// a response body render straight into it instead of copying a page-sized
/// string. Byte-for-byte identical to [`render_report`].
pub fn render_report_into(
    page: &mut String,
    input_name: &str,
    src: &str,
    diags: &[Diagnostic],
    options: &ReportOptions,
) {
    let summary = Summary::of(diags);
    push_header(page, &options.title);
    page.push_str(&format!(
        "<H1>{}</H1>\n<P>Checked: <STRONG>{}</STRONG></P>\n",
        escape_html(&options.title),
        escape_html(input_name)
    ));
    if summary.is_clean() {
        page.push_str("<P>No problems found. Have a nice day.</P>\n");
    } else {
        page.push_str(&format!(
            "<P>{} error(s), {} warning(s), {} style comment(s).</P>\n",
            summary.errors, summary.warnings, summary.styles
        ));
        page.push_str("<TABLE BORDER=\"1\" WIDTH=\"100%\">\n");
        page.push_str(
            "<TR><TH>Line</TH><TH>Category</TH><TH>Message</TH><TH>Identifier</TH></TR>\n",
        );
        for d in diags {
            page.push_str(&format!(
                "<TR><TD><A HREF=\"#line{line}\">{line}</A></TD>\
                 <TD>{cat}</TD><TD>{msg}</TD><TD><CODE>{id}</CODE></TD></TR>\n",
                line = d.line,
                cat = category_label(d.category),
                msg = escape_html(&d.message),
                id = escape_html(d.id),
            ));
        }
        page.push_str("</TABLE>\n");
    }
    if options.show_weight {
        push_weight_table(page, src);
    }
    if options.show_source {
        push_source_listing(page, src, diags, options.max_source_lines);
    }
    push_footer(page);
}

fn push_weight_table(page: &mut String, src: &str) {
    let weight = weblint_site::weigh_html(src);
    page.push_str("<H2>Page weight</H2>\n");
    page.push_str(&format!(
        "<P>{} bytes of HTML, {} referenced asset(s). Estimated download time:</P>\n",
        weight.html_bytes, weight.asset_count
    ));
    page.push_str("<TABLE BORDER=\"1\">\n<TR>");
    for (label, _) in weight.modem_table() {
        page.push_str(&format!("<TH>{}</TH>", escape_html(label)));
    }
    page.push_str("</TR>\n<TR>");
    for (_, seconds) in weight.modem_table() {
        page.push_str(&format!("<TD>{seconds:.1}s</TD>"));
    }
    page.push_str("</TR>\n</TABLE>\n");
}

/// Render the gateway's submission form — paste HTML or give a URL, the
/// two flows the paper describes.
pub fn render_form(action: &str) -> String {
    let mut page = String::with_capacity(2048);
    push_header(&mut page, "weblint gateway");
    page.push_str("<H1>weblint gateway</H1>\n");
    page.push_str(
        "<P>Check the syntax and style of your HTML without installing \
         weblint. Paste a page below, or give a URL.</P>\n",
    );
    page.push_str(&format!(
        "<FORM ACTION=\"{}\" METHOD=\"post\">\n",
        escape_html(action)
    ));
    page.push_str(
        "<P>URL: <INPUT TYPE=\"text\" NAME=\"url\" SIZE=\"60\"></P>\n\
         <P>Or paste your HTML:</P>\n\
         <P><TEXTAREA NAME=\"html\" ROWS=\"12\" COLS=\"70\"></TEXTAREA></P>\n\
         <P><INPUT TYPE=\"submit\" VALUE=\"Check it\"> \
         <INPUT TYPE=\"reset\" VALUE=\"Clear\"></P>\n",
    );
    page.push_str("</FORM>\n");
    push_footer(&mut page);
    page
}

fn push_header(page: &mut String, title: &str) {
    page.push_str("<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n");
    page.push_str("<HTML>\n<HEAD>\n");
    page.push_str(&format!("<TITLE>{}</TITLE>\n", escape_html(title)));
    page.push_str(
        "<META NAME=\"generator\" CONTENT=\"weblint gateway\">\n</HEAD>\n\
         <BODY BGCOLOR=\"#ffffff\" TEXT=\"#000000\">\n",
    );
}

fn push_footer(page: &mut String) {
    page.push_str(
        "<HR>\n<P>Generated by the weblint gateway, after Bowers (USENIX 1998).</P>\n\
         </BODY>\n</HTML>\n",
    );
}

fn push_source_listing(page: &mut String, src: &str, diags: &[Diagnostic], cap: usize) {
    page.push_str("<H2>Source</H2>\n<PRE>\n");
    for (idx, line) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        if cap != 0 && idx >= cap {
            page.push_str("... (source truncated)\n");
            break;
        }
        let marker = if diags.iter().any(|d| d.line == lineno) {
            "&gt;&gt;"
        } else {
            "  "
        };
        // The line number lives *inside* the anchor: an empty <A NAME>
        // would trip weblint's own empty-container warning.
        page.push_str(&format!(
            "{marker} <A NAME=\"line{lineno}\">{lineno:4}</A> {}\n",
            escape_html(line)
        ));
    }
    page.push_str("</PRE>\n");
}

fn category_label(category: Category) -> &'static str {
    match category {
        Category::Error => "<STRONG>error</STRONG>",
        Category::Warning => "warning",
        Category::Style => "<EM>style</EM>",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblint_core::LintSession;

    fn diag(line: u32, id: &'static str, message: &str) -> Diagnostic {
        Diagnostic::new(id, Category::Error, line, 1, message.to_string())
    }

    #[test]
    fn report_contains_messages_and_source() {
        let src = "<H1>x</H2>";
        let diags = vec![diag(1, "heading-mismatch", "malformed heading <x>")];
        let page = render_report("pasted", src, &diags, &ReportOptions::default());
        assert!(page.contains("malformed heading &lt;x&gt;"));
        assert!(page.contains("heading-mismatch"));
        assert!(page.contains("&lt;H1&gt;x&lt;/H2&gt;"));
        assert!(page.contains("1 error(s)"));
    }

    #[test]
    fn clean_report_says_so() {
        let page = render_report("x", "<P>ok</P>", &[], &ReportOptions::default());
        assert!(page.contains("No problems found"));
    }

    #[test]
    fn source_listing_can_be_disabled() {
        let options = ReportOptions {
            show_source: false,
            ..ReportOptions::default()
        };
        let page = render_report("x", "<P>body text</P>", &[], &options);
        assert!(!page.contains("body text"));
    }

    #[test]
    fn source_listing_truncates_at_cap() {
        let src = (0..20).map(|i| format!("line {i}\n")).collect::<String>();
        let options = ReportOptions {
            max_source_lines: 5,
            ..ReportOptions::default()
        };
        let page = render_report("x", &src, &[], &options);
        assert!(page.contains("source truncated"));
        assert!(!page.contains("line 19"));
    }

    #[test]
    fn report_page_is_weblint_clean() {
        // The dogfood test: gateway output passes weblint with defaults.
        let src = "<H1>bad</H2>\n<P ALIGN=wrong>text\n";
        let mut weblint = LintSession::new();
        let diags = weblint.check_string(src);
        assert!(!diags.is_empty());
        let page = render_report("dogfood", src, &diags, &ReportOptions::default());
        let report_diags = weblint.check_string(&page);
        assert_eq!(report_diags, vec![], "gateway output must be clean");
    }

    #[test]
    fn form_page_is_weblint_clean() {
        let page = render_form("/cgi-bin/weblint");
        let mut weblint = LintSession::new();
        assert_eq!(weblint.check_string(&page), vec![]);
        assert!(page.contains("TEXTAREA"));
    }

    #[test]
    fn hostile_title_and_filename_escaped() {
        let options = ReportOptions {
            title: "evil <script>x</script> & co".to_string(),
            ..ReportOptions::default()
        };
        let page = render_report("<bad>&name.html", "<P>x</P>", &[], &options);
        assert!(!page.contains("<script>"));
        assert!(page.contains("evil &lt;script&gt;"));
        assert!(page.contains("&lt;bad&gt;&amp;name.html"));
        // Still weblint-clean despite the hostile inputs.
        assert_eq!(weblint_core::LintSession::new().check_string(&page), vec![]);
    }

    #[test]
    fn weight_table_present_by_default() {
        let page = render_report("x", "<P>tiny</P>", &[], &ReportOptions::default());
        assert!(page.contains("Page weight"));
        assert!(page.contains("28.8k"));
        let options = ReportOptions {
            show_weight: false,
            ..ReportOptions::default()
        };
        let page = render_report("x", "<P>tiny</P>", &[], &options);
        assert!(!page.contains("Page weight"));
    }

    #[test]
    fn message_lines_are_anchored() {
        let src = "one\ntwo\nthree";
        let diags = vec![diag(2, "odd-quotes", "x")];
        let page = render_report("x", src, &diags, &ReportOptions::default());
        assert!(page.contains("<A HREF=\"#line2\">2</A>"));
        assert!(page.contains("&gt;&gt; <A NAME=\"line2\">"));
    }
}
