//! The meta-validator flow.
//!
//! §3.6: "Meta tools incorporate two or more of the categories described
//! above, usually merging the results into a single report. … The Web
//! Consortium runs a meta validator which uses James Clark's SGML parser
//! SP, and weblint." This module is that service: one submission, one page
//! carrying both the strict validator's SGML-voiced findings and weblint's
//! human-voiced comments, side by side.

use weblint_core::{LintConfig, LintSession, Summary};
use weblint_validator::{HtmlChecker, StrictValidator};

use crate::escape::escape_html;
use crate::render::ReportOptions;

/// Render a merged strict-validation + weblint report for one document.
pub fn render_meta_report(
    input_name: &str,
    src: &str,
    config: &LintConfig,
    options: &ReportOptions,
) -> String {
    let diags = LintSession::with_config(config.clone()).check_string(src);
    let strict = StrictValidator::new(config.version, config.extensions);
    let findings = strict.check(src);

    let mut page = String::with_capacity(4096 + src.len());
    page.push_str("<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n");
    page.push_str("<HTML>\n<HEAD>\n");
    page.push_str(&format!(
        "<TITLE>{} (meta report)</TITLE>\n",
        escape_html(&options.title)
    ));
    page.push_str("</HEAD>\n<BODY BGCOLOR=\"#ffffff\" TEXT=\"#000000\">\n");
    page.push_str(&format!(
        "<H1>Meta report</H1>\n<P>Checked: <STRONG>{}</STRONG> against {}.</P>\n",
        escape_html(input_name),
        escape_html(config.version.name())
    ));

    // Section 1: strict validation, parser voice.
    page.push_str("<H2>Strict validation</H2>\n");
    if findings.is_empty() {
        page.push_str("<P>No errors found: the document parses against the DTD.</P>\n");
    } else {
        page.push_str(&format!(
            "<P>{} error(s) from the parser:</P>\n<UL>\n",
            findings.len()
        ));
        for f in &findings {
            page.push_str(&format!(
                "<LI>line {}: {}\n",
                f.line,
                escape_html(&f.message)
            ));
        }
        page.push_str("</UL>\n");
    }

    // Section 2: weblint, human voice.
    page.push_str("<H2>Weblint</H2>\n");
    if diags.is_empty() {
        page.push_str("<P>Weblint has no comments. Have a nice day.</P>\n");
    } else {
        let summary = Summary::of(&diags);
        page.push_str(&format!("<P>{summary}:</P>\n<UL>\n"));
        for d in &diags {
            page.push_str(&format!(
                "<LI>line {}: {} <CODE>[{}]</CODE>\n",
                d.line,
                escape_html(&d.message),
                escape_html(d.id)
            ));
        }
        page.push_str("</UL>\n");
    }

    page.push_str(
        "<HR>\n<P>Generated by the weblint meta gateway, after Bowers \
         (USENIX 1998) and the W3C meta validator.</P>\n</BODY>\n</HTML>\n",
    );
    page
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_report_has_both_sections() {
        // A page with a DTD violation *and* a weblint-only problem.
        let src = "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\
                   <P><B><I>x</B></I></P>\
                   <P><IMG SRC=\"a.gif\" WIDTH=\"1\" HEIGHT=\"1\"></P>\
                   </BODY></HTML>";
        let page = render_meta_report(
            "snippet",
            src,
            &LintConfig::default(),
            &ReportOptions::default(),
        );
        assert!(page.contains("Strict validation"));
        assert!(page.contains("Weblint"));
        // The parser voice and the human voice are both present.
        assert!(page.contains("omitted"), "{page}");
        assert!(page.contains("seems to overlap"));
        // The IMG ALT advice only weblint gives:
        assert!(page.contains("img-alt"));
    }

    #[test]
    fn meta_report_is_weblint_clean() {
        let src = "<H1>bad</H2>";
        let page = render_meta_report(
            "snippet",
            src,
            &LintConfig::default(),
            &ReportOptions::default(),
        );
        assert_eq!(LintSession::new().check_string(&page), vec![]);
    }

    #[test]
    fn clean_document_reports_clean_twice() {
        let src = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
                   <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</P></BODY></HTML>";
        let page = render_meta_report("ok", src, &LintConfig::default(), &ReportOptions::default());
        assert!(page.contains("parses against the DTD"));
        assert!(page.contains("no comments"));
    }
}
