//! Gateway report: the CGI-gateway flow, end to end.
//!
//! "These are CGI forms where you provide the HTML by entering a URL,
//! pasting in the text, or through file upload … The warnings generated by
//! weblint are embedded into the web page generated by the gateway" (§4.5).
//!
//! This example renders the submission form, then runs both flows — pasted
//! HTML and a URL fetched from the simulated web — and writes the three
//! pages to a temp directory so you can open them in a browser.
//!
//! Run with:
//!
//! ```text
//! cargo run --example gateway_report
//! ```

use weblint::gateway::{render_form, Gateway};
use weblint::site::{SimulatedWeb, WebFetcher};
use weblint::LintSession;

const PASTED: &str = "<H1>My Example</H2>\n\
Click <B><A HREF=\"a.html>here</B></A> for details.\n";

fn main() {
    let out_dir = std::env::temp_dir().join("weblint-gateway-example");
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    // 1. The submission form.
    let form = render_form("/cgi-bin/weblint");
    std::fs::write(out_dir.join("form.html"), &form).expect("write form");

    // 2. The paste-in flow.
    let gateway = Gateway::default();
    let pasted_report = gateway.check_and_render("pasted HTML", PASTED);
    std::fs::write(out_dir.join("pasted.html"), &pasted_report).expect("write report");

    // 3. The URL flow, against the simulated web.
    let mut web = SimulatedWeb::new();
    web.add_page(
        "http://www.example.org/draft.html",
        "<HTML><HEAD><TITLE>draft</TITLE></HEAD>\
         <BODY BGCOLOR=\"fffff\"><P>draft page</P></BODY></HTML>",
    );
    let url_report = gateway
        .check_url(&WebFetcher::new(&web), "http://www.example.org/draft.html")
        .expect("fetch succeeds");
    std::fs::write(out_dir.join("url.html"), &url_report).expect("write report");

    println!("wrote three pages to {}", out_dir.display());
    println!("  form.html   — the submission form");
    println!("  pasted.html — report for the pasted snippet");
    println!("  url.html    — report for http://www.example.org/draft.html");

    // The gateway's own output had better be clean — prove it.
    let mut weblint = LintSession::new();
    for (name, html) in [
        ("form", &form),
        ("pasted", &pasted_report),
        ("url", &url_report),
    ] {
        let n = weblint.check_string(html).len();
        println!("self-check {name}.html: {n} weblint message(s)");
        assert_eq!(n, 0, "gateway output must be weblint-clean");
    }
}
