//! Quickstart: check the paper's §4.2 example page and print the report.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The output is the same seven diagnostics the paper shows for
//! `weblint -s test.html`.

use weblint::{format_report, LintSession, OutputFormat, Summary};

/// The test.html from §4.2 of the paper, verbatim.
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

fn main() {
    // The paper's simplest use (§5.4); its Weblint class is `LintSession`:
    //     use Weblint;
    //     $weblint = Weblint->new();
    //     $weblint->check_file($filename);
    let mut weblint = LintSession::new();
    let diags = weblint.check_string(TEST_HTML);

    println!("% weblint -s test.html");
    print!(
        "{}",
        format_report(&diags, "test.html", OutputFormat::Short)
    );

    let summary = Summary::of(&diags);
    println!();
    println!("{summary}");
    println!(
        "({} of {} messages enabled by default)",
        weblint.config().enabled_count(),
        weblint::core::CATALOG.len()
    );
}
