//! Custom policy: configure weblint to a house style.
//!
//! "Weblint should not impose any specific definition of style … everything
//! in weblint can be turned off" (§4.1). This example builds a corporate
//! style guide in three layers — a site config, per-switch overrides, and
//! an in-page pragma — and shows each layer taking effect.
//!
//! Run with:
//!
//! ```text
//! cargo run --example custom_policy
//! ```

use weblint::config::{apply_config_text, apply_pragmas};
use weblint::{format_report, LintConfig, LintSession, OutputFormat};

const PAGE: &str = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
<HTML>\n<HEAD>\n<TITLE>product page</TITLE>\n</HEAD>\n<BODY>\n\
<H1>Products</H1>\n\
<P>Click <A HREF=\"list.html\">here</A> for the product list.</P>\n\
<P><B>Important:</B> prices exclude tax.</P>\n\
<P><IMG SRC=\"logo.gif\" ALT=\"logo\"></P>\n\
</BODY>\n</HTML>\n";

fn report(label: &str, config: &LintConfig) {
    let mut weblint = LintSession::with_config(config.clone());
    let diags = weblint.check_string(PAGE);
    println!("--- {label} ({} messages) ---", diags.len());
    print!(
        "{}",
        format_report(&diags, "product.html", OutputFormat::Short)
    );
    println!();
}

fn main() {
    // Layer 0: the defaults. The "here" anchor is flagged; physical font
    // markup and missing IMG sizes are not (those checks default off).
    let mut config = LintConfig::default();
    report("defaults", &config);

    // Layer 1: the site style guide, as a .weblintrc-format string. The
    // house rules: logical markup only, always give image sizes, and the
    // word "products" is also considered content-free anchor text.
    let site_config = "\
        # ACME web style guide\n\
        enable physical-font, img-size\n\
        here-anchor-text \"products\"\n";
    apply_config_text(site_config, &mut config).expect("site config parses");
    report("with site style guide", &config);

    // Layer 2: a user override from the command line (-d physical-font).
    config.disable("physical-font").expect("known check");
    report("user turned physical-font back off", &config);

    // Layer 3: the page itself opts out of the here-anchor comment with an
    // embedded pragma comment (the paper's §6.1 future-work feature).
    let pragma_page = format!("<!-- weblint: disable here-anchor -->\n{PAGE}");
    let mut page_config = config.clone();
    apply_pragmas(&pragma_page, &mut page_config).expect("pragma parses");
    let mut weblint = LintSession::with_config(page_config);
    let diags = weblint.check_string(&pragma_page);
    println!("--- with in-page pragma ({} messages) ---", diags.len());
    print!(
        "{}",
        format_report(&diags, "product.html", OutputFormat::Short)
    );
}
