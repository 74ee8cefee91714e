//! Site audit: weblint's `-R` mode over a whole site.
//!
//! Generates a deterministic 30-page site with deliberate dead links and
//! orphan pages (the corpus generator), loads it into an in-memory page
//! store, and runs the site checker — per-page lint plus the `-R` extras:
//! `bad-link`, `orphan-page`, and `directory-index` (§4.5).
//!
//! Run with:
//!
//! ```text
//! cargo run --example site_audit
//! ```

use weblint::corpus::{generate_site, SiteOptions};
use weblint::site::{MemStore, SiteChecker};
use weblint::{LintConfig, Summary};

fn main() {
    let spec = generate_site(
        1998,
        &SiteOptions {
            pages: 30,
            page_bytes: 1024,
            dead_link_percent: 15,
            orphan_percent: 10,
            directories: 3,
        },
    );
    let store: MemStore = spec.files().collect();
    println!(
        "site: {} pages, {} bytes, {} intentional dead links",
        spec.pages.len(),
        spec.total_bytes(),
        spec.dead_links.len()
    );

    let checker = SiteChecker::new(LintConfig::default());
    let report = checker.check(&store);

    println!("\nsite-level findings:");
    for (path, diag) in &report.site_diagnostics {
        println!("  {path}: {}", diag.message);
    }

    let page_messages: usize = report.pages.iter().map(|(_, d)| d.len()).sum();
    println!(
        "\nper-page lint: {page_messages} messages across {} pages",
        report.page_count()
    );
    for (path, diags) in report.pages.iter().filter(|(_, d)| !d.is_empty()).take(5) {
        println!("  {path}:");
        for d in diags.iter().take(3) {
            println!("    line {}: {}", d.line, d.message);
        }
    }

    let summary: Summary = report.summary();
    println!("\ntotal: {summary}");

    // Cross-check: every intentional dead link was found.
    let found_dead = report
        .site_diagnostics
        .iter()
        .filter(|(_, d)| d.id == "bad-link")
        .count();
    let planted: usize = spec.dead_links.len();
    println!("dead links planted: {planted}, reported: {found_dead}");
    assert_eq!(
        found_dead, planted,
        "the checker must find exactly the planted dead links"
    );
}
