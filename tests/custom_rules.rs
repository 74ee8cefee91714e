//! Integration test for the `examples/bootstrap.weblintrc` rule pack.
//!
//! A pattern rule declared only in configuration must behave exactly like
//! a built-in check: it fires under its own identifier in every output
//! format, it can be switched off by id from a `[config]` section or a
//! page pragma, and a page that matches none of the pack's patterns lints
//! byte-identically with and without the pack loaded.

use std::path::Path;

use weblint_config::{apply_config_text, apply_pragmas, load_config_file};
use weblint_core::{format_report, LintConfig, LintSession, OutputFormat};

const PACK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/bootstrap.weblintrc");

/// A fragment exercising all four pack rules, and nothing else.
const TRIGGER_PAGE: &str = "<DIV>\n\
     <BUTTON data-toggle=\"modal\">Open</BUTTON>\n\
     <P style=\"color: red\">styled</P>\n\
     <A href=\"http://example.org/\">plain link</A>\n\
     </DIV>\n";

fn pack_config() -> LintConfig {
    let mut config = LintConfig::default();
    config.fragment = true;
    let warnings = load_config_file(Path::new(PACK), &mut config).expect("bootstrap pack parses");
    assert!(warnings.is_empty(), "pack warned: {warnings:?}");
    config
}

fn ids(config: LintConfig, src: &str) -> Vec<&'static str> {
    let mut weblint = LintSession::with_config(config);
    weblint.check_string(src).iter().map(|d| d.id).collect()
}

#[test]
fn pack_declares_four_rules_without_warnings() {
    let config = pack_config();
    let declared: Vec<&str> = config.custom_rules.iter().map(|r| r.id).collect();
    assert_eq!(
        declared,
        [
            "button-class",
            "toggle-target",
            "no-inline-style",
            "insecure-href"
        ]
    );
    for rule in &config.custom_rules {
        assert!(config.is_enabled(rule.id), "{} starts enabled", rule.id);
    }
}

#[test]
fn every_pack_rule_fires_under_its_own_id() {
    let mut weblint = LintSession::with_config(pack_config());
    let diags = weblint.check_string(TRIGGER_PAGE);
    for id in [
        "button-class",
        "toggle-target",
        "no-inline-style",
        "insecure-href",
    ] {
        assert!(diags.iter().any(|d| d.id == id), "{id} missing: {diags:?}");
    }
    // Message templates expanded: {element} and {value} substituted.
    let toggle = diags.iter().find(|d| d.id == "toggle-target").unwrap();
    assert_eq!(toggle.message, "BUTTON has data-toggle but no data-target");
    let href = diags.iter().find(|d| d.id == "insecure-href").unwrap();
    assert!(
        href.message.contains("http://example.org/"),
        "{}",
        href.message
    );
}

#[test]
fn pack_rules_render_in_every_output_format() {
    let mut weblint = LintSession::with_config(pack_config());
    let diags = weblint.check_string(TRIGGER_PAGE);
    // Lint and short formats print the message text; terse and JSON also
    // carry the identifier.
    for format in [OutputFormat::Lint, OutputFormat::Short] {
        let report = format_report(&diags, "page.html", format);
        assert!(
            report.contains("every <button> needs a class"),
            "{format:?} lost the custom message:\n{report}"
        );
    }
    for format in [OutputFormat::Terse, OutputFormat::Json] {
        let report = format_report(&diags, "page.html", format);
        assert!(
            report.contains("button-class"),
            "{format:?} lost the custom id:\n{report}"
        );
    }
    // JSON carries the id as a machine-readable field.
    let json = format_report(&diags, "page.html", OutputFormat::Json);
    assert!(json.contains("insecure-href"), "{json}");
}

#[test]
fn pack_rule_disables_by_id_like_a_builtin() {
    let mut config = pack_config();
    apply_config_text("disable button-class\n", &mut config).unwrap();
    let seen = ids(config, TRIGGER_PAGE);
    assert!(!seen.contains(&"button-class"), "{seen:?}");
    // Only the named rule went quiet; its packmates still fire.
    assert!(seen.contains(&"toggle-target"), "{seen:?}");
}

#[test]
fn pack_rule_disables_by_page_pragma() {
    let page = format!("<!-- weblint: disable button-class, insecure-href -->\n{TRIGGER_PAGE}");
    let mut config = pack_config();
    let (applied, warnings) = apply_pragmas(&page, &mut config).unwrap();
    assert_eq!(applied, 2);
    assert!(warnings.is_empty(), "{warnings:?}");
    let seen = ids(config, &page);
    assert!(!seen.contains(&"button-class"), "{seen:?}");
    assert!(!seen.contains(&"insecure-href"), "{seen:?}");
    assert!(seen.contains(&"no-inline-style"), "{seen:?}");
}

#[test]
fn pack_is_invisible_on_pages_it_does_not_match() {
    let page = "<!DOCTYPE html>\n<HTML><HEAD><TITLE>t</TITLE></HEAD>\n\
                <BODY><H1>ok</H1><P>plain text</P></BODY></HTML>\n";
    let mut plain = LintConfig::default();
    plain.fragment = true;
    let without = LintSession::with_config(plain).check_string(page);
    let with = LintSession::with_config(pack_config()).check_string(page);
    assert_eq!(without, with, "pack changed output on a non-matching page");
}

#[test]
fn declaring_lines_round_trip_through_display() {
    // `weblint -explain <id>` prints the rule back in declaration syntax;
    // the reconstructed line must re-parse to the same rule.
    for rule in &pack_config().custom_rules {
        let shown = rule.to_string();
        let reparsed = weblint_core::PatternRule::parse_line(&shown)
            .unwrap_or_else(|e| panic!("{shown}: {e}"));
        assert_eq!(&reparsed, rule, "{shown}");
    }
}
