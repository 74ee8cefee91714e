//! Registry consistency: the check table is the single source of truth.
//!
//! The catalog view, the `Rule` enum, the applicability masks and the fix
//! engine must all agree with `weblint_rules::REGISTRY`. Most of this is
//! pinned structurally; the `fixable` flag is pinned *behaviorally* — every
//! rule that claims a mechanical fix must demonstrate one on a snippet,
//! and no rule that disclaims one may ever attach a fix.

use weblint_core::{applies, intern_id, LintConfig, LintSession, Rule, CATALOG, REGISTRY};

#[test]
fn catalog_is_the_registry() {
    // The historical CATALOG is a re-export, not a copy.
    assert!(std::ptr::eq(CATALOG, REGISTRY));
    assert_eq!(REGISTRY.len(), Rule::COUNT);
}

#[test]
fn registry_rows_are_internally_consistent() {
    for (i, d) in REGISTRY.iter().enumerate() {
        // Enum discriminant == table position, so `Rule` indexes REGISTRY.
        assert_eq!(d.rule as usize, i, "{}", d.id);
        assert_eq!(d.rule.descriptor().id, d.id);
        assert_eq!(Rule::from_id(d.id), Some(d.rule), "{}", d.id);
        // Interning a registry id is a pass-through to the static table.
        assert!(std::ptr::eq(intern_id(d.id), d.id));
        // Every row is documented: summary, long-form doc, and an example.
        assert!(!d.summary.is_empty(), "{} has no summary", d.id);
        assert!(!d.doc.is_empty(), "{} has no doc", d.id);
        assert!(d.doc.ends_with('.'), "{} doc is not a sentence", d.id);
        assert!(!d.example.is_empty(), "{} has no example", d.id);
        // Applicability is non-empty and within the known token kinds.
        assert!(d.applies != 0, "{} applies to nothing", d.id);
        assert!(!applies::describe(d.applies).is_empty(), "{}", d.id);
    }
    for pair in REGISTRY.windows(2) {
        assert!(pair[0].id < pair[1].id, "{} !< {}", pair[0].id, pair[1].id);
    }
}

#[test]
fn default_enabled_count_is_pinned() {
    // DESIGN.md §2: 55 messages, exactly 42 enabled by default.
    assert_eq!(REGISTRY.len(), 55);
    let enabled = REGISTRY.iter().filter(|d| d.default_enabled).count();
    assert_eq!(enabled, 42);
}

#[test]
fn kind_masks_mirror_applicability() {
    for bit in [
        applies::START_TAG,
        applies::END_TAG,
        applies::TEXT,
        applies::COMMENT,
        applies::DOCTYPE,
        applies::DOCUMENT,
        applies::SITE,
    ] {
        let mask = weblint_core::kind_mask(bit);
        for d in REGISTRY {
            let in_mask = mask & d.rule.bit() != 0;
            assert_eq!(in_mask, d.applies & bit != 0, "{} bit {bit}", d.id);
        }
    }
}

/// Pedantic + fix collection, the configuration the demonstrations run in.
fn fixing(fragment: bool) -> LintConfig {
    let mut config = LintConfig::pedantic();
    config.fragment = fragment;
    config.emit_fixes = true;
    config
}

/// One demonstration per fixable rule: a snippet (with a configuration)
/// on which the rule fires *with a fix attached*.
fn demonstrations() -> Vec<(&'static str, LintConfig, &'static str)> {
    let mut demos: Vec<(&'static str, LintConfig, &'static str)> = vec![
        (
            "attribute-delimiter",
            fixing(true),
            "<A HREF='foo.html'>x</A>",
        ),
        ("closing-attribute", fixing(true), "<B>x</B ID=\"v\">"),
        (
            "doctype-version",
            fixing(false),
            "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 3.2 Final//EN\">\n\
             <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</P></BODY></HTML>",
        ),
        (
            "duplicate-attribute",
            fixing(true),
            "<IMG SRC=\"a.gif\" SRC=\"b.gif\" ALT=\"x\">",
        ),
        ("heading-mismatch", fixing(true), "<H1>t</H2>"),
        ("img-alt", fixing(true), "<IMG SRC=\"a.gif\">"),
        ("leading-whitespace", fixing(true), "<B>x</ B>"),
        ("literal-metacharacter", fixing(true), "<P>a > b</P>"),
        ("obsolete-element", fixing(true), "<LISTING>x</LISTING>"),
        (
            "quote-attribute-value",
            fixing(true),
            "<A HREF=docs/notes.html>the notes</A>",
        ),
        (
            "require-doctype",
            fixing(false),
            "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</P></BODY></HTML>",
        ),
        ("unclosed-element", fixing(true), "<B>x"),
        ("unexpected-close", fixing(true), "<P>x</P></B>"),
        // The unknown-entity fix needs a correctly-cased form to exist.
        ("unknown-entity", fixing(true), "<P>&AMP; text</P>"),
        ("unterminated-entity", fixing(true), "<P>a &amp b</P>"),
        ("xml-self-close", fixing(true), "<BR/>"),
    ];
    // The case checks are mutually exclusive and off even under pedantic;
    // each gets a configuration with just itself switched on.
    let mut lower = fixing(true);
    lower.enable("lower-case").unwrap();
    demos.push(("lower-case", lower, "<B>x</B>"));
    let mut upper = fixing(true);
    upper.enable("upper-case").unwrap();
    demos.push(("upper-case", upper, "<b>x</b>"));
    demos
}

#[test]
fn every_fixable_rule_demonstrates_a_fix() {
    let demos = demonstrations();
    // The demonstration table must cover exactly the registry's fixable
    // set — adding a fixable rule without a demonstration fails here.
    let mut claimed: Vec<&str> = REGISTRY
        .iter()
        .filter(|d| d.fixable)
        .map(|d| d.id)
        .collect();
    let mut demonstrated: Vec<&str> = demos.iter().map(|(id, _, _)| *id).collect();
    claimed.sort_unstable();
    demonstrated.sort_unstable();
    assert_eq!(claimed, demonstrated);

    for (id, config, snippet) in demos {
        let diags = LintSession::with_config(config).check_string(snippet);
        assert!(
            diags.iter().any(|d| d.id == id && d.fix.is_some()),
            "{id} attached no fix on {snippet:?}: {diags:?}"
        );
    }
}

#[test]
fn no_unfixable_rule_ever_attaches_a_fix() {
    // Sweep the demonstration snippets and a slice of the deterministic
    // corpus under full fix collection; any diagnostic carrying a fix must
    // belong to a rule the registry marks fixable.
    let mut sources: Vec<String> = demonstrations()
        .into_iter()
        .map(|(_, _, s)| s.to_string())
        .collect();
    for seed in 0..16u64 {
        sources.push(weblint_corpus::generate_document(seed, 4096));
    }
    for (fragment, label) in [(true, "fragment"), (false, "document")] {
        let mut weblint = LintSession::with_config(fixing(fragment));
        for src in &sources {
            for d in weblint.check_string(src) {
                if d.fix.is_some() {
                    let desc = weblint_core::check_def(d.id)
                        .unwrap_or_else(|| panic!("{} not in registry", d.id));
                    assert!(desc.fixable, "{} fixed but not fixable ({label})", d.id);
                }
            }
        }
    }
}
