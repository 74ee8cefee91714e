//! Property-based tests over the whole stack.
//!
//! The invariants that must hold for *any* input, however mangled:
//! the tokenizer is total and covers every byte; the engine is total and
//! deterministic; clean generated documents stay clean; defect injection
//! is detected; escaping always round-trips through the tokenizer.

use proptest::prelude::*;

use weblint::corpus::{all_defect_classes, generate_document};
use weblint::gateway::escape_html;
use weblint::tokenizer::{tokenize, TokenKind, Tokenizer};
use weblint::{LintConfig, LintSession};

/// A generator biased toward markup-relevant characters so random inputs
/// actually exercise the tag machinery, not just text handling.
fn htmlish() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            8 => proptest::char::range('a', 'z').prop_map(|c| c.to_string()),
            4 => Just(" ".to_string()),
            3 => Just("<".to_string()),
            3 => Just(">".to_string()),
            2 => Just("\"".to_string()),
            2 => Just("'".to_string()),
            2 => Just("=".to_string()),
            2 => Just("/".to_string()),
            2 => Just("&".to_string()),
            2 => Just(";".to_string()),
            1 => Just("!".to_string()),
            1 => Just("-".to_string()),
            1 => Just("\n".to_string()),
            1 => Just("#".to_string()),
            1 => any::<char>().prop_map(|c| c.to_string()),
        ],
        0..400,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tokenizer_never_panics_and_covers_input(src in htmlish()) {
        let tokens = tokenize(&src);
        // Every byte of the source is covered by exactly one token span,
        // in order, with no gaps or overlap.
        let mut offset = 0;
        for t in &tokens {
            prop_assert_eq!(t.span.start.offset, offset);
            prop_assert!(t.span.end.offset >= t.span.start.offset);
            offset = t.span.end.offset;
        }
        prop_assert_eq!(offset, src.len());
    }

    #[test]
    fn tokenizer_line_numbers_monotonic(src in htmlish()) {
        let mut last = (1, 0);
        for t in tokenize(&src) {
            let cur = (t.span.start.line, t.span.start.offset);
            prop_assert!(cur >= last, "{:?} < {:?}", cur, last);
            last = cur;
        }
    }

    #[test]
    fn engine_never_panics_and_is_deterministic(src in htmlish()) {
        let mut weblint = LintSession::new();
        let a = weblint.check_string(&src);
        let b = weblint.check_string(&src);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn diagnostics_point_into_the_document(src in htmlish()) {
        let line_count = src.lines().count().max(1) as u32;
        let mut weblint = LintSession::new();
        for d in weblint.check_string(&src) {
            prop_assert!(d.line >= 1);
            prop_assert!(d.line <= line_count + 1, "line {} of {}", d.line, line_count);
        }
    }

    #[test]
    fn every_diagnostic_id_is_in_the_catalog(src in htmlish()) {
        let mut weblint = LintSession::new();
        for d in weblint.check_string(&src) {
            prop_assert!(
                weblint::core::check_def(d.id).is_some(),
                "unknown id {}", d.id
            );
        }
    }

    #[test]
    fn disabled_checks_never_fire(src in htmlish()) {
        let mut config = LintConfig::default();
        config.set_category_enabled(weblint::Category::Error, false);
        config.set_category_enabled(weblint::Category::Warning, false);
        config.set_category_enabled(weblint::Category::Style, false);
        let mut weblint = LintSession::with_config(config);
        prop_assert_eq!(weblint.check_string(&src), vec![]);
    }

    #[test]
    fn generated_documents_are_clean(seed in 0u64..500) {
        let doc = generate_document(seed, 2048);
        let mut weblint = LintSession::new();
        prop_assert_eq!(weblint.check_string(&doc), vec![]);
    }

    #[test]
    fn injected_defects_are_detected(seed in 0u64..64, class_idx in 0usize..28) {
        use rand::SeedableRng;
        let class = all_defect_classes()[class_idx];
        let doc = generate_document(seed, 2048);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xDEAD);
        let mutated = class.inject(&doc, &mut rng);
        let mut weblint = LintSession::new();
        let diags = weblint.check_string(&mutated);
        prop_assert!(
            diags.iter().any(|d| d.id == class.expected_message()),
            "{} not detected: {:?}", class.name(),
            diags.iter().map(|d| d.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn escaped_text_tokenizes_as_pure_text(text in any::<String>()) {
        let escaped = escape_html(&text);
        let wrapped = format!("<P>{escaped}</P>");
        let tokens: Vec<_> = Tokenizer::new(&wrapped).collect();
        // Exactly <P>, optional text, </P> — never extra tags.
        prop_assert!(tokens.len() <= 3);
        for t in &tokens[1..tokens.len().saturating_sub(1)] {
            prop_assert!(matches!(t.kind, TokenKind::Text(_)));
        }
    }

    #[test]
    fn strict_validator_total(src in htmlish()) {
        use weblint::validator::{HtmlChecker, StrictValidator, RegexChecker};
        let _ = StrictValidator::default().check(&src);
        let _ = RegexChecker::new().check(&src);
    }

    #[test]
    fn link_resolution_never_escapes_root(page in "[a-z]{1,8}(/[a-z]{1,8}){0,2}\\.html",
                                          href in "[a-z./]{0,24}") {
        if let Some(resolved) = weblint::site::resolve_local(&page, &href) {
            prop_assert!(!resolved.starts_with('/'));
            prop_assert!(resolved.split('/').all(|seg| seg != ".."));
        }
    }

    #[test]
    fn service_cache_is_transparent(src in htmlish(), dup in 1usize..4) {
        // Linting through the service — cold, and again once the result
        // cache is warm — must be indistinguishable from calling the
        // checker directly. The cache may change *when* work happens,
        // never *what* comes back.
        use weblint::service::{ServiceConfig, SubmitPolicy};
        use weblint::LintService;

        let expected = LintSession::new().check_string(&src);
        let service = LintService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            policy: SubmitPolicy::Block,
            lint: LintConfig::default(),
            enable_panic_marker: false,
        });
        // First request misses the cache; the duplicates hit it.
        for round in 0..=dup {
            let got = service.submit(&src).unwrap().wait().unwrap();
            prop_assert_eq!(&got, &expected, "round {} diverged", round);
        }
        let m = service.metrics();
        prop_assert_eq!(m.jobs_completed, dup as u64 + 1);
        prop_assert!(m.cache.hits >= dup as u64, "duplicates served from cache");
    }
}
