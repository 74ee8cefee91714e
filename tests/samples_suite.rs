//! The weblint-style sample suite.
//!
//! §5.7: "A key tool in the development of weblint has been the
//! test-suite … a large test set of HTML samples, which are believed to be
//! valid or invalid for specific versions of HTML."
//!
//! Every `tests/samples/*.html` file declares its expected messages in a
//! first-line comment — `<!-- expect: id id … -->` (empty for valid
//! samples) — and this runner asserts the checker produces exactly that
//! multiset of identifiers, in order.

use std::fs;
use std::path::PathBuf;

use weblint::LintSession;

fn samples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/samples")
}

/// Parse the `<!-- expect: … -->` header.
fn expected_ids(src: &str) -> Vec<String> {
    let first = src.lines().next().expect("sample has content");
    let inner = first
        .trim()
        .strip_prefix("<!-- expect:")
        .and_then(|s| s.strip_suffix("-->"))
        .unwrap_or_else(|| panic!("bad expect header: {first}"));
    inner.split_whitespace().map(str::to_string).collect()
}

#[test]
fn every_sample_matches_its_expectation() {
    let mut entries: Vec<_> = fs::read_dir(samples_dir())
        .expect("samples directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "html"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 30, "sample suite too small");

    for path in entries {
        let src = fs::read_to_string(&path).expect("readable sample");
        let expected = expected_ids(&src);
        // Mirror the CLI flow: in-page weblint pragmas configure the page.
        let mut config = weblint::LintConfig::default();
        weblint::config::apply_pragmas(&src, &mut config)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut weblint = LintSession::with_config(config);
        let actual: Vec<String> = weblint
            .check_string(&src)
            .into_iter()
            .map(|d| d.id.to_string())
            .collect();
        assert_eq!(
            actual,
            expected,
            "{} produced {:?}, expected {:?}",
            path.file_name().unwrap().to_string_lossy(),
            actual,
            expected
        );
    }
}

#[test]
fn valid_samples_outnumber_a_floor() {
    // Keep a healthy share of believed-valid samples so regressions that
    // *add* false positives are caught, not just missed detections.
    let valid = fs::read_dir(samples_dir())
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("valid_")
        })
        .count();
    assert!(valid >= 5, "only {valid} valid samples");
}

#[test]
fn expectations_reference_real_message_ids() {
    for entry in fs::read_dir(samples_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "html") {
            continue;
        }
        let src = fs::read_to_string(&path).unwrap();
        for id in expected_ids(&src) {
            assert!(
                weblint::core::check_def(&id).is_some(),
                "{}: unknown id {id}",
                path.display()
            );
        }
    }
}
