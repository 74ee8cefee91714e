//! Golden regression suite for the lint hot path.
//!
//! The atom/interning rework (E14) promises byte-identical output: same
//! messages, same ordering, same line/column numbers, same summary counts.
//! This test pins the entire observable surface against a checked-in
//! expected file generated from the pre-atom engine:
//!
//! - every deterministic corpus document (clean and defect-injected),
//! - every individual defect-class snippet,
//! - every `tests/samples/*.html` file,
//! - the `big.html` and `frag.html` fixtures,
//!
//! each linted under several configurations (HTML versions, fragment mode,
//! heuristics off, vendor extensions) and rendered in the terse format,
//! which exposes id, line, column, and message text.
//!
//! Regenerate after an *intentional* behavior change with:
//!
//! ```sh
//! WEBLINT_GOLDEN_REGEN=1 cargo test -q --test golden_corpus
//! ```

use std::fmt::Write as _;
use std::path::Path;

use rand::SeedableRng;
use weblint_core::{format_report, Diagnostic, LintConfig, LintSession, OutputFormat, Summary};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/corpus_expected.txt"
);

/// The configurations every document is linted under. Names are part of
/// the golden format; keep them stable.
fn configs() -> Vec<(&'static str, LintConfig)> {
    let mut out = Vec::new();
    out.push(("default", LintConfig::default()));

    let mut c = LintConfig::default();
    c.version = weblint_core::HtmlVersion::Html32;
    out.push(("html32", c));

    let mut c = LintConfig::default();
    c.version = weblint_core::HtmlVersion::Html40Strict;
    out.push(("strict", c));

    let mut c = LintConfig::default();
    c.fragment = true;
    out.push(("fragment", c));

    let mut c = LintConfig::default();
    c.heuristics = false;
    out.push(("nocascade", c));

    let mut c = LintConfig::default();
    c.extensions.netscape = true;
    out.push(("netscape", c));

    out
}

/// Inject `count` defects of rotating classes (mirrors the bench helper;
/// the bench crate is not a dependency of the root package).
fn dirty_document(seed: u64, bytes: usize, defects: usize) -> String {
    let mut doc = weblint_corpus::generate_document(seed, bytes);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1517);
    let classes = weblint_corpus::all_defect_classes();
    for i in 0..defects {
        let class = classes[i % classes.len()];
        if class == weblint_corpus::DefectClass::UnclosedComment {
            continue;
        }
        doc = class.inject(&doc, &mut rng);
    }
    doc
}

/// Every (name, source) pair in the golden corpus, in golden order.
fn corpus() -> Vec<(String, String)> {
    let mut docs = Vec::new();

    // Deterministic generated documents, clean and dirty, several sizes.
    for &(seed, bytes) in &[(1u64, 1usize << 10), (2, 4 << 10), (3, 16 << 10)] {
        docs.push((
            format!("gen-clean-{seed}-{bytes}"),
            weblint_corpus::generate_document(seed, bytes),
        ));
    }
    for &(seed, bytes, defects) in &[(10u64, 4usize << 10, 4usize), (11, 8 << 10, 8)] {
        docs.push((
            format!("gen-dirty-{seed}-{bytes}-{defects}"),
            dirty_document(seed, bytes, defects),
        ));
    }

    // One snippet per defect class.
    for &class in weblint_corpus::all_defect_classes() {
        docs.push((
            format!("defect-{}", class.name()),
            class.snippet().to_string(),
        ));
    }

    // Every sample page, sorted by file name for a stable order.
    let samples = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/samples");
    let mut paths: Vec<_> = std::fs::read_dir(&samples)
        .expect("tests/samples")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "html"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        docs.push((format!("sample-{name}"), source));
    }

    // Root fixtures.
    for fixture in ["big.html", "frag.html"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(fixture);
        docs.push((
            format!("fixture-{fixture}"),
            std::fs::read_to_string(&path).unwrap(),
        ));
    }

    docs
}

/// The CLI's exit-status convention: 1 if anything was reported, else 0.
fn exit_code(summary: &Summary) -> i32 {
    i32::from(!summary.is_clean())
}

/// Render the golden file from `lint(config index, source)`, called for
/// every document under every configuration in golden order.
fn render_golden(
    corpus: &[(String, String)],
    configs: &[(&'static str, LintConfig)],
    mut lint: impl FnMut(usize, &str) -> Vec<Diagnostic>,
) -> String {
    let mut out = String::new();
    out.push_str("# Golden lint output. Regenerate: WEBLINT_GOLDEN_REGEN=1 cargo test -q --test golden_corpus\n");
    for (doc_name, source) in corpus {
        for (c, (config_name, _)) in configs.iter().enumerate() {
            let diags = lint(c, source);
            let summary = Summary::of(&diags);
            writeln!(
                out,
                "## {doc_name} config={config_name} exit={} errors={} warnings={} styles={}",
                exit_code(&summary),
                summary.errors,
                summary.warnings,
                summary.styles
            )
            .unwrap();
            out.push_str(&format_report(&diags, doc_name, OutputFormat::Terse));
        }
    }
    out
}

/// The checked-in golden file.
fn expected_golden() -> String {
    std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with WEBLINT_GOLDEN_REGEN=1 to create it")
}

/// Fail at the first line where `actual` leaves the golden bytes.
fn assert_golden(expected: &str, actual: &str) {
    if expected != actual {
        // Pinpoint the first divergence; a full diff of the whole corpus
        // would drown the signal.
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(e, a, "first divergence at golden line {}", i + 1);
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "golden and actual differ in length"
        );
        panic!("golden mismatch not localized to a line");
    }
}

#[test]
fn corpus_output_is_byte_identical_to_golden() {
    // The one-shot oracle: a fresh session per document and configuration.
    let configs = configs();
    let actual = render_golden(&corpus(), &configs, |c, source| {
        LintSession::with_config(configs[c].1.clone()).check_string(source)
    });
    if std::env::var_os("WEBLINT_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        return;
    }
    assert_golden(&expected_golden(), &actual);
}

#[test]
fn one_reused_session_renders_the_golden_corpus() {
    // One session lints the whole corpus, configuration-major with one
    // `set_config` per configuration, so its scratch buffers carry over
    // from every document and every configuration before. The golden
    // bytes must not notice.
    let corpus = corpus();
    let configs = configs();
    let mut session = LintSession::new();
    let mut per_config: Vec<_> = configs
        .iter()
        .map(|(_, config)| {
            session.set_config(config.clone());
            let diags: Vec<Vec<Diagnostic>> = corpus
                .iter()
                .map(|(_, source)| session.check_string(source))
                .collect();
            diags.into_iter()
        })
        .collect();
    let actual = render_golden(&corpus, &configs, |c, _| {
        per_config[c].next().expect("one result per document")
    });
    assert_golden(&expected_golden(), &actual);
}
