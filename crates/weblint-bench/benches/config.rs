//! E8: configuration machinery.
//!
//! Enabled-message count barely affects lint time (the checks run; emission
//! is gated), config parsing and layering are microseconds, and pragma
//! extraction costs one extra tokenizer pass.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use weblint_bench::experiment_header;
use weblint_config::{apply_config_text, extract_pragmas};
use weblint_core::{Category, LintConfig, LintSession};
use weblint_corpus::dirty_document;

fn configs() -> Vec<(&'static str, LintConfig)> {
    let mut none = LintConfig::default();
    none.set_category_enabled(Category::Error, false);
    none.set_category_enabled(Category::Warning, false);
    none.set_category_enabled(Category::Style, false);
    vec![
        ("0-enabled", none),
        ("42-default", LintConfig::default()),
        ("53-pedantic", LintConfig::pedantic()),
    ]
}

fn bench_config(c: &mut Criterion) {
    experiment_header(
        "E8",
        "configuration: enabled-count sweep, parsing, layering, pragmas",
    );
    let doc = dirty_document(8, 64 << 10, 16);
    let mut group = c.benchmark_group("config");
    for (label, config) in configs() {
        let mut weblint = LintSession::with_config(config);
        println!(
            "  {label}: {} messages on the 64KiB dirty document",
            weblint.check_string(&doc).len()
        );
        group.bench_function(format!("lint_{label}"), |b| {
            b.iter(|| black_box(weblint.check_string(black_box(&doc))))
        });
    }

    let rc_text = "\
        # a realistic site config\n\
        enable physical-font, img-size, title-length\n\
        disable here-anchor\n\
        version 4.0\n\
        extension netscape\n\
        max-title-length 80\n\
        here-anchor-text \"click me\"\n";
    group.bench_function("parse_and_apply_weblintrc", |b| {
        b.iter(|| {
            let mut config = LintConfig::default();
            apply_config_text(black_box(rc_text), &mut config).expect("parses");
            black_box(config)
        })
    });

    let page_with_pragma = format!("<!-- weblint: disable here-anchor, img-alt -->\n{doc}");
    group.bench_function("extract_pragmas_64KiB", |b| {
        b.iter(|| black_box(extract_pragmas(black_box(&page_with_pragma)).expect("parses")))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_config
}
criterion_main!(benches);
