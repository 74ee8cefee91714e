//! E6: weblint vs the strict validator vs the htmlchek-style checker.
//!
//! Shape expected from §3.2/§3.3/§5.1: weblint detects every class with
//! ≈1 message per defect; the strict validator misses the style classes
//! and cascades on nesting; the stack-less checker misses ordering
//! defects entirely. Then: runtime of the three checkers on one corpus.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use weblint_bench::experiment_header;
use weblint_corpus::{all_defect_classes, dirty_document, generate_document};
use weblint_validator::{HtmlChecker, RegexChecker, StrictValidator, WeblintChecker};

const DOCS_PER_CLASS: usize = 10;

/// New findings in `mutated` relative to `clean`, by code multiset.
fn new_findings(checker: &dyn HtmlChecker, clean: &str, mutated: &str) -> usize {
    let mut base: HashMap<String, i64> = HashMap::new();
    for f in checker.check(clean) {
        *base.entry(f.code).or_insert(0) += 1;
    }
    let mut extra = 0usize;
    let mut counts: HashMap<String, i64> = HashMap::new();
    for f in checker.check(mutated) {
        *counts.entry(f.code).or_insert(0) += 1;
    }
    for (code, n) in counts {
        extra += (n - base.get(&code).copied().unwrap_or(0)).max(0) as usize;
    }
    extra
}

fn print_detection_matrix() {
    experiment_header(
        "E6",
        "defect detection and message volume: weblint vs strict validator vs regex checker",
    );
    let checkers: Vec<Box<dyn HtmlChecker>> = vec![
        Box::new(WeblintChecker::default()),
        Box::new(StrictValidator::default()),
        Box::new(RegexChecker::new()),
    ];
    println!(
        "  {:<24} {:>16} {:>16} {:>16}",
        "defect class", "weblint", "strict", "htmlchek-style"
    );
    let mut detected = [0usize; 3];
    let mut volume = [0usize; 3];
    for class in all_defect_classes() {
        let mut hits = [0usize; 3];
        let mut msgs = [0usize; 3];
        for seed in 0..DOCS_PER_CLASS as u64 {
            let clean = generate_document(2000 + seed, 4096);
            let mut rng = StdRng::seed_from_u64(seed);
            let mutated = class.inject(&clean, &mut rng);
            for (i, checker) in checkers.iter().enumerate() {
                let n = new_findings(checker.as_ref(), &clean, &mutated);
                if n > 0 {
                    hits[i] += 1;
                }
                msgs[i] += n;
            }
        }
        for i in 0..3 {
            if hits[i] == DOCS_PER_CLASS {
                detected[i] += 1;
            }
            volume[i] += msgs[i];
        }
        let cell = |i: usize| {
            format!(
                "{}/{} ({:.1})",
                hits[i],
                DOCS_PER_CLASS,
                msgs[i] as f64 / DOCS_PER_CLASS as f64
            )
        };
        println!(
            "  {:<24} {:>16} {:>16} {:>16}",
            class.name(),
            cell(0),
            cell(1),
            cell(2)
        );
    }
    let total = all_defect_classes().len();
    println!(
        "  detected reliably: weblint {}/{total}, strict {}/{total}, regex {}/{total}",
        detected[0], detected[1], detected[2]
    );
    println!(
        "  total message volume: weblint {}, strict {}, regex {}",
        volume[0], volume[1], volume[2]
    );
}

fn bench_checkers(c: &mut Criterion) {
    print_detection_matrix();
    let doc = dirty_document(6, 64 << 10, 16);
    let weblint = WeblintChecker::default();
    let strict = StrictValidator::default();
    let regex = RegexChecker::new();
    let mut group = c.benchmark_group("checker_runtime_64KiB");
    group.bench_function("weblint", |b| {
        b.iter(|| black_box(weblint.check(black_box(&doc))))
    });
    group.bench_function("strict_validator", |b| {
        b.iter(|| black_box(strict.check(black_box(&doc))))
    });
    group.bench_function("regex_checker", |b| {
        b.iter(|| black_box(regex.check(black_box(&doc))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_checkers
}
criterion_main!(benches);
