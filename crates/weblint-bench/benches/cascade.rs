//! E5: cascade suppression ablation.
//!
//! §5.1 claims the ad-hoc heuristics "minimise the number of warning
//! cascades". Measure it: per defect class, messages emitted with the
//! heuristics on vs off (one defect injected into an otherwise-clean
//! document, averaged over 20 documents), then the runtime cost of the
//! heuristics themselves.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use weblint_bench::{default_weblint, experiment_header, naive_weblint};
use weblint_corpus::{all_defect_classes, generate_document, DefectClass};

const DOCS_PER_CLASS: usize = 20;

fn print_cascade_table() {
    experiment_header(
        "E5",
        "messages per injected defect: heuristics on vs off (cascade factor)",
    );
    let mut on = default_weblint();
    let mut off = naive_weblint();
    println!(
        "  {:<24} {:>10} {:>10} {:>8}",
        "defect class", "heuristics", "naive", "factor"
    );
    let mut total_on = 0usize;
    let mut total_off = 0usize;
    for class in all_defect_classes() {
        if *class == DefectClass::MissingDoctype {
            continue; // not an injection, nothing to cascade
        }
        let mut with = 0usize;
        let mut without = 0usize;
        for seed in 0..DOCS_PER_CLASS as u64 {
            let doc = generate_document(1000 + seed, 4096);
            let mut rng = StdRng::seed_from_u64(seed);
            let mutated = class.inject(&doc, &mut rng);
            with += on.check_string(&mutated).len();
            without += off.check_string(&mutated).len();
        }
        total_on += with;
        total_off += without;
        println!(
            "  {:<24} {:>10.2} {:>10.2} {:>8.2}",
            class.name(),
            with as f64 / DOCS_PER_CLASS as f64,
            without as f64 / DOCS_PER_CLASS as f64,
            without as f64 / with.max(1) as f64
        );
    }
    println!(
        "  {:<24} {:>10.2} {:>10.2} {:>8.2}   <- aggregate",
        "ALL",
        total_on as f64 / DOCS_PER_CLASS as f64,
        total_off as f64 / DOCS_PER_CLASS as f64,
        total_off as f64 / total_on.max(1) as f64
    );
}

fn bench_heuristics_cost(c: &mut Criterion) {
    print_cascade_table();
    // The heuristics are nearly free: same corpus, both configurations.
    let doc = weblint_bench::dirty_document(5, 64 << 10, 16);
    let mut on = default_weblint();
    let mut off = naive_weblint();
    let mut group = c.benchmark_group("cascade_ablation");
    group.bench_function("heuristics_on", |b| {
        b.iter(|| black_box(on.check_string(black_box(&doc))))
    });
    group.bench_function("heuristics_off", |b| {
        b.iter(|| black_box(off.check_string(black_box(&doc))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_heuristics_cost
}
criterion_main!(benches);
