//! E4: end-to-end lint throughput.
//!
//! Expected shape: linear in document size; a modest constant-factor cost
//! for defect-dense input (diagnostic formatting), never super-linear.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use weblint_bench::{default_weblint, dirty_document, experiment_header, DOC_SIZES};

fn bench_lint(c: &mut Criterion) {
    experiment_header(
        "E4",
        "end-to-end lint throughput vs size and defect density",
    );
    let mut weblint = default_weblint();
    let mut group = c.benchmark_group("lint");
    for &(label, bytes) in DOC_SIZES {
        for (density_label, defects) in [("clean", 0), ("1-per-4KiB", bytes / 4096)] {
            let doc = dirty_document(4, bytes, defects);
            let messages = weblint.check_string(&doc).len();
            println!("  {label}/{density_label}: {messages} messages");
            group.throughput(Throughput::Bytes(doc.len() as u64));
            group.bench_with_input(BenchmarkId::new(density_label, label), &doc, |b, doc| {
                b.iter(|| black_box(weblint.check_string(black_box(doc))))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lint
}
criterion_main!(benches);
