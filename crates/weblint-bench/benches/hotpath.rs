//! E14: the zero-allocation lint hot path.
//!
//! Three claims to pin down: (1) the tokenizer's byte-level fast scan keeps
//! tokens/sec high on a large real-shaped page; (2) single-thread lint
//! throughput on `big.html` and on the corpus mix clears the 1.5x bar over
//! the pre-atom baseline; (3) session reuse in the service keeps the gain
//! at 1/4/8 workers. The shape pass prints wall-clock numbers in a stable
//! `E14-RESULT` line format so the before/after table in EXPERIMENTS.md and
//! BENCH_E14.json can be regenerated by grepping the output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;
use weblint_bench::{default_weblint, dirty_document, experiment_header};
use weblint_core::LintConfig;
use weblint_service::{LintService, ServiceConfig, SubmitPolicy};
use weblint_tokenizer::tokenize;

const SERVICE_WORKERS: &[usize] = &[1, 4, 8];

fn big_html() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../big.html");
    std::fs::read_to_string(path).expect("big.html fixture at repo root")
}

/// The corpus mix: distinct mid-size documents with a few defects each,
/// the same shape the service benches use.
fn corpus_batch(docs: usize, bytes: usize) -> Vec<String> {
    (0..docs)
        .map(|i| dirty_document(1400 + i as u64, bytes, 4))
        .collect()
}

fn service_with(workers: usize) -> LintService {
    LintService::new(ServiceConfig {
        workers,
        queue_capacity: 256,
        // Cache off: every job must really lint, or reuse is unmeasured.
        cache_capacity: 0,
        policy: SubmitPolicy::Block,
        lint: LintConfig::default(),
        enable_panic_marker: false,
    })
}

/// Time `f` over `iters` runs and return the best-of-N seconds per run.
/// Best-of is the right statistic for a throughput floor: it is the run
/// least disturbed by the machine, and it is what the CI gate checks.
fn best_secs<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn result_line(name: &str, value: f64, unit: &str) {
    println!("  E14-RESULT {name} {value:.1} {unit}");
}

fn bench_tokenizer_hotpath(c: &mut Criterion) {
    experiment_header("E14a", "tokenizer tokens/sec and MB/s on big.html");
    let big = big_html();
    let tokens = tokenize(&big).len();
    println!("  big.html: {} bytes, {tokens} tokens", big.len());

    let secs = best_secs(5, || {
        black_box(tokenize(black_box(&big)));
    });
    result_line("tokenize_big_tokens_per_sec", tokens as f64 / secs, "tok/s");
    result_line(
        "tokenize_big_mb_per_sec",
        big.len() as f64 / secs / (1 << 20) as f64,
        "MiB/s",
    );

    let mut group = c.benchmark_group("hotpath_tokenize");
    group.throughput(Throughput::Elements(tokens as u64));
    group.bench_function("big_tokens", |b| {
        b.iter(|| black_box(tokenize(black_box(&big))))
    });
    group.throughput(Throughput::Bytes(big.len() as u64));
    group.bench_function("big_bytes", |b| {
        b.iter(|| black_box(tokenize(black_box(&big))))
    });
    group.finish();
}

fn bench_lint_single_thread(c: &mut Criterion) {
    experiment_header("E14b", "single-thread lint MB/s: big.html and corpus mix");
    let mut weblint = default_weblint();
    let big = big_html();
    let corpus = corpus_batch(32, 16 << 10);
    let corpus_bytes: u64 = corpus.iter().map(|d| d.len() as u64).sum();
    println!(
        "  corpus: {} docs, {} bytes total",
        corpus.len(),
        corpus_bytes
    );

    let secs = best_secs(5, || {
        black_box(weblint.check_string(black_box(&big)));
    });
    result_line(
        "lint_big_mb_per_sec",
        big.len() as f64 / secs / (1 << 20) as f64,
        "MiB/s",
    );
    result_line("lint_big_docs_per_sec", 1.0 / secs, "docs/s");

    let secs = best_secs(5, || {
        for doc in &corpus {
            black_box(weblint.check_string(black_box(doc)));
        }
    });
    result_line(
        "lint_corpus_mb_per_sec",
        corpus_bytes as f64 / secs / (1 << 20) as f64,
        "MiB/s",
    );
    result_line(
        "lint_corpus_docs_per_sec",
        corpus.len() as f64 / secs,
        "docs/s",
    );

    let mut group = c.benchmark_group("hotpath_lint");
    group.throughput(Throughput::Bytes(big.len() as u64));
    group.bench_function("big", |b| {
        b.iter(|| black_box(weblint.check_string(black_box(&big))))
    });
    group.throughput(Throughput::Bytes(corpus_bytes));
    group.bench_function("corpus", |b| {
        b.iter(|| {
            for doc in &corpus {
                black_box(weblint.check_string(black_box(doc)));
            }
        })
    });
    group.finish();
}

fn bench_service_workers(c: &mut Criterion) {
    experiment_header("E14c", "service throughput at 1/4/8 workers, cache off");
    let docs = corpus_batch(64, 16 << 10);
    let total_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();

    for &workers in SERVICE_WORKERS {
        let service = service_with(workers);
        let secs = best_secs(3, || {
            let results = service.lint_batch(docs.iter().map(String::as_str));
            assert_eq!(results.len(), docs.len());
        });
        result_line(
            &format!("service_{workers}w_mb_per_sec"),
            total_bytes as f64 / secs / (1 << 20) as f64,
            "MiB/s",
        );
        result_line(
            &format!("service_{workers}w_docs_per_sec"),
            docs.len() as f64 / secs,
            "docs/s",
        );
    }

    let mut group = c.benchmark_group("hotpath_service");
    group.throughput(Throughput::Bytes(total_bytes));
    for &workers in SERVICE_WORKERS {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let service = service_with(workers);
                b.iter(|| black_box(service.lint_batch(docs.iter().map(String::as_str))))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tokenizer_hotpath, bench_lint_single_thread, bench_service_workers
}
criterion_main!(benches);
