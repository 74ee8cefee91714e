//! E9: gateway rendering throughput.
//!
//! A gateway re-renders the page as an escaped source listing, so the cost
//! is ~linear in page size with an escaping constant; the URL flow adds
//! the simulated fetch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use weblint_bench::{dirty_document, experiment_header, DOC_SIZES};
use weblint_gateway::{render_report, Gateway, ReportOptions};
use weblint_site::{SimulatedWeb, WebFetcher};

fn bench_gateway(c: &mut Criterion) {
    experiment_header("E9", "gateway report rendering vs page size");
    let gateway = Gateway::default();
    let mut weblint = weblint_core::LintSession::new();
    let mut group = c.benchmark_group("gateway");
    for &(label, bytes) in DOC_SIZES {
        let doc = dirty_document(9, bytes, bytes / 4096);
        let diags = weblint.check_string(&doc);
        let report = gateway.check_and_render("bench", &doc);
        println!(
            "  {label}: {} diagnostics, report is {} KiB",
            diags.len(),
            report.len() / 1024
        );
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("check_and_render", label),
            &doc,
            |b, doc| b.iter(|| black_box(gateway.check_and_render("bench", black_box(doc)))),
        );
        // Rendering alone (diagnostics precomputed).
        let options = ReportOptions::default();
        group.bench_with_input(
            BenchmarkId::new("render_only", label),
            &(doc, diags),
            |b, (doc, diags)| {
                b.iter(|| black_box(render_report("bench", black_box(doc), diags, &options)))
            },
        );
    }
    group.finish();

    // The URL flow end to end against the simulated web.
    let mut web = SimulatedWeb::new();
    web.add_page("http://h/p.html", dirty_document(10, 16 << 10, 4));
    c.bench_function("gateway_check_url_16KiB", |b| {
        b.iter(|| {
            black_box(
                gateway
                    .check_url(&WebFetcher::new(&web), "http://h/p.html")
                    .expect("fetch succeeds"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gateway
}
criterion_main!(benches);
