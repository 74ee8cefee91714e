//! E7: site mode (`-R`) at scale.
//!
//! Expected shape: linear in pages + links, and faster at `-jobs 4` than
//! at `-jobs 1` once the site is big enough to amortise the threads. The
//! robot's crawls are timed by the `wlbench/` ladder (`crawl` workload);
//! `-R` is timed only here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use weblint_bench::experiment_header;
use weblint_core::LintConfig;
use weblint_corpus::{generate_site, SiteOptions};
use weblint_site::{MemStore, SiteChecker};

fn bench_site(c: &mut Criterion) {
    experiment_header("E7", "-R site checking vs site size and -jobs");
    let mut group = c.benchmark_group("site");
    for pages in [10, 100, 500] {
        let options = SiteOptions {
            pages,
            page_bytes: 2048,
            dead_link_percent: 5,
            orphan_percent: 5,
            directories: 4,
        };
        let store: MemStore = generate_site(42, &options).files().collect();
        // The planted dead links and orphans are asserted exactly by
        // tests/site_mode.rs; here only the total is shown.
        let report = SiteChecker::new(LintConfig::default()).check(&store);
        println!("  -R {pages} pages: {} messages", report.summary().total());
        for jobs in [1, 4] {
            let checker = SiteChecker::new(LintConfig::default()).jobs(jobs);
            group.bench_with_input(
                BenchmarkId::new(format!("r_mode_jobs{jobs}"), pages),
                &store,
                |b, store| b.iter(|| black_box(checker.check(black_box(store)))),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_site
}
criterion_main!(benches);
