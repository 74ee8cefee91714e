//! E7: site mode (`-R`) and the robot at scale.
//!
//! Expected shape: linear in pages + links. The robot pays additional
//! simulated wire time; report both engine time (Criterion) and the
//! simulated transfer totals.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use weblint_bench::experiment_header;
use weblint_core::LintConfig;
use weblint_corpus::{generate_site, SiteOptions, SiteSpec};
use weblint_site::{
    FetchStack, MemStore, Robot, RobotOptions, RobotReport, ShardedOptions, SharedWeb,
    SimulatedWeb, SiteChecker, Url,
};

const SIZES: &[usize] = &[10, 100, 500];

fn spec_for(pages: usize) -> SiteSpec {
    generate_site(
        42,
        &SiteOptions {
            pages,
            page_bytes: 2048,
            dead_link_percent: 5,
            orphan_percent: 5,
            directories: 4,
        },
    )
}

fn store_for(spec: &SiteSpec) -> MemStore {
    let mut store = MemStore::new();
    for page in &spec.pages {
        store.insert(page.path.clone(), page.html.clone());
    }
    for asset in &spec.assets {
        store.insert(asset.clone(), "GIF89a");
    }
    store
}

fn web_for(spec: &SiteSpec) -> SharedWeb {
    let mut web = SimulatedWeb::new();
    web.mount_pages(
        "site",
        spec.pages
            .iter()
            .map(|p| (p.path.as_str(), p.html.as_str())),
    );
    for asset in &spec.assets {
        web.add(
            &format!("http://site/{asset}"),
            weblint_site::Resource::asset("image/gif"),
        );
    }
    SharedWeb::new(web)
}

/// One plain crawl: a single shard over a bare fetch stack.
fn crawl_site(robot: &Robot, web: &SharedWeb, start: &Url) -> RobotReport {
    robot
        .crawl_sharded(
            std::slice::from_ref(start),
            |_| FetchStack::new(web.clone()).build(),
            &ShardedOptions::default(),
        )
        .expect("an in-memory crawl cannot fail")
        .report
}

fn bench_site(c: &mut Criterion) {
    experiment_header("E7", "-R site checking and robot crawl vs site size");
    let checker = SiteChecker::new(LintConfig::default());
    let mut group = c.benchmark_group("site");
    for &pages in SIZES {
        let spec = spec_for(pages);
        let store = store_for(&spec);
        let report = checker.check(&store);
        let summary = report.summary();
        println!(
            "  -R {pages} pages ({} KiB): {} bad links, {} orphans, {} total messages",
            spec.total_bytes() / 1024,
            report
                .site_diagnostics
                .iter()
                .filter(|(_, d)| d.id == "bad-link")
                .count(),
            report
                .site_diagnostics
                .iter()
                .filter(|(_, d)| d.id == "orphan-page")
                .count(),
            summary.total()
        );
        group.bench_with_input(BenchmarkId::new("r_mode", pages), &store, |b, store| {
            b.iter(|| black_box(checker.check(black_box(store))))
        });

        let web = web_for(&spec);
        let robot = Robot::new(RobotOptions::default());
        let start = Url::parse("http://site/index.html").expect("valid");
        let report = crawl_site(&robot, &web, &start);
        let stats = web.stats();
        println!(
            "  robot {pages} pages: crawled {}, {} dead links, {} GETs, {} HEADs, \
             {:.1} ms simulated wire",
            report.pages.len(),
            report.dead_links.len(),
            stats.gets,
            stats.heads,
            stats.simulated_us as f64 / 1000.0
        );
        group.bench_with_input(BenchmarkId::new("robot", pages), &web, |b, web| {
            b.iter(|| black_box(crawl_site(&robot, web, &start)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_site
}
criterion_main!(benches);
