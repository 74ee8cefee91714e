//! E13: crawling through injected faults — what does resilience cost?
//!
//! The stack's fault layer injects a seeded fault schedule under its
//! retrying, breaker-guarded resilience layer, and the crawl lints each page on
//! its fetch worker. Two questions: (1) how much crawl throughput does a
//! realistic fault rate cost once retries and backoff bookkeeping are in
//! the path; (2) does that cost stay flat as workers (`RobotOptions::jobs`,
//! pages fetched and linted at once) scale, i.e. is resilience a
//! transport-side tax rather than a scheduler bottleneck.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Instant;
use weblint_bench::experiment_header;
use weblint_core::LintConfig;
use weblint_site::{
    FaultSpec, FetchStack, Robot, RobotOptions, ShardedOptions, SharedWeb, SimulatedWeb, Url,
};

const PAGES: usize = 64;
const RATES: &[u8] = &[0, 5, 20];
const WORKER_COUNTS: &[usize] = &[1, 4, 8];
const SEED: u64 = 13;

/// A fully-reachable site: the index links every page, each page links
/// onward, and every page carries enough dirty markup to make the lint
/// side of the crawl non-trivial.
fn chaos_site() -> SharedWeb {
    let mut web = SimulatedWeb::new();
    let mut index = String::from("<HTML><HEAD><TITLE>chaos</TITLE></HEAD><BODY>");
    for i in 0..PAGES {
        index.push_str(&format!("<A HREF=\"/p{i}.html\">p{i}</A>\n"));
    }
    index.push_str("</BODY></HTML>");
    web.add_page("http://chaos/index.html", index);
    for i in 0..PAGES {
        web.add_page(
            &format!("http://chaos/p{i}.html"),
            format!(
                "<HTML><HEAD><TITLE>p{i}</TITLE></HEAD><BODY>{}\
                 <A HREF=\"/p{}.html\">next</A></BODY></HTML>",
                "<H1>x</H2><IMG SRC=\"x.gif\"><P>filler text</P>".repeat(40),
                (i + 1) % PAGES
            ),
        );
    }
    SharedWeb::new(web)
}

/// One chaotic crawl; fresh fault state per run so the schedule is
/// identical every time (it depends only on seed, url, and attempt).
fn crawl_once(web: &SharedWeb, rate: u8, workers: usize) -> (usize, u64, u64) {
    let robot = Robot::new(
        RobotOptions::builder()
            .max_pages(PAGES + 1)
            .jobs(workers)
            .check_external(false)
            .lint(LintConfig::default())
            .build(),
    );
    let run = robot
        .crawl_sharded(
            &[Url::parse("http://chaos/index.html").unwrap()],
            |_| {
                FetchStack::new(web.clone())
                    .faults(FaultSpec::all(rate), SEED)
                    .resilience_defaults()
                    .build()
            },
            &ShardedOptions::default(),
        )
        .expect("an in-memory crawl cannot fail");
    let stats = run.telemetry[0].1.resilience.clone().unwrap_or_default();
    (
        run.report.pages.len(),
        stats.retries_total(),
        stats.failures_total(),
    )
}

fn bench_resilience(c: &mut Criterion) {
    experiment_header(
        "E13",
        "chaotic crawl: fault rate 0/5/20% across 1/4/8 fetch-and-lint jobs",
    );
    let web = chaos_site();

    // Shape table: one timed pass per (rate, workers) cell, with the
    // retry/failure counts that explain the timing.
    for &rate in RATES {
        let mut cells = Vec::new();
        for &workers in WORKER_COUNTS {
            let start = Instant::now();
            let (pages, retries, failures) = crawl_once(&web, rate, workers);
            let elapsed = start.elapsed();
            cells.push(format!("{workers}w {elapsed:>7.1?} ({pages}p)"));
            if workers == WORKER_COUNTS[0] {
                println!(
                    "  {rate:>2}% faults: {pages} page(s) crawled, \
                     {retries} retrie(s), {failures} failure(s) after retries"
                );
            }
        }
        println!("      timing: {}", cells.join("  "));
    }

    for &rate in RATES {
        let mut group = c.benchmark_group(format!("chaotic_crawl_{rate}pct"));
        group.throughput(Throughput::Elements(PAGES as u64 + 1));
        for &workers in WORKER_COUNTS {
            group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
                b.iter(|| crawl_once(&web, rate, w))
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_resilience
}
criterion_main!(benches);
