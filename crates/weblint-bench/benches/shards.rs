//! E18: shard-scaling of the crash-safe sharded crawler — does
//! partitioning the frontier across robot shards actually buy wall-clock
//! on a federation too big for one polite scheduler?
//!
//! The generated mega-site federates many hosts with dense cross-host
//! links; the sleepy transport restores per-request physics (a real RTT
//! per HEAD/GET) so shard parallelism shows up in wall clock instead of
//! being optimized away by the instant in-memory fabric. One crawl per
//! shard count over the identical federation; the merged report must be
//! the same page set at every width.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::{Duration, Instant};
use weblint_bench::experiment_header;
use weblint_core::LintConfig;
use weblint_corpus::{MegaSite, MegaSiteOptions};
use weblint_site::{FetchStack, Fetcher, Robot, RobotOptions, ShardedOptions, Status, Url};

const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];
const HOSTS: usize = 8;
const PAGES_PER_HOST: usize = 12;
const SEED: u64 = 18;
/// Real per-request latency injected under everything else.
const RTT: Duration = Duration::from_millis(2);

/// The mega-site behind a sleepy transport: a real RTT per request, so
/// in-flight parallelism within a shard and parallelism across shards
/// both show up in wall clock.
struct SleepyMega<'a>(&'a MegaSite);

impl Fetcher for SleepyMega<'_> {
    fn head(&self, url: &Url) -> (Status, String) {
        std::thread::sleep(RTT);
        match self.0.resolve(&url.host, &url.path) {
            Some((ct, _)) => (Status::Ok, ct),
            None => (Status::NotFound, String::new()),
        }
    }
    fn get(&self, url: &Url) -> (Status, String, String) {
        std::thread::sleep(RTT);
        match self.0.resolve(&url.host, &url.path) {
            Some((ct, body)) => (Status::Ok, ct, body),
            None => (Status::NotFound, String::new(), String::new()),
        }
    }
}

fn federation() -> MegaSite {
    MegaSite::new(
        SEED,
        &MegaSiteOptions {
            hosts: HOSTS,
            pages_per_host: PAGES_PER_HOST,
            ..MegaSiteOptions::default()
        },
    )
}

/// One sharded crawl at the given width; returns (pages, dead links,
/// waves).
fn crawl_once(site: &MegaSite, shards: usize) -> (usize, usize, usize) {
    let robot = Robot::new(
        RobotOptions::builder()
            .max_pages(HOSTS * PAGES_PER_HOST + 8)
            .jobs(4)
            .check_external(false)
            .lint(LintConfig::default())
            .build(),
    );
    let starts: Vec<Url> = site
        .start_urls()
        .iter()
        .map(|u| Url::parse(u).expect("generated start URL"))
        .collect();
    let make_stack = |_shard: usize| {
        FetchStack::new(SleepyMega(site))
            .adaptive_defaults()
            .hedging_defaults()
            .build()
    };
    let options = ShardedOptions {
        shards,
        seed: SEED,
        ..ShardedOptions::default()
    };
    let run = robot
        .crawl_sharded(&starts, make_stack, &options)
        .expect("sharded crawl");
    (
        run.report.pages.len(),
        run.report.dead_links.len(),
        run.waves,
    )
}

fn bench_shards(c: &mut Criterion) {
    experiment_header(
        "E18",
        "shard-scaling of the sharded crawler over the mega-site federation",
    );
    let site = federation();

    // Shape table: one timed pass per shard count, and the merged report
    // must be the identical page set at every width — partitioning may
    // only change speed, never results.
    let mut baseline: Option<(usize, usize)> = None;
    for &shards in SHARD_COUNTS {
        let start = Instant::now();
        let (pages, dead, waves) = crawl_once(&site, shards);
        let elapsed = start.elapsed();
        println!("  {shards} shard(s): {elapsed:>7.1?} ({pages}p, {dead} dead, {waves} wave(s))");
        match baseline {
            None => baseline = Some((pages, dead)),
            Some(expected) => assert_eq!(
                (pages, dead),
                expected,
                "{shards} shards changed the report"
            ),
        }
    }
    assert_eq!(
        baseline.map(|(pages, _)| pages),
        Some(site.total_pages()),
        "crawl missed pages"
    );

    let mut group = c.benchmark_group("sharded_crawl");
    group.throughput(Throughput::Elements(site.total_pages() as u64));
    for &shards in SHARD_COUNTS {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| crawl_once(&site, shards))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_shards
}
criterion_main!(benches);
