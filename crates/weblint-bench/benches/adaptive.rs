//! E15: fixed-pattern crawling vs the adaptive scheduler — does pacing
//! plus hedging actually buy wall-clock under faults?
//!
//! The simulated web answers instantly, so parallelism would be free and
//! the comparison meaningless. `SleepyWeb` restores the missing physics:
//! a small real sleep per request, standing in for network round-trips.
//! Three crawl disciplines over the same chaotic site:
//!
//! * `sequential` — the paper's fixed request pattern: one fetch at a
//!   time (the E13 baseline, now through the stack scheduler).
//! * `fixed` — a constant 8 fetches in flight, no feedback.
//! * `adaptive` — 8 workers clamped by the AIMD per-host limit, with
//!   budget-capped hedged fetches.
//!
//! The acceptance bar: adaptive beats the fixed-pattern sequential
//! baseline on total crawl wall-clock at every fault rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::{Duration, Instant};
use weblint_bench::experiment_header;
use weblint_core::LintConfig;
use weblint_site::{
    FaultSpec, FetchStack, Fetcher, Robot, RobotOptions, ShardedOptions, SharedWeb, SimulatedWeb,
    Status, Url,
};

const PAGES: usize = 32;
const RATES: &[u8] = &[0, 20, 50];
const SEED: u64 = 13;
const JOBS: usize = 8;
/// Real per-request latency injected under everything else.
const RTT: Duration = Duration::from_millis(2);

/// A [`SharedWeb`] that sleeps a real RTT before every answer, so
/// in-flight parallelism shows up in wall-clock the way it would on a
/// network instead of being optimized away by an instant fabric.
struct SleepyWeb(SharedWeb);

impl Fetcher for SleepyWeb {
    fn head(&self, url: &Url) -> (Status, String) {
        std::thread::sleep(RTT);
        self.0.head(url)
    }
    fn get(&self, url: &Url) -> (Status, String, String) {
        std::thread::sleep(RTT);
        self.0.get(url)
    }
}

/// The E13 chaos site, lighter markup: the index fans out to every page
/// and each page links onward.
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
                "<HTML><HEAD><TITLE>p{i}</TITLE></HEAD><BODY>\
                 <H1>x</H2><A HREF=\"/p{}.html\">next</A></BODY></HTML>",
                (i + 1) % PAGES
            ),
        );
    }
    SharedWeb::new(web)
}

fn stack(web: &SharedWeb, rate: u8, adaptive: bool) -> FetchStack<SleepyWeb> {
    let mut builder = FetchStack::new(SleepyWeb(web.clone()))
        .faults(FaultSpec::all(rate), SEED)
        .resilience_defaults();
    if adaptive {
        builder = builder.adaptive_defaults().hedging_defaults();
    }
    builder.build()
}

fn robot(jobs: usize) -> Robot {
    Robot::new(
        RobotOptions::builder()
            .max_pages(PAGES + 1)
            .jobs(jobs)
            .check_external(false)
            .lint(LintConfig::default())
            .build(),
    )
}

/// One crawl under the given discipline; returns pages and hedge counts.
fn crawl_once(web: &SharedWeb, rate: u8, jobs: usize, adaptive: bool) -> (usize, u64, u64) {
    let run = robot(jobs)
        .crawl_sharded(
            &[Url::parse("http://chaos/index.html").unwrap()],
            |_| stack(web, rate, adaptive),
            &ShardedOptions::default(),
        )
        .expect("an in-memory crawl cannot fail");
    let pacing = run.telemetry[0].1.pacing.clone().unwrap_or_default();
    (
        run.report.pages.len(),
        pacing.hedges_fired_total(),
        pacing.decreases_total(),
    )
}

fn bench_adaptive(c: &mut Criterion) {
    experiment_header(
        "E15",
        "adaptive crawl vs fixed-pattern baseline under 0/20/50% faults",
    );
    let web = chaos_site();

    // Shape table: one timed pass per (rate, discipline) cell.
    for &rate in RATES {
        let mut cells = Vec::new();
        for (label, jobs, adaptive) in [
            ("sequential", 1, false),
            ("fixed", JOBS, false),
            ("adaptive", JOBS, true),
        ] {
            let start = Instant::now();
            let (pages, hedges, decreases) = crawl_once(&web, rate, jobs, adaptive);
            let elapsed = start.elapsed();
            if adaptive {
                cells.push(format!(
                    "{label} {elapsed:>7.1?} ({pages}p, {hedges} hedge(s), {decreases} cut(s))"
                ));
            } else {
                cells.push(format!("{label} {elapsed:>7.1?} ({pages}p)"));
            }
        }
        println!("  {rate:>2}% faults: {}", cells.join("  "));
    }

    for &rate in RATES {
        let mut group = c.benchmark_group(format!("adaptive_crawl_{rate}pct"));
        group.throughput(Throughput::Elements(PAGES as u64 + 1));
        for (label, jobs, adaptive) in [
            ("sequential", 1usize, false),
            ("fixed", JOBS, false),
            ("adaptive", JOBS, true),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, rate),
                &(jobs, adaptive),
                |b, &(jobs, adaptive)| b.iter(|| crawl_once(&web, rate, jobs, adaptive)),
            );
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_adaptive
}
criterion_main!(benches);
