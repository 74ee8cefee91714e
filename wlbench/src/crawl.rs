//! `crawl`: the robot user. `Robot::crawl_sharded`, one shard per core,
//! over seeded `MegaSite` federations. The benchmark's own transport
//! serves each federation with a real per-request delay, under a
//! `FetchStack` with latency-only faults (so no page can be lost),
//! retries, adaptive pacing and hedging. Pages are small, so the frontier,
//! the fetch stack and the shard barriers do most of the work.
//!
//! Each crawl is checked against the generated bodies, scanned as text:
//! every page appears exactly once, the pages reported for
//! `heading-mismatch` are exactly those holding the planted `</H2>`, and
//! the dead links are exactly the `/missing…` hrefs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use weblint_core::LintConfig;
use weblint_corpus::{MegaSite, MegaSiteOptions};
use weblint_site::{
    FaultKind, FaultSpec, FetchStack, Fetcher, Robot, RobotOptions, ShardedOptions, ShardedReport,
    Status, Url,
};

use crate::files::SETUP_REPS;
use crate::trace::{Tracer, NONE};
use crate::util::{
    calm_mask, calm_median, calm_pool, calm_setup, median_setup, ms, percentiles, Outcome, Rng, MIB,
};

/// Federations per seed, crawled in turn.
const FEDERATIONS: usize = 16;
const HOSTS: usize = 4;
const PAGES_PER_HOST: usize = 6;
/// Real delay of every HEAD and GET.
const RTT: Duration = Duration::from_micros(150);

/// A generated federation and what a correct crawl of it reports.
struct Federation {
    site: MegaSite,
    starts: Vec<Url>,
    /// `(url, body)` of every generated page.
    pages: BTreeMap<String, String>,
    headings: BTreeSet<String>,
    dead: BTreeSet<String>,
}

fn page_path(i: usize) -> String {
    if i == 0 {
        "/index.html".to_string()
    } else {
        format!("/p{i}.html")
    }
}

fn federation(seed: u64) -> Federation {
    let options = MegaSiteOptions {
        hosts: HOSTS,
        pages_per_host: PAGES_PER_HOST,
        ..MegaSiteOptions::default()
    };
    let site = MegaSite::new(seed, &options);
    let mut pages = BTreeMap::new();
    let (mut headings, mut dead) = (BTreeSet::new(), BTreeSet::new());
    for host in site.hosts() {
        for i in 0..PAGES_PER_HOST {
            let path = page_path(i);
            let (_, body) = site
                .resolve(host, &path)
                .unwrap_or_else(|| panic!("generated page {host}{path} does not resolve"));
            let url = format!("http://{host}{path}");
            if body.contains("</H2>") {
                headings.insert(url.clone());
            }
            for (at, _) in body.match_indices("HREF=\"/missing") {
                let href = &body[at + 6..];
                let href = &href[..href.find('"').expect("closed href")];
                dead.insert(format!("http://{host}{href}"));
            }
            pages.insert(url, body);
        }
    }
    let starts = site
        .start_urls()
        .iter()
        .map(|u| Url::parse(u).expect("generated start URL"))
        .collect();
    Federation {
        site,
        starts,
        pages,
        headings,
        dead,
    }
}

/// Transport counters, shared by every shard and fetch worker.
#[derive(Default)]
struct FetchStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    /// `(start, end)` of every call, kept only when tracing.
    spans: Option<Mutex<Vec<(Instant, Instant)>>>,
}

/// The federation behind a real per-request delay.
#[derive(Clone, Copy)]
struct Transport<'a> {
    site: &'a MegaSite,
    stats: &'a FetchStats,
}

impl Transport<'_> {
    fn serve(&self, url: &Url) -> Option<(String, String)> {
        let start = Instant::now();
        std::thread::sleep(RTT);
        let found = self.site.resolve(&url.host, &url.path);
        let end = Instant::now();
        // Statistics only: no other data is published through them.
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .busy_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        if let Some(spans) = &self.stats.spans {
            spans
                .lock()
                .expect("span buffer poisoned")
                .push((start, end));
        }
        found
    }
}

impl Fetcher for Transport<'_> {
    fn head(&self, url: &Url) -> (Status, String) {
        match self.serve(url) {
            Some((content_type, _)) => (Status::Ok, content_type),
            None => (Status::NotFound, String::new()),
        }
    }

    fn get(&self, url: &Url) -> (Status, String, String) {
        match self.serve(url) {
            Some((content_type, body)) => (Status::Ok, content_type, body),
            None => (Status::NotFound, String::new(), String::new()),
        }
    }
}

fn stack<'a>(site: &'a MegaSite, stats: &'a FetchStats, seed: u64) -> FetchStack<Transport<'a>> {
    let latency_only = FaultSpec {
        kinds: vec![FaultKind::Latency],
        ..FaultSpec::all(10)
    };
    FetchStack::new(Transport { site, stats })
        .faults(latency_only, seed)
        .resilience_defaults()
        .adaptive_defaults()
        .hedging_defaults()
        .build()
}

fn build_robot(nproc: usize) -> Robot {
    Robot::new(
        RobotOptions::builder()
            .max_pages(HOSTS * PAGES_PER_HOST + 8)
            .jobs(nproc)
            .check_external(false)
            .lint(LintConfig::default())
            .build(),
    )
}

/// The oracle for one crawl.
fn check(fed: &Federation, run: &ShardedReport) -> Result<(), String> {
    let report = &run.report;
    let crawled: Vec<String> = report.pages.iter().map(|p| p.url.to_string()).collect();
    let unique: BTreeSet<&String> = crawled.iter().collect();
    if unique.len() != crawled.len() {
        return Err(format!(
            "{} pages crawled more than once",
            crawled.len() - unique.len()
        ));
    }
    if !unique.iter().copied().eq(fed.pages.keys()) {
        return Err(format!(
            "crawled {} pages, generated {}",
            unique.len(),
            fed.pages.len()
        ));
    }
    let headings: BTreeSet<String> = report
        .pages
        .iter()
        .filter(|p| p.diagnostics.iter().any(|d| d.id == "heading-mismatch"))
        .map(|p| p.url.to_string())
        .collect();
    if headings != fed.headings {
        return Err(format!(
            "heading-mismatch on {} pages, planted on {}",
            headings.len(),
            fed.headings.len()
        ));
    }
    let dead: Vec<String> = report
        .dead_links
        .iter()
        .map(|d| format!("http://{}{}", d.page.host, d.href))
        .collect();
    let dead_set: BTreeSet<String> = dead.iter().cloned().collect();
    if dead_set.len() != dead.len() || dead_set != fed.dead {
        return Err(format!(
            "{} dead links reported, {} planted",
            dead.len(),
            fed.dead.len()
        ));
    }
    if report.truncated {
        return Err("crawl truncated".to_string());
    }
    Ok(())
}

/// Site-layer counts over one crawl.
#[derive(Debug, Default)]
struct SiteCounts {
    pages: u64,
    retries: u64,
    hedges_fired: u64,
    hedges_won: u64,
    aimd_decreases: u64,
    waves: u64,
}

impl SiteCounts {
    fn add(&mut self, run: &ShardedReport) {
        self.pages += run.report.pages.len() as u64;
        self.waves += run.waves as u64;
        for (_, telemetry) in &run.telemetry {
            if let Some(r) = &telemetry.resilience {
                self.retries += r.retries_total();
            }
            if let Some(p) = &telemetry.pacing {
                self.hedges_fired += p.hedges_fired_total();
                self.hedges_won += p.hedges_won_total();
                self.aimd_decreases += p.decreases_total();
            }
        }
    }
}

pub fn run(seed: u64, window: Duration, tracer: &mut Tracer) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = Rng::new(seed ^ 0xC8A7);
    let feds: Vec<Federation> = (0..FEDERATIONS)
        .map(|_| federation(rng.next_u64()))
        .collect();
    let page_bytes: usize = feds
        .iter()
        .flat_map(|f| f.pages.values())
        .map(|b| b.len())
        .sum();
    println!(
        "input: crawl federations={} hosts={} pages={} page_bytes={} shards={} jobs={} rtt_us={}",
        FEDERATIONS,
        FEDERATIONS * HOSTS,
        FEDERATIONS * HOSTS * PAGES_PER_HOST,
        page_bytes,
        nproc,
        nproc,
        RTT.as_micros()
    );
    let mut out = Outcome::default();
    let quiet = FetchStats::default();
    let robot = build_robot(nproc);
    let options = ShardedOptions {
        shards: nproc,
        seed,
        ..ShardedOptions::default()
    };
    let stats = FetchStats {
        spans: tracer.enabled().then(|| Mutex::new(Vec::new())),
        ..FetchStats::default()
    };
    let crawl = |fed: &Federation| {
        let make_stack = |_shard: usize| stack(&fed.site, &stats, seed);
        robot
            .crawl_sharded(&fed.starts, make_stack, &options)
            .expect("in-memory sharded crawl")
    };
    // Warm-up: one crawl of every federation.
    for fed in &feds {
        std::hint::black_box(crawl(fed));
    }
    let (calls0, busy0) = (
        stats.calls.load(Ordering::Relaxed),
        stats.busy_ns.load(Ordering::Relaxed),
    );
    if let Some(spans) = &stats.spans {
        spans.lock().expect("span buffer poisoned").clear();
    }

    // Rounds are one crawl of every federation.
    let start = Instant::now();
    let (mut crawl_ms, mut page_rates, mut byte_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = SiteCounts::default();
    let mut first_round = (0u64, 0u64);
    let mut seq = 0u64;
    let mut setup_s = Vec::new();
    while start.elapsed() < window {
        // Set-up is timed every round, so it samples the machine across the
        // whole run.
        setup_s.push(median_setup(SETUP_REPS, || {
            let stacks: Vec<_> = (0..nproc)
                .map(|_| stack(&feds[0].site, &quiet, seed))
                .collect();
            (build_robot(nproc), stacks)
        }));
        let (mut latencies, mut pages, mut bytes, mut busy) = (Vec::new(), 0usize, 0usize, 0.0);
        for fed in &feds {
            seq += 1;
            let t0 = Instant::now();
            let run = crawl(fed);
            let t1 = Instant::now();
            busy += (t1 - t0).as_secs_f64();
            latencies.push(ms(t1 - t0));
            pages += run.report.pages.len();
            bytes += run
                .report
                .pages
                .iter()
                .filter_map(|p| fed.pages.get(&p.url.to_string()))
                .map(|b| b.len())
                .sum::<usize>();
            let verdict = check(fed, &run);
            out.check(verdict.is_ok(), || {
                format!("crawl {seq}: {}", verdict.clone().unwrap_err())
            });
            if tracer.enabled() {
                let root = tracer.record(seq, NONE, "site.crawl", t0, t1);
                if let Some(spans) = &stats.spans {
                    for (s, e) in spans.lock().expect("span buffer poisoned").drain(..) {
                        tracer.record(seq, root, "site.fetch", s, e);
                    }
                }
                if crawl_ms.is_empty() {
                    counts.add(&run);
                }
            }
        }
        if crawl_ms.is_empty() {
            first_round = (
                stats.calls.load(Ordering::Relaxed) - calls0,
                stats.busy_ns.load(Ordering::Relaxed) - busy0,
            );
        }
        crawl_ms.push(latencies);
        page_rates.push(pages as f64 / busy);
        byte_rates.push(bytes as f64 / MIB / busy);
    }
    let calm = calm_mask(&page_rates);
    let (p50, p99, n) = percentiles(&calm_pool(&crawl_ms, &calm));
    println!(
        "samples: crawl rounds={} calm_rounds={} crawls={} calm_crawls={n}",
        crawl_ms.len(),
        calm.iter().filter(|&&c| c).count(),
        seq
    );
    out.put("setup_s", calm_setup(&setup_s), "s");
    let ops_s = calm_median(&page_rates, &calm);
    out.put("ops_s", ops_s, "1/s");
    out.put("mib_s", calm_median(&byte_rates, &calm), "MiB/s");
    out.put("p50_ms", p50, "ms");
    out.put("p99_ms", p99, "ms");
    out.put("trace_base", ops_s, "1/s");

    if tracer.enabled() {
        let (calls, busy_ns) = first_round;
        // Counts over one crawl of every federation, so they repeat for a
        // seed; site.useful_ratio's base is site.fetch.calls.
        out.put("site.fetch.calls", calls as f64, "count");
        out.put("site.fetch.busy_s", busy_ns as f64 / 1e9, "s");
        out.put(
            "site.useful_ratio",
            counts.pages as f64 / calls.max(1) as f64,
            "ratio",
        );
        out.put("site.retries", counts.retries as f64, "count");
        out.put("site.hedges_fired", counts.hedges_fired as f64, "count");
        out.put("site.hedges_won", counts.hedges_won as f64, "count");
        out.put("site.aimd_decreases", counts.aimd_decreases as f64, "count");
        out.put("site.waves", counts.waves as f64, "count");
    }
    out
}
