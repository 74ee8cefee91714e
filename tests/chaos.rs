//! The chaos harness: deterministic fault injection driven through every
//! resilience layer at once — the robot crawl behind the retrying,
//! breaker-guarded fetcher, and the HTTP server's chaos-wired `url=`
//! path over real sockets.
//!
//! The contract under test is threefold: a fixed seed reproduces the
//! exact same fault schedule (so chaos failures are debuggable), every
//! injected fault is accounted for in the per-host statistics (so the
//! harness cannot silently drop evidence), and nothing wedges — every
//! request gets a definite answer inside a hard deadline.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use std::path::PathBuf;

use weblint_corpus::{MegaSite, MegaSiteOptions};
use weblint_gateway::Gateway;
use weblint_httpd::{client, HttpServer, ServerConfig};
use weblint_service::{ServiceConfig, PANIC_MARKER};
use weblint_site::{
    BreakerState, CheckpointConfig, CheckpointError, FaultSpec, FetchStack, Fetcher, FnFetcher,
    Observation, Pacer, Robot, RobotOptions, ShardChaos, ShardedOptions, ShardedOutcome,
    ShardedReport, SharedWeb, SimulatedWeb, Status, Url,
};

const PAGES: usize = 24;

/// Real per-request latency of the sleepy transports, so in-flight
/// parallelism shows up the way it would on a network instead of being
/// optimized away by the instant in-memory fabric.
const RTT: Duration = Duration::from_millis(2);

/// A transport that sleeps [`RTT`] before every answer.
struct Sleepy<F>(F);

impl<F: Fetcher> Fetcher for Sleepy<F> {
    fn head(&self, url: &Url) -> (Status, String) {
        thread::sleep(RTT);
        self.0.head(url)
    }
    fn get(&self, url: &Url) -> (Status, String, String) {
        thread::sleep(RTT);
        self.0.get(url)
    }
}

/// A fully-linked demo site: an index fanning out to [`PAGES`] pages,
/// each linking onward, so a crawl touches every page and revisits links.
fn site() -> SharedWeb {
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

/// Crawl [`site`] from its index with `jobs` pages in flight: one shard
/// over the stack `make_stack` builds.
fn crawl_site<F: Fetcher + Sync>(
    jobs: usize,
    make_stack: impl Fn(usize) -> FetchStack<F> + Sync,
) -> ShardedReport {
    let robot = Robot::new(
        RobotOptions::builder()
            .max_pages(100)
            .jobs(jobs)
            .check_external(false)
            .build(),
    );
    let start = Url::parse("http://chaos/index.html").unwrap();
    robot
        .crawl_sharded(&[start], make_stack, &ShardedOptions::default())
        .unwrap()
}

/// One chaotic crawl, reduced to a comparable fingerprint: both stats
/// blocks verbatim (they include retry counts and virtual backoff, so
/// two equal fingerprints mean the entire retry/backoff/breaker history
/// matched) plus the crawl's shape.
fn chaotic_crawl(seed: u64, rate: u8) -> (String, String, usize, usize) {
    let web = site();
    let run = crawl_site(1, |_| {
        FetchStack::new(web.clone())
            .faults(FaultSpec::all(rate), seed)
            .resilience_defaults()
            .build()
    });
    let telemetry = &run.telemetry[0].1;
    (
        telemetry.faults.as_ref().unwrap().to_string(),
        telemetry.resilience.as_ref().unwrap().to_string(),
        run.report.pages.len(),
        run.report.dead_links.len(),
    )
}

#[test]
fn chaotic_crawls_are_deterministic_for_a_fixed_seed() {
    let first = chaotic_crawl(42, 20);
    // Three runs, byte-identical stats: the schedule depends only on
    // (seed, url, attempt), never on timing or allocation order.
    for run in 0..2 {
        assert_eq!(chaotic_crawl(42, 20), first, "run {run} diverged");
    }
    // The seed is actually load-bearing: a different seed reshuffles the
    // schedule, and a zero rate injects nothing at all.
    assert_ne!(chaotic_crawl(43, 20).0, first.0);
    let clean = chaotic_crawl(42, 0);
    assert_eq!(clean.2, PAGES + 1, "clean crawl missed pages");
    assert_eq!(clean.3, 0, "clean crawl invented dead links");
    assert!(clean.0.contains("0 fault(s)"), "{}", clean.0);
}

#[test]
fn every_injected_fault_is_accounted_in_per_host_stats() {
    let stack = FetchStack::new(site())
        .faults(FaultSpec::all(20), 7)
        .resilience_defaults()
        .build();
    for i in 0..PAGES {
        let url = Url::parse(&format!("http://chaos/p{i}.html")).unwrap();
        let _ = stack.get(&url);
        let _ = stack.head(&url);
    }
    let telemetry = stack.telemetry();
    let faults = telemetry.faults.expect("fault layer");
    let resilience = telemetry.resilience.expect("resilience layer");
    assert!(
        faults.injected_total() > 0,
        "20% over {} attempts injected nothing",
        faults.requests_total()
    );
    // Per host, the kind counters decompose the injected total exactly —
    // no fault can be injected without leaving a classified trace.
    for (host, h) in &faults.hosts {
        assert_eq!(
            h.injected(),
            h.latency + h.timeouts + h.server_errors + h.resets + h.truncated,
            "{host}"
        );
        assert!(h.injected() <= h.requests, "{host}");
        assert_eq!(
            h.transient_failures(),
            h.timeouts + h.server_errors + h.resets,
            "{host}"
        );
    }
    // And the two layers reconcile: the transport saw exactly the
    // admitted requests plus the retries, minus the breaker's fast-fails.
    let (_, f) = faults.hosts.iter().find(|(h, _)| h == "chaos").unwrap();
    let (_, r) = resilience.hosts.iter().find(|(h, _)| h == "chaos").unwrap();
    assert_eq!(f.requests, r.requests - r.fast_failures + r.retries);
    assert_eq!(r.successes + r.failures + r.fast_failures, r.requests);
}

/// The E15 grid: every crawl discipline at every fault rate, over the
/// sleepy transport. Returns `(rate, discipline, merged report)` per cell.
fn adaptive_grid() -> Vec<(u8, &'static str, String)> {
    let web = site();
    let mut cells = Vec::new();
    for rate in [0u8, 20, 50] {
        for (discipline, jobs, adaptive) in [
            ("sequential", 1, false),
            ("fixed x8", 8, false),
            ("adaptive x8", 8, true),
        ] {
            let run = crawl_site(jobs, |_| {
                let builder = FetchStack::new(Sleepy(web.clone()))
                    .faults(FaultSpec::all(rate), 13)
                    .resilience_defaults();
                match adaptive {
                    true => builder.adaptive_defaults().hedging_defaults().build(),
                    false => builder.build(),
                }
            });
            assert_eq!(run.outcome, ShardedOutcome::Complete);
            cells.push((rate, discipline, report_fingerprint(&run)));
        }
    }
    cells
}

#[test]
fn chaotic_crawl_finishes_within_a_hard_deadline() {
    // The crawls run on a scout thread so a wedge (deadlock, unbounded
    // retry loop) fails the test instead of hanging the suite: one
    // chaotic crawl, then the E15 grid (sequential, fixed 8-wide and
    // adaptive 8-wide at 0/20/50% faults over real 2 ms round trips).
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send((chaotic_crawl(7, 20), adaptive_grid()));
    });
    let ((_, resilience, pages, _), grid) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("chaotic crawl wedged");
    assert!(pages >= 1, "crawl found no pages at all");
    assert!(resilience.starts_with("resilience:"), "{resilience}");

    // Without faults the discipline may only change speed: each one
    // crawls the whole site and reports the same bytes. Under faults each
    // still reports the start page.
    let clean = &grid[0].2;
    assert_eq!(clean.lines().count(), PAGES + 2, "{clean}");
    assert!(!clean.contains("dead "), "{clean}");
    for (rate, discipline, report) in &grid {
        assert!(
            report.starts_with("http://chaos/index.html d0"),
            "{discipline} at {rate}% lost the start page:\n{report}"
        );
        if *rate == 0 {
            assert_eq!(report, clean, "{discipline} changed the clean report");
        }
    }
}

/// Drive one chaos-configured server through a fixed request script and
/// fingerprint what came back: every status, then the fault-injection
/// section of `/metrics`.
fn chaotic_server_run(seed: u64) -> (Vec<u16>, String) {
    let config = ServerConfig {
        service: ServiceConfig {
            workers: 2,
            enable_panic_marker: true,
            ..ServiceConfig::default()
        },
        faults: Some(FaultSpec::all(20)),
        fault_seed: seed,
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind_with(config, Gateway::default(), site())
        .expect("bind")
        .start();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |method: &str, target: &str, body: &[u8]| {
        client::write_request(&mut stream, method, target, &[], body).expect("send");
        client::read_response(&mut reader).expect("response")
    };

    let mut statuses = Vec::new();
    for i in 0..PAGES {
        let response = ask("GET", &format!("/lint?url=http://chaos/p{i}.html"), b"");
        assert!(
            response.status == 200 || response.status == 502,
            "url fetch {i} answered {} — not a definite lint or a definite failure",
            response.status
        );
        statuses.push(response.status);
    }
    // Mid-script, a job crashes its worker: the caller gets a 500, and
    // the very next request is served by the respawned pool. The HTML
    // report route buffers through the pool; a text-format POST /lint
    // would stream on the loop thread and never consult the marker.
    let crashed = ask(
        "POST",
        "/lint?format=html",
        format!("<P>x</P>{PANIC_MARKER}").as_bytes(),
    );
    assert_eq!(crashed.status, 500);
    let healthy = ask("POST", "/lint?format=html", b"<H1>x</H2>");
    assert_eq!(healthy.status, 200);
    statuses.extend([crashed.status, healthy.status]);

    let metrics_response = ask("GET", "/metrics", b"");
    let metrics = metrics_response.body_text();
    let fault_section = metrics
        .find("fault injection:")
        .map(|at| metrics[at..].to_string())
        .expect("chaotic /metrics lacks the fault section");
    // (The respawn may still be in flight at this instant; its counter is
    // asserted post-shutdown in the httpd integration suite.)
    assert!(metrics.contains("1 worker panic(s),"), "{metrics}");

    handle.shutdown();
    (statuses, fault_section)
}

/// A two-host web: the same page set on `flaky` and `steady`, so fault
/// injection confined to one host (`@flaky`) leaves a control group.
fn two_host_site() -> SharedWeb {
    let mut web = SimulatedWeb::new();
    for host in ["flaky", "steady"] {
        for i in 0..PAGES {
            web.add_page(
                &format!("http://{host}/p{i}.html"),
                format!("<HTML><HEAD><TITLE>p{i}</TITLE></HEAD><BODY><P>x</P></BODY></HTML>"),
            );
        }
    }
    SharedWeb::new(web)
}

#[test]
fn adaptive_limit_decays_on_the_flaky_host_before_its_breaker_opens() {
    // 50% faults confined to one host of two. Drive both hosts through
    // the stack exactly as the scheduler would: fetch, then feed the
    // request's cost back to the pacer as an observation.
    let stack = FetchStack::new(two_host_site())
        .faults(FaultSpec::all_at(50, "flaky"), 11)
        .resilience_defaults()
        .adaptive_defaults()
        .build();
    let pacer = stack.pacer();
    let initial = u32::try_from(pacer.limit("steady")).unwrap();
    let mut floored_while_closed = false;
    for i in 0..PAGES {
        for host in ["flaky", "steady"] {
            let url = Url::parse(&format!("http://{host}/p{i}.html")).unwrap();
            let ((status, _, _), cost) = stack.get_cost(&url);
            let failed = matches!(
                status,
                Status::ServerError | Status::TimedOut | Status::Reset
            );
            pacer.observe(
                host,
                Observation {
                    clean: !failed && cost.retries == 0 && !cost.shed,
                    bad: failed || cost.retries > 0 || cost.shed,
                    latency_us: cost.virtual_us(),
                },
            );
        }
        // The acceptance bar: the limit bottoms out while the breaker is
        // still closed — pacing throttles *before* the breaker trips.
        if pacer.limit("flaky") == 1 && stack.breaker_state("flaky") == BreakerState::Closed {
            floored_while_closed = true;
        }
    }
    let stats = stack.telemetry().pacing.expect("pacing enabled");
    let flaky = &stats.hosts.iter().find(|(h, _)| h == "flaky").unwrap().1;
    let steady = &stats.hosts.iter().find(|(h, _)| h == "steady").unwrap().1;
    assert!(
        floored_while_closed,
        "flaky limit never hit the floor under a closed breaker (limit {}, breaker {:?})",
        flaky.limit,
        stack.breaker_state("flaky")
    );
    assert!(flaky.decreases > 0, "{stats}");
    assert!(flaky.limit < initial, "{stats}");
    // The healthy host never throttled — its limit only ever grew.
    assert_eq!(steady.decreases, 0, "{stats}");
    assert!(steady.limit >= initial, "{stats}");

    // Recovery: once the weather clears, clean completions climb the
    // flaky host's limit back off the floor, one step per streak.
    let before = pacer.limit("flaky");
    for _ in 0..4 * usize::try_from(initial).unwrap() * 4 {
        pacer.observe(
            "flaky",
            Observation {
                clean: true,
                bad: false,
                latency_us: 20_000,
            },
        );
    }
    assert!(
        pacer.limit("flaky") > before,
        "limit stuck at {before} after the faults stopped"
    );
}

#[test]
fn hedges_respect_the_breaker_and_the_budget() {
    let pacer = Pacer::new(true, true);
    // A hedge is never authorized while the breaker is anything but
    // closed — half-open probes and open windows are off limits.
    for state in [BreakerState::Open, BreakerState::HalfOpen] {
        let token = pacer.authorize("h", state);
        assert!(!token.granted, "{state:?} granted a hedge");
    }
    // Under a closed breaker, grants are capped by the budget: never
    // more than 5% of authorized requests, no matter how many ask.
    let mut granted = 0u64;
    for _ in 0..400 {
        let token = pacer.authorize("h", BreakerState::Closed);
        if token.granted {
            granted += 1;
            pacer.settle_hedge("h", token, true, false);
        }
    }
    let stats = pacer.stats();
    let host = &stats.hosts[0].1;
    assert_eq!(host.suppressed_breaker, 2, "{stats}");
    assert_eq!(host.hedges_fired, granted, "{stats}");
    assert!(
        host.hedges_fired * 100 <= 5 * host.authorized,
        "budget overrun: {stats}"
    );
    assert!(host.suppressed_budget > 0, "{stats}");
    // A granted-but-unfired hedge refunds its budget reservation.
    let spent = pacer.stats().hosts[0].1.hedges_fired;
    let token = pacer.authorize("h", BreakerState::Closed);
    if token.granted {
        pacer.settle_hedge("h", token, false, false);
        assert_eq!(pacer.stats().hosts[0].1.hedges_fired, spent, "no refund");
    }
}

/// One adaptive chaotic crawl — parallel fetches, AIMD pacing, hedging —
/// reduced to a fingerprint: the full telemetry plus the crawl's shape.
fn adaptive_crawl(seed: u64) -> (String, Vec<String>, usize) {
    let web = site();
    let run = crawl_site(4, |_| {
        FetchStack::new(web.clone())
            .faults(FaultSpec::all(20), seed)
            .resilience_defaults()
            .adaptive_defaults()
            .hedging_defaults()
            .build()
    });
    let shape = run
        .report
        .pages
        .iter()
        .map(|p| format!("{} d{} m{}", p.url, p.depth, p.diagnostics.len()))
        .collect();
    (
        run.telemetry[0].1.to_string(),
        shape,
        run.report.dead_links.len(),
    )
}

#[test]
fn adaptive_crawls_are_deterministic_for_a_fixed_seed() {
    let first = adaptive_crawl(42);
    // Parallel in-flight fetches, but every order-sensitive decision is
    // made on the scheduler thread: three runs, byte-identical telemetry
    // and page order.
    for run in 0..2 {
        assert_eq!(adaptive_crawl(42), first, "run {run} diverged");
    }
    assert_ne!(adaptive_crawl(43).0, first.0, "seed not load-bearing");
    // The report shape matches the sequential chaotic crawl's contract:
    // pages were actually fetched and linted.
    assert!(!first.1.is_empty(), "adaptive crawl found no pages");
    assert!(first.0.contains("pacing:"), "{}", first.0);
}

// ---------------------------------------------------------------------
// Sharded, checkpointed crawling
// ---------------------------------------------------------------------

const FED_HOSTS: usize = 3;

/// A three-host federation with dense cross-host links, lintable defects
/// and deliberate dead links, so a sharded crawl exchanges work between
/// shards and has something to report.
fn federation_site() -> SharedWeb {
    let mut web = SimulatedWeb::new();
    for h in 0..FED_HOSTS {
        // The index links only the first page; pages chain onward, so
        // the crawl takes many waves — room to die in the middle of.
        web.add_page(
            &format!("http://fed{h}/index.html"),
            "<HTML><HEAD><TITLE>fed</TITLE></HEAD><BODY>\
             <A HREF=\"/p0.html\">start</A></BODY></HTML>"
                .to_string(),
        );
        for i in 0..PAGES {
            let defect = if i % 3 == 0 {
                "<H1>x</H2>"
            } else {
                "<H1>x</H1>"
            };
            let dead = if i % 5 == 0 {
                "<A HREF=\"/missing.html\">gone</A>"
            } else {
                ""
            };
            web.add_page(
                &format!("http://fed{h}/p{i}.html"),
                format!(
                    "<HTML><HEAD><TITLE>p{i}</TITLE></HEAD><BODY>{defect}\
                     <A HREF=\"/p{}.html\">next</A>\
                     <A HREF=\"http://fed{}/p{i}.html\">peer</A>{dead}</BODY></HTML>",
                    (i + 1) % PAGES,
                    (h + 1) % FED_HOSTS
                ),
            );
        }
    }
    SharedWeb::new(web)
}

/// One sharded crawl over the federation: per-shard adaptive stacks,
/// optional fault injection, any sharded options the test needs.
fn fed_crawl(
    shards: usize,
    rate: u8,
    mutate: impl FnOnce(&mut ShardedOptions),
) -> Result<ShardedReport, CheckpointError> {
    let web = federation_site();
    let robot = Robot::new(
        RobotOptions::builder()
            .max_pages(200)
            .jobs(4)
            .check_external(false)
            .build(),
    );
    let starts: Vec<Url> = (0..FED_HOSTS)
        .map(|h| Url::parse(&format!("http://fed{h}/index.html")).unwrap())
        .collect();
    let make_stack = |i: usize| {
        let mut builder = FetchStack::new(web.clone());
        if rate > 0 {
            builder = builder
                .faults(FaultSpec::all(rate), 100 + i as u64)
                .resilience_defaults();
        }
        builder.adaptive_defaults().hedging_defaults().build()
    };
    let mut options = ShardedOptions {
        shards,
        seed: 9,
        ..ShardedOptions::default()
    };
    mutate(&mut options);
    robot.crawl_sharded(&starts, make_stack, &options)
}

/// A sharded run reduced to a comparable fingerprint: the full merged
/// report plus every shard's telemetry — two equal fingerprints mean the
/// whole crawl history (pages, attribution, retries, pacing) matched.
fn sharded_fingerprint(run: &ShardedReport) -> String {
    let mut s = report_fingerprint(run);
    for (i, telemetry) in &run.telemetry {
        s.push_str(&format!("shard{i}:\n{telemetry}\n"));
    }
    s
}

/// Just the merged report (the part that must also be invariant across
/// shard *counts*, where per-shard telemetry legitimately differs).
fn report_fingerprint(run: &ShardedReport) -> String {
    let mut s = String::new();
    for p in &run.report.pages {
        s.push_str(&format!(
            "{} d{} m{} l{}\n",
            p.url,
            p.depth,
            p.diagnostics.len(),
            p.link_count
        ));
    }
    for d in &run.report.dead_links {
        s.push_str(&format!("dead {} {} {}\n", d.page, d.href, d.reason));
    }
    s.push_str(&format!(
        "redirects {} truncated {}\n",
        run.report.redirects_followed, run.report.truncated
    ));
    s
}

fn chaos_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weblint-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sharded_crawls_are_deterministic_for_a_fixed_seed() {
    let first = fed_crawl(2, 15, |_| {}).unwrap();
    assert_eq!(first.outcome, ShardedOutcome::Complete);
    assert_eq!(
        first.report.pages.len(),
        FED_HOSTS * (PAGES + 1),
        "crawl missed pages"
    );
    let golden = sharded_fingerprint(&first);
    for run in 0..2 {
        let again = sharded_fingerprint(&fed_crawl(2, 15, |_| {}).unwrap());
        assert_eq!(again, golden, "run {run} diverged");
    }
}

/// One sharded crawl of a generated MegaSite federation (8 hosts × 12
/// pages, planted defects and dead links) behind a sleepy transport.
fn mega_crawl(site: &MegaSite, shards: usize) -> ShardedReport {
    let robot = Robot::new(
        RobotOptions::builder()
            .max_pages(site.total_pages() + 8)
            .jobs(4)
            .check_external(false)
            .build(),
    );
    let starts: Vec<Url> = site
        .start_urls()
        .iter()
        .map(|u| Url::parse(u).unwrap())
        .collect();
    let make_stack = |_| {
        let fetcher = FnFetcher::new(|url: &Url| site.resolve(&url.host, &url.path));
        FetchStack::new(Sleepy(fetcher))
            .adaptive_defaults()
            .hedging_defaults()
            .build()
    };
    let options = ShardedOptions {
        shards,
        seed: 18,
        ..ShardedOptions::default()
    };
    robot.crawl_sharded(&starts, make_stack, &options).unwrap()
}

#[test]
fn merged_report_is_invariant_across_shard_counts() {
    // Without faults the crawl's observable result is a property of the
    // site, not the partitioning: 1, 2, 4 and 8 shards produce the same
    // merged report (telemetry differs — it is per shard).
    let one = report_fingerprint(&fed_crawl(1, 0, |_| {}).unwrap());
    for shards in [2usize, 4, 8] {
        let many = fed_crawl(shards, 0, |_| {}).unwrap();
        assert_eq!(many.shards, shards);
        assert_eq!(report_fingerprint(&many), one, "{shards} shards diverged");
    }

    // The same over a generated federation (E18's), where the crawl must
    // also reach every page it generated.
    let site = MegaSite::new(
        18,
        &MegaSiteOptions {
            hosts: 8,
            pages_per_host: 12,
            ..MegaSiteOptions::default()
        },
    );
    let one = mega_crawl(&site, 1);
    assert_eq!(
        one.report.pages.len(),
        site.total_pages(),
        "crawl missed pages"
    );
    let one = report_fingerprint(&one);
    for shards in [2usize, 4, 8] {
        let many = mega_crawl(&site, shards);
        assert_eq!(many.shards, shards);
        assert_eq!(report_fingerprint(&many), one, "{shards} shards diverged");
    }
}

#[test]
fn shard_death_is_survived_byte_identically() {
    let clean = sharded_fingerprint(&fed_crawl(2, 15, |_| {}).unwrap());
    // Panic shard 0 mid-wave, then shard 1 in a later wave, then shard
    // 1 again at wave 4 — after its thread has run waves 0 to 3 (every
    // host's pages chain, so each shard has work every wave): the
    // coordinator detects each death, hands the shard the wave again on
    // its pre-wave stack state, and the final crawl is indistinguishable.
    for (shard, wave) in [(0usize, 0usize), (1, 1), (1, 4)] {
        let run = fed_crawl(2, 15, |o| {
            o.chaos = ShardChaos {
                panic_shard: Some((shard, wave)),
                kill_after_checkpoints: None,
            };
        })
        .unwrap();
        assert_eq!(run.shard_deaths, 1, "shard {shard} wave {wave} not killed");
        assert_eq!(run.outcome, ShardedOutcome::Complete);
        assert_eq!(
            sharded_fingerprint(&run),
            clean,
            "shard {shard} death at wave {wave} changed the crawl"
        );
    }
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_run() {
    let golden = sharded_fingerprint(&fed_crawl(2, 15, |_| {}).unwrap());
    let dir = chaos_dir("kill");
    let checkpoint = CheckpointConfig {
        dir: dir.clone(),
        every_pages: 1,
        config_token: "chaos".to_string(),
    };
    // A hard kill right after the second periodic checkpoint: no final
    // flush, mid-crawl state on disk.
    let killed = fed_crawl(2, 15, |o| {
        o.checkpoint = Some(checkpoint.clone());
        o.chaos.kill_after_checkpoints = Some(2);
    })
    .unwrap();
    assert_eq!(killed.outcome, ShardedOutcome::Killed);
    assert!(
        killed.report.pages.len() < FED_HOSTS * (PAGES + 1),
        "kill came too late to prove anything"
    );
    // Resume replays from the checkpoint and finishes the crawl.
    let resumed = fed_crawl(2, 15, |o| {
        o.checkpoint = Some(checkpoint.clone());
        o.resume = true;
    })
    .unwrap();
    assert!(resumed.resumed_from_wave.is_some());
    assert_eq!(resumed.outcome, ShardedOutcome::Complete);
    assert_eq!(sharded_fingerprint(&resumed), golden);
    // Resuming a *completed* crawl replays nothing and reports the same.
    let replay = fed_crawl(2, 15, |o| {
        o.checkpoint = Some(checkpoint.clone());
        o.resume = true;
    })
    .unwrap();
    assert_eq!(sharded_fingerprint(&replay), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_newest_epoch_falls_back_and_corrupt_manifest_refuses() {
    let golden = sharded_fingerprint(&fed_crawl(2, 15, |_| {}).unwrap());
    let dir = chaos_dir("corrupt");
    let checkpoint = CheckpointConfig {
        dir: dir.clone(),
        every_pages: 1,
        config_token: "chaos".to_string(),
    };
    let killed = fed_crawl(2, 15, |o| {
        o.checkpoint = Some(checkpoint.clone());
        o.chaos.kill_after_checkpoints = Some(2);
    })
    .unwrap();
    assert_eq!(killed.outcome, ShardedOutcome::Killed);
    // Bit-flip the newest epoch's shard files: the loader must detect
    // the damage via checksum and fall back to the previous epoch —
    // replaying a little more, ending byte-identical.
    let mut epochs: Vec<u64> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            let rest = name.strip_prefix("shard0.")?;
            rest.strip_suffix(".ckpt")?.parse().ok()
        })
        .collect();
    epochs.sort();
    let newest = *epochs.last().unwrap();
    for shard in 0..2 {
        let path = dir.join(format!("shard{shard}.{newest}.ckpt"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
    }
    let resumed = fed_crawl(2, 15, |o| {
        o.checkpoint = Some(checkpoint.clone());
        o.resume = true;
    })
    .unwrap();
    assert_eq!(resumed.outcome, ShardedOutcome::Complete);
    assert_eq!(sharded_fingerprint(&resumed), golden);

    // A corrupt manifest is a clean, diagnosable refusal — never a
    // panic, never a silent fresh crawl.
    std::fs::write(dir.join("manifest.ckpt"), b"not a manifest").unwrap();
    let refused = fed_crawl(2, 15, |o| {
        o.checkpoint = Some(checkpoint.clone());
        o.resume = true;
    });
    assert!(
        matches!(refused, Err(CheckpointError::Corrupt(_))),
        "{refused:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_configuration() {
    let dir = chaos_dir("fingerprint");
    let checkpoint = CheckpointConfig {
        dir: dir.clone(),
        every_pages: 1,
        config_token: "chaos".to_string(),
    };
    let killed = fed_crawl(2, 15, |o| {
        o.checkpoint = Some(checkpoint.clone());
        o.chaos.kill_after_checkpoints = Some(1);
    })
    .unwrap();
    assert_eq!(killed.outcome, ShardedOutcome::Killed);
    // Different shard count, different seed, different config token:
    // each one changes the fingerprint and must be refused.
    for mutate in [
        &(|o: &mut ShardedOptions| o.shards = 4) as &dyn Fn(&mut ShardedOptions),
        &|o: &mut ShardedOptions| o.seed = 10,
        &|o: &mut ShardedOptions| {
            o.checkpoint.as_mut().unwrap().config_token = "different".to_string();
        },
    ] {
        let refused = fed_crawl(2, 15, |o| {
            o.checkpoint = Some(checkpoint.clone());
            o.resume = true;
            mutate(o);
        });
        assert!(
            matches!(refused, Err(CheckpointError::Incompatible(_))),
            "{refused:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_flag_pauses_gracefully_and_resume_completes() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let golden = sharded_fingerprint(&fed_crawl(2, 15, |_| {}).unwrap());
    let dir = chaos_dir("stop");
    let checkpoint = CheckpointConfig {
        dir: dir.clone(),
        every_pages: 1,
        config_token: "chaos".to_string(),
    };
    // A pre-raised stop flag: the crawl pauses at the first wave
    // boundary — here before any work at all — and flushes a final
    // checkpoint (the graceful-stop path, unlike the chaos kill).
    let flag = Arc::new(AtomicBool::new(true));
    let paused = fed_crawl(2, 15, |o| {
        o.checkpoint = Some(checkpoint.clone());
        o.stop = Some(Arc::clone(&flag));
    })
    .unwrap();
    assert_eq!(paused.outcome, ShardedOutcome::Paused);
    assert!(paused.report.pages.is_empty());
    flag.store(false, Ordering::SeqCst);
    let resumed = fed_crawl(2, 15, |o| {
        o.checkpoint = Some(checkpoint.clone());
        o.resume = true;
        o.stop = Some(Arc::clone(&flag));
    })
    .unwrap();
    assert_eq!(resumed.outcome, ShardedOutcome::Complete);
    assert_eq!(sharded_fingerprint(&resumed), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaotic_httpd_is_deterministic_and_survives_a_panicking_job() {
    let first = chaotic_server_run(9);
    let second = chaotic_server_run(9);
    assert_eq!(first, second, "same seed, same script, different history");
    // At 20% over 24 sequential fetches (each retried up to 3 times),
    // both outcomes occur: some lints survive retries, some don't.
    assert!(first.0.contains(&200), "{:?}", first.0);
}
