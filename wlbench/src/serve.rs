//! `serve`: the gateway user. An in-process `HttpServer` (default
//! configuration, event loop) on loopback, driven closed-loop with no
//! think time by two keep-alive connections:
//!
//! * interactive — a seeded mix of ~60% `POST /lint` on 4–32 KiB dirty
//!   documents, ~30% `POST /fix` (a quarter of them from a small hot set,
//!   the rest unique bodies) and ~10% `GET /health`;
//! * bulk — 256 KiB–1000 KiB documents uploaded back to back to
//!   `POST /lint`, alternating `Content-Length` and chunked framing, for
//!   `BULK_ON` of every `BULK_CYCLE`.
//!
//! Both share the server's single loop thread, so bulk streaming shows in
//! interactive latency. Against a saturating upload about half the
//! interactive requests wait behind a bulk feed, which puts the median on
//! the cliff between the two modes and makes it flip from run to run. The
//! short lulls fix the mix instead: about one interactive request in ten
//! waits, so `p50_ms` is uncontended service and `p99_ms` is the wait
//! behind bulk work. Every reply is checked after the window: `/lint`
//! bodies byte-for-byte against an in-process one-shot render, `/fix`
//! bodies against an in-process `Fixer`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use weblint_core::{format_report, LintSession, OutputFormat};
use weblint_fix::Fixer;
use weblint_httpd::{
    HttpMetrics, HttpServer, ServerConfig, ServerHandle, ServerMode, ServiceMetrics,
};

use crate::corpus::{document, geometric_sizes, total_bytes, Doc, KIB};
use crate::files::{expected_ids_present, stream_lint};
use crate::http::{digest, encode, Conn, Reply, Timing};
use crate::trace::{Tracer, NONE};
use crate::util::{
    calm_mask, calm_median, calm_pool, median, median_setup, ms, percentiles, Outcome, Rng, MIB,
};

/// Distinct interactive documents.
const POOL: usize = 192;
/// `/fix` bodies that repeat, so the service cache has work.
const HOT: usize = 4;
/// The event loop's socket read size, which the traced replay feeds in.
const LOOP_READ: usize = 16 * KIB;
/// The bulk connection uploads for the first `BULK_ON` of every cycle.
const BULK_CYCLE: Duration = Duration::from_millis(500);
const BULK_ON: Duration = Duration::from_millis(400);

struct Inputs {
    pool: Vec<Doc>,
    bulk: Vec<Doc>,
    /// Digest of the in-process one-shot render of each pool document.
    pool_render: Vec<u64>,
    bulk_render: Vec<u64>,
    lint_requests: Vec<Vec<u8>>,
    bulk_requests: Vec<Vec<u8>>,
    hot_fix_requests: Vec<Vec<u8>>,
}

fn inputs(seed: u64, out: &mut Outcome) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x5E7E);
    let pool: Vec<Doc> = geometric_sizes(POOL, 4 * KIB, 32 * KIB)
        .into_iter()
        .enumerate()
        .map(|(i, size)| document(&mut rng, format!("i{i:03}.html"), size))
        .collect();
    let bulk: Vec<Doc> = [256, 352, 480, 640, 832, 1000]
        .into_iter()
        .enumerate()
        .map(|(i, kib)| document(&mut rng, format!("bulk{i}.html"), kib * KIB))
        .collect();
    let mut session = LintSession::new();
    let mut render = |doc: &Doc, out: &mut Outcome| {
        let diags = session.check_string(&doc.text);
        out.check(expected_ids_present(doc, &diags), || {
            format!("{}: injected defects not reported", doc.name)
        });
        digest(format_report(&diags, &doc.name, OutputFormat::Lint).as_bytes())
    };
    let pool_render = pool.iter().map(|d| render(d, out)).collect();
    let bulk_render = bulk.iter().map(|d| render(d, out)).collect();
    let lint_target = |d: &Doc| format!("/lint?name={}", d.name);
    Inputs {
        lint_requests: pool
            .iter()
            .map(|d| encode("POST", &lint_target(d), d.text.as_bytes(), false))
            .collect(),
        bulk_requests: bulk
            .iter()
            .enumerate()
            .map(|(i, d)| encode("POST", &lint_target(d), d.text.as_bytes(), i % 2 == 1))
            .collect(),
        hot_fix_requests: pool[..HOT]
            .iter()
            .map(|d| encode("POST", "/fix", d.text.as_bytes(), false))
            .collect(),
        pool,
        bulk,
        pool_render,
        bulk_render,
    }
}

/// Start a default-configuration server and wait for its first
/// `/health` 200.
fn start_server() -> ServerHandle {
    let config = ServerConfig::default();
    assert_eq!(
        config.mode,
        ServerMode::EventLoop,
        "default server mode changed"
    );
    let handle = HttpServer::bind(config)
        .expect("bind a loopback port")
        .start();
    let health = encode("GET", "/health", b"", false);
    loop {
        if let Ok(mut conn) = Conn::connect(handle.addr()) {
            if let Ok((reply, _)) = conn.exchange(&health) {
                if reply.status == 200 {
                    return handle;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Lint(usize),
    /// A pool document, with a unique trailing comment unless hot.
    Fix {
        doc: usize,
        unique: Option<u64>,
    },
    Health,
}

/// One completed (or failed) exchange.
struct Exchange {
    kind: Kind,
    timing: Option<Timing>,
    status: u16,
    digest: u64,
    fixed_count: Option<usize>,
}

/// A keep-alive connection that transparently reconnects when the server
/// closes it (after its per-connection request limit) or on an error.
/// Reconnecting happens between requests, outside their latency.
struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Client {
    fn send(&mut self, request: &[u8]) -> std::io::Result<(Reply, Timing)> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            None => self.conn.insert(Conn::connect(self.addr)?),
        };
        let result = conn.exchange(request);
        if !matches!(&result, Ok((reply, _)) if !reply.close) {
            self.conn = None;
        }
        result
    }
}

fn exchange(client: &mut Client, kind: Kind, request: &[u8]) -> Exchange {
    match client.send(request) {
        Ok((reply, timing)) => Exchange {
            kind,
            timing: Some(timing),
            status: reply.status,
            digest: digest(&reply.body),
            fixed_count: reply.fixed_count,
        },
        Err(_) => Exchange {
            kind,
            timing: None,
            status: 0,
            digest: 0,
            fixed_count: None,
        },
    }
}

fn fix_body(inputs: &Inputs, doc: usize, unique: Option<u64>) -> String {
    match unique {
        Some(n) => format!("{}<!-- request {n} -->\n", inputs.pool[doc].text),
        None => inputs.pool[doc].text.clone(),
    }
}

/// The interactive connection: the seeded mix until `deadline`.
fn interactive(inputs: &Inputs, addr: SocketAddr, seed: u64, deadline: Instant) -> Vec<Exchange> {
    let mut rng = Rng::new(seed ^ 0x1A7E);
    let mut client = Client { addr, conn: None };
    let health = encode("GET", "/health", b"", false);
    let mut done = Vec::new();
    let mut unique = 0;
    while Instant::now() < deadline {
        let roll = rng.range(0, 100);
        let result = if roll < 60 {
            let doc = rng.range(0, POOL);
            exchange(&mut client, Kind::Lint(doc), &inputs.lint_requests[doc])
        } else if roll < 90 {
            if rng.chance(25) {
                let doc = rng.range(0, HOT);
                let kind = Kind::Fix { doc, unique: None };
                exchange(&mut client, kind, &inputs.hot_fix_requests[doc])
            } else {
                let doc = rng.range(0, POOL);
                unique += 1;
                let body = fix_body(inputs, doc, Some(unique));
                let request = encode("POST", "/fix", body.as_bytes(), false);
                let kind = Kind::Fix {
                    doc,
                    unique: Some(unique),
                };
                exchange(&mut client, kind, &request)
            }
        } else {
            exchange(&mut client, Kind::Health, &health)
        };
        done.push(result);
    }
    done
}

/// The bulk connection: large uploads back to back during the first
/// `BULK_ON` of every `BULK_CYCLE` from `start`, until `deadline`.
fn bulk(
    inputs: &Inputs,
    addr: SocketAddr,
    seed: u64,
    start: Instant,
    deadline: Instant,
) -> Vec<Exchange> {
    let mut rng = Rng::new(seed ^ 0xB01C);
    let mut client = Client { addr, conn: None };
    let mut done = Vec::new();
    loop {
        let now = Instant::now();
        if now >= deadline {
            return done;
        }
        let into_cycle =
            Duration::from_nanos(((now - start).as_nanos() % BULK_CYCLE.as_nanos()) as u64);
        if into_cycle >= BULK_ON {
            std::thread::sleep(BULK_CYCLE - into_cycle);
            continue;
        }
        let doc = rng.range(0, inputs.bulk.len());
        done.push(exchange(
            &mut client,
            Kind::Lint(doc),
            &inputs.bulk_requests[doc],
        ));
    }
}

pub fn run(seed: u64, window: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(seed, &mut out);
    println!(
        "input: serve pool_documents={} pool_bytes={} hot={} bulk_documents={} bulk_bytes={} \
         clients=2 (interactive: closed loop, no think time; bulk: back to back for {} of every {} ms)",
        inputs.pool.len(),
        total_bytes(&inputs.pool),
        HOT,
        inputs.bulk.len(),
        total_bytes(&inputs.bulk),
        BULK_ON.as_millis(),
        BULK_CYCLE.as_millis()
    );
    out.put("setup_s", median_setup(7, start_server), "s");
    let server = start_server();
    let addr = server.addr();
    // Warm-up: both connections' paths, and the hot set into the cache.
    let warm = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| interactive(&inputs, addr, seed ^ 1, warm + BULK_CYCLE));
        s.spawn(|| bulk(&inputs, addr, seed ^ 1, warm, warm + BULK_CYCLE));
    });

    let before = (server.http_metrics(), server.service_metrics());
    let start = Instant::now();
    let deadline = start + window;
    let (chatty, uploads) = std::thread::scope(|s| {
        let chatty = s.spawn(|| interactive(&inputs, addr, seed, deadline));
        let uploads = s.spawn(|| bulk(&inputs, addr, seed, start, deadline));
        (
            chatty.join().expect("interactive client panicked"),
            uploads.join().expect("bulk client panicked"),
        )
    });
    let after = (server.http_metrics(), server.service_metrics());
    drop(server);

    // Oracles, after the window. Rounds are bulk cycles: every exchange
    // belongs to the cycle it started in.
    let rounds = (window.as_nanos() / BULK_CYCLE.as_nanos()).max(1) as usize;
    let round_of = |t: &Timing| {
        ((t.start.saturating_duration_since(start).as_nanos() / BULK_CYCLE.as_nanos()) as usize)
            .min(rounds - 1)
    };
    let mut fixer = Fixer::new();
    let mut fix_expect: HashMap<(usize, Option<u64>), (u64, usize)> = HashMap::new();
    let mut lint_ms = vec![Vec::new(); rounds];
    let mut fix_ms = vec![Vec::new(); rounds];
    let mut completed = vec![0usize; rounds];
    for x in &chatty {
        let ok = x.status == 200
            && match x.kind {
                Kind::Lint(doc) => x.digest == inputs.pool_render[doc],
                Kind::Health => x.digest == digest(b"ok\n"),
                Kind::Fix { doc, unique } => {
                    let (want, applied) = *fix_expect.entry((doc, unique)).or_insert_with(|| {
                        let report = fixer.fix(&fix_body(&inputs, doc, unique));
                        (digest(report.output.as_bytes()), report.fixes_applied)
                    });
                    x.digest == want && x.fixed_count == Some(applied)
                }
            };
        out.check(ok, || {
            format!("interactive {:?}: status {}", x.kind, x.status)
        });
        if let (true, Some(t)) = (ok, x.timing) {
            let round = round_of(&t);
            completed[round] += 1;
            match x.kind {
                Kind::Lint(_) => lint_ms[round].push(ms(t.latency())),
                Kind::Fix { .. } => fix_ms[round].push(ms(t.latency())),
                Kind::Health => {}
            }
        }
    }
    let mut bulk_rates = vec![Vec::new(); rounds];
    for x in &uploads {
        let Kind::Lint(doc) = x.kind else {
            unreachable!("bulk uploads are lints")
        };
        let ok = x.status == 200 && x.digest == inputs.bulk_render[doc];
        out.check(ok, || {
            format!("bulk {}: status {}", inputs.bulk[doc].name, x.status)
        });
        if let (true, Some(t)) = (ok, x.timing) {
            // An upload's bytes over its own latency.
            let rate = inputs.bulk[doc].text.len() as f64 / MIB / t.latency().as_secs_f64();
            bulk_rates[round_of(&t)].push(rate);
        }
    }
    // A round's speed: the inverse of its median interactive lint latency,
    // which sits in the uncontended mode and so tracks the machine.
    let speed: Vec<f64> = lint_ms
        .iter()
        .map(|v| if v.is_empty() { 0.0 } else { 1.0 / median(v) })
        .collect();
    let calm = calm_mask(&speed);
    let rates: Vec<f64> = completed
        .iter()
        .map(|&n| n as f64 / BULK_CYCLE.as_secs_f64())
        .collect();
    let lint_pool = calm_pool(&lint_ms, &calm);
    let fix_pool = calm_pool(&fix_ms, &calm);
    // Bulk uploads' calm rounds are judged by their own median rate: a
    // round's interactive latency says little about the upload beside it.
    let bulk_speed: Vec<f64> = bulk_rates
        .iter()
        .map(|v| if v.is_empty() { 0.0 } else { median(v) })
        .collect();
    let bulk_pool = calm_pool(&bulk_rates, &calm_mask(&bulk_speed));
    if lint_pool.is_empty() || fix_pool.is_empty() || bulk_pool.is_empty() {
        out.check(false, || {
            "a request kind has no samples in the calm rounds".to_string()
        });
        return out;
    }
    let (p50, p99, lint_n) = percentiles(&lint_pool);
    let (fix_p50, fix_p99, fix_n) = percentiles(&fix_pool);
    println!(
        "samples: serve interactive={} bulk={} rounds={} calm_rounds={} lint={} fix={} bulk_calm={}",
        chatty.len(),
        uploads.len(),
        rounds,
        calm.iter().filter(|&&c| c).count(),
        lint_n,
        fix_n,
        bulk_pool.len()
    );
    let ops_s = calm_median(&rates, &calm);
    out.put("ops_s", ops_s, "1/s");
    out.put("mib_s", median(&bulk_pool), "MiB/s");
    out.put("p50_ms", p50, "ms");
    out.put("p99_ms", p99, "ms");
    out.put("fix_p50_ms", fix_p50, "ms");
    out.put("fix_p99_ms", fix_p99, "ms");
    out.put("trace_base", ops_s, "1/s");
    if tracer.enabled() {
        client_spans(tracer, &chatty);
        server_layers(&before, &after, &mut out);
        let spans = tracer.count("httpd.client.request").max(1) as f64;
        out.put(
            "httpd.client.send_s",
            tracer.total_s("httpd.client.send") / spans,
            "s",
        );
        out.put(
            "httpd.client.wait_s",
            tracer.total_s("httpd.client.wait") / spans,
            "s",
        );
        out.put(
            "httpd.client.recv_s",
            tracer.total_s("httpd.client.recv") / spans,
            "s",
        );
        replay(&inputs, tracer, &mut out);
    }
    out
}

/// Client-side spans of every interactive exchange: send, wait (last
/// byte sent to first byte back), receive.
fn client_spans(tracer: &mut Tracer, exchanges: &[Exchange]) {
    for (i, x) in exchanges.iter().enumerate() {
        let Some(t) = x.timing else { continue };
        let trace = i as u64 + 1;
        let root = tracer.record(trace, NONE, "httpd.client.request", t.start, t.done);
        tracer.record(trace, root, "httpd.client.send", t.start, t.sent);
        tracer.record(trace, root, "httpd.client.wait", t.sent, t.first_byte);
        tracer.record(trace, root, "httpd.client.recv", t.first_byte, t.done);
    }
}

/// Server-side counters as deltas over the window; every ratio names
/// its base.
fn server_layers(
    before: &(HttpMetrics, ServiceMetrics),
    after: &(HttpMetrics, ServiceMetrics),
    out: &mut Outcome,
) {
    let (h0, s0) = before;
    let (h1, s1) = after;
    let jobs = s1.jobs_submitted - s0.jobs_submitted;
    let requests = h1.requests_served - h0.requests_served;
    out.put("service.jobs", jobs as f64, "count");
    // Base: service.jobs.
    out.put(
        "service.cache_hit_ratio",
        (s1.cache.hits - s0.cache.hits) as f64 / jobs.max(1) as f64,
        "ratio",
    );
    out.put(
        "service.coalesced",
        (s1.jobs_coalesced - s0.jobs_coalesced) as f64,
        "count",
    );
    out.put(
        "service.queue_wait_s",
        (s1.queue_wait - s0.queue_wait).as_secs_f64(),
        "s",
    );
    out.put(
        "service.lint_s",
        (s1.lint_time - s0.lint_time).as_secs_f64(),
        "s",
    );
    out.put(
        "service.rejected",
        (s1.jobs_rejected - s0.jobs_rejected) as f64,
        "count",
    );
    out.put("httpd.requests", requests as f64, "count");
    out.put(
        "httpd.streamed_lints",
        (h1.streamed_lints - h0.streamed_lints) as f64,
        "count",
    );
    // Base: httpd.requests.
    out.put(
        "httpd.wakeups_per_request",
        (h1.epoll_wakeups - h0.epoll_wakeups) as f64 / requests.max(1) as f64,
        "ratio",
    );
    out.put(
        "httpd.keepalive_reuse",
        (h1.keepalive_reuse - h0.keepalive_reuse) as f64,
        "count",
    );
    out.put(
        "httpd.shed",
        (h1.requests_shed - h0.requests_shed) as f64,
        "count",
    );
    out.put(
        "httpd.worker_errors",
        (h1.worker_errors - h0.worker_errors) as f64,
        "count",
    );
    out.put("httpd.bytes_in", (h1.bytes_in - h0.bytes_in) as f64, "B");
    out.put("httpd.bytes_out", (h1.bytes_out - h0.bytes_out) as f64, "B");
}

/// The server's engine layers run where the benchmark cannot wrap them,
/// so the traced run replays the served bodies in-process through the
/// same public calls: `feed` in the loop's read size then
/// `format_report` for every `/lint` document, `Fixer` for every pool
/// document as a `/fix` body.
fn replay(inputs: &Inputs, tracer: &mut Tracer, out: &mut Outcome) {
    let mut session = LintSession::new();
    let mut fixer = Fixer::new();
    let mut applied = 0usize;
    // Replay ids sit above the client exchanges' ids.
    let base = 1u64 << 32;
    for (i, doc) in inputs.pool.iter().chain(&inputs.bulk).enumerate() {
        let trace = base + i as u64;
        let root = tracer.begin(trace, NONE, "replay.lint");
        let feed = tracer.begin(trace, root, "core.replay.feed");
        let diags = stream_lint(&mut session, &doc.text, LOOP_READ, tracer, trace, feed);
        tracer.end(feed);
        tracer.span(trace, root, "core.format", || {
            format_report(&diags, &doc.name, OutputFormat::Lint)
        });
        tracer.end(root);
    }
    for (i, doc) in inputs.pool.iter().enumerate() {
        let trace = base + (inputs.pool.len() + inputs.bulk.len() + i) as u64;
        let root = tracer.begin(trace, NONE, "replay.fix");
        let report = tracer.span(trace, root, "fix.fix", || fixer.fix(&doc.text));
        applied += report.fixes_applied;
        tracer.end(root);
    }
    out.put(
        "core.replay.feed_s",
        tracer.total_s("core.replay.feed"),
        "s",
    );
    out.put("core.format.busy_s", tracer.total_s("core.format"), "s");
    out.put("fix.busy_s", tracer.total_s("fix.fix"), "s");
    out.put("fix.applied", applied as f64, "count");
}
