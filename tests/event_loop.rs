//! Wire-level integration tests for `weblint-serve`'s readiness loop.
//!
//! Every request in the corpus below is sent over a fresh connection,
//! and the complete raw byte stream the server answers with — 400s, 413s
//! and HTML reports included — must match the checked-in transcript
//! `tests/golden/http_responses.txt`, as must each case's `bytes_in` and
//! `requests_served` deltas. The transcript ends with the `/metrics`
//! body after the whole corpus, with the genuinely run-dependent lines
//! (readiness wakeups, queue/lint timing, per-worker distribution, pool
//! and cache counters) masked; every other counter must match to the
//! byte.
//!
//! Regenerate after an *intentional* protocol change with:
//!
//! ```sh
//! WEBLINT_GOLDEN_REGEN=1 cargo test -q --test event_loop
//! ```

use std::fmt::Write as _;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

use weblint::httpd::{client, HttpServer, ServerConfig};
use weblint::service::ServiceConfig;
use weblint::site::{SharedWeb, SimulatedWeb};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/http_responses.txt"
);

/// `/metrics` lines left out of the transcript. Readiness wakeups,
/// timing and the per-worker split depend on scheduling; the pool, job,
/// cache and request lines split work between the loop thread (streamed
/// lints) and the worker pool, which the responses above already pin.
const MASKED_METRICS: [&str; 7] = [
    "loop:",
    "time:",
    "load:  per-worker",
    "pool:",
    "jobs:",
    "cache:",
    "reqs:",
];

fn demo_web() -> SharedWeb {
    let mut web = SimulatedWeb::new();
    web.add_page(
        "http://demo/index.html",
        "<HTML><HEAD><TITLE>Demo</TITLE></HEAD>\n\
         <BODY><H1>Welcome</H2><IMG SRC=\"logo.gif\"></BODY></HTML>\n",
    );
    web.add_redirect("http://demo/old.html", "/index.html");
    SharedWeb::new(web)
}

fn server() -> weblint::httpd::ServerHandle {
    let config = ServerConfig {
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    HttpServer::bind_with(config, weblint::gateway::Gateway::default(), demo_web())
        .unwrap()
        .start()
}

/// Send raw request bytes on a fresh connection and collect everything
/// the server says until it closes.
fn exchange(addr: std::net::SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    // Signal EOF for truncated-body cases; harmless for the rest.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    response
}

fn post(target: &str, extra: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: weblint\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Render wire bytes as transcript text: backslashes doubled and each CR
/// spelled `\r`, so the file stays plain LF text and diffs line by line.
fn escape(bytes: &[u8]) -> String {
    let text = std::str::from_utf8(bytes).expect("every response is UTF-8");
    text.replace('\\', "\\\\").replace('\r', "\\r")
}

/// Fail at the first line where `actual` leaves the golden transcript.
fn assert_golden(expected: &str, actual: &str) {
    if expected != actual {
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(e, a, "first divergence at golden line {}", i + 1);
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "golden and actual differ in length"
        );
        panic!("golden and actual differ in trailing bytes");
    }
}

#[test]
fn responses_match_the_golden_transcript() {
    let fixture = "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><H1>x</H2></BODY></HTML>";
    let corpus: Vec<(&str, Vec<u8>)> = vec![
        (
            "health",
            b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        ),
        (
            "health HEAD",
            b"HEAD /health HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        ),
        (
            "form page",
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        ),
        ("lint default", post("/lint", "", fixture)),
        ("lint json", post("/lint?format=json", "", fixture)),
        ("lint terse", post("/lint?format=terse", "", fixture)),
        ("lint explain", post("/lint?format=explain", "", fixture)),
        (
            "lint html via accept",
            post("/lint", "Accept: text/html\r\n", fixture),
        ),
        ("lint empty body", post("/lint", "", "")),
        (
            "lint non-utf8 route",
            post("/lint?format=pony", "", fixture),
        ),
        (
            "lint url",
            b"GET /lint?url=http://demo/index.html HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        ),
        (
            "lint url redirect",
            b"GET /lint?url=http://demo/old.html HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        ),
        (
            "lint url missing",
            b"GET /lint?url=http://nowhere/ HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        ),
        ("fix", post("/fix", "", fixture)),
        (
            "not found",
            b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        ),
        ("malformed", b"NOT-EVEN-HTTP\r\n\r\n".to_vec()),
        (
            "oversized body",
            b"POST /lint HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n".to_vec(),
        ),
        (
            "truncated body",
            b"POST /lint HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort".to_vec(),
        ),
        (
            "pipelined pair",
            b"GET /health HTTP/1.1\r\n\r\nGET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
                .to_vec(),
        ),
    ];

    let handle = server();
    let mut transcript = String::from(
        "# weblint-serve wire transcript, one fresh connection per case.\n\
         # Regenerate: WEBLINT_GOLDEN_REGEN=1 cargo test -q --test event_loop\n",
    );
    for (name, raw) in &corpus {
        let before = handle.http_metrics();
        let response = exchange(handle.addr(), raw);
        assert!(!response.is_empty(), "{name}: no response at all");
        let after = handle.http_metrics();
        writeln!(
            transcript,
            "## {name}: {} byte(s), bytes_in +{}, requests_served +{}",
            response.len(),
            after.bytes_in - before.bytes_in,
            after.requests_served - before.requests_served
        )
        .unwrap();
        transcript.push_str(&escape(&response));
        transcript.push('\n');
    }

    // After the whole corpus, the counters themselves are pinned too:
    // the /metrics body, less the MASKED_METRICS lines.
    let raw = exchange(
        handle.addr(),
        b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    let text = String::from_utf8(raw).unwrap();
    let body = text.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(body.contains("httpd statistics:"), "{body}");
    transcript.push_str("## metrics (masked)\n");
    let masked = |line: &str| {
        let line = line.trim_start();
        MASKED_METRICS.iter().any(|prefix| line.starts_with(prefix))
    };
    for line in body.lines().filter(|line| !masked(line)) {
        transcript.push_str(&escape(line.as_bytes()));
        transcript.push('\n');
    }

    let (http, _) = handle.shutdown();
    assert_eq!(http.open_connections, 0);

    if std::env::var_os("WEBLINT_GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, &transcript).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden transcript missing — run with WEBLINT_GOLDEN_REGEN=1 to create it");
    assert_golden(&expected, &transcript);
}

/// The keep-alive soak: many concurrent persistent connections, each
/// serving a request, idling, then serving another, all held on the one
/// loop thread. Every request must be answered and the population must
/// drain cleanly. (CI runs this under `timeout`; a deadlocked loop hangs
/// here first.)
#[test]
fn keep_alive_soak_over_a_thousand_connections() {
    // 1k here; the C10k bench pushes further.
    let conns = 1000;
    // A long idle timeout: while one connection is served, the other 999
    // sit idle, and on a loaded single-core runner a full round can
    // outlast the default 5s.
    let config = ServerConfig {
        read_timeout: std::time::Duration::from_secs(120),
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind(config).unwrap().start();
    let addr = handle.addr();
    let mut sockets = Vec::with_capacity(conns);
    for i in 0..conns {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i} failed: {e}"));
        stream.set_nodelay(true).unwrap();
        sockets.push((stream.try_clone().unwrap(), BufReader::new(stream)));
    }
    // Two rounds over every connection, with the whole population held
    // open in between — the second round is pure keep-alive reuse.
    for round in 0..2 {
        for (i, (stream, reader)) in sockets.iter_mut().enumerate() {
            client::write_request(stream, "GET", "/health", &[], b"").unwrap();
            let response = client::read_response(reader)
                .unwrap_or_else(|e| panic!("round {round} conn {i}: {e}"));
            assert_eq!(response.status, 200, "round {round} conn {i}");
            assert_eq!(response.header("connection"), Some("keep-alive"));
        }
    }
    let open_at_peak = handle.http_metrics().open_connections;
    drop(sockets);
    let (http, _) = handle.shutdown();
    assert_eq!(http.connections_accepted, conns as u64);
    assert_eq!(http.requests_served, 2 * conns as u64);
    assert_eq!(http.keepalive_reuse, conns as u64);
    assert_eq!(open_at_peak, conns as u64);
    assert_eq!(http.timeouts, 0, "nothing should have timed out");
}
