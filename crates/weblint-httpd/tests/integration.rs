//! End-to-end tests over real TCP sockets: concurrent clients, duplicate
//! coalescing through the service cache, and graceful shutdown with a
//! request in flight.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use weblint_core::{format_report, LintSession, OutputFormat};
use weblint_httpd::{client, HttpServer, ServerConfig, ServerMode};
use weblint_service::ServiceConfig;

/// A document whose diagnostics depend on `i` (the blank lines shift the
/// line numbers), so each distinct document has a distinct report.
fn doc(i: usize) -> String {
    format!(
        "<HTML><HEAD><TITLE>doc {i}</TITLE></HEAD><BODY>{}<H1>x</H2><IMG SRC=\"x.gif\"></BODY></HTML>",
        "\n".repeat(i)
    )
}

fn server(workers: usize, mode: ServerMode) -> weblint_httpd::ServerHandle {
    let config = ServerConfig {
        mode,
        service: ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    HttpServer::bind(config)
        .expect("bind ephemeral port")
        .start()
}

#[test]
fn concurrent_clients_get_deterministic_responses_and_share_the_cache() {
    const CLIENTS: usize = 12;
    const DOCS: usize = 4;
    // Threaded mode: lint bodies buffer and dispatch through the worker
    // pool, so this test keeps exercising duplicate coalescing and the
    // result cache. (The event loop streams `POST /lint` past the pool;
    // its determinism is covered separately.)
    let handle = server(4, ServerMode::Threaded);
    let addr = handle.addr();

    // 12 concurrent clients over 4 distinct documents: every document is
    // posted by 3 different clients, and every client posts its document
    // twice on one keep-alive connection — so the server sees both
    // concurrent duplicates (coalesced) and repeats (cache hits).
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let body = doc(c % DOCS);
            thread::spawn(move || -> (usize, Vec<Vec<u8>>) {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                barrier.wait();
                let mut responses = Vec::new();
                for _ in 0..2 {
                    client::write_request(
                        &mut stream,
                        "POST",
                        "/lint?name=doc",
                        &[],
                        body.as_bytes(),
                    )
                    .expect("send");
                    let response = client::read_response(&mut reader).expect("response");
                    assert_eq!(response.status, 200);
                    responses.push(response.body);
                }
                (c % DOCS, responses)
            })
        })
        .collect();

    let mut by_doc: HashMap<usize, Vec<Vec<u8>>> = HashMap::new();
    for client in clients {
        let (doc_index, responses) = client.join().expect("client thread");
        by_doc.entry(doc_index).or_default().extend(responses);
    }

    // Byte-determinism: all 6 responses for one document are identical
    // and match what the engine says inline.
    for (i, responses) in &by_doc {
        let expected = format_report(
            &LintSession::new().check_string(&doc(*i)),
            "doc",
            OutputFormat::Lint,
        );
        for response in responses {
            assert_eq!(
                std::str::from_utf8(response).unwrap(),
                expected,
                "document {i} response diverged"
            );
        }
    }
    // Distinct documents produced distinct reports (the test is not
    // vacuously comparing one constant).
    assert_eq!(by_doc.len(), DOCS);
    let first = &by_doc[&0][0];
    assert!(by_doc.iter().any(|(_, r)| &r[0] != first));

    // The duplicate traffic was answered without re-linting: 24 requests,
    // at most one lint per distinct document.
    let service = handle.service_metrics();
    assert_eq!(service.jobs_submitted, 2 * CLIENTS as u64);
    let linted: u64 = service.per_worker_completed.iter().sum();
    assert_eq!(linted, DOCS as u64, "{service:?}");
    assert!(service.cache.hits > 0, "{service:?}");

    // `/metrics` over the wire reflects those cache hits.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    client::write_request(&mut stream, "GET", "/metrics", &[], b"").unwrap();
    let metrics = client::read_response(&mut reader).unwrap();
    let text = metrics.body_text();
    assert!(text.contains("cache:"), "{text}");
    assert!(!text.contains("cache: 0 hit(s)"), "{text}");
    assert!(text.contains("httpd statistics:"), "{text}");

    let (http, _) = handle.shutdown();
    assert_eq!(http.connections_accepted, CLIENTS as u64 + 1);
    assert_eq!(http.requests_served, 2 * CLIENTS as u64 + 1);
    assert_eq!(http.parse_errors, 0);
}

#[test]
fn graceful_shutdown_answers_the_in_flight_request() {
    let handle = server(2, ServerMode::EventLoop);
    let addr: SocketAddr = handle.addr();

    // The client sends the headers and half the body, then stalls — the
    // request is mid-parse when shutdown begins. The server must finish
    // reading it, lint it, and write the response before closing.
    let body = doc(1);
    let expected = format_report(
        &LintSession::new().check_string(&body),
        "doc",
        OutputFormat::Lint,
    );
    let started = Arc::new(Barrier::new(2));
    let client_thread = {
        let started = Arc::clone(&started);
        let body = body.clone();
        thread::spawn(move || -> (u16, String) {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let (half, rest) = body.as_bytes().split_at(body.len() / 2);
            let head = format!(
                "POST /lint?name=doc HTTP/1.1\r\nHost: weblint\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            stream.write_all(head.as_bytes()).expect("head");
            stream.write_all(half).expect("first half");
            stream.flush().expect("flush");
            started.wait();
            thread::sleep(Duration::from_millis(150));
            stream.write_all(rest).expect("second half");
            stream.flush().expect("flush");
            let response = client::read_response(&mut reader).expect("response");
            (
                response.status,
                String::from_utf8(response.body).expect("utf-8"),
            )
        })
    };

    started.wait();
    // Let the server pick the request up, then shut down while the body
    // is still being dribbled in.
    thread::sleep(Duration::from_millis(30));
    let (http, service) = handle.shutdown();

    let (status, text) = client_thread.join().expect("client thread");
    assert_eq!(status, 200, "in-flight request was dropped");
    assert_eq!(text, expected);
    assert_eq!(http.requests_served, 1);
    // The event loop linted the body incrementally as it dribbled in —
    // the worker pool never saw a job.
    assert_eq!(http.streamed_lints, 1);
    assert_eq!(service.jobs_completed, 0);
}

#[test]
fn oversized_body_is_refused_over_the_wire() {
    let config = ServerConfig {
        max_body: 64,
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind(config).unwrap().start();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    client::write_request(&mut stream, "POST", "/lint", &[], &vec![b'x'; 1024]).unwrap();
    let response = client::read_response(&mut reader).unwrap();
    assert_eq!(response.status, 413);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(
        response.body_text().contains("64 byte limit"),
        "{}",
        response.body_text()
    );
    let (http, _) = handle.shutdown();
    assert_eq!(http.body_rejections, 1);
}

#[test]
fn oversized_body_is_refused_before_it_is_read() {
    let config = ServerConfig {
        max_body: 64,
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind(config).unwrap().start();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Declare a huge body but never send a byte of it: the 413 must
    // arrive anyway, because the limit is enforced from the head alone.
    stream
        .write_all(b"POST /lint HTTP/1.1\r\nHost: x\r\nContent-Length: 1048576\r\n\r\n")
        .unwrap();
    let response = client::read_response(&mut reader).unwrap();
    assert_eq!(response.status, 413);
    assert_eq!(response.header("connection"), Some("close"));
    let (http, _) = handle.shutdown();
    assert_eq!(http.body_rejections, 1);
}

#[test]
fn slowloris_header_dribble_is_cut_off_at_the_header_deadline() {
    let config = ServerConfig {
        header_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind(config).unwrap().start();
    let addr = handle.addr();

    // Trickle header bytes fast enough that a per-read timeout would
    // keep resetting, but slow enough that the head never completes
    // inside the header budget. The server must cut the connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
    let filler = b"X-Dribble: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
    let mut cut_off = false;
    for chunk in filler.chunks(2).cycle().take(60) {
        if stream
            .write_all(chunk)
            .and_then(|()| stream.flush())
            .is_err()
        {
            cut_off = true;
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    // Writes into a dead socket can succeed locally until the RST lands;
    // the read is the authoritative check. No response, just EOF (or a
    // reset), well before the 5s read timeout.
    let mut buf = Vec::new();
    use std::io::Read as _;
    let got = stream.read_to_end(&mut buf);
    cut_off = cut_off || matches!(got, Ok(0)) || got.is_err();
    assert!(
        cut_off,
        "server kept the dribbling connection open: {buf:?}"
    );
    assert!(buf.is_empty(), "unexpected response to a dribbled head");

    // The server is still healthy for well-behaved clients.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    client::write_request(&mut stream, "GET", "/health", &[], b"").unwrap();
    assert_eq!(client::read_response(&mut reader).unwrap().status, 200);

    let (http, _) = handle.shutdown();
    assert_eq!(http.header_timeouts, 1, "{http:?}");
    assert_eq!(http.timeouts, 0, "{http:?}");
}

#[test]
fn stalled_body_hits_the_read_timeout_not_the_header_deadline() {
    let config = ServerConfig {
        header_timeout: Duration::from_millis(150),
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind(config).unwrap().start();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // A complete head inside the header budget, then a body that stalls
    // forever: the (longer) body timeout applies, and the connection is
    // dropped without a response.
    stream
        .write_all(b"POST /lint HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nabc")
        .unwrap();
    let mut buf = Vec::new();
    use std::io::Read as _;
    let _ = stream.read_to_end(&mut buf);
    assert!(buf.is_empty(), "unexpected response to a stalled body");
    let (http, _) = handle.shutdown();
    assert_eq!(http.timeouts, 1, "{http:?}");
    assert_eq!(http.header_timeouts, 0, "{http:?}");
}

#[test]
fn unread_response_hits_the_write_timeout() {
    let config = ServerConfig {
        max_body: 32 << 20,
        write_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind(config).unwrap().start();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // An HTML report echoes the whole source, so a many-megabyte document
    // yields a response far larger than the socket buffers can absorb.
    // The client never reads: the server's blocked write must give up at
    // the write timeout instead of wedging the connection thread.
    let body = "<P>padding</P>".repeat(1 << 20);
    client::write_request(
        &mut stream,
        "POST",
        "/lint?format=html",
        &[],
        body.as_bytes(),
    )
    .unwrap();
    thread::sleep(Duration::from_millis(50));
    // Shutdown joins every connection thread; it only returns because the
    // write timed out and the thread exited.
    let (http, _) = handle.shutdown();
    assert_eq!(http.requests_served, 0, "{http:?}");
    assert!(http.bytes_in > 0, "{http:?}");
}

#[test]
fn malformed_content_length_mid_keep_alive_closes_the_connection() {
    let handle = server(1, ServerMode::EventLoop);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // A healthy request first, to establish the keep-alive session.
    client::write_request(&mut stream, "GET", "/health", &[], b"").unwrap();
    let ok = client::read_response(&mut reader).unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(ok.header("connection"), Some("keep-alive"));

    // Then a request whose framing cannot be trusted. Were the server to
    // guess a length and keep the connection, the bytes it guessed wrong
    // would desync every later request on this connection — so it must
    // answer 400 and close.
    stream
        .write_all(b"POST /lint HTTP/1.1\r\nHost: x\r\nContent-Length: +5\r\n\r\nAAAAA")
        .unwrap();
    let bad = client::read_response(&mut reader).unwrap();
    assert_eq!(bad.status, 400);
    assert_eq!(bad.header("connection"), Some("close"));
    assert!(
        bad.body_text().contains("content-length"),
        "{}",
        bad.body_text()
    );
    // The socket really is closed: EOF, not a next response.
    use std::io::Read as _;
    assert_eq!(reader.read(&mut [0u8; 1]).unwrap(), 0);

    // Conflicting duplicate lengths get the same treatment.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream
        .write_all(
            b"POST /lint HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nAAAAA",
        )
        .unwrap();
    let bad = client::read_response(&mut reader).unwrap();
    assert_eq!(bad.status, 400);
    assert_eq!(bad.header("connection"), Some("close"));
    assert_eq!(reader.read(&mut [0u8; 1]).unwrap(), 0);

    let (http, _) = handle.shutdown();
    assert_eq!(http.parse_errors, 2);
}

#[test]
fn chunked_lint_dribbled_over_the_wire_matches_the_one_shot_report() {
    let handle = server(1, ServerMode::EventLoop);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Hand-framed chunked upload, written a few bytes at a time with
    // pauses, so the event loop sees the body in many fragments and the
    // session genuinely lints across feed boundaries.
    let body = doc(3);
    let mut wire =
        b"POST /lint?name=doc&format=lint HTTP/1.1\r\nHost: weblint\r\nTransfer-Encoding: chunked\r\n\r\n"
            .to_vec();
    for chunk in body.as_bytes().chunks(7) {
        wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        wire.extend_from_slice(chunk);
        wire.extend_from_slice(b"\r\n");
    }
    wire.extend_from_slice(b"0\r\n\r\n");
    for piece in wire.chunks(11) {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
        thread::sleep(Duration::from_millis(1));
    }

    let response = client::read_response(&mut reader).unwrap();
    assert_eq!(response.status, 200);
    let expected = format_report(
        &LintSession::new().check_string(&body),
        "doc",
        OutputFormat::Lint,
    );
    assert_eq!(response.body_text(), expected);

    let (http, service) = handle.shutdown();
    assert_eq!(http.streamed_lints, 1, "{http:?}");
    assert_eq!(service.jobs_submitted, 0, "{service:?}");
}

#[test]
fn max_findings_cuts_a_streamed_lint_short() {
    let config = ServerConfig {
        max_findings: 2,
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind(config).unwrap().start();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Plenty of findings: each <B> opened-but-unclosed plus the bare
    // heading yields well past the budget of 2.
    let body = format!("<H1>x</H2>{}", "<B>y".repeat(40));
    client::write_request(
        &mut stream,
        "POST",
        "/lint?format=terse",
        &[],
        body.as_bytes(),
    )
    .unwrap();
    let response = client::read_response(&mut reader).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("x-weblint-truncated"),
        Some("stopped after 2 finding(s)"),
        "{response:?}"
    );
    assert_eq!(response.body_text().lines().count(), 2);

    // The budget ends the lint, not the connection: keep-alive still
    // works and the next request is answered in full.
    client::write_request(&mut stream, "GET", "/health", &[], b"").unwrap();
    assert_eq!(client::read_response(&mut reader).unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    const CLIENTS: usize = 8;
    // Threaded mode keeps lint jobs on the worker pool, whose queue is
    // what sheds. (Event-mode streamed lints never queue: they run
    // incrementally on the loop and cannot be refused for load.)
    let config = ServerConfig {
        mode: ServerMode::Threaded,
        service: ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            policy: weblint_service::SubmitPolicy::Reject,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind(config).unwrap().start();
    let addr = handle.addr();

    // One worker, a one-slot queue, and eight simultaneous slow lints:
    // most submissions must be refused, and each refusal must come back
    // as a 503 with a Retry-After hint rather than a hang or a drop.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let body = format!("<P>doc {c}</P>{}", "<P>x</P>".repeat(50_000));
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                barrier.wait();
                client::write_request(&mut stream, "POST", "/lint", &[], body.as_bytes())
                    .expect("send");
                let response = client::read_response(&mut reader).expect("response");
                let retry_after = response.header("retry-after").map(str::to_string);
                (response.status, retry_after)
            })
        })
        .collect();

    let mut ok = 0u64;
    let mut shed = 0u64;
    for client in clients {
        let (status, retry_after) = client.join().expect("client thread");
        match status {
            200 => ok += 1,
            503 => {
                shed += 1;
                assert_eq!(retry_after.as_deref(), Some("1"), "503 without Retry-After");
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(ok >= 1, "no request got through at all");
    assert!(shed >= 1, "an 8-way flood of a 1-slot queue shed nothing");

    // Shedding is load management, not failure: the server still answers.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    client::write_request(&mut stream, "POST", "/lint", &[], b"<H1>x</H2>").unwrap();
    assert_eq!(client::read_response(&mut reader).unwrap().status, 200);

    let (http, _) = handle.shutdown();
    assert_eq!(http.requests_shed, shed, "{http:?}");
    assert_eq!(http.requests_served, CLIENTS as u64 + 1);
}

#[test]
fn panicking_job_returns_500_and_the_pool_recovers() {
    // Threaded mode routes the poisoned body through a pool worker; the
    // event loop would lint it inline without consulting the marker.
    let config = ServerConfig {
        mode: ServerMode::Threaded,
        service: ServiceConfig {
            workers: 1,
            enable_panic_marker: true,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = HttpServer::bind(config).unwrap().start();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let body = format!("<P>x</P>{}", weblint_service::PANIC_MARKER);
    client::write_request(&mut stream, "POST", "/lint", &[], body.as_bytes()).unwrap();
    let crashed = client::read_response(&mut reader).unwrap();
    assert_eq!(crashed.status, 500);
    assert!(
        crashed.body_text().contains("crashed"),
        "{}",
        crashed.body_text()
    );

    // Same pool, same (sole) worker slot: the respawned worker serves the
    // next request normally, over the same keep-alive connection.
    client::write_request(&mut stream, "POST", "/lint", &[], b"<H1>x</H2>").unwrap();
    let healthy = client::read_response(&mut reader).unwrap();
    assert_eq!(healthy.status, 200);
    assert!(healthy.body_text().contains("malformed heading"));

    let (http, service) = handle.shutdown();
    assert_eq!(http.worker_errors, 1, "{http:?}");
    assert_eq!(service.worker_panics, 1, "{service:?}");
    assert_eq!(service.worker_respawns, 1, "{service:?}");
}
