//! A std-only HTTP/1.1 front end serving the lint engine over real
//! sockets.
//!
//! The paper's gateways were CGI scripts: a web server forked Perl per
//! submission (§4.5). This crate is the next step the closing section
//! gestures at — weblint as a long-lived network service. It speaks just
//! enough HTTP/1.1 (hand-rolled parser, `Content-Length` bodies,
//! persistent connections) to put the [`weblint_service`] worker pool and
//! result cache behind four routes:
//!
//! * `POST /lint` — the body is the document; `?format=` or the `Accept`
//!   header picks traditional lint, short, terse, explain, JSON, or the
//!   full gateway HTML report.
//! * `GET /lint?url=…` — fetch through the simulated web with
//!   [`weblint_site::resolve`] and lint the page it lands on.
//! * `GET /health` — liveness.
//! * `GET /metrics` — the pool's [`ServiceMetrics`] plus the server's
//!   own [`HttpMetrics`]: connections, requests, parse errors, timeouts,
//!   bytes in/out.
//!
//! No TLS, no external dependencies: `TcpListener`, a hand-declared
//! readiness shim, and the existing service crate. Bodies arrive either
//! `Content-Length`-framed or `Transfer-Encoding: chunked`. One readiness
//! loop multiplexes every connection onto one thread (10k idle
//! keep-alive connections cost a buffer each, not a stack each), and
//! [`HttpServer::bind`] refuses rather than serve any other way when the
//! loop's poller or self-pipe cannot be created. `POST /lint` bodies
//! rendered as text are fed straight into an incremental
//! [`weblint_core::LintSession`] on the loop thread as their bytes land —
//! per-connection memory stays O(tokenizer state), not O(body), and a
//! `max_findings` budget can cut the read short; every other request
//! runs on a small dispatcher pool in front of the worker pool. Shutdown
//! is graceful — accepting stops, every in-flight request completes and
//! is answered, all threads are joined.
//!
//! # Examples
//!
//! ```
//! use std::io::BufReader;
//! use std::net::TcpStream;
//! use weblint_httpd::{client, HttpServer, ServerConfig};
//!
//! let handle = HttpServer::bind(ServerConfig::default()).unwrap().start();
//! let mut stream = TcpStream::connect(handle.addr()).unwrap();
//! let mut reader = BufReader::new(stream.try_clone().unwrap());
//! client::write_request(&mut stream, "POST", "/lint", &[], b"<H1>x</H2>").unwrap();
//! let response = client::read_response(&mut reader).unwrap();
//! assert_eq!(response.status, 200);
//! assert!(response.body_text().contains("malformed heading"));
//! handle.shutdown();
//! ```

// `sys` is the single carve-out: the readiness loop needs raw poll/epoll
// and self-pipe syscalls, declared by hand to honour the no-dependency
// rule. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod event;
mod handler;
mod http;
mod metrics;
mod server;
#[allow(unsafe_code)]
mod sys;

pub use http::{
    parse_request, percent_decode, write_response, ParseError, Request, Response, MAX_HEADERS,
    MAX_LINE,
};
pub use metrics::HttpMetrics;
pub use server::{HttpServer, ServerConfig, ServerHandle, ServerMode};

// Re-exported so callers configuring a server see one coherent surface.
pub use weblint_service::ServiceMetrics;
